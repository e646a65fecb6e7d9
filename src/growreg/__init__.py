"""Growing-L2 pruning lab.

Small trainable networks with exact gradients, two penalty-ramp pruning
schedules, the one-shot baselines they are compared against, and a
closed-form quadratic oracle validating the equilibrium theory the
schedules rely on.
"""

from .errors import GrowRegError, InputError, ExecutionError
from .quadratic import (
    PenaltyIncrement,
    QuadraticModel,
    ShrinkReport,
    diagonal_ratio,
    gd_minimize_quadratic,
    iterated_shrink,
    perturbed_minimum,
    two_d_ratios,
    two_d_ratios_exact,
)
from .netcore import (
    GradBuffer,
    LayerSpec,
    Network,
    OptimState,
    accuracy,
    forward,
    loss_and_grads,
    sgd_step,
)
from .groups import (
    GroupNorms,
    Mask,
    PruningPlan,
    apply_hard_prune,
    format_pruning_plan,
    group_l1_norms,
    norm_dispersion,
    parse_pruning_plan,
    random_prune_set,
    select_prune_set,
)
from .scheduler import RegConfig, RegState, greg1_init, greg2_init, is_prune_ready, tick
from .harness import (
    ExperimentConfig,
    ExperimentRecord,
    PhaseSchedule,
    compare_schedules,
    pretrain,
    run_method,
    track_separation,
)
from .checkpoint import load_checkpoint, save_checkpoint

__version__ = "0.1.0"
