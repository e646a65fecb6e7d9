"""End-to-end experiment pipelines: pretrain, regularize, prune, fine-tune.

An ``ExperimentConfig`` is checked when it is built: its plan against its
layers for every method, and a ramp's ``ramp_length`` against
``reg_max_iters``. Every phase runs through one SGD loop, which takes the
ramp's penalties from one scheduler tick per step.

The harness owns the comparison protocols. A same-set comparison runs the
ramped schedule and one-shot pruning from one shared baseline with the
identical pruned set per seed (asserted via mask digests); the random-set
variant shares one seeded random mask between both schedules. Separation
tracking records per-layer norm dispersion and norm snapshots from one
baseline, while the penalty grows and for the same ticks without it.

Records are plain rows plus a summary dict, both rendered to CSV with
repr-formatted floats so identical configs reproduce byte-identical files.
Accuracies are fractions in [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DomainError, PlanError, ProtocolError
from .datasets import Dataset, load_csv_dataset, make_dataset
from .groups import (
    Mask,
    PruningPlan,
    apply_hard_prune,
    group_l1_norms,
    group_view,
    norm_dispersion,
    parse_pruning_plan,
    random_prune_set,
    select_prune_set,
    sparsity,
    validate_plan_against,
)
from .netcore import Network, OptimState, accuracy, loss_and_grads, sgd_step
from .scheduler import (
    RAMPED,
    RegConfig,
    RegState,
    greg1_init,
    greg2_init,
    ramp_length,
    tick,
)

METHODS = ("greg1", "greg2", "oneshot_l1", "random_subset")


@dataclass(frozen=True)
class PhaseSchedule:
    """Step budget plus piecewise-constant LR milestones ((step, lr), ...)."""

    steps: int
    batch_size: int
    milestones: tuple
    momentum: float = 0.9

    def __post_init__(self):
        if self.steps < 0:
            raise ConfigError(f"steps must be >= 0, got {self.steps}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")
        ms = tuple((int(s), float(lr)) for s, lr in self.milestones)
        if not ms or ms[0][0] != 0:
            raise ConfigError("LR milestones must start at step 0")
        if any(b[0] <= a[0] for a, b in zip(ms, ms[1:])):
            raise ConfigError("LR milestone steps must be strictly increasing")
        if any(lr <= 0 for _, lr in ms):
            raise ConfigError("LR values must be positive")
        object.__setattr__(self, "milestones", ms)

    def lr_at(self, step: int) -> float:
        lr = self.milestones[0][1]
        for s, v in self.milestones:
            if step >= s:
                lr = v
        return lr


@dataclass(frozen=True)
class ExperimentConfig:
    """A checked experiment (see the module notes); ``pruning_plan`` is its plan."""

    layers: tuple
    input_shape: tuple
    classes: int
    dataset: dict
    plan: str
    method: str
    reg: RegConfig
    pretrain: PhaseSchedule
    finetune: PhaseSchedule
    granularity: str = "filter"
    reg_batch_size: int = 64
    reg_lr: float = 1e-3
    reg_momentum: float = 0.9
    reg_max_iters: int = 500_000
    seed: int = 0
    metric_every: int = 200
    pruning_plan: PruningPlan = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        for name, low in (("reg_batch_size", 1), ("reg_max_iters", 0),
                          ("metric_every", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if not 0 < float(self.reg_lr) < np.inf:
            raise ConfigError(f"reg_lr must be finite and > 0, got {self.reg_lr}")
        if not 0 <= self.reg_momentum < 1:
            raise ConfigError(f"reg_momentum must lie in [0, 1), got {self.reg_momentum}")
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "input_shape", tuple(self.input_shape))
        plan = parse_pruning_plan(self.plan, len(self.layers), self.granularity)
        validate_plan_against(self.layers, plan)
        object.__setattr__(self, "pruning_plan", plan)
        if self.method in ("greg1", "greg2"):
            # raises DomainError for a greg2 ramp that cannot pick
            ticks = ramp_length(self.reg, self.method)
            if ticks > self.reg_max_iters:
                raise ConfigError(
                    f"regularization phase needs {ticks} iterations, over "
                    f"reg_max_iters {self.reg_max_iters}"
                )


@dataclass(eq=False)
class ExperimentRecord:
    """Per-checkpoint rows plus the final summary of one pipeline run."""

    rows: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    n_layers: int = 0

    def record_csv(self) -> str:
        cols = ["iter", "phase", "lambda", "train_loss", "val_acc"]
        disp = [f"disp_l{l}" for l in range(self.n_layers)]
        return csv_text([cols + disp] + [[row[c] for c in cols] + row["dispersions"]
                                         for row in self.rows])

    def snapshots_csv(self) -> str:
        return csv_text([["iter", "layer", "group", "value"]]
                        + [[it, layer, g, v] for it, layer, vec in self.snapshots
                           for g, v in enumerate(vec)])

    def summary_csv(self) -> str:
        return csv_text([list(self.summary), list(self.summary.values())])


def csv_text(rows) -> str:
    """Rows joined as CSV lines: a float as ``repr(float(v))``, anything else
    as ``str(v)``, so equal values always give equal bytes."""
    return "".join([
        ",".join([repr(float(v)) if isinstance(v, float) else str(v) for v in row]) + "\n"
        for row in rows
    ])


def build_dataset(exp: ExperimentConfig, seed_shift: int = 0) -> Dataset:
    spec = dict(exp.dataset)
    kind = spec.pop("kind", None)
    spec["seed"] = spec.get("seed", 0) + seed_shift
    if kind == "csv":
        return load_csv_dataset(**spec)
    return make_dataset(kind, **spec)


def _train(net, data, sched: PhaseSchedule, rng, base_decay, penalties=None,
           on_step=None):
    """The SGD loop of every phase: ``sched.steps`` momentum-SGD steps.

    ``penalties(step)``, called before each batch is drawn, returns that
    step's per-weight factors in ``net.flat_w``'s layout (uniform
    ``base_decay`` when absent); ``on_step(step, loss)`` runs after each
    update. A diverging run raises ``NumericError`` from the step's
    finiteness checks; numpy's floating-point warnings from the step math
    on the way there are silenced.
    """
    opt = OptimState.for_network(
        net, sched.lr_at(0), momentum=sched.momentum, base_decay=base_decay
    )
    batches = data.batches(sched.batch_size, rng)
    for step in range(sched.steps):
        opt.learning_rate = sched.lr_at(step)
        penalty = penalties(step) if penalties is not None else None
        x, y = next(batches)
        with np.errstate(all="ignore"):
            loss, grads = loss_and_grads(net, x, y)
            sgd_step(net, grads, opt, penalty)
        if on_step is not None:
            on_step(step, loss)
    return net


def pretrain(exp: ExperimentConfig, data: Dataset = None) -> Network:
    """Train a fresh baseline; zero steps returns the initialized net as is."""
    data = data or build_dataset(exp)
    net = Network.initialize(
        exp.layers, exp.input_shape, exp.classes, seed=[exp.seed, 0]
    )
    rng = np.random.default_rng([exp.seed, 1])
    return _train(net, data, exp.pretrain, rng, exp.reg.base_decay)


def _dispersions(net, granularity):
    out = []
    for vals in group_l1_norms(net, granularity):
        try:
            out.append(norm_dispersion(vals))
        except DomainError:
            out.append(float("nan"))
    return out


def _metric_row(record, it, phase, lam, loss, net, data, granularity):
    record.rows.append(
        {
            "iter": it,
            "phase": phase,
            "lambda": float(lam),  # an int ramp constant still renders as a float
            "train_loss": loss,
            "val_acc": accuracy(net, data.val_x, data.val_y),
            "dispersions": _dispersions(net, granularity),
        }
    )


def _snapshot(record, it, net, granularity, prunable_layers):
    norms = group_l1_norms(net, granularity)
    for l in prunable_layers:
        peak = norms[l].max()
        if peak > 0:
            record.snapshots.append((it, l, norms[l] / peak))


def _run_reg_phase(net, data, exp, state, record, control=False):
    """Drive the scheduler to done in ``state.ticks`` SGD steps, one per tick.

    ``control`` trains the same ticks under the uniform base decay instead.
    """
    def on_step(step, loss):
        if step % exp.metric_every == 0:
            phase, lam = ("control", 0.0) if control else (state.phase, state.lam)
            _metric_row(record, step, phase, lam, loss, net, data, state.granularity)
            if state.method == "greg2":
                _snapshot(record, step, net, state.granularity, state.eligible_layers)

    sched = PhaseSchedule(state.ticks, exp.reg_batch_size, ((0, exp.reg_lr),), exp.reg_momentum)
    _train(net, data, sched, np.random.default_rng([exp.seed, 2]), exp.reg.base_decay,
           None if control else lambda step: tick(state, net, exp.reg), on_step)


def run_method(
    exp: ExperimentConfig,
    baseline: Network = None,
    data: Dataset = None,
    initial_mask: Mask = None,
) -> ExperimentRecord:
    """Execute the full pipeline for the configured method.

    One-shot methods prune the baseline immediately and fine-tune; ramped
    methods run the scheduler to done first, prune exactly the recorded
    set, then fine-tune under the shared schedule. ``initial_mask``
    overrides the selection step (used by the shared-random-set protocol)
    and must be at the configured granularity. ``exp`` was checked when
    built; a ``baseline`` must have the configured topology. The
    summary's ``reg_ticks`` counts the ticks the ramp ran.
    """
    if initial_mask is not None and initial_mask.granularity != exp.granularity:
        raise PlanError(f"initial mask granularity {initial_mask.granularity!r} "
                        f"differs from the config's {exp.granularity!r}")
    data = data or build_dataset(exp)
    if data.classes != exp.classes:
        raise ConfigError(
            f"dataset has {data.classes} classes, network expects {exp.classes}"
        )
    if baseline is not None:
        have = (tuple(baseline.layers), baseline.input_shape, baseline.classes)
        want = (exp.layers, exp.input_shape, exp.classes)
        if have != want:
            raise ConfigError(
                f"baseline topology ({_topology(*have)}) differs from the "
                f"config's ({_topology(*want)})"
            )
    plan = exp.pruning_plan
    net = (baseline or pretrain(exp, data)).clone()
    record = ExperimentRecord(n_layers=len(net.layers))
    baseline_acc = accuracy(net, data.val_x, data.val_y)

    if exp.method not in ("greg1", "greg2"):
        if initial_mask is not None:
            mask = initial_mask
        elif exp.method == "oneshot_l1":
            mask = select_prune_set(group_l1_norms(net, exp.granularity), plan)
        else:
            mask = random_prune_set(net, plan, seed=[exp.seed, 3])
        pre_prune_acc = baseline_acc
        state = None
    else:
        if exp.method == "greg2":
            state = greg2_init(net, plan, exp.reg)
        else:
            state = greg1_init(net, plan, exp.reg, initial_mask)
        _run_reg_phase(net, data, exp, state, record)
        mask = state.prune_mask()
        pre_prune_acc = accuracy(net, data.val_x, data.val_y)
    reg_ticks = state.ticks if state is not None else 0

    pruned = apply_hard_prune(net, mask)
    post_prune_acc = accuracy(pruned, data.val_x, data.val_y)

    ft_rng = np.random.default_rng([exp.seed, 4])

    def ft_recorder(step, loss):
        it = reg_ticks + step
        if it % exp.metric_every == 0:
            _metric_row(record, it, "finetune", 0.0, loss, pruned, data,
                        exp.granularity)

    _train(pruned, data, exp.finetune, ft_rng, exp.reg.base_decay, on_step=ft_recorder)
    record.summary = {
        "method": exp.method,
        "seed": exp.seed,
        "baseline_acc": baseline_acc,
        "pre_prune_acc": pre_prune_acc,
        "post_prune_acc": post_prune_acc,
        "post_finetune_acc": accuracy(pruned, data.val_x, data.val_y),
        "sparsity": sparsity(net, pruned),
        "pruned_hash": mask.digest(),
        "reg_ticks": reg_ticks,
    }
    record.summary.update(
        suppression_stats(net, state) if state is not None else {}
    )
    return record


def _topology(layers, input_shape, classes):
    """One-line description of a network's shape, for error messages."""
    parts = ["input " + "x".join(map(str, input_shape))]
    for s in layers:
        kernel = f" {s.kernel[0]}x{s.kernel[1]}" if s.kernel else ""
        fixed = "" if s.prunable else " unprunable"
        parts.append(f"{s.kind} {s.units}{kernel} {s.activation}{fixed}")
    return " -> ".join(parts) + f", {classes} classes"


def suppression_stats(net: Network, state: RegState) -> dict:
    """How far the ramp pushed the prune-set weights below the kept ones.

    Numerator: max |w| over all prune-set groups. Denominators: the mean
    of per-group mean |w| over kept groups (reported ratio) and the min of
    those means (stricter variant, reported for reference).
    """
    pruned_max = 0.0
    kept_means = []
    for l in state.eligible_layers:
        a = np.abs(group_view(net.layers[l], net.weights[l], state.granularity))
        pruned = state.roles[l] == RAMPED
        if pruned.any():
            pruned_max = max(pruned_max, float(a[pruned].max()))
        kept_means.extend(a[~pruned].mean(axis=1).tolist())
    if not kept_means:
        return {}
    mean_kept = float(np.mean(kept_means))
    min_kept = float(np.min(kept_means))
    return {
        "pruned_max_abs": pruned_max,
        "kept_group_mean_abs": mean_kept,
        "suppression_ratio": pruned_max / mean_kept if mean_kept > 0 else float("inf"),
        "suppression_ratio_strict": pruned_max / min_kept if min_kept > 0 else float("inf"),
    }


@dataclass(eq=False)
class ComparisonResult:
    per_seed: list
    aggregates: dict

    def table_csv(self) -> str:
        cols = ["seed", "method", "post_finetune_acc", "pruned_hash"]
        return csv_text([cols] + [[row[c] for c in cols] for row in self.per_seed]
                        + [["method", "mean", "std", "", ""]]
                        + [[method, mean, std, "", ""]
                           for method, (mean, std) in self.aggregates.items()])


def compare_schedules(exp: ExperimentConfig, n_seeds: int, kind: str = "l1") -> ComparisonResult:
    """Ramped-vs-one-shot comparison over seeds with matched pruned sets.

    kind "l1": both methods prune the baseline's smallest-L1 groups (the
    same set by construction, asserted via digests). kind "random": one
    seeded random mask per seed, shared by both schedules.
    """
    if n_seeds < 2:
        raise ConfigError(f"need n_seeds >= 2, got {n_seeds}")
    if kind not in ("l1", "random"):
        raise ConfigError(f"kind must be 'l1' or 'random', got {kind!r}")
    per_seed = []
    accs = {"greg1": [], "oneshot": []}
    for s in range(n_seeds):
        # built as greg1, so a bad plan or ramp fails before any seed pretrains
        exp_s = replace(exp, seed=exp.seed + s, method="greg1")
        data = build_dataset(exp_s, seed_shift=s)
        baseline = pretrain(exp_s, data)
        mask = None
        if kind == "random":
            mask = random_prune_set(baseline, exp_s.pruning_plan, seed=[exp_s.seed, 3])
        rec_greg = run_method(exp_s, baseline=baseline, data=data, initial_mask=mask)
        exp_o = replace(
            exp_s, method="oneshot_l1" if kind == "l1" else "random_subset"
        )
        rec_one = run_method(exp_o, baseline=baseline, data=data, initial_mask=mask)
        if rec_greg.summary["pruned_hash"] != rec_one.summary["pruned_hash"]:
            raise ProtocolError(
                f"seed {exp_s.seed}: pruned sets differ between schedules "
                f"({rec_greg.summary['pruned_hash']} vs {rec_one.summary['pruned_hash']})"
            )
        for name, rec in (("greg1", rec_greg), ("oneshot", rec_one)):
            accs[name].append(rec.summary["post_finetune_acc"])
            per_seed.append(
                {
                    "seed": exp_s.seed,
                    "method": name,
                    "post_finetune_acc": rec.summary["post_finetune_acc"],
                    "pruned_hash": rec.summary["pruned_hash"],
                }
            )
    aggregates = {
        name: (float(np.mean(vals)), float(np.std(vals))) for name, vals in accs.items()
    }
    return ComparisonResult(per_seed=per_seed, aggregates=aggregates)


def schedule_length(exp: ExperimentConfig) -> int:
    """Tick count the configured ramp runs before reporting done.

    The duration depends only on the ramp constants, so it is worked out
    by arithmetic, for a plan whose prune set is not empty.
    """
    return ramp_length(exp.reg, exp.method)


def track_separation(exp: ExperimentConfig) -> tuple[ExperimentRecord, ExperimentRecord]:
    """Dispersion series and norm snapshots with and without the growing penalty.

    Returns ``(ramp, control)`` records, each run on its own clone of one
    pretrained baseline: ``ramp`` under the greg2 scheduler, ``control``
    for the same ticks under the uniform base decay, isolating what the
    growing penalty adds.
    """
    exp = replace(exp, method="greg2")
    data = build_dataset(exp)
    baseline = pretrain(exp, data)
    records = []
    for control in (False, True):
        net = baseline.clone()
        state = greg2_init(net, exp.pruning_plan, exp.reg)
        summary = {"mode": "control" if control else "greg2", "ticks": state.ticks}
        records.append(ExperimentRecord(n_layers=len(net.layers), summary=summary))
        _run_reg_phase(net, data, exp, state, records[-1], control)
    return tuple(records)
