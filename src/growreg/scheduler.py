"""Growing-L2 state machines for the two pruning schedules.

Schedule one fixes the prune set up front by L1 sorting and ramps the
penalty only on those groups. Schedule two ramps the penalty on every
prunable group until a picking ceiling, lets the induced magnitude gap
choose the prune set, then keeps ramping the pruned groups while the kept
groups recover under the negated base decay.

A tick corresponds to one SGD iteration: it advances the phase machine and
hands back the ``{layer: per-weight penalty factors}`` map that
``sgd_step`` takes for that iteration's update. Penalty increments, the
pick and the prune/kept sets change only at a ``k_update`` boundary, so
the map is rebuilt there and the same object is returned on every other
tick. Once the ramped value passes the ceiling ``tau`` the state
stabilizes (penalties frozen) for ``k_stabilize`` ticks and then reports
done, at which point the caller hard-prunes.

The staircase depends only on the ramp constants, so :func:`ramp_length`
works out the tick count by arithmetic, without a network or any ticking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ScheduleError
from .groups import (
    Mask,
    PruningPlan,
    expand_group_values,
    group_counts,
    group_l1_norms,
    select_prune_set,
    selection_counts,
    validate_plan_against,
)
from .netcore import Network

GROWING = "growing"
PICKED = "picked"
STABILIZING = "stabilizing"
DONE = "done"

# relative slack so an increment landing exactly on a ceiling does not
# register as "above" it through accumulated rounding
_CEIL_REL_EPS = 1e-9


@dataclass(frozen=True)
class RegConfig:
    """Penalty ramp constants.

    ``tau_prime`` only matters for the picking schedule;
    ``post_pick_delta_lambda`` lets the ramp granularity change after the
    pick event and defaults to ``delta_lambda``.
    """

    delta_lambda: float
    tau: float
    tau_prime: float = None
    k_update: int = 10
    k_stabilize: int = 0
    base_decay: float = 5e-4
    post_pick_delta_lambda: float = None

    def __post_init__(self):
        if self.tau_prime is not None and not 0 < self.tau_prime < self.tau:
            raise DomainError(
                f"need 0 < tau_prime < tau, got {self.tau_prime}, {self.tau}"
            )
        if self.k_update < 1:
            raise DomainError(f"k_update must be >= 1, got {self.k_update}")
        if self.k_stabilize < 0:
            raise DomainError(f"k_stabilize must be >= 0, got {self.k_stabilize}")
        if self.post_pick_delta_lambda is None:
            object.__setattr__(self, "post_pick_delta_lambda", self.delta_lambda)
        # ramp lengths are counted in increments that floats hold exactly
        for name in ("delta_lambda", "post_pick_delta_lambda"):
            step = getattr(self, name)
            if not (0 < step < self.tau and self.tau / step <= 2**53):
                raise DomainError(f"need tau / 2**53 <= {name} < tau, got {step}")


@dataclass(eq=False)
class RegState:
    """Phase machine plus per-layer prune / kept index sets."""

    method: str
    phase: str
    plan: PruningPlan
    prune_sets: list
    kept_sets: list
    eligible_layers: list
    iter: int = 0
    incr_pre: int = 0
    incr_post: int = 0
    stab_elapsed: int = 0
    lam: float = 0.0
    # group counts captured at init so masks can be rebuilt without the net
    _counts: list = None
    # per-weight penalty factors, rebuilt at each ramp boundary
    factors: dict = None

    @property
    def granularity(self):
        return self.plan.granularity

    def prune_set_size(self):
        return int(sum(len(p) for p in self.prune_sets))

    def prune_mask(self) -> Mask:
        """Keep-flags mask over the recorded prune sets."""
        flags = []
        for n, p in zip(self._counts, self.prune_sets):
            f = np.ones(n, dtype=np.uint8)
            f[p] = 0
            flags.append(f)
        return Mask(granularity=self.granularity, flags=flags)


def _eligible_layers(net: Network, plan: PruningPlan):
    return [
        l
        for l, spec in enumerate(net.layers)
        if spec.prunable and l not in plan.never_prune
    ]


def _empty_sets(n_layers):
    return [np.zeros(0, dtype=int) for _ in range(n_layers)]


def greg1_init(net: Network, plan: PruningPlan, cfg: RegConfig,
               mask: Mask = None) -> RegState:
    """Fixed-set schedule: choose the prune set once, now.

    The set is ``mask``'s pruned groups, or by default the plan's
    smallest-L1 groups. It never changes afterwards, which is what makes
    same-set comparisons against one-shot pruning meaningful.
    """
    validate_plan_against(net, plan)
    if mask is None:
        mask = select_prune_set(group_l1_norms(net, plan.granularity), plan)
    prune_sets = [np.flatnonzero(f == 0) for f in mask.flags]
    state = RegState(
        method="greg1",
        phase=GROWING,
        plan=plan,
        prune_sets=prune_sets,
        kept_sets=_empty_sets(len(net.layers)),
        eligible_layers=_eligible_layers(net, plan),
    )
    state._counts = group_counts(net, plan.granularity)
    if state.prune_set_size() == 0:
        state.phase = DONE
    return state


def greg2_init(net: Network, plan: PruningPlan, cfg: RegConfig) -> RegState:
    """Picking schedule: start with every prunable group under the ramp."""
    ramp_length(cfg, "greg2")  # rejects ramps that cannot pick
    validate_plan_against(net, plan)
    counts = group_counts(net, plan.granularity)
    eligible = _eligible_layers(net, plan)
    prune_sets = [
        np.arange(counts[l], dtype=int) if l in eligible else np.zeros(0, dtype=int)
        for l in range(len(net.layers))
    ]
    state = RegState(
        method="greg2",
        phase=GROWING,
        plan=plan,
        prune_sets=prune_sets,
        kept_sets=_empty_sets(len(net.layers)),
        eligible_layers=eligible,
    )
    state._counts = counts
    if state.prune_set_size() == 0:
        state.phase = DONE
    return state


def _above(value, ceiling):
    return value > ceiling * (1.0 + _CEIL_REL_EPS)


def _ramp_lambda(cfg: RegConfig, incr_pre, incr_post):
    return incr_pre * cfg.delta_lambda + incr_post * cfg.post_pick_delta_lambda


def _first_above(lam, ceiling, guess):
    """Smallest n >= 0 with non-decreasing ``lam(n)`` above ``ceiling``."""
    n = max(0, int(guess))
    while n > 0 and _above(lam(n - 1), ceiling):
        n -= 1
    while not _above(lam(n), ceiling):
        n += 1
    return n


def ramp_length(cfg: RegConfig, method: str, pick_empty: bool = False) -> int:
    """Ticks a fresh schedule with a non-empty prune set runs until done.

    Works the staircase out by arithmetic: boundary ``b`` (from 0) lands on
    tick ``b * k_update``, and the boundary whose increment passes ``tau``
    is the first of ``max(1, k_stabilize)`` stabilizing ticks. With
    ``pick_empty`` the picking schedule's pick selects no group, so it
    stabilizes at the picking boundary instead. Rejects a picking ramp that
    passes ``tau`` before any boundary sees the penalty above ``tau_prime``.
    """
    def pre(n):
        return _ramp_lambda(cfg, n, 0)

    if method != "greg2":
        last = _first_above(pre, cfg.tau, cfg.tau / cfg.delta_lambda) - 1
        return last * cfg.k_update + max(1, cfg.k_stabilize)
    if cfg.tau_prime is None:
        raise DomainError("the picking schedule needs tau_prime")
    pick = _first_above(pre, cfg.tau_prime, cfg.tau_prime / cfg.delta_lambda)
    if _above(pre(pick), cfg.tau):
        raise DomainError(
            f"with delta_lambda {cfg.delta_lambda}, lambda passes tau {cfg.tau} "
            f"before a boundary sees it above tau_prime {cfg.tau_prime}, so the "
            "picking schedule would never pick"
        )
    last = pick
    if not pick_empty:
        last += _first_above(lambda n: _ramp_lambda(cfg, pick, n), cfg.tau,
                             (cfg.tau - pre(pick)) / cfg.post_pick_delta_lambda) - 1
    return last * cfg.k_update + max(1, cfg.k_stabilize)


def ticks_to_done(state: RegState, cfg: RegConfig) -> int:
    """:func:`ramp_length` for a freshly initialized state (0 if done)."""
    if state.phase == DONE:
        return 0
    picks = selection_counts(state.plan, state._counts)
    return ramp_length(cfg, state.method, pick_empty=not any(picks))


def tick(state: RegState, net: Network, cfg: RegConfig) -> dict:
    """Advance one iteration; returns ``{layer: per-weight penalty factors}``.

    At every ``k_update`` boundary during the ramp the shared penalty rises
    by the configured granularity; for the picking schedule, a boundary
    reached with the penalty above ``tau_prime`` first re-scores the groups
    by L1 norm, fixes the prune set, and puts the kept set on the negated
    base decay. The boundary increment that passes ``tau`` flips the state
    to stabilizing, and the tick that completes ``k_stabilize`` stabilizing
    iterations reports done. The returned factors apply to this tick's
    weight update: base decay on a group in neither set, the ramped penalty
    on the prune set, the negated base decay on the kept set. They are
    rebuilt at each boundary (the only tick where they can change) and
    kept on the state as ``factors``, so every other tick returns the same
    object. ``net`` is read for the pick's L1 scores and the weight shapes.
    """
    if state.phase == DONE:
        raise ScheduleError("tick called on a finished schedule")
    if state.phase in (GROWING, PICKED) and state.iter % cfg.k_update == 0:
        if (
            state.method == "greg2"
            and state.phase == GROWING
            and _above(state.lam, cfg.tau_prime)
        ):
            _pick(state, net)
        if state.phase in (GROWING, PICKED):
            if state.method == "greg2" and state.phase == PICKED:
                state.incr_post += 1
            else:
                state.incr_pre += 1
            state.lam = _ramp_lambda(cfg, state.incr_pre, state.incr_post)
            if _above(state.lam, cfg.tau):
                state.phase = STABILIZING
                state.stab_elapsed = 0
        state.factors = _factors(state, net, cfg)
    if state.phase == STABILIZING:
        state.stab_elapsed += 1
        if state.stab_elapsed >= cfg.k_stabilize:
            state.phase = DONE
    state.iter += 1
    return state.factors


def _factors(state: RegState, net: Network, cfg: RegConfig) -> dict:
    groups = []
    for n, p, k in zip(state._counts, state.prune_sets, state.kept_sets):
        arr = np.full(n, cfg.base_decay, dtype=float)
        arr[p] = state.lam
        arr[k] = -cfg.base_decay
        groups.append(arr)
    return dict(enumerate(expand_group_values(net, state.granularity, groups)))


def _pick(state: RegState, net: Network):
    """Score by current L1 norms, fix the prune set, start kept recovery."""
    norms = group_l1_norms(net, state.granularity)
    mask = select_prune_set(norms, state.plan)
    prune_sets, kept_sets = [], []
    for l, flags in enumerate(mask.flags):
        if l in state.eligible_layers:
            prune_sets.append(np.flatnonzero(flags == 0))
            kept_sets.append(np.flatnonzero(flags == 1))
        else:
            prune_sets.append(np.zeros(0, dtype=int))
            kept_sets.append(np.zeros(0, dtype=int))
    state.prune_sets = prune_sets
    state.kept_sets = kept_sets
    if state.prune_set_size() == 0:
        # nothing left to ramp; the ceiling can never be passed
        state.phase = STABILIZING
        state.stab_elapsed = 0
    else:
        state.phase = PICKED


def is_prune_ready(state: RegState) -> bool:
    return state.phase == DONE
