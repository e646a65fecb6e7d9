"""Growing-L2 state machines for the two pruning schedules.

Schedule one fixes the prune set up front by L1 sorting and ramps the
penalty only on those groups. Schedule two ramps the penalty on every
prunable group until a picking ceiling, lets the induced magnitude gap
choose the prune set, then keeps ramping the pruned groups while the kept
groups recover under the negated base decay.

Each group's role indexes the factor table ``(base_decay, lam,
-base_decay)``: ``BASE``, ``RAMPED`` (greg1's set, greg2's eligible groups
before the pick and its pruned ones after; pruned when done) or
``RECOVERING`` (greg2's kept groups after the pick).

The ramp is a staircase fixed by the ramp constants alone: the penalty
rises every ``k_update`` ticks, greg2 picks at the first boundary that sees
it above ``tau_prime``, and the boundary whose increment passes ``tau``
starts ``k_stabilize`` ticks of frozen penalties, after which the caller
hard-prunes. :func:`_staircase` works it out by arithmetic at init. A
tick, one SGD iteration, walks it and returns the flat per-weight penalty
vector ``sgd_step`` takes, rebuilt only at a boundary; the phase follows
from the tick count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ScheduleError
from .groups import (
    Mask,
    PruningPlan,
    check_covers,
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

BASE, RAMPED, RECOVERING = 0, 1, 2  # group roles, see the module notes

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
        if not 0 <= self.base_decay < np.inf:
            raise DomainError(f"base_decay must be finite and >= 0, got {self.base_decay}")
        if self.post_pick_delta_lambda is None:
            object.__setattr__(self, "post_pick_delta_lambda", self.delta_lambda)
        # ramp lengths are counted in increments that floats hold exactly
        for name in ("delta_lambda", "post_pick_delta_lambda"):
            step = getattr(self, name)
            if not (0 < step < self.tau and self.tau / step <= 2**53):
                raise DomainError(f"need tau / 2**53 <= {name} < tau, got {step}")


@dataclass(eq=False)
class RegState:
    """Per-layer group roles plus the staircase of :func:`_staircase`.

    ``roles[l][g]`` is the role of layer ``l``'s group ``g``. Boundary
    ``b`` falls on tick ``b * k_update``; ``ticks`` is 0 when nothing is to
    be pruned. The phase follows from ``iter``.
    """

    method: str
    plan: PruningPlan
    roles: list
    eligible_layers: list
    pick: int
    last: int
    ticks: int
    k_update: int
    iter: int = 0
    lam: float = 0.0
    # per-weight penalty factors in net.flat_w's layout, rebuilt at each boundary
    factors: np.ndarray = None

    @property
    def phase(self) -> str:
        if self.iter >= self.ticks:
            return DONE
        # the tick at boundary b leaves iter at b * k_update + 1
        if self.iter > self.last * self.k_update:
            return STABILIZING
        if self.pick is not None and self.iter > self.pick * self.k_update:
            return PICKED
        return GROWING

    @property
    def granularity(self):
        return self.plan.granularity

    def prune_mask(self) -> Mask:
        """Keep-flags mask that prunes the ``RAMPED`` groups."""
        return Mask(self.granularity, [(r != RAMPED).astype(np.uint8) for r in self.roles])


def _eligible_layers(net: Network, plan: PruningPlan):
    return [
        l
        for l, spec in enumerate(net.layers)
        if spec.prunable and l not in plan.never_prune
    ]


def _new_state(net, plan, cfg, method, roles) -> RegState:
    # the pick selects floor(r_l * n_l) groups per layer whatever the scores
    pick_empty = not any(selection_counts(plan, [len(r) for r in roles]))
    pick, last = _staircase(cfg, method, pick_empty)
    ramped = any((r == RAMPED).any() for r in roles)
    return RegState(
        method=method,
        plan=plan,
        roles=roles,
        eligible_layers=_eligible_layers(net, plan),
        pick=pick,
        last=last,
        ticks=ramp_length(cfg, method, pick_empty) if ramped else 0,
        k_update=cfg.k_update,
    )


def greg1_init(net: Network, plan: PruningPlan, cfg: RegConfig,
               mask: Mask = None) -> RegState:
    """Fixed-set schedule: choose the prune set once, now.

    The set is ``mask``'s pruned groups, or by default the plan's
    smallest-L1 groups. It never changes afterwards, which is what makes
    same-set comparisons against one-shot pruning meaningful. A ``mask``
    must flag every group of the net.
    """
    validate_plan_against(net.layers, plan)
    if mask is None:
        mask = select_prune_set(group_l1_norms(net, plan.granularity), plan)
    check_covers(net, plan.granularity, mask.flags, "mask")
    roles = [np.where(f == 0, RAMPED, BASE) for f in mask.flags]
    return _new_state(net, plan, cfg, "greg1", roles)


def greg2_init(net: Network, plan: PruningPlan, cfg: RegConfig) -> RegState:
    """Picking schedule: start with every prunable group under the ramp."""
    validate_plan_against(net.layers, plan)
    eligible = _eligible_layers(net, plan)
    roles = [
        np.full(n, RAMPED if l in eligible else BASE)
        for l, n in enumerate(group_counts(net, plan.granularity))
    ]
    return _new_state(net, plan, cfg, "greg2", roles)


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


def _staircase(cfg: RegConfig, method: str, pick_empty: bool):
    """The pick boundary (None for greg1) and the last boundary.

    Boundary ``b`` sets the penalty to ``_ramp_lambda(cfg, b + 1, 0)``
    before the pick and to ``_ramp_lambda(cfg, pick, b - pick + 1)`` from
    it on. The pick is the first boundary whose incoming penalty is above
    ``tau_prime``; the last is the first whose new penalty is above
    ``tau``, or an empty pick, which adds no increment. Rejects a picking
    ramp that passes ``tau`` before any boundary sees it above ``tau_prime``.
    """
    def pre(n):
        return _ramp_lambda(cfg, n, 0)

    if method != "greg2":
        return None, _first_above(pre, cfg.tau, cfg.tau / cfg.delta_lambda) - 1
    if cfg.tau_prime is None:
        raise DomainError("the picking schedule needs tau_prime")
    pick = _first_above(pre, cfg.tau_prime, cfg.tau_prime / cfg.delta_lambda)
    if _above(pre(pick), cfg.tau):
        raise DomainError(
            f"with delta_lambda {cfg.delta_lambda}, lambda passes tau {cfg.tau} "
            f"before a boundary sees it above tau_prime {cfg.tau_prime}, so the "
            "picking schedule would never pick"
        )
    if pick_empty:
        return pick, pick
    post = _first_above(lambda n: _ramp_lambda(cfg, pick, n), cfg.tau,
                        (cfg.tau - pre(pick)) / cfg.post_pick_delta_lambda)
    return pick, pick + post - 1


def ramp_length(cfg: RegConfig, method: str, pick_empty: bool = False) -> int:
    """Ticks a fresh schedule with a non-empty prune set runs until done.

    The last boundary is the first of ``max(1, k_stabilize)`` stabilizing
    ticks; ``pick_empty`` says greg2's pick selects no group.
    """
    last = _staircase(cfg, method, pick_empty)[1]
    return last * cfg.k_update + max(1, cfg.k_stabilize)


def tick(state: RegState, net: Network, cfg: RegConfig) -> np.ndarray:
    """Advance one iteration; returns the per-weight penalty factors.

    At boundary ``b <= last`` the penalty is set from ``b`` (see
    :func:`_staircase`); greg2's pick boundary first re-scores the groups
    by L1 norm, keeps the pruned ones ``RAMPED`` and makes the kept ones
    ``RECOVERING``. The factors apply to this tick's weight update, each
    group's from its role. They form one flat vector in
    ``net.flat_w``'s layout, rebuilt at each boundary and kept on the state
    as ``factors``, so every other tick returns the same object. ``net`` is
    read for the pick's L1 scores and its weights' layout.
    """
    if state.phase == DONE:
        raise ScheduleError("tick called on a finished schedule")
    b, r = divmod(state.iter, state.k_update)
    if r == 0 and b <= state.last:
        if b == state.pick:
            _pick(state, net)
        if state.pick is None or b < state.pick:
            state.lam = _ramp_lambda(cfg, b + 1, 0)
        elif any((r == RAMPED).any() for r in state.roles):  # an empty pick adds none
            state.lam = _ramp_lambda(cfg, state.pick, b - state.pick + 1)
        state.factors = _factors(state, net, cfg)
    state.iter += 1
    return state.factors


def _factors(state: RegState, net: Network, cfg: RegConfig) -> np.ndarray:
    table = np.array([cfg.base_decay, state.lam, -cfg.base_decay], dtype=float)
    return expand_group_values(net, state.granularity, [table[r] for r in state.roles])


def _pick(state: RegState, net: Network):
    """Score by current L1 norms, fix the prune set, start kept recovery."""
    mask = select_prune_set(group_l1_norms(net, state.granularity), state.plan)
    # the plan gives every layer outside eligible_layers ratio 0
    state.roles = [
        np.where(f == 0, RAMPED, RECOVERING if l in state.eligible_layers else BASE)
        for l, f in enumerate(mask.flags)
    ]
