"""Weight grouping, L1 scoring, masks, and physical pruning.

A weight group is the unit of pruning: one filter (conv) or one output
unit's incoming column (dense) at ``filter`` granularity, or a single
weight at ``weight`` granularity. :func:`group_view` is the one layout
rule: it shows a layer's weights as a ``(groups, members)`` array, and
counting, scoring and expanding per-group values all read that view.
Per-group values (norms, scores, keep flags, penalties) are plain lists
of one array per layer, matched to a net by :func:`check_covers`.
Selection masks the lowest-scoring groups per layer; hard pruning either
pins those weights at zero (unstructured) or slices the tensors,
including the consumer layer's matching input slice (structured).

All transformations return new objects; nothing here mutates a network.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionError, DomainError, PlanError, StructureError
from .netcore import Network, layer_shapes

GRANULARITIES = ("filter", "weight")


@dataclass(frozen=True)
class PruningPlan:
    """Per-layer target ratios plus grouping granularity.

    ``never_prune`` is derived: layer 0 is protected when its ratio is 0,
    and no layer is when the plan gives layer 0 a nonzero ratio.
    """

    ratios: tuple
    granularity: str = "filter"
    never_prune: frozenset = field(init=False)

    def __post_init__(self):
        if self.granularity not in GRANULARITIES:
            raise DomainError(f"granularity must be one of {GRANULARITIES}")
        ratios = tuple(float(r) for r in self.ratios)
        if any(not 0.0 <= r <= 1.0 for r in ratios):
            raise PlanError(f"ratios must lie in [0, 1], got {ratios}")
        protected = frozenset({0}) if ratios and ratios[0] == 0.0 else frozenset()
        object.__setattr__(self, "ratios", ratios)
        object.__setattr__(self, "never_prune", protected)

    @property
    def num_layers(self):
        return len(self.ratios)


_RANGE_ITEM = re.compile(r"^(\d+)(?:-(\d+))?:([0-9.eE+-]+)$")


def parse_pruning_plan(text: str, num_layers: int, granularity: str = "filter"):
    """Parse a plan string against a known layer count.

    Two forms are accepted: a stage list ``[0, 0.75, 0.75, 0.32]`` with one
    ratio per layer, and a range form ``[0:0, 1-15:0.70]`` assigning a
    ratio per index or inclusive index range. Range form must cover every
    layer exactly once.
    """
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise PlanError(f"plan must be bracketed, got {text!r}")
    body = s[1:-1].strip()
    items = [it.strip() for it in body.split(",")] if body else []
    if not items:
        raise PlanError("empty plan string")
    if any(":" in it for it in items):
        if not all(":" in it for it in items):
            raise PlanError("cannot mix range entries and plain ratios")
        ratios = [None] * num_layers
        for it in items:
            m = _RANGE_ITEM.match(it)
            if not m:
                raise PlanError(f"malformed range entry {it!r}")
            lo = int(m.group(1))
            hi = int(m.group(2)) if m.group(2) is not None else lo
            if hi < lo:
                raise PlanError(f"descending range in {it!r}")
            if hi >= num_layers:
                raise PlanError(f"entry {it!r} exceeds layer count {num_layers}")
            try:
                ratio = float(m.group(3))
            except ValueError:
                raise PlanError(f"bad ratio in {it!r}") from None
            for l in range(lo, hi + 1):
                if ratios[l] is not None:
                    raise PlanError(f"layer {l} covered twice (at {it!r})")
                ratios[l] = ratio
        uncovered = [l for l, r in enumerate(ratios) if r is None]
        if uncovered:
            raise PlanError(f"layers {uncovered} not covered by range plan")
    else:
        if len(items) != num_layers:
            raise PlanError(
                f"stage list has {len(items)} entries for {num_layers} layers"
            )
        try:
            ratios = [float(it) for it in items]
        except ValueError as exc:
            raise PlanError(f"bad ratio in plan: {exc}") from None
    return PruningPlan(ratios=tuple(ratios), granularity=granularity)


def format_pruning_plan(plan: PruningPlan) -> str:
    """Stage-list serialization; parses back to an equal plan."""

    def fmt(r):
        return str(int(r)) if r == int(r) else repr(r)

    return "[" + ", ".join(fmt(r) for r in plan.ratios) + "]"


# -- grouping and scoring ----------------------------------------------------


def group_view(spec, w, granularity):
    """``w`` as a 2-D ``(groups, members)`` array, one row per weight group.

    A row is one weight at ``weight`` granularity; at ``filter`` it is a
    dense unit's incoming column (``w.T``) or a conv filter. The view
    shares memory with a C-contiguous ``w``, so writes through it land in
    ``w``. Raises ``DomainError`` for an unknown granularity.
    """
    if granularity == "weight":
        return w.reshape(-1, 1)
    if granularity != "filter":
        raise DomainError(f"granularity must be one of {GRANULARITIES}, got {granularity!r}")
    if spec.kind == "dense":
        return w.T
    return w.reshape(len(w), -1)


def group_counts(net: Network, granularity: str):
    return [len(group_view(spec, w, granularity))
            for spec, w in zip(net.layers, net.weights)]


def check_covers(net: Network, granularity: str, per_layer, what: str):
    """Raise ``DimensionError`` unless ``per_layer`` has one value per group of ``net``."""
    have, counts = [len(v) for v in per_layer], group_counts(net, granularity)
    if have != counts:
        raise DimensionError(f"{what} holds {have} groups per layer, the net has {counts}")


def group_l1_norms(net: Network, granularity: str) -> list:
    """One array of group L1 norms per layer."""
    return [np.abs(group_view(spec, w, granularity)).sum(axis=1)
            for spec, w in zip(net.layers, net.weights)]


def norm_dispersion(norms) -> float:
    """Population stddev over mean of one layer's group norms."""
    vals = np.asarray(norms, dtype=float).ravel()
    if vals.size < 2:
        raise DomainError(f"dispersion needs >= 2 groups, got {vals.size}")
    mean = vals.mean()
    if mean <= 0:
        raise DomainError(f"dispersion undefined for mean {mean}")
    return float(vals.std() / mean)


# -- masks --------------------------------------------------------------------


@dataclass(eq=False)
class Mask:
    """Per-group keep flags (1 keep, 0 prune), one array per layer."""

    granularity: str
    flags: list = field(default_factory=list)

    def to_text(self) -> str:
        lines = [f"# granularity={self.granularity}"]
        for l, f in enumerate(self.flags):
            lines.append(f"{l} " + "".join("1" if v else "0" for v in f))
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()[:16]


def selection_counts(plan: PruningPlan, counts):
    """Groups the plan selects per layer, floor(r_l * n_l), given group counts."""
    if len(counts) != plan.num_layers:
        raise PlanError(
            f"plan covers {plan.num_layers} layers, network has {len(counts)}"
        )
    out = []
    for l, (r, n) in enumerate(zip(plan.ratios, counts)):
        k = int(np.floor(r * n))
        if n > 0 and k >= n:
            raise PlanError(
                f"layer {l}: ratio {r} would remove all {n} groups; "
                "at least one group must survive"
            )
        out.append(k)
    return out


def select_prune_set(scores, plan: PruningPlan) -> Mask:
    """Mask the floor(r_l * n_l) lowest-scoring groups per layer.

    ``scores`` holds one array of per-group scores per layer, such as
    :func:`group_l1_norms` returns, taken at the plan's granularity. Ties
    break toward the lower group index (stable sort), which keeps the
    selection deterministic and permutation-consistent.
    """
    ks = selection_counts(plan, [len(v) for v in scores])
    flags = []
    for vals, k in zip(scores, ks):
        f = np.ones(len(vals), dtype=np.uint8)
        if k > 0:
            order = np.argsort(vals, kind="stable")
            f[order[:k]] = 0
        flags.append(f)
    return Mask(granularity=plan.granularity, flags=flags)


def random_prune_set(net: Network, plan: PruningPlan, seed: int) -> Mask:
    """Uniform random choice of floor(r_l * n_l) groups per layer, seeded."""
    counts = group_counts(net, plan.granularity)
    ks = selection_counts(plan, counts)
    rng = np.random.default_rng(seed)
    flags = []
    for n, k in zip(counts, ks):
        f = np.ones(n, dtype=np.uint8)
        if k > 0:
            f[rng.choice(n, size=k, replace=False)] = 0
        flags.append(f)
    return Mask(granularity=plan.granularity, flags=flags)


def validate_plan_against(layers, plan: PruningPlan):
    """Reject plans that mismatch the layers, target unprunable ones or empty one."""
    if plan.num_layers != len(layers):
        raise PlanError(
            f"plan covers {plan.num_layers} layers, network has {len(layers)}"
        )
    for l, (spec, r) in enumerate(zip(layers, plan.ratios)):
        if r > 0 and not spec.prunable:
            raise PlanError(f"layer {l} is not prunable but has ratio {r}")
        if r == 1.0:  # floor(1 * n) = n groups, which selection_counts refuses
            raise PlanError(f"layer {l}: ratio 1.0 would remove every group")
    if plan.ratios and plan.ratios[-1] > 0:
        raise PlanError("final classifier layer cannot be pruned")


# -- physical pruning ----------------------------------------------------------


def expand_group_values(net: Network, granularity: str, layer_values):
    """Per-group scalars spread over their weights, in ``net.flat_w``'s layout.

    Returns a new flat vector whose slot for each weight holds its group's
    value: the per-weight penalty factors :func:`netcore.sgd_step` takes.
    """
    check_covers(net, granularity, layer_values, "group values")
    out = []
    for spec, w, vals in zip(net.layers, net.weights, layer_values):
        # C order, so the view writes into it; a layer's own slot may be a
        # stride order that group_view would copy, losing the writes
        e = np.empty(w.shape)
        group_view(spec, e, granularity)[:] = np.asarray(vals, dtype=float)[:, None]
        out.append(e)
    return net._w_layout.copy(out)[0]


def apply_hard_prune(net: Network, mask: Mask) -> Network:
    """Physically apply a mask at its granularity, returning a new network.

    Weight granularity pins masked weights at exactly zero and freezes
    them out of future updates. Filter granularity removes the group's
    slice from its layer and the matching input slice from the consumer
    layer (channels for conv consumers, flattened blocks for dense
    consumers); removed filters take their biases with them.
    """
    check_covers(net, mask.granularity, mask.flags, "mask")
    out = net.clone()
    if mask.granularity == "weight":
        for l, flags in enumerate(mask.flags):
            dead = (flags == 0).reshape(out.weights[l].shape)
            out.weights[l][dead] = 0.0
            prev = out.frozen[l]
            out.frozen[l] = dead if prev is None else (prev | dead)
        return out

    def cut(l, idx, axis):
        """Delete ``idx`` along ``axis`` from layer ``l``'s weights and frozen mask."""
        out.weights[l] = np.delete(out.weights[l], idx, axis=axis)
        if out.frozen[l] is not None:
            out.frozen[l] = np.delete(out.frozen[l], idx, axis=axis)

    specs = list(out.layers)
    shapes = layer_shapes(net.layers, net.input_shape)
    for l, flags in enumerate(mask.flags):
        removed = np.flatnonzero(flags == 0)
        if removed.size == 0:
            continue
        spec = specs[l]
        if l == len(specs) - 1:
            raise StructureError("cannot remove output units of the final layer")
        if flags.sum() == 0:
            raise StructureError(f"layer {l}: mask removes every group")
        cut(l, removed, 1 if spec.kind == "dense" else 0)
        out.biases[l] = np.delete(out.biases[l], removed)
        specs[l] = replace(spec, units=spec.units - removed.size)

        nxt = specs[l + 1]
        if nxt.kind == "conv2d":
            if spec.kind != "conv2d":
                raise StructureError("dense output feeding conv2d is unsupported")
            cut(l + 1, removed, 1)
        else:
            if spec.kind == "dense":
                rows = removed
            else:
                block = int(np.prod(shapes[l + 1][0][1:]))
                rows = (removed[:, None] * block + np.arange(block)[None, :]).ravel()
            cut(l + 1, rows, 0)
    try:
        return Network(specs, out.input_shape, out.classes, out.weights, out.biases, out.frozen)
    except (DimensionError, DomainError) as exc:
        raise StructureError(f"mask produced an inconsistent network: {exc}") from exc


def sparsity(original: Network, pruned: Network) -> float:
    """Fraction of weight entries removed or pinned at zero."""
    total = original.num_weights()
    live = 0
    for w, fz in zip(pruned.weights, pruned.frozen):
        live += w.size - (int(fz.sum()) if fz is not None else 0)
    return 1.0 - live / total
