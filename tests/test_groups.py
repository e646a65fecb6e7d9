"""Grouping, scoring, mask selection, plan parsing, physical pruning."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mlp_specs, small_conv_net, weight_views
from growreg.errors import DimensionError, DomainError, PlanError, StructureError
from growreg.groups import (
    GRANULARITIES,
    Mask,
    PruningPlan,
    apply_hard_prune,
    expand_group_values,
    format_pruning_plan,
    group_counts,
    group_l1_norms,
    group_view,
    norm_dispersion,
    parse_pruning_plan,
    random_prune_set,
    select_prune_set,
    sparsity,
    validate_plan_against,
)
from growreg.netcore import LayerSpec, Network, forward
from growreg.scheduler import RegConfig, greg1_init


def zero_masked_forward(net, mask, x):
    """Independent oracle: zero the group's weights and bias, then run."""
    ref = net.clone()
    for l, flags in enumerate(mask.flags):
        dead = np.flatnonzero(flags == 0)
        if dead.size == 0:
            continue
        if ref.layers[l].kind == "dense":
            ref.weights[l][:, dead] = 0.0
        else:
            ref.weights[l][dead] = 0.0
        ref.biases[l][dead] = 0.0
    return forward(ref, x)[0]


class TestGroupNorms:
    def test_filter_norm_sums_absolute_values(self):
        net = Network(
            (LayerSpec("dense", 2, activation="none"),),
            (2,),
            2,
            [np.array([[0.5, 2.0], [-0.5, -1.0]])],
            [np.zeros(2)],
        )
        norms = group_l1_norms(net, "filter")
        assert norms[0].tolist() == [1.0, 3.0]

    def test_all_zero_layer(self):
        net = Network.initialize(mlp_specs([4]), (3,), 2, seed=0)
        net.weights[0][:] = 0.0
        norms = group_l1_norms(net, "filter")
        assert np.all(norms[0] == 0.0)

    def test_conv_filter_norm_matches_bruteforce(self, rng):
        net = small_conv_net(seed=1)
        norms = group_l1_norms(net, "filter")
        w = net.weights[0]
        for f in range(w.shape[0]):
            brute = sum(abs(v) for v in w[f].ravel())
            assert norms[0][f] == pytest.approx(brute, rel=1e-12)

    def test_weight_granularity_counts(self):
        net = small_conv_net(seed=1)
        counts = group_counts(net, "weight")
        assert counts == [w.size for w in net.weights]
        norms = group_l1_norms(net, "weight")
        assert [len(v) for v in norms] == counts


class TestGranularityAndCover:
    def test_group_view_rejects_an_unknown_granularity(self):
        net = small_conv_net(seed=1)
        for spec, w in zip(net.layers, net.weights):
            with pytest.raises(DomainError, match="'filtr'"):
                group_view(spec, w, "filtr")

    @pytest.mark.parametrize("call", [
        lambda net, mask: greg1_init(net, PruningPlan((0.0, 0.5, 0.0)),
                                     RegConfig(delta_lambda=0.01, tau=0.1), mask),
        lambda net, mask: apply_hard_prune(net, mask),
        lambda net, mask: expand_group_values(net, mask.granularity, mask.flags),
    ], ids=["greg1_init", "apply_hard_prune", "expand_group_values"])
    def test_values_short_of_the_groups_name_both_counts(self, call):
        net = Network.initialize(mlp_specs([8, 6]), (3,), 2, seed=0)
        # layer 1's values cover 4 of its 6 filters
        short = Mask("filter", [np.ones(n, dtype=np.uint8) for n in (8, 4, 2)])
        with pytest.raises(DimensionError, match=r"\[8, 4, 2\].*\[8, 6, 2\]"):
            call(net, short)


class TestSelection:
    def _norms(self, values):
        return [np.asarray(values, dtype=float)]

    def test_two_smallest_masked(self):
        plan = PruningPlan(ratios=(0.5,))
        mask = select_prune_set(self._norms([0.5, 0.1, 0.3, 0.9]), plan)
        assert np.flatnonzero(mask.flags[0] == 0).tolist() == [1, 2]

    def test_zero_ratio_keeps_everything(self):
        plan = PruningPlan(ratios=(0.0,))
        mask = select_prune_set(self._norms([0.5, 0.1, 0.3, 0.9]), plan)
        assert np.all(mask.flags[0] == 1)

    def test_ties_break_toward_lower_index(self):
        plan = PruningPlan(ratios=(0.5,))
        mask = select_prune_set(self._norms([1.0, 1.0, 1.0, 1.0]), plan)
        assert np.flatnonzero(mask.flags[0] == 0).tolist() == [0, 1]

    def test_exact_floor_count(self, rng):
        for n, r in [(10, 0.33), (7, 0.9), (24, 0.7), (5, 0.19)]:
            plan = PruningPlan(ratios=(r,))
            norms = [rng.uniform(0, 1, n)]
            mask = select_prune_set(norms, plan)
            assert int((mask.flags[0] == 0).sum()) == int(np.floor(r * n))

    def test_removing_all_groups_refused(self):
        plan = PruningPlan(ratios=(1.0,))
        with pytest.raises(PlanError):
            select_prune_set(self._norms([1.0, 2.0]), plan)

    def test_permutation_consistency(self, rng):
        vals = rng.uniform(0, 1, 12)
        plan = PruningPlan(ratios=(0.5,))
        base = np.flatnonzero(select_prune_set(self._norms(vals), plan).flags[0] == 0)
        perm = rng.permutation(12)
        permuted = select_prune_set(self._norms(vals[perm]), plan)
        unpermuted = np.flatnonzero(permuted.flags[0] == 0)
        assert sorted(perm[unpermuted].tolist()) == sorted(base.tolist())


class TestRandomSelection:
    def test_full_ratio_forbidden(self):
        net = Network.initialize(mlp_specs([4]), (3,), 2, seed=0)
        plan = PruningPlan(ratios=(1.0, 0.0))
        with pytest.raises(PlanError):
            random_prune_set(net, plan, seed=0)

    def test_same_seed_same_mask(self):
        net = Network.initialize(mlp_specs([10, 8]), (3,), 2, seed=0)
        plan = PruningPlan(ratios=(0.0, 0.5, 0.0))
        a = random_prune_set(net, plan, seed=42)
        b = random_prune_set(net, plan, seed=42)
        assert all(np.array_equal(x, y) for x, y in zip(a.flags, b.flags))
        assert a.digest() == b.digest()

    def test_uniform_inclusion_frequency(self):
        net = Network.initialize(mlp_specs([100]), (3,), 2, seed=0)
        plan = PruningPlan(ratios=(0.5, 0.0))
        hits = np.zeros(100)
        n_seeds = 10_000
        for seed in range(n_seeds):
            mask = random_prune_set(net, plan, seed=seed)
            hits += mask.flags[0] == 0
        freq = hits / n_seeds
        assert np.all(np.abs(freq - 0.5) < 0.02)


class TestHardPrune:
    def test_all_ones_mask_identity(self, rng):
        net = small_conv_net(seed=2)
        mask = Mask("filter", [np.ones(s.units, dtype=np.uint8) for s in net.layers])
        pruned = apply_hard_prune(net, mask)
        for a, b in zip(net.weights, pruned.weights):
            assert np.array_equal(a, b)
        x = rng.standard_normal((4, 2, 9, 9))
        assert np.array_equal(forward(net, x)[0], forward(pruned, x)[0])

    def test_removing_dead_filter_is_noop(self, rng):
        net = small_conv_net(seed=3)
        net.weights[0][2] = 0.0
        net.biases[0][2] = 0.0
        flags = [np.ones(s.units, dtype=np.uint8) for s in net.layers]
        flags[0][2] = 0
        pruned = apply_hard_prune(net, Mask("filter", flags))
        x = rng.standard_normal((100, 2, 9, 9))
        diff = np.max(np.abs(forward(net, x)[0] - forward(pruned, x)[0]))
        assert diff < 1e-10

    def test_random_masks_match_zero_masked_oracle(self, rng):
        net = small_conv_net(seed=4)
        for _ in range(5):
            flags = []
            for l, spec in enumerate(net.layers):
                f = np.ones(spec.units, dtype=np.uint8)
                if spec.prunable:
                    k = int(rng.integers(0, spec.units - 1))
                    if k:
                        f[rng.choice(spec.units, size=k, replace=False)] = 0
                flags.append(f)
            mask = Mask("filter", flags)
            pruned = apply_hard_prune(net, mask)
            x = rng.standard_normal((100, 2, 9, 9))
            diff = np.max(np.abs(forward(pruned, x)[0] - zero_masked_forward(net, mask, x)))
            assert diff < 1e-10

    def test_dense_only_structured_prune(self, rng):
        net = Network.initialize(mlp_specs([8, 6]), (4,), 2, seed=5)
        flags = [np.ones(8, dtype=np.uint8), np.ones(6, dtype=np.uint8), np.ones(2, dtype=np.uint8)]
        flags[0][[1, 5]] = 0
        flags[1][[0]] = 0
        mask = Mask("filter", flags)
        pruned = apply_hard_prune(net, mask)
        assert pruned.weights[0].shape == (4, 6)
        assert pruned.weights[1].shape == (6, 5)
        assert pruned.weights[2].shape == (5, 2)
        x = rng.standard_normal((50, 4))
        diff = np.max(np.abs(forward(pruned, x)[0] - zero_masked_forward(net, mask, x)))
        assert diff < 1e-10

    def test_unstructured_zeroes_and_freezes(self, rng):
        net = Network.initialize(mlp_specs([6]), (4,), 2, seed=6)
        counts = group_counts(net, "weight")
        flags = [np.ones(n, dtype=np.uint8) for n in counts]
        dead = rng.choice(counts[0], size=10, replace=False)
        flags[0][dead] = 0
        pruned = apply_hard_prune(net, Mask("weight", flags))
        assert np.all(pruned.weights[0].ravel()[dead] == 0.0)
        assert pruned.frozen[0] is not None
        assert pruned.frozen[0].ravel()[dead].all()
        # original untouched
        assert net.frozen is None and net.flat_frozen is None
        assert sparsity(net, pruned) == pytest.approx(10 / net.num_weights())

    def test_cannot_remove_final_layer_outputs(self):
        net = Network.initialize(mlp_specs([4]), (3,), 2, seed=0)
        flags = [np.ones(4, dtype=np.uint8), np.array([1, 0], dtype=np.uint8)]
        with pytest.raises(StructureError):
            apply_hard_prune(net, Mask("filter", flags))

    def test_mask_coverage_checked(self):
        net = Network.initialize(mlp_specs([4]), (3,), 2, seed=0)
        with pytest.raises(DimensionError):
            apply_hard_prune(net, Mask("filter", [np.ones(3, dtype=np.uint8)]))


class TestPlanParsing:
    def test_stage_list_literal(self):
        plan = parse_pruning_plan("[0, 0.75, 0.75, 0.32]", 4)
        assert plan.ratios == (0.0, 0.75, 0.75, 0.32)
        assert plan.never_prune == frozenset({0})

    def test_range_form(self):
        plan = parse_pruning_plan("[0:0, 1-15:0.70]", 16)
        assert plan.ratios[0] == 0.0
        assert plan.ratios[1:] == (0.70,) * 15

    def test_overlapping_ranges_rejected(self):
        with pytest.raises(PlanError):
            parse_pruning_plan("[0:0, 1-3:0.5, 2-4:0.5]", 5)

    def test_uncovered_layer_rejected(self):
        with pytest.raises(PlanError):
            parse_pruning_plan("[0:0, 2-4:0.5]", 5)

    def test_ratio_out_of_range_rejected(self):
        with pytest.raises(PlanError):
            parse_pruning_plan("[0, 1.5]", 2)

    def test_wrong_stage_count_rejected(self):
        with pytest.raises(PlanError):
            parse_pruning_plan("[0, 0.5]", 3)

    def test_mixed_forms_rejected(self):
        with pytest.raises(PlanError):
            parse_pruning_plan("[0.5, 1-2:0.5]", 3)

    @pytest.mark.parametrize("text, n, message", [
        ("0, 0.5", 2, "must be bracketed"),
        ("[0, 0.5", 2, "must be bracketed"),
        ("[]", 2, "empty plan string"),
        ("[ ]", 2, "empty plan string"),
        ("[0:0, x:0.5]", 2, "malformed range entry 'x:0.5'"),
        ("[0:0, 2-1:0.5]", 3, "descending range in '2-1:0.5'"),
        ("[0:0, 1-3:0.5]", 3, "entry '1-3:0.5' exceeds layer count 3"),
        ("[0:0, 1:1.2.3]", 2, "bad ratio in '1:1.2.3'"),
        ("[0, abc]", 2, "bad ratio in plan"),
    ])
    def test_malformed_plan_rejected(self, text, n, message):
        with pytest.raises(PlanError, match=re.escape(message)):
            parse_pruning_plan(text, n)

    def test_roundtrip_identity(self):
        for text, n in [
            ("[0, 0.75, 0.75, 0.32]", 4),
            ("[0:0, 1-15:0.70]", 16),
            ("[0, 0.50, 0.60, 0.40, 0]", 5),
        ]:
            plan = parse_pruning_plan(text, n)
            again = parse_pruning_plan(format_pruning_plan(plan), n)
            assert again == plan

    def test_layer_zero_protection_overridable(self):
        plan = parse_pruning_plan("[0.4, 0.4]", 2)
        assert plan.never_prune == frozenset()

    @settings(max_examples=300, deadline=None)
    @given(ratios=st.lists(st.floats(0, 1) | st.sampled_from([0.0, 0.5, 1.0]),
                           min_size=1, max_size=8),
           granularity=st.sampled_from(GRANULARITIES), ranges=st.booleans(),
           data=st.data())
    def test_format_then_parse_gives_equal_plan(self, ratios, granularity, ranges,
                                                data):
        if ranges:  # runs of equal ratios as "lo-hi:r", in any order
            items, lo = [], 0
            for hi in range(len(ratios)):
                if hi + 1 == len(ratios) or ratios[hi + 1] != ratios[lo]:
                    span = f"{lo}-{hi}" if hi > lo else f"{lo}"
                    items.append(f"{span}:{ratios[lo]!r}")
                    lo = hi + 1
            text = "[" + ", ".join(data.draw(st.permutations(items))) + "]"
        else:
            text = "[" + ", ".join(map(repr, ratios)) + "]"
        plan = parse_pruning_plan(text, len(ratios), granularity)
        assert plan.ratios == tuple(ratios)
        again = parse_pruning_plan(format_pruning_plan(plan), len(ratios), granularity)
        assert again == plan

    def test_plan_validation_against_network(self):
        layers = mlp_specs([4, 4])
        validate_plan_against(layers, parse_pruning_plan("[0, 0.5, 0]", 3))
        with pytest.raises(PlanError):
            validate_plan_against(layers, parse_pruning_plan("[0, 0.5, 0.5]", 3))
        with pytest.raises(PlanError):
            validate_plan_against(layers, parse_pruning_plan("[0, 0.5]", 2))


class TestDispersion:
    def test_equal_norms_zero(self):
        assert norm_dispersion([3.0, 3.0, 3.0]) == 0.0

    def test_simple_value(self):
        assert norm_dispersion([0.0, 2.0]) == pytest.approx(1.0)

    def test_lognormal_matches_analytic_cv(self):
        sigma = 0.5
        rng = np.random.default_rng(77)
        vals = rng.lognormal(mean=0.0, sigma=sigma, size=1000)
        analytic = np.sqrt(np.exp(sigma**2) - 1.0)
        assert norm_dispersion(vals) == pytest.approx(analytic, rel=0.05)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(DomainError):
            norm_dispersion([1.0])
        with pytest.raises(DomainError):
            norm_dispersion([0.0, 0.0])


def cut_layer0(net, removed):
    """``net`` with the given filters of layer 0 cut by ``apply_hard_prune``."""
    flags = [np.ones(n, dtype=np.uint8) for n in group_counts(net, "filter")]
    flags[0][removed] = 0
    return apply_hard_prune(net, Mask("filter", flags))


class TestExpandGroupValues:
    def _check(self, net, granularity):
        """Each group's value, distinct per group, fills every slot of its
        weights in the flat vector."""
        vals = [np.arange(n, dtype=float) + 100 * l
                for l, n in enumerate(group_counts(net, granularity))]
        expanded = expand_group_values(net, granularity, vals)
        assert expanded.shape == net.flat_w.shape
        for spec, w, e, v in zip(net.layers, net.weights,
                                 weight_views(net, expanded), vals):
            if granularity == "weight":  # groups in C order of the weights
                assert np.array_equal(e.ravel(), v)
                continue
            # a dense group is the column of its unit, a conv group its filter
            axis = 1 if spec.kind == "dense" else 0
            for idx in np.ndindex(w.shape):
                assert e[idx] == v[idx[axis]]

    def test_filter_expansion_shapes(self):
        self._check(small_conv_net(seed=7), "filter")

    def test_weight_expansion_is_reshape(self):
        self._check(Network.initialize(mlp_specs([3]), (2,), 2, seed=0), "weight")

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_filter_pruned_nets(self, granularity):
        dense = cut_layer0(Network.initialize(mlp_specs([6, 4], classes=3), (5,), 3,
                                              seed=7), [1, 4])
        conv = cut_layer0(small_conv_net(seed=3), [0, 2])
        # the dense cut is F-ordered, the conv consumer's channel cut
        # neither C- nor F-ordered, so group_view of either is a copy
        assert dense.weights[0].flags.f_contiguous
        assert not dense.weights[0].flags.c_contiguous
        assert not (conv.weights[1].flags.c_contiguous
                    or conv.weights[1].flags.f_contiguous)
        self._check(dense, granularity)
        self._check(conv, granularity)
