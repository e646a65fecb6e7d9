"""Grouping, scoring, mask selection, plan parsing, physical pruning."""

import numpy as np
import pytest

from conftest import mlp_specs, small_conv_net
from growreg.errors import DimensionError, DomainError, PlanError, StructureError
from growreg.groups import (
    GroupNorms,
    Mask,
    PruningPlan,
    apply_hard_prune,
    expand_group_values,
    format_pruning_plan,
    group_counts,
    group_l1_norms,
    norm_dispersion,
    parse_pruning_plan,
    random_prune_set,
    select_prune_set,
    sparsity,
    validate_plan_against,
)
from growreg.netcore import LayerSpec, Network, forward


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
        assert norms.per_layer[0].tolist() == [1.0, 3.0]

    def test_all_zero_layer(self):
        net = Network.initialize(mlp_specs([4]), (3,), 2, seed=0)
        net.weights[0][:] = 0.0
        norms = group_l1_norms(net, "filter")
        assert np.all(norms.per_layer[0] == 0.0)

    def test_conv_filter_norm_matches_bruteforce(self, rng):
        net = small_conv_net(seed=1)
        norms = group_l1_norms(net, "filter")
        w = net.weights[0]
        for f in range(w.shape[0]):
            brute = sum(abs(v) for v in w[f].ravel())
            assert norms.per_layer[0][f] == pytest.approx(brute, rel=1e-12)

    def test_weight_granularity_counts(self):
        net = small_conv_net(seed=1)
        counts = group_counts(net, "weight")
        assert counts == [w.size for w in net.weights]
        norms = group_l1_norms(net, "weight")
        assert [len(v) for v in norms.per_layer] == counts


class TestSelection:
    def _norms(self, values):
        return GroupNorms(per_layer=[np.asarray(values, dtype=float)], granularity="filter")

    def test_two_smallest_masked(self):
        plan = PruningPlan(ratios=(0.5,), never_prune=frozenset())
        mask = select_prune_set(self._norms([0.5, 0.1, 0.3, 0.9]), plan)
        assert np.flatnonzero(mask.flags[0] == 0).tolist() == [1, 2]

    def test_zero_ratio_keeps_everything(self):
        plan = PruningPlan(ratios=(0.0,))
        mask = select_prune_set(self._norms([0.5, 0.1, 0.3, 0.9]), plan)
        assert np.all(mask.flags[0] == 1)

    def test_ties_break_toward_lower_index(self):
        plan = PruningPlan(ratios=(0.5,), never_prune=frozenset())
        mask = select_prune_set(self._norms([1.0, 1.0, 1.0, 1.0]), plan)
        assert np.flatnonzero(mask.flags[0] == 0).tolist() == [0, 1]

    def test_exact_floor_count(self, rng):
        for n, r in [(10, 0.33), (7, 0.9), (24, 0.7), (5, 0.19)]:
            plan = PruningPlan(ratios=(r,), never_prune=frozenset())
            norms = GroupNorms(per_layer=[rng.uniform(0, 1, n)], granularity="filter")
            mask = select_prune_set(norms, plan)
            assert int((mask.flags[0] == 0).sum()) == int(np.floor(r * n))

    def test_removing_all_groups_refused(self):
        plan = PruningPlan(ratios=(1.0,), never_prune=frozenset())
        with pytest.raises(PlanError):
            select_prune_set(self._norms([1.0, 2.0]), plan)

    def test_permutation_consistency(self, rng):
        vals = rng.uniform(0, 1, 12)
        plan = PruningPlan(ratios=(0.5,), never_prune=frozenset())
        base = np.flatnonzero(select_prune_set(self._norms(vals), plan).flags[0] == 0)
        perm = rng.permutation(12)
        permuted = select_prune_set(self._norms(vals[perm]), plan)
        unpermuted = np.flatnonzero(permuted.flags[0] == 0)
        assert sorted(perm[unpermuted].tolist()) == sorted(base.tolist())


class TestRandomSelection:
    def test_full_ratio_forbidden(self):
        net = Network.initialize(mlp_specs([4]), (3,), 2, seed=0)
        plan = PruningPlan(ratios=(1.0, 0.0), never_prune=frozenset())
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
        plan = PruningPlan(ratios=(0.5, 0.0), never_prune=frozenset())
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
        assert net.frozen[0] is None
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
        with pytest.raises(PlanError):
            PruningPlan(ratios=(0.4, 0.0), never_prune=frozenset({0}))

    def test_plan_validation_against_network(self):
        net = Network.initialize(mlp_specs([4, 4]), (3,), 2, seed=0)
        validate_plan_against(net, parse_pruning_plan("[0, 0.5, 0]", 3))
        with pytest.raises(PlanError):
            validate_plan_against(net, parse_pruning_plan("[0, 0.5, 0.5]", 3))
        with pytest.raises(PlanError):
            validate_plan_against(net, parse_pruning_plan("[0, 0.5]", 2))


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


class TestExpandGroupValues:
    def test_filter_expansion_shapes(self):
        net = small_conv_net(seed=7)
        vals = [np.arange(s.units, dtype=float) for s in net.layers]
        expanded = expand_group_values(net, "filter", vals)
        for spec, w, e, v in zip(net.layers, net.weights, expanded, vals):
            assert e.shape == w.shape
            if spec.kind == "dense":
                assert np.all(e[0] == v)
            else:
                assert np.all(e[:, 0, 0, 0] == v)

    def test_weight_expansion_is_reshape(self):
        net = Network.initialize(mlp_specs([3]), (2,), 2, seed=0)
        vals = [np.arange(w.size, dtype=float) for w in net.weights]
        expanded = expand_group_values(net, "weight", vals)
        for w, e, v in zip(net.weights, expanded, vals):
            assert np.array_equal(e.ravel(), v)
