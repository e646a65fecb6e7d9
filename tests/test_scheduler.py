"""Phase machines: ramp timing, pick event, set bookkeeping, ramp length."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mlp_specs
from growreg.errors import DomainError, ScheduleError
from growreg.groups import parse_pruning_plan
from growreg.netcore import Network
from growreg.scheduler import (
    DONE,
    GROWING,
    PICKED,
    STABILIZING,
    RegConfig,
    greg1_init,
    greg2_init,
    is_prune_ready,
    ramp_length,
    tick,
    ticks_to_done,
)


def dense_net(hidden=(4,), seed=0):
    return Network.initialize(mlp_specs(list(hidden)), (2,), 2, seed=seed)


class TestRegConfig:
    def test_granularity_bounds(self):
        with pytest.raises(DomainError):
            RegConfig(delta_lambda=0.0, tau=1.0)
        with pytest.raises(DomainError):
            RegConfig(delta_lambda=2.0, tau=1.0)
        with pytest.raises(DomainError):
            RegConfig(delta_lambda=0.1, tau=1.0, tau_prime=1.5)
        with pytest.raises(DomainError):
            RegConfig(delta_lambda=0.1, tau=1.0, k_update=0)
        with pytest.raises(DomainError):
            RegConfig(delta_lambda=0.1, tau=1.0, post_pick_delta_lambda=-0.1)
        with pytest.raises(DomainError):
            RegConfig(delta_lambda=0.1, tau=1.0, post_pick_delta_lambda=1.0)
        with pytest.raises(DomainError):
            RegConfig(delta_lambda=1e-300, tau=1.0)

    def test_post_pick_defaults_to_delta(self):
        cfg = RegConfig(delta_lambda=0.1, tau=1.0)
        assert cfg.post_pick_delta_lambda == 0.1


class TestFixedSetInit:
    def test_zero_plan_immediately_done(self):
        net = dense_net()
        plan = parse_pruning_plan("[0, 0]", 2)
        state = greg1_init(net, plan, RegConfig(delta_lambda=0.1, tau=1.0))
        assert state.phase == DONE
        assert is_prune_ready(state)

    def test_smallest_norm_groups_selected(self):
        net = dense_net()
        net.weights[0][:] = [[1.0, 4.0, 2.0, 3.0], [1.0, 4.0, 2.0, 3.0]]
        plan = parse_pruning_plan("[0.5, 0]", 2)
        state = greg1_init(net, plan, RegConfig(delta_lambda=0.1, tau=1.0))
        assert state.prune_sets[0].tolist() == [0, 2]
        assert state.phase == GROWING
        assert state.lam == 0.0


class TestPickingInit:
    def test_all_prunable_groups_start_penalized(self):
        net = dense_net(hidden=(5, 4), seed=1)
        plan = parse_pruning_plan("[0, 0.5, 0]", 3)
        cfg = RegConfig(delta_lambda=0.01, tau=1.0, tau_prime=0.05)
        state = greg2_init(net, plan, cfg)
        assert state.prune_sets[1].tolist() == [0, 1, 2, 3]
        assert all(k.size == 0 for k in state.kept_sets)

    def test_protected_layer_groups_excluded(self):
        net = dense_net(hidden=(5, 4), seed=1)
        plan = parse_pruning_plan("[0, 0.5, 0]", 3)
        cfg = RegConfig(delta_lambda=0.01, tau=1.0, tau_prime=0.05)
        state = greg2_init(net, plan, cfg)
        assert state.prune_sets[0].size == 0
        assert state.prune_sets[2].size == 0

    def test_tau_prime_required(self):
        net = dense_net()
        plan = parse_pruning_plan("[0.5, 0]", 2)
        with pytest.raises(DomainError):
            greg2_init(net, plan, RegConfig(delta_lambda=0.01, tau=1.0))

    def test_kept_set_empty_until_ceiling(self):
        net = dense_net(hidden=(6,), seed=2)
        plan = parse_pruning_plan("[0.5, 0]", 2)
        cfg = RegConfig(delta_lambda=0.01, tau=1.0, tau_prime=0.05, k_update=3)
        state = greg2_init(net, plan, cfg)
        while state.lam <= 0.05:
            assert all(k.size == 0 for k in state.kept_sets)
            assert state.phase == GROWING
            state, _ = tick(state, net, cfg)
        # pick happens at the next boundary after crossing
        while state.phase == GROWING:
            state, _ = tick(state, net, cfg)
        assert state.phase == PICKED
        assert sum(k.size for k in state.kept_sets) > 0


class TestTick:
    def test_staircase_value_after_100_ticks(self):
        net = dense_net()
        plan = parse_pruning_plan("[0.5, 0]", 2)
        cfg = RegConfig(delta_lambda=1e-4, tau=1.0, k_update=10, k_stabilize=5)
        state = greg1_init(net, plan, cfg)
        lam_trace = []
        for _ in range(100):
            state, lambdas = tick(state, net, cfg)
            lam_trace.append(state.lam)
        assert state.lam == pytest.approx(10 * 1e-4, abs=1e-15)
        # non-decreasing staircase with riser delta and tread k_update
        diffs = np.diff([0.0] + lam_trace)
        assert np.all(diffs >= 0)
        assert np.all((np.abs(diffs) < 1e-18) | (np.abs(diffs - 1e-4) < 1e-12))
        changes = np.flatnonzero(diffs > 0)
        assert np.all(np.diff(changes) == 10)

    def test_growing_duration_exact(self):
        net = dense_net()
        plan = parse_pruning_plan("[0.5, 0]", 2)
        cfg = RegConfig(delta_lambda=1e-3, tau=1.0, k_update=10, k_stabilize=7)
        state = greg1_init(net, plan, cfg)
        growing = 0
        while True:
            state, _ = tick(state, net, cfg)
            if state.phase != GROWING:
                break
            growing += 1
        # the transition tick is the first stabilizing tick
        assert growing + 1 == 10 * int(1.0 / 1e-3) + 1
        assert state.phase == STABILIZING
        assert state.lam > 1.0
        total = growing + 1
        while not is_prune_ready(state):
            state, _ = tick(state, net, cfg)
            total += 1
        assert total == 10 * int(1.0 / 1e-3) + 7
        assert state.lam >= cfg.tau

    def test_pick_event_fires_at_expected_tick(self):
        net = dense_net(hidden=(8,), seed=4)
        plan = parse_pruning_plan("[0.5, 0]", 2)
        cfg = RegConfig(delta_lambda=1e-5, tau=0.02, tau_prime=0.01, k_update=10,
                        k_stabilize=3)
        state = greg2_init(net, plan, cfg)
        while state.phase == GROWING:
            state, _ = tick(state, net, cfg)
        assert state.phase == PICKED
        assert state.iter - 1 == 10 * (round(0.01 / 1e-5) + 1)

    def test_lambda_map_contents(self):
        net = dense_net(hidden=(4,), seed=5)
        net.weights[0][:] = [[1.0, 4.0, 2.0, 3.0], [1.0, 4.0, 2.0, 3.0]]
        plan = parse_pruning_plan("[0.5, 0]", 2)
        cfg = RegConfig(delta_lambda=0.1, tau=1.0, k_update=1, base_decay=5e-4)
        state = greg1_init(net, plan, cfg)
        state, lambdas = tick(state, net, cfg)
        assert lambdas[0][0] == pytest.approx(0.1)
        assert lambdas[0][2] == pytest.approx(0.1)
        assert lambdas[0][1] == pytest.approx(5e-4)
        assert np.all(lambdas[1] == 5e-4)

    def test_fixed_set_never_changes(self):
        net = dense_net(hidden=(6,), seed=6)
        plan = parse_pruning_plan("[0.5, 0]", 2)
        cfg = RegConfig(delta_lambda=0.05, tau=0.5, k_update=2, k_stabilize=4)
        state = greg1_init(net, plan, cfg)
        initial = [p.copy() for p in state.prune_sets]
        while not is_prune_ready(state):
            state, _ = tick(state, net, cfg)
            assert all(np.array_equal(a, b) for a, b in zip(initial, state.prune_sets))

    def test_kept_groups_hold_negated_decay_until_done(self):
        net = dense_net(hidden=(6,), seed=7)
        plan = parse_pruning_plan("[0.5, 0]", 2)
        cfg = RegConfig(delta_lambda=5e-3, tau=0.1, tau_prime=0.02, k_update=2,
                        k_stabilize=5, base_decay=5e-4)
        state = greg2_init(net, plan, cfg)
        saw_picked = False
        while not is_prune_ready(state):
            state, lambdas = tick(state, net, cfg)
            if state.phase == GROWING:
                # pre-pick: nothing carries a negative factor
                assert not any((lg < 0).any() for lg in lambdas)
            if state.kept_sets[0].size:
                saw_picked = True
                assert np.all(lambdas[0][state.kept_sets[0]] == -5e-4)
        assert saw_picked

    def test_tick_after_done_raises(self):
        net = dense_net()
        plan = parse_pruning_plan("[0, 0]", 2)
        cfg = RegConfig(delta_lambda=0.1, tau=1.0)
        state = greg1_init(net, plan, cfg)
        with pytest.raises(ScheduleError):
            tick(state, net, cfg)

    def test_prune_ready_progression(self):
        net = dense_net(hidden=(4,), seed=8)
        plan = parse_pruning_plan("[0.5, 0]", 2)
        cfg = RegConfig(delta_lambda=0.5, tau=0.6, k_update=1, k_stabilize=3)
        state = greg1_init(net, plan, cfg)
        assert not is_prune_ready(state)
        seen_stab = 0
        while not is_prune_ready(state):
            state, _ = tick(state, net, cfg)
            if state.phase == STABILIZING:
                seen_stab += 1
                assert not is_prune_ready(state) or state.stab_elapsed >= 3
        assert state.stab_elapsed == 3

    def test_prune_mask_matches_sets(self):
        net = dense_net(hidden=(5,), seed=9)
        plan = parse_pruning_plan("[0.4, 0]", 2)
        cfg = RegConfig(delta_lambda=0.1, tau=1.0)
        state = greg1_init(net, plan, cfg)
        mask = state.prune_mask()
        assert np.flatnonzero(mask.flags[0] == 0).tolist() == state.prune_sets[0].tolist()
        assert np.all(mask.flags[1] == 1)


@st.composite
def ramp_configs(draw):
    """RegConfigs with short ramps; half of them put increments exactly on
    tau_prime and tau, where the ceiling slack decides."""
    k_update = draw(st.integers(1, 4))
    k_stabilize = draw(st.integers(0, 6))
    if draw(st.booleans()):
        delta = draw(st.sampled_from([0.1, 0.01, 1e-3, 0.2, 0.3, 0.05, 0.07]))
        n_tau = draw(st.integers(3, 60))
        tau = n_tau * delta
        tau_prime = draw(st.integers(1, n_tau - 1)) * delta
        post = draw(st.sampled_from([delta, 2 * delta, delta / 2]))
    else:
        tau = draw(st.floats(0.05, 5.0))
        delta = tau / draw(st.floats(1.01, 40.0))
        tau_prime = tau * draw(st.floats(0.01, 0.99))
        post = tau / draw(st.floats(1.01, 60.0))
    return RegConfig(delta_lambda=delta, tau=tau, tau_prime=tau_prime,
                     k_update=k_update, k_stabilize=k_stabilize,
                     post_pick_delta_lambda=post)


class TestRampLength:
    @settings(max_examples=150, deadline=None)
    @given(cfg=ramp_configs(), method=st.sampled_from(["greg1", "greg2"]),
           plan_text=st.sampled_from(["[0, 0.5, 0]", "[0, 0, 0]", "[0, 0.2, 0]"]))
    def test_arithmetic_matches_ticking(self, cfg, method, plan_text):
        # "[0, 0, 0]" and "[0, 0.2, 0]" on 4 units pick nothing
        net = dense_net(hidden=(4, 3), seed=1)
        plan = parse_pruning_plan(plan_text, 3)
        if method == "greg2":
            try:
                state = greg2_init(net, plan, cfg)
            except DomainError:
                # rejected as unable to pick: ticking such a ramp never picks
                state = greg1_init(net, parse_pruning_plan("[0, 0.5, 0]", 3), cfg)
                state.method = "greg2"
                while not is_prune_ready(state):
                    state, _ = tick(state, net, cfg)
                    assert state.phase != PICKED
                return
        else:
            state = greg1_init(net, plan, cfg)
        expected = ticks_to_done(state, cfg)
        ticks = 0
        while not is_prune_ready(state):
            state, _ = tick(state, net, cfg)
            ticks += 1
        assert ticks == expected

    def test_paper_greg2_length(self):
        cfg = RegConfig(delta_lambda=1e-5, tau=1.0, tau_prime=0.01, k_update=10,
                        k_stabilize=5000, post_pick_delta_lambda=1e-5)
        assert ramp_length(cfg, "greg2") == 1_005_000
        assert ramp_length(cfg, "greg2", pick_empty=True) == 1001 * 10 + 5000

    def test_ramp_that_cannot_pick_rejected(self):
        # lambda goes 0.4 -> 0.8: past tau before a boundary sees it above tau_prime
        cfg = RegConfig(delta_lambda=0.4, tau=0.7, tau_prime=0.45)
        assert ramp_length(cfg, "greg1") == 1 * 10 + 1
        with pytest.raises(DomainError, match="never pick"):
            ramp_length(cfg, "greg2")
        with pytest.raises(DomainError, match="never pick"):
            greg2_init(dense_net(), parse_pruning_plan("[0.5, 0]", 2), cfg)
