"""Phase machines: ramp timing, pick event, set bookkeeping, ramp length."""

from itertools import count
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import mlp_specs
from growreg import scheduler
from growreg.errors import DomainError, ScheduleError
from growreg.groups import Mask, parse_pruning_plan
from growreg.netcore import Network
from growreg.scheduler import (
    DONE,
    GROWING,
    PICKED,
    STABILIZING,
    RegConfig,
    greg1_init,
    greg2_init,
    ramp_length,
    tick,
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

    def test_smallest_norm_groups_selected(self):
        net = dense_net()
        net.weights[0][:] = [[1.0, 4.0, 2.0, 3.0], [1.0, 4.0, 2.0, 3.0]]
        plan = parse_pruning_plan("[0.5, 0]", 2)
        state = greg1_init(net, plan, RegConfig(delta_lambda=0.1, tau=1.0))
        assert state.prune_sets[0].tolist() == [0, 2]
        assert state.phase == GROWING
        assert state.lam == 0.0

    def test_mask_replaces_l1_selection(self):
        net = dense_net()
        net.weights[0][:] = [[1.0, 4.0, 2.0, 3.0], [1.0, 4.0, 2.0, 3.0]]
        plan = parse_pruning_plan("[0.5, 0]", 2)
        cfg = RegConfig(delta_lambda=0.1, tau=1.0)
        flags = [np.array([1, 0, 1, 0], dtype=np.uint8), np.ones(2, dtype=np.uint8)]
        state = greg1_init(net, plan, cfg, Mask("filter", flags))
        assert state.prune_sets[0].tolist() == [1, 3]
        assert state.prune_sets[1].size == 0
        assert state.phase == GROWING
        keep_all = [np.ones(4, dtype=np.uint8), np.ones(2, dtype=np.uint8)]
        assert greg1_init(net, plan, cfg, Mask("filter", keep_all)).phase == DONE


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
            tick(state, net, cfg)
        # pick happens at the next boundary after crossing
        while state.phase == GROWING:
            tick(state, net, cfg)
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
            tick(state, net, cfg)
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
            tick(state, net, cfg)
            if state.phase != GROWING:
                break
            growing += 1
        # the transition tick is the first stabilizing tick
        assert growing + 1 == 10 * int(1.0 / 1e-3) + 1
        assert state.phase == STABILIZING
        assert state.lam > 1.0
        total = growing + 1
        while state.phase != DONE:
            tick(state, net, cfg)
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
            tick(state, net, cfg)
        assert state.phase == PICKED
        assert state.iter - 1 == 10 * (round(0.01 / 1e-5) + 1)

    def test_lambda_map_contents(self):
        net = dense_net(hidden=(4,), seed=5)
        net.weights[0][:] = [[1.0, 4.0, 2.0, 3.0], [1.0, 4.0, 2.0, 3.0]]
        plan = parse_pruning_plan("[0.5, 0]", 2)
        cfg = RegConfig(delta_lambda=0.1, tau=1.0, k_update=1, base_decay=5e-4)
        state = greg1_init(net, plan, cfg)
        lambdas = tick(state, net, cfg)
        # per-weight factors: a dense group is a column
        assert lambdas[0].shape == net.weights[0].shape
        assert lambdas[0][:, 0] == pytest.approx([0.1, 0.1])
        assert lambdas[0][:, 2] == pytest.approx([0.1, 0.1])
        assert lambdas[0][:, 1] == pytest.approx([5e-4, 5e-4])
        assert lambdas[0][:, 3] == pytest.approx([5e-4, 5e-4])
        assert np.all(lambdas[1] == 5e-4)

    def test_fixed_set_never_changes(self):
        net = dense_net(hidden=(6,), seed=6)
        plan = parse_pruning_plan("[0.5, 0]", 2)
        cfg = RegConfig(delta_lambda=0.05, tau=0.5, k_update=2, k_stabilize=4)
        state = greg1_init(net, plan, cfg)
        initial = [p.copy() for p in state.prune_sets]
        while state.phase != DONE:
            tick(state, net, cfg)
            assert all(np.array_equal(a, b) for a, b in zip(initial, state.prune_sets))

    def test_kept_groups_hold_negated_decay_until_done(self):
        net = dense_net(hidden=(6,), seed=7)
        plan = parse_pruning_plan("[0.5, 0]", 2)
        cfg = RegConfig(delta_lambda=5e-3, tau=0.1, tau_prime=0.02, k_update=2,
                        k_stabilize=5, base_decay=5e-4)
        state = greg2_init(net, plan, cfg)
        saw_picked = False
        while state.phase != DONE:
            lambdas = tick(state, net, cfg)
            if state.phase == GROWING:
                # pre-pick: nothing carries a negative factor
                assert not any((lg < 0).any() for lg in lambdas.values())
            if state.kept_sets[0].size:
                saw_picked = True
                assert np.all(lambdas[0][:, state.kept_sets[0]] == -5e-4)
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
        assert state.phase != DONE
        stab_ticks = 0
        while state.phase != DONE:
            tick(state, net, cfg)
            if state.phase in (STABILIZING, DONE):
                stab_ticks += 1
                # ready exactly when k_stabilize stabilizing ticks have run
                assert (state.phase == DONE) == (stab_ticks == 3)
        assert stab_ticks == 3

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
    def test_ticks_follow_threshold_rule(self, cfg, method, plan_text):
        # "[0, 0, 0]" and "[0, 0.2, 0]" select none of layer 1's 3 units
        above = scheduler._above
        net = dense_net(hidden=(4, 3), seed=1)
        plan = parse_pruning_plan(plan_text, 3)
        if method == "greg1":
            state = greg1_init(net, plan, cfg)
        else:
            try:
                state = greg2_init(net, plan, cfg)
            except DomainError as exc:
                assert "never pick" in str(exc)
                # the first boundary whose incoming lambda is above tau_prime
                # comes after a boundary whose increment passed tau
                first = next(n for n in count() if above(n * cfg.delta_lambda,
                                                         cfg.tau_prime))
                assert above(first * cfg.delta_lambda, cfg.tau)
                return
        if not any(len(p) for p in state.prune_sets):
            # greg1 with an empty set has no ramp at all
            assert state.phase == DONE and state.ticks == 0
            return
        # (incoming lambda, new lambda, phase after, kept groups after) per
        # boundary of the ramp, boundary b at row b
        rows, ticks = [], 0
        while state.phase != DONE:
            ramping = state.phase in (GROWING, PICKED)
            boundary = ramping and state.iter % cfg.k_update == 0
            lam_in = state.lam
            tick(state, net, cfg)
            ticks += 1
            if boundary:
                kept = sum(k.size for k in state.kept_sets)
                rows.append((lam_in, state.lam, state.phase, kept))
            else:
                assert state.lam == lam_in
        stab = next(b for b, r in enumerate(rows) if r[2] in (STABILIZING, DONE))
        assert stab == len(rows) - 1
        pick_empty = False
        if method == "greg2":
            pick = next(b for b, r in enumerate(rows) if r[3])
            assert pick == next(b for b, r in enumerate(rows)
                                if above(r[0], cfg.tau_prime))
            pick_empty = not any(len(p) for p in state.prune_sets)
        else:
            assert not any(r[3] for r in rows)
        if pick_empty:
            # an empty pick stabilizes at once, without an increment
            assert stab == pick and rows[pick][1] == rows[pick][0]
        else:
            assert above(rows[stab][1], cfg.tau)
        assert not any(above(r[1], cfg.tau) for r in rows[:stab])
        assert ticks == state.ticks == ramp_length(cfg, method, pick_empty)

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


def expected_factors(state, net, cfg):
    """Per-weight factors written out group by group: base decay, the ramped
    penalty on the prune set, the negated base decay on the kept set."""
    out = {}
    for l, w in enumerate(net.weights):
        want = np.full(w.shape, cfg.base_decay)
        # a view whose first axis indexes the layer's groups
        groups = want.reshape(-1) if state.granularity == "weight" else want.T
        groups[state.prune_sets[l]] = state.lam
        groups[state.kept_sets[l]] = -cfg.base_decay
        out[l] = want
    return out


PHASE_ORDER = {GROWING: 0, PICKED: 1, STABILIZING: 2, DONE: 3}


class TestTickProperties:
    @settings(max_examples=120, deadline=None)
    @given(cfg=ramp_configs(), method=st.sampled_from(["greg1", "greg2"]),
           granularity=st.sampled_from(["filter", "weight"]),
           plan_text=st.sampled_from(["[0, 0.5, 0]", "[0, 0.2, 0]"]))
    def test_ramp_invariants(self, cfg, method, granularity, plan_text):
        # at filter granularity "[0, 0.2, 0]" selects none of 3 units: for
        # greg2 an empty pick, for greg1 a state that starts done
        net = dense_net(hidden=(4, 3), seed=1)
        plan = parse_pruning_plan(plan_text, 3, granularity)
        try:
            state = (greg2_init if method == "greg2" else greg1_init)(net, plan, cfg)
        except DomainError:
            assume(False)  # a picking ramp that can never pick
        assume(state.phase != DONE)
        expand = mock.Mock(wraps=scheduler.expand_group_values)
        factors, boundaries = None, 0
        with mock.patch.object(scheduler, "expand_group_values", expand):
            while state.phase != DONE:
                phase, lam, prev = state.phase, state.lam, factors
                boundary = phase in (GROWING, PICKED) and state.iter % cfg.k_update == 0
                boundaries += boundary
                factors = tick(state, net, cfg)
                assert state.lam >= lam
                assert PHASE_ORDER[state.phase] >= PHASE_ORDER[phase]
                assert method == "greg2" or state.phase != PICKED
                # built once per boundary, the same object on every other tick
                assert expand.call_count == boundaries
                assert boundary or factors is prev
                want = expected_factors(state, net, cfg)
                assert sorted(factors) == sorted(want)
                for l, w in want.items():
                    assert factors[l].shape == w.shape
                    assert np.array_equal(factors[l], w)
