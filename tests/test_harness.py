"""Datasets and end-to-end pipelines at quick desk settings."""

import pickle
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import mlp_specs, small_conv_net
from growreg import harness, scheduler
from growreg.checkpoint import checkpoint_bytes
from growreg.datasets import load_csv_dataset, make_dataset
from growreg.errors import (
    ConfigError,
    DimensionError,
    DomainError,
    NumericError,
    PlanError,
    ProtocolError,
)
from growreg.groups import (
    Mask,
    PruningPlan,
    apply_hard_prune,
    group_counts,
    random_prune_set,
    select_prune_set,
)
from growreg.harness import (
    ExperimentConfig,
    PhaseSchedule,
    build_dataset,
    compare_schedules,
    pretrain,
    run_method,
    schedule_length,
    track_separation,
)
from growreg.netcore import LayerSpec, Network, accuracy
from growreg.scheduler import RAMPED, RegConfig

QUICK_REG = RegConfig(delta_lambda=5e-3, tau=0.1, tau_prime=0.02, k_update=2,
                      k_stabilize=40, base_decay=5e-4)


def _two_step(steps, hi, lo):
    return ((0, hi),) if steps < 2 else ((0, hi), (steps // 2, lo))


def quick_config(method="greg1", plan="[0, 0.5, 0]", hidden=(16, 12), seed=0,
                 reg=QUICK_REG, dataset=None, pre_steps=800, ft_steps=400,
                 metric_every=50):
    return ExperimentConfig(
        layers=mlp_specs(list(hidden)),
        input_shape=(2,),
        classes=2,
        dataset=dataset or {"kind": "blobs", "n_train": 512, "n_val": 256,
                            "noise": 0.4, "seed": 5},
        plan=plan,
        method=method,
        reg=reg,
        pretrain=PhaseSchedule(steps=pre_steps, batch_size=32,
                               milestones=_two_step(pre_steps, 1e-2, 1e-3)),
        finetune=PhaseSchedule(steps=ft_steps, batch_size=32,
                               milestones=_two_step(ft_steps, 1e-3, 1e-4)),
        seed=seed,
        metric_every=metric_every,
    )


class TestDatasets:
    def test_shapes_split_and_determinism(self):
        for kind in ("blobs", "moons", "spirals"):
            a = make_dataset(kind, 100, 40, seed=3, noise=0.2)
            b = make_dataset(kind, 100, 40, seed=3, noise=0.2)
            assert a.train_x.shape == (100, 2)
            assert a.val_x.shape == (40, 2)
            assert set(np.unique(a.train_y)) <= {0, 1}
            assert np.array_equal(a.train_x, b.train_x)
            assert a.provenance["kind"] == kind

    def test_blobs_multiclass(self):
        data = make_dataset("blobs", 90, 30, seed=1, noise=0.3, classes=3)
        assert data.classes == 3
        assert data.train_y.max() == 2

    def test_moons_rejects_multiclass(self):
        with pytest.raises(DomainError):
            make_dataset("moons", 10, 5, seed=0, classes=3)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            make_dataset("rings", 10, 5, seed=0)

    def test_batches_stream(self, rng):
        data = make_dataset("moons", 64, 16, seed=2)
        gen = data.batches(8, rng)
        x, y = next(gen)
        assert x.shape == (8, 2) and y.shape == (8,)

    def test_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = np.hstack([rng.standard_normal((30, 4)),
                          rng.integers(0, 3, (30, 1)).astype(float)])
        path = tmp_path / "data.csv"
        np.savetxt(path, rows, delimiter=",")
        data = load_csv_dataset(path, n_val=10, seed=1)
        assert data.classes == 3
        assert data.train_x.shape == (20, 4)
        assert data.val_x.shape == (10, 4)

    def test_csv_bad_labels(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0,0.5\n")
        with pytest.raises(ConfigError):
            load_csv_dataset(path, n_val=0)

    def test_csv_n_val_too_large(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("1.0,2.0,0\n0.5,0.1,1\n")
        with pytest.raises(ConfigError):
            load_csv_dataset(path, n_val=2)


class TestPhaseSchedule:
    def test_lr_milestones(self):
        sched = PhaseSchedule(steps=100, batch_size=8,
                              milestones=((0, 1e-2), (60, 1e-3), (90, 1e-4)))
        assert sched.lr_at(0) == 1e-2
        assert sched.lr_at(59) == 1e-2
        assert sched.lr_at(60) == 1e-3
        assert sched.lr_at(95) == 1e-4

    def test_validation(self):
        with pytest.raises(ConfigError):
            PhaseSchedule(steps=10, batch_size=8, milestones=((5, 1e-2),))
        with pytest.raises(ConfigError):
            PhaseSchedule(steps=10, batch_size=8, milestones=((0, 1e-2), (0, 1e-3)))
        for lr in (0.0, -1e-2, np.nan, np.inf):
            with pytest.raises(ConfigError, match="^LR values must be finite and > 0$"):
                PhaseSchedule(steps=10, batch_size=8, milestones=((0, 1e-2), (5, lr)))


class TestPretrain:
    def test_blobs_two_layer_reaches_95(self):
        exp = quick_config(hidden=(16,), plan="[0, 0]", pre_steps=2000)
        data = build_dataset(exp)
        net = pretrain(exp, data)
        assert accuracy(net, data.val_x, data.val_y) > 0.95

    def test_zero_steps_returns_init(self):
        exp = quick_config(pre_steps=0)
        net = pretrain(exp)
        fresh = Network.initialize(exp.layers, exp.input_shape, exp.classes,
                                   seed=[exp.seed, 0])
        assert all(np.array_equal(a, b) for a, b in zip(net.weights, fresh.weights))

    def test_same_seed_identical_checkpoint_bytes(self):
        a = pretrain(quick_config(seed=4, pre_steps=300))
        b = pretrain(quick_config(seed=4, pre_steps=300))
        assert checkpoint_bytes(a) == checkpoint_bytes(b)


class TestRunMethod:
    def test_summary_fields_oneshot(self):
        rec = run_method(quick_config(method="oneshot_l1"))
        s = rec.summary
        assert s["method"] == "oneshot_l1"
        assert 0.0 < s["sparsity"] < 1.0
        assert s["reg_ticks"] == 0
        assert len(s["pruned_hash"]) == 16
        assert s["pre_prune_acc"] == s["baseline_acc"]

    def test_zero_plan_all_methods_near_baseline(self):
        finals = {}
        for method in ("greg1", "greg2", "oneshot_l1", "random_subset"):
            rec = run_method(quick_config(method=method, plan="[0, 0, 0]"))
            assert rec.summary["sparsity"] == 0.0
            finals[method] = rec.summary["post_finetune_acc"]
        assert finals["oneshot_l1"] == finals["greg1"]
        assert finals["oneshot_l1"] == finals["random_subset"]
        spread = max(finals.values()) - min(finals.values())
        assert spread < 0.05

    def test_greg1_and_oneshot_share_pruned_sets(self):
        exp = quick_config()
        data = build_dataset(exp)
        baseline = pretrain(exp, data)
        rec_a = run_method(exp, baseline=baseline, data=data)
        rec_b = run_method(replace(exp, method="oneshot_l1"), baseline=baseline,
                           data=data)
        assert rec_a.summary["pruned_hash"] == rec_b.summary["pruned_hash"]

    def test_greg1_rejects_a_mask_short_of_the_nets_groups(self):
        exp = quick_config(hidden=(8, 6))
        net = Network.initialize(exp.layers, exp.input_shape, exp.classes, seed=0)
        before = net.flat_w.copy()
        # layer 1's flags cover 4 of its 6 filters
        short = Mask("filter", [np.ones(8, dtype=np.uint8),
                                np.array([0, 0, 1, 1], dtype=np.uint8),
                                np.ones(2, dtype=np.uint8)])
        with pytest.raises(DimensionError, match=r"\[8, 4, 2\].*\[8, 6, 2\]"):
            scheduler.greg1_init(net, exp.pruning_plan, exp.reg, short)
        with pytest.raises(DimensionError):
            run_method(exp, baseline=net, initial_mask=short)
        assert np.array_equal(net.flat_w, before)

    @pytest.mark.parametrize("method", ["greg1", "oneshot_l1"])
    def test_mask_at_another_granularity_rejected_before_pretraining(
            self, monkeypatch, method):
        def no_pretrain(*args):
            raise AssertionError("pretrained before the mask was rejected")

        monkeypatch.setattr(harness, "pretrain", no_pretrain)
        exp = quick_config(method=method)
        net = Network.initialize(exp.layers, exp.input_shape, exp.classes, seed=0)
        mask = Mask("weight", [np.ones(n, dtype=np.uint8)
                               for n in group_counts(net, "weight")])
        with pytest.raises(PlanError, match="'weight'.*'filter'"):
            run_method(exp, initial_mask=mask)

    def test_greg2_rejects_an_initial_mask_before_any_work(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("worked before the mask was rejected")

        monkeypatch.setattr(harness, "build_dataset", no_work)
        monkeypatch.setattr(harness, "pretrain", no_work)
        monkeypatch.setattr(Network, "clone", no_work)
        exp = quick_config(method="greg2")
        net = Network.initialize(exp.layers, exp.input_shape, exp.classes, seed=0)
        mask = random_prune_set(net, exp.pruning_plan, seed=[exp.seed, 3])
        with pytest.raises(PlanError, match="greg2 picks its own prune set"):
            run_method(exp, initial_mask=mask)
        with pytest.raises(PlanError, match="greg2 picks its own prune set"):
            run_method(exp, baseline=net, initial_mask=mask)

    def test_greg1_rows_cover_phases(self):
        rec = run_method(quick_config(metric_every=10))
        phases = {row["phase"] for row in rec.rows}
        assert "growing" in phases
        assert "stabilizing" in phases
        assert "finetune" in phases
        iters = [row["iter"] for row in rec.rows]
        assert iters == sorted(iters)
        assert len(set(iters)) == len(iters)

    def test_budget_cap_enforced(self, monkeypatch):
        def no_tick(*args):
            raise AssertionError("ticked an over-budget ramp")

        def no_pretrain(*args):
            raise AssertionError("pretrained for an over-budget ramp")

        monkeypatch.setattr(harness, "tick", no_tick)
        monkeypatch.setattr(harness, "pretrain", no_pretrain)
        with pytest.raises(ConfigError, match="reg_max_iters 5"):
            run_method(replace(quick_config(), reg_max_iters=5))

    @pytest.mark.parametrize("method", ["greg1", "greg2"])
    def test_ramp_builds_factors_once_per_boundary(self, monkeypatch, method):
        built, returned = [], []
        expand, tick = scheduler.expand_group_values, harness.tick

        def counting_expand(*args):
            built.append(args)
            return expand(*args)

        def recording_tick(*args):
            returned.append(tick(*args))
            return returned[-1]

        monkeypatch.setattr(scheduler, "expand_group_values", counting_expand)
        monkeypatch.setattr(harness, "tick", recording_tick)
        exp = quick_config(method=method, pre_steps=200, ft_steps=0)
        rec = run_method(exp)
        assert len(returned) == rec.summary["reg_ticks"]
        # boundaries fall on ticks 0, k_update, ... up to the one passing tau
        boundaries = (len(returned) - exp.reg.k_stabilize) // exp.reg.k_update + 1
        assert len(built) == boundaries
        assert 1 + sum(a is not b for a, b in zip(returned, returned[1:])) == boundaries

    def test_divergence_raises_numeric_error_without_warnings(self):
        exp = quick_config(pre_steps=50)
        exp = replace(exp, pretrain=replace(exp.pretrain, milestones=((0, 1e4),)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError):
                pretrain(exp)

    def test_greg2_that_cannot_pick_rejected_at_build(self):
        reg = RegConfig(delta_lambda=0.4, tau=0.7, tau_prime=0.45)
        with pytest.raises(DomainError, match="never pick"):
            quick_config(method="greg2", reg=reg)
        with pytest.raises(DomainError, match="tau_prime"):
            quick_config(method="greg2", reg=RegConfig(delta_lambda=0.1, tau=1.0))

    def test_dataset_class_mismatch_rejected(self):
        exp = quick_config(dataset={"kind": "blobs", "n_train": 64, "n_val": 32,
                                    "noise": 0.3, "seed": 1, "classes": 3})
        with pytest.raises(ConfigError):
            run_method(exp)

    def test_desk_preset_prune_barely_moves_accuracy(self):
        # wide net, deep ramp: removing the suppressed groups is a no-op
        exp = ExperimentConfig(
            layers=mlp_specs([256, 128, 64]),
            input_shape=(2,),
            classes=2,
            dataset={"kind": "moons", "n_train": 1024, "n_val": 512,
                     "noise": 0.1, "seed": 9},
            plan="[0, 0.9, 0.9, 0]",
            method="greg1",
            reg=RegConfig(delta_lambda=2e-3, tau=4.0, tau_prime=0.02, k_update=5,
                          k_stabilize=4000, base_decay=5e-4),
            pretrain=PhaseSchedule(steps=3000, batch_size=64,
                                   milestones=((0, 1e-2), (2000, 1e-3))),
            finetune=PhaseSchedule(steps=0, batch_size=64, milestones=((0, 1e-3),)),
            seed=0,
            metric_every=2000,
        )
        rec = run_method(exp)
        s = rec.summary
        assert s["pre_prune_acc"] - s["post_prune_acc"] < 0.005
        assert s["suppression_ratio"] < 2e-3

    def test_conv_pipeline_via_csv(self, tmp_path):
        rng = np.random.default_rng(8)
        n = 120
        labels = rng.integers(0, 2, n)
        imgs = rng.standard_normal((n, 1, 5, 5)) * 0.1
        imgs[labels == 1, :, :2, :2] += 1.5
        rows = np.hstack([imgs.reshape(n, -1), labels[:, None].astype(float)])
        path = tmp_path / "imgs.csv"
        np.savetxt(path, rows, delimiter=",")
        exp = ExperimentConfig(
            layers=(
                LayerSpec("conv2d", 4, kernel=(3, 3)),
                LayerSpec("dense", 8),
                LayerSpec("dense", 2, activation="none", prunable=False),
            ),
            input_shape=(1, 5, 5),
            classes=2,
            dataset={"kind": "csv", "path": str(path), "n_val": 40, "seed": 2},
            plan="[0.5, 0.5, 0]",
            method="oneshot_l1",
            reg=QUICK_REG,
            pretrain=PhaseSchedule(steps=400, batch_size=16,
                                   milestones=((0, 1e-2),)),
            finetune=PhaseSchedule(steps=200, batch_size=16,
                                   milestones=((0, 1e-3),)),
            seed=1,
            metric_every=50,
        )
        rec = run_method(exp)
        assert rec.summary["sparsity"] > 0.3
        assert rec.summary["post_finetune_acc"] > 0.6


class TestSuppressionStats:
    @pytest.mark.parametrize("granularity", ["filter", "weight"])
    def test_matches_bruteforce_on_conv_net(self, granularity):
        net = small_conv_net(seed=5)
        plan = PruningPlan(ratios=(0.5, 0.4, 0.5, 0.0), granularity=granularity)
        state = scheduler.greg1_init(net, plan, QUICK_REG)
        pruned_abs, kept_means = [], []
        for l in state.eligible_layers:
            spec, w = net.layers[l], net.weights[l]
            prune_set = set(np.flatnonzero(state.roles[l] == RAMPED).tolist())
            for g in range(w.size if granularity == "weight" else spec.units):
                if granularity == "weight":
                    members = [w.flat[g]]
                elif spec.kind == "dense":
                    members = list(w[:, g])
                else:
                    members = list(w[g].ravel())
                vals = [abs(float(v)) for v in members]
                if g in prune_set:
                    pruned_abs.extend(vals)
                else:
                    kept_means.append(sum(vals) / len(vals))
        s = harness.suppression_stats(net, state)
        mean_kept = sum(kept_means) / len(kept_means)
        assert s["pruned_max_abs"] == max(pruned_abs)
        assert s["kept_group_mean_abs"] == pytest.approx(mean_kept, rel=1e-12)
        assert s["suppression_ratio"] == pytest.approx(max(pruned_abs) / mean_kept,
                                                       rel=1e-12)
        assert s["suppression_ratio_strict"] == pytest.approx(
            max(pruned_abs) / min(kept_means), rel=1e-12)


class TestCompare:
    def test_low_ratio_both_near_baseline(self):
        exp = quick_config(plan="[0, 0.5, 0]", hidden=(24, 16))
        res = compare_schedules(exp, n_seeds=3, kind="l1")
        assert set(res.aggregates) == {"greg1", "oneshot"}
        baselines = []
        for seed_shift in range(3):
            cfg = quick_config(plan="[0, 0.5, 0]", hidden=(24, 16),
                               seed=exp.seed + seed_shift)
            data = build_dataset(cfg, seed_shift=seed_shift)
            baselines.append(accuracy(pretrain(cfg, data), data.val_x, data.val_y))
        base = float(np.mean(baselines))
        for mean, _ in res.aggregates.values():
            assert abs(mean - base) < 0.08

    def test_random_kind_shares_mask_per_seed(self):
        exp = quick_config(plan="[0, 0.5, 0]")
        res = compare_schedules(exp, n_seeds=2, kind="random")
        hashes = {}
        for row in res.per_seed:
            hashes.setdefault(row["seed"], set()).add(row["pruned_hash"])
        assert all(len(h) == 1 for h in hashes.values())

    def test_table_csv_shape(self):
        exp = quick_config(plan="[0, 0.5, 0]")
        res = compare_schedules(exp, n_seeds=2, kind="l1")
        lines = res.table_csv().strip().splitlines()
        assert lines[0] == "seed,method,post_finetune_acc,pruned_hash"
        assert len(lines) == 1 + 4 + 1 + 2

    def test_mismatched_sets_raise_protocol_error_naming_the_seed(self, monkeypatch):
        # the one-shot arm prunes the largest-L1 groups instead of the smallest
        monkeypatch.setattr(harness, "select_prune_set",
                            lambda scores, plan: select_prune_set([-v for v in scores], plan))
        exp = quick_config(seed=7, pre_steps=50, ft_steps=10)
        with pytest.raises(ProtocolError, match=r"^seed 7: pruned sets differ between "
                                                r"schedules \([0-9a-f]{16} vs [0-9a-f]{16}\)$"):
            compare_schedules(exp, n_seeds=2)

    def test_one_seed_survives_a_pickle_round_trip(self):
        exp = quick_config(pre_steps=100, ft_steps=20)
        arms = (replace(exp, method="greg1"), replace(exp, method="random_subset"))
        unit, sent = pickle.loads(pickle.dumps((harness._compare_seed, arms)))
        rows = unit(sent, 1, "random")
        assert rows == harness._compare_seed(arms, 1, "random")
        assert [(row["seed"], row["method"]) for row in rows] == [(1, "greg1"), (1, "oneshot")]

    def test_seed_count_validated(self):
        with pytest.raises(ConfigError):
            compare_schedules(quick_config(), n_seeds=1)

    @pytest.mark.parametrize("change, error", [
        ({"plan": "[0, 0, 0.5]"}, PlanError),  # ratio on the unprunable output
        ({"reg_max_iters": 10}, ConfigError),
    ])
    def test_rejected_before_any_seed_pretrains(self, monkeypatch, change, error):
        def no_pretrain(*args):
            raise AssertionError("pretrained before the comparison was rejected")

        monkeypatch.setattr(harness, "pretrain", no_pretrain)
        for kind in ("l1", "random"):
            with pytest.raises(error):
                compare_schedules(replace(quick_config(), **change), 2, kind=kind)


class TestFinetune:
    @pytest.fixture
    def pruned_nets(self, monkeypatch):
        """Each net run_method hard-prunes (and then fine-tunes in place)."""
        nets = []

        def spy(*args, **kwargs):
            nets.append(apply_hard_prune(*args, **kwargs))
            nets.append([w.copy() for w in nets[-1].weights])
            return nets[-2]

        monkeypatch.setattr(harness, "apply_hard_prune", spy)
        return nets

    def test_zero_steps_identity(self, pruned_nets):
        rec = run_method(quick_config(method="oneshot_l1", ft_steps=0))
        net, at_prune = pruned_nets
        assert all(np.array_equal(a, b) for a, b in zip(at_prune, net.weights))
        assert rec.summary["post_finetune_acc"] == rec.summary["post_prune_acc"]

    def test_unstructured_mask_stays_exactly_zero(self, rng, pruned_nets):
        exp = replace(quick_config(method="oneshot_l1", ft_steps=1000),
                      granularity="weight")
        data = build_dataset(exp)
        net = pretrain(exp, data)
        counts = group_counts(net, "weight")
        flags = [np.ones(n, dtype=np.uint8) for n in counts]
        dead = rng.choice(counts[0], size=counts[0] // 2, replace=False)
        flags[0][dead] = 0
        run_method(exp, baseline=net, data=data, initial_mask=Mask("weight", flags))
        pruned, at_prune = pruned_nets
        assert np.all(pruned.weights[0].ravel()[dead] == 0.0)
        assert np.any(pruned.weights[0].ravel()[flags[0] == 1] != 0.0)
        assert not np.array_equal(pruned.weights[0], at_prune[0])

    def test_half_ratio_recovers_within_a_point(self):
        rec = run_method(quick_config(plan="[0, 0.5, 0]", hidden=(24, 16),
                                      ft_steps=800))
        s = rec.summary
        assert s["post_finetune_acc"] >= s["pre_prune_acc"] - 0.01


class TestSeparationTracking:
    def test_snapshots_normalized(self):
        exp = quick_config(method="greg2", plan="[0, 0.5, 0]", metric_every=20)
        rec, _ = track_separation(exp)
        assert rec.snapshots
        for _, layer, vec in rec.snapshots:
            assert layer == 1
            assert np.max(vec) == 1.0
            assert np.all(vec > 0)

    def test_control_runs_same_tick_count(self):
        exp = quick_config(method="greg2", plan="[0, 0.5, 0]", metric_every=20)
        real, control = track_separation(exp)
        assert control.summary["ticks"] == real.summary["ticks"]
        assert real.summary["mode"] == "greg2"
        assert control.summary["mode"] == "control"

    def test_schedule_length_matches_run(self):
        exp = quick_config(method="greg2", plan="[0, 0.5, 0]")
        assert schedule_length(exp) == track_separation(exp)[0].summary["ticks"]


class TestDeterminism:
    def test_record_strings_reproduce(self):
        a = run_method(quick_config(metric_every=25))
        b = run_method(quick_config(metric_every=25))
        assert a.record_csv() == b.record_csv()
        assert a.summary_csv() == b.summary_csv()
