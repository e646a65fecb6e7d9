"""CLI subcommands: artifacts, exit codes, idempotent outputs."""

import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from growreg import harness
from growreg.cli import main
from growreg.groups import select_prune_set

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture
def runner():
    return CliRunner()


def tiny_config(tmp_path, method="greg1", seed=0):
    doc = {
        "schema_version": 1,
        "experiment": {
            "net": {
                "input_shape": [2],
                "classes": 2,
                "layers": [
                    {"kind": "dense", "units": 12},
                    {"kind": "dense", "units": 8},
                    {"kind": "dense", "units": 2, "activation": "none",
                     "prunable": False},
                ],
            },
            "dataset": {"kind": "blobs", "n_train": 256, "n_val": 128,
                        "noise": 0.4, "seed": 5},
            "plan": "[0, 0.5, 0]",
            "method": method,
            "reg": {"delta_lambda": 0.005, "tau": 0.1, "tau_prime": 0.02,
                    "k_update": 2, "k_stabilize": 40, "base_decay": 0.0005},
            "pretrain": {"steps": 400, "batch_size": 32,
                         "milestones": [[0, 0.01], [200, 0.001]]},
            "finetune": {"steps": 200, "batch_size": 32,
                         "milestones": [[0, 0.001]]},
            "seed": seed,
            "metric_every": 20,
        },
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc, indent=2))
    return path


class TestOracle:
    def test_random_cases_pass(self, runner, tmp_path):
        out = tmp_path / "oracle"
        result = runner.invoke(
            main, ["oracle", "--dim", "8", "--cases", "10", "--seed", "3",
                   "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        report = (out / "oracle_report.csv").read_text().strip().splitlines()
        assert report[0] == "case,dim,delta_lambda,residual_inf"
        assert len(report) == 1 + 10 * 2
        assert max(float(r.rsplit(",", 1)[1]) for r in report[1:]) < 1e-8

    def test_reference_invocation(self, runner, tmp_path):
        out = tmp_path / "oracle50"
        result = runner.invoke(
            main, ["oracle", "--dim", "10", "--cases", "50", "--seed", "7",
                   "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        report = (out / "oracle_report.csv").read_text().strip().splitlines()
        assert max(float(r.rsplit(",", 1)[1]) for r in report[1:]) < 1e-8

    def test_residual_over_tolerance_exits_4_keeping_report(self, runner, tmp_path):
        out = tmp_path / "oracle"
        result = runner.invoke(main, ["oracle", "--dim", "3", "--cases", "2",
                                      "--tol", "1e-300", "--out", str(out)])
        assert result.exit_code == 4, result.output
        assert result.output.endswith("error: residual exceeds tolerance\n")
        assert len((out / "oracle_report.csv").read_text().splitlines()) == 1 + 2 * 2

    def test_non_psd_matrix_rejected(self, runner, tmp_path):
        bad = tmp_path / "nonpsd.txt"
        np.savetxt(bad, np.array([[1.0, 0.0], [0.0, -2.0]]))
        result = runner.invoke(
            main, ["oracle", "--hessian-file", str(bad), "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 2
        assert "positive semi-definite" in result.output

    def test_non_square_matrix_rejected(self, runner, tmp_path):
        bad = tmp_path / "rect.txt"
        np.savetxt(bad, np.ones((2, 3)))
        result = runner.invoke(
            main, ["oracle", "--hessian-file", str(bad), "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 2

    @pytest.mark.filterwarnings("error")
    def test_non_finite_increment_exits_2_without_warning(self, runner, tmp_path):
        # a warning, raised as an error here, would end the command with exit 1
        result = runner.invoke(
            main, ["oracle", "--dim", "2", "--cases", "1", "--delta-lambda", "inf",
                   "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 2, result.output
        assert "delta_lambda must be finite" in result.stderr
        assert "Warning" not in result.stderr

    @pytest.mark.parametrize("bump", ["-0.5", "-0.01", "0", "nan", "-inf"])
    def test_bad_increment_exits_2_before_any_case(self, runner, tmp_path, bump):
        out = tmp_path / "o"
        result = runner.invoke(main, ["oracle", "--delta-lambda", "0.1",
                                      "--delta-lambda", bump, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert result.output.count("\n") == 1
        assert "delta_lambda must be finite and > 0" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--dim", "1"], ["--dim", "0"], ["--cases", "0"], ["--cases", "-3"],
        ["--tol", "nan"], ["--tol", "inf"], ["--tol", "0"], ["--seed", "-1"],
    ], ids=" ".join)
    def test_bad_flag_exits_2_before_any_case(self, runner, tmp_path, flags):
        out = tmp_path / "o"
        result = runner.invoke(main, ["oracle", *flags, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert result.output.count("\n") == 1
        assert result.output.startswith(f"error: {flags[0]} must be")
        assert not out.exists()

    @pytest.mark.parametrize("hessian, flags, message", [
        ("1 0 0\n0 2 0\n0 0 3\n", ["--wstar-file", "{tmp}/missing.txt"],
         "error: cannot read {tmp}/missing.txt: "),
        ("1 0 0\n0 2 0\n0 0 3\n", ["--exact-vs-approx"],
         "error: --exact-vs-approx needs a 2x2 Hessian"),
        ("nan 0\n0 1\n", [], "error: hessian holds a NaN or an infinity"),
        ("inf 0\n0 1\n", [], "error: hessian holds a NaN or an infinity"),
        ("1 0\n0 1\n", ["--wstar-file", "{tmp}/w.txt"],
         "error: w_star holds a NaN or an infinity"),
        ("", [], "error: cannot read {tmp}/h.txt: "),
    ], ids=["missing-wstar", "exact-vs-approx-3x3", "nan-hessian", "inf-hessian",
            "nan-wstar", "empty-hessian"])
    def test_bad_hessian_case_exits_2_before_any_case(self, runner, tmp_path, hessian,
                                                        flags, message):
        h = tmp_path / "h.txt"
        h.write_text(hessian)
        (tmp_path / "w.txt").write_text("nan 1\n")
        out = tmp_path / "o"
        flags = [f.format(tmp=tmp_path) for f in flags]
        result = runner.invoke(main, ["oracle", "--hessian-file", str(h), *flags,
                                      "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert result.output.count("\n") == 1
        assert result.output.startswith(message.format(tmp=tmp_path))
        assert not out.exists()

    def test_wstar_file_without_hessian_file_exits_2_before_any_case(self, runner,
                                                                     tmp_path):
        out = tmp_path / "o"
        result = runner.invoke(main, ["oracle", "--dim", "2", "--cases", "1",
                                      "--wstar-file", str(tmp_path / "missing.txt"),
                                      "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert result.output == "error: --wstar-file needs --hessian-file\n"
        assert not out.exists()

    def test_exact_vs_approx_rejects_zero_in_wstar(self, runner, tmp_path):
        # the exact ratios divide by w*, so a zero entry cannot be tabulated
        h = tmp_path / "h.txt"
        np.savetxt(h, np.array([[2.0, 0.5], [0.5, 1.0]]))
        w = tmp_path / "w.txt"
        w.write_text("1 0\n")
        out = tmp_path / "o"
        result = runner.invoke(main, ["oracle", "--hessian-file", str(h), "--wstar-file",
                                      str(w), "--exact-vs-approx", "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert result.output.count("\n") == 1
        assert result.output.startswith("error: --exact-vs-approx needs a w* without zeros")
        assert str(w) in result.output
        assert not out.exists()

    def test_dim_and_cases_unchecked_for_a_hessian_file(self, runner, tmp_path):
        h = tmp_path / "h.txt"
        np.savetxt(h, np.array([[2.0, 0.5], [0.5, 1.0]]))
        result = runner.invoke(
            main, ["oracle", "--hessian-file", str(h), "--dim", "1", "--cases", "0",
                   "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 0, result.output
        assert "oracle: 1 case(s)" in result.output

    def test_exact_vs_approx_table(self, runner, tmp_path):
        out = tmp_path / "oracle2"
        result = runner.invoke(
            main, ["oracle", "--dim", "2", "--cases", "6", "--seed", "1",
                   "--exact-vs-approx", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        lines = (out / "exact_vs_approx.csv").read_text().strip().splitlines()
        assert lines[0].startswith("case,delta_lambda,r1_approx")
        # the dropped cross term shrinks with the increment
        gaps = {}
        for ln in lines[1:]:
            parts = ln.split(",")
            gaps.setdefault(parts[0], {})[float(parts[1])] = float(parts[6])
        for case_gaps in gaps.values():
            assert case_gaps[0.01] <= case_gaps[0.1] * 10

    def test_hessian_file_with_weights(self, runner, tmp_path):
        h = tmp_path / "h.txt"
        np.savetxt(h, np.array([[3.0, 1.0], [1.0, 2.0]]))
        w = tmp_path / "w.txt"
        np.savetxt(w, np.array([1.0, 1.0]))
        result = runner.invoke(
            main, ["oracle", "--hessian-file", str(h), "--wstar-file", str(w),
                   "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 0, result.output


class TestPipelineCommands:
    def test_pretrain_writes_checkpoint(self, runner, tmp_path):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "base"
        result = runner.invoke(main, ["pretrain", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert (out / "baseline.ckpt").exists()
        assert (out / "config.json").exists()
        assert "val_acc=" in result.output

    def test_run_writes_artifacts_and_summary_line(self, runner, tmp_path):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "run1"
        result = runner.invoke(main, ["run", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert (out / "record.csv").exists()
        assert (out / "summary.csv").exists()
        assert "sparsity=" in result.output and "final=" in result.output

    def test_run_reuses_baseline_checkpoint(self, runner, tmp_path):
        cfg = tiny_config(tmp_path)
        base = tmp_path / "base"
        runner.invoke(main, ["pretrain", "--config", str(cfg), "--out", str(base)])
        out = tmp_path / "run2"
        result = runner.invoke(
            main, ["run", "--config", str(cfg), "--out", str(out),
                   "--baseline", str(base / "baseline.ckpt")]
        )
        assert result.exit_code == 0, result.output

    def test_run_rejects_baseline_of_other_topology(self, runner, tmp_path):
        cfg = tiny_config(tmp_path)
        base = tmp_path / "base"
        runner.invoke(main, ["pretrain", "--config", str(cfg), "--out", str(base)])
        doc = json.loads(cfg.read_text())
        doc["experiment"]["net"]["layers"][0]["units"] = 16
        cfg.write_text(json.dumps(doc))
        result = runner.invoke(
            main, ["run", "--config", str(cfg), "--out", str(tmp_path / "run"),
                   "--baseline", str(base / "baseline.ckpt")]
        )
        assert result.exit_code == 2
        assert len(result.output.strip().splitlines()) == 1
        assert "dense 12 relu" in result.output and "dense 16 relu" in result.output
        assert not (tmp_path / "run").exists()

    def test_run_rejects_version_1_baseline(self, runner, tmp_path):
        cfg = tiny_config(tmp_path)
        base = tmp_path / "base"
        runner.invoke(main, ["pretrain", "--config", str(cfg), "--out", str(base)])
        ckpt = base / "baseline.ckpt"
        raw = ckpt.read_bytes()
        ckpt.write_bytes(raw[:8] + (1).to_bytes(4, "little") + raw[12:])
        result = runner.invoke(
            main, ["run", "--config", str(cfg), "--out", str(tmp_path / "run"),
                   "--baseline", str(ckpt)]
        )
        assert result.exit_code == 2
        assert len(result.output.strip().splitlines()) == 1
        assert "unsupported checkpoint version 1" in result.output

    def test_run_with_unreadable_baseline_exits_2_writing_nothing(self, runner,
                                                                  tmp_path):
        cfg = tiny_config(tmp_path)
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(b"not a checkpoint")
        out = tmp_path / "run"
        result = runner.invoke(main, ["run", "--config", str(cfg), "--out", str(out),
                                      "--baseline", str(ckpt)])
        assert result.exit_code == 2
        assert len(result.output.strip().splitlines()) == 1
        assert "not a checkpoint file (bad magic)" in result.output
        assert not out.exists()

    def test_run_with_directory_baseline_exits_2_writing_nothing(self, runner, tmp_path):
        cfg = tiny_config(tmp_path)
        ckpt = tmp_path / "dir.ckpt"
        ckpt.mkdir()
        out = tmp_path / "run"
        result = runner.invoke(main, ["run", "--config", str(cfg), "--out", str(out),
                                      "--baseline", str(ckpt)])
        assert result.exit_code == 2, result.output
        assert len(result.output.strip().splitlines()) == 1
        assert f"cannot read checkpoint {ckpt}: " in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "pretrain", "compare"])
    def test_dataset_of_other_class_count_exits_2_before_any_work(self, runner, tmp_path,
                                                                  command):
        cfg = tiny_config(tmp_path)
        doc = json.loads(cfg.read_text())
        doc["experiment"]["dataset"]["classes"] = 3
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "x"
        result = runner.invoke(main, [command, "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert result.output == ("error: experiment.dataset: blobs has 3 classes, "
                                 "experiment.net.classes is 2\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "pretrain", "compare"])
    @pytest.mark.parametrize("features, labels, message", [
        (3, [0, 1], "dataset has 2 classes and 3 features, network expects 2 and 2"),
        (2, [0, 1, 2], "dataset has 3 classes and 2 features, network expects 2 and 2"),
    ], ids=["3-features", "3-classes"])
    def test_csv_not_fitting_the_net_exits_2_before_any_work(self, runner, tmp_path,
                                                            command, features, labels,
                                                            message):
        rows = np.random.default_rng(0).standard_normal((40, features + 1))
        rows[:, -1] = np.resize(labels, 40)
        data = tmp_path / "data.csv"
        np.savetxt(data, rows, delimiter=",")
        cfg = tiny_config(tmp_path)
        doc = json.loads(cfg.read_text())
        doc["experiment"]["dataset"] = {"kind": "csv", "path": str(data), "n_val": 10}
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "x"
        result = runner.invoke(main, [command, "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert result.output == f"error: {message}\n"
        assert not out.exists()

    def test_run_byte_identical_records(self, runner, tmp_path):
        cfg = tiny_config(tmp_path)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            result = runner.invoke(main, ["run", "--config", str(cfg), "--out", str(out)])
            assert result.exit_code == 0, result.output
            outs.append(out)
        assert (outs[0] / "record.csv").read_bytes() == (outs[1] / "record.csv").read_bytes()
        assert (outs[0] / "summary.csv").read_bytes() == (outs[1] / "summary.csv").read_bytes()

    def test_diverging_run_exits_3(self, runner, tmp_path):
        # greg1_desk on a small dataset, pretrained at a learning rate of 1e150
        doc = json.loads((CONFIG_DIR / "greg1_desk.json").read_text())
        exp = doc["experiment"]
        exp["dataset"].update(n_train=64, n_val=32)
        exp["pretrain"] = {"steps": 20, "batch_size": 16, "milestones": [[0, 1e150]]}
        cfg = tmp_path / "diverge.json"
        cfg.write_text(json.dumps(doc))
        result = runner.invoke(main, ["run", "--config", str(cfg), "--out",
                                      str(tmp_path / "run")])
        assert result.exit_code == 3, result.output
        assert result.output == "error: loss is not finite (nan)\n"

    def test_seed_flag_changes_outputs(self, runner, tmp_path):
        cfg = tiny_config(tmp_path)
        r1 = runner.invoke(main, ["run", "--config", str(cfg), "--out",
                                  str(tmp_path / "s0")])
        r2 = runner.invoke(main, ["run", "--config", str(cfg), "--seed", "3",
                                  "--out", str(tmp_path / "s3")])
        assert r1.exit_code == 0 and r2.exit_code == 0
        a = (tmp_path / "s0" / "record.csv").read_bytes()
        b = (tmp_path / "s3" / "record.csv").read_bytes()
        assert a != b

    def test_greg2_run_emits_snapshots(self, runner, tmp_path):
        cfg = tiny_config(tmp_path, method="greg2")
        out = tmp_path / "g2"
        result = runner.invoke(main, ["run", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert (out / "norm_snapshots.csv").exists()

    def test_compare_writes_table(self, runner, tmp_path):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "cmp"
        result = runner.invoke(
            main, ["compare", "--config", str(cfg), "--seeds", "2", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        lines = (out / "comparison.csv").read_text().strip().splitlines()
        assert lines[0] == "seed,method,post_finetune_acc,pruned_hash"
        assert "greg1" in result.output and "oneshot" in result.output

    def test_compare_of_mismatched_sets_exits_3(self, runner, tmp_path, monkeypatch):
        # the one-shot arm prunes the largest-L1 groups instead of the smallest
        monkeypatch.setattr(harness, "select_prune_set",
                            lambda scores, plan: select_prune_set([-v for v in scores], plan))
        cfg = tiny_config(tmp_path)
        result = runner.invoke(main, ["compare", "--config", str(cfg), "--seeds", "2",
                                      "--out", str(tmp_path / "cmp")])
        assert result.exit_code == 3, result.output
        assert len(result.output.strip().splitlines()) == 1
        assert result.output.startswith("error: seed 0: pruned sets differ between schedules")

    @pytest.mark.parametrize("seeds", ["1", "0", "-2"])
    def test_compare_with_too_few_seeds_exits_2_writing_nothing(self, runner,
                                                               tmp_path, seeds):
        out = tmp_path / "cmp"
        result = runner.invoke(main, ["compare", "--config", str(tiny_config(tmp_path)),
                                      "--seeds", seeds, "--out", str(out)])
        assert result.exit_code == 2
        assert result.output.strip() == f"error: --seeds must be >= 2, got {seeds}"
        assert not out.exists()

    def test_k_update_override_changes_ramp(self, runner, tmp_path):
        cfg = tiny_config(tmp_path)
        for ku, name in ((2, "ku2"), (4, "ku4")):
            result = runner.invoke(
                main, ["run", "--config", str(cfg), "--k-update", str(ku),
                       "--out", str(tmp_path / name)]
            )
            assert result.exit_code == 0, result.output
        ticks = {}
        for name in ("ku2", "ku4"):
            summary = (tmp_path / name / "summary.csv").read_text().splitlines()
            ticks[name] = dict(zip(summary[0].split(","), summary[1].split(",")))[
                "reg_ticks"
            ]
        assert int(ticks["ku4"]) > int(ticks["ku2"])

    def test_preset_flag_keeps_explicit_reg_keys(self, runner, tmp_path):
        cfg = tiny_config(tmp_path)
        doc = json.loads(cfg.read_text())
        doc["experiment"]["reg"]["base_decay"] = 0.0
        cfg.write_text(json.dumps(doc))
        ckpts = []
        for name, flags in (("plain", []), ("preset", ["--preset", "desk"])):
            out = tmp_path / name
            result = runner.invoke(
                main, ["pretrain", "--config", str(cfg), "--out", str(out), *flags])
            assert result.exit_code == 0, result.output
            ckpts.append((out / "baseline.ckpt").read_bytes())
        assert ckpts[0] == ckpts[1]

    def test_out_root_env_var(self, runner, tmp_path):
        cfg = tiny_config(tmp_path)
        env = {"GROWREG_OUT_ROOT": str(tmp_path / "root")}
        result = runner.invoke(main, ["pretrain", "--config", str(cfg)], env=env)
        assert result.exit_code == 0, result.output
        assert (tmp_path / "root" / "pretrain_seed0" / "baseline.ckpt").exists()


class TestValidationExitCodes:
    def test_missing_plan_names_field(self, runner, tmp_path):
        cfg = tiny_config(tmp_path)
        doc = json.loads(cfg.read_text())
        del doc["experiment"]["plan"]
        cfg.write_text(json.dumps(doc))
        result = runner.invoke(main, ["run", "--config", str(cfg), "--out",
                                      str(tmp_path / "x")])
        assert result.exit_code == 2
        assert "plan" in result.output

    def test_unknown_key_rejected(self, runner, tmp_path):
        cfg = tiny_config(tmp_path)
        doc = json.loads(cfg.read_text())
        doc["experiment"]["warmup"] = 5
        cfg.write_text(json.dumps(doc))
        result = runner.invoke(main, ["run", "--config", str(cfg), "--out",
                                      str(tmp_path / "x")])
        assert result.exit_code == 2
        assert "warmup" in result.output

    @pytest.mark.parametrize("field, value", [
        ("pretrain.batch_size", 0),
        ("pretrain.steps", -5),
        ("finetune.momentum", 1.0),
        ("reg_batch_size", 0),
        ("reg_lr", 0.0),
        ("reg_lr", float("inf")),
        ("reg_momentum", -0.1),
        ("reg_max_iters", -1),
        ("reg.base_decay", float("nan")),
        ("reg.base_decay", -1.0),
        ("seed", -1),
        ("dataset.seed", -1),
        ("dataset.n_train", 0),
        ("dataset.n_train", -1),
        ("dataset.n_val", 0),
        ("dataset.n_val", -1),
    ])
    def test_bad_field_names_path(self, runner, tmp_path, field, value):
        cfg = tiny_config(tmp_path)
        doc = json.loads(cfg.read_text())
        *parents, key = field.split(".")
        node = doc["experiment"]
        for name in parents:
            node = node[name]
        node[key] = value
        cfg.write_text(json.dumps(doc))
        result = runner.invoke(main, ["run", "--config", str(cfg), "--out",
                                      str(tmp_path / "x")])
        assert result.exit_code == 2, result.output
        assert len(result.output.strip().splitlines()) == 1
        assert all(part in result.output for part in field.split("."))

    def test_csv_n_val_below_one_names_path(self, runner, tmp_path):
        rows = tmp_path / "rows.csv"
        np.savetxt(rows, np.c_[np.eye(4, 2), np.arange(4) % 2], delimiter=",")
        cfg = tiny_config(tmp_path)
        doc = json.loads(cfg.read_text())
        doc["experiment"]["dataset"] = {"kind": "csv", "path": str(rows), "n_val": -1}
        cfg.write_text(json.dumps(doc))
        result = runner.invoke(main, ["run", "--config", str(cfg), "--out",
                                      str(tmp_path / "x")])
        assert result.exit_code == 2, result.output
        assert result.output == "error: experiment.dataset.n_val: must be >= 1, got -1\n"

    @pytest.mark.parametrize("command", ["run", "pretrain"])
    def test_negative_seed_flag_exits_2(self, runner, tmp_path, command):
        cfg = tiny_config(tmp_path)
        result = runner.invoke(main, [command, "--config", str(cfg), "--seed", "-1",
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 2, result.output
        assert result.output == "error: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("field, value", [
        ("experiment.net.layers", 5),
        ("preset", ["desk"]),
        ("experiment.dataset.kind", ["moons"]),
        ("experiment.net.layers.0.units", 1.5),
        ("experiment.net.layers.0.units", True),
        ("experiment.pretrain.steps", 1e30),
        ("experiment.dataset.n_train", "x"),
    ])
    def test_mistyped_field_names_path(self, runner, tmp_path, field, value):
        cfg = tiny_config(tmp_path)
        doc = json.loads(cfg.read_text())
        *parents, key = field.split(".")
        node = doc
        for name in parents:
            node = node[int(name)] if name.isdigit() else node[name]
        node[key] = value
        cfg.write_text(json.dumps(doc))
        result = runner.invoke(main, ["run", "--config", str(cfg), "--out",
                                      str(tmp_path / "x")])
        assert result.exit_code == 2, result.output
        assert len(result.output.strip().splitlines()) == 1
        assert all(part in result.output for part in field.split("."))

    def test_greg2_that_never_picks_rejected(self, runner, tmp_path):
        cfg = tiny_config(tmp_path, method="greg2")
        doc = json.loads(cfg.read_text())
        doc["experiment"]["reg"].update(delta_lambda=0.4, tau_prime=0.45, tau=0.7)
        cfg.write_text(json.dumps(doc))
        result = runner.invoke(main, ["run", "--config", str(cfg), "--out",
                                      str(tmp_path / "x")])
        assert result.exit_code == 2
        assert len(result.output.strip().splitlines()) == 1
        for name in ("delta_lambda", "tau_prime", "tau"):
            assert name in result.output

    @pytest.mark.parametrize("field, text", [
        ("experiment.pretrain.milestones.0.1", "1e400"),  # read as inf
        ("experiment.pretrain.milestones.0.1", "1" + "0" * 400),
        ("experiment.finetune.milestones.0.1", "NaN"),
        ("experiment.reg_lr", "1" + "0" * 400),
        ("experiment.dataset.noise", "1" + "0" * 400),
        ("experiment.reg.tau", "1" + "0" * 400),
    ], ids=lambda v: v if len(v) < 40 else "10**400")
    def test_non_finite_number_names_path(self, runner, tmp_path, field, text):
        cfg = tiny_config(tmp_path)
        doc = json.loads(cfg.read_text())
        *parents, key = field.split(".")
        node = doc
        for name in parents:
            node = node[int(name)] if name.isdigit() else node[name]
        node[int(key) if key.isdigit() else key] = "VALUE"
        cfg.write_text(json.dumps(doc).replace('"VALUE"', text))
        result = runner.invoke(main, ["run", "--config", str(cfg), "--out",
                                      str(tmp_path / "x")])
        assert result.exit_code == 2, result.output
        assert len(result.output.strip().splitlines()) == 1
        assert "finite" in result.output
        assert all(part in result.output for part in parents if not part.isdigit())

    @pytest.mark.parametrize("command, method, unprunable, plan, message", [
        ("run", "oneshot_l1", 1, "[0, 0.5, 0]", "layer 1 is not prunable"),
        ("run", "random_subset", 1, "[0, 0.5, 0]", "layer 1 is not prunable"),
        # the output layer
        ("run", "oneshot_l1", 2, "[0, 0, 0.5]", "layer 2 is not prunable"),
        ("pretrain", "greg1", 2, "[0, 0, 0.5]", "layer 2 is not prunable"),
        ("run", "greg1", None, "[0, 1, 0]", "layer 1: ratio 1.0 would remove every"),
    ], ids=["run-oneshot_l1-1", "run-random_subset-1", "run-oneshot_l1-2",
            "pretrain-greg1-2", "run-greg1-ratio1"])
    def test_plan_error_exits_2_before_any_work(self, runner, tmp_path, command,
                                                method, unprunable, plan, message):
        cfg = tiny_config(tmp_path, method=method)
        doc = json.loads(cfg.read_text())
        if unprunable is not None:
            doc["experiment"]["net"]["layers"][unprunable]["prunable"] = False
        doc["experiment"]["plan"] = plan
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "x"
        result = runner.invoke(main, [command, "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert len(result.output.strip().splitlines()) == 1
        assert message in result.output
        assert not out.exists()  # the output directory follows the load

    @pytest.mark.parametrize("net, message", [
        ({"input_shape": [0]}, "experiment: input_shape dims must be >= 1, got (0,)"),
        ({"input_shape": [1, 2, 2], "layers.0.kind": "conv2d", "layers.0.kernel": [3, 3]},
         "experiment: conv2d layer 0: kernel (3, 3) larger than input (1, 2, 2)"),
        ({"layers.1.kernel": [3, 3]},
         "experiment.net.layers[1]: dense layer takes no kernel, got [3, 3]"),
        ({"layers.1.kernel": []}, "experiment.net.layers[1]: dense layer takes no kernel"),
        ({"input_shape": [1, 3, 3], "layers.0.kind": "conv2d", "layers.0.kernel": [2, 2],
          "layers.1.kind": "conv2d", "layers.1.kernel": [1, 1],
          "layers.2.kind": "conv2d", "layers.2.kernel": [2, 2]},
         "experiment: final layer 2 is conv2d; the logits need a dense layer"),
    ], ids=["zero-input-dim", "conv-kernel-over-input", "dense-kernel", "dense-empty-kernel",
            "conv-last"])
    def test_bad_layer_chain_exits_2_before_any_work(self, runner, tmp_path, net, message):
        cfg = tiny_config(tmp_path)
        doc = json.loads(cfg.read_text())
        for path, value in net.items():
            *parents, key = path.split(".")
            node = doc["experiment"]["net"]
            for name in parents:
                node = node[int(name)] if name.isdigit() else node[name]
            node[key] = value
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "x"
        result = runner.invoke(main, ["run", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert len(result.output.strip().splitlines()) == 1
        assert message in result.output
        assert not out.exists()

    @pytest.mark.parametrize("literal", [b"1" + b"0" * 4999, b'"\xff"'],
                             ids=["5000-digit-integer", "non-utf8-string"])
    def test_unreadable_json_value_exits_2(self, runner, tmp_path, literal):
        # json.load raises a plain ValueError here, not a JSONDecodeError
        cfg = tiny_config(tmp_path)
        doc = json.loads(cfg.read_text())
        doc["experiment"]["seed"] = "VALUE"
        cfg.write_bytes(json.dumps(doc).encode().replace(b'"VALUE"', literal))
        out = tmp_path / "x"
        result = runner.invoke(main, ["run", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert len(result.output.strip().splitlines()) == 1
        assert str(cfg) in result.output
        assert not out.exists()

    def test_budget_exhaustion_is_input_error(self, runner, tmp_path):
        cfg = tiny_config(tmp_path)
        doc = json.loads(cfg.read_text())
        doc["experiment"]["reg_max_iters"] = 3
        cfg.write_text(json.dumps(doc))
        result = runner.invoke(main, ["run", "--config", str(cfg), "--out",
                                      str(tmp_path / "x")])
        assert result.exit_code == 2
        assert len(result.output.strip().splitlines()) == 1
        assert "needs 80 iterations, over reg_max_iters 3" in result.output

    def test_paper_preset_greg2_over_budget_exits_2(self, runner, tmp_path):
        cfg = CONFIG_DIR / "greg2_desk.json"
        result = runner.invoke(main, ["run", "--config", str(cfg), "--preset", "paper",
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 2
        assert len(result.output.strip().splitlines()) == 1
        assert "needs 1005000 iterations, over reg_max_iters 500000" in result.output


class TestReport:
    def _run(self, runner, tmp_path, method="greg2"):
        cfg = tiny_config(tmp_path, method=method)
        out = tmp_path / "runout"
        result = runner.invoke(main, ["run", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 0, result.output
        return out

    def test_series_long_format(self, runner, tmp_path):
        out = self._run(runner, tmp_path)
        result = runner.invoke(main, ["report", str(out)])
        assert result.exit_code == 0, result.output
        lines = (out / "report_series.csv").read_text().strip().splitlines()
        assert lines[0] == "iter,layer,metric,value"
        metrics = {ln.split(",")[2] for ln in lines[1:]}
        assert {"lambda", "train_loss", "val_acc", "dispersion"} <= metrics
        assert (out / "report_snapshots.csv").exists()

    def test_snapshot_export_picks_three_epochs(self, runner, tmp_path):
        out = self._run(runner, tmp_path)
        runner.invoke(main, ["report", str(out)])
        lines = (out / "report_snapshots.csv").read_text().strip().splitlines()
        iters = {int(ln.split(",")[0]) for ln in lines[1:]}
        assert len(iters) in (1, 2, 3)

    def test_empty_record_warns_exit_zero(self, runner, tmp_path):
        out = tmp_path / "empty"
        out.mkdir()
        (out / "record.csv").write_text("iter,phase,lambda,train_loss,val_acc\n")
        result = runner.invoke(main, ["report", str(out)])
        assert result.exit_code == 0
        assert "warning" in result.output
        assert (out / "report_series.csv").read_text().startswith("iter,layer")

    RECORD = "iter,phase,lambda,train_loss,val_acc,disp_l0\n0,reg,0.0,0.5,0.75,0.1\n"
    SNAPSHOTS = "iter,layer,group,value\n0,0,0,1.0\n5,0,0,0.5\n"

    @pytest.mark.parametrize("name, text", [
        ("record.csv", "phase,lambda,train_loss,val_acc\nreg,0.0,0.5,0.75\n"),
        ("record.csv", "iter,phase,lambda,train_loss,val_acc\n0,reg,0.0\n"),
        ("norm_snapshots.csv", "iter,layer,group,value\nx,0,0,1.0\n"),
        ("norm_snapshots.csv", ""),
        ("record.csv", b"iter,phase\xff\xfe\n"),
    ], ids=["no-iter-column", "short-row", "non-integer-iter", "empty-snapshots",
            "not-utf8"])
    def test_malformed_input_exits_2_writing_nothing(self, runner, tmp_path, name, text):
        run = tmp_path / "run"
        run.mkdir()
        (run / "record.csv").write_text(self.RECORD)
        (run / "norm_snapshots.csv").write_text(self.SNAPSHOTS)
        bad = run / name
        bad.write_bytes(text if isinstance(text, bytes) else text.encode())
        out = tmp_path / "report"
        result = runner.invoke(main, ["report", str(run), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert result.output.count("\n") == 1
        assert str(bad) in result.output
        assert not out.exists()

    def test_missing_record_is_input_error(self, runner, tmp_path):
        out = tmp_path / "nothing"
        out.mkdir()
        result = runner.invoke(main, ["report", str(out)])
        assert result.exit_code == 2
