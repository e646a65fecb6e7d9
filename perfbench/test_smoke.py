"""Smoke test of the benchmark at few-step sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that each workload emits every metric BENCHMARK.json names, with its
unit, in both modes; that bad invocations exit non-zero without a result;
and that a wrong expected digest fails the operation that checks it.
"""

import functools
import json
import os
import shutil
import subprocess
import sys

import pytest

import run

growreg, _, _, workloads = run.load_modules()
ROOT = run.ROOT
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


@pytest.fixture
def tiny(monkeypatch):
    """Every workload at few-step size, with one cold set-up per run."""
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    for name, cls in list(workloads.WORKLOADS.items()):
        monkeypatch.setitem(workloads.WORKLOADS, name, functools.partial(cls, tiny=True))


def _result(capsys, argv):
    run.main(argv)
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_with_unit(tiny, capsys, workload, trace):
    modules = {n: dict(vars(m)) for n, m in sys.modules.items()
               if n.startswith("growreg")}
    batches = vars(growreg.datasets.Dataset)["batches"]
    report, result = _result(capsys, ["--workload", workload, "--seed", "1",
                                      "--seconds", "0.01", "--trace", str(trace)])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, report["errors"]
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "blas_threads" in report["environment"]
    # the tracer put every growreg attribute back
    for name, attrs in modules.items():
        assert all(vars(sys.modules[name])[k] is v for k, v in attrs.items()), name
    assert vars(growreg.datasets.Dataset)["batches"] is batches


def test_unknown_workload_exits_nonzero_with_one_line():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nope", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert len(proc.stderr.strip().splitlines()) == 1


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "dense_desk", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_wrong_expected_digest_fails_the_operation(tmp_path):
    wl = workloads.DenseDesk(0, str(tmp_path), tiny=True)
    wl.setup()
    [op] = run.run_ops(wl, 0.0, workloads.Outcome)
    assert op["outcome"].errors == []

    wl.expected_digests = {"greg1": "0" * 16, "greg2": "0" * 16}
    [op] = run.run_ops(wl, 0.0, workloads.Outcome)
    errors = op["outcome"].errors
    assert len(errors) == 2 and all("golden" in e for e in errors)
