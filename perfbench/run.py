"""Run one benchmark workload against the growreg sources of this checkout.

    python3 perfbench/run.py --workload dense_desk --seed 0 --seconds 25 --trace 0

Workloads (see ``workloads.py``): ``dense_desk``, ``conv_small``,
``compare_seeds``, ``oracle_sweep``. One process runs operations in a
closed loop, one at a time, and starts no threads of its own. A new
operation starts only while the elapsed time plus the median operation time
so far stays within ``--seconds``; there is always at least one. Every
operation's outputs are checked, and a failed check or an exception counts
the operation as failed. Before the timed loop, a few-step warm-up
operation and any verification the workload has (the full-size golden
digests of ``dense_desk`` at seed 0) run checked but untimed; they count
in ``attempted`` and ``failed``.

``--trace 0`` reports the end-to-end metrics: medians over the run's
operations of wall seconds, of CPU seconds (summed over all threads and
reaped children) and of work units per wall second (SGD steps, or
closed-form + descent pairs on ``oracle_sweep``); the median of several
cold set-ups, each in a fresh child process (interpreter start, import,
config load, dataset build); and peak RSS.
``--trace 1`` spends half the time untraced and half with the tracer
installed, and reports per-module metrics plus ``trace.overhead``.

The last stdout line is the result JSON (``correct``, ``attempted``,
``failed``, ``metrics``); the line before it is a report with the
environment, sample counts and workload-specific figures, also written to
``.bench_work/results/``. Without growreg sources under ``src/`` the run
exits 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 5


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_modules():
    """Import the benchmark modules against this checkout's growreg."""
    if not os.path.isfile(os.path.join(SRC, "growreg", "__init__.py")):
        fail(f"growreg sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import growreg
    import environment
    import tracing
    import workloads

    if not os.path.abspath(growreg.__file__).startswith(SRC + os.sep):
        fail(f"imported growreg from {growreg.__file__}, not from {SRC}")
    return growreg, environment, tracing, workloads


def cpu_seconds():
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb():
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def timing(values):
    """Best, median, sample count, and the highest of p90/p99 with ten samples beyond it."""
    out = {"min": min(values), "median": statistics.median(values), "n": len(values)}
    for q in (99, 90):
        if len(values) * (100 - q) / 100 >= 10:
            out[f"p{q}"] = statistics.quantiles(values, n=100)[q - 1]
            break
    return out


def time_setups(name, seed, workdir):
    """Wall seconds of cold set-ups, each in a fresh child process."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for i in range(SETUP_REPEATS):
        probe_dir = os.path.join(workdir, f"setup-{i}")
        os.makedirs(probe_dir)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, probe, name, str(seed), probe_dir],
                       cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return times


def attempt(operation, outcome_cls):
    """Run one operation; one that raises is a failed one."""
    try:
        return operation()
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return outcome_cls(work=0, errors=[f"{type(exc).__name__}: {exc}"])


def run_ops(workload, seconds, outcome_cls):
    """Closed loop of operations; each gets wall, CPU and its window in ns."""
    ops = []
    begin = time.perf_counter()
    while not ops or (time.perf_counter() - begin
                      + statistics.median(op["wall"] for op in ops)) <= seconds:
        c0, t0 = cpu_seconds(), time.perf_counter_ns()
        outcome = attempt(workload.run_op, outcome_cls)
        t1, c1 = time.perf_counter_ns(), cpu_seconds()
        ops.append({"wall": (t1 - t0) / 1e9, "cpu": c1 - c0, "window": (t0, t1),
                    "outcome": outcome})
    return ops


def traced_ops(growreg, tracing, workload, seconds, outcome_cls):
    """Operations under the tracer, with the trace cross-checks applied."""
    tracer = tracing.Tracer()
    tracer.install(growreg)
    try:
        ops = run_ops(workload, seconds, outcome_cls)
    finally:
        unrestored = tracer.uninstall()
    if unrestored:
        ops[-1]["outcome"].errors.append(f"trace: not restored: {unrestored}")
    if workload.sgd:
        fid, start, end, _, _ = tracer.arrays()
        for op in ops:
            w0, w1 = op["window"]
            inside = (start >= w0) & (end <= w1)
            steps = op["outcome"].work
            for span in ("netcore.loss_and_grads", tracing.BATCH_SPAN):
                calls = int((inside & (fid == tracer.names.index(span))).sum())
                if op["outcome"].errors or calls == steps:
                    continue
                op["outcome"].errors.append(
                    f"trace: {span} calls {calls} != {steps} steps from configs")
    return tracer, ops


def per_layer_metrics(tracing, workload, tracer, plain, traced):
    metrics = tracing.summarize(tracer, [op["window"] for op in traced])
    flops, im2col = workload.step_cost()
    metrics["netcore.flops_per_step"] = flops
    metrics["netcore.im2col_bytes_per_step"] = im2col
    metrics["checkpoint.bytes"] = statistics.median(
        op["outcome"].ckpt_bytes for op in traced)
    metrics["trace.overhead"] = (statistics.median(op["wall"] for op in traced)
                                 / statistics.median(op["wall"] for op in plain))
    return metrics


def unit_of(name):
    special = {
        "work_per_s": "1/s",
        "peak_rss_mb": "MB",
        "netcore.flops_per_step": "flop_computed",
        "netcore.im2col_bytes_per_step": "B_computed",
        "checkpoint.bytes": "B",
    }
    if name in special:
        return special[name]
    if name.endswith(".calls"):
        return "count"
    if name.endswith((".us_p50", ".us_p99")):
        return "us"
    if name.endswith(("_s", "_s_p50")):
        return "s"
    return "ratio"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    growreg, environment, tracing, workloads = load_modules()
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {', '.join(workloads.WORKLOADS)}")

    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(workdir)
    try:
        report, result, tracer = measure(args, growreg, tracing, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["environment"] = environment.describe()

    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(results, stem + ".json"), "w") as fh:
        json.dump({"report": report, "result": result}, fh, indent=1)
    if tracer is not None:
        tracer.write(os.path.join(results, stem + "-spans.csv.gz"))
    print(json.dumps(report))
    print(json.dumps(result))


def measure(args, growreg, tracing, workloads, workdir):
    setup_times = (time_setups(args.workload, args.seed, workdir)
                   if args.trace == 0 else [])
    cls = workloads.WORKLOADS[args.workload]
    t0 = time.perf_counter()
    workload = cls(args.seed, workdir)
    workload.setup()
    parent_setup_s = time.perf_counter() - t0
    # a checked few-step operation first, so that no timed one pays for first use
    outcome_cls = workloads.Outcome
    warm_dir = os.path.join(workdir, "warm-up")
    os.makedirs(warm_dir)
    warm = cls(args.seed, warm_dir, tiny=True)
    warm.setup()
    checked = [attempt(warm.run_op, outcome_cls)]
    warm_up_s = time.perf_counter() - t0 - parent_setup_s
    checked.append(attempt(workload.verify, outcome_cls))
    checked = [o for o in checked if o is not None]
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "parent_setup_s": parent_setup_s, "warm_up_s": warm_up_s,
              "setup_s_samples": setup_times}
    if args.trace:
        plain = run_ops(workload, args.seconds / 2, outcome_cls)
        tracer, traced = traced_ops(growreg, tracing, workload, args.seconds / 2,
                                    outcome_cls)
        ops = plain + traced
        values = per_layer_metrics(tracing, workload, tracer, plain, traced)
    else:
        tracer = None
        ops = plain = run_ops(workload, args.seconds, outcome_cls)
        values = {
            "wall_s": statistics.median(op["wall"] for op in ops),
            "cpu_s": statistics.median(op["cpu"] for op in ops),
            "work_per_s": statistics.median(op["outcome"].work / op["wall"] for op in ops),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
        }

    outcomes = [op["outcome"] for op in ops] + checked
    failed = [o for o in outcomes if o.errors]
    work_name = "sgd_steps_per_s" if workload.sgd else "oracle_solves_per_s"
    report.update({
        "ops": len(ops),
        "untimed": [{"work": o.work, "errors": o.errors} for o in checked],
        "wall_s": timing([op["wall"] for op in plain]),
        "cpu_s": timing([op["cpu"] for op in plain]),
        work_name: timing([op["outcome"].work / op["wall"] for op in plain]),
        "error_rate": len(failed) / len(outcomes),
        "errors": [e for o in failed for e in o.errors][:20],
    })
    accs = [o.final_acc for o in outcomes if o.final_acc is not None]
    if accs:
        report["final_acc"] = statistics.fmean(accs)
    residuals = [o.residual for o in outcomes if o.residual is not None]
    if residuals:
        report["oracle_residual_max"] = max(residuals)

    result = {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in values.items()},
    }
    return report, result, tracer


if __name__ == "__main__":
    main()
