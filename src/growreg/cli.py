"""Command-line front end.

Exit codes: 0 success, 2 invalid input (configs, flags, matrices), 3 a
valid run that failed while executing, 4 a verification command whose
residuals exceeded tolerance. Output directories default under the
``GROWREG_OUT_ROOT`` environment variable (falling back to ``./runs``) and
receive a copy of the config they were produced from.
"""

from __future__ import annotations

import functools
import os
import shutil
import sys
from dataclasses import replace

import click
import numpy as np

from . import quadratic
from .checkpoint import load_checkpoint, save_checkpoint
from .config import PRESETS, load_config
from .errors import ConfigError, GrowRegError, InputError
from .harness import build_dataset, compare_schedules, csv_text, pretrain, run_method
from .netcore import accuracy

EXIT_INPUT = 2
EXIT_RUNTIME = 3
EXIT_TOLERANCE = 4


def guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except InputError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_INPUT)
        except GrowRegError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_RUNTIME)

    return wrapper


def _out_dir(out, default_name):
    root = os.environ.get("GROWREG_OUT_ROOT", "runs")
    path = out if out else os.path.join(root, default_name)
    os.makedirs(path, exist_ok=True)
    return path


def _write(out_dir, name, text):
    """Write one artifact file into ``out_dir``; returns its path."""
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _load_experiment(config, seed, preset, k_update=None):
    exp = load_config(config, preset)
    if seed is not None:
        exp = replace(exp, seed=seed)
    if k_update is not None:
        exp = replace(exp, reg=replace(exp.reg, k_update=k_update))
    return exp


@click.group()
def main():
    """Growing-L2 pruning lab: oracles, training runs, schedule comparisons."""


# -- oracle -------------------------------------------------------------------


def _load_text(path, ndmin):
    try:
        return np.loadtxt(path, ndmin=ndmin)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


@main.command()
@click.option("--dim", default=10, show_default=True, help="Max Hessian dimension.")
@click.option("--cases", default=50, show_default=True, help="Random cases to run.")
@click.option("--seed", default=0, show_default=True)
@click.option("--delta-lambda", "deltas", multiple=True, type=float,
              help="Penalty bumps to test, each > 0 (default: 0.01 and 0.1).")
@click.option("--tol", default=1e-8, show_default=True,
              help="Max allowed closed-form vs descent residual.")
@click.option("--hessian-file", type=click.Path(), default=None,
              help="Plain-text row-major matrix to use instead of random cases.")
@click.option("--wstar-file", type=click.Path(), default=None,
              help="Converged weights for --hessian-file (default: ones).")
@click.option("--exact-vs-approx", is_flag=True,
              help="For 2x2 cases, tabulate approximate vs exact ratios.")
@click.option("--out", type=click.Path(), default=None)
@guarded
def oracle(dim, cases, seed, deltas, tol, hessian_file, wstar_file, exact_vs_approx, out):
    """Check the closed-form equilibrium shift against the descent oracle."""
    if not 0 < tol < np.inf:
        raise ConfigError(f"--tol must be finite and > 0, got {tol!r}")
    if seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")
    for d in deltas:
        if not 0 < d < np.inf:
            raise ConfigError(f"--delta-lambda: delta_lambda must be finite and > 0, got {d!r}")
    if wstar_file and not hessian_file:
        raise ConfigError("--wstar-file needs --hessian-file")
    for flag, val, low in (("--dim", dim, 2), ("--cases", cases, 1)):
        if not hessian_file and val < low:
            raise ConfigError(f"{flag} must be >= {low} for random cases, got {val}")
    deltas = list(deltas) or [0.01, 0.1]
    rng = np.random.default_rng(seed)

    models = []
    if hessian_file:
        h = _load_text(hessian_file, 2)
        if h.shape[0] != h.shape[1]:
            raise ConfigError(f"{hessian_file}: matrix is {h.shape}, expected square")
        if exact_vs_approx and len(h) != 2:
            raise ConfigError("--exact-vs-approx needs a 2x2 Hessian")
        w = _load_text(wstar_file, 1) if wstar_file else np.ones(len(h))
        if exact_vs_approx and np.any(w == 0):
            raise ConfigError(f"--exact-vs-approx needs a w* without zeros, "
                              f"{wstar_file} holds {w.tolist()}")
        models.append(quadratic.QuadraticModel(hessian=h, w_star=w))
    else:
        for _ in range(cases):
            d = 2 if exact_vs_approx else int(rng.integers(2, dim + 1))
            models.append(quadratic.random_psd_model(rng, d))
    out_dir = _out_dir(out, "oracle")

    rows = [["case", "dim", "delta_lambda", "residual_inf"]]
    worst = 0.0
    for i, model in enumerate(models):
        for delta in deltas:
            closed = quadratic.perturbed_minimum(model, delta)
            eig_max = float(model.eigenvalues[-1])
            gd = quadratic.gd_minimize_quadratic(
                model, delta, step=1.0 / (eig_max + delta), tol=1e-12
            )
            residual = float(np.max(np.abs(closed - gd)))
            worst = max(worst, residual)
            rows.append([i, model.dim, delta, residual])
    report_path = _write(out_dir, "oracle_report.csv", csv_text(rows))

    if exact_vs_approx:
        rows = [["case", "delta_lambda", "r1_approx", "r2_approx", "r1_exact",
                 "r2_exact", "gap1", "gap2"]]
        for i, model in enumerate(models):
            for delta in deltas:
                a1, a2 = quadratic.two_d_ratios(model, delta)
                e1, e2 = quadratic.two_d_ratios_exact(model, delta)
                rows.append([i, delta, a1, a2, e1, e2, abs(a1 - e1), abs(a2 - e2)])
        _write(out_dir, "exact_vs_approx.csv", csv_text(rows))

    click.echo(f"oracle: {len(models)} case(s), max residual {worst:.3e} "
               f"(tol {tol:g}), report {report_path}")
    if worst >= tol:
        click.echo("error: residual exceeds tolerance", err=True)
        sys.exit(EXIT_TOLERANCE)


# -- training pipelines ---------------------------------------------------------


def _copy_config(config, out_dir):
    shutil.copy(config, os.path.join(out_dir, "config.json"))


@main.command("pretrain")
@click.option("--config", required=True, type=click.Path(exists=True))
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--preset", type=click.Choice(sorted(PRESETS)), default=None)
@click.option("--out", type=click.Path(), default=None)
@guarded
def pretrain_cmd(config, seed, preset, out):
    """Train and checkpoint a baseline network."""
    exp = _load_experiment(config, seed, preset)
    out_dir = _out_dir(out, f"pretrain_seed{exp.seed}")
    _copy_config(config, out_dir)
    data = build_dataset(exp)
    net = pretrain(exp, data)
    val_acc = accuracy(net, data.val_x, data.val_y)
    ckpt = os.path.join(out_dir, "baseline.ckpt")
    save_checkpoint(ckpt, net)
    click.echo(f"pretrain: seed={exp.seed} val_acc={val_acc:.4f} checkpoint={ckpt}")


@main.command("run")
@click.option("--config", required=True, type=click.Path(exists=True))
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--preset", type=click.Choice(sorted(PRESETS)), default=None)
@click.option("--k-update", type=int, default=None,
              help="Override the penalty update interval (sensitivity sweeps).")
@click.option("--baseline", type=click.Path(exists=True), default=None,
              help="Reuse a pretrained checkpoint instead of pretraining.")
@click.option("--out", type=click.Path(), default=None)
@guarded
def run_cmd(config, seed, preset, k_update, baseline, out):
    """Run the configured pruning pipeline and write its record."""
    exp = _load_experiment(config, seed, preset, k_update)
    out_dir = _out_dir(out, f"{exp.method}_seed{exp.seed}")
    _copy_config(config, out_dir)
    base_net = load_checkpoint(baseline)[0] if baseline else None
    record = run_method(exp, baseline=base_net)
    _write(out_dir, "record.csv", record.record_csv())
    _write(out_dir, "summary.csv", record.summary_csv())
    if record.snapshots:
        _write(out_dir, "norm_snapshots.csv", record.snapshots_csv())
    s = record.summary
    click.echo(
        f"run: method={s['method']} seed={s['seed']} sparsity={s['sparsity']:.4f} "
        f"baseline={s['baseline_acc']:.4f} pre_prune={s['pre_prune_acc']:.4f} "
        f"post_prune={s['post_prune_acc']:.4f} final={s['post_finetune_acc']:.4f}"
    )


@main.command("compare")
@click.option("--config", required=True, type=click.Path(exists=True))
@click.option("--seeds", default=3, show_default=True, help="Number of seeds.")
@click.option("--kind", type=click.Choice(["l1", "random"]), default="l1",
              show_default=True, help="Shared-set selection rule.")
@click.option("--preset", type=click.Choice(sorted(PRESETS)), default=None)
@click.option("--k-update", type=int, default=None,
              help="Override the penalty update interval (sensitivity sweeps).")
@click.option("--out", type=click.Path(), default=None)
@guarded
def compare_cmd(config, seeds, kind, preset, k_update, out):
    """Ramped-vs-one-shot comparison over seeds with matched pruned sets."""
    exp = _load_experiment(config, None, preset, k_update)
    out_dir = _out_dir(out, f"compare_{kind}" + (f"_ku{k_update}" if k_update else ""))
    _copy_config(config, out_dir)
    result = compare_schedules(exp, n_seeds=seeds, kind=kind)
    _write(out_dir, "comparison.csv", result.table_csv())
    for method, (mean, std) in result.aggregates.items():
        click.echo(f"compare[{kind}]: {method} final acc {mean:.4f} +/- {std:.4f}")


# -- report -------------------------------------------------------------------


def _read_table(path, required):
    """A CSV artifact's header and rows, checked before anything is written:
    readable UTF-8, a header holding ``required``, rows as long as it."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise ConfigError(f"{path}: empty file, expected a header row")
    header, *rows = (ln.split(",") for ln in lines)
    missing = [c for c in required if c not in header]
    if missing:
        raise ConfigError(f"{path}: header lacks {missing}")
    for i, row in enumerate(rows, 1):
        if len(row) != len(header):
            raise ConfigError(f"{path}: row {i} has {len(row)} fields, the header "
                              f"{len(header)}")
    return header, rows


@main.command("report")
@click.argument("run_dir", type=click.Path(exists=True))
@click.option("--out", type=click.Path(), default=None,
              help="Destination directory (default: the run directory).")
@guarded
def report_cmd(run_dir, out):
    """Reshape a run's record into tidy long-format plot data."""
    record_path = os.path.join(run_dir, "record.csv")
    if not os.path.exists(record_path):
        raise ConfigError(f"{run_dir}: no record.csv found")
    metrics = ["lambda", "train_loss", "val_acc"]
    header, body = _read_table(record_path, ["iter", *metrics])
    snap_path = os.path.join(run_dir, "norm_snapshots.csv")
    snaps = None
    if os.path.exists(snap_path):
        snap_header, snap_rows = _read_table(snap_path, ["iter"])
        col = snap_header.index("iter")
        try:
            iters = [int(r[col]) for r in snap_rows]
        except ValueError as exc:
            raise ConfigError(f"{snap_path}: iter column holds a non-integer ({exc})") from exc
        steps = sorted(set(iters))
        picks = {steps[0], steps[len(steps) // 2], steps[-1]} if steps else set()
        snaps = [snap_header] + [r for r, it in zip(snap_rows, iters) if it in picks]

    out_dir = out or run_dir
    os.makedirs(out_dir, exist_ok=True)
    series = [["iter", "layer", "metric", "value"]]
    for row in body:
        vals = dict(zip(header, row))
        series += [[vals["iter"], "", m, vals[m]] for m in metrics]
        series += [[vals["iter"], c[6:], "dispersion", vals[c]]
                   for c in header if c.startswith("disp_l")]
    series_path = _write(out_dir, "report_series.csv", csv_text(series))
    if not body:
        click.echo("warning: record has no checkpoint rows; empty report written",
                   err=True)
    if snaps is not None:
        _write(out_dir, "report_snapshots.csv", csv_text(snaps))
    click.echo(f"report: wrote {series_path}")


if __name__ == "__main__":
    main()
