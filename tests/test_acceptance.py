"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `[PASS]`/`[FAIL]` line (run with ``pytest -s`` to see
them live) and also asserts, so the suite fails loudly when a criterion
does not hold. Pinned configs live in ``configs/``.
"""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np
from scipy.stats import spearmanr

from conftest import mlp_specs, small_conv_net
from growreg.config import load_config
from growreg.groups import Mask, format_pruning_plan, parse_pruning_plan
from growreg.harness import compare_schedules, run_method, track_separation
from growreg.netcore import (
    LayerSpec,
    Network,
    OptimState,
    forward,
    loss_and_grads,
    sgd_step,
)
from growreg.quadratic import (
    QuadraticModel,
    diagonal_ratio,
    gd_minimize_quadratic,
    perturbed_minimum,
    random_psd_model,
    two_d_ratios,
    two_d_ratios_exact,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def check(num, name, ok, detail, t0, budget_s):
    elapsed = time.time() - t0
    status = "PASS" if ok and elapsed < budget_s else "FAIL"
    line = (f"[{status}] criterion {num:>2}: {name}: {detail} "
            f"({elapsed:.1f}s / budget {budget_s:.0f}s)")
    print(line)
    assert ok, line
    assert elapsed < budget_s, line


def test_c01_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        model = random_psd_model(rng, int(rng.integers(2, 21)), 0.1, 5.0)
        for delta in (0.01, 0.1):
            closed = perturbed_minimum(model, delta)
            descent = gd_minimize_quadratic(
                model, delta, step=1.0 / (model.eigenvalues[-1] + delta), tol=1e-12
            )
            worst = max(worst, float(np.max(np.abs(closed - descent))))
    check(1, "closed form vs descent oracle", worst < 1e-8,
          f"max inf-norm residual {worst:.2e} < 1e-8 over 50 cases x 2 bumps",
          t0, 30)


def test_c02_diagonal_ratio_properties():
    t0 = time.time()
    rng = np.random.default_rng(7)
    h = rng.uniform(0.0, 10.0, size=10_000)
    d = rng.uniform(1e-6, 10.0, size=10_000)
    ratios = np.array([diagonal_ratio(hi, di) for hi, di in zip(h, d)])
    in_range = bool(np.all((ratios >= 0.0) & (ratios < 1.0)))

    h2 = h + rng.uniform(1e-6, 5.0, size=10_000)
    mono_h = all(
        diagonal_ratio(hb, di) > diagonal_ratio(ha, di)
        for ha, hb, di in zip(h[:10_000], h2, d)
        if ha > 0 or hb > 0
    )
    d2 = d + rng.uniform(1e-6, 5.0, size=10_000)
    hpos = rng.uniform(1e-3, 10.0, size=10_000)
    anti_d = all(
        diagonal_ratio(hi, da) > diagonal_ratio(hi, db)
        for hi, da, db in zip(hpos, d, d2)
    )
    exact = (
        diagonal_ratio(0.0, 0.5) == 0.0
        and abs(diagonal_ratio(1.0, 1.0) - 0.5) < 1e-15
        and abs(diagonal_ratio(3.0, 1.0) - 0.75) < 1e-15
    )
    ok = in_range and mono_h and anti_d and exact
    check(2, "diagonal shrink-ratio suite", ok,
          f"range ok={in_range}, monotone in curvature={mono_h}, "
          f"anti-monotone in bump={anti_d}, exact values={exact}",
          t0, 5)


def test_c03_coupled_pair_consistency():
    t0 = time.time()
    rng = np.random.default_rng(8)
    max_reduction_err = 0.0
    for _ in range(200):
        h11, h22 = rng.uniform(0.05, 5.0, size=2)
        delta = rng.uniform(1e-4, 0.5)
        model = QuadraticModel(np.diag([h11, h22]), np.ones(2))
        r1, r2 = two_d_ratios(model, delta)
        max_reduction_err = max(
            max_reduction_err,
            abs(r1 - diagonal_ratio(h11, delta)),
            abs(r2 - diagonal_ratio(h22, delta)),
        )
    reduction_ok = max_reduction_err < 1e-12

    ordering_ok = True
    for _ in range(10_000):
        h11, h22 = rng.uniform(0.05, 5.0, size=2)
        h12 = rng.uniform(-1.0, 1.0) * np.sqrt(h11 * h22) * 0.95
        model = QuadraticModel(np.array([[h11, h12], [h12, h22]]), np.ones(2))
        r1, r2 = two_d_ratios(model, rng.uniform(1e-4, 0.2))
        if (r1 > r2) != (h11 > h22):
            ordering_ok = False
            break

    model = QuadraticModel(np.array([[3.0, 1.0], [1.0, 2.0]]), np.ones(2))

    def gap(delta):
        a = two_d_ratios(model, delta)
        e = two_d_ratios_exact(model, delta)
        return max(abs(a[0] - e[0]), abs(a[1] - e[1]))

    g3, g4 = gap(1e-3), gap(1e-4)
    gap_ok = (g4 < 10 * g3) and (g4 < g3) and (g3 < 10 * g4)
    ok = reduction_ok and ordering_ok and gap_ok
    check(3, "coupled-pair ratio consistency", ok,
          f"uncoupled reduction err {max_reduction_err:.1e} < 1e-12, "
          f"curvature ordering on 1e4 cases={ordering_ok}, "
          f"approx gap shrinks with bump ({g3:.2e} -> {g4:.2e})",
          t0, 5)


def test_c04_gradient_correctness():
    t0 = time.time()
    rng = np.random.default_rng(9)
    worst = 0.0
    nets = [
        (Network.initialize(mlp_specs([7, 5], classes=3), (4,), 3, seed=21),
         rng.standard_normal((6, 4)), rng.integers(0, 3, 6)),
        (small_conv_net(seed=22),
         rng.standard_normal((4, 2, 9, 9)), rng.integers(0, 3, 4)),
    ]
    for net, x, y in nets:
        _, grads = loss_and_grads(net, x, y)
        for _ in range(20):
            l = int(rng.integers(0, len(net.layers)))
            w = net.weights[l]
            idx = tuple(int(rng.integers(0, s)) for s in w.shape)
            orig = w[idx]
            eps = 1e-5
            w[idx] = orig + eps
            lp, _ = loss_and_grads(net, x, y)
            w[idx] = orig - eps
            lm, _ = loss_and_grads(net, x, y)
            w[idx] = orig
            numeric = (lp - lm) / (2 * eps)
            analytic = grads.weights[l][idx]
            worst = max(worst, abs(numeric - analytic)
                        / max(abs(numeric), abs(analytic), 1e-8))
    check(4, "analytic vs central-difference gradients", worst < 1e-5,
          f"worst relative error {worst:.2e} < 1e-5 across dense and conv nets",
          t0, 10)


def test_c05_equilibrium_residual():
    t0 = time.time()
    rng = np.random.default_rng(10)
    x = rng.standard_normal((64, 4))
    y = rng.integers(0, 3, 64)
    net = Network.initialize(
        (LayerSpec("dense", 3, activation="none", prunable=False),), (4,), 3, seed=23
    )
    lam = 0.1
    opt = OptimState.for_network(net, 0.2, momentum=0.9, base_decay=lam)
    residual = np.inf
    for step in range(60_000):
        loss, grads = loss_and_grads(net, x, y)
        sgd_step(net, grads, opt, np.full(net.flat_w.size, lam))
        if step % 200 == 0:
            residual = max(
                float(np.max(np.abs(lam * net.weights[0] + grads.weights[0]))),
                float(np.max(np.abs(grads.biases[0]))),
            )
            if residual < 1e-6:
                break
    check(5, "fixed-penalty training equilibrium", residual < 1e-6,
          f"inf-norm of (lambda w + dL/dw) = {residual:.2e} < 1e-6",
          t0, 30)


def test_c06_magnitude_suppression():
    t0 = time.time()
    exp = load_config(CONFIG_DIR / "greg1_desk.json")
    rec = run_method(exp)
    s = rec.summary
    ratio = s["suppression_ratio"]
    drop = s["pre_prune_acc"] - s["post_prune_acc"]
    ok = ratio < 1e-3 and abs(drop) < 0.005
    check(6, "ramp suppresses prune-set magnitudes", ok,
          f"max pruned |w| / mean kept-group |w| = {ratio:.2e} < 1e-3, "
          f"prune accuracy change {100 * drop:+.2f}pt within 0.5pt",
          t0, 300)


def test_c07_schedule_comparison_direction():
    t0 = time.time()
    exp = load_config(CONFIG_DIR / "compare_desk.json")
    result = compare_schedules(exp, n_seeds=5, kind="l1")
    g_mean = result.aggregates["greg1"][0]
    o_mean = result.aggregates["oneshot"][0]
    hashes = {}
    for row in result.per_seed:
        hashes.setdefault(row["seed"], set()).add(row["pruned_hash"])
    same_sets = all(len(h) == 1 for h in hashes.values())
    ok = (g_mean >= o_mean) and same_sets
    check(7, "ramped schedule beats one-shot on shared L1 sets", ok,
          f"mean final acc {g_mean:.4f} >= {o_mean:.4f} over 5 seeds, "
          f"identical pruned sets per seed={same_sets}",
          t0, 900)


def test_c08_random_subset_direction():
    t0 = time.time()
    exp = load_config(CONFIG_DIR / "compare_desk.json")
    result = compare_schedules(exp, n_seeds=5, kind="random")
    g_mean = result.aggregates["greg1"][0]
    o_mean = result.aggregates["oneshot"][0]
    hashes = {}
    for row in result.per_seed:
        hashes.setdefault(row["seed"], set()).add(row["pruned_hash"])
    same_sets = all(len(h) == 1 for h in hashes.values())
    ok = (g_mean >= o_mean) and same_sets
    check(8, "ramped schedule beats one-shot on shared random sets", ok,
          f"mean final acc {g_mean:.4f} >= {o_mean:.4f} over 5 seeds, "
          f"shared random mask per seed={same_sets}",
          t0, 900)


def test_c09_weight_separation():
    t0 = time.time()
    exp = load_config(CONFIG_DIR / "separation_desk.json")
    plan = parse_pruning_plan(exp.plan, len(exp.layers), exp.granularity)
    prunable = [
        l for l, spec in enumerate(exp.layers)
        if spec.prunable and l not in plan.never_prune
    ]

    def rhos(record):
        out = {}
        for l in prunable:
            series = [row["dispersions"][l] for row in record.rows]
            out[l] = float(spearmanr(np.arange(len(series)), series).statistic)
        return out

    ramp, control = track_separation(exp)
    ramp_rhos = rhos(ramp)
    control_rhos = rhos(control)
    ramp_ok = all(r > 0.9 for r in ramp_rhos.values())
    control_ok = all(abs(r) < 0.5 for r in control_rhos.values())
    check(9, "dispersion grows under the ramp, flat without it",
          ramp_ok and control_ok,
          f"ramp rho {min(ramp_rhos.values()):.3f} > 0.9; "
          f"zero-bump control |rho| {max(abs(r) for r in control_rhos.values()):.3f} < 0.5",
          t0, 600)


def test_c10_structured_prune_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(30)
    net = small_conv_net(seed=31)
    worst = 0.0
    from growreg.groups import apply_hard_prune

    for _ in range(20):
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
        ref = net.clone()
        for l, fl in enumerate(mask.flags):
            dead = np.flatnonzero(fl == 0)
            if dead.size == 0:
                continue
            if ref.layers[l].kind == "dense":
                ref.weights[l][:, dead] = 0.0
            else:
                ref.weights[l][dead] = 0.0
            ref.biases[l][dead] = 0.0
        x = rng.standard_normal((100, 2, 9, 9))
        diff = float(np.max(np.abs(forward(pruned, x)[0] - forward(ref, x)[0])))
        worst = max(worst, diff)
    check(10, "shrunk forward equals zero-masked forward", worst < 1e-10,
          f"max |difference| {worst:.2e} < 1e-10 over 20 masks x 100 inputs",
          t0, 10)


def test_c11_plan_parser_bit_exactness():
    t0 = time.time()
    cases = [
        ("[0, 0.75, 0.75, 0.32]", 4, (0.0, 0.75, 0.75, 0.32)),
        ("[0:0, 1-15:0.70]", 16, (0.0,) + (0.70,) * 15),
        ("[0, 0.50, 0.60, 0.40, 0]", 5, (0.0, 0.50, 0.60, 0.40, 0.0)),
    ]
    ok = True
    for text, n, expected in cases:
        plan = parse_pruning_plan(text, n)
        roundtrip = parse_pruning_plan(format_pruning_plan(plan), n)
        ok = ok and plan.ratios == expected and roundtrip == plan
    check(11, "plan strings parse literally and round-trip", ok,
          f"{len(cases)} reference strings exact", t0, 1)


def test_c12_record_determinism():
    t0 = time.time()
    exp = load_config(CONFIG_DIR / "greg2_desk.json")
    exp = replace(exp, metric_every=100)
    a = run_method(exp)
    b = run_method(exp)
    ok = (
        a.record_csv() == b.record_csv()
        and a.summary_csv() == b.summary_csv()
        and a.snapshots_csv() == b.snapshots_csv()
    )
    check(12, "identical config and seed reproduce identical records", ok,
          f"record/summary/snapshot CSVs byte-identical "
          f"({len(a.rows)} rows, {len(a.snapshots)} snapshots)",
          t0, 600)
