"""The benchmark's four workloads and the output checks on each operation.

Each workload makes its inputs from the benchmark seed in :meth:`setup`
(config load, dataset build or generation) and then runs one operation per
:meth:`run_op` call. An operation returns an :class:`Outcome` whose
``errors`` list is empty only if every output check passed. Growreg
functions are always looked up through their module at call time, so the
tracer's wrappers see every call.

Seeds shift the experiment seed and the dataset seed of the pinned configs
by the benchmark seed. Operations on the pinned desk configs run them at
1/20 of their steps (see :func:`scaled`), so that a run holds many short
operations. At seed 0 ``dense_desk`` also checks its scaled flow against
pinned digests on every operation, and :meth:`Workload.verify` runs the
full-size README flow once against the golden digests of the pinned configs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

import growreg.checkpoint
import growreg.config
import growreg.groups
import growreg.harness
import growreg.quadratic

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(ROOT, "configs")

# sha256(record_csv + summary_csv + snapshots_csv)[:16] of the pinned desk
# configs at seed 0, at full size and at the benchmark's 1/20 scale
GOLDEN_DIGESTS = {"greg1": "60b1fc5b7521c34c", "greg2": "b36d9cd553ca4b7e"}
SCALED_DIGESTS = {"greg1": "25eaf36f7c7ab32d", "greg2": "37fae78526b52a5c"}
SCALE = 20
ORACLE_TOL = 1e-8
ORACLE_DELTAS = (0.01, 0.1)


@dataclass
class Outcome:
    """What one operation did: work units, check failures, result figures."""

    work: int
    errors: list = field(default_factory=list)
    final_acc: float = None
    residual: float = None
    ckpt_bytes: int = 0


def digest(record) -> str:
    text = record.record_csv() + record.summary_csv() + record.snapshots_csv()
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def seeded(exp, seed):
    """Shift the experiment and dataset seeds by the benchmark seed."""
    dataset = dict(exp.dataset)
    dataset["seed"] = dataset.get("seed", 0) + seed
    return replace(exp, seed=exp.seed + seed, dataset=dataset)


def scaled(exp, factor):
    """The same pipeline with 1/factor of the steps.

    Phase lengths, LR milestones, stabilization and the metric interval are
    divided by ``factor``; ramp increments are multiplied by it, so the ramp
    reaches the same ceilings in 1/factor of the ticks.
    """
    def phase(p):
        return replace(p, steps=p.steps // factor,
                       milestones=tuple((s // factor, lr) for s, lr in p.milestones))

    reg = replace(exp.reg, delta_lambda=exp.reg.delta_lambda * factor,
                  post_pick_delta_lambda=exp.reg.post_pick_delta_lambda * factor,
                  k_stabilize=exp.reg.k_stabilize // factor)
    return replace(exp, reg=reg, pretrain=phase(exp.pretrain),
                   finetune=phase(exp.finetune),
                   metric_every=max(1, exp.metric_every // factor))


def shrunk(exp):
    """A few-step version of a config, for smoke tests."""
    reg = replace(exp.reg, delta_lambda=0.25, tau=1.0, tau_prime=0.3, k_update=1,
                  k_stabilize=3, post_pick_delta_lambda=0.25)
    return replace(exp, reg=reg, pretrain=replace(exp.pretrain, steps=20),
                   finetune=replace(exp.finetune, steps=10), metric_every=5)


def expected_sparsity(exp) -> float:
    """Weight fraction a filter-granularity prune of ``exp.plan`` removes.

    Walks the layer shapes: each layer loses floor(r * units) output units
    and its consumer loses the matching inputs (channels, or flattened
    blocks after a conv layer).
    """
    plan = growreg.groups.parse_pruning_plan(exp.plan, len(exp.layers), exp.granularity)
    total = kept = 0
    shape = tuple(exp.input_shape)
    kept_in = shape[0]  # surviving input channels (conv) or features (dense)
    for spec, r in zip(exp.layers, plan.ratios):
        units = spec.units - math.floor(r * spec.units)
        if spec.kind == "dense":
            fan_in = int(np.prod(shape))
            total += fan_in * spec.units
            kept_fan_in = kept_in * int(np.prod(shape[1:])) if len(shape) == 3 else kept_in
            kept += kept_fan_in * units
            shape = (spec.units,)
        else:
            c, h, w = shape
            kh, kw = spec.kernel
            total += spec.units * c * kh * kw
            kept += units * kept_in * kh * kw
            shape = (spec.units, h - kh + 1, w - kw + 1)
        kept_in = units
    return 1.0 - kept / total


def step_cost(exp, batch):
    """Computed (not measured) matmul FLOPs and im2col bytes of one SGD step.

    Counts forward, weight-gradient and input-gradient products as the
    network implements them (the layer-0 input gradient included), and the
    float64 im2col matrices built by the conv forward and by the
    full-correlation conv input gradient.
    """
    flops = im2col = 0
    shape = tuple(exp.input_shape)
    for spec in exp.layers:
        if spec.kind == "dense":
            flops += 3 * 2 * batch * int(np.prod(shape)) * spec.units
            shape = (spec.units,)
        else:
            c, h, w = shape
            kh, kw = spec.kernel
            oh, ow = h - kh + 1, w - kw + 1
            flops += 2 * 2 * batch * oh * ow * spec.units * c * kh * kw
            flops += 2 * batch * h * w * c * spec.units * kh * kw
            im2col += 8 * batch * (oh * ow * c + h * w * spec.units) * kh * kw
            shape = (spec.units, oh, ow)
    return flops, im2col


def _check_run(summary, exp, ticks, errors, label):
    if summary["reg_ticks"] != ticks:
        errors.append(f"{label}: reg_ticks {summary['reg_ticks']} != schedule length {ticks}")
    want = expected_sparsity(exp)
    if abs(summary["sparsity"] - want) > 1e-12:
        errors.append(f"{label}: sparsity {summary['sparsity']!r} != plan's {want!r}")
    _check_accs(summary, errors, label)


def _check_accs(summary, errors, label):
    for key, value in summary.items():
        if key.endswith("_acc") and not (math.isfinite(value) and 0.0 <= value <= 1.0):
            errors.append(f"{label}: {key} {value!r} outside [0, 1]")


class Workload:
    name = None
    why = None
    sgd = True  # work units are SGD steps (else closed-form + descent pairs)

    def __init__(self, seed, workdir, tiny=False):
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny

    def prepare(self, exp):
        exp = seeded(exp, self.seed)
        return shrunk(exp) if self.tiny else scaled(exp, SCALE)

    def load(self, path):
        return self.prepare(growreg.config.load_config(path))

    def setup(self):
        """Config load and dataset build or generation, untimed by run_op."""

    def verify(self):
        """One checked operation before the timed loop, untimed; None if none."""
        return None

    def step_cost(self):
        return 0, 0

    def run_op(self) -> Outcome:
        raise NotImplementedError


class DenseDesk(Workload):
    """README flow: pretrain, checkpoint round trip, greg1 and greg2."""

    name = "dense_desk"
    why = ("README flow on the greg1/greg2 desk configs at 1/20 steps: pretrain, "
           "checkpoint round trip, greg1 and greg2; overhead-bound dense steps, "
           "both state machines, digests at seed 0")
    paths = (os.path.join(CONFIGS, "greg1_desk.json"),
             os.path.join(CONFIGS, "greg2_desk.json"))

    def setup(self):
        self.exps = [self.load(p) for p in self.paths]
        growreg.harness.build_dataset(self.exps[0])
        self.ticks = [growreg.harness.schedule_length(e) for e in self.exps]
        self.expected_digests = (
            dict(SCALED_DIGESTS) if self.seed == 0 and not self.tiny else None)

    def step_cost(self):
        return step_cost(self.exps[0], self.exps[0].pretrain.batch_size)

    def verify(self):
        # the full-size pinned configs against their golden digests
        if self.seed != 0 or self.tiny:
            return None
        exps = [growreg.config.load_config(p) for p in self.paths]
        ticks = [growreg.harness.schedule_length(e) for e in exps]
        return self.flow(exps, ticks, GOLDEN_DIGESTS)

    def run_op(self):
        exps = [self.load(p) for p in self.paths]
        return self.flow(exps, self.ticks, self.expected_digests)

    def flow(self, exps, all_ticks, expected_digests):
        harness, checkpoint = growreg.harness, growreg.checkpoint
        data = harness.build_dataset(exps[0])
        baseline = harness.pretrain(exps[0], data)
        path = os.path.join(self.workdir, "baseline.ckpt")
        saved = checkpoint.save_checkpoint(path, baseline)
        net, _, _ = checkpoint.load_checkpoint(path)
        out = Outcome(work=exps[0].pretrain.steps, ckpt_bytes=len(saved))
        if checkpoint.checkpoint_bytes(net) != saved:
            out.errors.append("checkpoint: reloaded baseline re-serializes differently")
        accs = []
        for exp, ticks in zip(exps, all_ticks):
            rec = harness.run_method(exp, baseline=net, data=data)
            s = rec.summary
            out.work += s["reg_ticks"] + exp.finetune.steps
            accs.append(s["post_finetune_acc"])
            _check_run(s, exp, ticks, out.errors, exp.method)
            if expected_digests is not None:
                got, want = digest(rec), expected_digests[exp.method]
                if got != want:
                    out.errors.append(f"{exp.method}: digest {got} != golden {want}")
        out.final_acc = float(np.mean(accs))
        return out


class ConvSmall(Workload):
    """Conv net on generated 1x12x12 images in 10 classes, read from CSV."""

    name = "conv_small"
    why = ("conv16-conv32-dense64-dense10 greg1 on generated 12x12 images read "
           "from CSV; im2col- and BLAS-bound steps, conv structured pruning, CSV "
           "ingest")
    n_train, n_val, classes, side = 600, 200, 10, 12

    def _write_inputs(self):
        rng = np.random.default_rng([self.seed, 77])
        templates = rng.standard_normal((self.classes, self.side, self.side))
        n = self.n_train + self.n_val
        y = rng.integers(0, self.classes, size=n)
        x = 0.6 * templates[y] + rng.standard_normal((n, self.side, self.side))
        csv_path = os.path.join(self.workdir, "images.csv")
        np.savetxt(csv_path, np.column_stack([x.reshape(n, -1), y]),
                   delimiter=",", fmt=["%.17g"] * self.side ** 2 + ["%d"])
        doc = {
            "schema_version": 1,
            "experiment": {
                "net": {
                    "input_shape": [1, self.side, self.side],
                    "classes": self.classes,
                    "layers": [
                        {"kind": "conv2d", "units": 16, "kernel": [3, 3]},
                        {"kind": "conv2d", "units": 32, "kernel": [3, 3]},
                        {"kind": "dense", "units": 64},
                        {"kind": "dense", "units": self.classes,
                         "activation": "none", "prunable": False},
                    ],
                },
                "dataset": {"kind": "csv", "path": csv_path, "n_val": self.n_val,
                            "seed": self.seed},
                "plan": "[0, 0.5, 0.5, 0]",
                "method": "greg1",
                "reg": {"delta_lambda": 0.1, "tau": 1.0, "k_update": 1,
                        "k_stabilize": 9, "base_decay": 5e-4},
                "pretrain": {"steps": 30, "batch_size": 32,
                             "milestones": [[0, 0.01]]},
                "finetune": {"steps": 10, "batch_size": 32,
                             "milestones": [[0, 0.01]]},
                "reg_batch_size": 32,
                "reg_lr": 0.01,
                "seed": self.seed,
                "metric_every": 50,
            },
        }
        self.path = os.path.join(self.workdir, "conv_small.json")
        with open(self.path, "w") as fh:
            json.dump(doc, fh)

    def prepare(self, exp):
        # the generated config already carries this seed
        return shrunk(exp) if self.tiny else exp

    def setup(self):
        self._write_inputs()
        self.exp = self.load(self.path)
        growreg.harness.build_dataset(self.exp)
        self.ticks = growreg.harness.schedule_length(self.exp)

    def step_cost(self):
        return step_cost(self.exp, self.exp.pretrain.batch_size)

    def run_op(self):
        harness = growreg.harness
        exp = self.load(self.path)
        data = harness.build_dataset(exp)
        s = harness.run_method(exp, data=data).summary
        out = Outcome(work=exp.pretrain.steps + s["reg_ticks"] + exp.finetune.steps,
                      final_acc=s["post_finetune_acc"])
        _check_run(s, exp, self.ticks, out.errors, exp.method)
        return out


class CompareSeeds(Workload):
    """Ramped vs one-shot pruning on matched L1 sets over independent seeds."""

    name = "compare_seeds"
    why = ("compare_schedules on compare_desk at 1/20 steps, kind l1, one seed "
           "per core (2 to 4); the only workload made of independent seeds")
    path = os.path.join(CONFIGS, "compare_desk.json")

    def setup(self):
        cores = len(os.sched_getaffinity(0))
        self.n_seeds = max(2, min(4, cores))
        self.exp = self.load(self.path)
        growreg.harness.build_dataset(self.exp)
        self.ticks = growreg.harness.schedule_length(self.exp)

    def step_cost(self):
        return step_cost(self.exp, self.exp.pretrain.batch_size)

    def run_op(self):
        exp = self.load(self.path)
        result = growreg.harness.compare_schedules(exp, self.n_seeds, kind="l1")
        per_seed = exp.pretrain.steps + self.ticks + 2 * exp.finetune.steps
        out = Outcome(work=self.n_seeds * per_seed)
        rows = result.per_seed
        if len(rows) != 2 * self.n_seeds:
            out.errors.append(f"compare: {len(rows)} rows for {self.n_seeds} seeds")
        for greg, one in zip(rows[::2], rows[1::2]):
            if greg["seed"] != one["seed"] or greg["pruned_hash"] != one["pruned_hash"]:
                out.errors.append(f"compare: seed {greg['seed']} pruned sets differ")
        for row in rows:
            _check_accs(row, out.errors, f"compare seed {row['seed']}")
        out.final_acc = float(np.mean([row["post_finetune_acc"] for row in rows]))
        return out


class OracleSweep(Workload):
    """Closed form vs gradient descent on random PSD quadratic models."""

    name = "oracle_sweep"
    sgd = False
    why = ("seeded random PSD models of dims 2 to 24, closed form vs descent at "
           "two bumps; the only workload on quadratic, with its 2x2 and Cholesky "
           "branches")
    dims = tuple(range(2, 25)) * 4

    def setup(self):
        if self.tiny:
            self.dims = (2, 3, 5)

    def run_op(self):
        # every operation solves the same seeded models, so all do equal work
        quadratic = growreg.quadratic
        rng = np.random.default_rng(self.seed)
        worst = 0.0
        for dim in self.dims:
            model = quadratic.random_psd_model(rng, dim, eig_low=0.5, eig_high=5.0)
            for delta in ORACLE_DELTAS:
                closed = quadratic.perturbed_minimum(model, delta)
                step = 1.0 / (model.eigenvalues[-1] + delta)
                descent = quadratic.gd_minimize_quadratic(model, delta, step=step, tol=1e-12)
                worst = max(worst, float(np.max(np.abs(closed - descent))))
        out = Outcome(work=len(self.dims) * len(ORACLE_DELTAS), residual=worst)
        if not worst < ORACLE_TOL:
            out.errors.append(f"oracle: residual {worst:.3e} >= {ORACLE_TOL:.0e}")
        return out


WORKLOADS = {w.name: w for w in (DenseDesk, ConvSmall, CompareSeeds, OracleSweep)}
