"""In-memory span tracing of growreg's public functions, from outside.

A :class:`Tracer` replaces module attributes with timing wrappers: every
``growreg`` module that holds a reference to a traced function gets the
wrapper, so calls made through ``from .netcore import ...`` bindings are
seen too. ``Dataset.batches`` is wrapped so that each ``next()`` on the
batch stream is its own ``datasets.batch`` span. Spans nest through a call
stack (one thread), which gives each span its parent and hence self time.
:meth:`Tracer.uninstall` puts every original back and reports any
attribute that did not come back.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array

import numpy as np

# (module, function) pairs wrapped by the tracer. The harness entries and
# build_dataset / compare_schedules are wrapped to split phases and seeds.
TRACED = (
    ("netcore", "loss_and_grads"),
    ("netcore", "forward"),
    ("netcore", "softmax_cross_entropy"),
    ("netcore", "sgd_step"),
    ("netcore", "accuracy"),
    ("scheduler", "tick"),
    ("groups", "expand_group_values"),
    ("groups", "group_l1_norms"),
    ("groups", "select_prune_set"),
    ("groups", "apply_hard_prune"),
    ("quadratic", "perturbed_minimum"),
    ("quadratic", "gd_minimize_quadratic"),
    ("quadratic", "random_psd_model"),
    ("checkpoint", "save_checkpoint"),
    ("checkpoint", "load_checkpoint"),
    ("config", "load_config"),
    ("harness", "pretrain"),
    ("harness", "run_method"),
    ("harness", "build_dataset"),
    ("harness", "compare_schedules"),
)
BATCH_SPAN = "datasets.batch"


class Tracer:
    """Span recorder plus the attribute patches that feed it."""

    def __init__(self):
        self.names = []
        self.fid = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn):
        fid = len(self.names)
        self.names.append(name)
        fids, starts, ends, parents = self.fid, self.start, self.end, self.parent
        stack, clock = self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    # -- installing ------------------------------------------------------

    def install(self, package):
        """Wrap every traced function wherever a growreg module binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for mod_name, fn_name in TRACED:
            original = getattr(getattr(package, mod_name), fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

        dataset_cls = package.datasets.Dataset
        original_batches = dataset_cls.__dict__["batches"]
        next_batch = self._wrap(BATCH_SPAN, next)

        @functools.wraps(original_batches)
        def batches(self_, batch_size, rng):
            stream = original_batches(self_, batch_size, rng)
            while True:
                yield next_batch(stream)

        self._patches.append((dataset_cls, "batches", original_batches))
        dataset_cls.batches = batches

    def uninstall(self):
        """Restore every patched attribute; returns the ones left wrong."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        wrong = [f"{getattr(owner, '__name__', owner)}.{attr}"
                 for owner, attr, original in self._patches
                 if vars(owner).get(attr) is not original]
        self._patches = []
        return wrong

    # -- reading ---------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays: (fid, start_ns, end_ns, parent, self_ns)."""
        fid = np.frombuffer(self.fid, dtype=np.int64).copy()
        start = np.frombuffer(self.start, dtype=np.int64).copy()
        end = np.frombuffer(self.end, dtype=np.int64).copy()
        parent = np.frombuffer(self.parent, dtype=np.int64).copy()
        dur = end - start
        nested = parent >= 0
        child_ns = np.bincount(parent[nested], weights=dur[nested],
                               minlength=len(dur))
        return fid, start, end, parent, dur - child_ns

    def write(self, path):
        """All spans as gzip CSV: name, start_ns, end_ns, parent index."""
        with gzip.open(path, "wt") as fh:
            fh.write("name,start_ns,end_ns,parent\n")
            for f, s, e, p in zip(self.fid, self.start, self.end, self.parent):
                fh.write(f"{self.names[f]},{s},{e},{p}\n")


# functions reported as <module>.<function>.<stat>
REPORTED = (
    "netcore.loss_and_grads",
    "netcore.forward",
    "netcore.softmax_cross_entropy",
    "netcore.sgd_step",
    "netcore.accuracy",
    "scheduler.tick",
    "groups.expand_group_values",
    "groups.group_l1_norms",
    "groups.select_prune_set",
    "groups.apply_hard_prune",
    BATCH_SPAN,
    "quadratic.perturbed_minimum",
    "quadratic.gd_minimize_quadratic",
    "quadratic.random_psd_model",
    "checkpoint.save_checkpoint",
    "checkpoint.load_checkpoint",
    "config.load_config",
)
PHASES = ("pretrain", "reg", "prune", "finetune", "metric")


def _median(values):
    return float(np.median(values)) if len(values) else 0.0


def summarize(tracer, windows):
    """Per-operation statistics of the spans inside each (start, end) window.

    Counts and busy/self seconds are per operation (median over windows);
    ``us_p50``/``us_p99`` pool the inclusive durations of every call.
    Phases follow public call boundaries: a ``run_method`` span is regularization
    up to its ``apply_hard_prune`` child and fine-tuning after it, less its
    nested ``pretrain`` and ``accuracy`` spans, which count as pretrain and
    metric time. A seed of ``compare_schedules`` runs from one of its
    ``build_dataset`` calls to the next (the last one to the end).
    """
    fid, start, end, parent, self_ns = tracer.arrays()
    dur = end - start
    ids = {name: i for i, name in enumerate(tracer.names)}
    out = {}
    per_op = {name: {"calls": [], "busy_s": [], "self_s": []} for name in REPORTED}
    pooled = {name: [] for name in REPORTED}
    phases = {p: [] for p in PHASES}
    seed_s, seed_busy = [], []
    children = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(int(p), []).append(i)

    def spans_of(name, sel):
        return np.flatnonzero(sel & (fid == ids[name]))

    for w0, w1 in windows:
        sel = (start >= w0) & (end <= w1)
        for name in REPORTED:
            idx = spans_of(name, sel)
            per_op[name]["calls"].append(len(idx))
            per_op[name]["busy_s"].append(dur[idx].sum() / 1e9)
            per_op[name]["self_s"].append(self_ns[idx].sum() / 1e9)
            pooled[name].append(dur[idx] / 1e3)

        split = dict.fromkeys(PHASES, 0.0)
        split["pretrain"] = dur[spans_of("harness.pretrain", sel)].sum() / 1e9
        split["metric"] = dur[spans_of("netcore.accuracy", sel)].sum() / 1e9
        split["prune"] = dur[spans_of("groups.apply_hard_prune", sel)].sum() / 1e9
        for r in spans_of("harness.run_method", sel):
            kids = children.get(int(r), [])
            cut = [k for k in kids if fid[k] == ids["groups.apply_hard_prune"]]
            cut_start, cut_end = (start[cut[0]], end[cut[0]]) if cut else (end[r], end[r])
            reg_ns, ft_ns = cut_start - start[r], end[r] - cut_end
            for k in kids:
                if fid[k] in (ids["harness.pretrain"], ids["netcore.accuracy"]):
                    if start[k] < cut_start:
                        reg_ns -= dur[k]
                    else:
                        ft_ns -= dur[k]
            split["reg"] += reg_ns / 1e9
            split["finetune"] += ft_ns / 1e9
        for p in PHASES:
            phases[p].append(split[p])

        for c in spans_of("harness.compare_schedules", sel):
            marks = sorted(start[k] for k in children.get(int(c), [])
                           if fid[k] == ids["harness.build_dataset"])
            bounds = marks + [end[c]]
            seeds = [(b - a) / 1e9 for a, b in zip(bounds, bounds[1:])]
            seed_s.extend(seeds)
            seed_busy.append(sum(seeds) / ((w1 - w0) / 1e9))

    for name in REPORTED:
        for stat in ("calls", "busy_s", "self_s"):
            out[f"{name}.{stat}"] = _median(per_op[name][stat])
        durations = np.concatenate(pooled[name]) if pooled[name] else np.zeros(0)
        for q in (50, 99):
            out[f"{name}.us_p{q}"] = (
                float(np.percentile(durations, q)) if durations.size else 0.0)
    for p in PHASES:
        out[f"harness.{p}_s"] = _median(phases[p])
    out["harness.seed_s_p50"] = _median(seed_s)
    out["harness.seed_busy_over_wall"] = _median(seed_busy)
    return out
