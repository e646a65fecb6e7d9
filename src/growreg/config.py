"""Experiment configuration documents: schema, validation, presets.

Configs are JSON with an explicit ``schema_version`` so experiment inputs
stay diffable and archivable. Validation is strict: unknown keys, mistyped
values and non-finite numbers are rejected, naming the field path. A
``preset`` key fills the regularization constants and explicit ``reg`` keys
override it; a preset passed to :func:`load_config` replaces the
document's key. ``desk`` finishes in minutes on toy nets, ``paper`` carries
the reference constants (very long ramps; documented, not meant for CI).
The JSON checks (:func:`field`, :func:`ints`, :func:`parse_layers`) also
serve checkpoint headers.
"""

from __future__ import annotations

import json
import os
import sys

from .errors import ConfigError, InputError
from .harness import ExperimentConfig, PhaseSchedule
from .netcore import LayerSpec
from .scheduler import RegConfig

SCHEMA_VERSION = 1

# reference ramp constants (long-running)
PAPER_REG = {
    "greg1": dict(delta_lambda=1e-4, tau=1.0, tau_prime=0.01, k_update=10,
                  k_stabilize=5000, base_decay=5e-4),
    "greg2": dict(delta_lambda=1e-5, tau=1.0, tau_prime=0.01, k_update=10,
                  k_stabilize=5000, base_decay=5e-4,
                  post_pick_delta_lambda=1e-5),
}

# compressed ramps that keep the same qualitative behavior in minutes
DESK_REG = {
    "greg1": dict(delta_lambda=2e-3, tau=4.0, tau_prime=0.02, k_update=5,
                  k_stabilize=4000, base_decay=5e-4),
    "greg2": dict(delta_lambda=2e-4, tau=4.0, tau_prime=0.02, k_update=5,
                  k_stabilize=2000, base_decay=5e-4,
                  post_pick_delta_lambda=2e-3),
}

PRESETS = {"desk": DESK_REG, "paper": PAPER_REG}

_TOP_KEYS = {"schema_version", "preset", "experiment"}
_EXP_REQUIRED = {"net", "dataset", "plan", "method", "pretrain", "finetune"}
# passed to ExperimentConfig as given; absent keys take its defaults
_EXP_OPTIONAL = {
    "granularity",
    "reg_batch_size",
    "reg_lr",
    "reg_momentum",
    "reg_max_iters",
    "seed",
    "metric_every",
}
_EXP_KEYS = _EXP_REQUIRED | _EXP_OPTIONAL | {"reg"}
_NET_KEYS = {"input_shape", "classes", "layers"}
LAYER_KEYS = {"kind", "units", "kernel", "activation", "prunable"}
_PHASE_KEYS = {"steps", "batch_size", "milestones", "momentum"}
_REG_KEYS = {
    "delta_lambda",
    "tau",
    "tau_prime",
    "k_update",
    "k_stabilize",
    "base_decay",
    "post_pick_delta_lambda",
}
_DATASET_KEYS = {
    "blobs": {"kind", "n_train", "n_val", "seed", "noise", "classes"},
    "moons": {"kind", "n_train", "n_val", "seed", "noise"},
    "spirals": {"kind", "n_train", "n_val", "seed", "noise"},
    "csv": {"kind", "path", "n_val", "seed"},
}
_NUMBER = (int, float)
# the JSON type(s) of each key, wherever it appears
_TYPES = {
    **dict.fromkeys(("schema_version", "classes", "units", "steps", "batch_size",
                     "k_update", "k_stabilize", "reg_batch_size", "reg_max_iters",
                     "seed", "metric_every", "n_train", "n_val"), int),
    **dict.fromkeys(("delta_lambda", "tau", "base_decay", "momentum", "reg_lr",
                     "reg_momentum", "noise"), _NUMBER),
    **dict.fromkeys(("tau_prime", "post_pick_delta_lambda"), _NUMBER + (type(None),)),
    **dict.fromkeys(("kind", "activation", "plan", "method", "granularity", "path"), str),
    **dict.fromkeys(("experiment", "net", "dataset", "pretrain", "finetune"), dict),
    **dict.fromkeys(("input_shape", "layers", "milestones"), list),
    "preset": (str, type(None)),
    "reg": (dict, type(None)),
    "kernel": (list, type(None)),
    "prunable": bool,
}


def field(doc, key, kind, where):
    """``doc[key]``, rejected unless it is present and of ``kind``.

    ``kind`` is a type or tuple of types; JSON booleans never pass for
    numbers.
    """
    if not isinstance(doc, dict) or key not in doc:
        raise ConfigError(f"{where} lacks {key!r}")
    val = doc[key]
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if not isinstance(val, kinds) or (isinstance(val, bool) and bool not in kinds):
        names = " or ".join("null" if k is type(None) else k.__name__ for k in kinds)
        raise ConfigError(f"{where}: {key!r} is {val!r}, expected {names}")
    return val


def ints(doc, key, where):
    """``doc[key]`` as a list of non-negative ints."""
    vals = field(doc, key, list, where)
    if not all(isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in vals):
        raise ConfigError(f"{where}: {key!r} is {vals!r}, expected non-negative ints")
    return vals


def _check_keys(doc, allowed, required, where):
    """Reject a non-object, unknown or missing keys, and mistyped values."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected an object, got {type(doc).__name__}")
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(doc)
    if missing:
        raise ConfigError(f"{where}: missing required keys {sorted(missing)}")
    for key in doc:
        val = field(doc, key, _TYPES[key], where)
        if _TYPES[key] is not int and type(val) in _NUMBER:
            _finite(val, f"{where}.{key}")


def _finite(val, where):
    """Reject nan, inf and ints beyond float range (compared exactly, no overflow)."""
    if not abs(val) <= sys.float_info.max:
        shown = repr(val) if isinstance(val, float) else "an integer beyond float range"
        raise ConfigError(f"{where}: expected a finite number, got {shown}")


def parse_layers(docs, where, required):
    """``LayerSpec``s from a list of layer documents, each holding the keys in
    ``required`` and no key outside ``LAYER_KEYS``; errors name ``where[i]``."""
    specs = []
    for i, entry in enumerate(docs):
        at = f"{where}[{i}]"
        _check_keys(entry, LAYER_KEYS, required, at)
        if entry.get("kernel"):
            ints(entry, "kernel", at)
        try:
            specs.append(LayerSpec(**entry))
        except InputError as exc:
            raise ConfigError(f"{at}: {exc}") from exc
    return tuple(specs)


def _phase_from(doc, where):
    _check_keys(doc, _PHASE_KEYS, {"steps", "batch_size", "milestones"}, where)
    for j, m in enumerate(doc["milestones"]):
        # type() excludes JSON booleans, which isinstance counts as ints
        if not (isinstance(m, list) and len(m) == 2 and type(m[0]) is int
                and type(m[1]) in _NUMBER):
            raise ConfigError(f"{where}.milestones[{j}]: expected [step, lr], got {m!r}")
        _finite(m[1], f"{where}.milestones[{j}]")
    try:
        return PhaseSchedule(**doc)
    except InputError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _reg_from(doc, preset, method, where):
    base = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"preset: must be one of {sorted(PRESETS)}")
        key = "greg2" if method == "greg2" else "greg1"
        base = dict(PRESETS[preset][key])
    if doc is not None:
        _check_keys(doc, _REG_KEYS, set() if base else {"delta_lambda", "tau"}, where)
        base.update(doc)
    if not base:
        raise ConfigError(f"{where}: give reg constants or a preset")
    try:
        return RegConfig(**base)
    except InputError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def config_from_dict(doc, preset=None) -> ExperimentConfig:
    """Validated experiment; ``preset`` stands in for the document's key."""
    _check_keys(doc, _TOP_KEYS, {"schema_version", "experiment"}, "config")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version: expected {SCHEMA_VERSION}, got {doc['schema_version']}"
        )
    exp = doc["experiment"]
    _check_keys(exp, _EXP_KEYS, _EXP_REQUIRED, "experiment")

    net = exp["net"]
    _check_keys(net, _NET_KEYS, _NET_KEYS, "experiment.net")
    input_shape = tuple(ints(net, "input_shape", "experiment.net"))
    layers = parse_layers(net["layers"], "experiment.net.layers", {"kind", "units"})

    ds = exp["dataset"]
    kind = field(ds, "kind", str, "experiment.dataset")
    if kind not in _DATASET_KEYS:
        raise ConfigError(
            f"experiment.dataset.kind: must be one of {sorted(_DATASET_KEYS)}"
        )
    required = {"kind", "n_val"} | ({"n_train"} if kind != "csv" else set())
    _check_keys(ds, _DATASET_KEYS[kind], required, "experiment.dataset")
    for key, low in (("n_train", 1), ("n_val", 1), ("seed", 0)):
        if key in ds and ds[key] < low:
            raise ConfigError(f"experiment.dataset.{key}: must be >= {low}, got {ds[key]}")
    if kind == "csv" and not os.path.exists(ds.get("path", "")):
        raise ConfigError(f"experiment.dataset.path: {ds.get('path')!r} not found")

    method = exp["method"]
    reg = _reg_from(exp.get("reg"), preset or doc.get("preset"), method, "experiment.reg")
    pretrain = _phase_from(exp["pretrain"], "experiment.pretrain")
    finetune = _phase_from(exp["finetune"], "experiment.finetune")
    try:
        return ExperimentConfig(
            layers=layers,
            input_shape=input_shape,
            classes=net["classes"],
            dataset=dict(ds),
            plan=exp["plan"],
            method=method,
            reg=reg,
            pretrain=pretrain,
            finetune=finetune,
            **{k: exp[k] for k in _EXP_OPTIONAL if k in exp},
        )
    except InputError as exc:
        raise ConfigError(f"experiment: {exc}") from exc


def load_config(path, preset=None) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # bytes not UTF-8, an int past Python's digit limit
        raise ConfigError(f"{path}: {exc}") from exc
    return config_from_dict(doc, preset)
