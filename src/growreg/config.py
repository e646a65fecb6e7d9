"""Experiment configuration documents: schema, validation, presets.

Configs are JSON with an explicit ``schema_version`` so experiment inputs
stay diffable and archivable. Validation is strict: unknown keys, mistyped
values and non-finite numbers are rejected, naming the field path. A
``preset`` key fills the regularization constants and explicit ``reg`` keys
override it; a preset passed to :func:`load_config` replaces the
document's key. ``desk`` finishes in minutes on toy nets, ``paper`` carries
the reference constants (very long ramps; documented, not meant for CI).
Each dataclass-backed section (a layer, a phase, ``reg`` and the
experiment's optional scalars) takes its keys, JSON types and required keys
from the dataclass fields. The JSON checks (:func:`field`, :func:`ints`,
:func:`check_keys`, :func:`parse_layers`) also serve checkpoint headers.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import MISSING, fields

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

_NUMBER = (int, float)
# the JSON types of a dataclass field's annotation, read as source text: the
# modules that define the dataclasses postpone annotation evaluation
_JSON = {"int": (int,), "float": _NUMBER, "str": (str,), "bool": (bool,), "tuple": (list,)}


def _schema(flds):
    """``({key: JSON types}, required keys)`` of dataclass fields: null is
    allowed where the default is None, and a field without a default is required."""
    types = {f.name: _JSON[f.type] + ((type(None),) if f.default is None else ())
             for f in flds}
    return types, {f.name for f in flds if f.default is MISSING}


LAYER_TYPES, LAYER_REQUIRED = _schema(fields(LayerSpec))
_PHASE_TYPES, _PHASE_REQUIRED = _schema(fields(PhaseSchedule))
_REG_TYPES, _REG_REQUIRED = _schema(fields(RegConfig))
# passed to ExperimentConfig as given; absent keys take its defaults
_EXP_OPTIONAL, _ = _schema([f for f in fields(ExperimentConfig)
                            if f.init and f.default is not MISSING])
_TOP_TYPES = {"schema_version": int, "preset": (str, type(None)), "experiment": dict}
_EXP_REQUIRED = {"net": dict, "dataset": dict, "plan": str, "method": str,
                 "pretrain": dict, "finetune": dict}
_EXP_TYPES = {**_EXP_REQUIRED, **_EXP_OPTIONAL, "reg": (dict, type(None))}
_NET_TYPES = {"input_shape": list, "classes": int, "layers": list}
_GENERATED = {"kind": str, "n_train": int, "n_val": int, "seed": int, "noise": _NUMBER}
_DATASET_TYPES = {
    "blobs": {**_GENERATED, "classes": int},
    "moons": _GENERATED,
    "spirals": _GENERATED,
    "csv": {"kind": str, "path": str, "n_val": int, "seed": int},
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


def check_keys(doc, types, required, where):
    """Reject a non-object, keys outside ``types`` or missing from ``required``,
    values not of their key's JSON types, and non-finite numbers."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected an object, got {type(doc).__name__}")
    unknown = set(doc) - types.keys()
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(doc)
    if missing:
        raise ConfigError(f"{where}: missing required keys {sorted(missing)}")
    for key, val in doc.items():
        field(doc, key, types[key], where)
        if type(val) in _NUMBER and isinstance(0.0, types[key]):  # a float key
            _finite(val, f"{where}.{key}")


def _finite(val, where):
    """Reject nan, inf and ints beyond float range (compared exactly, no overflow)."""
    if not abs(val) <= sys.float_info.max:
        shown = repr(val) if isinstance(val, float) else "an integer beyond float range"
        raise ConfigError(f"{where}: expected a finite number, got {shown}")


def parse_layers(docs, where, required):
    """``LayerSpec``s from a list of layer documents, each holding the keys in
    ``required`` and no key outside ``LAYER_TYPES``; errors name ``where[i]``."""
    specs = []
    for i, entry in enumerate(docs):
        at = f"{where}[{i}]"
        check_keys(entry, LAYER_TYPES, required, at)
        if entry.get("kernel"):
            ints(entry, "kernel", at)
        try:
            specs.append(LayerSpec(**entry))
        except InputError as exc:
            raise ConfigError(f"{at}: {exc}") from exc
    return tuple(specs)


def _phase_from(doc, where):
    check_keys(doc, _PHASE_TYPES, _PHASE_REQUIRED, where)
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
        check_keys(doc, _REG_TYPES, set() if base else _REG_REQUIRED, where)
        base.update(doc)
    if not base:
        raise ConfigError(f"{where}: give reg constants or a preset")
    try:
        return RegConfig(**base)
    except InputError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def config_from_dict(doc, preset=None) -> ExperimentConfig:
    """Validated experiment; ``preset`` stands in for the document's key."""
    check_keys(doc, _TOP_TYPES, {"schema_version", "experiment"}, "config")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version: expected {SCHEMA_VERSION}, got {doc['schema_version']}"
        )
    exp = doc["experiment"]
    check_keys(exp, _EXP_TYPES, _EXP_REQUIRED.keys(), "experiment")

    net = exp["net"]
    check_keys(net, _NET_TYPES, _NET_TYPES.keys(), "experiment.net")
    input_shape = tuple(ints(net, "input_shape", "experiment.net"))
    layers = parse_layers(net["layers"], "experiment.net.layers", LAYER_REQUIRED)

    ds = exp["dataset"]
    kind = field(ds, "kind", str, "experiment.dataset")
    if kind not in _DATASET_TYPES:
        raise ConfigError(
            f"experiment.dataset.kind: must be one of {sorted(_DATASET_TYPES)}"
        )
    required = {"kind", "n_val"} | ({"n_train"} if kind != "csv" else set())
    check_keys(ds, _DATASET_TYPES[kind], required, "experiment.dataset")
    for key, low in (("n_train", 1), ("n_val", 1), ("seed", 0)):
        if key in ds and ds[key] < low:
            raise ConfigError(f"experiment.dataset.{key}: must be >= {low}, got {ds[key]}")
    if kind == "csv" and not os.path.exists(ds.get("path", "")):
        raise ConfigError(f"experiment.dataset.path: {ds.get('path')!r} not found")
    classes = ds.get("classes", 2)  # moons and spirals have 2
    if kind != "csv" and classes != net["classes"]:
        raise ConfigError(f"experiment.dataset: {kind} has {classes} classes, "
                          f"experiment.net.classes is {net['classes']}")

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
