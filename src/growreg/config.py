"""Experiment configuration documents: schema, validation, presets.

Configs are JSON with an explicit ``schema_version`` so experiment inputs
stay diffable and archivable. Validation is strict: unknown keys are
rejected and errors name the offending field path. A ``preset`` key fills
the regularization constants and explicit ``reg`` keys override it; a
preset passed to :func:`load_config` replaces the document's key. ``desk``
finishes in minutes on toy nets, ``paper`` carries the reference constants
(very long ramps; documented, not meant for CI).
"""

from __future__ import annotations

import json
import os

from .errors import ConfigError
from .harness import ExperimentConfig, METHODS, PhaseSchedule
from .netcore import ACTIVATIONS, LAYER_KINDS, LayerSpec
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
_EXP_KEYS = _EXP_REQUIRED | {
    "granularity",
    "reg",
    "reg_batch_size",
    "reg_lr",
    "reg_momentum",
    "reg_max_iters",
    "seed",
    "metric_every",
}
_NET_KEYS = {"input_shape", "classes", "layers"}
_LAYER_KEYS = {"kind", "units", "kernel", "activation", "prunable"}
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


def _check_keys(doc, allowed, required, where):
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected an object, got {type(doc).__name__}")
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(doc)
    if missing:
        raise ConfigError(f"{where}: missing required keys {sorted(missing)}")


def _layers_from(doc):
    specs = []
    for i, entry in enumerate(doc):
        where = f"experiment.net.layers[{i}]"
        _check_keys(entry, _LAYER_KEYS, {"kind", "units"}, where)
        if entry["kind"] not in LAYER_KINDS:
            raise ConfigError(f"{where}.kind: must be one of {LAYER_KINDS}")
        if entry.get("activation", "relu") not in ACTIVATIONS:
            raise ConfigError(f"{where}.activation: must be one of {ACTIVATIONS}")
        try:
            specs.append(
                LayerSpec(
                    kind=entry["kind"],
                    units=int(entry["units"]),
                    kernel=tuple(entry["kernel"]) if entry.get("kernel") else None,
                    activation=entry.get("activation", "relu"),
                    prunable=bool(entry.get("prunable", True)),
                )
            )
        except Exception as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    return tuple(specs)


def _phase_from(doc, where):
    _check_keys(doc, _PHASE_KEYS, {"steps", "batch_size", "milestones"}, where)
    try:
        return PhaseSchedule(
            steps=int(doc["steps"]),
            batch_size=int(doc["batch_size"]),
            milestones=tuple((int(s), float(lr)) for s, lr in doc["milestones"]),
            momentum=float(doc.get("momentum", 0.9)),
        )
    except Exception as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _reg_from(doc, preset, method, where):
    base = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"preset: must be one of {sorted(PRESETS)}")
        key = "greg2" if method == "greg2" else "greg1"
        base = dict(PRESETS[preset][key])
    if doc is not None:
        _check_keys(doc, _REG_KEYS, set(), where)
        base.update(doc)
    if not base:
        raise ConfigError(f"{where}: give reg constants or a preset")
    try:
        return RegConfig(**base)
    except Exception as exc:
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
    layers = _layers_from(net["layers"])

    ds = exp["dataset"]
    if not isinstance(ds, dict) or "kind" not in ds:
        raise ConfigError("experiment.dataset: needs a 'kind' key")
    kind = ds["kind"]
    if kind not in _DATASET_KEYS:
        raise ConfigError(
            f"experiment.dataset.kind: must be one of {sorted(_DATASET_KEYS)}"
        )
    _check_keys(ds, _DATASET_KEYS[kind], {"kind", "n_val"}, "experiment.dataset")
    if kind == "csv" and not os.path.exists(ds.get("path", "")):
        raise ConfigError(f"experiment.dataset.path: {ds.get('path')!r} not found")

    method = exp["method"]
    if method not in METHODS:
        raise ConfigError(f"experiment.method: must be one of {METHODS}")
    if not isinstance(exp["plan"], str) or not exp["plan"].strip():
        raise ConfigError("experiment.plan: must be a non-empty plan string")

    reg = _reg_from(exp.get("reg"), preset or doc.get("preset"), method, "experiment.reg")
    pretrain = _phase_from(exp["pretrain"], "experiment.pretrain")
    finetune = _phase_from(exp["finetune"], "experiment.finetune")
    try:
        return ExperimentConfig(
            layers=layers,
            input_shape=tuple(net["input_shape"]),
            classes=int(net["classes"]),
            dataset=dict(ds),
            plan=exp["plan"],
            method=method,
            reg=reg,
            pretrain=pretrain,
            finetune=finetune,
            granularity=exp.get("granularity", "filter"),
            reg_batch_size=int(exp.get("reg_batch_size", 64)),
            reg_lr=float(exp.get("reg_lr", 1e-3)),
            reg_momentum=float(exp.get("reg_momentum", 0.9)),
            reg_max_iters=int(exp.get("reg_max_iters", 500_000)),
            seed=int(exp.get("seed", 0)),
            metric_every=int(exp.get("metric_every", 200)),
        )
    except Exception as exc:
        raise ConfigError(f"experiment: {exc}") from exc


def load_config(path, preset=None) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return config_from_dict(doc, preset)
