"""Versioned binary checkpoint container.

Layout (all integers little-endian):

    bytes 0..7    magic ``b"GREGCKPT"``
    bytes 8..11   format version, uint32 (currently 1)
    bytes 12..19  header length N, uint64
    bytes 20..    N bytes of canonical UTF-8 JSON (sorted keys, no spaces)
    then          raw parameter blobs, concatenated in header order

The header lists the topology (input shape, class count, layer specs), the
blob directory (name, shape, dtype string), optional optimizer
hyperparameters, the indices of layers carrying frozen-weight masks, and an
optional regularization-state document. Blobs are ``<f8`` for parameters
and velocities and ``|u1`` for frozen masks. Identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .errors import ConfigError, InputError
from .netcore import LayerSpec, Network, OptimState

MAGIC = b"GREGCKPT"
VERSION = 1


def _canonical(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def checkpoint_bytes(net: Network, opt: OptimState = None, reg_state=None) -> bytes:
    blobs = []

    def add(name, arr, dtype):
        blobs.append((name, np.ascontiguousarray(arr, dtype=dtype)))

    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        add(f"w{l}", w, "<f8")
        add(f"b{l}", b, "<f8")
    if opt is not None:
        for l, (vw, vb) in enumerate(zip(opt.vel_w, opt.vel_b)):
            add(f"vw{l}", vw, "<f8")
            add(f"vb{l}", vb, "<f8")
    frozen_layers = [l for l, m in enumerate(net.frozen) if m is not None]
    for l in frozen_layers:
        add(f"fz{l}", net.frozen[l], "|u1")

    header = {
        "input_shape": list(net.input_shape),
        "classes": net.classes,
        "layers": [
            {
                "kind": s.kind,
                "units": s.units,
                "kernel": list(s.kernel) if s.kernel else None,
                "activation": s.activation,
                "prunable": s.prunable,
            }
            for s in net.layers
        ],
        "blobs": [
            {"name": name, "shape": list(arr.shape), "dtype": arr.dtype.str}
            for name, arr in blobs
        ],
        "optimizer": None
        if opt is None
        else {
            "learning_rate": opt.learning_rate,
            "momentum": opt.momentum,
            "base_decay": opt.base_decay,
        },
        "frozen_layers": frozen_layers,
        "reg_state": reg_state,
    }
    head = _canonical(header)
    parts = [MAGIC, struct.pack("<I", VERSION), struct.pack("<Q", len(head)), head]
    parts.extend(arr.tobytes() for _, arr in blobs)
    return b"".join(parts)


def save_checkpoint(path, net: Network, opt: OptimState = None, reg_state=None):
    data = checkpoint_bytes(net, opt, reg_state)
    with open(path, "wb") as fh:
        fh.write(data)
    return data


def _field(doc, key, kind, where):
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


def _ints(doc, key, where):
    """``doc[key]`` as a list of non-negative ints."""
    vals = _field(doc, key, list, where)
    if not all(isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in vals):
        raise ConfigError(f"{where}: {key!r} is {vals!r}, expected non-negative ints")
    return vals


def _parse_header(text, path):
    """Decode and type-check the JSON header; returns the checked document."""
    try:
        header = json.loads(text.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: unreadable checkpoint header ({exc})") from exc
    where = f"{path}: checkpoint header"
    _ints(header, "input_shape", where)
    _field(header, "classes", int, where)
    for l, spec in enumerate(_field(header, "layers", list, where)):
        at = f"{where} layer {l}"
        _field(spec, "kind", str, at)
        _field(spec, "units", int, at)
        if _field(spec, "kernel", (list, type(None)), at) is not None:
            _ints(spec, "kernel", at)
        _field(spec, "activation", str, at)
        _field(spec, "prunable", bool, at)
    for i, blob in enumerate(_field(header, "blobs", list, where)):
        at = f"{where} blob {i}"
        _field(blob, "name", str, at)
        _ints(blob, "shape", at)
        _field(blob, "dtype", str, at)
    opt = _field(header, "optimizer", (dict, type(None)), where)
    if opt is not None:
        for key in ("learning_rate", "momentum", "base_decay"):
            _field(opt, key, (int, float), f"{where} optimizer")
    n_layers = len(header["layers"])
    frozen = _ints(header, "frozen_layers", where)
    if any(l >= n_layers for l in frozen):
        raise ConfigError(f"{where}: frozen_layers {frozen} outside {n_layers} layers")
    if "reg_state" not in header:
        raise ConfigError(f"{where} lacks 'reg_state'")

    expected = {}
    for l in range(n_layers):
        names = ["w", "b"] + (["vw", "vb"] if opt is not None else [])
        expected.update((f"{n}{l}", "<f8") for n in names)
    expected.update((f"fz{l}", "|u1") for l in frozen)
    found = [(blob["name"], blob["dtype"]) for blob in header["blobs"]]
    if sorted(found) != sorted(expected.items()):
        raise ConfigError(
            f"{where}: blobs {found} do not match the declared layers, "
            f"expected {sorted(expected.items())}"
        )
    return header


def load_checkpoint(path):
    """Returns (network, optimizer-or-None, reg_state-doc-or-None).

    A malformed file raises ``ConfigError`` naming ``path``; one whose
    weights are not finite raises ``NumericError``.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:8] != MAGIC:
        raise ConfigError(f"{path}: not a checkpoint file (bad magic)")

    def need(end, what):
        if end > len(raw):
            raise ConfigError(f"{path}: truncated, {what} ends past byte {len(raw)}")

    need(20, "the fixed header")
    (version,) = struct.unpack("<I", raw[8:12])
    if version != VERSION:
        raise ConfigError(f"{path}: unsupported checkpoint version {version}")
    (hlen,) = struct.unpack("<Q", raw[12:20])
    need(20 + hlen, "the JSON header")
    header = _parse_header(raw[20 : 20 + hlen], path)
    offset = 20 + hlen
    arrays = {}
    for blob in header["blobs"]:
        dt = np.dtype(blob["dtype"])
        count = math.prod(blob["shape"])
        nbytes = count * dt.itemsize
        need(offset + nbytes, f"blob {blob['name']}")
        arrays[blob["name"]] = np.frombuffer(
            raw, dtype=dt, count=count, offset=offset
        ).reshape(blob["shape"]).copy()
        offset += nbytes
    if offset != len(raw):
        raise ConfigError(f"{path}: trailing bytes after declared blobs")

    n_layers = len(header["layers"])
    frozen = [None] * n_layers
    for l in header["frozen_layers"]:
        frozen[l] = arrays[f"fz{l}"].astype(bool)
    o = header["optimizer"]
    try:
        specs = [
            LayerSpec(
                kind=s["kind"],
                units=s["units"],
                kernel=tuple(s["kernel"]) if s["kernel"] else None,
                activation=s["activation"],
                prunable=s["prunable"],
            )
            for s in header["layers"]
        ]
        weights = [arrays[f"w{l}"] for l in range(n_layers)]
        biases = [arrays[f"b{l}"] for l in range(n_layers)]
        net = Network(specs, header["input_shape"], header["classes"], weights,
                      biases, frozen)
        opt = None if o is None else OptimState(
            o["learning_rate"], o["momentum"], o["base_decay"])
    except InputError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if opt is not None:
        opt.vel_w = [arrays[f"vw{l}"] for l in range(n_layers)]
        opt.vel_b = [arrays[f"vb{l}"] for l in range(n_layers)]
        for l in range(n_layers):
            have = (opt.vel_w[l].shape, opt.vel_b[l].shape)
            want = (net.weights[l].shape, net.biases[l].shape)
            if have != want:
                raise ConfigError(
                    f"{path}: layer {l} velocity shapes {have} differ from "
                    f"its parameter shapes {want}"
                )
    return net, opt, header["reg_state"]
