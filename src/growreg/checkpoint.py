"""Versioned binary checkpoint container.

Layout (all integers little-endian):

    bytes 0..7    magic ``b"GREGCKPT"``
    bytes 8..11   format version, uint32 (currently 2)
    bytes 12..19  header length N, uint64
    bytes 20..    N bytes of canonical UTF-8 JSON (sorted keys, no spaces)
    then          raw parameter blobs, concatenated in header order

A checkpoint holds a network and nothing else: no command resumes a run
mid-ramp, so optimizer velocities and schedule state are not stored. The
header lists the topology (input shape, class count, layer specs), the
blob directory (name, shape, dtype string) and the indices of layers
carrying frozen-weight masks. Blobs are ``<f8`` for weights and biases and
``|u1`` for frozen masks. Identical networks produce byte-identical files.
Version 1 files, which could also carry velocities and a schedule-state
document, are rejected.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict

import numpy as np

from .errors import ConfigError, InputError
from .netcore import LayerSpec, Network

MAGIC = b"GREGCKPT"
VERSION = 2


def _canonical(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def checkpoint_bytes(net: Network) -> bytes:
    blobs = []

    def add(name, arr, dtype):
        blobs.append((name, np.ascontiguousarray(arr, dtype=dtype)))

    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        add(f"w{l}", w, "<f8")
        add(f"b{l}", b, "<f8")
    frozen_layers = [l for l, m in enumerate(net.frozen) if m is not None]
    for l in frozen_layers:
        add(f"fz{l}", net.frozen[l], "|u1")

    header = {
        "input_shape": list(net.input_shape),
        "classes": net.classes,
        "layers": [asdict(s) for s in net.layers],
        "blobs": [
            {"name": name, "shape": list(arr.shape), "dtype": arr.dtype.str}
            for name, arr in blobs
        ],
        "frozen_layers": frozen_layers,
    }
    head = _canonical(header)
    parts = [MAGIC, struct.pack("<I", VERSION), struct.pack("<Q", len(head)), head]
    parts.extend(arr.tobytes() for _, arr in blobs)
    return b"".join(parts)


def save_checkpoint(path, net: Network):
    data = checkpoint_bytes(net)
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
    except ValueError as exc:  # bad UTF-8 or JSON, an int past Python's digit limit
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
    n_layers = len(header["layers"])
    frozen = _ints(header, "frozen_layers", where)
    if any(l >= n_layers for l in frozen):
        raise ConfigError(f"{where}: frozen_layers {frozen} outside {n_layers} layers")

    expected = {}
    for l in range(n_layers):
        expected.update({f"w{l}": "<f8", f"b{l}": "<f8"})
    expected.update((f"fz{l}", "|u1") for l in frozen)
    found = [(blob["name"], blob["dtype"]) for blob in header["blobs"]]
    if sorted(found) != sorted(expected.items()):
        raise ConfigError(
            f"{where}: blobs {found} do not match the declared layers, "
            f"expected {sorted(expected.items())}"
        )
    return header


def load_checkpoint(path):
    """Returns ``(network, None, None)``.

    The two ``None`` slots are where format 1 returned optimizer state and
    a schedule-state document. They stay so that callers which unpack
    three values, such as the benchmark's checkpoint round trip, keep
    working; a later change can return the network alone.

    A malformed file raises ``ConfigError`` naming ``path``. That includes
    a version-1 file and a float blob (weights or biases) holding a NaN or
    an infinity, which names the blob too. Blobs carry no checksum, so any
    other corrupted value loads as written.
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
        arr = np.frombuffer(raw, dtype=dt, count=count, offset=offset)
        if dt.kind == "f" and not np.all(np.isfinite(arr)):
            raise ConfigError(f"{path}: blob {blob['name']} holds non-finite values")
        arrays[blob["name"]] = arr.reshape(blob["shape"])
        offset += nbytes
    if offset != len(raw):
        raise ConfigError(f"{path}: trailing bytes after declared blobs")

    n_layers = len(header["layers"])
    frozen = [None] * n_layers
    for l in header["frozen_layers"]:
        frozen[l] = arrays[f"fz{l}"].astype(bool)
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
    except InputError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return net, None, None
