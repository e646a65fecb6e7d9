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
indices of layers carrying frozen-weight masks, and the blob directory
(name, shape, dtype string) that topology implies: ``w{l}`` and ``b{l}``
per layer, ``<f8``, then ``fz{l}`` per frozen layer, ``|u1`` bytes of 0
or 1. A loaded directory must be exactly that one, in file order.
Identical networks produce byte-identical files. Version 1 files, which
could also carry velocities and a schedule-state document, are rejected.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict

import numpy as np

from .config import LAYER_KEYS, field, ints, parse_layers
from .errors import ConfigError, DimensionError, InputError
from .netcore import Network, layer_shapes

MAGIC = b"GREGCKPT"
VERSION = 2


def _canonical(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _blobs(layers, input_shape, frozen_layers):
    """The blob directory a topology implies, in file order."""
    blobs = []
    for l, (spec, (_, w_shape)) in enumerate(zip(layers, layer_shapes(layers, input_shape))):
        blobs.append({"name": f"w{l}", "shape": list(w_shape), "dtype": "<f8"})
        blobs.append({"name": f"b{l}", "shape": [spec.units], "dtype": "<f8"})
    blobs.extend({"name": f"fz{l}", "shape": blobs[2 * l]["shape"], "dtype": "|u1"}
                 for l in frozen_layers)
    return blobs


def checkpoint_bytes(net: Network) -> bytes:
    frozen_layers = [l for l, m in enumerate(net.frozen) if m is not None]
    blobs = _blobs(net.layers, net.input_shape, frozen_layers)
    arrays = [a for pair in zip(net.weights, net.biases) for a in pair]
    arrays += [net.frozen[l] for l in frozen_layers]
    header = {
        "input_shape": list(net.input_shape),
        "classes": net.classes,
        "layers": [asdict(s) for s in net.layers],
        "blobs": blobs,
        "frozen_layers": frozen_layers,
    }
    head = _canonical(header)
    parts = [MAGIC, struct.pack("<I", VERSION), struct.pack("<Q", len(head)), head]
    parts.extend(np.ascontiguousarray(a, dtype=blob["dtype"]).tobytes()
                 for a, blob in zip(arrays, blobs))
    return b"".join(parts)


def save_checkpoint(path, net: Network):
    data = checkpoint_bytes(net)
    with open(path, "wb") as fh:
        fh.write(data)
    return data


def _parse_header(text, path):
    """The checked header, its layer specs and the blob directory they imply."""
    try:
        header = json.loads(text.decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or JSON, an int past Python's digit limit
        raise ConfigError(f"{path}: unreadable checkpoint header ({exc})") from exc
    where = f"{path}: checkpoint header"
    input_shape = ints(header, "input_shape", where)
    field(header, "classes", int, where)
    layers = parse_layers(field(header, "layers", list, where), f"{where}.layers",
                          LAYER_KEYS)
    frozen = ints(header, "frozen_layers", where)
    if frozen != sorted(set(frozen)) or any(l >= len(layers) for l in frozen):
        raise ConfigError(f"{where}: frozen_layers {frozen} are not strictly "
                          f"increasing indices of the {len(layers)} layers")
    try:
        blobs = _blobs(layers, input_shape, frozen)
    except DimensionError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    # compared as JSON text, so a shape of 2.0 or true does not pass for 2 or 1
    if _canonical(header.get("blobs")) != _canonical(blobs):
        raise ConfigError(f"{where}: blobs {header.get('blobs')} do not match the "
                          f"declared layers, expected {blobs}")
    return header, layers, blobs


def load_checkpoint(path):
    """Returns ``(network, None, None)``.

    The two ``None`` slots are where format 1 returned optimizer state and
    a schedule-state document. They stay so that callers which unpack
    three values, such as the benchmark's checkpoint round trip, keep
    working; a later change can return the network alone.

    A malformed file raises ``ConfigError`` naming ``path``. That includes
    a version-1 file, a float blob (weights or biases) holding a NaN or
    an infinity and a frozen-mask blob holding a byte other than 0 or 1,
    both of which name the blob too. Blobs carry no checksum, so any
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
    header, layers, blobs = _parse_header(raw[20 : 20 + hlen], path)
    offset = 20 + hlen
    arrays = []
    for blob in blobs:
        dt = np.dtype(blob["dtype"])
        count = math.prod(blob["shape"])
        need(offset + count * dt.itemsize, f"blob {blob['name']}")
        arr = np.frombuffer(raw, dtype=dt, count=count, offset=offset)
        if dt.kind == "f" and not np.all(np.isfinite(arr)):
            raise ConfigError(f"{path}: blob {blob['name']} holds non-finite values")
        if dt.kind == "u" and arr.max(initial=0) > 1:
            raise ConfigError(f"{path}: blob {blob['name']} holds values other than 0 and 1")
        arrays.append(arr.reshape(blob["shape"]))
        offset += arr.nbytes
    if offset != len(raw):
        raise ConfigError(f"{path}: trailing bytes after declared blobs")

    n = len(layers)
    frozen = [None] * n
    for l, mask in zip(header["frozen_layers"], arrays[2 * n :]):
        frozen[l] = mask.astype(bool)
    try:
        net = Network(layers, header["input_shape"], header["classes"],
                      arrays[0 : 2 * n : 2], arrays[1 : 2 * n : 2], frozen)
    except InputError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return net, None, None
