"""Versioned binary checkpoint container.

Layout (all integers little-endian):

    bytes 0..7    magic ``b"GREGCKPT"``
    bytes 8..11   format version, uint32 (currently 3)
    bytes 12..19  header length N, uint64
    bytes 20..    N bytes of canonical UTF-8 JSON (sorted keys, no spaces)
    then          raw parameter blobs, concatenated in file order

A checkpoint holds a network and nothing else: no command resumes a run
mid-ramp, so optimizer velocities and schedule state are not stored. The
header holds exactly the topology (input shape, class count, layer specs),
``frozen``, a boolean saying whether the network carries frozen-weight
masks (for all its layers or for none), and ``sha256``, the hex digest of
all the blob bytes. The topology implies the blobs: ``w{l}`` and ``b{l}``
per layer, ``<f8``, then, when frozen, ``fz{l}`` per layer, ``|u1`` bytes
of 0 or 1 in the weight's shape.
Identical networks produce byte-identical files. Files of versions 1 and
2 are rejected.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import asdict

import numpy as np

from .config import LAYER_TYPES, check_keys, ints, parse_layers
from .errors import ConfigError, DimensionError, InputError
from .netcore import Network, layer_shapes

MAGIC = b"GREGCKPT"
VERSION = 3
_HEADER_TYPES = {"input_shape": list, "classes": int, "layers": list, "frozen": bool,
                 "sha256": str}


def _blobs(layers, input_shape, frozen):
    """``(name, shape, dtype)`` of each blob a topology implies, in file order."""
    w_shapes = [w for _, w in layer_shapes(layers, input_shape)]
    blobs = [blob for l, (spec, w) in enumerate(zip(layers, w_shapes))
             for blob in ((f"w{l}", w, "<f8"), (f"b{l}", (spec.units,), "<f8"))]
    if frozen:
        blobs += [(f"fz{l}", w, "|u1") for l, w in enumerate(w_shapes)]
    return blobs


def checkpoint_bytes(net: Network) -> bytes:
    blobs = _blobs(net.layers, net.input_shape, net.frozen is not None)
    arrays = [a for pair in zip(net.weights, net.biases) for a in pair] + list(net.frozen or ())
    data = b"".join(np.ascontiguousarray(a, dtype).tobytes()
                    for a, (_, _, dtype) in zip(arrays, blobs))
    header = {
        "input_shape": list(net.input_shape),
        "classes": net.classes,
        "layers": [asdict(s) for s in net.layers],
        "frozen": net.frozen is not None,
        "sha256": hashlib.sha256(data).hexdigest(),
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return b"".join([MAGIC, struct.pack("<IQ", VERSION, len(head)), head, data])


def save_checkpoint(path, net: Network):
    data = checkpoint_bytes(net)
    with open(path, "wb") as fh:
        fh.write(data)
    return data


def _parse_header(text, path):
    """The checked header, its layer specs and the blobs they imply."""
    try:
        header = json.loads(text.decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or JSON, an int past Python's digit limit
        raise ConfigError(f"{path}: unreadable checkpoint header ({exc})") from exc
    where = f"{path}: checkpoint header"
    check_keys(header, _HEADER_TYPES, _HEADER_TYPES.keys(), where)
    input_shape = ints(header, "input_shape", where)
    layers = parse_layers(header["layers"], f"{where}.layers", LAYER_TYPES.keys())
    try:
        return header, layers, _blobs(layers, input_shape, header["frozen"])
    except DimensionError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_checkpoint(path):
    """Returns ``(network, None, None)``.

    The two ``None`` slots are where format 1 returned optimizer state and
    a schedule-state document. They stay so that callers which unpack
    three values, such as the benchmark's checkpoint round trip, keep
    working; a later change can return the network alone.

    A file that cannot be read or is malformed raises ``ConfigError``
    naming ``path``. That includes a file of another version, a header
    holding any key but the five it declares, and blob bytes whose sha256
    differs from the header's, so a corrupted value never loads. A file
    signed again after an edit is still checked: a float blob holding a
    NaN or an infinity and a frozen-mask blob holding a byte other than 0
    or 1 name the blob too, and a nonzero weight under a frozen flag names
    the layer.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read checkpoint {path}: {exc}") from exc
    if raw[:8] != MAGIC:
        raise ConfigError(f"{path}: not a checkpoint file (bad magic)")

    def need(end, what):
        if end > len(raw):
            raise ConfigError(f"{path}: truncated, {what} ends past byte {len(raw)}")

    need(20, "the fixed header")
    version, hlen = struct.unpack("<IQ", raw[8:20])
    if version != VERSION:
        raise ConfigError(f"{path}: unsupported checkpoint version {version}")
    need(20 + hlen, "the JSON header")
    header, layers, blobs = _parse_header(raw[20 : 20 + hlen], path)
    offset = 20 + hlen
    arrays = []
    for name, shape, dtype in blobs:
        count = math.prod(shape)
        need(offset + count * np.dtype(dtype).itemsize, f"blob {name}")
        arrays.append(np.frombuffer(raw, dtype, count, offset).reshape(shape))
        offset += arrays[-1].nbytes
    if offset != len(raw):
        raise ConfigError(f"{path}: trailing bytes after declared blobs")
    if hashlib.sha256(memoryview(raw)[20 + hlen :]).hexdigest() != header["sha256"]:
        raise ConfigError(f"{path}: blob bytes do not match the header's sha256")
    for (name, _, _), arr in zip(blobs, arrays):
        if arr.dtype.kind == "f" and not np.all(np.isfinite(arr)):
            raise ConfigError(f"{path}: blob {name} holds non-finite values")
        if arr.dtype.kind == "u" and arr.max(initial=0) > 1:
            raise ConfigError(f"{path}: blob {name} holds values other than 0 and 1")

    n = len(layers)
    frozen = [mask.astype(bool) for mask in arrays[2 * n :]] or None
    try:
        net = Network(layers, header["input_shape"], header["classes"],
                      arrays[0 : 2 * n : 2], arrays[1 : 2 * n : 2], frozen)
    except InputError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return net, None, None
