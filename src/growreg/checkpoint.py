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
import struct

import numpy as np

from .errors import ConfigError
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


def load_checkpoint(path):
    """Returns (network, optimizer-or-None, reg_state-doc-or-None)."""
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
    header = json.loads(raw[20 : 20 + hlen].decode("utf-8"))
    offset = 20 + hlen
    arrays = {}
    for blob in header["blobs"]:
        dt = np.dtype(blob["dtype"])
        count = int(np.prod(blob["shape"])) if blob["shape"] else 1
        nbytes = count * dt.itemsize
        need(offset + nbytes, f"blob {blob['name']}")
        arrays[blob["name"]] = np.frombuffer(
            raw, dtype=dt, count=count, offset=offset
        ).reshape(blob["shape"]).copy()
        offset += nbytes
    if offset != len(raw):
        raise ConfigError(f"{path}: trailing bytes after declared blobs")

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
    n_layers = len(specs)
    weights = [arrays[f"w{l}"] for l in range(n_layers)]
    biases = [arrays[f"b{l}"] for l in range(n_layers)]
    frozen = [None] * n_layers
    for l in header["frozen_layers"]:
        frozen[l] = arrays[f"fz{l}"].astype(bool)
    net = Network(specs, header["input_shape"], header["classes"], weights, biases, frozen)
    opt = None
    if header["optimizer"] is not None:
        o = header["optimizer"]
        opt = OptimState(o["learning_rate"], o["momentum"], o["base_decay"])
        opt.vel_w = [arrays[f"vw{l}"] for l in range(n_layers)]
        opt.vel_b = [arrays[f"vb{l}"] for l in range(n_layers)]
    return net, opt, header["reg_state"]
