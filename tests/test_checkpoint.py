"""Binary container round trips and byte-level stability."""

import json
import struct

import numpy as np
import pytest

from conftest import mlp_specs, small_conv_net
from growreg.checkpoint import checkpoint_bytes, load_checkpoint, save_checkpoint
from growreg.errors import ConfigError
from growreg.netcore import Network, OptimState


def test_net_roundtrip(tmp_path):
    net = small_conv_net(seed=9)
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, net)
    loaded, opt, reg = load_checkpoint(path)
    assert opt is None and reg is None
    assert loaded.input_shape == net.input_shape
    assert [s.kind for s in loaded.layers] == [s.kind for s in net.layers]
    for a, b in zip(net.weights, loaded.weights):
        assert np.array_equal(a, b)
    for a, b in zip(net.biases, loaded.biases):
        assert np.array_equal(a, b)


def test_optimizer_and_frozen_roundtrip(tmp_path):
    net = Network.initialize(mlp_specs([5, 4]), (3,), 2, seed=10)
    net.frozen[0] = np.zeros_like(net.weights[0], dtype=bool)
    net.frozen[0][0, 1] = True
    opt = OptimState.for_network(net, 0.01, momentum=0.8, base_decay=1e-4)
    opt.vel_w[0][:] = 0.5
    path = tmp_path / "full.ckpt"
    save_checkpoint(path, net, opt, reg_state={"phase": "done", "iter": 7})
    loaded, lopt, reg = load_checkpoint(path)
    assert reg == {"phase": "done", "iter": 7}
    assert lopt.learning_rate == 0.01 and lopt.momentum == 0.8
    assert np.array_equal(lopt.vel_w[0], opt.vel_w[0])
    assert loaded.frozen[0] is not None
    assert bool(loaded.frozen[0][0, 1]) is True
    assert loaded.frozen[1] is None


def test_resave_is_byte_identical(tmp_path):
    net = small_conv_net(seed=11)
    opt = OptimState.for_network(net, 0.02)
    first = checkpoint_bytes(net, opt)
    loaded, lopt, _ = load_checkpoint_path(tmp_path, first)
    second = checkpoint_bytes(loaded, lopt)
    assert first == second


def load_checkpoint_path(tmp_path, raw):
    path = tmp_path / "x.ckpt"
    path.write_bytes(raw)
    net, opt, reg = load_checkpoint(path)
    return net, opt, reg


def test_same_seed_same_bytes():
    a = checkpoint_bytes(small_conv_net(seed=12))
    b = checkpoint_bytes(small_conv_net(seed=12))
    assert a == b
    c = checkpoint_bytes(small_conv_net(seed=13))
    assert a != c


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
    with pytest.raises(ConfigError):
        load_checkpoint(path)


def test_trailing_bytes_rejected(tmp_path):
    raw = checkpoint_bytes(small_conv_net(seed=14))
    path = tmp_path / "pad.ckpt"
    path.write_bytes(raw + b"\x00")
    with pytest.raises(ConfigError):
        load_checkpoint(path)


def test_every_truncation_rejected(tmp_path):
    net = Network.initialize(mlp_specs([3]), (2,), 2, seed=15)
    net.frozen[0] = np.zeros_like(net.weights[0], dtype=bool)
    raw = checkpoint_bytes(net, OptimState.for_network(net, 0.01))
    path = tmp_path / "cut.ckpt"
    for n in range(len(raw) + 1):
        path.write_bytes(raw[:n])
        if n < len(raw):
            with pytest.raises(ConfigError, match="cut.ckpt"):
                load_checkpoint(path)
        else:
            loaded, opt, _ = load_checkpoint(path)
            assert checkpoint_bytes(loaded, opt) == raw


def test_velocity_of_other_shape_rejected(tmp_path):
    net = Network.initialize(mlp_specs([3]), (2,), 2, seed=17)
    raw = checkpoint_bytes(net, OptimState.for_network(net, 0.01))
    (hlen,) = struct.unpack("<Q", raw[12:20])
    header = json.loads(raw[20 : 20 + hlen])
    blob = next(b for b in header["blobs"] if b["name"] == "vw0")
    assert blob["shape"] == [2, 3]
    blob["shape"] = [6]  # same byte count, other shape
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path = tmp_path / "vel.ckpt"
    path.write_bytes(raw[:12] + struct.pack("<Q", len(head)) + head + raw[20 + hlen :])
    with pytest.raises(ConfigError, match="vel.ckpt: layer 0 velocity shapes"):
        load_checkpoint(path)


def test_every_header_bit_flip_rejected_or_identical(tmp_path):
    net = Network.initialize(mlp_specs([3]), (2,), 2, seed=16)
    net.frozen[0] = np.zeros_like(net.weights[0], dtype=bool)
    raw = checkpoint_bytes(net)
    (hlen,) = struct.unpack("<Q", raw[12:20])
    path = tmp_path / "flip.ckpt"
    for pos in range(20, 20 + hlen):
        for bit in range(8):
            flipped = bytearray(raw)
            flipped[pos] ^= 1 << bit
            path.write_bytes(bytes(flipped))
            try:
                loaded, opt, reg = load_checkpoint(path)
            except ConfigError as exc:
                assert "flip.ckpt" in str(exc), (pos, bit)
                continue
            assert (opt, reg) == (None, None), (pos, bit)
            assert checkpoint_bytes(loaded) == raw, (pos, bit)
