"""Binary container round trips and byte-level stability."""

import hashlib
import json
import struct

import numpy as np
import pytest

from conftest import mlp_specs, small_conv_net
from growreg.checkpoint import checkpoint_bytes, load_checkpoint, save_checkpoint
from growreg.errors import ConfigError
from growreg.netcore import Network


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


def test_frozen_roundtrip(tmp_path):
    net = Network.initialize(mlp_specs([5, 4]), (3,), 2, seed=10)
    net.frozen[0] = np.zeros_like(net.weights[0], dtype=bool)
    net.frozen[0][0, 1] = True
    path = tmp_path / "full.ckpt"
    save_checkpoint(path, net)
    loaded, opt, reg = load_checkpoint(path)
    assert opt is None and reg is None
    assert loaded.frozen[0] is not None
    assert bool(loaded.frozen[0][0, 1]) is True
    assert loaded.frozen[1] is None


def test_resave_is_byte_identical(tmp_path):
    net = small_conv_net(seed=11)
    net.frozen[1] = np.zeros_like(net.weights[1], dtype=bool)
    first = checkpoint_bytes(net)
    loaded, _, _ = load_checkpoint_path(tmp_path, first)
    second = checkpoint_bytes(loaded)
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
    assert hashlib.sha256(a).hexdigest()[:16] == "5fc19033ea3ca35e"
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
    raw = checkpoint_bytes(net)
    path = tmp_path / "cut.ckpt"
    for n in range(len(raw) + 1):
        path.write_bytes(raw[:n])
        if n < len(raw):
            with pytest.raises(ConfigError, match="cut.ckpt"):
                load_checkpoint(path)
        else:
            loaded, _, _ = load_checkpoint(path)
            assert checkpoint_bytes(loaded) == raw


def test_velocity_of_other_shape_rejected(tmp_path):
    # format 2 stores no optimizer state: a velocity blob in the
    # directory, of whatever shape, is rejected with the path named
    net = Network.initialize(mlp_specs([3]), (2,), 2, seed=17)
    raw = checkpoint_bytes(net)
    (hlen,) = struct.unpack("<Q", raw[12:20])
    header = json.loads(raw[20 : 20 + hlen])
    header["blobs"].append({"name": "vw0", "shape": [6], "dtype": "<f8"})
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path = tmp_path / "vel.ckpt"
    path.write_bytes(raw[:12] + struct.pack("<Q", len(head)) + head + raw[20 + hlen :]
                     + np.zeros(6).tobytes())
    with pytest.raises(ConfigError, match="vel.ckpt: checkpoint header: blobs .*'vw0'"):
        load_checkpoint(path)


def test_integer_past_the_digit_limit_rejected(tmp_path):
    # json.loads raises a plain ValueError past 4,300 digits
    raw = checkpoint_bytes(Network.initialize(mlp_specs([3]), (2,), 2, seed=20))
    (hlen,) = struct.unpack("<Q", raw[12:20])
    head = raw[20 : 20 + hlen].replace(b'"classes":2', b'"classes":2' + b"0" * 4999)
    path = tmp_path / "big.ckpt"
    path.write_bytes(raw[:12] + struct.pack("<Q", len(head)) + head + raw[20 + hlen :])
    with pytest.raises(ConfigError, match="big.ckpt: unreadable checkpoint header"):
        load_checkpoint(path)


def test_version_1_rejected(tmp_path):
    raw = checkpoint_bytes(Network.initialize(mlp_specs([3]), (2,), 2, seed=19))
    assert struct.unpack("<I", raw[8:12]) == (2,)
    path = tmp_path / "old.ckpt"
    path.write_bytes(raw[:8] + struct.pack("<I", 1) + raw[12:])
    with pytest.raises(ConfigError, match="old.ckpt: unsupported checkpoint version 1$"):
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


def test_every_blob_bit_flip_rejected_or_finite(tmp_path):
    net = Network.initialize(mlp_specs([3]), (2,), 2, seed=18)
    net.frozen[0] = np.zeros_like(net.weights[0], dtype=bool)
    # magnitudes in [1, 2): flipping the top exponent bit of any of them
    # gives an infinity or a NaN, in weights and biases alike
    rng = np.random.default_rng(0)
    floats = net.weights + net.biases
    for arr in floats:
        arr[...] = rng.uniform(1, 2, arr.shape) * rng.choice([-1, 1], arr.shape)
    raw = checkpoint_bytes(net)
    (hlen,) = struct.unpack("<Q", raw[12:20])
    owner, start = {}, 20 + hlen  # byte offset -> name of the blob holding it
    for blob in json.loads(raw[20:start])["blobs"]:
        size = int(np.prod(blob["shape"])) * np.dtype(blob["dtype"]).itemsize
        owner.update((pos, blob["name"]) for pos in range(start, start + size))
        start += size
    path = tmp_path / "blob.ckpt"
    rejected = 0
    for pos in range(20 + hlen, len(raw)):
        for bit in range(8):
            flipped = bytearray(raw)
            flipped[pos] ^= 1 << bit
            path.write_bytes(bytes(flipped))
            try:
                loaded, _, _ = load_checkpoint(path)
            except ConfigError as exc:
                fault = ("values other than 0 and 1" if owner[pos].startswith("fz")
                         else "non-finite values")
                expected = f"blob.ckpt: blob {owner[pos]} holds {fault}"
                assert str(exc).endswith(expected), (pos, bit)
                rejected += 1
                continue
            for arr in loaded.weights + loaded.biases:
                assert np.all(np.isfinite(arr)), (pos, bit)
    # exactly the flips that set a value's exponent to all ones, and the
    # seven flips per frozen-mask byte that leave it neither 0 nor 1
    assert rejected == sum(arr.size for arr in floats) + 7 * net.frozen[0].size


@pytest.mark.parametrize("byte", [2, 255])
def test_frozen_mask_byte_other_than_0_or_1_rejected(tmp_path, byte):
    raw = bytearray(checkpoint_bytes(frozen_net(20, [0])))
    raw[-1] = byte  # the last byte of fz0, the last blob
    path = tmp_path / "fz.ckpt"
    path.write_bytes(bytes(raw))
    with pytest.raises(ConfigError,
                       match=r"fz\.ckpt: blob fz0 holds values other than 0 and 1$"):
        load_checkpoint(path)



def rewrite(raw, edit, blobs=None):
    """``raw`` with its JSON header passed through ``edit`` and, when given,
    its blob data replaced by ``blobs``."""
    (hlen,) = struct.unpack("<Q", raw[12:20])
    header = json.loads(raw[20 : 20 + hlen])
    edit(header)
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    data = raw[20 + hlen :] if blobs is None else blobs
    return raw[:12] + struct.pack("<Q", len(head)) + head + data


def blob_data(raw):
    """Each blob's bytes by name, in file order."""
    (hlen,) = struct.unpack("<Q", raw[12:20])
    out, start = {}, 20 + hlen
    for blob in json.loads(raw[20:start])["blobs"]:
        size = int(np.prod(blob["shape"])) * np.dtype(blob["dtype"]).itemsize
        out[blob["name"]] = raw[start : start + size]
        start += size
    return out


def frozen_net(seed, frozen_layers):
    net = Network.initialize(mlp_specs([3]), (2,), 2, seed=seed)
    for l in frozen_layers:
        net.frozen[l] = np.zeros_like(net.weights[l], dtype=bool)
    return net


def test_consistently_reordered_directory_rejected(tmp_path):
    # every blob still sits where the directory says, but not in the order
    # the topology implies
    raw = checkpoint_bytes(frozen_net(21, [0]))
    data = blob_data(raw)
    order = ["b0", "w0", "w1", "b1", "fz0"]

    def reorder(header):
        by_name = {b["name"]: b for b in header["blobs"]}
        header["blobs"] = [by_name[n] for n in order]

    path = tmp_path / "order.ckpt"
    path.write_bytes(rewrite(raw, reorder, b"".join(data[n] for n in order)))
    with pytest.raises(ConfigError, match="order.ckpt: checkpoint header: blobs "):
        load_checkpoint(path)


def test_directory_entry_with_extra_key_rejected(tmp_path):
    raw = checkpoint_bytes(frozen_net(22, []))
    path = tmp_path / "extra.ckpt"
    path.write_bytes(rewrite(raw, lambda h: h["blobs"][0].update(offset=0)))
    with pytest.raises(ConfigError, match="extra.ckpt: checkpoint header: blobs "):
        load_checkpoint(path)


def test_header_layer_with_extra_key_rejected(tmp_path):
    raw = checkpoint_bytes(frozen_net(23, []))
    path = tmp_path / "layer.ckpt"
    path.write_bytes(rewrite(raw, lambda h: h["layers"][1].update(bias=True)))
    with pytest.raises(ConfigError, match=r"layer.ckpt: .*layers\[1\]: unknown keys \['bias'\]"):
        load_checkpoint(path)


@pytest.mark.parametrize("frozen", [[1, 0], [0, 0]])
def test_frozen_layers_not_strictly_increasing_rejected(tmp_path, frozen):
    # the directory and the data list each frozen layer's mask once, in
    # the listed order
    listed = list(dict.fromkeys(frozen))
    raw = checkpoint_bytes(frozen_net(24, listed))
    data = blob_data(raw)
    names = ["w0", "b0", "w1", "b1"] + [f"fz{l}" for l in listed]

    def relist(header):
        by_name = {b["name"]: b for b in header["blobs"]}
        header["frozen_layers"] = frozen
        header["blobs"] = [by_name[n] for n in names]

    path = tmp_path / "fz.ckpt"
    path.write_bytes(rewrite(raw, relist, b"".join(data[n] for n in names)))
    with pytest.raises(ConfigError, match=r"fz.ckpt: checkpoint header: frozen_layers \["):
        load_checkpoint(path)
