"""Binary container round trips and byte-level stability."""

import hashlib
import json
import struct

import numpy as np
import pytest

from conftest import mlp_specs, small_conv_net, with_frozen
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
    masks = [np.zeros(w.shape, dtype=bool) for w in net.weights]
    masks[0][0, 1] = True
    net = with_frozen(net, masks)
    assert net.weights[0][0, 1] == 0.0
    path = tmp_path / "full.ckpt"
    save_checkpoint(path, net)
    loaded, opt, reg = load_checkpoint(path)
    assert opt is None and reg is None
    assert loaded.frozen is not None
    assert bool(loaded.frozen[0][0, 1]) is True
    assert np.array_equal(loaded.flat_frozen, net.flat_frozen)
    assert loaded.flat_frozen.sum() == 1


def test_resave_is_byte_identical(tmp_path):
    net = with_frozen(small_conv_net(seed=11))
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
    net = frozen_net(15)
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
    net = frozen_net(16)
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
    net = frozen_net(18)
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
                if owner[pos].startswith("fz") and bit == 0:
                    expected = (f"blob.ckpt: layer {owner[pos][2:]}: "
                                "nonzero weight under a frozen flag")
                elif owner[pos].startswith("fz"):
                    expected = f"blob.ckpt: blob {owner[pos]} holds values other than 0 and 1"
                else:
                    expected = f"blob.ckpt: blob {owner[pos]} holds non-finite values"
                assert str(exc).endswith(expected), (pos, bit)
                rejected += 1
                continue
            for arr in loaded.weights + loaded.biases:
                assert np.all(np.isfinite(arr)), (pos, bit)
    # exactly the flips that set a value's exponent to all ones, the seven
    # flips per frozen-mask byte that leave it neither 0 nor 1, and the
    # eighth, which sets a flag over a nonzero weight
    assert rejected == sum(arr.size for arr in floats) + 8 * net.flat_frozen.size


@pytest.mark.parametrize("byte", [2, 255])
def test_frozen_mask_byte_other_than_0_or_1_rejected(tmp_path, byte):
    raw = bytearray(checkpoint_bytes(frozen_net(20)))
    raw[-1] = byte  # the last byte of fz1, the last blob
    path = tmp_path / "fz.ckpt"
    path.write_bytes(bytes(raw))
    with pytest.raises(ConfigError,
                       match=r"fz\.ckpt: blob fz1 holds values other than 0 and 1$"):
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


def frozen_net(seed, frozen=True):
    """A 2-3-2 net with all-clear frozen masks on both layers, or none."""
    net = Network.initialize(mlp_specs([3]), (2,), 2, seed=seed)
    return with_frozen(net) if frozen else net


def test_consistently_reordered_directory_rejected(tmp_path):
    # every blob still sits where the directory says, but not in the order
    # the topology implies
    raw = checkpoint_bytes(frozen_net(21))
    data = blob_data(raw)
    order = ["b0", "w0", "w1", "b1", "fz0", "fz1"]

    def reorder(header):
        by_name = {b["name"]: b for b in header["blobs"]}
        header["blobs"] = [by_name[n] for n in order]

    path = tmp_path / "order.ckpt"
    path.write_bytes(rewrite(raw, reorder, b"".join(data[n] for n in order)))
    with pytest.raises(ConfigError, match="order.ckpt: checkpoint header: blobs "):
        load_checkpoint(path)


def test_directory_entry_with_extra_key_rejected(tmp_path):
    raw = checkpoint_bytes(frozen_net(22, frozen=False))
    path = tmp_path / "extra.ckpt"
    path.write_bytes(rewrite(raw, lambda h: h["blobs"][0].update(offset=0)))
    with pytest.raises(ConfigError, match="extra.ckpt: checkpoint header: blobs "):
        load_checkpoint(path)


def test_header_layer_with_extra_key_rejected(tmp_path):
    raw = checkpoint_bytes(frozen_net(23, frozen=False))
    path = tmp_path / "layer.ckpt"
    path.write_bytes(rewrite(raw, lambda h: h["layers"][1].update(bias=True)))
    with pytest.raises(ConfigError, match=r"layer.ckpt: .*layers\[1\]: unknown keys \['bias'\]"):
        load_checkpoint(path)


@pytest.mark.parametrize("frozen", [[1, 0], [0, 0], [0]])
def test_frozen_layers_neither_none_nor_every_layer_rejected(tmp_path, frozen):
    # a network holds masks for all its layers or for none; the directory
    # and the data list each listed layer's mask once, in the listed order
    listed = list(dict.fromkeys(frozen))
    raw = checkpoint_bytes(frozen_net(24))
    data = blob_data(raw)
    names = ["w0", "b0", "w1", "b1"] + [f"fz{l}" for l in listed]

    def relist(header):
        by_name = {b["name"]: b for b in header["blobs"]}
        header["frozen_layers"] = frozen
        header["blobs"] = [by_name[n] for n in names]

    path = tmp_path / "fz.ckpt"
    path.write_bytes(rewrite(raw, relist, b"".join(data[n] for n in names)))
    with pytest.raises(ConfigError, match=r"fz.ckpt: checkpoint header: frozen_layers \[.*"
                                          r"neither \[\] nor every index of the 2 layers$"):
        load_checkpoint(path)


def _without_w0(raw):
    """``raw`` with its input shape 0 and the empty ``w0`` that shape implies."""
    data = blob_data(raw)

    def zero_input(header):
        header["input_shape"] = [0]
        header["blobs"][0]["shape"] = [0, 3]

    return rewrite(raw, zero_input, b"".join(v for k, v in data.items() if k != "w0"))


@pytest.mark.parametrize("make, message", [
    (lambda raw: rewrite(raw, lambda h: h.update(note=1)),
     r"checkpoint header: unknown keys \['note'\]$"),
    (lambda raw: rewrite(raw, lambda h: h["layers"][0].update(kernel=[3, 3])),
     r"checkpoint header\.layers\[0\]: dense layer takes no kernel, got \[3, 3\]$"),
    (lambda raw: rewrite(raw, lambda h: h["layers"][1].update(kernel=[])),
     r"checkpoint header\.layers\[1\]: dense layer takes no kernel, got \[\]$"),
    (_without_w0, r"checkpoint header: input_shape dims must be >= 1, got \(0,\)$"),
], ids=["unknown-top-level-key", "dense-kernel", "dense-empty-kernel", "zero-input-dim"])
def test_header_the_writer_never_emits_rejected(tmp_path, make, message):
    path = tmp_path / "head.ckpt"
    path.write_bytes(make(checkpoint_bytes(frozen_net(25, frozen=False))))
    with pytest.raises(ConfigError, match=r"head\.ckpt: " + message):
        load_checkpoint(path)
