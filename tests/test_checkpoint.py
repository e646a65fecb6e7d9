"""Binary container round trips and byte-level stability."""

import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mlp_specs, small_conv_net, with_frozen
from growreg.checkpoint import checkpoint_bytes, load_checkpoint, save_checkpoint
from growreg.errors import ConfigError
from growreg.netcore import LayerSpec, Network


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
    assert hashlib.sha256(a).hexdigest()[:16] == "4f985eb8077c5223"
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
    # the format stores no optimizer state: a velocity blob after the ones
    # the topology implies is rejected, even with the digest signed over it
    raw = checkpoint_bytes(Network.initialize(mlp_specs([3]), (2,), 2, seed=17))
    path = tmp_path / "vel.ckpt"
    path.write_bytes(rewrite(raw, lambda h: None, blob_bytes(raw) + np.zeros(6).tobytes()))
    with pytest.raises(ConfigError, match=r"vel\.ckpt: trailing bytes after declared blobs$"):
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
    assert struct.unpack("<I", raw[8:12]) == (3,)
    path = tmp_path / "old.ckpt"
    path.write_bytes(raw[:8] + struct.pack("<I", 1) + raw[12:])
    with pytest.raises(ConfigError, match="old.ckpt: unsupported checkpoint version 1$"):
        load_checkpoint(path)


def test_version_2_rejected(tmp_path):
    raw = checkpoint_bytes(Network.initialize(mlp_specs([3]), (2,), 2, seed=19))
    path = tmp_path / "v2.ckpt"
    path.write_bytes(raw[:8] + struct.pack("<I", 2) + raw[12:])
    with pytest.raises(ConfigError, match="v2.ckpt: unsupported checkpoint version 2$"):
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


def test_every_blob_bit_flip_rejected(tmp_path):
    raw = checkpoint_bytes(frozen_net(18))
    (hlen,) = struct.unpack("<Q", raw[12:20])
    path = tmp_path / "blob.ckpt"
    rejected = 0
    for pos in range(20 + hlen, len(raw)):
        for bit in range(8):
            flipped = bytearray(raw)
            flipped[pos] ^= 1 << bit
            path.write_bytes(bytes(flipped))
            with pytest.raises(ConfigError) as exc:
                load_checkpoint(path)
            assert str(exc.value) == f"{path}: blob bytes do not match the header's sha256"
            rejected += 1
    assert rejected == 8 * len(blob_bytes(raw)) > 0


@pytest.mark.parametrize("byte", [2, 255])
def test_frozen_mask_byte_other_than_0_or_1_rejected(tmp_path, byte):
    # signed again after the edit, so the digest matches
    raw = checkpoint_bytes(frozen_net(20))
    data = bytearray(blob_bytes(raw))
    data[-1] = byte  # the last byte of fz1, the last blob
    path = tmp_path / "fz.ckpt"
    path.write_bytes(rewrite(raw, lambda h: None, bytes(data)))
    with pytest.raises(ConfigError,
                       match=r"fz\.ckpt: blob fz1 holds values other than 0 and 1$"):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_blob_rejected_though_signed(tmp_path, value):
    net = frozen_net(26, frozen=False)
    net.biases[1][0] = value  # b1 is the last blob
    raw = checkpoint_bytes(net)
    path = tmp_path / "nan.ckpt"
    path.write_bytes(raw)
    with pytest.raises(ConfigError, match=r"nan\.ckpt: blob b1 holds non-finite values$"):
        load_checkpoint(path)


def test_frozen_flag_over_nonzero_weight_rejected_though_signed(tmp_path):
    raw = checkpoint_bytes(frozen_net(27))
    data = bytearray(blob_bytes(raw))
    data[-6] = 1  # the first flag of fz1, over the first weight of w1
    path = tmp_path / "flag.ckpt"
    path.write_bytes(rewrite(raw, lambda h: None, bytes(data)))
    with pytest.raises(ConfigError,
                       match=r"flag\.ckpt: layer 1: nonzero weight under a frozen flag$"):
        load_checkpoint(path)


def rewrite(raw, edit, blobs=None):
    """``raw`` with its blob data replaced by ``blobs`` when given and signed
    again, then its JSON header passed through ``edit``."""
    (hlen,) = struct.unpack("<Q", raw[12:20])
    header = json.loads(raw[20 : 20 + hlen])
    data = raw[20 + hlen :] if blobs is None else blobs
    header["sha256"] = hashlib.sha256(data).hexdigest()
    edit(header)
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return raw[:12] + struct.pack("<Q", len(head)) + head + data


def blob_bytes(raw):
    """Every blob's bytes, in file order."""
    (hlen,) = struct.unpack("<Q", raw[12:20])
    return raw[20 + hlen :]


def frozen_net(seed, frozen=True):
    """A 2-3-2 net with all-clear frozen masks on both layers, or none."""
    net = Network.initialize(mlp_specs([3]), (2,), 2, seed=seed)
    return with_frozen(net) if frozen else net


def test_header_layer_with_extra_key_rejected(tmp_path):
    raw = checkpoint_bytes(frozen_net(23, frozen=False))
    path = tmp_path / "layer.ckpt"
    path.write_bytes(rewrite(raw, lambda h: h["layers"][1].update(bias=True)))
    with pytest.raises(ConfigError, match=r"layer.ckpt: .*layers\[1\]: unknown keys \['bias'\]"):
        load_checkpoint(path)


@pytest.mark.parametrize("frozen", [[1, 0], [0, 0], [0]])
def test_frozen_layers_neither_none_nor_every_layer_rejected(tmp_path, frozen):
    # a network holds masks for all its layers or for none, so the header
    # says which with one boolean; format 2's list of layer indices, which
    # could name some layers only, is an unknown key
    raw = checkpoint_bytes(frozen_net(24))

    def relist(header):
        del header["frozen"]
        header["frozen_layers"] = frozen

    path = tmp_path / "fz.ckpt"
    path.write_bytes(rewrite(raw, relist))
    with pytest.raises(ConfigError, match=r"fz.ckpt: checkpoint header: "
                                          r"unknown keys \['frozen_layers'\]$"):
        load_checkpoint(path)


def _without_w0(raw):
    """``raw`` with its input shape 0 and without the 2x3 ``w0`` of the
    2-3-2 net, as that shape implies, signed again."""
    return rewrite(raw, lambda h: h.update(input_shape=[0]), blob_bytes(raw)[2 * 3 * 8 :])


@pytest.mark.parametrize("make, message", [
    (lambda raw: rewrite(raw, lambda h: h.update(note=1)),
     r"checkpoint header: unknown keys \['note'\]$"),
    (lambda raw: rewrite(raw, lambda h: h["layers"][0].update(kernel=[3, 3])),
     r"checkpoint header\.layers\[0\]: dense layer takes no kernel, got \[3, 3\]$"),
    (lambda raw: rewrite(raw, lambda h: h["layers"][1].update(kernel=[])),
     r"checkpoint header\.layers\[1\]: dense layer takes no kernel, got \[\]$"),
    (_without_w0, r"checkpoint header: input_shape dims must be >= 1, got \(0,\)$"),
    (lambda raw: rewrite(raw, lambda h: h.update(blobs=[])),
     r"checkpoint header: unknown keys \['blobs'\]$"),
    (lambda raw: rewrite(raw, lambda h: h.update(frozen=0)),
     r"checkpoint header: 'frozen' is 0, expected bool$"),
    (lambda raw: rewrite(raw, lambda h: h.update(frozen=None)),
     r"checkpoint header: 'frozen' is None, expected bool$"),
    (lambda raw: rewrite(raw, lambda h: h.pop("sha256")),
     r"checkpoint header: missing required keys \['sha256'\]$"),
], ids=["unknown-top-level-key", "dense-kernel", "dense-empty-kernel", "zero-input-dim",
        "blob-directory", "frozen-int", "frozen-null", "no-digest"])
def test_header_the_writer_never_emits_rejected(tmp_path, make, message):
    path = tmp_path / "head.ckpt"
    path.write_bytes(make(checkpoint_bytes(frozen_net(25, frozen=False))))
    with pytest.raises(ConfigError, match=r"head\.ckpt: " + message):
        load_checkpoint(path)


@st.composite
def small_nets(draw):
    """A seeded net of a few dense layers, after up to two conv layers when
    its input is (channels, h, w); frozen or not, C- or F-ordered weights."""
    seed = draw(st.integers(0, 2**16))
    layers = []
    if draw(st.booleans()):
        shape = (draw(st.integers(1, 3)), draw(st.integers(1, 5)), draw(st.integers(1, 5)))
        h, w = shape[1:]
        for _ in range(draw(st.integers(0, 2))):
            kh, kw = draw(st.integers(1, h)), draw(st.integers(1, w))
            layers.append(LayerSpec("conv2d", draw(st.integers(1, 4)), kernel=(kh, kw),
                                    activation=draw(st.sampled_from(["relu", "none"]))))
            h, w = h - kh + 1, w - kw + 1
    else:
        shape = tuple(draw(st.lists(st.integers(1, 4), max_size=2)))
    for units in draw(st.lists(st.integers(1, 5), max_size=2)):
        layers.append(LayerSpec("dense", units, prunable=draw(st.booleans())))
    classes = draw(st.integers(1, 4))
    layers.append(LayerSpec("dense", classes, activation="none", prunable=False))
    net = Network.initialize(layers, shape, classes, seed=seed)
    if draw(st.booleans()):
        net = Network(net.layers, net.input_shape, net.classes,
                      [np.asfortranarray(w) for w in net.weights], net.biases)
    if draw(st.booleans()):
        rng = np.random.default_rng(seed)
        net = with_frozen(net, [rng.random(w.shape) < 0.3 for w in net.weights])
    return net


@settings(max_examples=60, deadline=None)
@given(net=small_nets())
def test_save_load_roundtrip_property(tmp_path_factory, net):
    path = tmp_path_factory.mktemp("prop") / "net.ckpt"
    saved = save_checkpoint(path, net)
    loaded, _, _ = load_checkpoint(path)
    assert (loaded.layers, loaded.input_shape, loaded.classes) == \
        (net.layers, net.input_shape, net.classes)
    for ours, theirs in zip(net.weights + net.biases, loaded.weights + loaded.biases):
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)
    assert (loaded.frozen is None) == (net.frozen is None)
    for ours, theirs in zip(net.frozen or (), loaded.frozen or ()):
        assert np.array_equal(ours, theirs)
    assert checkpoint_bytes(loaded) == saved
