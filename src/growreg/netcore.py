"""Minimal trainable network with exact analytic gradients.

Dense and 2-d convolutional layers (valid padding, stride 1), ReLU or
linear activations, softmax cross-entropy loss, and an SGD optimizer with
momentum whose L2 penalty factor can differ per weight. The penalty is
applied as gradient augmentation inside :func:`sgd_step` (coupled decay),
never inside :func:`loss_and_grads`, so per-group factors are honored and
the reported loss is the task loss alone. Biases are never penalized.

Each network keeps its parameters in two flat float64 buffers, ``flat_w``
and ``flat_b``; ``weights[l]`` and ``biases[l]`` are views into them.
Gradients, velocities and the penalty vector use the same layout, so
:func:`sgd_step` updates the whole network in a few whole-buffer calls.
A layer's view keeps the stride order of the array the network was built
from (numpy's ``order="K"``): a filter cut made by ``np.delete`` along a
dense layer's axis 1 stays F-ordered, and the GEMMs that read it round as
they did before the network was rebuilt. Finiteness is one sum per flat
buffer; only a sum that is not finite (a NaN or inf entry, or finite
entries that overflow) starts a layer-by-layer search, which names the
layer or raises nothing.

Everything is float64 numpy. Training runs in one Python thread, though
numpy's BLAS may add threads of its own; forward passes on a network
nobody is mutating are safe to run from anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError, NumericError

ACTIVATIONS = ("relu", "none")
LAYER_KINDS = ("dense", "conv2d")


@dataclass(frozen=True)
class LayerSpec:
    """Shape-level description of one layer."""

    kind: str
    units: int
    kernel: tuple = None
    activation: str = "relu"
    prunable: bool = True

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise DomainError(f"unknown layer kind {self.kind!r}")
        if self.activation not in ACTIVATIONS:
            raise DomainError(f"unknown activation {self.activation!r}")
        if self.units < 1:
            raise DomainError(f"units must be >= 1, got {self.units}")
        if self.kind == "conv2d":
            if self.kernel is None or len(self.kernel) != 2:
                raise DomainError("conv2d layer needs a (kh, kw) kernel")
            if min(self.kernel) < 1:
                raise DomainError(f"kernel dims must be >= 1, got {self.kernel}")
        object.__setattr__(self, "kernel", tuple(self.kernel) if self.kernel else None)


class _Layout:
    """Where each of a list of arrays sits in one flat float64 buffer.

    A slot keeps the stride order that ``order="K"`` gives the array it was
    laid out from, so its view walks memory in that array's order.
    """

    def __init__(self, arrays):
        self.slots = []
        offset = 0
        for a in arrays:
            strides = np.empty_like(a, dtype=float, order="K").strides
            self.slots.append((a.shape, offset * 8, strides))
            offset += a.size
        self.size = offset

    def views(self, flat):
        return [np.ndarray(shape, float, buffer=flat, offset=off, strides=strides)
                for shape, off, strides in self.slots]

    def allocate(self, alloc=np.zeros):
        """A new flat buffer and its views."""
        flat = alloc(self.size)
        return flat, self.views(flat)

    def copy(self, arrays):
        """A new flat buffer holding copies of ``arrays``, and its views."""
        flat, views = self.allocate(np.empty)
        for view, a in zip(views, arrays):
            view[...] = a
        return flat, views


def _first_non_finite(flat_w, flat_b, layer_views):
    """Index of the first layer holding a NaN or an inf, or None.

    One sum per flat buffer; ``layer_views`` (pairs of per-layer arrays)
    are searched only when the total is not finite. A finite total proves
    every entry finite. Finite entries can also overflow the total; the
    search then finds nothing, so they never raise, though numpy may warn
    of the overflow outside an ``np.errstate`` that silences it.
    """
    if np.isfinite(flat_w.sum() + flat_b.sum()):
        return None
    for l, (w, b) in enumerate(layer_views):
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            return l
    return None


@dataclass
class GradBuffer:
    """Task-loss gradients in the network's layout: ``weights[l]`` and
    ``biases[l]`` are views into ``flat_w`` and ``flat_b``."""

    flat_w: np.ndarray
    flat_b: np.ndarray
    weights: list
    biases: list

    @classmethod
    def for_network(cls, net):
        """Zero gradients in ``net``'s layout."""
        flat_w, weights = net._w_layout.allocate()
        flat_b, biases = net._b_layout.allocate()
        return cls(flat_w, flat_b, weights, biases)

    def check_finite(self):
        pairs = zip(self.weights, self.biases)
        if _first_non_finite(self.flat_w, self.flat_b, pairs) is not None:
            raise NumericError("non-finite gradient values")


class Network:
    """Layered parameter store with shape inference done once up front.

    ``weights[l]`` is ``(fan_in, units)`` for dense layers and
    ``(filters, in_channels, kh, kw)`` for conv layers; ``biases[l]`` is
    ``(units,)``. They are views into ``flat_w`` and ``flat_b``, filled
    with copies of the arrays given, each in its stride order; write
    through them, never rebind them. ``frozen[l]`` is an optional boolean
    mask of weights pinned at exactly zero (set by unstructured hard
    pruning).
    """

    def __init__(self, layers, input_shape, classes, weights, biases, frozen=None):
        self.layers = list(layers)
        self.input_shape = tuple(int(s) for s in input_shape)
        self.classes = int(classes)
        self.weights = list(weights)
        self.biases = list(biases)
        self.frozen = list(frozen) if frozen is not None else [None] * len(self.layers)
        self._validate()
        self._w_layout = _Layout(self.weights)
        self._b_layout = _Layout(self.biases)
        self.flat_w, self.weights = self._w_layout.copy(self.weights)
        self.flat_b, self.biases = self._b_layout.copy(self.biases)
        if not np.isfinite(self.flat_w).all():
            raise NumericError("non-finite weight values")
        if not np.isfinite(self.flat_b).all():
            raise NumericError("non-finite bias values")

    # -- construction ----------------------------------------------------

    @classmethod
    def initialize(cls, layers, input_shape, classes, seed=0):
        """He-style fan-in init with a seeded generator; biases start at zero."""
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for spec, (_, w_shape) in zip(layers, layer_shapes(layers, input_shape)):
            fan_in = math.prod(w_shape) // spec.units
            weights.append(rng.standard_normal(w_shape) * np.sqrt(2.0 / fan_in))
            biases.append(np.zeros(spec.units))
        return cls(layers, input_shape, classes, weights, biases)

    def _validate(self):
        if not self.layers:
            raise DimensionError("network needs at least one layer")
        shapes = layer_shapes(self.layers, self.input_shape)
        for l, (spec, (_, expect)) in enumerate(zip(self.layers, shapes)):
            w, b = self.weights[l], self.biases[l]
            if w.shape != expect:
                raise DimensionError(
                    f"layer {l} weight shape {w.shape}, expected {expect}"
                )
            if b.shape != (spec.units,):
                raise DimensionError(
                    f"layer {l} bias shape {b.shape}, expected ({spec.units},)"
                )
            if self.frozen[l] is not None and self.frozen[l].shape != w.shape:
                raise DimensionError(f"layer {l} frozen mask shape mismatch")
        last = self.layers[-1]
        if last.activation != "none":
            raise DomainError("final layer must emit raw logits (activation 'none')")
        if last.units != self.classes:
            raise DimensionError(
                f"final layer has {last.units} units for {self.classes} classes"
            )

    # -- conveniences ------------------------------------------------------

    def clone(self):
        """An independent copy whose layers are all C-ordered."""
        return Network(
            self.layers,
            self.input_shape,
            self.classes,
            [np.ascontiguousarray(w) for w in self.weights],
            self.biases,
            [m.copy() if m is not None else None for m in self.frozen],
        )

    def num_weights(self):
        return int(self.flat_w.size)


def layer_shapes(layers, input_shape):
    """Each layer's ``(input shape, weight shape)``; raises on incompatible chains."""
    shapes = []
    current = tuple(input_shape)
    for l, spec in enumerate(layers):
        if spec.kind == "dense":
            w_shape = (math.prod(current), spec.units)
            out = (spec.units,)
        else:
            if len(current) != 3:
                raise DimensionError(
                    f"conv2d layer {l} needs (channels, h, w) input, got {current}"
                )
            c, h, w = current
            kh, kw = spec.kernel
            oh, ow = h - kh + 1, w - kw + 1
            if oh < 1 or ow < 1:
                raise DimensionError(
                    f"conv2d layer {l}: kernel {spec.kernel} larger than input {current}"
                )
            w_shape = (spec.units, c, kh, kw)
            out = (spec.units, oh, ow)
        shapes.append((current, w_shape))
        current = out
    return shapes


# -- forward / backward ----------------------------------------------------


def _conv_forward(x, w):
    b, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    oh, ow = h - kh + 1, wd - kw + 1
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(b * oh * ow, c * kh * kw)
    out = cols @ w.reshape(f, -1).T
    return out.reshape(b, oh, ow, f).transpose(0, 3, 1, 2), cols


def forward(net: Network, batch_inputs):
    """Run the network; returns (logits, cache) with cache feeding backward.

    Accepts inputs either in native shape ``(batch, *input_shape)`` or
    flattened ``(batch, prod(input_shape))``. ``cache[l]`` is the pair
    ``(inputs, z)``: the 2-d matrix layer ``l`` multiplied by its weights
    (the flattened input of a dense layer, the im2col patches of a conv
    layer) and its pre-activation output.
    """
    x = np.asarray(batch_inputs, dtype=float)
    native = (len(x.shape) - 1 == len(net.input_shape)) and (
        x.shape[1:] == net.input_shape
    )
    if not native:
        if x.ndim != 2 or x.shape[1] != int(np.prod(net.input_shape)):
            raise DimensionError(
                f"batch shape {x.shape} incompatible with input shape {net.input_shape}"
            )
        x = x.reshape(x.shape[0], *net.input_shape)
    cache = []
    for spec, w, b in zip(net.layers, net.weights, net.biases):
        if spec.kind == "dense":
            if x.ndim != 2:
                x = x.reshape(x.shape[0], -1)
            inputs = x
            z = x @ w
            z += b
        else:
            z, inputs = _conv_forward(x, w)
            z = z + b[None, :, None, None]
        cache.append((inputs, z))
        x = np.maximum(z, 0.0) if spec.activation == "relu" else z
    return x, cache


def accuracy(net: Network, inputs, labels) -> float:
    logits = forward(net, inputs)[0]
    return float(np.mean(np.argmax(logits, axis=1) == np.asarray(labels)))


def softmax_cross_entropy(logits, labels):
    """Mean CE loss and d(loss)/d(logits) for integer labels."""
    z = np.asarray(logits, dtype=float)
    y = np.asarray(labels)
    n, c = z.shape
    if y.shape != (n,):
        raise DimensionError(f"labels shape {y.shape}, expected ({n},)")
    if y.min() < 0 or y.max() >= c:
        raise DomainError(f"labels out of range [0, {c})")
    # non-finite logits surface as a NumericError downstream, not a warning
    with np.errstate(invalid="ignore", over="ignore"):
        zmax = z.max(axis=1, keepdims=True)
        lse = zmax + np.log(np.exp(z - zmax).sum(axis=1, keepdims=True))
        loss = float(np.mean(lse[:, 0] - z[np.arange(n), y]))
        probs = np.exp(z - lse)
    dlogits = probs
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n
    return loss, dlogits


def loss_and_grads(net: Network, batch, labels):
    """Task loss and its exact gradients (no penalty term).

    Backward walks the cached activations from the last layer down and
    stops after layer 0's weight and bias gradients, since nothing reads
    the gradient with respect to the input batch. A conv layer's input
    gradient is col2im: the upstream gradient times the kernel matrix gives
    one column of input-patch gradients per output position, and each of
    the ``kh * kw`` kernel offsets is scatter-added into the input map.
    The gradients are written into a fresh :class:`GradBuffer` in the
    network's layout.
    """
    logits, cache = forward(net, batch)
    loss, dout = softmax_cross_entropy(logits, labels)
    if not np.isfinite(loss):
        raise NumericError(f"loss is not finite ({loss})")
    grads = GradBuffer.for_network(net)
    for l in range(len(net.layers) - 1, -1, -1):
        spec, w = net.layers[l], net.weights[l]
        inputs, z = cache[l]
        if spec.kind == "conv2d":  # a dense consumer passes back flat rows
            dout = dout.reshape(z.shape)
        dz = dout * (z > 0) if spec.activation == "relu" else dout
        if spec.kind == "dense":
            np.matmul(inputs.T, dz, out=grads.weights[l])
            dz.sum(axis=0, out=grads.biases[l])
            if l > 0:
                dout = dz @ w.T
        else:
            b, f, oh, ow = dz.shape
            dz_mat = dz.transpose(0, 2, 3, 1).reshape(b * oh * ow, f)
            grads.weights[l][...] = (dz_mat.T @ inputs).reshape(w.shape)
            dz.sum(axis=(0, 2, 3), out=grads.biases[l])
            if l > 0:
                c, kh, kw = w.shape[1:]
                h, wd = oh + kh - 1, ow + kw - 1
                # channels-last so each offset adds contiguous channel rows
                w_mat = w.transpose(0, 2, 3, 1).reshape(f, -1)
                dcols = (dz_mat @ w_mat).reshape(b, oh, ow, kh, kw, c)
                dx = np.zeros((b, h, wd, c))
                for i in range(kh):
                    for j in range(kw):
                        dx[:, i : i + oh, j : j + ow] += dcols[:, :, :, i, j]
                dout = dx.transpose(0, 3, 1, 2)
    grads.check_finite()
    return loss, grads


# -- optimizer ---------------------------------------------------------------


@dataclass
class OptimState:
    """SGD-with-momentum state in the network's layout.

    Velocities are two flat buffers; ``vel_w[l]`` is a view into the
    weights' one.
    """

    learning_rate: float
    momentum: float = 0.9
    base_decay: float = 5e-4
    flat_vel_w: np.ndarray = field(default=None, init=False)
    flat_vel_b: np.ndarray = field(default=None, init=False)
    vel_w: list = field(default=None, init=False)

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise DomainError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not 0 <= self.momentum < 1:
            raise DomainError(f"momentum must lie in [0, 1), got {self.momentum}")

    @classmethod
    def for_network(cls, net: Network, learning_rate, momentum=0.9, base_decay=5e-4):
        state = cls(learning_rate, momentum, base_decay)
        state.flat_vel_w, state.vel_w = net._w_layout.allocate()
        state.flat_vel_b = np.zeros(net.flat_b.size)
        return state


def sgd_step(net: Network, grads: GradBuffer, opt: OptimState, penalty=None):
    """One momentum-SGD update with a per-weight L2 penalty factor.

    ``penalty`` is a flat vector of one factor per weight in ``net.flat_w``'s
    layout, as :func:`groups.expand_group_values` builds it, or None for
    the optimizer's base decay on every weight. Negative factors (which
    grow weights) are allowed; ``penalty`` is read, never written, and its
    shape is checked before anything changes. Frozen weights and their
    velocities are pinned back to zero after the update. ``grads`` and
    ``opt`` must be laid out for ``net`` (made from it by
    :func:`loss_and_grads`, :meth:`GradBuffer.for_network` and
    :meth:`OptimState.for_network`), since the update pairs flat buffers
    entry by entry. Mutates ``net`` and ``opt`` and returns ``net``.
    """
    if penalty is None:
        penalty = opt.base_decay
    elif penalty.shape != net.flat_w.shape:
        raise DimensionError(
            f"penalty factors shape {penalty.shape}, expected {net.flat_w.shape}"
        )
    v, vb = opt.flat_vel_w, opt.flat_vel_b
    v *= opt.momentum
    v += grads.flat_w + penalty * net.flat_w
    net.flat_w -= opt.learning_rate * v
    vb *= opt.momentum
    vb += grads.flat_b
    net.flat_b -= opt.learning_rate * vb
    for w, vl, mask in zip(net.weights, opt.vel_w, net.frozen):
        if mask is not None:
            w[mask] = 0.0
            vl[mask] = 0.0
    bad = _first_non_finite(net.flat_w, net.flat_b, zip(net.weights, net.biases))
    if bad is not None:
        raise NumericError(f"layer {bad}: non-finite parameters after update")
    return net
