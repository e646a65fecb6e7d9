"""Minimal trainable network with exact analytic gradients.

Dense and 2-d convolutional layers (valid padding, stride 1), ReLU or
linear activations, softmax cross-entropy loss, and an SGD optimizer with
momentum whose L2 penalty factor can differ per weight. The penalty is
applied as gradient augmentation inside :func:`sgd_step` (coupled decay),
never inside :func:`loss_and_grads`, so per-group factors are honored and
the reported loss is the task loss alone. Biases are never penalized.

Each network keeps its parameters in two flat float64 buffers, ``flat_w``
and ``flat_b``; ``weights[l]`` and ``biases[l]`` are views into them.
Gradients, velocities, the penalty vector and the boolean frozen-weight
mask ``flat_frozen`` use the same layout, so :func:`sgd_step` updates and
pins the whole network in a few whole-buffer calls. A layer's view
keeps the stride order of the array the network was built from (numpy's
``order="K"``): a filter cut made by ``np.delete`` along a dense layer's
axis 1 stays F-ordered, and the GEMMs that read it round as they did
before the network was rebuilt. Finiteness is one sum per flat
buffer; only a sum that is not finite (a NaN or inf entry, or finite
entries that overflow) starts a layer-by-layer search, which names the
layer or raises nothing.

Image activations are channels-last, ``(batch, h, w, c)``, from the
input to the flatten before a dense layer; the flatten takes them in
``(c, h, w)`` order, so dense weights, pruning and checkpoints see the
stored layouts, and a conv weight stays ``(filters, c, kh, kw)``. A conv
layer's im2col patches have their columns in ``(kh, kw, c)`` order, so
each copied run is ``kw * c`` contiguous doubles, and its col2im adds one
contiguous block of patch gradients per kernel offset.

Everything is float64 numpy. Training runs in one Python thread, and
matrix products use as many BLAS threads as numpy's BLAS decides; this
module sets no thread count. :func:`accuracy` runs :func:`forward` on
slices of ``EVAL_ROWS`` rows. At 64 rows, the batch size of the desk
training steps, no dense evaluation product is larger than a step's, so
it stays under OpenBLAS's threading threshold as the steps do; a whole
512-row validation pass would wake a second thread that then spins
between calls, doubling the CPU time of a dense run for no wall time.
Row slices leave every logit bit-identical to one whole-batch pass,
except a last slice of one row, whose product runs as a
matrix-vector call and may differ in the last bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError, NumericError

ACTIVATIONS = ("relu", "none")
LAYER_KINDS = ("dense", "conv2d")
EVAL_ROWS = 64


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
            object.__setattr__(self, "kernel", tuple(self.kernel))
        elif self.kernel is not None:
            raise DomainError(f"dense layer takes no kernel, got {self.kernel}")


class _Layout:
    """Where each of a list of arrays sits in one flat buffer of any dtype:
    a slot's view reshapes its span with the axes sorted by the laid-out
    array's strides, largest first, and transposes them back.
    """

    def __init__(self, arrays):
        self.slots = []
        offset = 0
        for a in arrays:
            order = sorted(range(a.ndim), key=lambda ax: -abs(a.strides[ax]))
            self.slots.append((offset, offset + a.size, tuple(a.shape[ax] for ax in order),
                               tuple(order.index(ax) for ax in range(a.ndim))))
            offset += a.size
        self.size = offset

    def views(self, flat):
        return tuple(flat[lo:hi].reshape(shape).transpose(axes)
                     for lo, hi, shape, axes in self.slots)

    def allocate(self, alloc=np.zeros, dtype=float):
        """A new flat buffer and its views."""
        flat = alloc(self.size, dtype)
        return flat, self.views(flat)

    def copy(self, arrays, dtype=float):
        """A new flat buffer holding copies of ``arrays``, and its views."""
        flat, views = self.allocate(np.empty, dtype)
        for view, a in zip(views, arrays):
            view[...] = a
        return flat, views


def _first_non_finite(params):
    """Index of the first layer of ``params`` holding a NaN or an inf, or None.

    ``params`` is a network or its gradients. One sum per flat buffer; the
    per-layer views are searched only when the total is not finite. A finite
    total proves every entry finite. Finite entries can also overflow the
    total; the search then finds nothing, so they never raise, though numpy
    may warn of the overflow outside an ``np.errstate`` that silences it.
    """
    if np.isfinite(params.flat_w.sum() + params.flat_b.sum()):
        return None
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            return l
    return None


@dataclass
class GradBuffer:
    """Task-loss gradients in the network's layout: ``weights[l]`` and
    ``biases[l]`` are views into ``flat_w`` and ``flat_b``."""

    flat_w: np.ndarray
    flat_b: np.ndarray
    weights: tuple
    biases: tuple

    @classmethod
    def for_network(cls, net):
        """Zero gradients in ``net``'s layout."""
        flat_w, weights = net._w_layout.allocate()
        flat_b, biases = net._b_layout.allocate()
        return cls(flat_w, flat_b, weights, biases)

    def check_finite(self):
        if _first_non_finite(self) is not None:
            raise NumericError("non-finite gradient values")


class Network:
    """Layered parameter store with shape inference done once up front.

    ``weights[l]`` is ``(fan_in, units)`` for dense layers and
    ``(filters, in_channels, kh, kw)`` for conv layers; ``biases[l]`` is
    ``(units,)``. They are views into ``flat_w`` and ``flat_b``, filled
    with copies of the arrays given, each in its stride order; write
    through them. ``frozen``, one boolean mask per layer or None, marks
    weights pinned at exactly zero by unstructured hard pruning (a nonzero
    weight under a set flag fails construction). It is None or views into
    ``flat_frozen``, one mask buffer in ``flat_w``'s layout. All three
    per-layer sequences are tuples, so no view can be rebound.
    """

    def __init__(self, layers, input_shape, classes, weights, biases, frozen=None):
        self.layers = list(layers)
        self.input_shape = tuple(int(s) for s in input_shape)
        self.classes = int(classes)
        self._validate(weights, biases, frozen)
        self._w_layout = _Layout(weights)
        self._b_layout = _Layout(biases)
        self.flat_w, self.weights = self._w_layout.copy(weights)
        self.flat_b, self.biases = self._b_layout.copy(biases)
        self.flat_frozen = self.frozen = None
        if frozen is not None:
            self.flat_frozen, self.frozen = self._w_layout.copy(frozen, bool)
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

    def _validate(self, weights, biases, frozen):
        if not self.layers:
            raise DimensionError("network needs at least one layer")
        for name, arrays in (("weights", weights), ("biases", biases), ("frozen", frozen)):
            if arrays is not None and len(arrays) != len(self.layers):
                raise DimensionError(
                    f"{len(arrays)} {name} arrays for {len(self.layers)} layers"
                )
        shapes = layer_shapes(self.layers, self.input_shape)
        for l, (spec, (_, expect)) in enumerate(zip(self.layers, shapes)):
            w, b = weights[l], biases[l]
            if w.shape != expect:
                raise DimensionError(
                    f"layer {l} weight shape {w.shape}, expected {expect}"
                )
            if b.shape != (spec.units,):
                raise DimensionError(
                    f"layer {l} bias shape {b.shape}, expected ({spec.units},)"
                )
            if frozen is not None and frozen[l].shape != w.shape:
                raise DimensionError(f"layer {l} frozen mask shape mismatch")
            if frozen is not None and np.any(w[frozen[l]]):
                raise DomainError(f"layer {l}: nonzero weight under a frozen flag")
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
        return Network(self.layers, self.input_shape, self.classes,
                       [np.ascontiguousarray(w) for w in self.weights], self.biases, self.frozen)

    def num_weights(self):
        return int(self.flat_w.size)


def layer_shapes(layers, input_shape):
    """Each layer's ``(input shape, weight shape)``; raises on an input
    dimension below 1 or an incompatible chain."""
    current = tuple(input_shape)
    if min(current, default=1) < 1:
        raise DimensionError(f"input_shape dims must be >= 1, got {current}")
    shapes = []
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


def _conv_forward(x, w, b):
    """Conv of ``x``, ``(batch, h, w, c)``: returns the ``(batch, oh, ow, f)``
    pre-activation and the im2col patches, one row per output position."""
    n, h, wd, c = x.shape
    f, _, kh, kw = w.shape
    oh, ow = h - kh + 1, wd - kw + 1
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(1, 2))
    cols = win.transpose(0, 1, 2, 4, 5, 3).reshape(n * oh * ow, kh * kw * c)
    z = cols @ w.transpose(2, 3, 1, 0).reshape(kh * kw * c, f)
    z += b
    return z.reshape(n, oh, ow, f), cols


def forward(net: Network, batch_inputs):
    """Run the network; returns (logits, cache) with cache feeding backward.

    Accepts inputs either in native shape ``(batch, *input_shape)`` or
    flattened ``(batch, prod(input_shape))``. ``cache[l]`` is the pair
    ``(inputs, z)``: the 2-d matrix layer ``l`` multiplied by its weights
    (the flattened input of a dense layer, the im2col patches of a conv
    layer) and its pre-activation output; a conv layer's ``z`` is an
    NCHW-shaped view, ``(batch, f, oh, ow)``, of channels-last memory.
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
    if x.ndim == 4:
        x = x.transpose(0, 2, 3, 1)
    cache = []
    for spec, w, b in zip(net.layers, net.weights, net.biases):
        if spec.kind == "dense":
            if x.ndim == 4:
                x = x.transpose(0, 3, 1, 2)
            if x.ndim != 2:
                x = x.reshape(x.shape[0], -1)
            inputs = x
            z = x @ w
            z += b
            cache.append((inputs, z))
        else:
            z, inputs = _conv_forward(x, w, b)
            cache.append((inputs, z.transpose(0, 3, 1, 2)))
        x = np.maximum(z, 0.0) if spec.activation == "relu" else z
    return (x.transpose(0, 3, 1, 2) if x.ndim == 4 else x), cache


def accuracy(net: Network, inputs, labels) -> float:
    """Fraction of ``inputs`` whose largest logit is at their label.

    :func:`forward` runs on slices of ``EVAL_ROWS`` rows. ``labels`` must
    hold one entry per input row, and there must be at least one row.
    """
    x, y = np.asarray(inputs, dtype=float), np.asarray(labels)
    n = len(x) if x.ndim else 0
    if y.shape != (n,):
        raise DimensionError(f"labels shape {y.shape}, expected ({n},)")
    if n == 0:
        raise DimensionError("accuracy needs at least one input row")
    hits = sum(np.count_nonzero(np.argmax(forward(net, x[i:i + EVAL_ROWS])[0], axis=1)
                                == y[i:i + EVAL_ROWS])
               for i in range(0, n, EVAL_ROWS))
    return hits / n


def softmax_cross_entropy(logits, labels):
    """Mean CE loss and d(loss)/d(logits) for integer labels.

    Raises ``DimensionError`` unless there is one label per row and at
    least one row, and ``DomainError`` for labels that are not integers
    (booleans included) or lie outside ``[0, classes)``.
    """
    z = np.asarray(logits, dtype=float)
    y = np.asarray(labels)
    n, c = z.shape
    if y.shape != (n,):
        raise DimensionError(f"labels shape {y.shape}, expected ({n},)")
    if n == 0:
        raise DimensionError("the loss needs at least one row")
    if y.dtype.kind not in "iu":
        raise DomainError(f"labels must be integers, got dtype {y.dtype}")
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
    gradient is col2im: the upstream gradient times the kernel gives one
    block of input-patch gradients per kernel offset, and each block is
    added into the input map at its offset. The gradients are written
    into a fresh :class:`GradBuffer` in the network's layout.
    """
    logits, cache = forward(net, batch)
    loss, dout = softmax_cross_entropy(logits, labels)
    if not np.isfinite(loss):
        raise NumericError(f"loss is not finite ({loss})")
    grads = GradBuffer.for_network(net)
    for l in range(len(net.layers) - 1, -1, -1):
        spec, w = net.layers[l], net.weights[l]
        inputs, z = cache[l]
        if spec.kind == "conv2d":
            z = z.transpose(0, 2, 3, 1)
            if dout.ndim == 2:  # a dense consumer passes back (c, h, w) rows
                n, oh, ow, f = z.shape
                dout = dout.reshape(n, f, oh, ow).transpose(0, 2, 3, 1)
        dz = dout * (z > 0) if spec.activation == "relu" else dout
        if spec.kind == "dense":
            np.matmul(inputs.T, dz, out=grads.weights[l])
            dz.sum(axis=0, out=grads.biases[l])
            if l > 0:
                dout = dz @ w.T
        else:
            n, oh, ow, f = dz.shape
            c, kh, kw = w.shape[1:]
            dz_mat = dz.reshape(n * oh * ow, f)
            grads.weights[l][...] = (inputs.T @ dz_mat).reshape(kh, kw, c, f).transpose(3, 2, 0, 1)
            dz_mat.sum(axis=0, out=grads.biases[l])
            if l > 0:
                dcols = np.matmul(dz_mat, w.transpose(2, 3, 0, 1).reshape(kh * kw, f, c))
                dout = np.zeros((n, oh + kh - 1, ow + kw - 1, c))
                for k in range(kh * kw):
                    i, j = divmod(k, kw)
                    dout[:, i : i + oh, j : j + ow] += dcols[k].reshape(n, oh, ow, c)
    grads.check_finite()
    return loss, grads


# -- optimizer ---------------------------------------------------------------


@dataclass
class OptimState:
    """SGD-with-momentum state in the network's layout: velocities are two
    flat buffers, paired entry by entry with ``flat_w`` and ``flat_b``."""

    learning_rate: float
    momentum: float = 0.9
    base_decay: float = 5e-4
    flat_vel_w: np.ndarray = field(default=None, init=False)
    flat_vel_b: np.ndarray = field(default=None, init=False)

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise DomainError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not 0 <= self.momentum < 1:
            raise DomainError(f"momentum must lie in [0, 1), got {self.momentum}")

    @classmethod
    def for_network(cls, net: Network, learning_rate, momentum=0.9, base_decay=5e-4):
        state = cls(learning_rate, momentum, base_decay)
        state.flat_vel_w = np.zeros(net.flat_w.size)
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
    if net.flat_frozen is not None:
        np.copyto(net.flat_w, 0.0, where=net.flat_frozen)
        np.copyto(v, 0.0, where=net.flat_frozen)
    bad = _first_non_finite(net)
    if bad is not None:
        raise NumericError(f"layer {bad}: non-finite parameters after update")
    return net
