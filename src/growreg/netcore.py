"""Minimal trainable network with exact analytic gradients.

Dense and 2-d convolutional layers (valid padding, stride 1), ReLU or
linear activations, softmax cross-entropy loss, and an SGD optimizer with
momentum whose L2 penalty factor can differ per weight. The penalty is
applied as gradient augmentation inside :func:`sgd_step` (coupled decay),
never inside :func:`loss_and_grads`, so per-group factors are honored and
the reported loss is the task loss alone. Biases are never penalized.

Everything is float64 numpy; a network trains on a single thread, and
forward passes on a network nobody is mutating are safe to run from
anywhere.
"""

from __future__ import annotations

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


@dataclass
class GradBuffer:
    """Task-loss gradients mirroring the network's parameter shapes."""

    weights: list
    biases: list


class Network:
    """Layered parameter store with shape inference done once up front.

    ``weights[l]`` is ``(fan_in, units)`` for dense layers and
    ``(filters, in_channels, kh, kw)`` for conv layers; ``biases[l]`` is
    ``(units,)``. ``frozen[l]`` is an optional boolean mask of weights
    pinned at exactly zero (set by unstructured hard pruning).
    """

    def __init__(self, layers, input_shape, classes, weights, biases, frozen=None):
        self.layers = list(layers)
        self.input_shape = tuple(int(s) for s in input_shape)
        self.classes = int(classes)
        self.weights = list(weights)
        self.biases = list(biases)
        self.frozen = list(frozen) if frozen is not None else [None] * len(self.layers)
        self._validate()

    # -- construction ----------------------------------------------------

    @classmethod
    def initialize(cls, layers, input_shape, classes, seed=0):
        """He-style fan-in init with a seeded generator; biases start at zero."""
        rng = np.random.default_rng(seed)
        shapes = _infer_shapes(layers, input_shape)
        weights, biases = [], []
        for spec, in_shape in zip(layers, shapes):
            if spec.kind == "dense":
                fan_in = int(np.prod(in_shape))
                w_shape = (fan_in, spec.units)
            else:
                c = in_shape[0]
                fan_in = c * spec.kernel[0] * spec.kernel[1]
                w_shape = (spec.units, c, *spec.kernel)
            scale = np.sqrt(2.0 / fan_in)
            weights.append(rng.standard_normal(w_shape) * scale)
            biases.append(np.zeros(spec.units))
        return cls(layers, input_shape, classes, weights, biases)

    def _validate(self):
        if not self.layers:
            raise DimensionError("network needs at least one layer")
        shapes = _infer_shapes(self.layers, self.input_shape)
        for l, (spec, in_shape) in enumerate(zip(self.layers, shapes)):
            w, b = self.weights[l], self.biases[l]
            if spec.kind == "dense":
                expect = (int(np.prod(in_shape)), spec.units)
            else:
                expect = (spec.units, in_shape[0], *spec.kernel)
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
        if not all(np.all(np.isfinite(w)) for w in self.weights):
            raise NumericError("non-finite weight values")
        self._layer_input_shapes = shapes

    # -- conveniences ------------------------------------------------------

    def clone(self):
        return Network(
            self.layers,
            self.input_shape,
            self.classes,
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            [m.copy() if m is not None else None for m in self.frozen],
        )

    def num_weights(self):
        return int(sum(w.size for w in self.weights))

    def __len__(self):
        return len(self.layers)


def _infer_shapes(layers, input_shape):
    """Per-layer input shapes; raises on incompatible chains."""
    shapes = []
    current = tuple(input_shape)
    for l, spec in enumerate(layers):
        shapes.append(current)
        if spec.kind == "dense":
            current = (spec.units,)
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
            current = (spec.units, oh, ow)
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
    flattened ``(batch, prod(input_shape))``.
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
        entry = {"x": x}
        if spec.kind == "dense":
            x2 = x.reshape(x.shape[0], -1)
            entry["x2"] = x2
            z = x2 @ w + b
        else:
            z, cols = _conv_forward(x, w)
            z = z + b[None, :, None, None]
            entry["cols"] = cols
        entry["z"] = z
        x = np.maximum(z, 0.0) if spec.activation == "relu" else z
        cache.append(entry)
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
    """
    logits, cache = forward(net, batch)
    loss, dout = softmax_cross_entropy(logits, labels)
    if not np.isfinite(loss):
        raise NumericError(f"loss is not finite ({loss})")
    d_w = [None] * len(net.layers)
    d_b = [None] * len(net.layers)
    for l in range(len(net.layers) - 1, -1, -1):
        spec, w, entry = net.layers[l], net.weights[l], cache[l]
        dz = dout * (entry["z"] > 0) if spec.activation == "relu" else dout
        if spec.kind == "dense":
            d_w[l] = entry["x2"].T @ dz
            d_b[l] = dz.sum(axis=0)
            if l > 0:
                dout = (dz @ w.T).reshape(entry["x"].shape)
        else:
            b, f, oh, ow = dz.shape
            dz_mat = dz.transpose(0, 2, 3, 1).reshape(b * oh * ow, f)
            d_w[l] = (dz_mat.T @ entry["cols"]).reshape(w.shape)
            d_b[l] = dz.sum(axis=(0, 2, 3))
            if l > 0:
                _, c, h, wd = entry["x"].shape
                kh, kw = spec.kernel
                # channels-last so each offset adds contiguous channel rows
                w_mat = w.transpose(0, 2, 3, 1).reshape(f, -1)
                dcols = (dz_mat @ w_mat).reshape(b, oh, ow, kh, kw, c)
                dx = np.zeros((b, h, wd, c))
                for i in range(kh):
                    for j in range(kw):
                        dx[:, i : i + oh, j : j + ow] += dcols[:, :, :, i, j]
                dout = dx.transpose(0, 3, 1, 2)
    grads = GradBuffer(weights=d_w, biases=d_b)
    for g in grads.weights + grads.biases:
        if not np.all(np.isfinite(g)):
            raise NumericError("non-finite gradient values")
    return loss, grads


# -- optimizer ---------------------------------------------------------------


@dataclass
class OptimState:
    """SGD-with-momentum state; one velocity buffer per parameter tensor."""

    learning_rate: float
    momentum: float = 0.9
    base_decay: float = 5e-4
    vel_w: list = field(default_factory=list)
    vel_b: list = field(default_factory=list)

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise DomainError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not 0 <= self.momentum < 1:
            raise DomainError(f"momentum must lie in [0, 1), got {self.momentum}")

    @classmethod
    def for_network(cls, net: Network, learning_rate, momentum=0.9, base_decay=5e-4):
        state = cls(learning_rate, momentum, base_decay)
        state.vel_w = [np.zeros_like(w) for w in net.weights]
        state.vel_b = [np.zeros_like(b) for b in net.biases]
        return state


def sgd_step(net: Network, grads: GradBuffer, opt: OptimState, lambdas=None):
    """One momentum-SGD update with a per-weight L2 penalty factor.

    ``lambdas`` maps layer index to either a scalar or a weight-shaped
    array of penalty factors; layers not present fall back to the
    optimizer's base decay, and negative factors (which grow weights) are
    allowed. Frozen weights and their velocities are pinned back to zero
    after the update. Mutates ``net`` and ``opt`` and returns ``net``.
    """
    lambdas = lambdas or {}
    for l in range(len(net.layers)):
        w = net.weights[l]
        lam = np.asarray(lambdas.get(l, opt.base_decay), dtype=float)
        if lam.shape not in ((), w.shape):
            raise DimensionError(
                f"layer {l}: penalty factors shape {lam.shape} does not cover "
                f"weights {w.shape}"
            )
        g_eff = grads.weights[l] + lam * w
        v = opt.vel_w[l]
        v *= opt.momentum
        v += g_eff
        w -= opt.learning_rate * v
        vb = opt.vel_b[l]
        vb *= opt.momentum
        vb += grads.biases[l]
        net.biases[l] -= opt.learning_rate * vb
        mask = net.frozen[l]
        if mask is not None:
            w[mask] = 0.0
            v[mask] = 0.0
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(net.biases[l]))):
            raise NumericError(f"layer {l}: non-finite parameters after update")
    return net
