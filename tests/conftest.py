import numpy as np
import pytest

from growreg.groups import expand_group_values
from growreg.netcore import LayerSpec, Network


def mlp_specs(hidden, classes=2):
    """Dense stack with a non-prunable linear classifier on top."""
    specs = [LayerSpec("dense", u) for u in hidden]
    specs.append(LayerSpec("dense", classes, activation="none", prunable=False))
    return tuple(specs)


def small_conv_net(seed=0, classes=3):
    return Network.initialize(
        (
            LayerSpec("conv2d", 6, kernel=(3, 3)),
            LayerSpec("conv2d", 5, kernel=(2, 2)),
            LayerSpec("dense", 8),
            LayerSpec("dense", classes, activation="none", prunable=False),
        ),
        (2, 9, 9),
        classes,
        seed=seed,
    )


def with_frozen(net, masks=None):
    """``net`` rebuilt with one frozen mask per layer, all clear by default,
    and the weights under its set flags zeroed."""
    masks = masks or [np.zeros(w.shape, dtype=bool) for w in net.weights]
    weights = [np.where(m, 0.0, w) for m, w in zip(masks, net.weights)]
    return Network(net.layers, net.input_shape, net.classes, weights, net.biases, masks)


def weight_views(net, flat):
    """``flat``, a vector in ``net.flat_w``'s layout, seen layer by layer
    through the byte offset, shape and strides of each ``net.weights[l]``."""
    base = net.flat_w.__array_interface__["data"][0]
    return [
        np.ndarray(w.shape, float, buffer=flat, strides=w.strides,
                   offset=w.__array_interface__["data"][0] - base)
        for w in net.weights
    ]


def penalty_for(net, per_layer):
    """A penalty vector in ``net.flat_w``'s layout from one scalar or one
    weight-shaped array of factors per layer."""
    return expand_group_values(net, "weight", [
        np.broadcast_to(np.asarray(v, dtype=float), w.shape).ravel()
        for v, w in zip(per_layer, net.weights)
    ])


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
