"""Forward/backward correctness, loss values, and optimizer semantics."""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from conftest import mlp_specs, penalty_for, small_conv_net, weight_views, with_frozen
from growreg.errors import DimensionError, DomainError, NumericError
from growreg.groups import Mask, apply_hard_prune, group_counts
from growreg.netcore import (
    GradBuffer,
    LayerSpec,
    Network,
    OptimState,
    accuracy,
    forward,
    layer_shapes,
    loss_and_grads,
    sgd_step,
    softmax_cross_entropy,
)


def finite_diff_worst_rel(net, x, y, grads, rng, samples=20, eps=1e-5):
    """Central-difference check on randomly sampled weight entries."""
    worst = 0.0
    for _ in range(samples):
        l = int(rng.integers(0, len(net.layers)))
        w = net.weights[l]
        idx = tuple(int(rng.integers(0, s)) for s in w.shape)
        orig = w[idx]
        w[idx] = orig + eps
        lp, _ = loss_and_grads(net, x, y)
        w[idx] = orig - eps
        lm, _ = loss_and_grads(net, x, y)
        w[idx] = orig
        numeric = (lp - lm) / (2 * eps)
        analytic = grads.weights[l][idx]
        rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8)
        worst = max(worst, rel)
    return worst


def reference_grads(net, x, y):
    """Backward written independently of netcore's im2col: weight gradients
    by einsum over sliding windows, conv input gradients as the full
    correlation of the zero-padded upstream gradient with flipped kernels.
    Each layer's input is rebuilt from the batch and the cached
    pre-activations, not read from the cache."""
    logits, cache = forward(net, x)
    _, dout = softmax_cross_entropy(logits, y)
    zs = [z for _, z in cache]
    inputs = [x.reshape(len(x), *net.input_shape)]
    for spec, z in zip(net.layers, zs):
        inputs.append(np.maximum(z, 0.0) if spec.activation == "relu" else z)
    d_w, d_b = [None] * len(net.layers), [None] * len(net.layers)
    for l in reversed(range(len(net.layers))):
        spec, w, z, inp = net.layers[l], net.weights[l], zs[l], inputs[l]
        dz = dout * (z > 0) if spec.activation == "relu" else dout
        if spec.kind == "dense":
            d_w[l] = inp.reshape(len(inp), -1).T @ dz
            d_b[l] = dz.sum(axis=0)
            dout = (dz @ w.T).reshape(inp.shape)
            continue
        kh, kw = spec.kernel
        win = sliding_window_view(inp, (kh, kw), axis=(2, 3))
        d_w[l] = np.einsum("bfij,bcijkl->fckl", dz, win)
        d_b[l] = dz.sum(axis=(0, 2, 3))
        dz_pad = np.pad(dz, ((0, 0), (0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1)))
        pwin = sliding_window_view(dz_pad, (kh, kw), axis=(2, 3))
        dout = np.einsum("bfijkl,fckl->bcij", pwin, w[:, :, ::-1, ::-1])
    return d_w, d_b


def reference_logits(net, x):
    """Logits written independently of netcore: each conv layer is an
    einsum over NCHW sliding windows, with no im2col and no channels-last
    copy."""
    a = x.reshape(len(x), *net.input_shape)
    for spec, w, b in zip(net.layers, net.weights, net.biases):
        if spec.kind == "dense":
            z = a.reshape(len(a), -1) @ w + b
        else:
            win = sliding_window_view(a, spec.kernel, axis=(2, 3))
            z = np.einsum("bcijkl,fckl->bfij", win, w) + b[:, None, None]
        a = np.maximum(z, 0.0) if spec.activation == "relu" else z
    return a


def permuted_conv_params(weights, biases, p0, p1):
    """``small_conv_net``'s weights and biases (or gradients) with layer 0's
    filters permuted by ``p0`` together with layer 1's input channels, and
    layer 1's filters permuted by ``p1`` together with the dense consumer's
    flattened ``(c, h, w)`` row blocks."""
    w0, w1, w2, w3 = weights
    b0, b1, b2, b3 = biases
    rows = w2.reshape(len(p1), -1, w2.shape[1])[p1].reshape(w2.shape)
    return [w0[p0], w1[p1][:, p0], rows, w3], [b0[p0], b1[p1], b2, b3]


def rect_conv_net(seed):
    """conv (3, 2) -> conv (2, 3) -> dense on 2-channel 7x6 inputs."""
    layers = (
        LayerSpec("conv2d", 3, kernel=(3, 2)),
        LayerSpec("conv2d", 4, kernel=(2, 3)),
        LayerSpec("dense", 5),
        LayerSpec("dense", 3, activation="none", prunable=False),
    )
    return Network.initialize(layers, (2, 7, 6), 3, seed=seed)


class TestLayerSpec:
    def test_conv_needs_kernel(self):
        with pytest.raises(DomainError):
            LayerSpec("conv2d", 4)

    def test_kernel_dims_at_least_one(self):
        with pytest.raises(DomainError):
            LayerSpec("conv2d", 4, kernel=(0, 3))

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            LayerSpec("attention", 4)


def logits(units):
    return LayerSpec("dense", units, activation="none", prunable=False)


class TestLayerShapes:
    @pytest.mark.parametrize("layers, input_shape", [
        ((LayerSpec("dense", 5), logits(3)), (4,)),
        ((LayerSpec("dense", 7), LayerSpec("dense", 2), logits(2)), (1, 3, 3)),
        ((LayerSpec("conv2d", 4, kernel=(3, 3)), LayerSpec("conv2d", 2, kernel=(2, 1)),
          LayerSpec("conv2d", 3, kernel=(1, 1), activation="none", prunable=False)),
         (2, 6, 5)),
        ((LayerSpec("conv2d", 6, kernel=(3, 3)), LayerSpec("conv2d", 5, kernel=(2, 2)),
          LayerSpec("dense", 8), logits(3)), (2, 9, 9)),
        ((LayerSpec("conv2d", 2, kernel=(4, 2)), logits(4)), (3, 4, 7)),
    ], ids=["dense", "dense-on-image", "conv", "conv-dense", "full-height-kernel"])
    def test_weight_shapes_match_initialize(self, layers, input_shape):
        shapes = layer_shapes(layers, input_shape)
        net = Network.initialize(layers, input_shape, layers[-1].units, seed=0)
        assert [w_shape for _, w_shape in shapes] == [w.shape for w in net.weights]
        assert shapes[0][0] == input_shape

    @pytest.mark.parametrize("layers, input_shape, message", [
        ((LayerSpec("dense", 4), LayerSpec("conv2d", 2, kernel=(1, 1))), (1, 5, 5),
         r"conv2d layer 1 needs \(channels, h, w\) input, got \(4,\)"),
        ((LayerSpec("conv2d", 2, kernel=(3, 6)), logits(2)), (1, 5, 5),
         r"conv2d layer 0: kernel \(3, 6\) larger than input \(1, 5, 5\)"),
    ], ids=["dense-to-conv", "oversized-kernel"])
    def test_incompatible_chain_raises(self, layers, input_shape, message):
        with pytest.raises(DimensionError, match=message):
            layer_shapes(layers, input_shape)
        with pytest.raises(DimensionError, match=message):
            Network.initialize(layers, input_shape, 2)


class TestForward:
    def test_zero_weights_give_zero_logits(self, rng):
        net = Network.initialize(mlp_specs([5, 4], classes=3), (6,), 3, seed=0)
        for w in net.weights:
            w[:] = 0.0
        logits, _ = forward(net, rng.standard_normal((7, 6)))
        assert np.all(logits == 0.0)

    def test_single_identity_layer_is_identity_map(self, rng):
        net = Network(
            (LayerSpec("dense", 3, activation="none"),),
            (3,),
            3,
            [np.eye(3)],
            [np.zeros(3)],
        )
        x = rng.standard_normal((5, 3))
        logits, _ = forward(net, x)
        assert np.array_equal(logits, x)

    def test_two_layer_matches_explicit_arithmetic(self):
        w0 = np.array([[0.5, -1.0, 0.25], [1.5, 0.0, -0.5]])
        b0 = np.array([0.1, -0.2, 0.3])
        w1 = np.array([[1.0, -1.0], [0.5, 0.5], [-0.25, 2.0]])
        b1 = np.array([0.0, 0.05])
        net = Network(
            (LayerSpec("dense", 3), LayerSpec("dense", 2, activation="none")),
            (2,),
            2,
            [w0, w1],
            [b0, b1],
        )
        x = np.array([[1.0, 2.0], [-0.5, 0.25]])
        hidden = np.maximum(x @ w0 + b0, 0.0)
        expected = hidden @ w1 + b1
        logits, _ = forward(net, x)
        assert np.allclose(logits, expected, atol=0.0)

    def test_flat_input_reshaped_for_conv(self, rng):
        net = small_conv_net()
        x = rng.standard_normal((4, 2, 9, 9))
        native, _ = forward(net, x)
        flat, _ = forward(net, x.reshape(4, -1))
        assert np.array_equal(native, flat)

    @pytest.mark.parametrize("make_net, shape", [
        (small_conv_net, (2, 9, 9)), (rect_conv_net, (2, 7, 6)),
    ], ids=["square", "rect"])
    def test_conv_logits_match_an_einsum_reference(self, make_net, shape, rng):
        for seed in range(3):
            net = make_net(seed)
            x = rng.standard_normal((5, *shape))
            got, want = forward(net, x)[0], reference_logits(net, x)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_conv_filter_permutation_permutes_logits_and_gradients(self, rng):
        for seed in range(3):
            net = small_conv_net(seed)
            p0, p1 = rng.permutation(6), rng.permutation(5)
            perm = Network(net.layers, net.input_shape, net.classes,
                           *permuted_conv_params(net.weights, net.biases, p0, p1))
            x = rng.standard_normal((6, 2, 9, 9))
            y = rng.integers(0, 3, 6)
            want = forward(net, x)[0]
            assert np.max(np.abs(forward(perm, x)[0] - want)) <= 1e-12 * np.max(np.abs(want))
            _, grads = loss_and_grads(net, x, y)
            _, got = loss_and_grads(perm, x, y)
            expect = permuted_conv_params(grads.weights, grads.biases, p0, p1)
            for a, b in zip(got.weights + got.biases, expect[0] + expect[1]):
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    def test_shape_mismatch_raises(self, rng):
        net = Network.initialize(mlp_specs([4]), (3,), 2, seed=0)
        with pytest.raises(DimensionError):
            forward(net, rng.standard_normal((5, 7)))

    def test_dense_to_conv_rejected(self):
        with pytest.raises(DimensionError):
            Network.initialize(
                (LayerSpec("dense", 4), LayerSpec("conv2d", 2, kernel=(2, 2))),
                (3, 5, 5),
                2,
                seed=0,
            )

    def test_final_layer_must_be_logits(self):
        with pytest.raises(DomainError):
            Network.initialize(
                (LayerSpec("dense", 2, activation="relu"),), (3,), 2, seed=0
            )


class TestLossAndGrads:
    def test_uniform_logits_give_log_classes(self, rng):
        net = Network.initialize(mlp_specs([6, 5], classes=4), (3,), 4, seed=2)
        for w in net.weights:
            w[:] = 0.0
        for b in net.biases:
            b[:] = 0.0
        loss, _ = loss_and_grads(net, rng.standard_normal((9, 3)), rng.integers(0, 4, 9))
        assert loss == pytest.approx(np.log(4.0), abs=1e-12)

    def test_gradients_match_finite_differences_dense(self, rng):
        net = Network.initialize(mlp_specs([7, 5], classes=3), (4,), 3, seed=3)
        x = rng.standard_normal((6, 4))
        y = rng.integers(0, 3, 6)
        _, grads = loss_and_grads(net, x, y)
        assert finite_diff_worst_rel(net, x, y, grads, rng) < 1e-5

    def test_gradients_match_finite_differences_conv(self, rng):
        net = small_conv_net(seed=4)
        x = rng.standard_normal((4, 2, 9, 9))
        y = rng.integers(0, 3, 4)
        _, grads = loss_and_grads(net, x, y)
        assert finite_diff_worst_rel(net, x, y, grads, rng) < 1e-5

    def test_conv_backward_matches_full_correlation_reference(self, rng):
        for seed in range(3):
            net = rect_conv_net(seed)
            x = rng.standard_normal((5, 2, 7, 6))
            y = rng.integers(0, 3, 5)
            _, grads = loss_and_grads(net, x, y)
            ref_w, ref_b = reference_grads(net, x, y)
            for got, want in zip(grads.weights + grads.biases, ref_w + ref_b):
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_conv_backward_matches_central_differences_everywhere(self, rng):
        net = rect_conv_net(seed=7)
        x = rng.standard_normal((4, 2, 7, 6))
        y = rng.integers(0, 3, 4)
        _, grads = loss_and_grads(net, x, y)
        eps, worst = 1e-5, 0.0
        for params, analytic in ((net.weights, grads.weights), (net.biases, grads.biases)):
            for p, g in zip(params, analytic):
                for idx in np.ndindex(p.shape):
                    orig = p[idx]
                    p[idx] = orig + eps
                    lp = softmax_cross_entropy(forward(net, x)[0], y)[0]
                    p[idx] = orig - eps
                    lm = softmax_cross_entropy(forward(net, x)[0], y)[0]
                    p[idx] = orig
                    numeric = (lp - lm) / (2 * eps)
                    worst = max(worst, abs(numeric - g[idx])
                                / max(abs(numeric), abs(g[idx]), 1e-8))
        assert worst < 1e-5

    def test_separable_large_margin_loss_vanishes(self):
        net = Network(
            (LayerSpec("dense", 2, activation="none"),),
            (2,),
            2,
            [np.eye(2) * 50.0],
            [np.zeros(2)],
        )
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        y = np.array([0, 1, 0])
        loss, _ = loss_and_grads(net, x, y)
        assert loss < 1e-6

    @pytest.mark.parametrize("rows, labels, error", [
        (0, np.zeros(0, int), DimensionError),
        (3, np.array([0.0, 1.0, 1.0]), DomainError),
        (3, np.array([False, True, True]), DomainError),
        (3, np.array([0, 2, 1]), DomainError),
    ], ids=["empty", "float", "bool", "out-of-range"])
    def test_bad_labels_raise_a_package_error(self, rows, labels, error):
        net = Network.initialize(mlp_specs([4]), (3,), 2, seed=0)
        x = np.ones((rows, 3))
        with pytest.raises(error):
            softmax_cross_entropy(forward(net, x)[0], labels)
        with pytest.raises(error):
            loss_and_grads(net, x, labels)

    @pytest.mark.parametrize("input_shape", [(), (2, 3), (2, 3, 4), (1, 2, 3, 2)],
                             ids=["rank0", "rank2", "rank3", "rank4"])
    def test_dense_net_takes_any_input_rank(self, input_shape, rng):
        net = Network.initialize(mlp_specs([5], classes=3), input_shape, 3, seed=1)
        x = rng.standard_normal((4, *input_shape))
        y = np.array([0, 1, 2, 1])
        hidden = np.maximum(x.reshape(4, -1) @ net.weights[0] + net.biases[0], 0.0)
        assert np.array_equal(forward(net, x)[0], hidden @ net.weights[1] + net.biases[1])
        _, grads = loss_and_grads(net, x, y)
        ref_w, ref_b = reference_grads(net, x, y)
        for got, want in zip(grads.weights + grads.biases, ref_w + ref_b):
            assert np.array_equal(got, want)

    def test_nan_loss_raises(self, rng):
        net = Network.initialize(mlp_specs([4]), (3,), 2, seed=0)
        net.biases[-1][0] = np.inf
        with pytest.raises(NumericError):
            loss_and_grads(net, rng.standard_normal((3, 3)), np.array([0, 1, 1]))


def grads_like(net, weights, biases):
    """A GradBuffer in ``net``'s layout holding copies of the given arrays."""
    grads = GradBuffer.for_network(net)
    for view, a in zip(grads.weights + grads.biases, list(weights) + list(biases)):
        view[...] = a
    return grads


def random_grads(net, rng):
    return grads_like(
        net,
        [rng.standard_normal(w.shape) for w in net.weights],
        [rng.standard_normal(b.shape) for b in net.biases],
    )


def filter_pruned_net(net=None):
    """Dense 5-6-4-3 net (``net``, or a fresh one) with filters cut from
    both hidden layers: layer 0 comes out of ``np.delete`` along axis 1, so
    it is F-ordered."""
    net = net or Network.initialize(mlp_specs([6, 4], classes=3), (5,), 3, seed=7)
    flags = [np.ones(n, dtype=np.uint8) for n in (6, 4, 3)]
    flags[0][[1, 4]] = 0
    flags[1][[2]] = 0
    return apply_hard_prune(net, Mask("filter", flags))


def weight_pruned_net(rng):
    """Dense 5-6-4-3 net with a third of layers 0 and 1 frozen at zero."""
    net = Network.initialize(mlp_specs([6, 4], classes=3), (5,), 3, seed=7)
    flags = [np.ones(n, dtype=np.uint8) for n in group_counts(net, "weight")]
    for l in (0, 1):
        flags[l][rng.choice(len(flags[l]), size=len(flags[l]) // 3, replace=False)] = 0
    return apply_hard_prune(net, Mask("weight", flags))


def stride_order(a):
    """Axes from the largest stride to the smallest."""
    return sorted(range(a.ndim), key=lambda ax: -a.strides[ax])


def slot(view, flat):
    """Byte offset into ``flat``, shape and strides of a view of it."""
    assert np.shares_memory(view, flat)
    offset = view.__array_interface__["data"][0] - flat.__array_interface__["data"][0]
    return offset, view.shape, view.strides


class TestSgdStep:
    def _net(self):
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        return Network(
            (LayerSpec("dense", 2, activation="none"),),
            (2,),
            2,
            [w],
            [np.zeros(2)],
        )

    def test_pure_decay_scales_weights(self):
        net = self._net()
        w0 = net.weights[0].copy()
        opt = OptimState.for_network(net, 0.1, momentum=0.0, base_decay=0.0)
        sgd_step(net, GradBuffer.for_network(net), opt, penalty_for(net, [0.5]))
        assert np.allclose(net.weights[0], w0 * (1 - 0.1 * 0.5), atol=0.0)

    def test_negative_penalty_grows_weights(self):
        net = self._net()
        w0 = net.weights[0].copy()
        opt = OptimState.for_network(net, 0.1, momentum=0.0, base_decay=5e-4)
        sgd_step(net, GradBuffer.for_network(net), opt, penalty_for(net, [-5e-4]))
        assert np.allclose(net.weights[0], w0 * (1 + 0.1 * 5e-4), atol=0.0)

    def test_quadratic_toy_reaches_penalty_equilibrium(self):
        # loss L(w) = 0.5 (w - a)^T D (w - a); at the penalized minimum the
        # decay force exactly cancels the loss gradient
        rng = np.random.default_rng(6)
        net = self._net()
        a = rng.standard_normal((2, 2))
        d = np.array([[1.0, 0.5], [2.0, 1.5]])
        lam = 0.3
        opt = OptimState.for_network(net, 0.1, momentum=0.9, base_decay=lam)
        for _ in range(10_000):
            grads = grads_like(net, [d * (net.weights[0] - a)], [np.zeros(2)])
            sgd_step(net, grads, opt)
        residual = lam * net.weights[0] + d * (net.weights[0] - a)
        assert np.max(np.abs(residual)) < 1e-6

    def test_matches_textbook_update_exactly(self, rng):
        dense = Network.initialize(mlp_specs([6, 4], classes=3), (5,), 3, seed=7)
        self._check_textbook(dense, None, rng)
        # layer 0 comes out of the filter cut F-ordered
        cut = filter_pruned_net()
        assert stride_order(cut.weights[0]) == [1, 0]
        self._check_textbook(
            cut, [rng.uniform(-1e-3, 1e-2, cut.weights[0].shape), 2e-3, 5e-4], rng
        )
        frozen = weight_pruned_net(rng)
        self._check_textbook(
            frozen, [5e-4, rng.uniform(0.0, 1e-2, frozen.weights[1].shape), 5e-4], rng
        )
        assert frozen.frozen[0].any() and frozen.frozen[1].any()
        frozen_cut = filter_pruned_net(weight_pruned_net(rng))
        assert stride_order(frozen_cut.weights[0]) == [1, 0]
        assert frozen_cut.frozen[0].any() and frozen_cut.frozen[1].any()
        self._check_textbook(
            frozen_cut, [rng.uniform(-1e-3, 1e-2, frozen_cut.weights[0].shape), 2e-3, 5e-4],
            rng,
        )

    def _check_textbook(self, net, lams, rng):
        """Five steps of sgd_step against per-layer textbook arithmetic,
        frozen weights and velocities pinned after each; bit for bit.
        ``lams`` gives each layer's factors, or is None for the base decay."""
        gamma, lr, mu = 5e-4, 0.01, 0.9
        penalty = None if lams is None else penalty_for(net, lams)
        lams = lams or [gamma] * len(net.layers)
        ref_w = [w.copy() for w in net.weights]
        ref_b = [b.copy() for b in net.biases]
        ref_vw = [np.zeros_like(w) for w in net.weights]
        ref_vb = [np.zeros_like(b) for b in net.biases]
        opt = OptimState.for_network(net, lr, momentum=mu, base_decay=gamma)
        for _ in range(5):
            grads = random_grads(net, rng)
            sgd_step(net, grads, opt, penalty)
            for l in range(len(ref_w)):
                ref_vw[l] = ref_vw[l] * mu + (grads.weights[l] + lams[l] * ref_w[l])
                ref_w[l] = ref_w[l] - lr * ref_vw[l]
                ref_vb[l] = ref_vb[l] * mu + grads.biases[l]
                ref_b[l] = ref_b[l] - lr * ref_vb[l]
                if net.frozen is not None:
                    ref_w[l][net.frozen[l]] = 0.0
                    ref_vw[l][net.frozen[l]] = 0.0
        vel_w = weight_views(net, opt.flat_vel_w)
        for l in range(len(ref_w)):
            assert np.max(np.abs(net.weights[l] - ref_w[l])) == 0.0
            assert np.max(np.abs(net.biases[l] - ref_b[l])) == 0.0
            assert np.max(np.abs(vel_w[l] - ref_vw[l])) == 0.0

    def test_frozen_weights_pinned_at_zero(self, rng):
        net = Network.initialize(mlp_specs([5]), (4,), 2, seed=8)
        masks = [np.zeros(w.shape, dtype=bool) for w in net.weights]
        frozen = masks[0]
        frozen[0, :] = True
        net = with_frozen(net, masks)
        opt = OptimState.for_network(net, 0.05)
        for _ in range(50):
            sgd_step(net, random_grads(net, rng), opt)
        assert np.all(net.weights[0][frozen] == 0.0)
        assert np.any(net.weights[0][~frozen] != 0.0)

    def test_wrong_penalty_shape_rejected(self):
        net = self._net()
        opt = OptimState.for_network(net, 0.1)
        with pytest.raises(DimensionError):
            sgd_step(net, GradBuffer.for_network(net), opt, np.ones(3))

    def test_wrong_penalty_shape_changes_nothing(self, rng):
        net = Network.initialize(mlp_specs([6, 4], classes=3), (5,), 3, seed=7)
        opt = OptimState.for_network(net, 0.01)
        sgd_step(net, random_grads(net, rng), opt)
        state = (net.flat_w, net.flat_b, opt.flat_vel_w, opt.flat_vel_b)
        before = [a.tobytes() for a in state]
        n = net.flat_w.size
        for bad in (np.ones(n - 1), np.ones(n + 1), np.ones((1, n))):
            with pytest.raises(DimensionError, match=rf"expected \({n},\)$"):
                sgd_step(net, random_grads(net, rng), opt, bad)
            assert [a.tobytes() for a in state] == before

    def test_penalty_left_unchanged(self, rng):
        # tick hands the same vector to every step between two boundaries
        net = filter_pruned_net()
        penalty = penalty_for(net, [rng.uniform(-1e-3, 1e-2, w.shape)
                                    for w in net.weights])
        before = penalty.tobytes()
        opt = OptimState.for_network(net, 0.01)
        for _ in range(3):
            sgd_step(net, random_grads(net, rng), opt, penalty)
        assert penalty.tobytes() == before

    def test_non_finite_update_rejected(self):
        net = self._net()
        opt = OptimState.for_network(net, 0.1)
        grads = GradBuffer.for_network(net)
        grads.weights[0][0, 0] = np.inf
        with pytest.raises(NumericError):
            sgd_step(net, grads, opt)

    def test_overflow_in_two_layers_names_the_first(self):
        net = Network.initialize(mlp_specs([6, 4], classes=3), (5,), 3, seed=7)
        opt = OptimState.for_network(net, 10.0, momentum=0.0)
        grads = GradBuffer.for_network(net)
        grads.weights[1][0, 0] = 1e308
        grads.weights[2][0, 0] = 1e308
        with np.errstate(over="ignore"), pytest.raises(
            NumericError, match=r"^layer 1: non-finite parameters after update$"
        ):
            sgd_step(net, grads, opt)

    def test_finite_parameters_whose_sum_overflows_pass(self):
        net = Network.initialize(mlp_specs([6, 4], classes=3), (5,), 3, seed=7)
        net.weights[0][0, 0] = net.weights[2][0, 0] = 1e308
        opt = OptimState.for_network(net, 0.01, base_decay=0.0)
        with np.errstate(over="ignore"):
            sgd_step(net, GradBuffer.for_network(net), opt)
        assert net.weights[0][0, 0] == net.weights[2][0, 0] == 1e308

    def test_momentum_domain(self):
        net = self._net()
        with pytest.raises(DomainError):
            OptimState.for_network(net, 0.1, momentum=1.0)
        with pytest.raises(DomainError):
            OptimState.for_network(net, -0.1)


class TestFiniteGradients:
    def test_finite_entries_whose_sum_overflows_pass(self):
        net = Network.initialize(mlp_specs([6, 4], classes=3), (5,), 3, seed=7)
        grads = GradBuffer.for_network(net)
        grads.weights[0][0, 0] = grads.weights[2][1, 1] = 1e308
        with np.errstate(over="ignore"):
            grads.check_finite()

    def test_nan_in_last_bias_gradient_rejected(self):
        net = Network.initialize(mlp_specs([6, 4], classes=3), (5,), 3, seed=7)
        grads = GradBuffer.for_network(net)
        grads.biases[-1][-1] = np.nan
        with pytest.raises(NumericError, match="^non-finite gradient values$"):
            grads.check_finite()


class TestFlatLayout:
    def _pruned_pair(self, net, flags):
        """``net`` pruned by ``flags``, which cut layer 0 only, and each
        layer as a bare ``np.delete`` of the same cut gives it. Layer 1 is
        of layer 0's kind."""
        pruned = apply_hard_prune(net, Mask("filter", flags))
        removed = np.flatnonzero(flags[0] == 0)
        expect = [w.copy() for w in net.weights]
        conv = net.layers[0].kind == "conv2d"
        expect[0] = np.delete(expect[0], removed, axis=0 if conv else 1)
        expect[1] = np.delete(expect[1], removed, axis=1 if conv else 0)
        return pruned, expect

    def test_filter_prune_keeps_np_delete_stride_order(self):
        dense = Network.initialize(mlp_specs([6, 4], classes=3), (5,), 3, seed=7)
        conv = small_conv_net(seed=3)
        cuts = []
        for net in (dense, conv):
            flags = [np.ones(n, dtype=np.uint8) for n in group_counts(net, "filter")]
            flags[0][[0, 2]] = 0
            pruned, expect = self._pruned_pair(net, flags)
            for w, e in zip(pruned.weights, expect):
                assert np.shares_memory(w, pruned.flat_w)
                assert stride_order(w) == stride_order(e)
                assert np.array_equal(w, e)
            for b in pruned.biases:
                assert np.shares_memory(b, pruned.flat_b)
            cuts.append(expect)
        # the dense producer's cut is F-ordered, the conv consumer's neither C nor F
        assert stride_order(cuts[0][0]) == [1, 0]
        assert not (cuts[1][1].flags.c_contiguous or cuts[1][1].flags.f_contiguous)

    def test_clone_is_c_ordered_and_independent(self):
        pruned = filter_pruned_net()
        copy = pruned.clone()
        assert all(w.flags.c_contiguous for w in copy.weights)
        assert not np.shares_memory(copy.flat_w, pruned.flat_w)
        assert all(np.array_equal(a, b) for a, b in zip(copy.weights, pruned.weights))

    def test_gradients_velocities_and_penalties_share_the_weights_layout(self, rng):
        frozen_cut = filter_pruned_net(weight_pruned_net(rng))
        for net in (filter_pruned_net(), small_conv_net(seed=3), frozen_cut):
            x = rng.standard_normal((6, *net.input_shape))
            _, grads = loss_and_grads(net, x, rng.integers(0, net.classes, 6))
            opt = OptimState.for_network(net, 0.01)
            for l, w in enumerate(net.weights):
                want = slot(w, net.flat_w)
                assert slot(grads.weights[l], grads.flat_w) == want
                want_b = slot(net.biases[l], net.flat_b)
                assert slot(grads.biases[l], grads.flat_b) == want_b
            assert opt.flat_vel_w.shape == net.flat_w.shape
            assert opt.flat_vel_b.shape == net.flat_b.shape
            # each mask is a view of the one flat mask, at its weight's
            # offset and strides counted in one-byte elements
            assert (net.frozen is None) == (net is not frozen_cut)
            for w, m in zip(net.weights, net.frozen or ()):
                offset, shape, strides = slot(w, net.flat_w)
                assert slot(m, net.flat_frozen) == (
                    offset // 8, shape, tuple(s // 8 for s in strides))
            # each weight's penalty factor sits at that weight's own index
            index = np.arange(net.flat_w.size, dtype=float)
            assert np.array_equal(
                penalty_for(net, weight_views(net, index)), index
            )
        # a rebound layer would leave the flat buffers stale
        clear = np.zeros(frozen_cut.weights[0].shape, dtype=bool)
        with pytest.raises(TypeError):
            frozen_cut.frozen[0] = clear
        with pytest.raises(TypeError):
            frozen_cut.weights[0] = np.zeros(clear.shape)

    @pytest.mark.parametrize("part", ["weight", "bias"])
    def test_constructor_rejects_a_nan(self, part):
        w, b = np.eye(2), np.zeros(2)
        (w if part == "weight" else b)[1] = np.nan
        with pytest.raises(NumericError, match=f"^non-finite {part} values$"):
            Network((LayerSpec("dense", 2, activation="none"),), (2,), 2, [w], [b])

    @pytest.mark.parametrize("counts, message", [
        ((3, 3, None), "^3 weights arrays for 2 layers$"),
        ((1, 1, None), "^1 weights arrays for 2 layers$"),
        ((2, 3, None), "^3 biases arrays for 2 layers$"),
        ((2, 2, 1), "^1 frozen arrays for 2 layers$"),
    ], ids=["extra-arrays", "missing-arrays", "extra-bias", "missing-mask"])
    def test_constructor_rejects_an_array_count_other_than_the_layers(self, counts, message):
        # 2 -> 3 -> 2, given arrays for a third layer 2 -> 2 or lacking the second
        shapes = [(2, 3), (3, 2), (2, 2)]
        n_w, n_b, n_frozen = counts
        weights = [np.ones(s) for s in shapes[:n_w]]
        biases = [np.zeros(s[1]) for s in shapes[:n_b]]
        frozen = None if n_frozen is None else [np.zeros(s, bool) for s in shapes[:n_frozen]]
        with pytest.raises(DimensionError, match=message):
            Network(mlp_specs([3]), (2,), 2, weights, biases, frozen)

    def test_constructor_rejects_a_nonzero_weight_under_a_frozen_flag(self):
        w, frozen = np.eye(2), np.zeros((2, 2), dtype=bool)
        frozen[0, 1] = True
        spec = (LayerSpec("dense", 2, activation="none"),)
        Network(spec, (2,), 2, [w], [np.zeros(2)], [frozen])
        frozen[1, 1] = True
        with pytest.raises(DomainError, match="^layer 0: nonzero weight under a frozen flag$"):
            Network(spec, (2,), 2, [w], [np.zeros(2)], [frozen])

    def test_constructor_copies_its_arrays(self):
        w = np.eye(2)
        net = Network((LayerSpec("dense", 2, activation="none"),), (2,), 2,
                      [w], [np.zeros(2)])
        net.weights[0][0, 0] = 5.0
        assert w[0, 0] == 1.0


class TestDeterminism:
    def test_same_seed_bitwise_identical_training(self, rng):
        results = []
        for _ in range(2):
            net = Network.initialize(mlp_specs([8, 6]), (4,), 2, seed=11)
            opt = OptimState.for_network(net, 0.01)
            gen = np.random.default_rng(99)
            for _ in range(40):
                x = gen.standard_normal((16, 4))
                y = gen.integers(0, 2, 16)
                _, grads = loss_and_grads(net, x, y)
                sgd_step(net, grads, opt)
            results.append([w.copy() for w in net.weights])
        for a, b in zip(*results):
            assert np.array_equal(a, b)

    def test_accuracy_helper(self):
        net = Network(
            (LayerSpec("dense", 2, activation="none"),),
            (2,),
            2,
            [np.eye(2)],
            [np.zeros(2)],
        )
        x = np.array([[2.0, 0.0], [0.0, 2.0], [3.0, 0.0], [0.0, 1.0]])
        assert accuracy(net, x, np.array([0, 1, 0, 1])) == 1.0
        assert accuracy(net, x, np.array([1, 1, 0, 1])) == 0.75


class TestAccuracy:
    @pytest.mark.parametrize("rows", [1, 63, 64, 65, 200, 512])
    @pytest.mark.parametrize("make_net", [
        lambda: Network.initialize(mlp_specs([64, 48, 32]), (2,), 2, seed=5),
        lambda: small_conv_net(seed=2),
    ], ids=["desk", "conv"])
    def test_equals_the_argmax_of_forward(self, make_net, rows, rng):
        net = make_net()
        x = rng.standard_normal((rows, *net.input_shape))
        y = rng.integers(0, net.classes, rows)
        expect = np.mean(np.argmax(forward(net, x)[0], axis=1) == y)
        assert accuracy(net, x, y) == expect

    @pytest.mark.parametrize("rows, labels", [
        (6, [1]), (6, [0, 1, 0, 1, 0]), (70, np.zeros(71, int)),
        (6, np.zeros((6, 1), int)), (0, []),
    ], ids=["length-1", "one-short", "one-over", "column", "empty"])
    def test_labels_must_match_the_rows(self, rows, labels):
        net = Network.initialize(mlp_specs([4]), (2,), 2, seed=0)
        with pytest.raises(DimensionError):
            accuracy(net, np.ones((rows, 2)), np.asarray(labels))

    def test_input_of_another_shape_raises(self):
        net = small_conv_net(seed=2)
        with pytest.raises(DimensionError):
            accuracy(net, np.zeros((4, 3)), np.zeros(4, int))
