"""Forward/backward correctness, loss values, and optimizer semantics."""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from conftest import mlp_specs, small_conv_net
from growreg.errors import DimensionError, DomainError, NumericError
from growreg.netcore import (
    GradBuffer,
    LayerSpec,
    Network,
    OptimState,
    accuracy,
    forward,
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
    correlation of the zero-padded upstream gradient with flipped kernels."""
    logits, cache = forward(net, x)
    _, dout = softmax_cross_entropy(logits, y)
    d_w, d_b = [None] * len(net.layers), [None] * len(net.layers)
    for l in reversed(range(len(net.layers))):
        spec, w, entry = net.layers[l], net.weights[l], cache[l]
        dz = dout * (entry["z"] > 0) if spec.activation == "relu" else dout
        if spec.kind == "dense":
            d_w[l] = entry["x2"].T @ dz
            d_b[l] = dz.sum(axis=0)
            dout = (dz @ w.T).reshape(entry["x"].shape)
            continue
        kh, kw = spec.kernel
        win = sliding_window_view(entry["x"], (kh, kw), axis=(2, 3))
        d_w[l] = np.einsum("bfij,bcijkl->fckl", dz, win)
        d_b[l] = dz.sum(axis=(0, 2, 3))
        dz_pad = np.pad(dz, ((0, 0), (0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1)))
        pwin = sliding_window_view(dz_pad, (kh, kw), axis=(2, 3))
        dout = np.einsum("bfijkl,fckl->bcij", pwin, w[:, :, ::-1, ::-1])
    return d_w, d_b


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

    def test_label_out_of_range(self, rng):
        net = Network.initialize(mlp_specs([4]), (3,), 2, seed=0)
        with pytest.raises(DomainError):
            loss_and_grads(net, rng.standard_normal((3, 3)), np.array([0, 2, 1]))

    def test_nan_loss_raises(self, rng):
        net = Network.initialize(mlp_specs([4]), (3,), 2, seed=0)
        net.biases[-1][0] = np.inf
        with pytest.raises(NumericError):
            loss_and_grads(net, rng.standard_normal((3, 3)), np.array([0, 1, 1]))


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

    def _zero_grads(self, net):
        return GradBuffer(
            [np.zeros_like(w) for w in net.weights],
            [np.zeros_like(b) for b in net.biases],
        )

    def test_pure_decay_scales_weights(self):
        net = self._net()
        w0 = net.weights[0].copy()
        opt = OptimState.for_network(net, 0.1, momentum=0.0, base_decay=0.0)
        sgd_step(net, self._zero_grads(net), opt, {0: 0.5})
        assert np.allclose(net.weights[0], w0 * (1 - 0.1 * 0.5), atol=0.0)

    def test_negative_penalty_grows_weights(self):
        net = self._net()
        w0 = net.weights[0].copy()
        opt = OptimState.for_network(net, 0.1, momentum=0.0, base_decay=5e-4)
        sgd_step(net, self._zero_grads(net), opt, {0: -5e-4})
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
            grads = GradBuffer([d * (net.weights[0] - a)], [np.zeros(2)])
            sgd_step(net, grads, opt)
        residual = lam * net.weights[0] + d * (net.weights[0] - a)
        assert np.max(np.abs(residual)) < 1e-6

    def test_matches_textbook_update_exactly(self, rng):
        net = Network.initialize(mlp_specs([6, 4], classes=3), (5,), 3, seed=7)
        gamma, lr, mu = 5e-4, 0.01, 0.9
        ref_w = [w.copy() for w in net.weights]
        ref_b = [b.copy() for b in net.biases]
        ref_vw = [np.zeros_like(w) for w in net.weights]
        ref_vb = [np.zeros_like(b) for b in net.biases]
        opt = OptimState.for_network(net, lr, momentum=mu, base_decay=gamma)
        for _ in range(5):
            grads = GradBuffer(
                [rng.standard_normal(w.shape) for w in net.weights],
                [rng.standard_normal(b.shape) for b in net.biases],
            )
            sgd_step(net, grads, opt)
            for l in range(len(ref_w)):
                ref_vw[l] = ref_vw[l] * mu + (grads.weights[l] + gamma * ref_w[l])
                ref_w[l] = ref_w[l] - lr * ref_vw[l]
                ref_vb[l] = ref_vb[l] * mu + grads.biases[l]
                ref_b[l] = ref_b[l] - lr * ref_vb[l]
        for l in range(len(ref_w)):
            assert np.max(np.abs(net.weights[l] - ref_w[l])) == 0.0
            assert np.max(np.abs(net.biases[l] - ref_b[l])) == 0.0

    def test_frozen_weights_pinned_at_zero(self, rng):
        net = Network.initialize(mlp_specs([5]), (4,), 2, seed=8)
        frozen = np.zeros_like(net.weights[0], dtype=bool)
        frozen[0, :] = True
        net.weights[0][frozen] = 0.0
        net.frozen[0] = frozen
        opt = OptimState.for_network(net, 0.05)
        for _ in range(50):
            grads = GradBuffer(
                [rng.standard_normal(w.shape) for w in net.weights],
                [rng.standard_normal(b.shape) for b in net.biases],
            )
            sgd_step(net, grads, opt)
        assert np.all(net.weights[0][frozen] == 0.0)
        assert np.any(net.weights[0][~frozen] != 0.0)

    def test_wrong_penalty_shape_rejected(self):
        net = self._net()
        opt = OptimState.for_network(net, 0.1)
        with pytest.raises(DimensionError):
            sgd_step(net, self._zero_grads(net), opt, {0: np.ones(3)})

    def test_non_finite_update_rejected(self):
        net = self._net()
        opt = OptimState.for_network(net, 0.1)
        grads = self._zero_grads(net)
        grads.weights[0][0, 0] = np.inf
        with pytest.raises(NumericError):
            sgd_step(net, grads, opt)

    def test_momentum_domain(self):
        net = self._net()
        with pytest.raises(DomainError):
            OptimState.for_network(net, 0.1, momentum=1.0)
        with pytest.raises(DomainError):
            OptimState.for_network(net, -0.1)


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
