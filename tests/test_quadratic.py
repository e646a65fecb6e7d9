"""Closed-form equilibrium shift vs the independent descent oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growreg.errors import (
    ConvergenceError,
    DimensionError,
    DomainError,
    SingularSystemError,
)
from growreg.quadratic import (
    DESCENT_BLOCK,
    QuadraticModel,
    diagonal_ratio,
    gd_minimize_quadratic,
    perturbed_minimum,
    random_psd_model,
    two_d_ratios,
    two_d_ratios_exact,
)

EPS = np.finfo(float).eps


def reference_descent(model, delta, step, max_iters=200_000, tol=1e-12):
    """The textbook descent loop, one update ``w - step * grad`` and one
    gradient check per iteration; the oracle must agree with it."""
    h = model.hessian
    target = h @ model.w_star
    w = model.w_star.copy()
    for it in range(max_iters + 1):
        grad = h @ w + delta * w - target
        gnorm = np.max(np.abs(grad)) if grad.size else 0.0
        if gnorm < tol:
            return w
        if it == max_iters:
            break
        w = w - step * grad
    raise ConvergenceError("reference descent did not converge", residual=float(gnorm))


class TestModelValidation:
    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            QuadraticModel(np.ones((2, 3)), np.ones(2))

    def test_rejects_weight_length_mismatch(self):
        with pytest.raises(DimensionError):
            QuadraticModel(np.eye(3), np.ones(2))

    def test_rejects_negative_definite(self):
        with pytest.raises(DomainError):
            QuadraticModel(np.diag([1.0, -0.5]), np.ones(2))

    @pytest.mark.parametrize("h, w, name", [
        ([[np.nan, 0.0], [0.0, 1.0]], [1.0, 1.0], "hessian"),
        ([[np.inf, 0.0], [0.0, 1.0]], [1.0, 1.0], "hessian"),
        ([[1.0, 0.0], [0.0, 1.0]], [np.nan, 1.0], "w_star"),
        ([[1.0, 0.0], [0.0, 1.0]], [1.0, -np.inf], "w_star"),
    ])
    def test_rejects_non_finite_entries(self, h, w, name):
        # eigvalsh of a NaN matrix gives NaN eigenvalues, which pass the PSD check
        with pytest.raises(DomainError, match=f"^{name} holds a NaN or an infinity$"):
            QuadraticModel(np.array(h), np.array(w))

    def test_symmetrizes_with_warning(self):
        h = np.array([[2.0, 0.5], [0.3, 2.0]])
        with pytest.warns(UserWarning, match="asymmetry"):
            model = QuadraticModel(h, np.ones(2))
        assert np.max(np.abs(model.hessian - model.hessian.T)) < 1e-12
        assert model.hessian[0, 1] == pytest.approx(0.4)

    def test_tiny_asymmetry_silently_symmetrized(self):
        h = np.eye(2)
        h[0, 1] = 1e-12
        model = QuadraticModel(h, np.ones(2))
        assert np.max(np.abs(model.hessian - model.hessian.T)) < 1e-12


class TestPerturbedMinimum:
    def test_identity_hessian_uniform_shrink(self):
        model = QuadraticModel(np.eye(2), np.array([1.0, 1.0]))
        with pytest.warns(UserWarning, match="small-increment"):
            w_hat = perturbed_minimum(model, 1.0)
        assert np.allclose(w_hat, [0.5, 0.5], atol=1e-14)

    def test_diagonal_per_coordinate_shrink(self):
        model = QuadraticModel(np.diag([1.0, 2.0]), np.array([1.0, 1.0]))
        with pytest.warns(UserWarning):
            w_hat = perturbed_minimum(model, 1.0)
        assert np.allclose(w_hat, [0.5, 2.0 / 3.0], atol=1e-14)

    def test_coupled_case_matches_descent_oracle(self):
        model = QuadraticModel(np.array([[3.0, 1.0], [1.0, 2.0]]), np.array([1.0, 1.0]))
        closed = perturbed_minimum(model, 0.1)
        oracle = gd_minimize_quadratic(model, 0.1, step=0.2, tol=1e-12)
        assert np.max(np.abs(closed - oracle)) < 1e-8

    def test_singular_without_increment(self):
        model = QuadraticModel(np.diag([1.0, 0.0]), np.ones(2))
        with pytest.raises(SingularSystemError):
            perturbed_minimum(model, 0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("delta", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_increment_rejected(self, dim, delta):
        model = QuadraticModel(np.eye(dim), np.ones(dim))
        with pytest.raises(DomainError, match="delta_lambda must be finite"):
            perturbed_minimum(model, delta)

    def test_large_system_uses_solve_not_inverse(self):
        rng = np.random.default_rng(5)
        model = random_psd_model(rng, 40)
        w_hat = perturbed_minimum(model, 0.05)
        residual = (model.hessian + 0.05 * np.eye(40)) @ w_hat - model.hessian @ model.w_star
        assert np.max(np.abs(residual)) < 1e-10


class TestDiagonalRatio:
    def test_zero_curvature_collapses(self):
        assert diagonal_ratio(0.0, 0.3) == 0.0

    def test_matched_scales_give_half(self):
        assert diagonal_ratio(0.7, 0.7) == pytest.approx(0.5, abs=1e-15)

    def test_tabulated_value(self):
        assert diagonal_ratio(3.0, 1.0) == pytest.approx(0.75, abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            diagonal_ratio(-1.0, 0.1)
        with pytest.raises(DomainError):
            diagonal_ratio(1.0, 0.0)
        with pytest.raises(DomainError):
            diagonal_ratio(1.0, -0.1)

    def test_monotone_in_curvature(self, rng):
        pairs = rng.uniform(0.0, 10.0, size=(1000, 2))
        deltas = rng.uniform(1e-4, 5.0, size=1000)
        for (a, b), d in zip(pairs, deltas):
            hi, lo = max(a, b), min(a, b)
            if hi == lo:
                continue
            assert diagonal_ratio(hi, d) > diagonal_ratio(lo, d)

    def test_limits_in_delta(self):
        assert diagonal_ratio(1.0, 1e-12) > 1 - 1e-11
        assert diagonal_ratio(1.0, 1e12) < 1e-11

    def test_anti_monotone_in_delta(self, rng):
        h = rng.uniform(0.1, 10.0, size=500)
        d_lo = rng.uniform(1e-4, 1.0, size=500)
        d_hi = d_lo + rng.uniform(1e-4, 1.0, size=500)
        for hi, a, b in zip(h, d_lo, d_hi):
            assert diagonal_ratio(hi, a) > diagonal_ratio(hi, b)


class TestTwoDRatios:
    def test_symmetric_pair_equal_ratios(self):
        model = QuadraticModel(np.array([[2.0, 1.0], [1.0, 2.0]]), np.ones(2))
        r1, r2 = two_d_ratios(model, 0.1)
        assert r1 == pytest.approx(3.2 / 3.41, abs=1e-12)
        assert r2 == pytest.approx(3.2 / 3.41, abs=1e-12)

    def test_tabulated_asymmetric_pair(self):
        model = QuadraticModel(np.array([[3.0, 1.0], [1.0, 2.0]]), np.ones(2))
        r1, r2 = two_d_ratios(model, 0.1)
        assert r1 == pytest.approx(5.3 / 5.51, abs=1e-12)
        assert r2 == pytest.approx(5.2 / 5.51, abs=1e-12)
        exact = perturbed_minimum(model, 0.1)
        assert (r1 > r2) == (exact[0] > exact[1])

    def test_reduces_to_diagonal_when_uncoupled(self, rng):
        for _ in range(50):
            h11, h22 = rng.uniform(0.05, 5.0, size=2)
            delta = rng.uniform(1e-3, 0.5)
            model = QuadraticModel(np.diag([h11, h22]), np.ones(2))
            r1, r2 = two_d_ratios(model, delta)
            assert abs(r1 - diagonal_ratio(h11, delta)) < 1e-12
            assert abs(r2 - diagonal_ratio(h22, delta)) < 1e-12

    def test_dimension_error(self):
        model = QuadraticModel(np.eye(3), np.ones(3))
        with pytest.raises(DimensionError):
            two_d_ratios(model, 0.1)

    def test_exact_needs_nonzero_weights(self):
        model = QuadraticModel(np.eye(2), np.array([1.0, 0.0]))
        with pytest.raises(DomainError):
            two_d_ratios_exact(model, 0.1)


class TestDescentOracle:
    def test_identity_converges_to_half(self):
        model = QuadraticModel(np.eye(2), np.array([1.0, 1.0]))
        w = gd_minimize_quadratic(model, 1.0, step=0.1, tol=1e-10)
        assert np.max(np.abs(w - 0.5)) < 1e-9

    def test_agrees_with_linear_solve_d10(self):
        rng = np.random.default_rng(11)
        model = random_psd_model(rng, 10)
        closed = perturbed_minimum(model, 0.05)
        gd = gd_minimize_quadratic(
            model, 0.05, step=1.0 / (model.eigenvalues[-1] + 0.05), tol=1e-12
        )
        assert np.max(np.abs(closed - gd)) < 1e-8

    @pytest.mark.parametrize("tol", [1e-10, 1e-300])
    def test_zero_increment_is_fixed_point(self, tol):
        # the gradient at w* is exactly 0, so even a tol no descent reaches is met
        rng = np.random.default_rng(12)
        model = random_psd_model(rng, 6)
        for descent in (gd_minimize_quadratic, reference_descent):
            w = descent(model, 0.0, step=0.05, tol=tol)
            assert np.array_equal(w, model.w_star)

    def test_unstable_step_rejected(self):
        model = QuadraticModel(np.eye(2), np.ones(2))
        with pytest.raises(DomainError):
            gd_minimize_quadratic(model, 1.0, step=1.5)

    def test_budget_exhaustion_reports_residual(self):
        model = QuadraticModel(np.diag([1.0, 2.0]), np.ones(2))
        with pytest.raises(ConvergenceError) as err:
            gd_minimize_quadratic(model, 0.1, step=1e-6, max_iters=5, tol=1e-14)
        assert err.value.residual > 0

    @pytest.mark.parametrize("kwargs, message", [
        ({"delta": float("nan")}, "delta_lambda must be finite, got nan"),
        ({"delta": float("inf")}, "delta_lambda must be finite, got inf"),
        ({"delta": -float("inf")}, "delta_lambda must be finite, got -inf"),
        ({"tol": float("nan")}, "tol must be finite and > 0, got nan"),
        ({"tol": float("inf")}, "tol must be finite and > 0, got inf"),
        ({"tol": 0.0}, "tol must be finite and > 0, got 0.0"),
        ({"max_iters": -1}, "max_iters must be an integer >= 0, got -1"),
        ({"max_iters": 2.5}, "max_iters must be an integer >= 0, got 2.5"),
        ({"max_iters": 10.0}, "max_iters must be an integer >= 0, got 10.0"),
        ({"max_iters": True}, "max_iters must be an integer >= 0, got True"),
    ], ids=["nan-delta", "inf-delta", "neg-inf-delta", "nan-tol", "inf-tol", "zero-tol",
            "negative-iters", "fractional-iters", "float-iters", "bool-iters"])
    def test_bad_arguments_fail_before_any_descent(self, kwargs, message):
        model = QuadraticModel(np.diag([1.0, 2.0]), np.ones(2))
        args = {"delta": 0.1, "step": 0.2, "tol": 1e-12} | kwargs
        with pytest.raises(DomainError, match=f"^{message}$"):
            gd_minimize_quadratic(model, **args)

    @pytest.mark.parametrize("k", [DESCENT_BLOCK, DESCENT_BLOCK + 1])
    def test_stopping_index_is_exact_across_a_block_edge(self, k):
        # H = 1, delta = 1, step 1/4: w <- w/2 + 1/4, whose gradient 2w - 1 is
        # exactly 2^-i at iterate i, so iterate k is the first below tol
        model = QuadraticModel(np.eye(1), np.ones(1))
        tol = 0.75 * 0.5 ** (k - 1)
        expect = reference_descent(model, 1.0, 0.25, max_iters=k, tol=tol)
        assert expect[0] == 0.5 + 0.5 ** (k + 1)
        for max_iters in range(k - 2, k + 3):
            if max_iters < k:
                with pytest.raises(ConvergenceError) as err:
                    gd_minimize_quadratic(model, 1.0, 0.25, max_iters=max_iters, tol=tol)
                assert err.value.residual == 0.5 ** max_iters
            else:
                w = gd_minimize_quadratic(model, 1.0, 0.25, max_iters=max_iters, tol=tol)
                assert np.array_equal(w, expect)

    @pytest.mark.filterwarnings("ignore:delta_lambda .* is not small:UserWarning")
    @settings(max_examples=120, deadline=None)
    @given(dim=st.integers(1, 30), delta=st.sampled_from([0.0, 1e-3, 0.1, 1.0]),
           tol=st.floats(1e-13, 1e-8), seed=st.integers(0, 2**32 - 1))
    def test_meets_tol_and_agrees_with_textbook_and_closed_form(self, dim, delta, tol, seed):
        model = random_psd_model(np.random.default_rng(seed), dim)
        step = 1.0 / (model.eigenvalues[-1] + delta)
        w = gd_minimize_quadratic(model, delta, step, tol=tol)
        shifted = model.hessian + delta * np.eye(dim)
        target = model.hessian @ model.w_star
        # recomputed in another summation order, the gradient moves by at most
        # the rounding bound of two length-dim dot products
        slack = 2 * dim * EPS * np.max(np.abs(shifted) @ np.abs(w) + np.abs(target))
        gnorm = np.max(np.abs(shifted @ w - target))
        assert gnorm < tol + slack
        # a point whose gradient inf-norm is g lies within sqrt(dim) g / eig_min(A)
        # of the minimum, in inf-norm
        radius = np.sqrt(dim) * (tol + slack) / (model.eigenvalues[0] + delta)
        ref = reference_descent(model, delta, step, tol=tol)
        assert np.max(np.abs(w - ref)) <= 2 * radius
        closed = perturbed_minimum(model, delta)
        cond = (model.eigenvalues[-1] + delta) / (model.eigenvalues[0] + delta)
        solve_err = dim * cond * EPS * np.max(np.abs(closed))
        assert np.max(np.abs(w - closed)) <= radius + solve_err


# cumulative bumps outgrow the small-increment regime, which is expected here
@pytest.mark.filterwarnings("ignore:delta_lambda .* is not small:UserWarning")
class TestIteratedShrink:
    """Shrinkage under a growing penalty: ``k`` bumps of ``delta``, each
    solved against the original model as ``perturbed_minimum(k * delta)``."""

    @staticmethod
    def ratios(model, delta, steps):
        return [perturbed_minimum(model, k * delta) / model.w_star
                for k in range(1, steps + 1)]

    @staticmethod
    def spread(ratios):
        return float(ratios.max() - ratios.min())

    def test_diagonal_closed_form_and_growing_spread(self):
        model = QuadraticModel(np.diag([1.0, 10.0]), np.array([1.0, 1.0]))
        spreads = []
        for k, ratios in enumerate(self.ratios(model, 0.5, steps=4), start=1):
            expected = np.array([1.0 / (1.0 + 0.5 * k), 10.0 / (10.0 + 0.5 * k)])
            assert np.allclose(ratios, expected, atol=1e-12)
            spreads.append(self.spread(ratios))
        assert all(b > a for a, b in zip(spreads, spreads[1:]))

    def test_isotropic_spread_is_zero(self):
        model = QuadraticModel(np.eye(3), np.array([2.0, -1.0, 0.5]))
        for ratios in self.ratios(model, 0.2, steps=5):
            assert self.spread(ratios) < 1e-14

    def test_coupled_spread_strictly_increases(self):
        model = QuadraticModel(np.array([[3.0, 1.0], [1.0, 2.0]]), np.array([1.0, 1.0]))
        spreads = [self.spread(r) for r in self.ratios(model, 0.1, steps=10)]
        assert all(b > a for a, b in zip(spreads, spreads[1:]))
