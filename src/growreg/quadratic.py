"""Equilibrium shift of a converged quadratic model under an L2 penalty bump.

A converged model is summarized by its (symmetric PSD) Hessian ``H`` and
the converged weights ``w*``. Raising the L2 penalty by a small
``delta_lambda`` moves the minimum to

    w_hat = (H + delta_lambda * I)^-1 H w*,

and the per-coordinate survival ratio ``r_i = w_hat_i / w*_i`` encodes the
local curvature: flat directions collapse, stiff directions barely move.
This module provides the closed forms (full, diagonal, and 2-d approximate),
a plain gradient-descent minimizer that serves as an independent oracle for
the closed forms, and a repeated-shrink simulator.

All functions are pure; inputs are never mutated.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import ConvergenceError, DimensionError, DomainError, SingularSystemError

SYMMETRY_WARN_TOL = 1e-9
PSD_EIG_TOL = -1e-10


@dataclass(frozen=True, eq=False)
class QuadraticModel:
    """Symmetric PSD curvature matrix and converged weights.

    The matrix is symmetrized on construction; asymmetry beyond
    ``SYMMETRY_WARN_TOL`` triggers a warning, and an eigenvalue below
    ``PSD_EIG_TOL`` is rejected outright.
    """

    hessian: np.ndarray
    w_star: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        h = np.asarray(self.hessian, dtype=float)
        w = np.asarray(self.w_star, dtype=float)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise DimensionError(f"hessian must be square, got shape {h.shape}")
        if w.ndim != 1 or w.shape[0] != h.shape[0]:
            raise DimensionError(
                f"w_star length {w.shape} incompatible with hessian {h.shape}"
            )
        asym = np.max(np.abs(h - h.T)) if h.size else 0.0
        if asym > SYMMETRY_WARN_TOL:
            warnings.warn(
                f"hessian asymmetry {asym:.3e} exceeds {SYMMETRY_WARN_TOL:.0e}; "
                "symmetrizing (H + H^T)/2",
                stacklevel=3,
            )
        h = (h + h.T) / 2.0
        eigs = np.linalg.eigvalsh(h)
        if eigs.size and eigs[0] < PSD_EIG_TOL:
            raise DomainError(
                f"hessian is not positive semi-definite (min eigenvalue {eigs[0]:.3e})"
            )
        object.__setattr__(self, "hessian", h)
        object.__setattr__(self, "w_star", w)
        object.__setattr__(self, "eigenvalues", eigs)

    @property
    def dim(self) -> int:
        return self.hessian.shape[0]

    def min_positive_eigenvalue(self):
        pos = self.eigenvalues[self.eigenvalues > 0]
        return float(pos[0]) if pos.size else None


@dataclass(frozen=True)
class PenaltyIncrement:
    """A strictly positive bump of the L2 penalty factor."""

    delta_lambda: float

    def __post_init__(self):
        if not np.isfinite(self.delta_lambda) or self.delta_lambda <= 0:
            raise DomainError(
                f"delta_lambda must be finite and > 0, got {self.delta_lambda}"
            )


@dataclass(frozen=True, eq=False)
class ShrinkReport:
    """Shifted minimum plus per-coordinate survival ratios.

    ``ratios[i]`` is ``w_hat[i] / w_star[i]`` where defined; coordinates with
    ``w_star[i] == 0`` carry ``defined[i] = False`` and a NaN placeholder
    rather than silently propagating.
    """

    w_hat: np.ndarray
    ratios: np.ndarray
    defined: np.ndarray

    @property
    def spread(self) -> float:
        """Max minus min over the defined ratios (0.0 if fewer than 2)."""
        vals = self.ratios[self.defined]
        if vals.size < 2:
            return 0.0
        return float(vals.max() - vals.min())


def _delta(inc) -> float:
    """Accept a PenaltyIncrement or a raw scalar (unvalidated)."""
    if isinstance(inc, PenaltyIncrement):
        return inc.delta_lambda
    return float(inc)


def _solve_shifted(model: QuadraticModel, delta: float) -> np.ndarray:
    """Solve (H + delta I) w = H w* by dense symmetric factorization."""
    if not np.isfinite(delta):
        raise DomainError(f"delta_lambda must be finite, got {delta}")
    h = model.hessian
    shifted = h + delta * np.eye(model.dim)
    rhs = h @ model.w_star
    try:
        factor = cho_factor(shifted, lower=True)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            "shifted system is not positive definite; "
            "delta_lambda <= 0 with a rank-deficient hessian?"
        ) from exc
    return cho_solve(factor, rhs)


def perturbed_minimum(model: QuadraticModel, inc) -> np.ndarray:
    """New converged weights after bumping the penalty by ``inc``.

    Returns the solution of ``(H + delta I) w = H w*``. Warns when the bump
    is not small against the least positive curvature, where the
    small-increment reading of the ratios degrades; a non-finite bump is
    rejected without a warning.
    """
    delta = _delta(inc)
    min_pos = model.min_positive_eigenvalue()
    if 0 < delta < np.inf and min_pos is not None and delta >= min_pos:
        warnings.warn(
            f"delta_lambda {delta:.3e} is not small against the least positive "
            f"curvature {min_pos:.3e}; small-increment regime does not hold",
            stacklevel=2,
        )
    return _solve_shifted(model, delta)


def diagonal_ratio(h_ii: float, inc) -> float:
    """Survival ratio for an independent coordinate with curvature ``h_ii``.

    Equals ``1 / (delta/h_ii + 1)``; lies in [0, 1) and is 0 exactly at
    ``h_ii == 0``.
    """
    delta = _delta(inc)
    if not np.isfinite(h_ii) or h_ii < 0:
        raise DomainError(f"h_ii must be finite and >= 0, got {h_ii}")
    if not np.isfinite(delta) or delta <= 0:
        raise DomainError(f"delta_lambda must be finite and > 0, got {delta}")
    if h_ii == 0:
        return 0.0
    return 1.0 / (delta / h_ii + 1.0)


def _check_2d(model: QuadraticModel, delta: float):
    if model.dim != 2:
        raise DimensionError(f"2-d ratios need a 2x2 hessian, got d={model.dim}")
    h = model.hessian
    h11, h12, h22 = h[0, 0], h[0, 1], h[1, 1]
    det_shifted = (h11 + delta) * (h22 + delta) - h12 * h12
    if det_shifted <= 0:
        raise SingularSystemError(
            f"shifted 2x2 determinant {det_shifted:.3e} is not positive"
        )
    return h11, h12, h22, det_shifted


def two_d_ratios(model: QuadraticModel, inc):
    """Coupled-pair survival ratios with the small-increment cross term dropped.

    r1 = (h11 h22 + h11 delta - h12^2) / det(H + delta I)
    r2 = (h11 h22 + h22 delta - h12^2) / det(H + delta I)

    The dropped term is O(delta * h12), so these are exact at h12 = 0 and
    order the coordinates by curvature: r1 > r2 iff h11 > h22.
    """
    delta = _delta(inc)
    h11, h12, h22, det = _check_2d(model, delta)
    common = h11 * h22 - h12 * h12
    r1 = (common + h11 * delta) / det
    r2 = (common + h22 * delta) / det
    return r1, r2


def two_d_ratios_exact(model: QuadraticModel, inc):
    """Exact coupled-pair ratios, cross term included.

    Requires both converged weights to be nonzero since the ratios divide
    by them.
    """
    delta = _delta(inc)
    _check_2d(model, delta)
    w = model.w_star
    if np.any(w == 0):
        raise DomainError("exact 2-d ratios undefined where w_star has zeros")
    w_hat = _solve_shifted(model, delta)
    return w_hat[0] / w[0], w_hat[1] / w[1]


def gd_minimize_quadratic(
    model: QuadraticModel,
    inc,
    step: float,
    max_iters: int = 200_000,
    tol: float = 1e-12,
) -> np.ndarray:
    """Minimize the penalty-bumped quadratic by plain gradient descent.

    Independent oracle for :func:`perturbed_minimum`: no linear solve, no
    matrix inverse, just descent on the shifted quadratic until the gradient
    ``(H + delta I) w - H w*`` has infinity-norm below ``tol``. Descent
    starts from ``w*``. Stable for ``step < 2 / (eig_max(H) + delta)``.
    """
    delta = _delta(inc)
    if tol <= 0:
        raise DomainError(f"tol must be > 0, got {tol}")
    eig_max = float(model.eigenvalues[-1]) if model.dim else 0.0
    limit = 2.0 / (eig_max + delta) if (eig_max + delta) > 0 else np.inf
    if not (0 < step < limit):
        raise DomainError(
            f"step {step} outside stable range (0, {limit:.6g}) "
            f"for eig_max {eig_max:.6g} and delta {delta:.6g}"
        )
    h = model.hessian
    target = h @ model.w_star
    w = model.w_star.copy()
    gnorm = np.inf
    for it in range(max_iters + 1):
        grad = h @ w + delta * w - target
        gnorm = np.max(np.abs(grad)) if grad.size else 0.0
        if gnorm < tol:
            return w
        if it == max_iters:
            break
        w = w - step * grad
    raise ConvergenceError(
        f"gradient descent did not reach tol {tol:.1e} in {max_iters} iterations "
        f"(final grad inf-norm {gnorm:.3e})",
        residual=float(gnorm),
    )


def iterated_shrink(model: QuadraticModel, inc, steps: int):
    """Shrink reports for cumulative penalties k * delta, k = 1..steps.

    Each report compares against the original model, so step k reflects a
    total penalty bump of ``k * delta``. For curvatures that differ, the
    ratio spread widens as the cumulative penalty grows.
    """
    delta = _delta(inc)
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    w_star = model.w_star
    defined = w_star != 0
    reports = []
    for k in range(1, steps + 1):
        w_hat = _solve_shifted(model, k * delta)
        ratios = np.full_like(w_star, np.nan)
        np.divide(w_hat, w_star, out=ratios, where=defined)
        reports.append(ShrinkReport(w_hat=w_hat, ratios=ratios, defined=defined))
    return reports


def random_psd_model(rng: np.random.Generator, dim: int, eig_low=0.1, eig_high=5.0):
    """Seeded random PSD model: rotated uniform spectrum, unit-scale weights."""
    eigs = rng.uniform(eig_low, eig_high, size=dim)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    h = (q * eigs) @ q.T
    w_star = rng.standard_normal(dim)
    return QuadraticModel(hessian=h, w_star=w_star)
