"""Equilibrium shift of a converged quadratic model under an L2 penalty bump.

A converged model is summarized by its (symmetric PSD) Hessian ``H`` and
the converged weights ``w*``. Raising the L2 penalty by a small
``delta_lambda`` moves the minimum to

    w_hat = (H + delta_lambda * I)^-1 H w*,

and the per-coordinate survival ratio ``r_i = w_hat_i / w*_i`` encodes the
local curvature: flat directions collapse, stiff directions barely move.
This module provides the closed forms (full, diagonal, and 2-d approximate)
and a plain gradient-descent minimizer that serves as an independent oracle
for the closed forms. The descent runs as the affine recurrence
``w <- (I - step A) w + step H w*`` with ``A = H + delta_lambda I``, at two
small numpy calls per iteration, and checks the gradients of
``DESCENT_BLOCK`` iterates at a time with one matrix product. A penalty
that keeps growing is a series of such bumps: the minimum after ``k``
bumps of ``delta`` against the original model is
``perturbed_minimum(model, k * delta)``.

Every bump ``delta`` is a plain number. All functions are pure; inputs are
never mutated.

scipy serves only the closed-form solve (a Cholesky factorization) and is
imported at the first one, so a process that never solves never loads it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DimensionError, DomainError, SingularSystemError

SYMMETRY_WARN_TOL = 1e-9
PSD_EIG_TOL = -1e-10
# iterates per gradient check; a block may run up to DESCENT_BLOCK - 1 past
# the returned one
DESCENT_BLOCK = 32


@dataclass(frozen=True, eq=False)
class QuadraticModel:
    """Symmetric PSD curvature matrix and converged weights.

    The matrix is symmetrized on construction; asymmetry beyond
    ``SYMMETRY_WARN_TOL`` triggers a warning, and a NaN or infinite
    entry or an eigenvalue below ``PSD_EIG_TOL`` is rejected outright.
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
        for name, a in (("hessian", h), ("w_star", w)):
            if not np.isfinite(a).all():
                raise DomainError(f"{name} holds a NaN or an infinity")
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


def _solve_shifted(model: QuadraticModel, delta: float) -> np.ndarray:
    """Solve (H + delta I) w = H w* by dense symmetric factorization."""
    # imported at first use: scipy.linalg is most of growreg's import time
    from scipy.linalg import cho_factor, cho_solve

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


def perturbed_minimum(model: QuadraticModel, delta: float) -> np.ndarray:
    """New converged weights after bumping the penalty by ``delta``.

    Returns the solution of ``(H + delta I) w = H w*``. Warns when the bump
    is not small against the least positive curvature, where the
    small-increment reading of the ratios degrades; a non-finite bump is
    rejected without a warning.
    """
    min_pos = model.min_positive_eigenvalue()
    if 0 < delta < np.inf and min_pos is not None and delta >= min_pos:
        warnings.warn(
            f"delta_lambda {delta:.3e} is not small against the least positive "
            f"curvature {min_pos:.3e}; small-increment regime does not hold",
            stacklevel=2,
        )
    return _solve_shifted(model, delta)


def diagonal_ratio(h_ii: float, delta: float) -> float:
    """Survival ratio for an independent coordinate with curvature ``h_ii``.

    Equals ``1 / (delta/h_ii + 1)``; lies in [0, 1) and is 0 exactly at
    ``h_ii == 0``.
    """
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


def two_d_ratios(model: QuadraticModel, delta: float):
    """Coupled-pair survival ratios with the small-increment cross term dropped.

    r1 = (h11 h22 + h11 delta - h12^2) / det(H + delta I)
    r2 = (h11 h22 + h22 delta - h12^2) / det(H + delta I)

    The dropped term is O(delta * h12), so these are exact at h12 = 0 and
    order the coordinates by curvature: r1 > r2 iff h11 > h22.
    """
    h11, h12, h22, det = _check_2d(model, delta)
    common = h11 * h22 - h12 * h12
    r1 = (common + h11 * delta) / det
    r2 = (common + h22 * delta) / det
    return r1, r2


def two_d_ratios_exact(model: QuadraticModel, delta: float):
    """Exact coupled-pair ratios, cross term included.

    Requires both converged weights to be nonzero since the ratios divide
    by them.
    """
    _check_2d(model, delta)
    w = model.w_star
    if np.any(w == 0):
        raise DomainError("exact 2-d ratios undefined where w_star has zeros")
    w_hat = _solve_shifted(model, delta)
    return w_hat[0] / w[0], w_hat[1] / w[1]


def gd_minimize_quadratic(
    model: QuadraticModel,
    delta: float,
    step: float,
    max_iters: int = 200_000,
    tol: float = 1e-12,
) -> np.ndarray:
    """Minimize the penalty-bumped quadratic by plain gradient descent.

    Independent oracle for :func:`perturbed_minimum`: no linear solve, no
    matrix inverse, just descent on the shifted quadratic from ``w*``,
    returning the first iterate whose gradient ``(H + delta I) w - H w*``
    has infinity-norm below ``tol``. Stable for
    ``step < 2 / (eig_max(H) + delta)``.

    With ``A = H + delta I``, a descent step ``w - step * (A w - H w*)`` is
    the affine map ``w <- B w + c``, ``B = I - step * A`` and
    ``c = step * H w*``, built once. The iterates are written
    ``DESCENT_BLOCK`` at a time into the rows of one block, and the
    gradients of a whole block are checked with one product; a block may
    run past the returned iterate. Iterates differ from the textbook
    update's in the last bits. Raises ``DomainError`` for a non-finite
    ``delta`` or ``tol``, a ``max_iters`` that is not an integer >= 0, or an
    unstable step, and ``ConvergenceError`` with the gradient norm of
    iterate ``max_iters`` when none before it met ``tol``.
    """
    if not np.isfinite(delta):
        raise DomainError(f"delta_lambda must be finite, got {delta}")
    if not 0 < tol < np.inf:
        raise DomainError(f"tol must be finite and > 0, got {tol}")
    if (not isinstance(max_iters, (int, np.integer)) or isinstance(max_iters, bool)
            or max_iters < 0):
        raise DomainError(f"max_iters must be an integer >= 0, got {max_iters!r}")
    eig_max = float(model.eigenvalues[-1]) if model.dim else 0.0
    limit = 2.0 / (eig_max + delta) if (eig_max + delta) > 0 else np.inf
    if not (0 < step < limit):
        raise DomainError(
            f"step {step} outside stable range (0, {limit:.6g}) "
            f"for eig_max {eig_max:.6g} and delta {delta:.6g}"
        )
    h, w_star = model.hessian, model.w_star
    shifted = h + delta * np.eye(model.dim)
    target = h @ w_star
    # the start's gradient H w* + delta w* - H w* as the textbook loop forms it,
    # so at delta 0 it is exactly 0 and w* comes back at any tol
    gnorm = np.max(np.abs(target + delta * w_star - target), initial=0.0)
    if gnorm < tol:
        return w_star.copy()
    update = np.eye(model.dim) - step * shifted
    offset = step * target
    block = np.empty((DESCENT_BLOCK + 1, model.dim))  # row 0: the iterate before the block
    block[0] = w_star
    rows = list(block)
    done = 0
    while done < max_iters:
        n = min(DESCENT_BLOCK, max_iters - done)
        for prev, row in zip(rows[:n], rows[1:n + 1]):
            np.dot(update, prev, out=row)
            row += offset
        norms = np.max(np.abs(block[1:n + 1] @ shifted.T - target), axis=1)
        hits = np.flatnonzero(norms < tol)
        if hits.size:
            return block[1 + hits[0]].copy()
        done += n
        gnorm = norms[-1]
        block[0] = block[n]
    raise ConvergenceError(
        f"gradient descent did not reach tol {tol:.1e} in {max_iters} iterations "
        f"(final grad inf-norm {gnorm:.3e})",
        residual=float(gnorm),
    )


def random_psd_model(rng: np.random.Generator, dim: int, eig_low=0.1, eig_high=5.0):
    """Seeded random PSD model: rotated uniform spectrum, unit-scale weights."""
    eigs = rng.uniform(eig_low, eig_high, size=dim)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    h = (q * eigs) @ q.T
    w_star = rng.standard_normal(dim)
    return QuadraticModel(hessian=h, w_star=w_star)
