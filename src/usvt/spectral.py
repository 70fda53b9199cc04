"""Dense-matrix spectral primitives.

Input validation, the thin SVD and the singular values the denoiser
needs, the nuclear norm, and the Kolmogorov-Smirnov distance between the
eigenvalues of X X^T / n and their Marchenko-Pastur limit.  Singular
values are computed in the wide (m <= n) orientation, so a non-square x
and x.T give bit-identical values.  A square x is never transposed: x and
x.T are different inputs to LAPACK and agree only to rounding.
"""

from __future__ import annotations

import numpy as np

from .mp_law import MPLaw


class SvdConvergenceError(RuntimeError):
    """The SVD iteration failed to converge; results would be garbage."""


def as_matrix(x) -> np.ndarray:
    """Validate input as a finite 2-d float64 matrix with m, n >= 1."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 or min(a.shape) < 1:
        raise ValueError(f"expected a nonempty 2-d matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must all be finite")
    return a


def svd(x):
    """Thin SVD (u, s, vt) of x as numpy computes it, values descending."""
    a = as_matrix(x)
    try:
        return np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(f"SVD did not converge: {exc}") from exc


def singular_values(x) -> np.ndarray:
    """Singular values of x, descending, length min(m, n).

    Computed in the m <= n orientation, so for m != n x and x.T yield
    bit-identical values; for m == n they agree only to rounding.
    """
    a = as_matrix(x)
    if a.shape[0] > a.shape[1]:
        a = a.T
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(f"SVD did not converge: {exc}") from exc


def nuclear_norm(x) -> float:
    """Sum of singular values."""
    return float(singular_values(x).sum())


def ks_distance(x, law: MPLaw) -> float:
    """sup_t |F_n(t) - F_gamma(t)| between the empirical CDF of the
    eigenvalues of X X^T / n (n = max(m, n)) and the Marchenko-Pastur limit.

    The supremum is attained at eigenvalue jump points, where both one-sided
    limits are checked.  F_gamma is 0 at the last eigenvalue <= gamma_minus
    and 1 at the first one > gamma_plus, so the limits there already give
    the mass outside the support.
    """
    evals = singular_values(x)[::-1] ** 2 / max(np.shape(x))  # ascending
    m = evals.size
    f_gamma = np.array([law.cdf(e) for e in evals])
    above = np.arange(1, m + 1) / m - f_gamma   # right limits of F_n
    below = f_gamma - np.arange(0, m) / m       # left limits of F_n
    return float(max(np.abs(above).max(), np.abs(below).max()))
