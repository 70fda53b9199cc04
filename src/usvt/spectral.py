"""Dense-matrix spectral primitives.

Input validation, the singular values and the rank-k part (from W W^T's
top-k eigenvectors) the denoiser needs, the thin SVD it falls back to, the
nuclear norm, and the Kolmogorov-Smirnov distance between the eigenvalues
of X X^T / n and their Marchenko-Pastur limit.  Singular values are
computed in the wide (m <= n) orientation W, so a non-square x and x.T
give bit-identical values.  A square x is never transposed: x and x.T are
different inputs to LAPACK and agree only to rounding.
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
    bit-identical values; for m == n they agree only to rounding.  If the
    SVD does not converge they are sqrt(max(eigenvalues of W W^T, 0)),
    which needs no SVD iteration but loses the relative accuracy of values
    far below the largest.
    """
    w = as_matrix(x)
    if w.shape[0] > w.shape[1]:
        w = w.T
    try:
        return np.linalg.svd(w, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        error = exc
    with np.errstate(over="ignore"):
        gram = w @ w.T
    if np.isfinite(gram).all():
        try:
            return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[::-1], 0.0))
        except np.linalg.LinAlgError as exc:
            error = exc
    raise SvdConvergenceError(f"SVD did not converge, nor its W W^T fallback: {error}") from error


def rank_k_part(w: np.ndarray, k: int) -> np.ndarray:
    """Q_k Q_k^T w, Q_k the top-k eigenvectors of w w^T for a wide w: the
    rank-k SVD truncation to rounding while (s_k^2 - s_{k+1}^2) / s_1^2 is
    well resolved, which the caller checks."""
    q = np.linalg.eigh(w @ w.T)[1][:, -k:]
    return q @ (q.T @ w)


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
