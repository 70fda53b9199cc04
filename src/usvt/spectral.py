"""Dense-matrix spectral primitives.

Input validation, the singular values and the rank-k SVD truncation the
denoiser needs, the nuclear norm, and the Kolmogorov-Smirnov distance
between the eigenvalues of X X^T / n and their Marchenko-Pastur limit.
Values and truncation are computed in the wide (m <= n) orientation W, so
a non-square x and x.T give bit-identical results; a square x is never
transposed, so x and x.T agree only to rounding.  W W^T is formed at an
exact power-of-two scale, so it neither over- nor underflows.
"""

from __future__ import annotations

import numpy as np

from .mp_law import MPLaw

# rank_k_part takes the Gram eigensolve while (s_k^2 - s_{k+1}^2) / s_1^2 >=
# GRAM_MIN_GAP: there it was measured within 3e-13 of numpy's SVD truncation.
GRAM_MIN_GAP = 1e-2


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


def _gram(w: np.ndarray):
    """(W W^T / 4^e, e), formed exactly from W / 2^e with 2^e the binade of
    max|W|, so that its entries stay below n."""
    e = np.frexp(np.abs(w).max())[1]
    v = np.ldexp(w, -e)
    return v @ v.T, e


def singular_values(x) -> np.ndarray:
    """Singular values of x, descending, length min(m, n).

    Computed in the m <= n orientation, so for m != n x and x.T yield
    bit-identical values; for m == n they agree only to rounding.  If the
    SVD does not converge they are sqrt(max(eigenvalues of W W^T, 0)),
    which needs no SVD iteration but loses the relative accuracy of values
    far below the largest.  Raises ValueError when s_1 overflows float64.
    """
    w = as_matrix(x)
    if w.shape[0] > w.shape[1]:
        w = w.T
    e = 0
    try:
        s = np.linalg.svd(w, compute_uv=False)
    except np.linalg.LinAlgError:
        gram, e = _gram(w)
        try:
            s = np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[::-1], 0.0))
        except np.linalg.LinAlgError as exc:
            raise SvdConvergenceError(
                f"SVD did not converge, nor its W W^T fallback: {exc}") from exc
    # s_1 2^e is a finite float64 while its binary exponent is at most 1024
    if not np.isfinite(s[0]) or np.frexp(s[0])[1] + e > 1024:
        raise ValueError("the largest singular value overflows float64")
    return np.ldexp(s, e)


def _gram_part(w: np.ndarray, k: int) -> np.ndarray:
    q = np.linalg.eigh(_gram(w)[0])[1][:, -k:]
    return q @ (q.T @ w)


def _svd_part(w: np.ndarray, k: int) -> np.ndarray:
    u, s, vt = np.linalg.svd(w, full_matrices=False)
    return (u[:, :k] * s[:k]) @ vt[:k]


def rank_k_part(a: np.ndarray, values: np.ndarray, k: int) -> np.ndarray:
    """The rank-k SVD truncation of a validated matrix a, 1 <= k.

    `values` are a's singular values, descending.  At a relative squared gap
    (s_k^2 - s_{k+1}^2) / s_1^2 >= GRAM_MIN_GAP it is Q_k Q_k^T W, Q_k the
    top-k eigenvectors of W W^T, and no singular vectors are computed;
    below it, numpy's thin SVD is truncated.  When the chosen LAPACK route
    does not converge the other one runs; only when both fail is
    SvdConvergenceError raised.
    """
    wide = a.shape[0] <= a.shape[1]
    # C order, so x and x.T reach LAPACK as the same bytes
    w = np.ascontiguousarray(a if wide else a.T)
    sk, below = np.append(values, 0.0)[k - 1:k + 1] / values[0]
    first, second = _gram_part, _svd_part
    if sk * sk - below * below < GRAM_MIN_GAP:
        first, second = second, first
    try:
        top = first(w, k)
    except np.linalg.LinAlgError:
        try:
            top = second(w, k)
        except np.linalg.LinAlgError as exc:
            raise SvdConvergenceError(
                f"neither eigh nor the SVD converged for the rank-{k} part: {exc}") from exc
    return top if wide else top.T


def nuclear_norm(x) -> float:
    """Sum of singular values."""
    return float(singular_values(x).sum())


def ks_distance(values, shape) -> float:
    """sup_t |F_n(t) - F_gamma(t)| between the empirical CDF of s_i^2 / n,
    for any 1 to min(m, n) singular values s_i of an m x n matrix in any
    order, and the Marchenko-Pastur law, gamma = min(m, n) / n, n = max(m, n).

    The supremum is attained at eigenvalue jump points, where both one-sided
    limits are checked.  F_gamma is 0 at the last eigenvalue <= gamma_minus
    and 1 at the first one > gamma_plus, so the limits there already give
    the mass outside the support.  A value with |s| >= 4 sqrt(n) has
    s^2 / n >= 16 > gamma_plus, where F_gamma is 1, so it is clipped there
    before it is squared, which keeps s^2 finite.
    """
    lo, hi = min(shape), max(shape)
    s = np.asarray(values, dtype=np.float64)
    if s.ndim != 1 or not 1 <= s.size <= lo or not np.isfinite(s).all():
        raise ValueError(f"expected 1 to {lo} finite singular values, got shape {s.shape}")
    s = np.minimum(np.abs(s), 4.0 * np.sqrt(hi))
    law, evals = MPLaw(lo / hi), np.sort(s ** 2) / hi
    f_gamma = np.array([law.cdf(e) for e in evals])
    f_n = np.arange(evals.size + 1) / evals.size  # limits at jump i: f_n[i], f_n[i + 1]
    return float(max(np.abs(f_n[1:] - f_gamma).max(), np.abs(f_gamma - f_n[:-1]).max()))
