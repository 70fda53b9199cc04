"""Dense-matrix spectral primitives.

Input validation, the singular values and the rank-k SVD truncation the
denoiser needs, the nuclear norm, and the Kolmogorov-Smirnov distance
between the eigenvalues of X X^T / n and their Marchenko-Pastur limit.
Values and truncation are computed in the wide (m <= n) orientation W, so
a non-square x and x.T give bit-identical results; a square x is never
transposed, so x and x.T agree only to rounding.  W W^T is formed at an
exact power-of-two scale, so it neither over- nor underflows.

`singular_values` is LAPACK's values-only SVD (gesdd), accurate for every
value.  The denoiser takes its values from one eigvalsh of W W^T instead
(`_gram_route`), two to four times cheaper, and the same W W^T then gives
the rank-k part.  The eigenvalues' error |dlambda_i| is about
eps * lambda_1, so the median's relative error grows with the spread
lambda_1 / lambda_med; beyond GRAM_MAX_SPREAD the route is refused and
gesdd runs.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .mp_law import MPLaw

# rank_k_part takes the Gram eigensolve while (s_k^2 - s_{k+1}^2) / s_1^2 >=
# GRAM_MIN_GAP: there it was measured within 3e-13 of numpy's SVD truncation.
GRAM_MIN_GAP = 1e-2

# _gram_route takes the eigenvalues of W W^T while 0 < lambda_med and
# lambda_1 <= GRAM_MAX_SPREAD * lambda_med, lambda_med the lower middle one.
# The relative error of their median against gesdd's was measured at most
# 1.3 eps * lambda_1 / lambda_med (1 x 7 to 600 x 1200), so at most 3e-13.
GRAM_MAX_SPREAD = 2.0 ** 10


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


def _wide(a: np.ndarray) -> np.ndarray:
    # C order, so x and x.T reach LAPACK as the same bytes
    return np.ascontiguousarray(a if a.shape[0] <= a.shape[1] else a.T)


def _gram(w: np.ndarray):
    """(W W^T / 4^e, e), formed exactly from W / 2^e with 2^e the binade of
    max|W|, so that its entries stay below n."""
    e = np.frexp(np.abs(w).max())[1]
    v = np.ldexp(w, -e)
    return v @ v.T, e


def _gram_values(w: np.ndarray):
    """(lambda, e, gram): the eigenvalues lambda of gram = W W^T / 4^e,
    descending, so that s_i = sqrt(lambda_i) 2^e."""
    gram, e = _gram(w)
    return np.linalg.eigvalsh(gram)[::-1], e, gram


def _overflows(s1, e: int) -> bool:
    # s_1 2^e is a finite float64 while its binary exponent is at most 1024
    return not np.isfinite(s1) or np.frexp(s1)[1] + e > 1024


def _svd_values(w: np.ndarray, fallback) -> np.ndarray:
    """gesdd's singular values of the wide matrix w, descending.  Where gesdd
    does not converge, fallback() gives W W^T's (lambda, e) instead, unless
    fallback is None.  Raises SvdConvergenceError when no route converges
    and ValueError when s_1 overflows float64."""
    e = 0
    try:
        s = np.linalg.svd(w, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        if fallback is None:
            raise SvdConvergenceError(
                f"neither eigvalsh of W W^T nor the SVD converged: {exc}") from exc
        try:
            lam, e = fallback()
        except np.linalg.LinAlgError as exc:
            raise SvdConvergenceError(
                f"SVD did not converge, nor its W W^T fallback: {exc}") from exc
        s = np.sqrt(np.maximum(lam, 0.0))
    if _overflows(s[0], e):
        raise ValueError("the largest singular value overflows float64")
    return np.ldexp(s, e)


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
    return _svd_values(w, lambda: _gram_values(w)[:2])


def _gram_route(a: np.ndarray):
    """(values, gram, tol) of the validated matrix a.

    values are a's singular values, descending, as sqrt(lambda_i) 2^e from
    the eigenvalues lambda_i of gram = W W^T / 4^e, with
    |lambda_i 4^e - s_i^2| <= tol s_1^2 against gesdd's s_i:
    tol = 16 (1 + sqrt(min(m, n))) eps is over six times the largest error
    measured, 2.4 (1 + sqrt(min(m, n))) eps from 1 x 3 to 1000 x 1000.  Where
    lambda_med <= 0, lambda_1 > GRAM_MAX_SPREAD lambda_med, eigvalsh does not
    converge or s_1 overflows, values are gesdd's instead, with the same
    errors as singular_values(a), and gram and tol are None; eigvalsh is
    never run twice.
    """
    w = _wide(a)
    try:
        lam, e, gram = _gram_values(w)
    except np.linalg.LinAlgError:
        return _svd_values(w, None), None, None
    median = lam[lam.size // 2]
    s = np.sqrt(np.maximum(lam, 0.0))
    if 0.0 < median and lam[0] <= GRAM_MAX_SPREAD * median and not _overflows(s[0], e):
        tol = 16.0 * (1.0 + math.sqrt(lam.size)) * np.finfo(np.float64).eps
        return np.ldexp(s, e), gram, tol
    return _svd_values(w, lambda: (lam, e)), None, None


def _gram_part(w: np.ndarray, k: int, gram=None) -> np.ndarray:
    q = np.linalg.eigh(_gram(w)[0] if gram is None else gram)[1][:, -k:]
    return q @ (q.T @ w)


def _svd_part(w: np.ndarray, k: int) -> np.ndarray:
    u, s, vt = np.linalg.svd(w, full_matrices=False)
    return (u[:, :k] * s[:k]) @ vt[:k]


def rank_k_part(a: np.ndarray, values: np.ndarray, k: int, gram=None) -> np.ndarray:
    """The rank-k SVD truncation of a validated matrix a, 1 <= k.

    `values` are a's singular values, descending, and `gram` the scaled
    W W^T of `_gram_route`, formed here when None.  At a relative squared
    gap (s_k^2 - s_{k+1}^2) / s_1^2 >= GRAM_MIN_GAP it is Q_k Q_k^T W, Q_k
    the top-k eigenvectors of W W^T, and no singular vectors are computed;
    below it, numpy's thin SVD is truncated.  When the chosen LAPACK route
    does not converge the other one runs; only when both fail is
    SvdConvergenceError raised.
    """
    wide = a.shape[0] <= a.shape[1]
    w = _wide(a)
    sk, below = np.append(values, 0.0)[k - 1:k + 1] / values[0]
    first, second = partial(_gram_part, gram=gram), _svd_part
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
