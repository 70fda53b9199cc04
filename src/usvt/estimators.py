"""Noise-level estimation and universal singular value thresholding.

The noise level of X = M + sigma * A is estimated from the median singular
value of X, calibrated by the Marchenko-Pastur median:

    sigma_hat = med(lambda_i(X)) / sqrt(n * mu_gamma),    n = max(m, n).

Denoising keeps exactly the singular components whose values reach
(2 + eta) * sigma * sqrt(n) and zeroes the rest; the adaptive variant
plugs in sigma_hat.  One values-only pass gives sigma_hat and the kept
rank k; the rank-k part then comes from one eigensolve of W W^T (W the
wide orientation of X), or from a full SVD when the gap at k is too small.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .mp_law import MPLaw
from .spectral import as_matrix, rank_k_part, singular_values, svd

DEFAULT_ETA = 0.02

# rank_k_part is used while (s_k^2 - s_{k+1}^2) / s_1^2 >= GRAM_MIN_GAP at the
# kept rank k: there it was measured within 3e-13 of numpy's SVD truncation.
GRAM_MIN_GAP = 1e-2


@lru_cache(maxsize=None)
def _law(gamma: float) -> MPLaw:
    # Shared per-aspect-ratio instances so mu_gamma is computed once per shape.
    return MPLaw(gamma)


@dataclass(frozen=True)
class DenoiseReport:
    """Full audit of one thresholding run.

    kept_indices are 1-based positions into the descending singular values;
    with an inclusive threshold they always form the prefix 1..kept_rank.
    degenerate_sigma flags a zero noise level (threshold 0, output = input).
    """

    m: int
    n: int
    eta: float
    sigma_used: float
    mu_gamma: float
    threshold: float
    kept_rank: int
    kept_indices: tuple[int, ...]
    degenerate_sigma: bool

    def to_dict(self) -> dict:
        """Flat key/value form used by the JSON report file."""
        return {**asdict(self), "kept_indices": list(self.kept_indices)}


def _sigma_hat(values: np.ndarray, shape: tuple[int, int]) -> float:
    """med(values) / sqrt(n * mu_gamma) for a matrix of the given shape."""
    lo, hi = min(shape), max(shape)
    return float(np.median(values)) / math.sqrt(hi * _law(lo / hi).median)


def estimate_sigma(x) -> float:
    """Median-singular-value estimate of the noise level; 0 for X = 0."""
    a = as_matrix(x)
    return _sigma_hat(singular_values(a), a.shape)


def _check_eta(eta: float) -> float:
    eta = float(eta)
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    return eta


def _check_sigma(sigma: float) -> float:
    sigma = float(sigma)
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    return sigma


def usvt_denoise(x, sigma: float | None = None, eta: float = DEFAULT_ETA):
    """Threshold the SVD of x at (2 + eta) * sigma * sqrt(max(m, n)).

    Returns (denoised matrix, DenoiseReport).  Singular values exactly equal
    to the threshold are kept; sigma = 0 keeps everything and returns the
    input unchanged.  sigma None estimates it as sigma_hat; a sigma_hat of
    exactly 0 is flagged in the report, not raised.  Values come first: one
    values-only pass gives sigma_hat and the kept rank k, then one
    eigensolve of W W^T the rank-k part, or a full SVD when the relative
    squared gap at k is below GRAM_MIN_GAP.
    """
    a = as_matrix(x)
    eta = _check_eta(eta)
    m, n = a.shape
    if sigma is None:
        values = singular_values(a)
        sigma = _sigma_hat(values, a.shape)
    else:
        values, sigma = None, _check_sigma(sigma)
    threshold = (2.0 + eta) * sigma * math.sqrt(max(m, n))
    if not math.isfinite(threshold):
        raise ValueError(f"threshold (2 + eta) * sigma * sqrt(n) overflows for sigma {sigma}")

    if threshold == 0.0:
        # Zero threshold keeps every index (lambda_i >= 0) and the
        # reconstruction is the input itself; skip the SVD round trip so
        # the identity is exact.
        kept, denoised = min(m, n), a.copy()
    else:
        values = singular_values(a) if values is None else values
        kept = int(np.count_nonzero(values >= threshold))
        if kept == 0:
            denoised = np.zeros_like(a)
        else:
            # C order, so x and x.T reach LAPACK as the same bytes
            w = np.ascontiguousarray(a.T if m > n else a)
            sk, below = np.append(values, 0.0)[kept - 1:kept + 1] / values[0]
            # W W^T squares the scale: keep s_1 far from over- and underflow
            if 1e-100 < values[0] < 1e100 and sk * sk - below * below >= GRAM_MIN_GAP:
                top = rank_k_part(w, kept)
            else:
                u, s, vt = svd(w)
                top = (u[:, :kept] * s[:kept]) @ vt[:kept]
            denoised = top.T if m > n else top

    report = DenoiseReport(
        m=m, n=n, eta=eta, sigma_used=sigma,
        mu_gamma=_law(min(m, n) / max(m, n)).median,
        threshold=threshold, kept_rank=kept,
        kept_indices=tuple(range(1, kept + 1)),
        degenerate_sigma=(sigma == 0.0),
    )
    return denoised, report


def usvt_adaptive(x, eta: float = DEFAULT_ETA):
    """usvt_denoise with the estimated noise level; report records sigma_hat."""
    return usvt_denoise(x, None, eta)


def mse(a, b) -> float:
    """Per-entry squared distance ||A - B||_F^2 / (m n)."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))
