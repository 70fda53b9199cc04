"""Noise-level estimation and universal singular value thresholding.

The noise level of X = M + sigma * A is estimated from the median singular
value of X, calibrated by the Marchenko-Pastur median:

    sigma_hat = med(lambda_i(X)) / sqrt(n * mu_gamma),    n = max(m, n).

Denoising keeps exactly the singular components whose values reach
(2 + eta) * sigma * sqrt(n) and zeroes the rest; the adaptive variant
plugs in sigma_hat.  `_decide` makes that choice from the singular values
and the shape alone.

A denoise makes one spectral pass (`spectral._SpectralPass`) that views
x as its wide W and forms W W^T and its eigenvalues once on every route.
Its values are the eigenvalues' or, where their spread would make
sigma_hat inaccurate, gesdd's; its W W^T gives the rank-k part.  Where
some s_i^2 lies within the eigenvalues' error band of tau^2, widened by
tau^2's own error through sigma_hat, gesdd's values decide instead: the
kept rank is always gesdd's, and sigma_hat and tau differ from gesdd's
only in the last digits.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .mp_law import MPLaw
from .spectral import _SpectralPass, as_matrix

DEFAULT_ETA = 0.02


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


def _sigma_hat(values: np.ndarray, shape: tuple[int, int]) -> float:
    """med(values) / sqrt(n * mu_gamma) for the descending singular values."""
    lo, hi = min(shape), max(shape)
    a, b = float(values[(lo - 1) // 2]), float(values[lo // 2])
    # np.median's (a + b) / 2, halved first where the sum overflows
    median = (a + b) / 2 if math.isfinite(a + b) else a / 2 + b / 2
    return median / math.sqrt(hi * _law(lo / hi).median)


def estimate_sigma(x) -> float:
    """Median-singular-value estimate of the noise level; 0 for X = 0."""
    a = as_matrix(x)
    return _sigma_hat(_SpectralPass(a).values, a.shape)


def _real(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):  # True is no level
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _check_eta(eta: float) -> float:
    eta = _real("eta", eta)
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    return eta


def _check_sigma(sigma: float) -> float:
    sigma = _real("sigma", sigma)
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    return abs(sigma)  # -0.0 is reported as 0.0


def _decide(values, shape: tuple[int, int], sigma: float | None, eta: float) -> DenoiseReport:
    """The keep/drop decision from x's descending singular values and shape
    alone: sigma None plugs in sigma_hat, and each value reaching the
    threshold is kept.  A zero threshold keeps all min(m, n), so `values`
    may be None at sigma 0.  Raises ValueError if the threshold overflows."""
    m, n = shape
    sigma = _sigma_hat(values, shape) if sigma is None else sigma
    threshold = (2.0 + eta) * sigma * math.sqrt(max(m, n))
    if not math.isfinite(threshold):
        raise ValueError(f"threshold (2 + eta) * sigma * sqrt(n) overflows for sigma {sigma}")
    kept = min(m, n) if threshold == 0.0 else int(np.count_nonzero(values >= threshold))
    return DenoiseReport(
        m=m, n=n, eta=eta, sigma_used=sigma, mu_gamma=_law(min(m, n) / max(m, n)).median,
        threshold=threshold, kept_rank=kept, kept_indices=tuple(range(1, kept + 1)),
        degenerate_sigma=(sigma == 0.0))


def usvt_denoise(x, sigma: float | None = None, eta: float = DEFAULT_ETA):
    """Threshold the SVD of x at (2 + eta) * sigma * sqrt(max(m, n)).

    Returns (denoised matrix, DenoiseReport).  Singular values exactly equal
    to the threshold are kept; sigma = 0 returns a copy of the input and
    runs no spectral pass.  sigma None estimates it as sigma_hat; a
    sigma_hat of exactly 0 is flagged in the report, not raised.  One
    spectral pass feeds `_decide` and gives the rank-k truncation, as the
    module docstring says.
    """
    a = as_matrix(x)
    eta = _check_eta(eta)
    sigma = None if sigma is None else _check_sigma(sigma)
    return _denoise(a, a.shape, sigma, eta)


def _near_threshold(values: np.ndarray, report: DenoiseReport, tol: float | None,
                    estimated: bool) -> bool:
    """Whether some s_i^2 lies within tol s_1^2 of tau^2, the band being
    widened by tol s_1^2 tau^2 / s_med^2 (s_med the lower middle value),
    the error of tau^2 through sigma_hat, when sigma was estimated.  A tol
    of None (gesdd's values) is never near."""
    s1, tau = values[0], report.threshold
    if tol is None or tau / 2.0 > s1:  # gesdd's, or every s_i^2 < tau^2 / 4
        return False
    u, t = (values / s1) ** 2, (tau / s1) ** 2
    band = tol * (1.0 + t / u[u.size // 2]) if estimated else tol
    return bool(np.any(np.abs(u - t) <= band))


def _denoise(a: np.ndarray, shape: tuple[int, int], sigma: float | None, eta: float):
    """usvt_denoise of the validated matrix a, with sigma_hat, the threshold
    and the report of a matrix of `shape` whose singular values are a's:
    a.shape for usvt_denoise, the m x n cell for a reduced simulation cell."""
    if sigma == 0.0:  # all kept: the input itself, exactly
        return a.copy(), _decide(None, shape, sigma, eta)
    spectrum = _SpectralPass(a)
    report = _decide(spectrum.values, shape, sigma, eta)
    if _near_threshold(spectrum.values, report, spectrum.tol, sigma is None):
        report = _decide(spectrum.exact(), shape, sigma, eta)
    k = report.kept_rank
    if k and report.threshold:
        return spectrum.rank_k_part(k), report
    return (a.copy() if k else np.zeros_like(a)), report


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
