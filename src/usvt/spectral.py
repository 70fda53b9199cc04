"""Dense-matrix spectral primitives.

Input validation, the singular values and the rank-k SVD truncation the
denoiser needs, the nuclear norm, and the Kolmogorov-Smirnov distance
between the eigenvalues of X X^T / n and their Marchenko-Pastur limit.
Values and truncation are computed in the wide (m <= n) orientation W, a
view of x or x.T, so a non-square x and x.T give bit-identical results; a
square x is never transposed, so x and x.T agree only to rounding.  LAPACK
copies W into column-major order itself, so C order is formed only for the
two products whose bits could depend on layout, W / 2^e, whose W W^T is
formed at an exact power-of-two scale and neither over- nor underflows,
and W in Q_k^T W, and for a tall x's rank-k part, W's transposed back, so
that every denoise returns a C-ordered matrix.

`singular_values` is LAPACK's values-only SVD (gesdd), accurate for every
value.  The denoiser takes its values from the eigenvalues of W W^T
instead, several times cheaper, in one spectral pass (`_SpectralPass`)
whose W W^T then gives the rank-k part.  A decision reads only lambda_1,
the median pair, lambda_k and lambda_{k+1} for the kept k, and one count
around tau^2, so the pass reduces W W^T to tridiagonal form once, bisects
just the eigenvalues it reads and counts by Sturm sequences
(`_Bisected`).  The eigenvalues' error |dlambda_i| is about eps *
lambda_1, so the median's relative error grows with the spread lambda_1 /
lambda_med; beyond GRAM_MAX_SPREAD the route is refused and gesdd runs.
The values hold their own error bound `tol`, so that no count on them
skips its band; gesdd's hold None.  The same tridiagonal form, with the
reduction's reflectors, gives the top-k eigenvectors of the rank-k part,
and where gesdd fails all eigenvalues, with the bytes of numpy's eigvalsh
(dsytrd, then dsterf) on every route.  W, W W^T and its tridiagonal form
are each formed at most once per pass, on every route; the reduction
overwrites W W^T with its reflectors, so no copy of it is held.

Every LAPACK call on W W^T is `_host`'s, with the GIL released, so that
the study's cells solve on several threads at once: `sytrd` reduces it,
`stebz` bisects and `laebz` counts the values a decision reads, `sterf`
gives all values and `top_vectors` the top-k eigenvectors.  Without
numpy's OpenBLAS, numpy's eigvalsh and eigh run instead.  gesdd is numpy's.
"""

from __future__ import annotations

import math

import numpy as np

from . import _host
from .mp_law import MPLaw, _is_integer

# _SpectralPass.rank_k_part takes the Gram eigensolve while
# (s_k^2 - s_{k+1}^2) / s_1^2 >= GRAM_MIN_GAP: there it was measured within
# 3e-13 of numpy's SVD truncation.
GRAM_MIN_GAP = 1e-2

# A spectral pass takes the eigenvalues of W W^T while 0 < lambda_med and
# lambda_1 <= GRAM_MAX_SPREAD * lambda_med, lambda_med the lower middle one.
# The relative error of their median against gesdd's was measured at most
# 1.3 eps * lambda_1 / lambda_med (1 x 7 to 600 x 1200), so at most 3e-13.
GRAM_MAX_SPREAD = 2.0 ** 10

_EPS = np.finfo(np.float64).eps


class SvdConvergenceError(RuntimeError):
    """The SVD iteration failed to converge; results would be garbage."""


def _real_array(x) -> np.ndarray:
    a = np.asarray(x)
    # a float64 cast would parse strings, take booleans and dates as
    # numbers and drop an imaginary part
    if a.dtype.kind not in "iuf":
        raise ValueError(f"entries must be real numbers, got dtype {a.dtype}")
    return a.astype(np.float64, copy=False)


def as_matrix(x) -> np.ndarray:
    """Validate input as a finite 2-d real float64 matrix with m, n >= 1."""
    a = _real_array(x)
    if a.ndim != 2 or min(a.shape) < 1:
        raise ValueError(f"expected a nonempty 2-d matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must all be finite")
    return a


def _wide(a: np.ndarray) -> np.ndarray:
    # a view, no copy: LAPACK reads x and x.T as the same column-major bytes
    return a if a.shape[0] <= a.shape[1] else a.T


def _gram(w: np.ndarray):
    """(W W^T / 4^e, e), formed exactly from W / 2^e with 2^e the binade of
    max|W|, so that its entries stay below n.  W / 2^e is in C order, so
    x and x.T give the product the same bytes."""
    e = np.frexp(max(w.max(), -w.min()))[1]  # max|W|, with no |W| array
    v = np.ldexp(w, -e, order="C")
    return v @ v.T, e


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
                f"neither the eigenvalues of W W^T nor the SVD converged: {exc}") from exc
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
    w = _wide(as_matrix(x))

    def gram_values():
        gram, e = _gram(w)
        return np.linalg.eigvalsh(gram)[::-1], e

    return _svd_values(w, gram_values)


class _Held:
    """Descending singular values held whole in `array`, and their error
    bound tol: gesdd's, None, or sqrt(lambda_i) 2^e of numpy's eigenvalues
    of W W^T / 4^e where numpy's OpenBLAS is not found, the Gram route's."""

    def __init__(self, array: np.ndarray, tol: float | None = None) -> None:
        self.array, self.tol = array, tol

    def __len__(self) -> int:
        return self.array.size

    def __getitem__(self, i: int) -> float:
        return float(self.array[i])

    def at_least(self, x: float, band: float | None) -> int | None:
        """The number of values >= x; with a band, None where some
        (s_i / s_1)^2 lies within band of (x / s_1)^2."""
        if band is not None:  # a pass's values, so s_1 > 0
            r = x / self[0]
            if np.any(np.abs((self.array / self.array[0]) ** 2 - r * r) <= band):
                return None
        return int(np.count_nonzero(self.array >= x))


class _Bisected:
    """The descending singular values sqrt(max(lambda_i, 0)) 2^e of a
    spectral pass, and their error bound tol, lambda_i the eigenvalues of
    W W^T / 4^e, held as its tridiagonal form, diagonal d and subdiagonal
    f (`_host.sytrd`): lambda_i is bisected where first read
    (`_host.stebz`) and kept, and values are counted by Sturm counts
    (`_host.laebz`), so that no eigenvalue is computed that is not read.  A
    count is one Sturm count pair around x, which is also its band check."""

    def __init__(self, d: np.ndarray, f: np.ndarray, e: int, tol: float) -> None:
        self.d, self.f, self.e, self.tol = d, f, int(e), tol
        self._lam: dict[int, float] = {}

    def __len__(self) -> int:
        return self.d.size

    def bisect(self, first: int, last: int) -> None:
        """Bisect lambda_first to lambda_last (0-based, descending) in one
        call, unless they were read already."""
        if not all(i in self._lam for i in range(first, last + 1)):
            n = self.d.size
            lam = _host.stebz(self.d, self.f, n - last, n - first)  # ascending
            self._lam.update(zip(range(last, first - 1, -1), lam.tolist()))

    def eigenvalue(self, i: int) -> float:
        """lambda_i, 0-based, descending."""
        self.bisect(i, i)
        return self._lam[i]

    def __getitem__(self, i: int) -> float:
        return math.ldexp(math.sqrt(max(self.eigenvalue(i), 0.0)), self.e)

    def at_least(self, x: float, band: float) -> int | None:
        """The number of values >= x, or None where some (s_i / s_1)^2 lies
        within band of t = (x / s_1)^2: one Sturm count pair at lambda_1
        (t -+ band) -+ 4 ulps of lambda_1 gives None where some lambda_i
        lies between the two, else the count below them: (s_i / s_1)^2 and
        lambda_i / lambda_1, and the counts, differ by rounding."""
        s_1 = self[0]
        if x / 2.0 > s_1:  # t > 4: no lambda_i / lambda_1 <= 1 within a band below 3
            return 0
        r, lam_1 = x / s_1, self.eigenvalue(0)
        slack = 4.0 * _EPS * lam_1
        below, within = _host.laebz(self.d, self.f, (r * r - band) * lam_1 - slack,
                                    (r * r + band) * lam_1 + slack)
        return None if within > below else self.d.size - below


def _admitted(lam_1: float, median: float, e: int) -> bool:
    # the spread guard, and s_1 = sqrt(lambda_1) 2^e a finite float64
    return (0.0 < median and lam_1 <= GRAM_MAX_SPREAD * median
            and not _overflows(math.sqrt(max(lam_1, 0.0)), e))


class _SpectralPass:
    """One denoise's spectral pass over the validated matrix a: the wide
    view W and a's singular values, descending, holding their error bound
    tol, from the scaled W W^T of `_gram`, reduced once, in place.  The
    values are sqrt(lambda_i) 2^e from the eigenvalues lambda_i of
    W W^T / 4^e, |lambda_i 4^e - s_i^2| <= tol s_1^2 against gesdd's s_i,
    tol = 16 (1 + sqrt(min(m, n))) eps: over six times the largest error
    measured, 2.4 (1 + sqrt(min(m, n))) eps from 1 x 3 to 1000 x 1000 with
    all of them computed, and 1.5 with each bisected (60 matrices up to
    300 x 300, against 1.6 with all computed).  They are read one at a
    time (`_Bisected`), or held whole (`_Held`) where numpy's OpenBLAS is
    not found.  Where lambda_med <= 0, lambda_1 >
    GRAM_MAX_SPREAD lambda_med, the eigensolve fails or s_1 overflows, they
    are gesdd's, held whole, with the errors of singular_values(a), and tol
    is None."""

    def __init__(self, a: np.ndarray) -> None:
        self.tall = a.shape[0] > a.shape[1]
        self.w = _wide(a)
        self._eigen = self._vectors = None  # None where the Gram route failed first
        try:
            self.values = self._gram_values(*_gram(self.w))
        except np.linalg.LinAlgError:
            self.values = None
        if self.values is None:
            self.exact()

    def _gram_values(self, gram: np.ndarray, e: int):
        """The values of the Gram route from gram = W W^T / 4^e, or None
        where the spread guard or an overflow refuses them; sets exact()'s
        fallback to all eigenvalues of W W^T and the rank-k part's
        eigenvectors, from gram's tridiagonal form where numpy's OpenBLAS is
        found and from gram itself where not.  Raises LinAlgError where the
        eigensolve fails.  The closures hold no self, so that no cycle holds
        the pass."""
        lo = gram.shape[0]
        tol = 16.0 * (1.0 + math.sqrt(lo)) * _EPS
        if _host._openblas() is None:  # numpy's eigvalsh and eigh, the values held whole
            self._vectors = lambda k: np.linalg.eigh(gram)[1][:, -k:]
            lam = np.linalg.eigvalsh(gram)[::-1]
            self._eigen = lambda: (lam, e)
            if not _admitted(lam[0], lam[lo // 2], e):
                return None
            return _Held(np.ldexp(np.sqrt(np.maximum(lam, 0.0)), e), tol)
        # gram.T is gram, which numpy forms exactly symmetric, and column-major,
        # so it is reduced in place
        d, f, z, tau = _host.sytrd(gram.T)
        self._vectors = lambda k: _host.top_vectors(d, f, z, tau, k)
        self._eigen = lambda: (_host.sterf(d, f)[::-1], e)
        values = _Bisected(d, f, e, tol)
        values.bisect((lo - 1) // 2, lo // 2)  # sigma_hat's median pair, in one call
        return values if _admitted(values.eigenvalue(0), values.eigenvalue(lo // 2), e) else None

    def exact(self) -> _Held:
        """Replace the values by gesdd's and return them; where gesdd fails,
        all eigenvalues of W W^T stand in, unless the Gram route failed."""
        self.values = _Held(_svd_values(self.w, self._eigen))
        return self.values

    def rank_k_part(self, k: int) -> np.ndarray:
        """The rank-k SVD truncation of a, 1 <= k: Q_k Q_k^T W, Q_k the top-k
        eigenvectors of W W^T, while (s_k^2 - s_{k+1}^2) / s_1^2 >=
        GRAM_MIN_GAP, else numpy's truncated thin SVD.  Where the chosen
        LAPACK route does not converge, or the Gram route failed before its
        eigenvectors could be taken, the other one runs; where both fail,
        SvdConvergenceError is raised."""
        first, second = self._gram_part, self._svd_part
        try:
            s_1 = self.values[0]
            sk = self.values[k - 1] / s_1
            below = self.values[k] / s_1 if k < len(self.values) else 0.0
            resolved = sk * sk - below * below >= GRAM_MIN_GAP
        except np.linalg.LinAlgError:  # a gap that cannot be read: the SVD needs none
            resolved = False
        if not resolved:
            first, second = second, first
        try:
            top = first(k)
        except np.linalg.LinAlgError:
            try:
                top = second(k)
            except np.linalg.LinAlgError as exc:
                raise SvdConvergenceError(
                    f"neither the Gram's eigenvectors nor the SVD converged for the "
                    f"rank-{k} part: {exc}") from exc
        return np.ascontiguousarray(top.T) if self.tall else top

    def _gram_part(self, k: int) -> np.ndarray:
        if self._vectors is None:
            raise np.linalg.LinAlgError("W W^T was not reduced")
        q = self._vectors(k)
        # W in C order, so x and x.T give the product the same bytes
        return q @ (q.T @ np.ascontiguousarray(self.w))

    def _svd_part(self, k: int) -> np.ndarray:
        u, s, vt = np.linalg.svd(self.w, full_matrices=False)
        return (u[:, :k] * s[:k]) @ vt[:k]


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
    if not (isinstance(shape, (tuple, list)) and len(shape) == 2
            and all(_is_integer(d) and d >= 1 for d in shape)):
        raise ValueError(f"shape must be two positive integers, got {shape!r}")
    lo, hi = min(shape), max(shape)
    s = _real_array(values)
    if s.ndim != 1 or not 1 <= s.size <= lo or not np.isfinite(s).all():
        raise ValueError(f"expected 1 to {lo} finite singular values, got shape {s.shape}")
    s = np.minimum(np.abs(s), 4.0 * np.sqrt(hi))
    law, evals = MPLaw(lo / hi), np.sort(s ** 2) / hi
    f_gamma = np.array([law.cdf(e) for e in evals])
    f_n = np.arange(evals.size + 1) / evals.size  # limits at jump i: f_n[i], f_n[i + 1]
    return float(max(np.abs(f_n[1:] - f_gamma).max(), np.abs(f_gamma - f_n[:-1]).max()))
