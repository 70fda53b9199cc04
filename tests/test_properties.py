"""Property tests of the estimator's invariants on small random matrices.

Each matrix is a rank-r product plus scaled Gaussian noise (scale 0 gives
an exactly low-rank matrix), drawn from a hypothesis-chosen seed.
"""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from usvt import (
    DEFAULT_ETA,
    DenoiseReport,
    MPLaw,
    estimators,
    signal_matrix,
    signal_spectrum,
    singular_values,
    usvt_adaptive,
    usvt_denoise,
)
from usvt.estimators import _decide, _sigma_hat
from usvt.simulate import _bartlett_noise
from usvt.spectral import _EPS, GRAM_MIN_GAP, _SpectralPass

# Derandomized so every run checks the same examples; no database writes.
PROPERTIES = settings(max_examples=40, deadline=None, derandomize=True, database=None)

REL = 1e-12


def read(values):
    """Every value of a spectral pass's values, as an array."""
    return np.array([values[i] for i in range(len(values))])


def decided(x, sigma, eta):
    """(values, report) of usvt_denoise(x, sigma, eta): the singular values
    its last keep/drop decision took (None at sigma 0) and its report."""
    seen = []

    def spy(values, *args):
        seen.append(values)
        return _decide(values, *args)

    with mock.patch.object(estimators, "_decide", spy):
        report = usvt_denoise(x, sigma, eta)[1]
    return seen[-1], report


@st.composite
def matrices(draw, shape="any"):
    m = draw(st.integers(1, 16))
    if shape == "square":
        n = m
    elif shape == "oblong":
        n = draw(st.integers(1, 15))
        n += n >= m
    else:
        n = draw(st.integers(1, 16))
    rank = draw(st.integers(0, min(m, n)))
    noise = draw(st.sampled_from([0.0, 0.1, 1.0, 10.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    signal = 3.0 * rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    return signal + noise * rng.standard_normal((m, n))


@st.composite
def planted_gaps(draw):
    """(x, k): U diag(s) V^T in random frames with s_1 = 1 (times a random
    scale) and a relative squared gap s_k^2 - s_{k+1}^2 at the planted rank
    k below GRAM_MIN_GAP (the guard's SVD), at it (rounding decides), just
    above it and well above it; the rest of the spectrum is uniform on its
    side of the gap.  Or, for min(m, n) >= 2, the same values split
    alternately between two row blocks of the wide orientation W with
    orthogonal row spaces, so that W W^T is block diagonal, its
    tridiagonal form splits at an exact zero and a k >= 2 spans both."""
    m, n = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    p = min(m, n)
    k = draw(st.integers(1, p))
    gap = GRAM_MIN_GAP * draw(st.sampled_from([0.3, 1.0, 1.0 + 1e-9, 1.01, 1.5, 4.0, 30.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s_k = math.sqrt(rng.uniform(gap, 1.0)) if k > 1 else 1.0
    below = math.sqrt(s_k**2 - gap) if k < p else 0.0
    s = np.concatenate([rng.uniform(s_k, 1.0, k), rng.uniform(0.0, below, p - k)])
    s[0], s[k - 1] = 1.0, s_k
    if k < p:
        s[k] = below
    scale = 10.0 ** draw(st.integers(-3, 3))
    if p >= 2 and draw(st.booleans()):
        hi, top = max(m, n), (p + 1) // 2
        cut = draw(st.integers(top, hi - p // 2))
        w = np.zeros((p, hi))
        for rows, cols, values in ((slice(0, top), slice(0, cut), s[0::2]),
                                   (slice(top, p), slice(cut, hi), s[1::2])):
            u, v = (np.linalg.qr(rng.standard_normal((d, values.size)))[0]
                    for d in (values.size, cols.stop - cols.start))
            w[rows, cols] = (u * (scale * values)) @ v.T
        return (w if m <= n else w.T), k
    frames = [np.linalg.qr(rng.standard_normal((d, p)))[0] for d in (m, n)]
    return (frames[0] * (scale * s)) @ frames[1].T, k


sigmas = st.floats(0.0, 10.0)
etas = st.floats(1e-3, 1.0)


def calibration(x) -> float:
    """sqrt(n * mu_gamma), n = max(m, n)."""
    lo, hi = min(x.shape), max(x.shape)
    return math.sqrt(hi * MPLaw(lo / hi).median)


@PROPERTIES
@given(matrices())
def test_sigma_hat_is_calibrated_median(x):
    values = np.linalg.svd(x, compute_uv=False)
    expected = float(np.median(values)) / calibration(x)
    _, report = usvt_adaptive(x)
    # x and x.T reach LAPACK in different orientations; their rounding is
    # relative to the largest singular value, which matters when the
    # median is itself at the rounding level (an exactly low-rank x).
    floor = REL * values[0] / calibration(x)
    assert abs(report.sigma_used - expected) <= max(REL * expected, floor)


@PROPERTIES
@given(matrices(), st.one_of(st.none(), sigmas), etas)
def test_kept_set_is_inclusive_prefix(x, sigma, eta):
    _, report = usvt_denoise(x, sigma, eta)
    k = int(np.count_nonzero(singular_values(x) >= report.threshold))
    assert report.kept_rank == k
    assert report.kept_indices == tuple(range(1, k + 1))


@PROPERTIES
@given(matrices(), st.one_of(st.none(), sigmas), etas)
def test_report_is_the_decision_on_values_and_shape(x, sigma, eta):
    # the values decided on are the Gram route's or, near the threshold, gesdd's
    values, report = decided(x, sigma, eta)
    assert report == _decide(values, x.shape, sigma, eta)
    if values is not None:
        assert any(read(values).tobytes() == v.tobytes()
                   for v in (read(_SpectralPass(x).values), singular_values(x)))


@PROPERTIES
@given(matrices(), sigmas, sigmas, etas, etas)
def test_kept_rank_does_not_grow_with_sigma_or_eta(x, s1, s2, e1, e2):
    s1, s2 = sorted((s1, s2))
    e1, e2 = sorted((e1, e2))
    kept = {(s, e): usvt_denoise(x, s, e)[1].kept_rank for s in (s1, s2) for e in (e1, e2)}
    assert kept[s1, e1] >= kept[s2, e1] >= kept[s2, e2]
    assert kept[s1, e1] >= kept[s1, e2] >= kept[s2, e2]


@PROPERTIES
@given(matrices(), etas)
def test_sigma_zero_returns_input(x, eta):
    denoised, report = usvt_denoise(x, 0.0, eta)
    assert denoised.tobytes() == x.tobytes()
    assert report.kept_rank == min(x.shape)
    assert report.degenerate_sigma


@PROPERTIES
@given(matrices("oblong"), st.one_of(st.none(), sigmas))
def test_transpose_is_bit_identical_when_oblong(x, sigma):
    # x.T, and the C-order copy a file of x.T reads as
    a, ra = usvt_denoise(x, sigma)
    for xt in (x.T, np.ascontiguousarray(x.T)):
        b, rb = usvt_denoise(xt, sigma)
        assert (ra.sigma_used, ra.threshold, ra.kept_rank) == \
               (rb.sigma_used, rb.threshold, rb.kept_rank)
        assert a.T.tobytes() == b.tobytes()


@PROPERTIES
@given(matrices("square"), st.one_of(st.none(), sigmas))
def test_transpose_agrees_to_rounding_when_square(x, sigma):
    # A square x is not transposed before LAPACK, so x and x.T round
    # differently.  A component at the rounding level of x can then fall on
    # either side of a rounding-level threshold, so the kept ranks may
    # differ; the results still agree relative to the scale of x.
    a, ra = usvt_denoise(x, sigma)
    b, rb = usvt_denoise(x.T, sigma)
    scale = float(singular_values(x)[0])
    assert abs(ra.sigma_used - rb.sigma_used) <= REL * max(ra.sigma_used, scale / calibration(x))
    assert abs(ra.threshold - rb.threshold) <= REL * max(ra.threshold, scale)
    assert np.linalg.norm(a - b.T) <= REL * scale * math.sqrt(min(x.shape))


@PROPERTIES
@given(matrices(), etas)
def test_default_sigma_is_adaptive(x, eta):
    a, ra = usvt_denoise(x, eta=eta)
    b, rb = usvt_adaptive(x, eta)
    assert ra == rb
    assert a.tobytes() == b.tobytes()


@settings(PROPERTIES, max_examples=200)
@given(planted_gaps(), st.booleans(), etas)
def test_rank_k_part_is_numpys_truncation(planted, known, eta):
    # known: a threshold midway across the planted gap, so k is kept;
    # estimated: whatever k sigma_hat gives.  Either way the report is what
    # the values decided on alone imply, its kept rank is gesdd's count, and
    # the matrix is numpy's rank-k truncation to rounding, by Gram
    # eigensolve or by the guard's SVD.
    x, k = planted
    m, n = x.shape
    values = singular_values(x)
    below = values[k] if k < len(values) else 0.0
    sigma = (values[k - 1] + below) / 2 / (2.0 + eta) / math.sqrt(max(m, n)) if known else None
    denoised, report = usvt_denoise(x, sigma, eta)

    values_decided = read(decided(x, sigma, eta)[0])
    sigma = float(np.median(values_decided)) / calibration(x) if sigma is None else sigma
    threshold = (2.0 + eta) * sigma * math.sqrt(max(m, n))
    kept = int(np.count_nonzero(values >= threshold))
    assert report == DenoiseReport(
        m=m, n=n, eta=eta, sigma_used=sigma, mu_gamma=MPLaw(min(m, n) / max(m, n)).median,
        threshold=threshold, kept_rank=kept, kept_indices=tuple(range(1, kept + 1)),
        degenerate_sigma=(sigma == 0.0))
    assert kept == k or not known

    wide = x.T if m > n else x
    u, s, vt = np.linalg.svd(wide, full_matrices=False)
    top = (u[:, :kept] * s[:kept]) @ vt[:kept]
    expected = top.T if m > n else top
    assert np.linalg.norm(denoised - expected) <= REL * np.linalg.norm(expected)


@PROPERTIES
@given(matrices(), st.one_of(st.none(), st.floats(1e-2, 10.0)), st.integers(-300, 300))
def test_power_of_two_scaling_is_exact(x, sigma, j):
    # 2^j is exact in float64 at these scales, and every W W^T is formed at
    # the binade of max|W|, so LAPACK sees the same bits up to the power of two
    a, ra = usvt_denoise(x, sigma)
    b, rb = usvt_denoise(np.ldexp(x, j), None if sigma is None else math.ldexp(sigma, j))
    assert b.tobytes() == np.ldexp(a, j).tobytes()
    assert rb == replace(ra, sigma_used=math.ldexp(ra.sigma_used, j),
                         threshold=math.ldexp(ra.threshold, j))


@st.composite
def planted_cells(draw):
    """(signal, noise, r, sigma, shape) of a small study cell of rank r
    and shape m x n, wide or tall: the full draw, a rank-r signal U D_r V^T
    in Haar frames with the study's spectrum plus sigma times i.i.d.
    Gaussian noise; or a Gaussian cell's reduced Bartlett draw, always
    wide, whose noise sigma [A_1 | T] has the singular values of the full
    noise and whose signal D_r (+) 0 lies on its diagonal."""
    lo, hi = draw(st.integers(1, 12)), draw(st.integers(1, 24))
    shape = (lo, lo + hi) if draw(st.booleans()) else (lo + hi, lo)
    r = draw(st.integers(1, lo))
    sigma = draw(st.sampled_from([0.01, 0.3, 1.0, 3.0, 20.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):  # reduced
        noise = sigma * _bartlett_noise(lo, lo + hi, r, rng)
        signal = np.zeros_like(noise)
        signal[np.arange(r), np.arange(r)] = signal_spectrum(r)
    else:
        signal, noise = signal_matrix(r, *shape, rng), sigma * rng.standard_normal(shape)
    return signal, noise, r, sigma, shape


def test_error_is_within_the_rank_bound(spectral_calls):
    # X = M + E with rank(M) = r: M_hat - M has rank at most k + r and
    # operator norm at most s_{k+1}(X) + ||E|| < tau + ||E||, so
    # ||M_hat - M||_F^2 <= (k + r)(tau + ||E||)^2 at any sigma, known or
    # estimated, also for a reduced cell decided with its m x n shape, as
    # the study decides it.  The pass reduces its Gram to tridiagonal form
    # once; a kept part's vectors come from that form unless its gap sends
    # it to gesdd, and numpy's eigensolvers never run.  The spies are
    # installed once, for every example.
    calls = spectral_calls("sytrd", "top_vectors", "eigh", "eigvalsh")

    @settings(PROPERTIES, max_examples=200)
    @given(planted_cells(), st.booleans())
    def check(cell, known):
        signal, noise, r, sigma, shape = cell
        calls.clear()
        denoised, report = estimators._denoise(signal + noise, shape,
                                               sigma if known else None, DEFAULT_ETA)
        k = report.kept_rank
        assert calls.count("sytrd") == 1 and calls.count("top_vectors") <= (k > 0)
        assert not {"eigh", "eigvalsh"} & set(calls)
        bound = (k + r) * (report.threshold + np.linalg.norm(noise, 2)) ** 2
        assert np.sum((denoised - signal) ** 2) <= bound * (1.0 + 1e-9)

    check()


@st.composite
def bracketed_cells(draw):
    """(x, noise, shape) of a small study cell of rank r, wide or tall: the
    full draw x = M + E, or a Gaussian cell's reduced Bartlett draw, whose
    noise E is sigma [A_1 | T] and whose signal D_r (+) 0 lies on its
    diagonal; shape is the cell's m x n, which sigma_hat is calibrated to."""
    lo, hi = draw(st.integers(1, 12)), draw(st.integers(1, 24))
    hi += lo
    shape = (lo, hi) if draw(st.booleans()) else (hi, lo)
    r = draw(st.integers(1, lo))
    sigma = draw(st.sampled_from([0.01, 0.3, 1.0, 3.0, 20.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):  # reduced, always wide
        noise = sigma * _bartlett_noise(lo, hi, r, rng)
        x = noise.copy()
        x[np.arange(r), np.arange(r)] += signal_spectrum(r)
    else:
        noise = sigma * rng.standard_normal(shape)
        x = signal_matrix(r, *shape, rng) + noise
    return x, noise, r, shape


@PROPERTIES
@given(bracketed_cells())
def test_sigma_hat_is_bracketed_by_the_noise(cell):
    # Weyl's inequalities for X = M + E with rank(M) = r: s_{i+r}(E) <=
    # s_i(X) <= s_{i-r}(E), 0-based, s_j(E) read as 0 past the end and as
    # +inf before the start.  So sigma_hat, the median pair of X over
    # sqrt(n mu_gamma), lies between the noise's median pair shifted by +r
    # and by -r, up to the error of the values it is computed from.
    x, noise, r, shape = cell
    spectrum = _SpectralPass(x)
    values, lo = spectrum.values, min(x.shape)
    sigma_hat = _sigma_hat(values, shape)
    e = np.linalg.svd(noise, compute_uv=False)
    lo_shape, hi_shape = min(shape), max(shape)
    calibration = math.sqrt(hi_shape * MPLaw(lo_shape / hi_shape).median)

    def pair(shift):
        at = [i + shift for i in ((lo - 1) // 2, lo // 2)]
        return sum(math.inf if i < 0 else e[i] if i < lo else 0.0 for i in at) / 2 / calibration

    # the values are gesdd's, or within tol s_1^2 of them in their squares
    # (then s_med > 0); the noise's are gesdd's
    tol = values.tol or 16.0 * (1.0 + math.sqrt(lo)) * _EPS
    s1, s_med = values[0], values[lo // 2]
    slack = tol * (s1 + e[0] + (s1 * s1 / s_med if values.tol else 0.0)) / calibration
    assert pair(r) - slack <= sigma_hat <= pair(-r) + slack
