"""Property tests of the estimator's invariants on small random matrices.

Each matrix is a rank-r product plus scaled Gaussian noise (scale 0 gives
an exactly low-rank matrix), drawn from a hypothesis-chosen seed.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from usvt import DenoiseReport, MPLaw, singular_values, usvt_adaptive, usvt_denoise
from usvt.estimators import _decide, _decided_values
from usvt.spectral import GRAM_MIN_GAP, _gram_route

# Derandomized so every run checks the same examples; no database writes.
PROPERTIES = settings(max_examples=40, deadline=None, derandomize=True, database=None)

REL = 1e-12


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
    side of the gap."""
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
    frames = [np.linalg.qr(rng.standard_normal((d, p)))[0] for d in (m, n)]
    scale = 10.0 ** draw(st.integers(-3, 3))
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
    _, report = usvt_denoise(x, sigma, eta)
    values = _decided_values(x, x.shape, sigma, eta)[0]
    assert report == _decide(values, x.shape, sigma, eta)
    if values is not None:
        assert any(values.tobytes() == v.tobytes() for v in (_gram_route(x)[0], singular_values(x)))


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
    a, ra = usvt_denoise(x, sigma)
    b, rb = usvt_denoise(x.T, sigma)
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

    decided = _decided_values(x, x.shape, sigma, eta)[0]
    sigma = float(np.median(decided)) / calibration(x) if sigma is None else sigma
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
