"""Property tests of the estimator's invariants on small random matrices.

Each matrix is a rank-r product plus scaled Gaussian noise (scale 0 gives
an exactly low-rank matrix), drawn from a hypothesis-chosen seed.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from usvt import MPLaw, singular_values, usvt_adaptive, usvt_denoise

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
