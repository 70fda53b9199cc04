"""Marchenko-Pastur law: support edges, density, CDF, quantiles, median.

Reference values were frozen from an independent 40-digit quadrature +
bisection oracle (mpmath, tanh-sinh) and from the closed-form gamma = 1
CDF; the quarter-circle antiderivative was verified symbolically before
freezing.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from usvt import MPLaw

GAMMA_GRID = [0.04, 0.1, 0.2, 0.5, 1.0]

# Medians from the high-precision oracle.
MU_004 = 0.9866506914087278
MU_02 = 0.9329154766004399
MU_1 = 0.6527759416335704


def quarter_circle_cdf(x):
    """Closed-form gamma = 1 CDF: (1/pi)(s sqrt(4 - s^2)/2 + 2 asin(s/2)), s = sqrt(x)."""
    s = math.sqrt(x)
    return (s * math.sqrt(4.0 - s * s) / 2.0 + 2.0 * math.asin(s / 2.0)) / math.pi


def alg_weight_integral(law, moment):
    """Independent oracle: integrate x^moment against the law via QUADPACK's
    algebraic-weight rule, which handles the endpoint behavior exactly."""
    a, b = law.gamma_minus, law.gamma_plus
    if law.gamma == 1.0:
        # density = (4 - x)^(1/2) x^(-1/2) / (2 pi)
        f = lambda x: x**moment / (2.0 * math.pi)
        wvar = (-0.5, 0.5)
    else:
        f = lambda x: x**moment / (2.0 * math.pi * law.gamma * x)
        wvar = (0.5, 0.5)
    value, _ = quad(f, a, b, weight="alg", wvar=wvar, epsabs=1e-12, epsrel=1e-12)
    return value


class TestConstruction:
    @pytest.mark.parametrize("gamma", GAMMA_GRID)
    def test_support_edges(self, gamma):
        law = MPLaw(gamma)
        root = math.sqrt(gamma)
        assert law.gamma_minus == pytest.approx((1 - root) ** 2, abs=1e-15)
        assert law.gamma_plus == pytest.approx((1 + root) ** 2, abs=1e-15)
        assert 0.0 <= law.gamma_minus < law.gamma_plus <= 4.0
        assert law.gamma_minus + law.gamma_plus == pytest.approx(2 * (1 + gamma), abs=1e-12)
        assert law.gamma_plus - law.gamma_minus == pytest.approx(4 * root, abs=1e-12)

    @pytest.mark.parametrize("gamma", [0.0, -0.3, 1.0001, 2.0, math.inf])
    def test_rejects_bad_gamma(self, gamma):
        with pytest.raises(ValueError):
            MPLaw(gamma)


class TestDensity:
    def test_zero_outside_support(self):
        law = MPLaw(0.5)
        assert law.density(-1.0) == 0.0
        assert law.density(law.gamma_minus - 1e-9) == 0.0
        assert law.density(law.gamma_plus + 1e-9) == 0.0

    def test_zero_at_upper_edge(self):
        assert MPLaw(0.25).density(2.25) == 0.0

    def test_gamma_one_interior_value(self):
        # sqrt((4 - 2)(2 - 0)) / (2 pi * 2) = 1 / (2 pi)
        assert MPLaw(1.0).density(2.0) == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-15)

    @pytest.mark.parametrize("gamma", GAMMA_GRID)
    def test_nonnegative_everywhere(self, gamma):
        law = MPLaw(gamma)
        for x in np.linspace(law.gamma_minus - 0.5, law.gamma_plus + 0.5, 200):
            assert law.density(float(x)) >= 0.0

    @pytest.mark.parametrize("gamma", GAMMA_GRID)
    def test_normalization_and_mean(self, gamma):
        law = MPLaw(gamma)
        assert alg_weight_integral(law, 0) == pytest.approx(1.0, abs=1e-10)
        assert alg_weight_integral(law, 1) == pytest.approx(1.0, abs=1e-8)


class TestCdf:
    def test_edges(self):
        law = MPLaw(0.2)
        assert law.cdf(law.gamma_minus) == 0.0
        assert law.cdf(law.gamma_plus) == 1.0
        assert law.cdf(law.gamma_minus - 5.0) == 0.0
        assert law.cdf(law.gamma_plus + 5.0) == 1.0

    def test_gamma_one_closed_form(self):
        law = MPLaw(1.0)
        assert law.cdf(2.0) == pytest.approx(0.5 + 1.0 / math.pi, abs=1e-10)
        for x in [0.5, 1.0, 2.0, 3.0]:
            assert law.cdf(x) == pytest.approx(quarter_circle_cdf(x), abs=1e-10)

    @pytest.mark.parametrize("gamma", GAMMA_GRID)
    def test_monotone_on_grid(self, gamma):
        law = MPLaw(gamma)
        grid = np.linspace(law.gamma_minus - 0.1, law.gamma_plus + 0.1, 1000)
        values = [law.cdf(float(x)) for x in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)


class TestQuantile:
    def test_extreme_levels(self):
        law = MPLaw(0.3)
        assert law.quantile(0.0) == law.gamma_minus
        assert law.quantile(0.0) == pytest.approx(0.2045548849896678, abs=1e-12)
        assert law.quantile(1.0) == law.gamma_plus

    def test_median_gamma_one(self):
        assert MPLaw(1.0).median == pytest.approx(MU_1, abs=1e-10)
        assert MPLaw(1.0).median == pytest.approx(0.6529, abs=1e-3)

    def test_median_regression_constants(self):
        assert MPLaw(0.2).median == pytest.approx(MU_02, abs=1e-10)
        assert MPLaw(0.04).median == pytest.approx(MU_004, abs=1e-10)

    def test_median_equals_half_quantile(self):
        law = MPLaw(0.7)
        assert law.median == law.quantile(0.5)

    def test_median_roundtrip_small_gamma(self):
        law = MPLaw(0.04)
        assert law.cdf(law.median) == pytest.approx(0.5, abs=1e-8)

    @pytest.mark.parametrize("gamma", GAMMA_GRID)
    def test_roundtrip(self, gamma):
        law = MPLaw(gamma)
        for p in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99]:
            assert law.cdf(law.quantile(p)) == pytest.approx(p, abs=1e-8)

    def test_median_strictly_interior(self):
        for gamma in GAMMA_GRID:
            law = MPLaw(gamma)
            assert law.gamma_minus < law.median < law.gamma_plus

    @pytest.mark.parametrize("p", [-0.1, 1.1, math.nan])
    def test_rejects_bad_level(self, p):
        with pytest.raises(ValueError):
            MPLaw(0.5).quantile(p)


# Medians this package has always produced (bisection to width 1e-12 on an
# accurate CDF); compared with ==, so any change to mu_gamma's bits is seen.
PINNED_MEDIANS = {
    0.04: 0.9866506914086494,
    0.1: 0.9665651474026802,
    0.2: 0.9329154766004295,
    0.5: 0.8304658815816028,
    1.0: 0.6527759416335357,
}

# (x, F(x)) near gamma = 1, where a = gamma_minus is tiny: points 1e-9 * span
# inside each edge and at a quarter, half and three quarters of the support.
# References from a 50-digit tanh-sinh integral of the density (mpmath),
# cross-checked against the x-space integral; x is the float shown.
CDF_REFERENCE = {
    0.999: [
        (2.5412307767943593e-07, 2.125954084113247e-07),
        (0.999500125062539, 0.6088021877673533),
        (1.9989999999999999, 0.818218990039379),
        (2.9984998749374605, 0.9423022625747135),
        (3.9979997458769216, 0.9999999999999866),
    ],
    1 - 1e-6: [
        (4.000248000124471e-09, 3.97659057205208e-05),
        (0.9999995000001252, 0.6089975855430277),
        (1.9999990000000003, 0.8183097953386828),
        (2.9999984999998754, 0.9423310855431026),
        (3.9999979959997525, 0.9999999999999866),
    ],
}


class TestClosedFormCdf:
    @pytest.mark.parametrize("gamma", GAMMA_GRID)
    def test_pinned_median_bits(self, gamma):
        assert MPLaw(gamma).median == PINNED_MEDIANS[gamma]

    @pytest.mark.parametrize("gamma", sorted(CDF_REFERENCE))
    def test_matches_high_precision_reference(self, gamma):
        law = MPLaw(gamma)
        for x, expected in CDF_REFERENCE[gamma]:
            assert abs(law.cdf(x) - expected) <= 1e-14, x

    @pytest.mark.parametrize("gamma", sorted(CDF_REFERENCE))
    def test_reference_points_hug_the_edges(self, gamma):
        law = MPLaw(gamma)
        (lo, _), (hi, _) = CDF_REFERENCE[gamma][0], CDF_REFERENCE[gamma][-1]
        assert 0.0 < lo - law.gamma_minus <= 1.01e-9 * law._span
        assert 0.0 < law.gamma_plus - hi <= 1.01e-9 * law._span

    @pytest.mark.parametrize("gamma", GAMMA_GRID + [0.999, 1 - 1e-6])
    def test_derivative_is_density(self, gamma):
        law = MPLaw(gamma)
        h = 1e-6
        for frac in [0.05, 0.2, 0.4, 0.6, 0.8, 0.95]:
            x = law.gamma_minus + frac * law._span
            slope = (law.cdf(x + h) - law.cdf(x - h)) / (2.0 * h)
            assert slope == pytest.approx(law.density(x), rel=1e-7, abs=1e-9)
