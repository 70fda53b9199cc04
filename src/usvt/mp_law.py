"""Marchenko-Pastur law for the bulk spectrum of pure-noise matrices.

For an m x n matrix with i.i.d. unit-variance entries and m <= n, the
eigenvalues of X X^T / n approach the Marchenko-Pastur distribution with
aspect ratio gamma = m/n, supported on [a, b] = [(1 - sqrt(gamma))^2,
(1 + sqrt(gamma))^2].  Its median is the calibration constant that turns
the median singular value of an observed matrix into a noise-level
estimate.

The CDF is closed form.  With D = b - a and x = a + D sin^2(theta),

    F(x) = [b theta - D (theta - sin theta cos theta) / 2
            - sqrt(ab) atan2(sqrt(b) sin theta, sqrt(a) cos theta)] / (pi gamma),

where sqrt(a) = 1 - sqrt(gamma), sqrt(b) = 1 + sqrt(gamma) and
sqrt(ab) = 1 - gamma; atan2 covers gamma = 1 (a = 0) without a special
case.

The package imports only numpy and the standard library; the LAPACK
routines numpy does not expose are bound from numpy's own OpenBLAS
(`_host`).  Code that ever needs scipy must import it inside the function
that uses it: importing scipy.integrate used to be most of the command
line's start-up time.
"""

from __future__ import annotations

import math
import numbers
from functools import cached_property

_BISECT_WIDTH = 1e-12
_QUANTILE_TOL = 1e-8


# The package's number rules, here because this module imports no other.
def _real(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):  # True is no level
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _is_integer(value) -> bool:
    # bool is an Integral, but True is no dimension, rank or seed
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class MPLaw:
    """Marchenko-Pastur distribution (unit variance) for gamma in (0, 1].

    gamma = 1 is admitted by continuity of the density formula; gamma > 1
    is rejected, callers must pass min(m, n) / max(m, n).
    """

    def __init__(self, gamma: float) -> None:
        gamma = _real("gamma", gamma)
        if not 0.0 < gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {gamma}")
        self.gamma = gamma
        root = math.sqrt(gamma)
        self.gamma_minus = (1.0 - root) ** 2
        self.gamma_plus = (1.0 + root) ** 2

    def __repr__(self) -> str:
        return f"MPLaw(gamma={self.gamma!r})"

    @property
    def _span(self) -> float:
        return self.gamma_plus - self.gamma_minus

    @staticmethod
    def _point(x) -> float:
        if math.isnan(x := _real("x", x)):  # -inf and inf are points off the support
            raise ValueError(f"x must be a point of the real line, got {x}")
        return x

    def density(self, x: float) -> float:
        """Density sqrt((g+ - x)(x - g-)) / (2 pi gamma x); zero off support."""
        x = self._point(x)
        if x <= self.gamma_minus or x >= self.gamma_plus:
            return 0.0
        radicand = (self.gamma_plus - x) * (x - self.gamma_minus)
        return math.sqrt(radicand) / (2.0 * math.pi * self.gamma * x)

    def cdf(self, x: float) -> float:
        """Probability mass on [gamma_minus, x], by the closed form above."""
        x = self._point(x)
        if x <= self.gamma_minus:
            return 0.0
        if x >= self.gamma_plus:
            return 1.0
        theta = math.asin(math.sqrt((x - self.gamma_minus) / self._span))
        sin, cos = math.sin(theta), math.cos(theta)
        root = math.sqrt(self.gamma)
        value = (self.gamma_plus * theta
                 - self._span * (theta - sin * cos) / 2.0
                 - (1.0 - self.gamma) * math.atan2((1.0 + root) * sin, (1.0 - root) * cos)
                 ) / (math.pi * self.gamma)
        return min(max(value, 0.0), 1.0)

    def quantile(self, p: float) -> float:
        """Inverse CDF by bisection; |cdf(result) - p| <= 1e-8 certified."""
        p = _real("quantile level", p)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"quantile level must be in [0, 1], got {p}")
        if p == 0.0:
            return self.gamma_minus
        if p == 1.0:
            return self.gamma_plus
        lo, hi = self.gamma_minus, self.gamma_plus
        while hi - lo > _BISECT_WIDTH:
            mid = 0.5 * (lo + hi)
            if self.cdf(mid) < p:
                lo = mid
            else:
                hi = mid
        x = 0.5 * (lo + hi)
        if abs(self.cdf(x) - p) > _QUANTILE_TOL:
            raise RuntimeError(
                f"quantile certification failed at p={p}: |cdf - p| > {_QUANTILE_TOL}")
        return x

    @cached_property
    def median(self) -> float:
        """The calibration constant F^{-1}(1/2), computed once per instance."""
        return self.quantile(0.5)
