"""mpmath reference values for the circular power mean.

mean(y, alpha) is the Gauss hypergeometric function

    mean(y, alpha) = 2F1(-alpha/2, -alpha/2; 1; y^2)              (y <= 1)
    mean(y, alpha) = y^alpha * 2F1(-alpha/2, -alpha/2; 1; 1/y^2)  (y > 1)

evaluated here at 30 significant digits (about 0.1 ms per point), which is
far beyond binary64, so a computed value can be judged against its own
requested tolerance and error estimate.  The oracle is used only after the
timed passes; its cost stays out of every metric.
"""
from __future__ import annotations

import math

import mpmath

DIGITS = 30
# Slack for rounding of the final binary64 result, in units in the last place.
ULPS = 4


def _mp(x: float):
    return mpmath.mpf(float(x))


def mean_ref(y: float, alpha: float):
    """mean(y, alpha) as an mpmath number with DIGITS significant digits."""
    with mpmath.workdps(DIGITS):
        y, a = _mp(y), _mp(alpha)
        if y == 0:
            return mpmath.mpf(1)
        if y <= 1:
            return mpmath.hyp2f1(-a / 2, -a / 2, 1, y * y)
        return y**a * mpmath.hyp2f1(-a / 2, -a / 2, 1, 1 / (y * y))


def log_mean_ref(y: float):
    """Mean of ln|1 + y*zeta| over the circle: max(0, ln y) by Jensen's formula."""
    with mpmath.workdps(DIGITS):
        return mpmath.log(_mp(y)) if y > 1.0 else mpmath.mpf(0)


def lambda_ref(alpha: float, y: float):
    """Profile (mean^(2/alpha) - 1)/y^2 of the best-constant search."""
    with mpmath.workdps(DIGITS):
        y = _mp(y)
        return (mean_ref(y, alpha) ** (2 / _mp(alpha)) - 1) / (y * y)


def target_ref(y: float, alpha: float, lam: float):
    """(1 + lam*y^2)^(alpha/2), the left side of a sharpness witness."""
    with mpmath.workdps(DIGITS):
        return (1 + _mp(lam) * _mp(y) ** 2) ** (_mp(alpha) / 2)


def deviation(value: float, ref) -> float:
    """|value - ref| rounded to a double."""
    with mpmath.workdps(DIGITS):
        return float(abs(_mp(value) - ref))


def slack(ref) -> float:
    """ULPS units in the last place of the double nearest to ref."""
    return ULPS * math.ulp(float(ref))


def self_check() -> list[str]:
    """Check the oracle against closed forms; returns the failures found.

    Gauss's sum gives mean(1, alpha) = Gamma(1+alpha)/Gamma(1+alpha/2)^2,
    and at alpha = 2 the mean is the polynomial 1 + y^2.
    """
    problems = []
    with mpmath.workdps(DIGITS):
        tol = mpmath.mpf(10) ** (5 - DIGITS)
        for alpha in (0.25, 0.5, 1.0 - 1e-7, 1.0, 1.5, 1.9, 3.0):
            a = _mp(alpha)
            gauss = mpmath.gamma(1 + a) / mpmath.gamma(1 + a / 2) ** 2
            if abs(mean_ref(1.0, alpha) - gauss) > tol * gauss:
                problems.append(f"Gauss sum at alpha={alpha!r}")
        for y in (0.0, 1e-6, 0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 2.0, 20.0):
            exact = 1 + _mp(y) ** 2
            if abs(mean_ref(y, 2.0) - exact) > tol * exact:
                problems.append(f"mean(y, 2) = 1 + y^2 at y={y!r}")
    return problems
