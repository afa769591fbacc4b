"""The two lower-bound functions of the inequality chain, and the
elementary gap inequalities that order them.

For alpha in (0, 2] and y >= 0 the chain

    mean(y, alpha)  >=  mid_bound(y, alpha)  >=  target_bound(y, alpha)

holds pointwise, where ``target_bound`` is (1 + (alpha/2) y^2)^(alpha/2),
the quantity whose comparison with the mean pins the sharp convexity
constant alpha/2.  ``mid_bound`` is piecewise in t = y^2 (small /
middle / large branches) and comes out of the area-integral
representation of the mean combined with the AM-GM and Jensen
inequalities.

The step mid_bound >= target_bound reduces to two scalar inequalities in
beta = alpha/2 and t = y^2: Bernoulli's inequality (small branch) and a
log-corrected variant valid on t in [1, 1/(1-beta)] (middle branch);
:func:`bernoulli_gap` and :func:`bernoulli_log_gap` return their slack.

All bound evaluations work internally in the t = y^2 variable, which
avoids needless square roots and matches the substitution used by the
gap inequalities.
"""
from __future__ import annotations

import math

from .circle import log_mean, mean_quadrature, power_mean_integral
from .core import check_alpha, check_radius, check_tol, large_branch_threshold


def mid_bound(y: float, alpha: float) -> float:
    """Piecewise intermediate bound, branches split on t = y^2.

    small  (t <= 1):                 1 + (alpha^2/4) t
    middle (1 < t < T):              alpha^2/4 + t^(alpha/2)
                                       - (alpha/2)(1 - alpha/2) ln t
    large  (t >= T):                 t^(alpha/2)

    with T = (1 - alpha/2)^(-1).  For alpha = 2 the threshold is +inf
    and the middle formula degenerates to 1 + t, so no special case is
    needed.  The function jumps downward at t = T; both one-sided values
    still dominate :func:`target_bound`.
    """
    y = check_radius(y)
    alpha = check_alpha(alpha, upper=2.0)
    t = y * y
    beta = 0.5 * alpha
    if t <= 1.0:
        return 1.0 + beta * beta * t
    if t >= large_branch_threshold(alpha):
        return t**beta
    return beta * beta + t**beta - beta * (1.0 - beta) * math.log(t)


def target_bound(y: float, alpha: float) -> float:
    """(1 + (alpha/2) y^2)^(alpha/2), the chain's lower envelope."""
    y = check_radius(y)
    alpha = check_alpha(alpha, upper=2.0)
    beta = 0.5 * alpha
    return (1.0 + beta * (y * y)) ** beta


def bernoulli_gap(beta: float, t: float) -> float:
    """Slack 1 + beta^2 t - (1 + beta t)^beta of Bernoulli's inequality.

    Non-negative for beta in [0, 1] and t > 0, with equality at
    beta in {0, 1}.  Written so that ``mid_bound - target_bound`` on the
    small branch reproduces this expression bit for bit.
    """
    beta = float(beta)
    t = float(t)
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta!r}")
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError(f"t must be a finite positive real, got {t!r}")
    return 1.0 + beta * beta * t - (1.0 + beta * t) ** beta


def bernoulli_log_gap(beta: float, t: float) -> float:
    """Slack beta^2 + t^beta - beta(1-beta) ln t - (1 + beta t)^beta.

    Non-negative for beta in [0, 1) and t in [1, 1/(1-beta)]; this is
    the inequality that orders the chain's middle branch.  Inputs
    outside that hypothesis are rejected: the expression can go
    negative there and silent extrapolation would corrupt property
    checks built on it.
    """
    beta = float(beta)
    t = float(t)
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must lie in [0, 1), got {beta!r}")
    hi = 1.0 / (1.0 - beta)
    if not (math.isfinite(t) and 1.0 <= t <= hi):
        raise ValueError(f"t must lie in [1, {hi!r}], got {t!r}")
    return beta * beta + t**beta - beta * (1.0 - beta) * math.log(t) - (1.0 + beta * t) ** beta


def am_gm_sandwich(y: float, r: float, tol: float = 1e-10) -> tuple[float, float, float]:
    """Power-mean sandwich of f(zeta) = |1 + y*zeta| at exponents -r, 0, r.

    Returns (lower, mid, upper) where

        lower = (mean of f^-r)^(-1/r),
        mid   = exp(mean of ln f),
        upper = (mean of f^r)^(1/r),

    so that lower <= mid <= upper, with mid = max{1, y}; all three come
    from :func:`~circmeans.circle.power_mean_integral`.  The negative
    exponent mean diverges for y = 1 when r >= 1 (the integrand grows
    like (pi - theta)^(-r) at the zero of f); that case is rejected with
    the offending exponent named.
    """
    y = check_radius(y)
    r = float(r)
    if not (math.isfinite(r) and r > 0.0):
        raise ValueError(f"exponent r must be a finite positive real, got {r!r}")
    tol = check_tol(tol)
    lower = power_mean_integral(y, -r, tol)[0] ** (-1.0 / r)
    upper = mean_quadrature(y, r, tol).value ** (1.0 / r)
    mid = math.exp(log_mean(y, tol))
    return lower, mid, upper
