"""Evaluators for circular power means of f(zeta) = |1 + y*zeta|.

The central quantity is

    mean(y, alpha) = (1/pi) * int_0^pi (1 + 2 y cos(th) + y^2)^(alpha/2) dth,

the alpha-power mean of |1 + y*zeta| over the unit circle with normalized
arc measure (the theta <-> -theta symmetry halves the domain).  Two
independent routes are provided:

* :func:`mean_quadrature` -- :func:`power_mean_integral`, the one theta
  rule for every real exponent (also behind :func:`log_mean` at p = 0):
  Gauss-Kronrod on panels graded toward th = pi with the cancellation-free
  integrand (1-y)^2 + 4 y sin^2((pi-th)/2), and tanh-sinh at y = 1.

* :func:`mean_series` -- the everywhere-nonnegative power series
  sum_k C(alpha/2, k)^2 y^(2k) on y <= 1 (squared generalized binomial
  coefficients), with the exact inversion mean(y) = y^alpha * mean(1/y)
  for y > 1.  Partial sums are monotone, so the truncation error carries
  a rigorous tail bound.  Near the circle, where that series needs up to
  hundreds of thousands of terms, the z -> 1 - z connection formula
  (:func:`_connection_sum`, shared with :mod:`circmeans.disk`) takes
  over: about 130 terms, Gauss's sum Gamma(1+alpha)/Gamma(1+alpha/2)^2
  at y = 1, and an estimate of tails plus rounding.

:func:`log_mean` evaluates the logarithmic mean int ln|1+y*zeta| dm,
whose closed form max{0, ln y} follows from the classical Jensen
formula; the quadrature value is used to verify that identity
numerically.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from math import gamma

import numpy as np

from .core import (
    BACKEND_QUADRATURE,
    BACKEND_SERIES,
    DEFAULT_QUAD_TOL,
    DEFAULT_SERIES_TOL,
    MeanResult,
    check_alpha,
    check_integer,
    check_radius,
    check_tol,
)
from .quadrature import integrate_adaptive, integrate_tanhsinh_singular

_BLOCK = 64
# Default cap on the terms of one series.
_MAX_TERMS = 500_000
_EPS = float(np.finfo(float).eps)
# mean_series takes the connection path where v = 1 - t^2 (t = y or 1/y)
# is at most _CONNECTION_V_MAX and its error estimate is at most
# _CONNECTION_SHARE * tol; elsewhere it sums the power series.
_CONNECTION_V_MAX = 0.1
_CONNECTION_SHARE = 0.25
# c in the connection path's rounding term (see _connection_sum).
_ROUNDING_FACTOR = 16.0


@dataclass(frozen=True)
class SeriesTruncation:
    """How the series backend stopped.

    terms_used  terms of every series summed
    tail_bound  on the connection path, the omitted tails of both
                families times their gamma prefactors plus a rounding
                term; on the power series, a rigorous bound on the
                omitted (all-nonnegative) tail, without rounding
    path        "connection" or "power": the sum the value came from
    """

    terms_used: int
    tail_bound: float
    path: str


def circle_modulus_sq(theta: np.ndarray, y: float) -> np.ndarray:
    """|1 + y e^{i theta}|^2 evaluated without cancellation.

    Uses (1-y)^2 + 4 y sin^2((pi-theta)/2), exact at both endpoints and
    accurate to a few ulps uniformly in theta for y near 1.
    """
    u = math.pi - np.asarray(theta, dtype=float)
    s = np.sin(0.5 * u)
    return (1.0 - y) ** 2 + 4.0 * y * s * s


def _check_max_terms(max_terms) -> int:
    max_terms = check_integer("max_terms", max_terms)
    if max_terms < 1:
        raise ValueError(f"max_terms must be at least 1, got {max_terms!r}")
    return max_terms


def binomial_series_mean(
    t: np.ndarray,
    beta: float,
    tol: float,
    *,
    max_terms: int = _MAX_TERMS,
) -> tuple[np.ndarray, float, int]:
    """sum_k C(beta/2, k)^2 t^(2k) for 0 <= t <= 1, vectorized over t.

    Valid for beta > -2 (term ratios eventually fall below t^2) and, at
    t = 1 exactly, for beta > -0.9 (harmonic-decay tail bound).  Returns
    (values, worst tail bound over the array, terms used).  The tail
    bound is never underestimated; when ``max_terms`` is hit before the
    bound clears ``tol``, the honest bound is returned rather than
    raising.  ``max_terms`` must be an integer >= 1 (Python or numpy).
    """
    max_terms = _check_max_terms(max_terms)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any((t < 0.0) | (t > 1.0)):
        raise ValueError("series domain is 0 <= t <= 1")
    if beta <= -2.0:
        raise ValueError(f"series requires exponent beta > -2, got {beta}")
    if np.any(t == 1.0) and beta <= -0.9:
        raise ValueError("series at t = 1 requires beta > -0.9")
    return _hyp2f1_series(t * t, 0.5 * beta, 1.0, tol, max_terms)


def _hyp2f1_series(
    z: np.ndarray, b: float, c: float, tol: float, max_terms: int = _MAX_TERMS
) -> tuple[np.ndarray, float, int]:
    """Gauss series F(-b, -b; c; z) = sum_k C(b, k)^2 k!/(c)_k z^k, 0 <= z <= 1.

    The package's one 2F1 summation, with one code path for every c.
    Terms go _BLOCK at a time: the block's powers come from one
    sequential product along the rows, and its coefficients from one
    recurrence on the whole coefficient, C(b, k)^2 k!/(c)_k = previous
    * (b + 1 - k)^2 / (k (c - 1 + k)), whose factors are formed as one
    array and multiplied up by one sequential accumulate, the first
    factor taking the coefficient carried over from the previous block.
    The tail bound after each block is |last term| * z/(1 - z): it
    assumes term ratios <= z in modulus from k = max(3, ceil|b| + 2) on,
    and takes |coefficient| because the coefficients need not be
    positive.  The ratios are <= z for c = 1, b > -1; for both families
    of :func:`_connection_sum` at b = alpha/2 - 1 and for its second
    family at b = alpha/2, at every k; and for its first family at
    b = alpha/2, F(-alpha/2, -alpha/2; -alpha; v), from k = 3 on, since
    (k - alpha/2)^2 <= (k + 1)(k - alpha) once k >= alpha + alpha^2/4.
    That family's coefficients are negative for every k >= 1 when
    alpha < 1.  At c = 1 and b > -0.45 the harmonic bound also holds,
    which covers z = 1.  Returns (values, worst tail bound over the
    array, terms used).
    """
    values = np.ones_like(z)          # k = 0 term
    coeff = 1.0                        # C(b, k)^2 k!/(c)_k at current k
    k = 0
    k_min = max(3, int(math.ceil(abs(b))) + 2)
    harmonic_ok = c == 1.0 and b > -0.45
    geo = np.where(z < 1.0, z / np.maximum(1.0 - z, 1e-300), np.inf)
    # Row i of a block's powers is steps[i, 0] * z[i]^j, j = 0..nblk-1,
    # with steps[i, 0] = z[i]^(k+1) at the block start.
    steps = np.repeat(z[:, None], _BLOCK, axis=1)
    tail = math.inf
    while k < max_terms:
        nblk = min(_BLOCK, max_terms - k)
        ks = np.arange(k + 1.0, k + 1.0 + nblk)
        f = b + 1.0 - ks
        cs = f * f / (ks * (c - 1.0 + ks))
        cs[0] *= coeff
        np.multiply.accumulate(cs, out=cs)
        coeff = cs[-1]
        powers = np.multiply.accumulate(steps[:, :nblk], axis=1)
        values = values + powers @ cs
        steps[:, 0] = powers[:, -1] * z
        k += nblk
        if coeff == 0.0:
            # b is a non-negative integer: once a coefficient hits zero
            # the recurrence keeps it zero, so the series has terminated.
            tail = 0.0
            break
        if k >= k_min:
            last_term = abs(coeff) * powers[:, -1]
            bound = last_term * geo
            if harmonic_ok:
                bound = np.minimum(bound, last_term * ((k + 1.0) / (1.0 + 2.0 * b)))
            tail = float(np.max(bound))
            if tail <= tol:
                break
    return values, tail, k + 1


def _connection_sum(v: np.ndarray, alpha: float, n: int) -> tuple[np.ndarray, float, int]:
    """F(-b, -b; 1; 1 - v) at b = alpha/2 - n, for 0 <= v <= 0.75, by the
    connection formula (Abramowitz & Stegun 15.3.6):

        G1 F(-b, -b; -2b; v) + G2 v^(1+2b) F(1+b, 1+b; 2+2b; v),
        G1 = Gamma(1+2b)/Gamma(1+b)^2,  G2 = Gamma(-1-2b)/Gamma(-b)^2.

    n = 0 gives the mean of |1 + t*zeta|^alpha and n = 1 the mean at
    exponent alpha - 2 (the inner mean of :mod:`circmeans.disk`), both at
    t^2 = 1 - v.  Where v = 0 the value is Gauss's sum G1.  Each family
    goes through :func:`_hyp2f1_series` to a 1e-16 tail.  The gamma
    arguments are formed from alpha and integers, never from b.  Needs
    1 + 2b off the integers (alpha != 1, 2), except where v = 0.

    Returns (values, error estimate, terms used).  The estimate is the
    worst over the array of |G1| tail1 + |G2| v^(1+2b) tail2 plus the
    rounding term c eps (|G1 F1| + (1 + |x|) |G2 v^(1+2b) F2|), with
    x = (1+2b) ln v and c = 16.  It counts the cancellation of the two
    terms near alpha = 1, and the factor 1 + |x| the rounding of
    v^(1+2b) = exp(x).  c = 16 is twice the largest factor (7.6) that a
    scan of the mean against mpmath needed, over 4000 points with
    v <= 0.1, most of them within 1e-1 to 1e-16 of alpha = 1.
    """
    m = 2 * n - 1                      # 1 + 2b = alpha - m
    g1 = gamma(alpha - m) / gamma(0.5 * alpha - (n - 1)) ** 2
    if not np.any(v):
        return np.full_like(v, g1), _ROUNDING_FACTOR * _EPS * abs(g1), 1
    b = 0.5 * alpha - n
    g2 = gamma(m - alpha) / gamma(n - 0.5 * alpha) ** 2
    f1, tail1, k1 = _hyp2f1_series(v, b, -2.0 * b, 1e-16)
    f2, tail2, k2 = _hyp2f1_series(v, -1.0 - b, 2.0 + 2.0 * b, 1e-16)
    # v^(1+2b) via exp/log: v can be ~1e-300 while the power is huge.
    x = (alpha - m) * np.log(v)
    vpow = np.exp(x)
    first = g1 * f1
    second = g2 * vpow * f2
    spread = np.abs(first) + (1.0 + np.abs(x)) * np.abs(second)
    rounding = _ROUNDING_FACTOR * _EPS * float(np.max(spread))
    err = abs(g1) * tail1 + abs(g2) * float(np.max(vpow)) * tail2 + rounding
    return first + second, err, k1 + k2


def power_mean_integral(y: float, p: float, tol: float) -> tuple[float, float, int]:
    """(1/pi) int_0^pi |1 + y e^{i th}|^p dth for real p, or at p = 0 the
    same average of ln|1 + y e^{i th}|; returns (value, error, evals).

    Off y = 1: adaptive Gauss-Kronrod from panel edges pi/2 and
    pi - 4^j |1 - y| (j >= 0, while below pi/2), so the first panels
    resolve the feature of width |1 - y| at th = pi.  At y = 1: one
    tanh-sinh call in s = pi - th on the unsquared |1 + zeta| = 2 sin(s/2);
    p <= -1 diverges there and is rejected.  A missed ``tol`` raises
    :class:`~circmeans.core.NumericalFailure` with the whole integral's
    best estimate.  Callers validate y and tol.
    """
    if y == 0.0:
        return float(p != 0.0), 0.0, 0
    if y == 1.0:
        if p <= -1.0:
            raise ValueError(f"power mean diverges at y = 1 for exponent p = {p}; requires p > -1")

        def q(s: np.ndarray) -> np.ndarray:
            w = 2.0 * np.sin(0.5 * s)
            return (np.log(w) if p == 0.0 else w**p) / math.pi

        return integrate_tanhsinh_singular(q, math.pi, 1.0 + p, tol)

    def f(theta: np.ndarray) -> np.ndarray:
        m = circle_modulus_sq(theta, y)
        return (0.5 * np.log(m) if p == 0.0 else m ** (0.5 * p)) / math.pi

    edges = [0.5 * math.pi]
    d = abs(1.0 - y)
    while d < 0.5 * math.pi:
        edges.append(math.pi - d)
        d *= 4.0
    return integrate_adaptive(f, 0.0, math.pi, tol, breakpoints=tuple(edges))


def mean_quadrature(y: float, alpha: float, tol: float = DEFAULT_QUAD_TOL) -> MeanResult:
    """Circular mean of |1 + y*zeta|^alpha by :func:`power_mean_integral`.

    Accepts any alpha > 0 (wider than the sharp-constant range, so the
    same evaluator can serve exponent probes above 2).  Raises
    :class:`~circmeans.core.NumericalFailure` carrying the best estimate
    if the evaluation budget is exhausted before ``tol`` is met.
    """
    y = check_radius(y)
    alpha = check_alpha(alpha)
    tol = check_tol(tol)
    value, err, n_eval = power_mean_integral(y, alpha, tol)
    return MeanResult(value, err, BACKEND_QUADRATURE, n_eval)


def mean_series(
    y: float, alpha: float, tol: float = DEFAULT_SERIES_TOL
) -> tuple[MeanResult, SeriesTruncation]:
    """Circular mean of |1 + y*zeta|^alpha by the binomial power series,
    or near the circle by its connection formula.

    For y > 1 the inversion identity mean(y) = y^alpha * mean(1/y) maps
    the evaluation into the unit disk of convergence, at t = 1/y; for
    y <= 1, t = y.  Where v = 1 - t^2 = u(2 - u), u = 1 - t, is at most
    0.1, :func:`_connection_sum` at b = alpha/2 is tried first: about
    130 terms, and Gauss's sum Gamma(1+alpha)/Gamma(1+alpha/2)^2 at
    y = 1.  Its value is taken when its error estimate (tails plus
    rounding) is at most a quarter of ``tol``.  Otherwise, and always
    at alpha = 2 (a terminating polynomial), at alpha >= 2 and at
    alpha = 1 off y = 1 (a gamma pole), the power series is summed.
    There the series converges slowly close to the circle; the returned
    truncation carries the honest (possibly large) tail bound instead
    of failing.  Each series summed stops at 500 000 terms.  ``work``
    counts the terms of every series summed.
    """
    y = check_radius(y)
    alpha = check_alpha(alpha)
    tol = check_tol(tol)
    if y <= 1.0:
        scale, arg, u = 1.0, y, 1.0 - y
    else:
        scale, arg = inversion_symmetry(y, alpha)
        u = (y - 1.0) / y
    v = u * (2.0 - u)
    terms, path = 0, "connection"
    # Off v = 0 the formula needs Gamma(-1 - alpha), whose poles are where
    # 1 + alpha rounds to a whole number: alpha = 1, or within an ulp of 1 or 2.
    near = v <= _CONNECTION_V_MAX and alpha < 2.0 and (v == 0.0 or 1.0 + alpha not in (2.0, 3.0))
    if near:
        vals, bound, terms = _connection_sum(np.array([v]), alpha, 0)
    if not near or bound > _CONNECTION_SHARE * tol / scale:
        vals, bound, used = binomial_series_mean(np.array([arg]), alpha, tol / scale)
        terms, path = terms + used, "power"
    value, bound = scale * float(vals[0]), scale * bound
    return MeanResult(value, bound, BACKEND_SERIES, terms), SeriesTruncation(terms, bound, path)


def inversion_symmetry(y: float, alpha: float) -> tuple[float, float]:
    """Scale factor and reflected radius with mean(y) = scale * mean(1/y).

    Follows from |1 + y*zeta| = y * |1 + (1/y)*conj(zeta)| and the
    reflection invariance of the arc measure.  Requires y > 0; y = 1 is
    the identity (1, 1).
    """
    y = check_radius(y)
    alpha = check_alpha(alpha)
    if y == 0.0:
        raise ValueError("inversion requires y > 0")
    return y**alpha, 1.0 / y


def log_mean(y: float, tol: float = 1e-10) -> float:
    """Mean of ln|1 + y*zeta| over the unit circle: :func:`power_mean_integral`
    at p = 0, which also covers the log singularity at y = 1 and raises
    :class:`~circmeans.core.NumericalFailure` on a missed ``tol``.  The
    value agrees with max{0, ln y} (Jensen), which the test suite asserts.
    """
    y = check_radius(y)
    tol = check_tol(tol)
    return power_mean_integral(y, 0.0, tol)[0]
