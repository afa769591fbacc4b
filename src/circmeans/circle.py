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
  a rigorous tail bound.

:func:`log_mean` evaluates the logarithmic mean int ln|1+y*zeta| dm,
whose closed form max{0, ln y} follows from the classical Jensen
formula; the quadrature value is used to verify that identity
numerically.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class SeriesTruncation:
    """How the series backend stopped: terms consumed and a rigorous
    bound on the omitted (all-nonnegative) tail."""

    terms_used: int
    tail_bound: float


def circle_modulus_sq(theta: np.ndarray, y: float) -> np.ndarray:
    """|1 + y e^{i theta}|^2 evaluated without cancellation.

    Uses (1-y)^2 + 4 y sin^2((pi-theta)/2), exact at both endpoints and
    accurate to a few ulps uniformly in theta for y near 1.
    """
    u = math.pi - np.asarray(theta, dtype=float)
    s = np.sin(0.5 * u)
    return (1.0 - y) ** 2 + 4.0 * y * s * s


def binomial_series_mean(
    t: np.ndarray,
    beta: float,
    tol: float,
    *,
    max_terms: int = 500_000,
) -> tuple[np.ndarray, float, int]:
    """sum_k C(beta/2, k)^2 t^(2k) for 0 <= t <= 1, vectorized over t.

    Valid for beta > -2 (term ratios eventually fall below t^2) and, at
    t = 1 exactly, for beta > -0.9 (harmonic-decay tail bound).  Returns
    (values, worst tail bound over the array, terms used).  The tail
    bound is never underestimated; when ``max_terms`` is hit before the
    bound clears ``tol``, the honest bound is returned rather than
    raising.  ``max_terms`` must be an integer >= 1 (Python or numpy).
    """
    max_terms = check_integer("max_terms", max_terms)
    if max_terms < 1:
        raise ValueError(f"max_terms must be at least 1, got {max_terms!r}")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any((t < 0.0) | (t > 1.0)):
        raise ValueError("series domain is 0 <= t <= 1")
    if beta <= -2.0:
        raise ValueError(f"series requires exponent beta > -2, got {beta}")
    if np.any(t == 1.0) and beta <= -0.9:
        raise ValueError("series at t = 1 requires beta > -0.9")
    return _hyp2f1_series(t * t, 0.5 * beta, 1.0, tol, max_terms)


def _hyp2f1_series(
    z: np.ndarray, b: float, c: float, tol: float, max_terms: int = 500_000
) -> tuple[np.ndarray, float, int]:
    """Gauss series F(-b, -b; c; z) = sum_k C(b, k)^2 k!/(c)_k z^k, 0 <= z <= 1.

    The package's one 2F1 summation, with one code path for every c.
    Terms go _BLOCK at a time: the block's powers come from one
    sequential product along the rows, and its coefficients from one
    recurrence on the whole coefficient, C(b, k)^2 k!/(c)_k = previous
    * (b + 1 - k)^2 / (k (c - 1 + k)), whose factors are formed as one
    array and multiplied up by one sequential accumulate, the first
    factor taking the coefficient carried over from the previous block.
    The tail bound after each block assumes term ratios <= z from
    k = max(3, ceil|b| + 2) on (true for c = 1, b > -1, and for the
    connection families of :mod:`circmeans.disk` at every k); at c = 1
    and b > -0.45 the harmonic bound also holds, which covers z = 1.
    Returns (values, worst tail bound over the array, terms used).
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
            last_term = coeff * powers[:, -1]
            bound = last_term * geo
            if harmonic_ok:
                bound = np.minimum(bound, last_term * ((k + 1.0) / (1.0 + 2.0 * b)))
            tail = float(np.max(bound))
            if tail <= tol:
                break
    return values, tail, k + 1


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
    y: float,
    alpha: float,
    tol: float = DEFAULT_SERIES_TOL,
    *,
    max_terms: int = 500_000,
) -> tuple[MeanResult, SeriesTruncation]:
    """Circular mean of |1 + y*zeta|^alpha by the binomial power series.

    For y > 1 the inversion identity mean(y) = y^alpha * mean(1/y) maps
    the evaluation into the unit disk of convergence.  At y = 1 the
    series converges slowly for small alpha; the returned truncation
    carries the honest (possibly large) tail bound instead of failing.
    ``max_terms`` must be an integer >= 1.
    """
    y = check_radius(y)
    alpha = check_alpha(alpha)
    tol = check_tol(tol)
    if y <= 1.0:
        scale, arg = 1.0, y
    else:
        scale, arg = inversion_symmetry(y, alpha)
    vals, tail, terms = binomial_series_mean(np.array([arg]), alpha, tol / scale, max_terms=max_terms)
    value = scale * float(vals[0])
    tail_bound = scale * tail
    result = MeanResult(value, tail_bound, BACKEND_SERIES, terms)
    return result, SeriesTruncation(terms, tail_bound)


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
