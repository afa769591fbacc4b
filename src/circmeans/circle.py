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
  a rigorous tail bound, to which the estimate adds a rounding term.
  Near the circle, where that series needs up to hundreds of thousands
  of terms, the z -> 1 - z connection formula
  (:func:`_connection_sum`, shared with :mod:`circmeans.disk`) takes
  over: its two families paired term by term, one form for every
  0 < alpha < 2, at most 17 terms, Gauss's sum
  Gamma(1+alpha)/Gamma(1+alpha/2)^2 at y = 1, and an estimate of tails
  plus rounding.

:func:`log_mean` evaluates the logarithmic mean int ln|1+y*zeta| dm,
whose closed form max{0, ln y} follows from the classical Jensen
formula; the quadrature value is used to verify that identity
numerically.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from math import gamma

import numpy as np

from .core import (
    BACKEND_QUADRATURE,
    BACKEND_SERIES,
    DEFAULT_QUAD_TOL,
    DEFAULT_SERIES_TOL,
    MeanResult,
    NumericalFailure,
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
# (p, B_(p+1)/(p (p+1))) of Stirling's series, and the x from which
# _stirling_slope is used.
_STIRLING = ((1, 1 / 12), (3, -1 / 360), (5, 1 / 1260), (7, -1 / 1680), (9, 1 / 1188))
_STIRLING_FROM = 15
# Rows of _connection_sum's coefficient table: its relative tail is about
# 2^-56 after these many terms at v = 0.75.
_PAIRED_TERMS = 140
# c in the power series' rounding term c eps value (see mean_series): 8,
# or a quarter of the number of _BLOCK-term blocks summed where that is more.
_SERIES_ROUNDING_FACTOR = 8.0
_SERIES_ROUNDING_BLOCKS = 4.0 * _BLOCK


@dataclass(frozen=True)
class SeriesTruncation:
    """How the series backend stopped.

    terms_used  terms of every series summed
    tail_bound  on the connection path, the omitted tails of its two
                paired sums times their factors plus a rounding term;
                on the power series, a rigorous bound on the
                omitted (all-nonnegative) tail, without the rounding
                term that the result's error estimate adds
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

    The coefficients come from one recurrence on the whole coefficient,
    C(b, k)^2 = previous * (b + 1 - k)^2 / k^2 at b = beta/2, whose
    factors for a block are formed as one array and multiplied up by one
    sequential accumulate, the first factor taking the coefficient
    carried over from the previous block.  Coefficient ratios are <= 1
    from k = max(3, ceil|b| + 2) on, which is where the tail bound of
    :func:`_power_sums` starts; at b > -0.45 the harmonic bound also
    holds, which covers t = 1.
    """
    max_terms = _check_max_terms(max_terms)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if ((t < 0.0) | (t > 1.0)).any():
        raise ValueError("series domain is 0 <= t <= 1")
    if beta <= -2.0:
        raise ValueError(f"series requires exponent beta > -2, got {beta}")
    if (t == 1.0).any() and beta <= -0.9:
        raise ValueError("series at t = 1 requires beta > -0.9")
    b = 0.5 * beta
    coeff = 1.0                        # C(b, k)^2 at the last k summed

    def coefficients(k: int, n: int) -> np.ndarray:
        nonlocal coeff
        ks = np.arange(k, k + n, dtype=float)
        f = b + 1.0 - ks
        cs = f * f / (ks * ks)
        cs[0] *= coeff
        np.multiply.accumulate(cs, out=cs)
        coeff = cs[-1]
        return cs

    k_min = max(3, int(math.ceil(abs(b))) + 2)
    values, tail, terms = _power_sums(
        t * t, 1.0, coefficients, tol, max_terms, k_min, b if b > -0.45 else None)
    return values, float(tail), terms


def _power_sums(
    z: np.ndarray,
    c0: float | np.ndarray,
    coefficients: Callable[[int, int], np.ndarray],
    tol: float,
    max_terms: int,
    k_min: int,
    harmonic_b: float | None = None,
    block: int = _BLOCK,
) -> tuple[np.ndarray, float | np.ndarray, int]:
    """sum_k c_k z^k for 0 <= z <= 1: the package's one power-sum loop.

    c0 is the k = 0 coefficient: a float for one sum, or an array of r
    for r sums that share the powers, which then come back as the r
    columns of the values.  ``coefficients(k, n)`` returns c_k ...
    c_(k+n-1) (an array of n, or n by r).  Terms go ``block`` at a time
    from k = 1, up to ``max_terms`` of them: the block's powers come from
    one sequential product along the rows, and its sums from
    ``np.vecdot``, one dot product per row (and per sum), so a point
    gets the same bits in a batch of any size, which a BLAS matrix
    product, whose summation order changes with the number of rows,
    does not give.  After each
    block from k = k_min on, the tail bound at each point is
    |last term| * z/(1 - z), which holds where every coefficient
    ratio |c_(j+1)/c_j| is <= 1 from the last term on; it takes
    |coefficient|, so the coefficients need not be positive.  With
    ``harmonic_b`` = b > -0.45 it is also capped by the harmonic bound
    |last term| (k + 1)/(1 + 2b) of C(b, k)^2, which covers z = 1.  The
    loop stops once the worst bound is <= ``tol``, or at a block whose
    last coefficients are all zero (a terminating series).  Returns
    (values, the worst tail bound over the points, one per sum, or inf
    before k_min and 0 for a terminated series, terms used).
    """
    columns = isinstance(c0, np.ndarray)
    values = c0
    geo = np.where(z < 1.0, z / np.maximum(1.0 - z, 1e-300), np.inf)
    if columns:
        geo = geo[:, None]
    tail = math.inf
    # Row i of a block's powers is steps[i, 0] * z[i]^j, j = 0..nblk-1,
    # with steps[i, 0] = z[i]^(k+1) at the block start.
    steps = np.repeat(z[:, None], block, axis=1)
    k = 0
    while k < max_terms:
        nblk = min(block, max_terms - k)
        cs = coefficients(k + 1, nblk)
        powers = np.multiply.accumulate(steps[:, :nblk], axis=1)
        values = values + (np.vecdot(powers[:, None], cs.T) if columns else np.vecdot(powers, cs))
        k += nblk
        if k < max_terms:
            steps[:, 0] = powers[:, -1] * z
        last = abs(cs[-1])
        if not (last.any() if columns else last):
            # Once a coefficient hits zero the recurrence keeps it zero,
            # so the series has terminated: no tail, for each sum.
            tail = last
            break
        if k >= k_min:
            last_term = last * (powers[:, -1:] if columns else powers[:, -1])
            bounds = last_term * geo
            if harmonic_b is not None:
                bounds = np.minimum(bounds, last_term * ((k + 1.0) / (1.0 + 2.0 * harmonic_b)))
            tail = bounds.max(axis=0)
            if tail.max() <= tol:
                break
    return values, tail, k + 1


def _stirling_slope(x: float, e: float) -> float:
    """(ln Gamma(x + e) - ln Gamma(x))/e for x >= 15, |e| <= 1: psi(x) at e = 0.

    Stirling's series ln Gamma(x) = (x - 1/2) ln x - x + ln(2 pi)/2
    + sum_p B_(p+1)/(p (p+1) x^p), differenced in closed form, with
    w = e/x: (x - 1/2) log1p(w)/e + ln(x + e) - 1 plus, for each p,
    B_(p+1)/(p (p+1)) ((x + e)^(-p) - x^(-p))/e, where
    (x + e)^(-p) - x^(-p) = x^(-p) expm1(-p log1p(w)).  Nothing cancels
    as e -> 0.  The first omitted term is below 2e-16 at x = 15.
    """
    w = e / x
    lw = math.log1p(w)
    r = lw / w if w else 1.0
    acc = (x - 0.5) / x * r + math.log(x + e) - 1.0
    for p, c in _STIRLING:
        s = -p * lw
        acc -= c * p * x ** (-p - 1) * r * (math.expm1(s) / s if s else 1.0)
    return acc


@lru_cache(maxsize=32)
def _paired_coefficients(alpha: float, n: int) -> tuple[float, np.ndarray, float]:
    """What :func:`_connection_sum` needs of alpha and n alone: Gauss's sum
    G (n = 0; 0 for n = 1), its read-only table of _PAIRED_TERMS rows
    [(2n - 1) C_k q_k phi(eps q_k), C_k], and max_k |eps q_k|."""
    eps = alpha - 1.0
    # C_0; C_(k+1)/C_k = (k + a)^2/((k + b)(k + d)); q_k = sum w Lambda(x + k, e).
    if n == 0:
        gauss = gamma(1.0 + alpha) / gamma(1.0 + 0.5 * alpha) ** 2
        c0, a, b, d = gauss * alpha * (2.0 - alpha) ** 2 / 32.0, 2.0 - 0.5 * alpha, 2.0 - alpha, 3.0
        slopes = ((-1.0, 1.0, -eps), (-1.0, 3.0, eps), (1.0, 1.5, 0.5 * eps), (1.0, 1.5, -0.5 * eps))
    else:
        gauss = 0.0
        c0, a, b, d = gamma(2.0 - alpha) / gamma(1.0 - 0.5 * alpha) ** 2, 0.5 * alpha, alpha, 1.0
        slopes = ((1.0, alpha, -eps), (1.0, 1.0, -eps),
                  (-1.0, 0.5 * alpha, -0.5 * eps), (-1.0, 0.5, -0.5 * eps))
    ks = np.arange(_PAIRED_TERMS, dtype=float)
    # Column by column, so _power_sums' dot products run on contiguous rows of its transpose.
    table = np.empty((_PAIRED_TERMS, 2), order="F")
    table[0, 1] = c0
    table[1:, 1] = (ks[:-1] + a) ** 2 / ((ks[:-1] + b) * (ks[:-1] + d))
    np.multiply.accumulate(table[:, 1], out=table[:, 1])
    w, x0, e = np.array(slopes).T
    xk = x0[:, None] + ks
    # n = 1 below the smallest normal alpha: the step log1p(e/x) at
    # x = alpha overflows, and the finiteness check below raises.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # The steps log1p(e/x)/e, which are 1/x at eps = 0.
        steps = np.log1p(e[:, None] / xk) * (w / e)[:, None] if eps else w[:, None] / xk
        walk = np.cumsum(steps.sum(axis=0))
        stirling = sum(wi * _stirling_slope(xi + _STIRLING_FROM, ei) for wi, xi, ei in slopes)
        q = np.empty(_PAIRED_TERMS)
        q[0] = 0.0
        q[1:] = walk[:-1]
        q += stirling - walk[_STIRLING_FROM - 1]
        eq = eps * q
        qa = np.expm1(eq) / eps if eps else q                # q phi(eps q)
        np.multiply(table[:, 1], (2 * n - 1) * qa, out=table[:, 0])
    if not np.isfinite(table).all():
        raise NumericalFailure(f"connection coefficients overflow at alpha = {alpha!r}")
    table.flags.writeable = False
    return gauss, table, float(np.abs(eq).max())


def _connection_sum(
    v: np.ndarray, alpha: float, n: int, *, with_error: bool = True
) -> tuple[np.ndarray, np.ndarray | None, int]:
    """F(-b, -b; 1; 1 - v) at b = alpha/2 - n, n in {0, 1}, for
    0 < v <= 0.75 (or every v = 0) and 0 < alpha < 2: the z -> 1 - z
    connection formula (A&S 15.3.6) with its two families paired term by
    term, uniform in eps = alpha - 1.

    n = 0 gives the mean of |1 + t*zeta|^alpha and n = 1 the mean at
    exponent alpha - 2 (the inner mean of :mod:`circmeans.disk`), both at
    t^2 = 1 - v.  Where every v is 0 the value is Gauss's sum
    Gamma(1 + alpha - 2n)/Gamma(1 + alpha/2 - n)^2 (alpha > 1 for n = 1).

    The two families of A&S 15.3.6 carry gamma prefactors with poles
    where c - a - b = alpha + 1 - 2n is the integer m = 2 - 2n, so near
    alpha = 1 they cancel.  Pairing family-1 term k + m with family-2
    term k (Forrey 1997, J. Comput. Phys. 137:79; Michel & Stoitsov 2008,
    Comput. Phys. Commun. 178:535) turns each pair into divided
    differences in eps.  With L = ln v, phi(x) = expm1(x)/x and
    Lambda(x, e) = (ln Gamma(x + e) - ln Gamma(x))/e:

        n = 1:  sum_k v^k C_k [q_k phi(eps q_k) - L phi(eps L)],
                C_0 = Gamma(2 - alpha)/Gamma(1 - alpha/2)^2,
                C_(k+1)/C_k = (k + alpha/2)^2 / ((k + alpha)(k + 1)),
                q_k = Lambda(k+1, eps) + Lambda(k+1, -eps)
                      - Lambda(k+1/2, eps/2) - Lambda(k+1/2, -eps/2);
        n = 0:  G (1 - alpha v/4)
                - v^2 sum_k v^k C_k [q_k phi(eps q_k) v^eps + L phi(eps L)],
                G = Gamma(1 + alpha)/Gamma(1 + alpha/2)^2 (Gauss's sum),
                C_0 = G alpha (2 - alpha)^2 / 32,
                C_(k+1)/C_k = (k + 2 - alpha/2)^2 / ((k + 2 - alpha)(k + 3)),
                q_k = -Lambda(k+1, -eps) - Lambda(k+3, eps)
                      + Lambda(k+3/2, eps/2) + Lambda(k+3/2, -eps/2).

    At eps = 0 these are A&S 15.3.10 and 15.3.11 (m = 2).  Neither has
    a pole on 0 < alpha < 2.  Each q_k is the Stirling value
    (:func:`_stirling_slope`) at k = 15 plus or minus the steps
    Lambda(x + 1, e) - Lambda(x, e) = log1p(e/x)/e between, which are
    also what carries q_k from k to k + 1.  Those steps and the divided
    differences expm1(eps y)/eps = y phi(eps y) keep full relative
    accuracy however small eps is, and are 1/x and y at eps = 0, so
    nothing cancels and nothing has a pole.  For n = 1, Lambda(k+1, eps)
    and Lambda(k+1/2, eps/2) are taken as Lambda(k + alpha, -eps) and
    Lambda(k + alpha/2, -eps/2) (Lambda(x, e) = Lambda(x + e, -e)), so
    that no x + e near 0 is formed from eps, which rounds for small
    alpha.  The two sums of C_k q_k phi(eps q_k) and of C_k go through
    :func:`_power_sums` together, to a relative tail of about 2^-56 at
    the largest v: at most 17 terms where v <= 0.1, 140 at v = 0.75.

    Tails.  Every term ratio is at most v from k = 3 on, so each sum's
    omitted tail is at most its last term times v/(1 - v):
    * n = 1: C_(k+1)/C_k < 1 at every k, as
      (k + 1)(k + alpha) - (k + alpha/2)^2 = k + alpha(4 - alpha)/4 > 0;
      and q_(k+1) - q_k = 2 [atanh(eps/(k+1)) - 2 atanh(eps/(2k+1))]/eps,
      which is -2 atanh(eps)/eps < 0 at k = 0 and, for k >= 1, by the
      series atanh(w)/w = sum_i w^(2i)/(2i + 1), at most
      2/(k+1) (1/(3k(k + 2)) - 1/(2k + 1)) < 0.  So q_k falls to its
      limit 0: q_k > 0, and q phi(eps q) = expm1(eps q)/eps falls with it.
    * n = 0: C_(k+1)/C_k < 1 from k = 1 on, as
      (k + 2 - alpha)(k + 3) - (k + 2 - alpha/2)^2
      = k - 1 + (2 - alpha)(6 + alpha)/4;
      and q_(k+1) - q_k has the sign of
      2k^2 + 3k - (4k + 6) eps - (k + 2) eps^2, positive for k >= 3
      (2k^2 - 2k - 8 > 0 at eps -> 1).  So from k = 3 on q_k rises to
      its limit 0: q_k <= 0, and |q phi(eps q)| falls.  Below k = 3,
      q_k can be positive (q_0 from alpha ~ 1.4 on).

    Returns (values, error estimates, terms used), with None for the
    estimates when ``with_error`` is false.  The estimate at each
    point is the two sums' worst tails over the array times their
    factors there, plus the rounding
    term c eps (|G (1 - alpha v/4)| + (1 + max_k |eps q_k| + |x| [n = 0])
    |first sum's part| + (1 + |x|) |second sum's part|), x = eps L, with
    each part weighted by the conditioning of the exponentials in it:
    v^eps = exp(x) and exp(eps q_k).  A scan against mpmath sized c
    (see _ROUNDING_FACTOR).
    """
    if not v.any():
        gauss = gamma(1.0 + alpha - 2 * n) / gamma(1.0 + 0.5 * alpha - n) ** 2
        return np.full_like(v, gauss), np.full_like(v, _ROUNDING_FACTOR * _EPS * abs(gauss)), 1
    gauss, table, eq_max = _paired_coefficients(alpha, n)
    vmax = float(v.max())
    terms = min(_PAIRED_TERMS, max(4, math.ceil(math.log(2.0**-56 * (1.0 - vmax)) / math.log(vmax))))
    # One block: the table is there in full, and the tail is needed once
    # (not at all without the estimate: k_min past the block skips it).
    sums, tails, used = _power_sums(v, table[0], lambda k, m: table[k:k + m], 0.0, terms - 1,
                                    3 if with_error else terms, block=terms - 1)
    eps = alpha - 1.0
    ln_v = np.log(v)
    x = eps * ln_v
    lphi = np.expm1(x) / eps if eps else ln_v                # L phi(eps L)
    if n == 0:
        head, scale, vpow, x_cond = gauss * (1.0 - 0.25 * alpha * v), v * v, np.exp(x), np.abs(x)
    else:
        head, scale, vpow, x_cond = 0.0, 1.0, 1.0, 0.0
    first, second = scale * vpow * sums[:, 0], scale * lphi * sums[:, 1]
    if not with_error:
        return head + first - second, None, used
    # c eps = 2^-48 scales each part exactly, before the conditioning
    # factors, so the spread stays finite wherever the value is.
    c_eps = _ROUNDING_FACTOR * _EPS
    spread = (c_eps * abs(head) + (1.0 + eq_max + x_cond) * (c_eps * np.abs(first))
              + (1.0 + np.abs(x)) * (c_eps * np.abs(second)))
    err = scale * (vpow * tails[0] + np.abs(lphi) * tails[1]) + spread
    return head + first - second, err, used


def power_mean_integral(y: float, p: float, tol: float) -> tuple[float, float, int]:
    """(1/pi) int_0^pi |1 + y e^{i th}|^p dth for real p, or at p = 0 the
    same average of ln|1 + y e^{i th}|; returns (value, error, evals).

    Off y = 1: adaptive Gauss-Kronrod from panel edges pi/2 and
    pi - 4^j |1 - y| (j >= 0, while below pi/2), so the first panels
    resolve the feature of width |1 - y| at th = pi.  At y = 1: one
    tanh-sinh call in s = pi - th on the unsquared |1 + zeta| = 2 sin(s/2);
    p <= -1 diverges there and is rejected.  A missed ``tol`` raises
    :class:`~circmeans.core.NumericalFailure` with the whole integral's
    best estimate, and so does a y past about 1.34e154, where
    (1 - y)^2 overflows.  Callers validate y and tol.
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
    try:
        return integrate_adaptive(f, 0.0, math.pi, tol, breakpoints=tuple(edges))
    except OverflowError as exc:  # (1 - y)^2 past the largest double, y >~ 1.34e154
        raise NumericalFailure(f"|1 + y e^(i th)|^2 overflows at y = {y!r}") from exc


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
    0.1, :func:`_connection_sum` at b = alpha/2 is tried first: at most
    17 terms, and Gauss's sum Gamma(1+alpha)/Gamma(1+alpha/2)^2 at
    y = 1, which is always taken.  Off y = 1 its value is taken when its
    error estimate (tails plus rounding) is at most a quarter of
    ``tol``.  Otherwise, and always at alpha >= 2 (alpha = 2 is a
    terminating polynomial), the power series is summed; where both were
    summed, the value with the smaller estimate is returned (below
    tol ~ 2e-14 the connection estimate can miss tol/4 while the power
    series ends far worse near the circle).  So is
    alpha = 1 off y = 1 (with the alphas within an ulp of 1, where
    1 + alpha rounds to 2): the connection formula has no pole there,
    but the power series that these points take, 85k-196k terms each
    in the benchmark's near-circle rows, is kept until the benchmark's
    peak-memory reading stops growing with its pass count.
    There the series converges slowly close to the circle; the returned
    truncation carries the honest (possibly large) tail bound instead
    of failing.  Each series summed stops at 500 000 terms.  ``work``
    counts the terms of every series summed.

    On the power series the error estimate is the tail bound plus a
    rounding term c eps value, and the tail is summed to what c = 8
    leaves of ``tol`` (it reserves 8 eps 2^alpha, since the value is at
    most mean(1, alpha) <= 2^alpha).  The rounding grows with the number
    B of 64-term blocks summed, so c = max(8, B/4).  A scan against
    50-digit mpmath of 9 200 points at each of tol 1e-12, 1e-14 and
    1e-15 (0.05 <= alpha <= 5.5, half of the points within 1e-1 to 1e-7
    of y = 1; 25 962 of them on the power series) needed at most 2.3 at B = 1, 6.0 at B = 46, 11.2 at B = 140,
    about sqrt(B) up to B = 500 and 0.05 B beyond, up to 379 at the
    500 000-term cap (B = 7 815).  c is at least 1.6 times that
    everywhere and 2.9 times from B = 64 on; 624 of the 9 200 points
    at tol 1e-15 missed their estimate with c = 8, none with this c.
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
    # alpha = 1 off the circle stays on the power series (see above).
    near = v <= _CONNECTION_V_MAX and alpha < 2.0 and (v == 0.0 or 1.0 + alpha != 2.0)
    if near:
        vals, bounds, terms = _connection_sum(np.array([v]), alpha, 0)
        bound = float(bounds[0])
    if not near or (v > 0.0 and bound > _CONNECTION_SHARE * tol / scale):
        # Rounding is at most c eps times the value, which is at most
        # mean(1, alpha) <= 2^alpha: the tail gets the rest of tol, or half
        # of it where rounding could take more.
        budget = tol / scale
        reserve = _SERIES_ROUNDING_FACTOR * _EPS * 2.0 ** min(alpha, 1000.0)
        p_vals, p_bound, used = binomial_series_mean(
            np.array([arg]), alpha, max(budget - reserve, 0.5 * budget))
        terms += used
        rounding = max(_SERIES_ROUNDING_FACTOR, used / _SERIES_ROUNDING_BLOCKS)
        if not near or p_bound + rounding * _EPS * float(p_vals[0]) < bound:
            vals, bound, path = p_vals, p_bound, "power"
    value, bound = scale * float(vals[0]), scale * bound
    estimate = bound + rounding * _EPS * value if path == "power" else bound
    return MeanResult(value, estimate, BACKEND_SERIES, terms), SeriesTruncation(terms, bound, path)


def inversion_symmetry(y: float, alpha: float) -> tuple[float, float]:
    """Scale factor and reflected radius with mean(y) = scale * mean(1/y).

    Follows from |1 + y*zeta| = y * |1 + (1/y)*conj(zeta)| and the
    reflection invariance of the arc measure.  Requires y > 0; y = 1 is
    the identity (1, 1).  Raises
    :class:`~circmeans.core.NumericalFailure` where y^alpha overflows.
    """
    y = check_radius(y)
    alpha = check_alpha(alpha)
    if y == 0.0:
        raise ValueError("inversion requires y > 0")
    try:
        return y**alpha, 1.0 / y
    except OverflowError as exc:
        raise NumericalFailure(f"y^alpha overflows at y = {y!r}, alpha = {alpha!r}") from exc


def log_mean(y: float, tol: float = 1e-10) -> float:
    """Mean of ln|1 + y*zeta| over the unit circle: :func:`power_mean_integral`
    at p = 0, which also covers the log singularity at y = 1 and raises
    :class:`~circmeans.core.NumericalFailure` on a missed ``tol``.  The
    value agrees with max{0, ln y} (Jensen), which the test suite asserts.
    """
    y = check_radius(y)
    tol = check_tol(tol)
    return power_mean_integral(y, 0.0, tol)[0]
