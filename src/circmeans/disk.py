"""Area-integral route to the circular mean, via the disk Green kernel.

For alpha > 0 and y > 0 the boundary mean has the interior representation

    mean(y, alpha) = 1 + alpha^2 y^2 * int_0^1 m(y r) * r ln(1/r) dr,

where m(t) is the circular mean of |1 + t*zeta|^(alpha - 2), i.e. the
same kind of mean at the shifted exponent alpha - 2 <= 0.  The radial
weight r ln(1/r) is (up to normalization) the Green function of the unit
disk with pole at the origin, integrated over circles.

Numerical structure of the radial integrand:

* m(t) is analytic for t != 1 and blows up like |1 - t|^(alpha - 1) as
  t -> 1 (non-integrably on the circle itself when alpha <= 1, which is
  why the radial rule must never sample y r = 1 exactly).
* For y > 1 the blow-up sits at the interior point r = 1/y.  The two
  flanking subintervals are handled by a tanh-sinh rule parameterized by
  the exact distance s = |r - 1/y|, and m near t = 1 is evaluated from
  the hypergeometric connection expansion in u = |1 - t| directly, so no
  accuracy is lost to forming 1 - t.

:func:`radial_integral_lower` evaluates the closed form of the same
radial integral with m replaced by its pointwise lower bound
min{1, (y r)^(alpha-2)} (geometric-mean floor); feeding that through the
prefactor gives :func:`lower_bound_from_area`, which reproduces the
small and middle branches of :func:`~circmeans.bounds.mid_bound`
exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from math import gamma

import numpy as np

from .circle import binomial_series_mean
from .core import (
    BACKEND_AREA_INTEGRAL,
    BranchRegime,
    MeanResult,
    check_alpha,
    check_radius,
    check_tol,
    classify_regime,
)
from .quadrature import integrate_adaptive, integrate_tanhsinh_singular

# Dispatch thresholds for the inner mean: plain series below, inversion
# above, connection expansion in the ring around t = 1.
_SERIES_CUTOFF = 0.9
_NEAR_ONE_CUTOFF = 1.0 / _SERIES_CUTOFF
# |alpha - 1| below this uses the degenerate (logarithmic) expansion.
_DEGENERATE_BAND = 1e-6
# Term cap of the near-circle series, and how many terms go per chunk.
_MAX_TERMS = 400
_CHUNK = 32


@dataclass(frozen=True)
class RadialIntegralValue:
    """Closed-form value of the floor-integrand radial integral.

    ``value`` lies in (0, 1/4] for every y > 0, alpha in (0, 2]: the
    integrand is dominated by r ln(1/r) whose integral is exactly 1/4.
    """

    value: float
    regime: BranchRegime


def inner_mean_near_one(u: np.ndarray, alpha: float) -> np.ndarray:
    """Mean of |1 + t*zeta|^(alpha-2) at t = 1 - u, for 0 < u <= ~0.1.

    Evaluated from the connection expansion of the Gauss hypergeometric
    series around its logarithmic point: with a = 1 - alpha/2 and
    v = 1 - t^2 = u(2 - u),

        m = G1 * F(a, a; 2a; v) + G2 * v^(alpha-1) * F(1-a, 1-a; 2-2a; v)

    where G1 = Gamma(alpha-1)/Gamma(alpha/2)^2 and
    G2 = Gamma(1-alpha)/Gamma(1-alpha/2)^2.  The expansion takes u
    directly, so radii within 1e-300 of the circle are handled without
    forming 1 - u.  For |alpha - 1| <= 1e-6 the degenerate limit with an
    explicit ln(v) term is used instead (the two gamma prefactors blow
    up individually there).  alpha = 2 returns 1 identically.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if u.size == 0:
        return np.empty_like(u)
    if np.any((u <= 0.0) | (u > 0.5)):
        raise ValueError("near-one expansion requires 0 < u <= 0.5")
    alpha = check_alpha(alpha, upper=2.0)
    if alpha == 2.0:
        return np.ones_like(u)
    v = u * (2.0 - u)
    if abs(alpha - 1.0) <= _DEGENERATE_BAND:
        return _near_one_degenerate(v)
    a = 1.0 - 0.5 * alpha
    g1 = gamma(alpha - 1.0) / gamma(0.5 * alpha) ** 2
    g2 = gamma(1.0 - alpha) / gamma(1.0 - 0.5 * alpha) ** 2
    f1 = _hyp_series(a, a, 2.0 * a, v)
    f2 = _hyp_series(1.0 - a, 1.0 - a, 2.0 - 2.0 * a, v)
    # v^(alpha-1) via exp/log: v can be ~1e-300 while the power is huge.
    vpow = np.exp((alpha - 1.0) * np.log(v))
    return g1 * f1 + g2 * vpow * f2


def _hyp_series(p: float, q: float, c: float, v: np.ndarray) -> np.ndarray:
    """Plain Gauss series F(p, q; c; v) for v in [0, ~0.2].

    Terms go _CHUNK at a time: with the ratios R_k and the column v in
    alternating columns, one sequential product reproduces each term as
    (term * R_k) * v, and one sequential sum the partial sums, so the
    result is the term-by-term loop's to the bit.  The sum stops at the
    first k whose term is negligible against the largest partial sum.
    """
    s = np.ones_like(v)
    term = np.ones_like(v)
    for k0 in range(0, _MAX_TERMS, _CHUNK):
        ks = range(k0, min(k0 + _CHUNK, _MAX_TERMS))
        steps = np.empty((v.size, 1 + 2 * len(ks)))
        steps[:, 0] = term
        steps[:, 1::2] = [(p + k) * (q + k) / ((c + k) * (k + 1.0)) for k in ks]
        steps[:, 2::2] = v[:, None]
        terms = np.multiply.accumulate(steps, axis=1)[:, 2::2]
        sums = np.add.accumulate(np.hstack((s[:, None], terms)), axis=1)[:, 1:]
        done = np.abs(terms).max(axis=0) <= 1e-17 * sums.max(axis=0)
        if done.any():
            return sums[:, done.argmax()]
        term, s = terms[:, -1], sums[:, -1]
    return s


def _psi_gap_table(n: int) -> np.ndarray:
    """h_k = 2 psi(k+1) - 2 psi(k + 1/2) for k < n, from the exact
    recurrence h_0 = 4 ln 2, h_(k+1) = h_k - 2/((k+1)(2k+1))."""
    h = [4.0 * math.log(2.0)]
    for k in range(n - 1):
        h.append(h[-1] - 2.0 / ((k + 1.0) * (2.0 * k + 1.0)))
    return np.array(h)


_PSI_GAP = _psi_gap_table(_MAX_TERMS)


def _near_one_degenerate(v: np.ndarray) -> np.ndarray:
    """alpha = 1 limit: (1/pi) * sum ((1/2)_n / n!)^2 (h_n - ln v) v^n
    with h_n = 2 psi(n+1) - 2 psi(n + 1/2).

    Chunked like :func:`_hyp_series`: the sum adds c_n v^n h_n and
    subtracts c_n v^n ln v in alternating columns of one sequential sum,
    and stops at the first n whose remaining terms are negligible.
    """
    lv = np.log(v)
    lv_bound = float(np.max(np.abs(lv))) + 10.0
    s = np.zeros_like(v)
    coeff = 1.0
    p = np.ones_like(v)
    for n0 in range(0, _MAX_TERMS, _CHUNK):
        ns = range(n0, min(n0 + _CHUNK, _MAX_TERMS))
        coeffs = []
        for n in ns:
            coeffs.append(coeff)
            coeff *= ((n + 0.5) / (n + 1.0)) ** 2
        # powers[:, j] = v^(n0 + j), j = 0..len(ns): one more for the stop test.
        steps = np.empty((v.size, len(ns) + 1))
        steps[:, 0] = p
        steps[:, 1:] = v[:, None]
        powers = np.multiply.accumulate(steps, axis=1)
        cp = np.array(coeffs) * powers[:, :-1]
        parts = np.empty((v.size, 1 + 2 * len(ns)))
        parts[:, 0] = s
        parts[:, 1::2] = cp * _PSI_GAP[n0:n0 + len(ns)]
        parts[:, 2::2] = -(cp * lv[:, None])
        sums = np.add.accumulate(parts, axis=1)[:, 2::2]
        nxt = np.array(coeffs[1:] + [coeff])
        done = nxt * powers[:, 1:].max(axis=0) * lv_bound <= 1e-17 * sums.min(axis=0)
        if done.any():
            return sums[:, done.argmax()] / math.pi
        p, s = powers[:, -1], sums[:, -1]
    return s / math.pi


def inner_mean(t: np.ndarray, alpha: float) -> np.ndarray:
    """Mean of |1 + t*zeta|^(alpha-2) over the circle, for t >= 0, t != 1.

    Dispatch: binomial series for t <= 0.9, connection expansion in the
    ring 0.9 < t < 1/0.9, inversion t^(alpha-2) * m(1/t) beyond.  At
    t = 1 exactly the mean is finite only for alpha > 1 (value
    Gamma(alpha-1)/Gamma(alpha/2)^2); for alpha <= 1 the integrand is
    non-integrable on the circle and a ValueError is raised.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    alpha = check_alpha(alpha, upper=2.0)
    beta = alpha - 2.0
    if np.any(t < 0.0):
        raise ValueError("inner mean requires t >= 0")
    if np.any(t == 1.0):
        if alpha <= 1.0:
            raise ValueError(
                f"inner mean diverges at radius t = 1 for alpha = {alpha} <= 1"
            )
        at_one = gamma(alpha - 1.0) / gamma(0.5 * alpha) ** 2 if alpha < 2.0 else 1.0
    out = np.empty_like(t)
    lo = t <= _SERIES_CUTOFF
    hi = t >= _NEAR_ONE_CUTOFF
    ring_lo = (~lo) & (t < 1.0)
    ring_hi = (~hi) & (t > 1.0)
    one = t == 1.0
    if np.any(lo):
        out[lo], _, _ = binomial_series_mean(t[lo], beta, 1e-16)
    if np.any(ring_lo):
        out[ring_lo] = inner_mean_near_one(1.0 - t[ring_lo], alpha)
    if np.any(ring_hi):
        tt = t[ring_hi]
        out[ring_hi] = tt**beta * inner_mean_near_one((tt - 1.0) / tt, alpha)
    if np.any(hi):
        tt = t[hi]
        vals, _, _ = binomial_series_mean(1.0 / tt, beta, 1e-16)
        out[hi] = tt**beta * vals
    if np.any(one):
        out[one] = at_one
    return out


def _radial_weight(r: np.ndarray) -> np.ndarray:
    """r * ln(1/r), continuously extended by 0 at r = 0."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    pos = r > 0.0
    out[pos] = -r[pos] * np.log(r[pos])
    return out


def area_integral_mean(y: float, alpha: float, tol: float = 1e-8) -> MeanResult:
    """Circular mean of |1 + y*zeta|^alpha via the interior representation.

    Independent of :func:`~circmeans.circle.mean_quadrature` (different
    domain, different integrand, different special-function machinery),
    which is what makes the cross-agreement of the two a meaningful
    check.  The radial rule splits at r = 1/y, so the divergent inner
    radius is never sampled; the flanking pieces use a tanh-sinh rule in
    the exact distance from 1/y.
    """
    y = check_radius(y)
    alpha = check_alpha(alpha, upper=2.0)
    tol = check_tol(tol)
    if y == 0.0:
        return MeanResult(1.0, 0.0, BACKEND_AREA_INTEGRAL, 0)

    prefactor = alpha * alpha * y * y
    rtol = max(tol / prefactor, 1e-13)
    work = [0]

    def g(r: np.ndarray) -> np.ndarray:
        work[0] += r.size
        return inner_mean(y * r, alpha) * _radial_weight(r)

    pieces: list[tuple[float, float]] = []

    def add_adaptive(lo: float, hi: float, share: float) -> None:
        if hi - lo <= 0.0:
            return
        v, e, _ = integrate_adaptive(g, lo, hi, share)
        pieces.append((v, e))

    def add_singular(q, width: float, share: float) -> None:
        if width <= 0.0:
            return
        v, e, n = integrate_tanhsinh_singular(q, width, alpha, share)
        work[0] += n
        pieces.append((v, e))

    r_star = 1.0 / y
    if y < 1.0:
        # t = y r stays below 1; integrand analytic on (0, 1].
        add_adaptive(0.0, 1.0, rtol)
    elif y == 1.0:
        # Blow-up at the outer endpoint r = 1.
        cut = 0.75
        add_adaptive(0.0, cut, 0.5 * rtol)

        def q_end(s: np.ndarray) -> np.ndarray:
            return inner_mean_near_one(y * s, alpha) * _radial_weight(1.0 - s)

        add_singular(q_end, 1.0 - cut, 0.5 * rtol)
    else:
        dl = min(0.5 * r_star, 0.125)
        dr = min(1.0 - r_star, 0.125)
        share = rtol / 4.0

        add_adaptive(0.0, r_star - dl, share)

        def q_left(s: np.ndarray) -> np.ndarray:
            return inner_mean_near_one(y * s, alpha) * _radial_weight(r_star - s)

        add_singular(q_left, dl, share)

        def q_right(s: np.ndarray) -> np.ndarray:
            t = 1.0 + y * s
            return t ** (alpha - 2.0) * inner_mean_near_one(y * s / t, alpha) * _radial_weight(r_star + s)

        add_singular(q_right, dr, share)
        add_adaptive(r_star + dr, 1.0, share)

    radial = math.fsum(p[0] for p in pieces)
    radial_err = math.fsum(p[1] for p in pieces)
    value = 1.0 + prefactor * radial
    return MeanResult(value, prefactor * radial_err, BACKEND_AREA_INTEGRAL, work[0])


def radial_integral_lower(y: float, alpha: float) -> RadialIntegralValue:
    """Closed form of int_0^1 min{1, (y r)^(alpha-2)} r ln(1/r) dr.

    Exactly 1/4 for y <= 1 (the min is identically 1 there, and
    int_0^1 r ln(1/r) dr = 1/4).  For y > 1 the integral splits at
    r = 1/y, giving

        (1 + 2 ln y) / (4 y^2)
          + y^(alpha-2) * (1/alpha^2 - (1 + alpha ln y)/(alpha^2 y^alpha)),

    continuous in y across 1 and bounded by 1/4 everywhere.
    """
    y = check_radius(y)
    alpha = check_alpha(alpha, upper=2.0)
    if y == 0.0:
        raise ValueError("radial integral requires y > 0")
    regime = classify_regime(y, alpha)
    if y <= 1.0:
        return RadialIntegralValue(0.25, regime)
    ln_y = math.log(y)
    a2 = alpha * alpha
    value = (1.0 + 2.0 * ln_y) / (4.0 * y * y) + y ** (alpha - 2.0) * (
        1.0 / a2 - (1.0 + alpha * ln_y) / (a2 * y**alpha)
    )
    return RadialIntegralValue(value, regime)


def lower_bound_from_area(y: float, alpha: float) -> float:
    """1 + alpha^2 y^2 * radial_integral_lower(y, alpha).

    Equals the small/middle branches of
    :func:`~circmeans.bounds.mid_bound` by algebra.  It is a true lower
    bound for the mean everywhere, because the floor
    min{1, (y r)^(alpha-2)} under-estimates the inner mean pointwise
    (geometric-mean floor at exponent alpha - 2 <= 0); but deep in the
    large branch (ln y^2 > beta/(1-beta), beta = alpha/2) it drops below
    the Jensen floor y^alpha, which is why the chain's large branch is
    proved by the direct geometric-mean argument instead.
    """
    y = check_radius(y)
    alpha = check_alpha(alpha, upper=2.0)
    if y == 0.0:
        return 1.0
    return 1.0 + alpha * alpha * y * y * radial_integral_lower(y, alpha).value
