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
* For y >= 1 the blow-up sits at the point r = 1/y, interior for
  y > 1 and the outer endpoint at y = 1.  The flanking subintervals are
  handled by a tanh-sinh rule parameterized by the exact distance
  s = |r - 1/y| (at y = 1 only the left flank is non-empty), and m near
  t = 1 is evaluated from the hypergeometric connection expansion in
  u = |1 - t| directly, so no accuracy is lost to forming 1 - t.  Its
  two families are paired term by term, one form for every
  0 < alpha < 2, so nothing cancels near alpha = 1 and the value's own
  error bound, which the flanks integrate, stays at the rounding level.

:func:`radial_integral_lower` evaluates the closed form of the same
radial integral with m replaced by its pointwise lower bound
min{1, (y r)^(alpha-2)} (geometric-mean floor); feeding that through the
prefactor gives :func:`lower_bound_from_area`, which reproduces the
small and middle branches of :func:`~circmeans.bounds.mid_bound`
exactly.
"""
from __future__ import annotations

import math

import numpy as np

from .circle import _connection_sum, binomial_series_mean
from .core import (
    BACKEND_AREA_INTEGRAL,
    MeanResult,
    NumericalFailure,
    check_alpha,
    check_radius,
    check_tol,
)
from .quadrature import integrate_adaptive, integrate_tanhsinh_singular

# Dispatch thresholds for the inner mean: plain series below, inversion
# above, connection expansion in the ring around t = 1.
_SERIES_CUTOFF = 0.9
_NEAR_ONE_CUTOFF = 1.0 / _SERIES_CUTOFF


def inner_mean_near_one(u: np.ndarray, alpha: float, *, with_error: bool = False):
    """Mean of |1 + t*zeta|^(alpha-2) at t = 1 - u, for 0 < u <= 0.5.

    Evaluated by :func:`~circmeans.circle._connection_sum` at
    b = alpha/2 - 1, the connection expansion of the Gauss
    hypergeometric series around its logarithmic point: with
    a = 1 - alpha/2 and v = 1 - t^2 = u(2 - u),

        m = G1 * F(a, a; 2a; v) + G2 * v^(alpha-1) * F(1-a, 1-a; 2-2a; v)

    where G1 = Gamma(alpha-1)/Gamma(alpha/2)^2 and
    G2 = Gamma(1-alpha)/Gamma(1-alpha/2)^2.  The two prefactors have
    poles at alpha = 1, so the families are summed paired term by term
    in divided differences in alpha - 1, one form for every
    0 < alpha < 2 (alpha = 1 included, where it is A&S 15.3.10).  The
    expansion takes u directly, so radii within 1e-300 of the circle are
    handled without forming 1 - u.  alpha = 2 returns 1 identically.

    With ``with_error``, returns (values, a bound on each value's error):
    the connection formula's own estimate of tails plus rounding.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if u.size == 0:
        return (np.empty_like(u), np.empty_like(u)) if with_error else np.empty_like(u)
    if ((u <= 0.0) | (u > 0.5)).any():
        raise ValueError("near-one expansion requires 0 < u <= 0.5")
    alpha = check_alpha(alpha, upper=2.0)
    if alpha == 2.0:
        values, errors = np.ones(u.shape), np.zeros(u.shape)
    else:
        values, errors, _ = _connection_sum(u * (2.0 - u), alpha, 1)
    return (values, errors) if with_error else values


def inner_mean(t: np.ndarray, alpha: float) -> np.ndarray:
    """Mean of |1 + t*zeta|^(alpha-2) over the circle, for t >= 0, t != 1.

    A radius t > 1 is first mapped inside by the inversion
    m(t) = t^(alpha-2) * m(1/t), with distance (t - 1)/t to the circle.
    Then the binomial series takes radii up to 0.9 (or from 1/0.9 on)
    and the connection expansion the ring between.  At t = 1 exactly
    the mean is finite only for alpha > 1 (value
    Gamma(alpha-1)/Gamma(alpha/2)^2); for alpha <= 1 the integrand is
    non-integrable on the circle and a ValueError is raised.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    alpha = check_alpha(alpha, upper=2.0)
    beta = alpha - 2.0
    if (t < 0.0).any():
        raise ValueError("inner mean requires t >= 0")
    one = t == 1.0
    if one.any() and alpha <= 1.0:
        raise ValueError(f"inner mean diverges at radius t = 1 for alpha = {alpha} <= 1")
    outside = t > 1.0
    scale = np.ones(t.shape)
    inside = t.copy()
    dist = 1.0 - t
    if outside.any():
        to = t[outside]
        scale[outside] = to**beta
        inside[outside] = 1.0 / to
        dist[outside] = (to - 1.0) / to
    ring = (t > _SERIES_CUTOFF) & (t < _NEAR_ONE_CUTOFF) & ~one
    series = ~ring & ~one
    out = np.empty_like(t)
    if series.any():
        out[series], _, _ = binomial_series_mean(inside[series], beta, 1e-16)
    if ring.any():
        out[ring] = inner_mean_near_one(dist[ring], alpha)
    if one.any():
        out[one] = _connection_sum(np.zeros(t[one].shape), alpha, 1)[0]
    return scale * out


def _radial_weight(r: np.ndarray) -> np.ndarray:
    """r * ln(1/r), continuously extended by 0 at r = 0."""
    r = np.asarray(r, dtype=float)
    out = np.zeros(r.shape)
    pos = r > 0.0
    out[pos] = -r[pos] * np.log(r[pos])
    return out


def area_integral_mean(y: float, alpha: float, tol: float = 1e-8) -> MeanResult:
    """Circular mean of |1 + y*zeta|^alpha via the interior representation.

    Independent of :func:`~circmeans.circle.mean_quadrature` (different
    domain, different integrand, different special-function machinery),
    which is what makes the cross-agreement of the two a meaningful
    check.  For y >= 1 the radial rule splits at r = 1/y, so the
    divergent inner radius is never sampled; the flanking pieces use a
    tanh-sinh rule in the exact distance from 1/y.  At y = 1 that point
    is the outer endpoint, so the right flank and the piece beyond it
    are empty and the split runs GK15 on [0, 7/8] and the left flank.
    Raises :class:`~circmeans.core.NumericalFailure` where alpha - 2
    rounds to -2 (alpha below about 2.2e-16) or alpha^2 y^2 underflows.
    """
    y = check_radius(y)
    alpha = check_alpha(alpha, upper=2.0)
    tol = check_tol(tol)
    if y == 0.0:
        return MeanResult(1.0, 0.0, BACKEND_AREA_INTEGRAL, 0)

    prefactor = alpha * alpha * y * y
    if prefactor == 0.0 or alpha - 2.0 == -2.0:
        # The route cannot see alpha (or y): alpha^2 y^2 underflows, or the
        # inner exponent alpha - 2 rounds to -2, where the radial integral
        # diverges for y >= 1.
        raise NumericalFailure(f"area route cannot resolve alpha = {alpha!r} at y = {y!r}")
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
    else:
        # Split at r* = 1/y; at y = 1, dr = 0 leaves both right pieces empty.
        dl = min(0.5 * r_star, 0.125)
        dr = min(1.0 - r_star, 0.125)
        share = rtol / 4.0

        add_adaptive(0.0, r_star - dl, share)

        # The flanks return each value with a bound on its error from the
        # inner mean's own estimate, which the rule integrates alongside.
        def q_left(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            m, m_err = inner_mean_near_one(y * s, alpha, with_error=True)
            w = _radial_weight(r_star - s)
            return m * w, m_err * w

        add_singular(q_left, dl, share)

        def q_right(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            t = 1.0 + y * s
            m, m_err = inner_mean_near_one(y * s / t, alpha, with_error=True)
            scale = t ** (alpha - 2.0)
            w = _radial_weight(r_star + s)
            return scale * m * w, scale * m_err * w

        add_singular(q_right, dr, share)
        add_adaptive(r_star + dr, 1.0, share)

    radial = math.fsum(p[0] for p in pieces)
    radial_err = math.fsum(p[1] for p in pieces)
    value = 1.0 + prefactor * radial
    return MeanResult(value, prefactor * radial_err, BACKEND_AREA_INTEGRAL, work[0])


def radial_integral_lower(y: float, alpha: float) -> float:
    """Closed form of int_0^1 min{1, (y r)^(alpha-2)} r ln(1/r) dr.

    Exactly 1/4 for y <= 1 (the min is identically 1 there, and
    int_0^1 r ln(1/r) dr = 1/4).  For y > 1 the integral splits at
    r = 1/y, giving

        (1 + 2 ln y) / (4 y^2)
          + y^(alpha-2) * (1/alpha^2 - (1 + alpha ln y)/(alpha^2 y^alpha)),

    continuous in y across 1 and in (0, 1/4] everywhere: the integrand
    is dominated by r ln(1/r), whose integral is exactly 1/4.
    """
    y = check_radius(y)
    alpha = check_alpha(alpha, upper=2.0)
    if y == 0.0:
        raise ValueError("radial integral requires y > 0")
    if y <= 1.0:
        return 0.25
    ln_y = math.log(y)
    a2 = alpha * alpha
    # Where y^alpha would overflow (e^709.78), its term is below an ulp of 1/a2.
    y_alpha = y**alpha if alpha * ln_y < 709.0 else math.inf
    return (1.0 + 2.0 * ln_y) / (4.0 * y * y) + y ** (alpha - 2.0) * (
        1.0 / a2 - (1.0 + alpha * ln_y) / (a2 * y_alpha)
    )


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
    return 1.0 + alpha * alpha * y * y * radial_integral_lower(y, alpha)
