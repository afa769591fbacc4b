"""Low-level quadrature kernels: adaptive Gauss-Kronrod and tanh-sinh.

Two workhorses shared by the mean evaluators:

* :func:`integrate_adaptive` -- globally adaptive bisection with a 15-point
  Gauss-Kronrod rule per panel.  Kronrod nodes are strictly interior, so
  panel endpoints are never sampled; splitting an integrand at a known
  bad point keeps that point out of the evaluation set entirely.  The
  per-panel |Kronrod - Gauss| error proxy is reliable for bounded
  integrands (including Holder endpoints like x^p, p > 0); integrands
  that blow up at an endpoint belong to the tanh-sinh kernel instead.

* :func:`integrate_tanhsinh_singular` -- double-exponential rule for
  integrals over (0, W] whose integrand behaves like s^(p-1) near s = 0.
  The integrand is called with the exact distance from the singular
  endpoint (down to ~1e-300), which the caller can exploit to evaluate
  asymptotic forms without catastrophic cancellation.

Both kernels expect vectorized integrands (ndarray -> ndarray).
"""
from __future__ import annotations

import heapq
import math
import sys
from typing import Callable

import numpy as np

from .core import NumericalFailure

# 15-point Kronrod nodes on [-1, 1] (positive half) and weights, with the
# embedded 7-point Gauss weights, as tabulated for QUADPACK's QK15.
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# Full node/weight vectors in ascending order over the panel.
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])            # 15 nodes
_WK = np.concatenate([_WGK[:-1], _WGK[::-1]])                 # Kronrod weights
_WGFULL = np.zeros(15)
_WGFULL[1:15:2] = np.concatenate([_WG[:-1], _WG[::-1]])       # Gauss weights sit on odd slots

# Halvings of the tanh-sinh step after the first h = 1/2 level.
_TANHSINH_MAX_LEVEL = 12
# The first level whose change the convergence test judges; every call
# evaluates the levels up to it.
_TANHSINH_MIN_LEVEL = 3
# No tanh-sinh node lies closer to its singular endpoint: below this
# the distance s would be a subnormal double.
_S_MIN = sys.float_info.min
# c eps: the rounding of the tanh-sinh sum per unit of h width sum |w q|.
_TANHSINH_ROUNDING = 16.0 * sys.float_info.epsilon
# c eps: the rounding of a GK15 panel per unit of h sum |w_K f|.
_GK_ROUNDING = 4.0 * sys.float_info.epsilon


def _gk15(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> tuple[float, float, float]:
    """Kronrod estimate, |Kronrod - Gauss| error proxy and h sum |w_K f|
    (the scale of the panel's rounding) on one panel."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    x = c + h * _NODES
    # Rounding can push the extreme nodes onto the panel edge; keep them
    # strictly interior so split points are provably never sampled.
    np.clip(x, np.nextafter(a, b), np.nextafter(b, a), out=x)
    fx = np.asarray(f(x), dtype=float)
    k = h * float(np.dot(_WK, fx))
    g = h * float(np.dot(_WGFULL, fx))
    return k, abs(k - g), h * float(np.dot(_WK, abs(fx)))


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float,
    *,
    breakpoints: tuple[float, ...] = (),
    max_panels: int = 20_000,
) -> tuple[float, float, int]:
    """Integrate ``f`` over [a, b] to absolute tolerance ``tol``.

    ``breakpoints`` are interior abscissae used as initial panel edges
    (never sampled, since Kronrod nodes are interior).  Returns
    ``(value, error_estimate, evaluations)``.  The error estimate is the
    sum of per-panel |Kronrod - Gauss| differences, a deliberately
    conservative proxy, plus c eps h sum |w_K f| per panel, c = 4, for
    the rounding of the sums; that term is added after the ``tol``
    check, which judges the rule alone.  A scan of the circular mean's
    theta rule against 50-digit mpmath (38 000 points: alpha from 0.05
    to 2, y within 1e-12 to 1e-1 of 1 and across [0, 20], tol 1e-10 to
    1e-13) missed its estimate on 3 471 points without the term and
    needed c of at most 1.55.  Panels narrower than ~1e-14 of the domain
    are frozen rather than split further; if the estimate still exceeds
    ``tol`` once ``max_panels`` is reached, or is NaN, a
    :class:`NumericalFailure` carrying the best estimate, its error
    estimate and the work done is raised.
    """
    if not b > a:
        raise ValueError("integration interval must satisfy b > a")
    edges = [a, *sorted(p for p in breakpoints if a < p < b), b]
    width_floor = 1e-14 * (b - a)

    # Active panels live in a heap keyed by -error; panels too narrow to
    # split move to `frozen` but keep contributing value and error.
    heap: list[tuple[float, float, float, float, float]] = []  # (-err, lo, hi, val, mass)
    frozen: list[tuple[float, float, float, float]] = []        # (lo, val, err, mass)
    n_eval = 0
    for lo, hi in zip(edges[:-1], edges[1:]):
        v, e, m = _gk15(f, lo, hi)
        n_eval += 15
        heapq.heappush(heap, (-e, lo, hi, v, m))

    def current_error() -> float:
        return math.fsum(-h[0] for h in heap) + math.fsum(p[2] for p in frozen)

    err = current_error()
    while err > tol and n_eval // 15 < max_panels:
        if not heap:
            break
        neg_e, lo, hi, v, m = heapq.heappop(heap)
        if hi - lo < width_floor:
            frozen.append((lo, v, -neg_e, m))
            continue
        mid = 0.5 * (lo + hi)
        v1, e1, m1 = _gk15(f, lo, mid)
        v2, e2, m2 = _gk15(f, mid, hi)
        n_eval += 30
        heapq.heappush(heap, (-e1, lo, mid, v1, m1))
        heapq.heappush(heap, (-e2, mid, hi, v2, m2))
        err = err + neg_e + e1 + e2

    err = current_error()
    # Exact panel-sum in spatial order keeps rounding noise at a few ulps.
    ordered = sorted([(h[1], h[3]) for h in heap] + [(p[0], p[1]) for p in frozen])
    value = math.fsum(v for _, v in ordered)
    # `not err <= tol` also catches a NaN estimate.
    if not err <= tol:
        raise NumericalFailure(
            f"adaptive quadrature did not reach tol={tol:g} (error ~{err:.3g})",
            best_estimate=value, error_estimate=err, work=n_eval,
        )
    mass = math.fsum(h[4] for h in heap) + math.fsum(p[3] for p in frozen)
    return value, err + _GK_ROUNDING * mass, n_eval


def integrate_tanhsinh_singular(
    q: Callable[[np.ndarray], np.ndarray],
    width: float,
    strength: float,
    tol: float,
) -> tuple[float, float, int]:
    """Integrate ``q`` over (0, width] with an s^(strength-1) endpoint.

    ``q`` receives exact distances ``s`` from the singular endpoint, all
    normal doubles (at least ``sys.float_info.min``), and must be
    vectorized.  It may return a pair (values, bounds on their
    errors) instead of the values: the rule's sum of the bounds is then
    added to the returned error estimate, after the ``tol`` check, which
    judges the rule alone.  So is c eps h width sum |w q| over the final
    rule's nodes, c = 16, for the rounding of the sum: a scan of
    int_0^width s^(p-1) ds against mpmath (p from 0.01 to 2, width from
    1e-3 to pi, tol from 1e-14 to 1e-3 of the value) needed c of at most
    5.7, at p near 0.06.  ``strength`` > 0 controls how far into the
    double-exponential tail the rule reaches before transformed terms
    drop below ~1e-16 relative.  Below strength ~0.05 that reach passes
    the smallest normal double; the nodes beyond it are dropped, and
    the mass of s^(strength-1) they would have carried,
    |q(s0)| s0/strength at s0 = ``sys.float_info.min``, joins the error
    estimate before the ``tol`` check.  The step is halved at most 12
    times from h = 1/2.  Returns (value, error_estimate, evaluations);
    an error estimate above ``tol``, or NaN, raises
    :class:`~circmeans.core.NumericalFailure` with the best estimate.

    Convergence is judged from level 3 (h = 1/16) on, so every call
    evaluates levels 0-3: their nodes, after the probe at the smallest
    normal s where there is one, go to ``q`` in one call, and each later
    level's in one call of its own.  Each level is summed from its own
    slice, so the value, estimate and evaluation count equal those of
    one call per level for any ``q`` whose output does not depend on
    the batch it is given.
    """
    if width <= 0.0:
        return 0.0, 0.0, 0
    # Terms decay like exp(-pi*sinh(t)*strength); pick t_max so the last
    # term is negligible, with a floor for the smooth part of q.
    t_max = max(3.2, math.asinh(38.0 / (math.pi * min(max(strength, 1e-3), 2.0))))

    def level_nodes(h: float, only_odd: bool) -> tuple[np.ndarray, np.ndarray]:
        kmax = int(math.floor(t_max / h))
        ks = np.arange(-kmax, kmax + 1)
        if only_odd:
            ks = ks[ks % 2 != 0]
        tau = ks * h
        x = math.pi * np.sinh(tau)
        # d = 1/(1 + e^x) without overflow on either side; the weight
        # e^x/(1+e^x)^2 is symmetric in x -> -x, so |x| suffices there.
        ex = np.exp(-np.abs(x))
        d = np.where(x >= 0.0, ex / (1.0 + ex), 1.0 / (1.0 + ex))
        w = math.pi * np.cosh(tau) * ex / (1.0 + ex) ** 2
        s = width * d
        # d > 0 is not enough: width * d can fall below a normal double.
        good = (s >= _S_MIN) & (w > 0.0)
        return s[good], w[good]

    def level_sum(h: float, w: np.ndarray, vals: np.ndarray,
                  bounds: np.ndarray | None) -> tuple[float, float, float]:
        wq = w * vals
        value = h * width * float(np.sum(wq))
        bound = 0.0 if bounds is None else h * width * float(np.dot(w, bounds))
        return value, bound, h * width * float(np.abs(wq).sum())

    def evaluate(s: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        out = q(s)
        vals, bounds = out if isinstance(out, tuple) else (out, None)
        return (np.asarray(vals, dtype=float),
                None if bounds is None else np.asarray(bounds, dtype=float))

    # Levels 0 to _TANHSINH_MIN_LEVEL always run, so their nodes go to q in
    # one call, after the probe below where there is one.
    steps = [0.5 ** (level + 1) for level in range(_TANHSINH_MIN_LEVEL + 1)]
    grids = [level_nodes(h, only_odd=level > 0) for level, h in enumerate(steps)]
    # Where the design reach width * d(t_max) passes the smallest normal
    # s, the mass below it is left out: s^(strength-1) puts q(s) s/strength there.
    probe = width * math.exp(-math.pi * math.sinh(t_max)) < _S_MIN
    batch = [np.array([_S_MIN])] if probe else []
    vals, bounds = evaluate(np.concatenate(batch + [s for s, _ in grids]))
    omitted = abs(float(vals[0])) * _S_MIN / strength if probe else 0.0
    n_eval = vals.size
    first = []
    at = int(probe)
    for h, (s, w) in zip(steps, grids):
        part = slice(at, at + s.size)
        first.append(level_sum(h, w, vals[part], None if bounds is None else bounds[part]))
        at += s.size

    total, bound, mass = first[0]
    h = 0.5
    prev = math.inf
    for level in range(1, _TANHSINH_MAX_LEVEL + 1):
        h *= 0.5
        if level <= _TANHSINH_MIN_LEVEL:
            add, add_bound, add_mass = first[level]
        else:
            s, w = level_nodes(h, only_odd=True)
            add, add_bound, add_mass = level_sum(h, w, *evaluate(s))
            n_eval += s.size
        new_total = 0.5 * total + add
        bound = 0.5 * bound + add_bound
        mass = 0.5 * mass + add_mass
        change = abs(new_total - total)
        if level >= _TANHSINH_MIN_LEVEL and change <= tol and abs(total - prev) <= 16.0 * tol:
            total, err = new_total, max(change, 1e-16 * abs(new_total))
            break
        prev = total
        total = new_total
    else:
        err = abs(total - prev)
    err += omitted
    if not err <= tol:
        raise NumericalFailure(
            f"tanh-sinh rule did not reach tol={tol:g} (error ~{err:.3g})",
            best_estimate=total, error_estimate=err, work=n_eval,
        )
    return total, err + bound + _TANHSINH_ROUNDING * mass, n_eval
