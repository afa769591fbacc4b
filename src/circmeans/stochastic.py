"""Monte Carlo cross-checks of the area-integral representation.

Two stochastic backends estimate the same quantity as
:func:`~circmeans.disk.area_integral_mean`, by entirely different
mechanisms:

* :func:`mc_area_mean` samples points in the unit disk from the density
  proportional to the disk's Green function with pole 0 (radial density
  4 r ln(1/r), uniform angle) and averages |1 + y z|^(alpha-2).  Since
  the Green function integrates to 1/2 over the disk, the estimator is

      1 + (alpha^2 y^2 / 4) * average.

* :func:`occupation_time_mc` runs Euler-discretized planar Brownian
  paths from the origin to their first exit from the disk and
  accumulates the occupation-time functional
  int_0^tau |1 + y B_s|^(alpha-2) ds by left-endpoint sums, estimating

      1 + (alpha^2 y^2 / 2) * E[functional].

  Each 2-D increment is drawn exactly by Box-Muller from one uniform
  pair (Box & Muller 1958).  Only the live paths are stepped, in
  contiguous arrays compacted by a boolean mask as paths exit.  Once few
  paths are live, several steps are drawn and taken in one block of about
  4096 increments, so the per-step call overhead does not dominate the
  tail; the estimate reports its ``discarded`` paths and its
  ``path_steps``.  Discrete monitoring exits
  late, so the estimate carries an O(sqrt(dt)) upward bias;
  :func:`occupation_bias_allowance` quantifies the calibrated allowance
  that statistical gates should add.

For alpha <= 1 and y >= 1 the squared integrand has a non-integrable
singularity at z = -1/y (local exponent 2(alpha-2) <= -2), so the sample
variance is infinite: estimates still converge in probability but their
stderr is unreliable.  Such estimates are flagged via
``variance_warning`` and excluded from statistical gates, rather than
patched with a biasing truncation.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import McEstimate, NumericalFailure, check_alpha, check_radius, rng_from_seed
from .disk import inner_mean

# Upward bias of discretized exit functionals is ~ BIAS_COEFF * sqrt(dt)
# per unit of boundary-mean integrand.  A Richardson pair of exit-time
# runs at dt = 1e-3 / 1e-4 gives coefficients 0.55-0.75 around the
# boundary-shift constant ~0.5826; rounded up to absorb the error of the
# boundary-mean approximation for non-constant integrands.
EXIT_BIAS_COEFF = 0.9

# Fraction of non-exited paths above which the run is rejected.
_MAX_DISCARD_FRACTION = 1e-3

_TWO_PI_F32 = np.float32(2.0 * math.pi)

# Elements drawn per block of steps in occupation_time_mc.  With k live
# paths, b = max(1, _BLOCK_ELEMS // k) steps are drawn and taken at once, so
# the fixed cost of a step's numpy calls (20-50 us) is paid once a block,
# not once a step; that cost dominates once k falls to a few hundred.  4096
# float64 elements are 32 KB an array, so a block's working arrays stay in
# cache: 8192 measured no faster.
_BLOCK_ELEMS = 4096


def _check_count(name: str, value) -> int:
    """``value`` as an int; bools, floats and other non-integers raise ValueError."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class PathConfig:
    """Euler discretization parameters for exit-time simulations.

    ``max_steps * dt`` must be comfortably larger than typical exit
    times (mean 1/2): with the default 8/dt steps the probability that a
    path fails to exit is below 1e-6, so discards stay far under the
    rejection threshold.
    """

    dt: float = 1e-3
    max_steps: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.dt) and 0.0 < self.dt <= 1e-3):
            raise ValueError(f"dt must lie in (0, 1e-3], got {self.dt!r}")
        if self.max_steps is not None and _check_count("max_steps", self.max_steps) < 1:
            raise ValueError("max_steps must be a positive integer")

    @property
    def steps_budget(self) -> int:
        if self.max_steps is not None:
            return int(self.max_steps)
        return int(round(8.0 / self.dt))


def variance_flag(y: float, alpha: float) -> bool:
    """True when the Green-sampled integrand has infinite variance."""
    return alpha <= 1.0 and y >= 1.0


def green_radius_cdf(r: np.ndarray) -> np.ndarray:
    """CDF of the radial density 4 r ln(1/r) on (0, 1): r^2 (1 - 2 ln r)."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    pos = (r > 0.0) & (r < 1.0)
    out[pos] = r[pos] ** 2 * (1.0 - 2.0 * np.log(r[pos]))
    out[r >= 1.0] = 1.0
    return out


def sample_green_points(rng: np.random.Generator, n: int) -> np.ndarray:
    """n independent complex points from the normalized Green density.

    Radius sqrt(U1 U2) for independent uniforms: the product U1 U2 has
    density -ln p on (0, 1), so the radius has the CDF r^2 (1 - 2 ln r)
    exactly (Devroye 1986); angle uniform on [0, 2pi).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    radii = np.sqrt(rng.random(n) * rng.random(n))
    angles = rng.uniform(0.0, 2.0 * math.pi, n)
    return radii * np.exp(1j * angles)


def mc_area_mean(y: float, alpha: float, n: int, rng: np.random.Generator) -> McEstimate:
    """Monte Carlo estimate of the mean via Green-density sampling.

    Per-sample estimates are 1 + (alpha^2 y^2/4) |1 + y z_i|^(alpha-2);
    the reported stderr is their sample standard deviation over sqrt(n).
    In the infinite-variance regime (alpha <= 1 and y >= 1) the estimate
    is still returned but flagged.
    """
    y = check_radius(y)
    alpha = check_alpha(alpha, upper=2.0)
    n = _check_count("n", n)
    if n < 1_000:
        raise ValueError("n must be at least 1000")
    z = sample_green_points(rng, n)
    w = np.abs(1.0 + y * z)
    scale = 0.25 * alpha * alpha * y * y
    samples = 1.0 + scale * w ** (alpha - 2.0)
    mean = float(np.mean(samples))
    stderr = float(np.std(samples, ddof=1) / math.sqrt(n))
    return McEstimate(mean, stderr, n, variance_flag(y, alpha))


def _gaussian_increments(rng: np.random.Generator, k: int, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """k independent N(0, dt I) increments in the plane, by Box-Muller.

    Radius sqrt(-2 dt ln(1 - U)) from a float64 uniform U, so R^2/(2 dt)
    is Exp(1); angle 2 pi V from a float32 uniform V, with float32 cos and
    sin.  The pair is exactly Gaussian up to the 2^-24 angle grid and the
    tail cut at 8.6 sigma that the 2^-53 grid of U imposes.
    """
    r = rng.random(k)
    np.negative(r, out=r)
    np.log1p(r, out=r)
    r *= -2.0 * dt
    np.sqrt(r, out=r)
    theta = rng.random(k, dtype=np.float32)
    theta *= _TWO_PI_F32
    return r * np.cos(theta), r * np.sin(theta)


def _running_sums(start: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Rows start, start + rows[0], (start + rows[0]) + rows[1], ...

    The sums that adding one row at a time forms, in that order.
    """
    out = np.empty((rows.shape[0] + 1, start.size))
    out[0] = start
    out[1:] = rows
    np.cumsum(out, axis=0, out=out)
    return out


def occupation_time_mc(y: float, alpha: float, cfg: PathConfig, n: int) -> McEstimate:
    """Occupation-time estimate along Euler-discretized Brownian paths.

    Each path starts at the origin, advances by N(0, dt) increments per
    coordinate, and stops at its first sample outside the unit disk; the
    integrand is accumulated at left endpoints.  Only live paths are
    stepped: their coordinates, sums and original indices sit in
    contiguous arrays kept in path order, and one boolean mask drops the
    paths that exit.  With k live paths, b = max(1, 4096 // k) steps (never
    past the budget) are drawn in one call, step-major, and taken at once
    by cumulative sums in the step loop's order; a path that exits inside a
    block stops there and the rest of its increments are dropped.  Paths
    that fail to exit within the step budget are discarded; more than 0.1%
    discards aborts the run.  The estimate reports ``discarded`` and
    ``path_steps``, the steps paths took (one Box-Muller uniform pair each,
    not counting the dropped draws).  Identical (cfg, n) always produce
    the same estimate.
    """
    y = check_radius(y)
    alpha = check_alpha(alpha, upper=2.0)
    n = _check_count("n", n)
    if n < 1_000:
        raise ValueError("n must be at least 1000")
    rng = rng_from_seed(cfg.seed)
    dt = cfg.dt
    budget = cfg.steps_budget
    const_integrand = alpha == 2.0

    def occupation(xs, vs):
        """dt times the integrand at each position (left endpoints)."""
        if const_integrand:
            return np.full(xs.shape, dt)
        w2 = (1.0 + y * xs) ** 2 + (y * vs) ** 2
        return dt * w2 ** (0.5 * alpha - 1.0)

    x = np.zeros(n)             # live paths' coordinates
    v = np.zeros(n)
    acc = np.zeros(n)           # their occupation sums
    ids = np.arange(n)          # their indices among the n paths
    totals = np.full(n, math.nan)
    path_steps = 0
    steps = 0
    while ids.size and steps < budget:
        k = ids.size
        b = min(budget - steps, max(1, _BLOCK_ELEMS // k))
        steps += b
        dx, dv = _gaussian_increments(rng, b * k, dt)
        if b == 1:
            # The block code below gives the same numbers at b = 1, but its
            # two-row running sums, exit-row search and fancy indexing made
            # the four mc cross-check rows at n = 1e4 about 2.5x slower
            # (0.65-0.92 s against 1.75-2.07 s in all, and 6.5-7.2 s against
            # 17.3-19.3 s at n = 1e5), since most path-steps have k >= 4096.
            path_steps += k
            acc += occupation(x, v)
            x += dx
            v += dv
            exited = x ** 2 + v ** 2 > 1.0
            if exited.any():
                totals[ids[exited]] = acc[exited]
                live = ~exited
                x, v, acc, ids = x[live], v[live], acc[live], ids[live]
            continue
        # Row j of xs, vs and sums holds the live paths before step j of
        # the block, each summed one step at a time as the b = 1 step does.
        xs = _running_sums(x, dx.reshape(b, k))
        vs = _running_sums(v, dv.reshape(b, k))
        sums = _running_sums(acc, occupation(xs[:-1], vs[:-1]))
        outside = xs[1:] ** 2 + vs[1:] ** 2 > 1.0
        exited = outside.any(axis=0)
        out = np.flatnonzero(exited)
        taken = outside[:, out].argmax(axis=0) + 1     # steps each exiting path took
        path_steps += b * (k - out.size) + int(taken.sum())
        totals[ids[out]] = sums[taken, out]
        live = ~exited
        x, v, acc, ids = xs[b][live], vs[b][live], sums[b][live], ids[live]
    discarded = ids.size
    if discarded > _MAX_DISCARD_FRACTION * n:
        raise NumericalFailure(
            f"{discarded} of {n} paths failed to exit within {budget} steps",
            best_estimate=math.nan,
        )
    finished = totals[~np.isnan(totals)]
    scale = 0.5 * alpha * alpha * y * y
    samples = 1.0 + scale * finished
    mean = float(np.mean(samples))
    stderr = float(np.std(samples, ddof=1) / math.sqrt(samples.size))
    return McEstimate(mean, stderr, int(samples.size), variance_flag(y, alpha),
                      discarded=discarded, path_steps=path_steps)


def occupation_bias_allowance(y: float, alpha: float, dt: float) -> float:
    """Additive allowance for the upward discretization bias.

    The extra occupation time ~ EXIT_BIAS_COEFF * sqrt(dt) is spent near
    the exit point, which is uniformly distributed on the circle, so the
    induced bias on the estimate is approximately

        (alpha^2 y^2 / 2) * boundary_mean * EXIT_BIAS_COEFF * sqrt(dt)

    with boundary_mean the circular mean of |1 + y*zeta|^(alpha-2).  In
    the infinite-variance regime the boundary mean may diverge and the
    allowance is +inf (such rows are excluded from gates anyway).
    """
    y = check_radius(y)
    alpha = check_alpha(alpha, upper=2.0)
    if variance_flag(y, alpha):
        return math.inf
    if y == 0.0:
        return 0.0
    boundary_mean = float(inner_mean(np.array([y]), alpha)[0])
    return 0.5 * alpha * alpha * y * y * boundary_mean * EXIT_BIAS_COEFF * math.sqrt(dt)
