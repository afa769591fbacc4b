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
  pair (Box & Muller 1958).  Paths are stepped in contiguous slot arrays;
  a path that exits is frozen in its slot (x = NaN) and the arrays are
  compacted by one boolean mask only once frozen slots exceed 1/16 of
  them.  Frozen slots still draw, and those draws are not path-steps.
  Once at most 4096 paths are live, at least 2 steps are drawn and taken
  in one block of about 8192 increments, so the per-step call overhead
  is paid once a block; the estimate reports its ``discarded``
  paths and its ``path_steps``.  From n = 10000 on, the paths run in
  n // 5000 chunks (at most 16), chunk i from stream i of the seed, and
  the chunks run across worker processes forked for the call, one per
  usable CPU; the estimate depends on the seed and n alone, never on the
  number of workers.  Discrete monitoring exits late, so the
  estimate carries an O(sqrt(dt)) upward bias;
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

import ctypes
import math
import os
import pickle
import signal
import threading
from dataclasses import dataclass

import numpy as np

from .core import (
    McEstimate,
    NumericalFailure,
    check_alpha,
    check_integer,
    check_radius,
    rng_from_seed,
)
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
# paths, b = _BLOCK_ELEMS // k steps are drawn and taken at once when b is
# at least _MIN_BLOCK, so the fixed cost of a step's numpy calls (about 26
# calls, 17-28 us) is paid once a block, not once a step: from 4096 live
# paths down.  8192 float64 elements are 64 KB an array; 4096 and 16384
# measured no faster, nor did freezing exited paths inside blocks instead
# of compacting before each one.
_BLOCK_ELEMS = 8192
_MIN_BLOCK = 2
# _running_sums adds one row at a time from this many columns up: 1.5 ns
# an element at b = 2, k = 4096, where numpy's cumsum along the short step
# axis costs 13.  The two are even at k = 192, b = 42 (4.7 ns); at k = 64,
# b = 128 the loop's 128 calls cost 15 ns an element against cumsum's 4.5.
_ROW_SUM_MIN = 256

# occupation_time_mc runs its n paths in max(1, min(16, n // 5000))
# chunks, each from its own stream of the seed.  Chunks of 5000 paths or
# more hold a chunk's fixed cost (at dt = 1e-3 about 20 ms a chunk against
# 15 us a path, fitted over 500-20000 paths) to a fifth of its time or
# less; 16 chunks share out n = 1e6 evenly over 2, 4, 8 or 16 workers.
_CHUNK_PATHS = 5_000
_MAX_CHUNKS = 16


@dataclass(frozen=True)
class PathConfig:
    """Euler discretization parameters for exit-time simulations.

    ``max_steps * dt`` must be comfortably larger than typical exit
    times (mean 1/2): with the default 8/dt steps the probability that a
    path fails to exit is below 1e-6, so discards stay far under the
    rejection threshold.  ``max_steps`` and ``seed`` must be integers
    (Python or numpy; floats, bools and strings raise ValueError).
    """

    dt: float = 1e-3
    max_steps: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.dt) and 0.0 < self.dt <= 1e-3):
            raise ValueError(f"dt must lie in (0, 1e-3], got {self.dt!r}")
        if self.max_steps is not None and check_integer("max_steps", self.max_steps) < 1:
            raise ValueError("max_steps must be a positive integer")
        check_integer("seed", self.seed)

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
    n = check_integer("n", n)
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
    np.subtract(1.0, r, out=r)      # exact on the 2^-53 grid of U
    np.log(r, out=r)
    r *= -2.0 * dt
    np.sqrt(r, out=r)
    theta = rng.random(k, dtype=np.float32)
    theta *= _TWO_PI_F32
    dx = r * np.cos(theta)
    return dx, np.multiply(r, np.sin(theta), out=r)


def _running_sums(start: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Rows start, start + rows[0], (start + rows[0]) + rows[1], ...

    The sums that adding one row at a time forms, in that order: by one
    np.add a row from _ROW_SUM_MIN columns up, else by cumsum down the rows.
    """
    out = np.empty((rows.shape[0] + 1, start.size))
    out[0] = start
    if start.size >= _ROW_SUM_MIN:
        for j in range(rows.shape[0]):
            np.add(out[j], rows[j], out=out[j + 1])
    else:
        out[1:] = rows
        np.cumsum(out, axis=0, out=out)
    return out


def _occupation_chunk(y: float, alpha: float, dt: float, budget: int, seed: int,
                      chunk: int, m: int) -> tuple[np.ndarray, int, int]:
    """Steps m paths from the origin, drawing from ``rng_from_seed(seed, chunk)``.

    Returns ``(totals, path_steps, discarded)``: the paths' integrand sums,
    not yet scaled by dt, in path order and NaN for the ``discarded`` paths
    still inside after ``budget`` steps, and the steps live paths took.
    :func:`occupation_time_mc` describes the slot schedule.
    """
    rng = rng_from_seed(seed, chunk)
    power = 0.5 * alpha - 1.0

    def integrand(xs, vs):
        """|1 + y z|^(alpha - 2) at each position z = x + iv."""
        if power == 0.0:
            return np.ones(xs.shape)
        w2 = (1.0 + y * xs) ** 2 + (y * vs) ** 2
        np.log(w2, out=w2)
        w2 *= power
        return np.exp(w2, out=w2)

    x = np.zeros(m)             # the slots' coordinates (NaN once frozen)
    v = np.zeros(m)
    acc = np.zeros(m)           # their integrand sums
    ids = np.arange(m)          # their indices among the m paths
    frozen = 0                  # slots of exited paths not yet compacted
    totals = np.full(m, math.nan)
    path_steps = 0
    steps = 0
    while steps < budget and ids.size > frozen:
        k = ids.size
        live = k - frozen
        block = _BLOCK_ELEMS // live >= _MIN_BLOCK
        if frozen and (block or frozen * 16 > k):
            keep = ~np.isnan(x)
            x, v, acc, ids = x[keep], v[keep], acc[keep], ids[keep]
            k, frozen = live, 0
        if not block:
            steps += 1
            path_steps += live
            dx, dv = _gaussian_increments(rng, k, dt)
            acc += integrand(x, v)
            x += dx
            v += dv
            out = np.flatnonzero(x ** 2 + v ** 2 > 1.0)
            if out.size:
                totals[ids[out]] = acc[out]
                x[out] = math.nan
                frozen += out.size
            continue
        # The block code gives the same numbers for single steps, but taking
        # the steps at k > 4096 as one-step blocks, with exited paths frozen
        # in place, made the four mc cross-check rows slower in 7 of 8 runs.
        b = min(budget - steps, _BLOCK_ELEMS // k)
        steps += b
        dx, dv = _gaussian_increments(rng, b * k, dt)
        # Row j of xs, vs and sums holds the live paths before step j of
        # the block, each summed one step at a time as a single step does.
        xs = _running_sums(x, dx.reshape(b, k))
        vs = _running_sums(v, dv.reshape(b, k))
        sums = _running_sums(acc, integrand(xs[:-1], vs[:-1]))
        outside = xs[1:] ** 2 + vs[1:] ** 2 > 1.0
        exited = outside.any(axis=0)
        out = np.flatnonzero(exited)
        taken = outside[:, out].argmax(axis=0) + 1     # steps each exiting path took
        path_steps += b * (k - out.size) + int(taken.sum())
        totals[ids[out]] = sums[taken, out]
        keep = ~exited
        x, v, acc, ids = xs[b][keep], vs[b][keep], sums[b][keep], ids[keep]
    return totals, path_steps, ids.size - frozen


def _chunk_sizes(n: int) -> list[int]:
    """Path counts of the chunks of an n-path run; n alone fixes them."""
    c = max(1, min(_MAX_CHUNKS, n // _CHUNK_PATHS))
    q, r = divmod(n, c)
    return [q + 1] * r + [q] * (c - r)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity query on this platform
        return os.cpu_count() or 1


_PR_SET_PDEATHSIG = 1       # from <linux/prctl.h>


def _end_with_parent(parent: int) -> None:
    """In a chunk worker: on Linux, the worker is killed when its parent
    dies, so a caller killed by a signal leaves no worker running."""
    try:
        ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    except (OSError, AttributeError):   # no prctl on this platform
        return
    if os.getppid() != parent:          # the parent died before prctl
        os._exit(1)


def _work_and_exit(parent: int, args: list[tuple], fd: int, read_ends: list[int]) -> None:
    """In a forked worker: pickles the chunks' results, or their exception,
    to ``fd`` and ends by ``os._exit``, never flushing the caller's stdio.
    Closes ``read_ends`` first, so a write that no reader can see fails."""
    code = 1
    try:
        _end_with_parent(parent)
        for r in read_ends:
            os.close(r)
        try:
            out = [_occupation_chunk(*a) for a in args]
        except Exception as exc:
            out = exc
        with open(fd, "wb") as fh:
            pickle.dump(out, fh)
        code = 0
    finally:
        os._exit(code)


def _run_chunks(args: list[tuple]) -> list[tuple[np.ndarray, int, int]]:
    """``_occupation_chunk(*a)`` for each a, in order, on w processes.

    With w = min(len(args), usable CPUs), w - 1 children are forked and
    child j runs ``args[j::w]`` while the caller runs ``args[0::w]``.
    Every child is reaped before this returns or raises.  In-process when
    w < 2, where fork is not available, and off the main thread: forking
    a process whose other threads may hold a lock can deadlock the child.
    """
    w = min(len(args), _usable_cpus())
    if w < 2 or not hasattr(os, "fork") or threading.current_thread() is not threading.main_thread():
        return [_occupation_chunk(*a) for a in args]
    parent = os.getpid()
    children = []               # [pid, read end of its pipe], pid None once reaped
    try:
        for j in range(1, w):
            read_end, write_end = os.pipe()
            children.append([None, read_end])
            try:
                children[-1][0] = pid = os.fork()
                if pid == 0:
                    _work_and_exit(parent, args[j::w], write_end, [r for _, r in children])
            finally:
                os.close(write_end)     # else later children hold it and EOF never comes
        shares = [[_occupation_chunk(*a) for a in args[0::w]]]
        for child in children:
            with open(child[1], "rb", closefd=False) as fh:
                data = fh.read()
            pid, child[0] = child[0], None
            if status := os.waitpid(pid, 0)[1]:
                raise RuntimeError(f"chunk worker {pid} ended without a result (wait status {status})")
            out = pickle.loads(data)
            if isinstance(out, BaseException):
                raise out
            shares.append(out)
    finally:
        for pid, read_end in children:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            os.close(read_end)
    return [shares[i % w][i // w] for i in range(len(args))]


def occupation_time_mc(y: float, alpha: float, cfg: PathConfig, n: int) -> McEstimate:
    """Occupation-time estimate along Euler-discretized Brownian paths.

    The n paths are split into c = n // 5000 chunks, at least 1 and at
    most 16, the first n % c of them one path larger; chunk i draws from
    ``rng_from_seed(cfg.seed, i)``, so chunk 0 of a run with n < 10000 is
    the whole run.  The chunks run on w = min(c, usable CPUs) processes
    (the process's CPU affinity): the caller and w - 1 workers forked for
    this call and reaped before it returns.  They run in-process when
    w < 2, off the main thread or without fork.  Their sums are joined in
    chunk order before the discard rule, the mean and the stderr apply to
    all n paths, so the estimate depends on (cfg, n) alone, never on w.

    Each path starts at the origin, advances by N(0, dt) increments per
    coordinate, and stops at its first sample outside the unit disk; the
    integrand is summed at left endpoints and the sums are scaled by dt at
    the end.  Paths sit in contiguous slot arrays (coordinates, sums and
    original indices) kept in path order.  A single step draws and steps
    every slot; a path that exits is frozen in its slot by x = NaN, which
    no later step moves back inside the disk, and one boolean mask drops
    the frozen slots once they exceed 1/16 of all slots, and before any
    block.  With k live paths and b = 8192 // k >= 2, b steps (never past
    the budget) are drawn in one call, step-major, and taken at once by
    running sums in the step loop's order; a path that exits inside a
    block stops there and the rest of its increments are dropped.  Paths
    that fail to exit within the step budget are discarded; more than 0.1%
    discards aborts the run.  The estimate reports ``discarded`` and
    ``path_steps``, the steps live paths took (one Box-Muller uniform pair
    each, not counting the draws of frozen slots or the dropped draws),
    summed over the chunks.
    """
    y = check_radius(y)
    alpha = check_alpha(alpha, upper=2.0)
    n = check_integer("n", n)
    if n < 1_000:
        raise ValueError("n must be at least 1000")
    budget = cfg.steps_budget
    chunks = _run_chunks([(y, alpha, cfg.dt, budget, cfg.seed, i, m)
                          for i, m in enumerate(_chunk_sizes(n))])
    totals = np.concatenate([t for t, _, _ in chunks])
    path_steps = sum(s for _, s, _ in chunks)
    discarded = sum(d for _, _, d in chunks)
    if discarded > _MAX_DISCARD_FRACTION * n:
        raise NumericalFailure(
            f"{discarded} of {n} paths failed to exit within {budget} steps",
            best_estimate=math.nan,
        )
    finished = totals[~np.isnan(totals)]
    scale = 0.5 * alpha * alpha * y * y * cfg.dt
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
