"""The block-stepped live-path loop of ``occupation_time_mc`` against a
one-step-at-a-time fancy-index oracle, and its discard and path-step counts.

``indexed_occupation_time_mc`` below keeps all n positions in one (n, 2)
array and gathers and scatters the live ones through an index array.  It
draws each block of increments through the same Box-Muller helper with the
same block-size rule, then advances one step at a time through the
block's rows, dropping the increments of paths that exit inside the block.
It does the same arithmetic on each path in the same order, so the
estimates must be equal, not merely close.
"""
import math

import numpy as np
import pytest

import circmeans.stochastic as stochastic
from circmeans.core import McEstimate, NumericalFailure, check_alpha, check_radius, rng_from_seed
from circmeans.stochastic import (
    _BLOCK_ELEMS, PathConfig, _gaussian_increments, occupation_time_mc, variance_flag)


def indexed_occupation_time_mc(y, alpha, cfg, n, blocks=None):
    """The estimate, stepping one step at a time; appends each block's
    (steps, live paths) to ``blocks`` when given."""
    y = check_radius(y)
    alpha = check_alpha(alpha, upper=2.0)
    rng = rng_from_seed(cfg.seed)
    dt = cfg.dt
    budget = cfg.steps_budget
    const_integrand = alpha == 2.0

    pos = np.zeros((n, 2))
    acc = np.zeros(n)
    idx = np.arange(n)
    totals = np.full(n, math.nan)
    path_steps = 0
    steps = 0
    while idx.size and steps < budget:
        k = idx.size
        b = min(budget - steps, max(1, _BLOCK_ELEMS // k))
        steps += b
        if blocks is not None:
            blocks.append((b, k))
        dx, dv = _gaussian_increments(rng, b * k, dt)
        rows = np.stack((dx.reshape(b, k), dv.reshape(b, k)), axis=-1)
        col = np.arange(k)      # the live paths' columns in this block's rows
        for j in range(b):
            if idx.size == 0:
                break
            path_steps += idx.size
            if const_integrand:
                acc[idx] += dt
            else:
                w2 = (1.0 + y * pos[idx, 0]) ** 2 + (y * pos[idx, 1]) ** 2
                acc[idx] += dt * w2 ** (0.5 * alpha - 1.0)
            pos[idx] += rows[j, col]
            r2 = pos[idx, 0] ** 2 + pos[idx, 1] ** 2
            exited = r2 > 1.0
            if np.any(exited):
                done = idx[exited]
                totals[done] = acc[done]
                idx, col = idx[~exited], col[~exited]
    discarded = idx.size
    if discarded > 1e-3 * n:
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


def fields(est):
    return (est.mean, est.stderr, est.n, est.variance_warning, est.discarded, est.path_steps)


def assert_same_estimate(y, alpha, cfg, n, blocks=None):
    new = occupation_time_mc(y, alpha, cfg, n)
    old = indexed_occupation_time_mc(y, alpha, cfg, n, blocks)
    assert fields(new) == fields(old)
    assert new.discarded == n - new.n
    return new


# (y, alpha): the constant integrand, the origin, and a grid of radii
# inside and outside the disk against exponents below and above 1.
CASES = [(1.0, 2.0), (0.0, 1.0), (0.0, 2.0)] + [
    (y, alpha) for y in (0.5, 2.0, 3.0) for alpha in (0.5, 1.5, 1.9)]


class CountingGenerator:
    """Delegates to a Generator and counts the uniforms drawn, by dtype."""

    def __init__(self, rng):
        self._rng = rng
        self.uniforms = {"float64": 0, "float32": 0}

    def random(self, size, dtype=np.float64):
        out = self._rng.random(size, dtype=dtype)
        self.uniforms[out.dtype.name] += out.size
        return out


class TestLivePathLoopExact:
    @pytest.mark.parametrize("y, alpha", CASES)
    def test_cases_at_dt_1e3(self, y, alpha):
        seed = 500 + CASES.index((y, alpha))
        assert_same_estimate(y, alpha, PathConfig(dt=1e-3, seed=seed), 1_000)

    @pytest.mark.parametrize("y, alpha", [(1.0, 2.0), (2.0, 0.5)])
    def test_dt_1e4(self, y, alpha):
        assert_same_estimate(y, alpha, PathConfig(dt=1e-4, seed=41), 1_000)

    def test_seed_near_two_to_the_63(self):
        assert_same_estimate(0.5, 1.5, PathConfig(dt=1e-3, seed=2**63 - 5), 1_000)
        assert_same_estimate(0.5, 1.5, PathConfig(dt=1e-3, seed=2**63 + 5), 1_000)

    def test_accepted_discards(self):
        # At seed 63, 4 of 5000 paths are still inside after 2600 steps,
        # under the limit of 5.
        est = assert_same_estimate(0.5, 1.5, PathConfig(dt=1e-3, max_steps=2600, seed=63), 5_000)
        assert est.discarded == 4

    def test_budget_ends_inside_a_tail_block(self):
        # At seed 61 the budget of 2850 steps cuts the last block, of 3
        # live paths, to 501 steps, and the last path exits inside it.
        blocks = []
        est = assert_same_estimate(0.5, 1.5, PathConfig(dt=1e-3, max_steps=2850, seed=61), 1_000, blocks)
        last_b, last_k = blocks[-1]
        assert sum(b for b, _ in blocks) == 2850
        assert 1 < last_b < _BLOCK_ELEMS // last_k
        assert est.discarded == 0

    def test_rejected_discards_same_message(self):
        # At seed 62, 3 of 1000 paths are still inside after 2160 steps; the limit is 1.
        cfg = PathConfig(dt=1e-3, max_steps=2160, seed=62)
        with pytest.raises(NumericalFailure) as old:
            indexed_occupation_time_mc(0.5, 1.5, cfg, 1_000)
        with pytest.raises(NumericalFailure) as new:
            occupation_time_mc(0.5, 1.5, cfg, 1_000)
        assert str(new.value) == str(old.value) == "3 of 1000 paths failed to exit within 2160 steps"
        assert math.isnan(new.value.best_estimate)


class TestDiscardAndStepCounts:
    def test_one_discard_accepted_and_steps_counted(self, monkeypatch):
        # At seed 61 exactly one of 1000 paths is still inside after 2800 steps.
        cfg = PathConfig(dt=1e-3, max_steps=2800, seed=61)
        oracle = indexed_occupation_time_mc(0.5, 1.5, cfg, 1_000)
        drawn = []

        def counting_rng(seed, stream=0):
            drawn.append(CountingGenerator(rng_from_seed(seed, stream)))
            return drawn[-1]

        monkeypatch.setattr(stochastic, "rng_from_seed", counting_rng)
        est = occupation_time_mc(0.5, 1.5, cfg, 1_000)
        assert est.discarded == 1_000 - est.n == 1
        assert est.path_steps == oracle.path_steps
        assert est.path_steps > 2800 * est.discarded
        # One uniform pair a step taken, plus the pairs dropped after
        # exits inside a block.
        assert len(drawn) == 1
        assert drawn[0].uniforms["float64"] == drawn[0].uniforms["float32"] >= est.path_steps

    def test_no_discards_by_default(self):
        est = occupation_time_mc(0.5, 1.5, PathConfig(dt=1e-3, seed=61), 1_000)
        assert est.discarded == 0
        assert est.n == 1_000
        # Mean exit time 1/2 plus the late-exit bias: about 500-520 steps a path.
        assert 450_000 < est.path_steps < 600_000

    def test_green_sampler_reports_no_paths(self):
        est = stochastic.mc_area_mean(0.5, 1.5, 1_000, rng_from_seed(1))
        assert est.discarded == 0 and est.path_steps == 0
