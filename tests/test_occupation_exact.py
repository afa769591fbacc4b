"""The live-path Euler loop of ``occupation_time_mc`` against its
fancy-index predecessor, and its discard and path-step counts.

``indexed_occupation_time_mc`` below is the loop as it was written before
the live paths moved into contiguous arrays: all n positions stay in one
(n, 2) array and each step gathers and scatters the live ones through an
index array.  Both draw their increments through the same Box-Muller
helper, in the same order, and do the same arithmetic on each path, so
the estimates must be equal, not merely close.
"""
import math

import numpy as np
import pytest

import circmeans.stochastic as stochastic
from circmeans.core import McEstimate, NumericalFailure, check_alpha, check_radius, rng_from_seed
from circmeans.stochastic import PathConfig, _gaussian_increments, occupation_time_mc, variance_flag


def indexed_occupation_time_mc(y, alpha, cfg, n):
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
    for _ in range(budget):
        if idx.size == 0:
            break
        if const_integrand:
            acc[idx] += dt
        else:
            w2 = (1.0 + y * pos[idx, 0]) ** 2 + (y * pos[idx, 1]) ** 2
            acc[idx] += dt * w2 ** (0.5 * alpha - 1.0)
        pos[idx] += np.column_stack(_gaussian_increments(rng, idx.size, dt))
        r2 = pos[idx, 0] ** 2 + pos[idx, 1] ** 2
        exited = r2 > 1.0
        if np.any(exited):
            done = idx[exited]
            totals[done] = acc[done]
            idx = idx[~exited]
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
    return McEstimate(mean, stderr, int(samples.size), variance_flag(y, alpha))


def assert_same_estimate(y, alpha, cfg, n):
    new = occupation_time_mc(y, alpha, cfg, n)
    old = indexed_occupation_time_mc(y, alpha, cfg, n)
    assert (new.mean, new.stderr, new.n, new.variance_warning) == (
        old.mean, old.stderr, old.n, old.variance_warning)
    assert new.discarded == n - old.n
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
        # At seed 63 the four slowest of 5000 paths need more than 2800
        # steps: 4 discards, under the limit of 5.
        est = assert_same_estimate(0.5, 1.5, PathConfig(dt=1e-3, max_steps=2800, seed=63), 5_000)
        assert est.discarded == 4

    def test_rejected_discards_same_message(self):
        # At seed 62, 3 of 1000 paths need more than 2600 steps; the limit is 1.
        cfg = PathConfig(dt=1e-3, max_steps=2600, seed=62)
        with pytest.raises(NumericalFailure) as old:
            indexed_occupation_time_mc(0.5, 1.5, cfg, 1_000)
        with pytest.raises(NumericalFailure) as new:
            occupation_time_mc(0.5, 1.5, cfg, 1_000)
        assert str(new.value) == str(old.value) == "3 of 1000 paths failed to exit within 2600 steps"
        assert math.isnan(new.value.best_estimate)


class TestDiscardAndStepCounts:
    def test_one_discard_accepted_and_steps_counted(self, monkeypatch):
        # At seed 61 exactly one of 1000 paths needs more than 2600 steps.
        drawn = []

        def counting_rng(seed, stream=0):
            drawn.append(CountingGenerator(rng_from_seed(seed, stream)))
            return drawn[-1]

        monkeypatch.setattr(stochastic, "rng_from_seed", counting_rng)
        est = occupation_time_mc(0.5, 1.5, PathConfig(dt=1e-3, max_steps=2600, seed=61), 1_000)
        assert est.discarded == 1_000 - est.n == 1
        assert len(drawn) == 1
        assert est.path_steps == drawn[0].uniforms["float64"] == drawn[0].uniforms["float32"]
        assert est.path_steps > 2600 * est.discarded

    def test_no_discards_by_default(self):
        est = occupation_time_mc(0.5, 1.5, PathConfig(dt=1e-3, seed=61), 1_000)
        assert est.discarded == 0
        assert est.n == 1_000
        # Mean exit time 1/2 plus the late-exit bias: about 500-520 steps a path.
        assert 450_000 < est.path_steps < 600_000

    def test_green_sampler_reports_no_paths(self):
        est = stochastic.mc_area_mean(0.5, 1.5, 1_000, rng_from_seed(1))
        assert est.discarded == 0 and est.path_steps == 0
