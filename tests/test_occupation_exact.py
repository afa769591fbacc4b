"""The slot loop of ``occupation_time_mc`` against a one-step-at-a-time
fancy-index oracle, its split into chunks, and its discard and path-step
counts.

``indexed_occupation_time_mc`` below keeps all n positions in one (n, 2)
array and gathers and scatters the live ones through an index array.  It
keeps the same slot schedule: every slot draws, exited paths included,
until the same rule compacts the slots, and blocks follow the same
block-size rule.  It draws through the same Box-Muller helper, then
advances only the live paths, one step at a time through a block's rows,
so the increments of exited paths are dropped.  It does the same
arithmetic on each path in the same order, so the estimates must be
equal, not merely close.
"""
import math

import numpy as np
import pytest

import circmeans.stochastic as stochastic
from circmeans.core import McEstimate, NumericalFailure, check_alpha, check_radius, rng_from_seed
from circmeans.stochastic import (
    _BLOCK_ELEMS, _MIN_BLOCK, _ROW_SUM_MIN, PathConfig, _gaussian_increments, _running_sums,
    occupation_time_mc, variance_flag)


def indexed_totals(y, alpha, cfg, n, stream=0, blocks=None):
    """(totals, path_steps, discarded) of n paths drawn from stream
    ``stream`` of the seed, stepping one step at a time; appends each
    draw's (steps, slots, live paths) to ``blocks`` when given."""
    rng = rng_from_seed(cfg.seed, stream)
    dt = cfg.dt
    budget = cfg.steps_budget
    power = 0.5 * alpha - 1.0

    pos = np.zeros((n, 2))
    acc = np.zeros(n)
    exited = np.zeros(n, dtype=bool)
    slots = np.arange(n)        # the paths that draw, exited ones included
    totals = np.full(n, math.nan)
    path_steps = 0
    steps = 0
    while steps < budget and not exited[slots].all():
        live = np.count_nonzero(~exited[slots])
        b = _BLOCK_ELEMS // live
        if b >= _MIN_BLOCK or (slots.size - live) * 16 > slots.size:
            slots = slots[~exited[slots]]
        b = min(budget - steps, b) if b >= _MIN_BLOCK else 1
        k = slots.size
        steps += b
        if blocks is not None:
            blocks.append((b, k, live))
        dx, dv = _gaussian_increments(rng, b * k, dt)
        rows = np.stack((dx.reshape(b, k), dv.reshape(b, k)), axis=-1)
        for j in range(b):
            col = np.flatnonzero(~exited[slots])    # the live paths' columns
            idx = slots[col]
            if idx.size == 0:
                break
            path_steps += idx.size
            if power == 0.0:
                acc[idx] += 1.0
            else:
                w2 = (1.0 + y * pos[idx, 0]) ** 2 + (y * pos[idx, 1]) ** 2
                acc[idx] += np.exp(power * np.log(w2))
            pos[idx] += rows[j, col]
            r2 = pos[idx, 0] ** 2 + pos[idx, 1] ** 2
            done = idx[r2 > 1.0]
            exited[done] = True
            totals[done] = acc[done]
    return totals, path_steps, np.count_nonzero(~exited)


def estimate_from_totals(y, alpha, cfg, n, totals, path_steps, discarded, max_discards=None):
    """The estimate from all n paths' sums.  ``max_discards`` replaces the
    0.1% discard limit when given."""
    budget = cfg.steps_budget
    if discarded > (1e-3 * n if max_discards is None else max_discards):
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


def indexed_occupation_time_mc(y, alpha, cfg, n, blocks=None, max_discards=None):
    """The estimate of n paths from stream 0 of the seed, one chunk,
    stepping one step at a time; ``blocks`` as for :func:`indexed_totals`."""
    y = check_radius(y)
    alpha = check_alpha(alpha, upper=2.0)
    return estimate_from_totals(y, alpha, cfg, n, *indexed_totals(y, alpha, cfg, n, blocks=blocks),
                                max_discards=max_discards)


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


class TestRunningSums:
    @pytest.mark.parametrize("b", [1, 2, 9, 40])
    @pytest.mark.parametrize("k", [1, 3, _ROW_SUM_MIN - 1, _ROW_SUM_MIN, 2_000])
    def test_bit_identical_to_adding_one_row_at_a_time(self, b, k):
        # Both sides of the row-loop/cumsum switch, with frozen (NaN)
        # columns in the start row and in the rows.
        rng = np.random.default_rng(1000 * b + k)
        start = rng.standard_normal(k)
        rows = rng.standard_normal((b, k)) * 1e-3
        start[::3] = math.nan
        rows[:, 1::5] = math.nan
        expected = [start]
        for row in rows:
            expected.append(np.add(expected[-1], row))
        got = _running_sums(start, rows)
        assert got.shape == (b + 1, k)
        assert np.array_equal(got.view(np.uint64), np.array(expected).view(np.uint64))


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
        # At seed 63, 4 of 5000 paths are still inside after 2700 steps,
        # under the limit of 5.
        est = assert_same_estimate(0.5, 1.5, PathConfig(dt=1e-3, max_steps=2700, seed=63), 5_000)
        assert est.discarded == 4

    def test_budget_ends_inside_a_tail_block(self):
        # At seed 61 the budget of 2850 steps cuts the last block, of 2
        # live paths, to 782 steps, and the last path exits inside it.
        blocks = []
        est = assert_same_estimate(0.5, 1.5, PathConfig(dt=1e-3, max_steps=2850, seed=61), 1_000, blocks)
        last_b, last_k, last_live = blocks[-1]
        assert sum(b for b, _, _ in blocks) == 2850
        assert last_k == last_live
        assert 1 < last_b < _BLOCK_ELEMS // last_k
        assert est.discarded == 0

    def test_budget_ends_with_frozen_slots(self, monkeypatch):
        # Single steps take more than _BLOCK_ELEMS // 2 live paths.  At
        # seed 61 the budget of 200 steps ends in them, with exited paths
        # still in their slots; only live paths are discarded.
        monkeypatch.setattr(stochastic, "_MAX_DISCARD_FRACTION", 1.0)
        cfg = PathConfig(dt=1e-3, max_steps=200, seed=61)
        blocks = []
        new = occupation_time_mc(0.5, 1.5, cfg, 5_000)
        old = indexed_occupation_time_mc(0.5, 1.5, cfg, 5_000, blocks, max_discards=5_000)
        assert fields(new) == fields(old)
        last_b, last_k, last_live = blocks[-1]
        assert len(blocks) == 200 and last_b == 1
        assert last_k > last_live >= new.discarded
        assert new.discarded == 5_000 - new.n == 4_309

    def test_rejected_discards_same_message(self):
        # At seed 62, 3 of 1000 paths are still inside after 2350 steps; the limit is 1.
        cfg = PathConfig(dt=1e-3, max_steps=2350, seed=62)
        with pytest.raises(NumericalFailure) as old:
            indexed_occupation_time_mc(0.5, 1.5, cfg, 1_000)
        with pytest.raises(NumericalFailure) as new:
            occupation_time_mc(0.5, 1.5, cfg, 1_000)
        assert str(new.value) == str(old.value) == "3 of 1000 paths failed to exit within 2350 steps"
        assert math.isnan(new.value.best_estimate)


class TestChunksExact:
    @pytest.mark.parametrize("n, sizes", [(10_000, [5_000, 5_000]), (10_001, [5_001, 5_000])])
    def test_chunks_joined_in_stream_order(self, n, sizes):
        # From n = 10000 on, the paths run in n // 5000 chunks, chunk i
        # from stream i of the seed, the first n % c chunks one path larger.
        cfg = PathConfig(dt=1e-3, seed=64)
        parts = [indexed_totals(0.5, 1.5, cfg, m, stream=i) for i, m in enumerate(sizes)]
        totals = np.concatenate([t for t, _, _ in parts])
        old = estimate_from_totals(0.5, 1.5, cfg, n, totals,
                                   sum(s for _, s, _ in parts), sum(d for _, _, d in parts))
        new = occupation_time_mc(0.5, 1.5, cfg, n)
        assert fields(new) == fields(old)
        assert new.discarded == n - new.n

    def test_chunk_zero_is_the_whole_run_below_10000(self):
        assert_same_estimate(2.0, 0.5, PathConfig(dt=1e-3, seed=65), 9_999)


class TestDiscardAndStepCounts:
    def test_one_discard_accepted_and_steps_counted(self, monkeypatch):
        # At seed 61 exactly one of 1000 paths is still inside after 2520 steps.
        cfg = PathConfig(dt=1e-3, max_steps=2520, seed=61)
        oracle = indexed_occupation_time_mc(0.5, 1.5, cfg, 1_000)
        drawn = []

        def counting_rng(seed, stream=0):
            drawn.append(CountingGenerator(rng_from_seed(seed, stream)))
            return drawn[-1]

        monkeypatch.setattr(stochastic, "rng_from_seed", counting_rng)
        est = occupation_time_mc(0.5, 1.5, cfg, 1_000)
        assert est.discarded == 1_000 - est.n == 1
        assert est.path_steps == oracle.path_steps
        assert est.path_steps > 2520 * est.discarded
        # One uniform pair a step taken, plus the pairs drawn for frozen
        # slots and those dropped after exits inside a block.
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
