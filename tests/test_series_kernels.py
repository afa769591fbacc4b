"""The block-vectorised series kernels against their term-by-term loops.

The loop versions below are the kernels as they were written before the
per-term work went into whole-block array operations.  The arithmetic is
meant to be the same operation for operation, so values, tail bounds and
term counts must be equal, not merely close.
"""
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import circmeans
from circmeans.circle import binomial_series_mean
from circmeans.disk import _MAX_TERMS, _PSI_GAP, _hyp_series, _near_one_degenerate


def loop_binomial_series_mean(t, beta, tol, *, max_terms=500_000):
    t = np.atleast_1d(np.asarray(t, dtype=float))
    b = 0.5 * beta
    t2 = t * t
    values = np.ones_like(t)
    coeff = 1.0
    p_next = t2.copy()
    k = 0
    k_min = max(3, int(math.ceil(abs(b))) + 2)
    harmonic_ok = beta > -0.9
    tail = math.inf
    while k < max_terms:
        nblk = min(64, max_terms - k)
        cs = np.empty(nblk)
        for j in range(nblk):
            kk = k + 1 + j
            coeff = coeff * (b - kk + 1.0) / kk
            cs[j] = coeff
        powers = _loop_powers(p_next, t2, nblk)
        values = values + powers @ (cs**2)
        p_next = powers[:, -1] * t2
        k += nblk
        if coeff == 0.0:
            tail = 0.0
            break
        if k >= k_min:
            last_term = cs[-1] ** 2 * powers[:, -1]
            geo = np.where(t2 < 1.0, t2 / np.maximum(1.0 - t2, 1e-300), np.inf)
            bound = last_term * geo
            if harmonic_ok:
                bound = np.minimum(bound, last_term * (k + 1.0) / (1.0 + beta))
            tail = float(np.max(bound))
            if tail <= tol:
                break
    return values, tail, k + 1


def _loop_powers(p_start, t2, n):
    out = np.empty((p_start.size, n))
    out[:, 0] = p_start
    for j in range(1, n):
        out[:, j] = out[:, j - 1] * t2
    return out


def loop_hyp_series(p, q, c, v):
    s = np.ones_like(v)
    term = np.ones_like(v)
    for k in range(400):
        term = term * ((p + k) * (q + k) / ((c + k) * (k + 1.0))) * v
        s = s + term
        if np.max(np.abs(term)) <= 1e-17 * np.max(s):
            break
    return s


def loop_near_one_degenerate(v):
    """The term-by-term loop, with the psi gaps read from the same table."""
    lv = np.log(v)
    s = np.zeros_like(v)
    coeff = 1.0
    p = np.ones_like(v)
    for n in range(400):
        s = s + coeff * p * _PSI_GAP[n]
        s = s - coeff * p * lv
        coeff *= ((n + 0.5) / (n + 1.0)) ** 2
        p = p * v
        if coeff * float(np.max(p)) * (float(np.max(np.abs(lv))) + 10.0) <= 1e-17 * float(np.min(s)):
            break
    return s / math.pi


def assert_same_series(t, beta, tol, **kw):
    got = binomial_series_mean(t, beta, tol, **kw)
    ref = loop_binomial_series_mean(t, beta, tol, **kw)
    assert np.array_equal(got[0], ref[0])
    assert got[1] == ref[1] or (math.isnan(got[1]) and math.isnan(ref[1]))
    assert got[2] == ref[2]
    return got


class TestBinomialSeriesExact:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_points_and_exponents(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(6):
            n = int(rng.integers(1, 40))
            t = rng.uniform(0.0, 0.95, n)
            beta = float(rng.uniform(-1.99, 2.0))
            tol = float(10.0 ** rng.uniform(-16, -8))
            assert_same_series(t, beta, tol)

    @pytest.mark.parametrize("beta", [0.0, 2.0, 4.0])
    def test_terminating_series(self, beta):
        t = np.random.default_rng(4).uniform(0.0, 1.0, 17)
        _, tail, _ = assert_same_series(t, beta, 1e-14)
        assert tail == 0.0

    def test_term_cap(self):
        t = np.random.default_rng(5).uniform(0.9, 0.999, 8)
        _, tail, terms = assert_same_series(t, -0.5, 1e-16, max_terms=100)
        assert terms == 101 and tail > 1e-16

    def test_t_zero(self):
        vals, _, _ = assert_same_series(np.array([0.0]), 0.7, 1e-14)
        assert vals[0] == 1.0
        assert_same_series(np.array([0.0, 0.3, 0.0]), -1.3, 1e-16)

    @pytest.mark.parametrize("beta", [-0.85, -0.5, 0.25, 1.0])
    def test_on_the_circle(self, beta):
        assert_same_series(np.array([1.0]), beta, 1e-12, max_terms=20_000)
        assert_same_series(np.array([0.3, 1.0, 0.999]), beta, 1e-12, max_terms=3_000)

    def test_on_the_circle_to_the_default_cap(self):
        # mean(1, 1) = 4/pi: about 2e5 terms before the tail bound clears.
        vals, _, terms = assert_same_series(np.array([1.0]), 1.0, 1e-12)
        assert terms > 100_000
        assert vals[0] == pytest.approx(4.0 / math.pi, abs=1e-11)

    def test_one_point_and_thirteen_thousand(self):
        rng = np.random.default_rng(6)
        assert_same_series(rng.uniform(0.0, 0.9, 1), -1.25, 1e-16)
        big = rng.uniform(0.0, 0.9, 13_000)
        assert_same_series(big, -1.25, 1e-16)
        assert_same_series(1.0 / rng.uniform(1.0 / 0.9, 40.0, 13_000), -0.4, 1e-16)


def _hyp_params(rng):
    alpha = float(rng.uniform(0.01, 1.99))
    a = 1.0 - 0.5 * alpha
    return [(a, a, 2.0 * a), (1.0 - a, 1.0 - a, 2.0 - 2.0 * a)]


class TestHypSeriesExact:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_points(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(5):
            n = int(rng.integers(1, 50))
            v = 10.0 ** rng.uniform(-300.0, math.log10(0.19), n)
            for p, q, c in _hyp_params(rng):
                assert np.array_equal(_hyp_series(p, q, c, v), loop_hyp_series(p, q, c, v))

    def test_one_point_and_thirteen_thousand(self):
        rng = np.random.default_rng(7)
        for n in (1, 13_000):
            u = 10.0 ** rng.uniform(-300.0, -1.0, n)
            v = u * (2.0 - u)
            for p, q, c in _hyp_params(rng):
                assert np.array_equal(_hyp_series(p, q, c, v), loop_hyp_series(p, q, c, v))

    def test_tiny_and_edge_arguments(self):
        v = np.array([1e-300, 1e-200, 1e-17, 1e-3, 0.19])
        for p, q, c in [(0.5, 0.5, 1.0), (0.875, 0.875, 1.75), (0.005, 0.005, 0.01)]:
            got = _hyp_series(p, q, c, v)
            assert np.array_equal(got, loop_hyp_series(p, q, c, v))
            assert got[0] == 1.0


class TestDegenerateExact:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_term_loop(self, seed):
        rng = np.random.default_rng(seed)
        for n in (1, 9, 13_000):
            u = 10.0 ** rng.uniform(-300.0, -1.0, n)
            v = u * (2.0 - u)
            assert np.array_equal(_near_one_degenerate(v), loop_near_one_degenerate(v))


def test_psi_gap_table_against_mpmath():
    mp.mp.dps = 40
    assert len(_PSI_GAP) == _MAX_TERMS == 400
    worst = 0.0
    for k, h in enumerate(_PSI_GAP):
        ref = 2 * mp.digamma(k + 1) - 2 * mp.digamma(mp.mpf(k) + mp.mpf(1) / 2)
        worst = max(worst, float(abs((h - ref) / ref)))
    assert worst <= 1e-13


def test_package_import_leaves_scipy_out():
    # scipy is a test dependency only; the package itself needs numpy alone.
    src = str(Path(circmeans.__file__).resolve().parents[1])
    code = "import sys, circmeans, circmeans.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert done.stdout.strip() == "False"
