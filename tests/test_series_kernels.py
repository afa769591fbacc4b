"""The block-vectorised power-sum kernel against its term-by-term loops,
and the near-circle connection sums against mpmath.

The loop version below does the kernel's per-term work one term at a
time, for the Gauss series F(-b, -b; c; z) at c = 1 (the binomial
series) and at c != 1 (coefficients of either sign, fed to the kernel by
:func:`hyp2f1_series`): the coefficient recurrence the kernel runs as one
accumulate per block runs here as a Python loop.  The arithmetic is
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
from hypothesis import example, given, settings
from hypothesis import strategies as st

import circmeans
from circmeans import circle
from circmeans.circle import _connection_sum, _power_sums, binomial_series_mean
from circmeans.disk import inner_mean_near_one

EPS = np.finfo(float).eps


def loop_hyp2f1_series(z, b, c, tol, *, max_terms=500_000):
    """The kernel term by term: the coefficient C(b, k)^2 k!/(c)_k times
    (b + 1 - k)^2 / (k (c - 1 + k)) per term, summed 64 terms a block."""
    values = np.ones_like(z)
    coeff = 1.0
    p_next = z.copy()
    k = 0
    k_min = max(3, int(math.ceil(abs(b))) + 2)
    harmonic_ok = c == 1.0 and b > -0.45
    tail = math.inf
    while k < max_terms:
        nblk = min(64, max_terms - k)
        cs = np.empty(nblk)
        for j in range(nblk):
            kk = k + 1 + j
            f = b + 1.0 - kk
            coeff = coeff * (f * f / (kk * (c - 1.0 + kk)))
            cs[j] = coeff
        powers = _loop_powers(p_next, z, nblk)
        # One row at a time: a row's sum must not depend on the others.
        values = values + np.array([np.vecdot(row, cs) for row in powers])
        p_next = powers[:, -1] * z
        k += nblk
        if coeff == 0.0:
            tail = 0.0
            break
        if k >= k_min:
            last = abs(coeff) * powers[:, -1]
            geo = np.where(z < 1.0, z / np.maximum(1.0 - z, 1e-300), np.inf)
            bound = last * geo
            if harmonic_ok:
                bound = np.minimum(bound, last * ((k + 1.0) / (1.0 + 2.0 * b)))
            tail = float(np.max(bound))
            if tail <= tol:
                break
    return values, tail, k + 1


def hyp2f1_series(z, b, c, tol, max_terms=500_000):
    """F(-b, -b; c; z) through the package's power-sum kernel, with the
    coefficient recurrence C(b, k)^2 k!/(c)_k = previous
    * (b + 1 - k)^2 / (k (c - 1 + k)) run one block at a time."""
    coeff = 1.0

    def coefficients(k, n):
        nonlocal coeff
        ks = np.arange(k, k + n, dtype=float)
        f = b + 1.0 - ks
        cs = f * f / (ks * (c - 1.0 + ks))
        cs[0] *= coeff
        np.multiply.accumulate(cs, out=cs)
        coeff = cs[-1]
        return cs

    k_min = max(3, int(math.ceil(abs(b))) + 2)
    harmonic = b if c == 1.0 and b > -0.45 else None
    values, tail, terms = _power_sums(z, 1.0, coefficients, tol, max_terms, k_min, harmonic)
    return values, float(tail), terms


def loop_binomial_series_mean(t, beta, tol, *, max_terms=500_000):
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return loop_hyp2f1_series(t * t, 0.5 * beta, 1.0, tol, max_terms=max_terms)


def _loop_powers(p_start, t2, n):
    out = np.empty((p_start.size, n))
    out[:, 0] = p_start
    for j in range(1, n):
        out[:, j] = out[:, j - 1] * t2
    return out


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


def _families(alpha):
    """(b, c) of F(a, a; 2a; v) and F(1-a, 1-a; 2-2a; v), a = 1 - alpha/2,
    written as F(-b, -b; c; v): the two families of the inner mean's
    unpaired connection formula (A&S 15.3.6), test series whose
    coefficients are of either sign."""
    a = 1.0 - 0.5 * alpha
    return [(-a, 2.0 * a), (a - 1.0, 2.0 - 2.0 * a)]


def assert_same_hyp2f1(z, b, c, tol, **kw):
    got = hyp2f1_series(z, b, c, tol, **kw)
    ref = loop_hyp2f1_series(z, b, c, tol, **kw)
    assert np.array_equal(got[0], ref[0])
    assert got[1] == ref[1]
    assert got[2] == ref[2]


class TestHypSeriesExact:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_points(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(5):
            n = int(rng.integers(1, 50))
            v = 10.0 ** rng.uniform(-300.0, math.log10(0.75), n)
            for b, c in _families(float(rng.uniform(0.01, 1.99))):
                assert_same_hyp2f1(v, b, c, 1e-16)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_random_points_and_parameters(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(6):
            z = rng.uniform(0.0, 0.95, int(rng.integers(1, 40)))
            b = float(rng.uniform(-0.99, 2.5))
            c = float(rng.uniform(0.05, 3.0))
            tol = float(10.0 ** rng.uniform(-16, -8))
            assert_same_hyp2f1(z, b, c, tol, max_terms=int(rng.integers(100, 3000)))

    def test_one_point_and_thirteen_thousand(self):
        rng = np.random.default_rng(7)
        for n in (1, 13_000):
            u = 10.0 ** rng.uniform(-300.0, -1.0, n)
            v = u * (2.0 - u)
            for b, c in _families(float(rng.uniform(0.01, 1.99))):
                assert_same_hyp2f1(v, b, c, 1e-16)

    def test_tiny_and_edge_arguments(self):
        v = np.array([1e-300, 1e-200, 1e-17, 1e-3, 0.19, 0.75])
        for alpha in (0.02, 0.25, 1.5, 1.99):
            for b, c in _families(alpha):
                assert_same_hyp2f1(v, b, c, 1e-16)
                assert hyp2f1_series(v, b, c, 1e-16)[0][0] == 1.0


class TestSignedCoefficientTail:
    """F(-alpha/2, -alpha/2; -alpha; v) through the kernel: for alpha < 1
    every coefficient from k = 1 on is negative, and for 1 < alpha < 2
    the first is.  The kernel's tail bound must take |coefficient|, or it
    comes out negative and passes any tol."""

    @pytest.mark.parametrize("alpha", [0.05, 0.25, 0.5, 0.9, 1.5, 1.9])
    @pytest.mark.parametrize("cap", [3, 10, 64])
    def test_tail_bounds_the_omitted_terms(self, alpha, cap):
        v = np.array([1e-3, 0.02, 0.1, 0.3, 0.6])
        b, c = 0.5 * alpha, -alpha
        vals, tail, terms = hyp2f1_series(v, b, c, 1e-300, max_terms=cap)
        assert terms == cap + 1 and tail > 0.0
        with mp.workdps(40):
            for vi, got in zip(v, vals):
                ref = mp.hyp2f1(-b, -b, c, mp.mpf(vi))
                assert float(abs(got - ref)) <= tail + 4.0 * EPS * abs(float(ref)), (vi, got, tail)
        assert_same_hyp2f1(v, b, c, 1e-300, max_terms=cap)


def mp_connection(v, alpha, n):
    """F(-b, -b; 1; 1 - v) at b = alpha/2 - n, with the digits to hold 1 - v.
    At alpha = 1 the mean (n = 0) is (2/pi)(1 + t) E(4t/(1 + t)^2),
    t = sqrt(1 - v), which mpmath evaluates far faster than its
    degenerate hyp2f1 close to the circle."""
    with mp.workdps(40 + max(0, int(-math.log10(v)))):
        if alpha == 1.0 and n == 0:
            t = mp.sqrt(1 - mp.mpf(v))
            return 2 / mp.pi * (1 + t) * mp.ellipe(4 * t / (1 + t) ** 2)
        a = mp.mpf(alpha) / 2 - n
        return mp.hyp2f1(-a, -a, 1, 1 - mp.mpf(v))


def mp_inner_mean(u, alpha):
    """F(a, a; 1; t^2) at t = 1 - u, a = 1 - alpha/2, with the digits to hold
    1 - u; at alpha = 1, 1/AGM(1 + t, 1 - t), which mpmath evaluates far
    faster than its degenerate hyp2f1 close to the circle."""
    with mp.workdps(40 + max(0, int(-math.log10(u)))):
        if alpha == 1.0:
            return 1 / mp.agm(2 - mp.mpf(u), mp.mpf(u))
        a = 1 - mp.mpf(alpha) / 2
        t = 1 - mp.mpf(u)
        return mp.hyp2f1(a, a, 1, t * t)


class TestNearOneAgainstMpmath:
    @pytest.mark.parametrize("alpha", [0.02, 0.25, 0.5, 0.9, 1.1, 1.5, 1.99])
    def test_families_within_tail_bound(self, alpha):
        mp.mp.dps = 40
        u = np.array([1e-300, 1e-120, 1e-16, 1e-8, 1e-4, 1e-2, 0.1, 0.3, 0.5])
        v = u * (2.0 - u)
        for b, c in _families(alpha):
            vals, tail, _ = hyp2f1_series(v, b, c, 1e-16)
            for vi, got in zip(v, vals):
                ref = float(mp.hyp2f1(-b, -b, c, mp.mpf(vi)))
                assert abs(got - ref) <= tail + 4.0 * EPS * ref, (alpha, b, c, vi)

    def test_alpha_one_is_inverse_agm(self):
        mp.mp.dps = 40
        rng = np.random.default_rng(8)
        u = np.concatenate([[1e-300, 0.5], 10.0 ** rng.uniform(-300.0, math.log10(0.5), 400)])
        # The step count comes from min(u): check the whole array, and
        # decades whose smallest point needs fewer steps.
        for part in [u] + [u[(u >= 10.0**-k) & (u < 10.0 ** (1 - k))] for k in (1, 2, 8, 40)]:
            got = inner_mean_near_one(part, 1.0)
            for ui, g in zip(part, got):
                ref = 1 / mp.agm(2 - mp.mpf(ui), mp.mpf(ui))
                assert abs(g - ref) <= 4.0 * EPS * ref, ui


class TestInnerMeanNearAlphaOne:
    """inner_mean_near_one within 1e-10 to 1e-5 of alpha = 1, where the
    two families of the unpaired connection formula cancel (their gamma
    prefactors grow like 1/|alpha - 1|).  Paired term by term they do
    not, so the only loss left is the conditioning of
    v^(alpha - 1) = exp((alpha - 1) ln v): the relative error stays
    within 1e-13 (1 + |alpha - 1| ln(1/u)) at every alpha and u.
    """

    U = np.array([1e-300, 1e-100, 1e-30, 1e-12, 1e-8, 1e-4, 1e-2, 0.1, 0.3, 0.5])

    @pytest.mark.parametrize("alpha", [1 + 1e-7, 1 - 1e-7, 1 + 1e-6, 1 - 1e-6,
                                       1 + 1e-10, 1 - 1e-10, 1 + 9e-10, 1 - 9e-10])
    def test_close_to_alpha_one(self, alpha):
        self.check(alpha)

    @pytest.mark.parametrize("alpha", [1 + 2e-6, 1 - 2e-6, 1 + 1e-5, 1 - 1e-5])
    def test_further_from_alpha_one(self, alpha):
        self.check(alpha)

    def check(self, alpha):
        got, err = inner_mean_near_one(self.U, alpha, with_error=True)
        for u, g, e in zip(self.U, got, err):
            ref = mp_inner_mean(u, alpha)
            rel = float(abs(g - ref) / ref)
            assert rel <= 1e-13 * (1.0 + abs(alpha - 1.0) * math.log(1.0 / u)), (alpha, u, rel)
            assert abs(g - ref) <= e, (alpha, u)


_EXAMPLE_ALPHAS = [1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), 1 - 1e-7, 1 + 1e-7,
                   1 - 1e-9, 1 + 1e-9, 1 - 1e-12, 1 + 1e-12, 0.02, 2 - 1e-9]


def _pinned(test):
    for alpha in _EXAMPLE_ALPHAS:
        for u in (1e-300, 1e-17, 0.5):
            test = example(u=u, alpha=alpha)(test)
    return test


class TestConnectionSumContract:
    """Over 1e-3 <= alpha < 2 and 1e-300 <= u <= 0.5, the inner mean at
    t = 1 - u and the mean at v = u(2 - u) lie within their error
    estimates of mpmath.  (Below alpha = 1e-3 mpmath's hyp2f1 takes
    seconds a point close to the circle.)"""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(u=st.floats(min_value=-300.0, max_value=math.log10(0.5)).map(lambda x: min(10.0**x, 0.5)),
           alpha=st.floats(min_value=1e-3, max_value=2.0, exclude_max=True))
    @_pinned
    def test_within_estimate_of_mpmath(self, u, alpha):
        m, m_err = inner_mean_near_one(np.array([u]), alpha, with_error=True)
        assert abs(m[0] - mp_inner_mean(u, alpha)) <= m_err[0]
        v = u * (2.0 - u)
        mean, mean_err, _ = _connection_sum(np.array([v]), alpha, 0)
        assert abs(mean[0] - mp_connection(v, alpha, 0)) <= mean_err[0]

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("alpha", [0.05, 0.5, 1 - 1e-9, 1.0, 1.5, 1.9, 2 - 1e-9])
    @pytest.mark.parametrize("cap", [3, 4, 10])
    def test_capped_tail_bounds_the_omitted_terms(self, monkeypatch, cap, alpha, n):
        # With the sums cut after term cap, the error is their omitted
        # tails, which the estimate must bound: term ratios are at most v
        # from k = 3 on.
        full = circle._power_sums

        def capped(z, c0, coefficients, tol, max_terms, *args, **kwargs):
            return full(z, c0, coefficients, tol, min(max_terms, cap), *args, **kwargs)

        v = np.array([1e-3, 0.02, 0.1, 0.3, 0.6])
        full_err = _connection_sum(v, alpha, n)[1]
        monkeypatch.setattr(circle, "_power_sums", capped)
        got, err, terms = _connection_sum(v, alpha, n)
        assert terms == cap + 1
        for vi, g, e in zip(v, got, err):
            gap = abs(g - mp_connection(vi, alpha, n))
            assert gap <= e, (vi, gap, e)
        # The estimate sees the cut.
        assert err[-1] > full_err[-1]


def test_package_import_leaves_scipy_out():
    # scipy is a test dependency only; the package itself needs numpy alone.
    src = str(Path(circmeans.__file__).resolve().parents[1])
    code = "import sys, circmeans, circmeans.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert done.stdout.strip() == "False"
