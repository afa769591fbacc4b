"""The block-vectorised 2F1 series kernel against its term-by-term loops,
and the near-circle inner means against mpmath.

The loop version below does the kernel's per-term work one term at a
time, for c = 1 and c != 1 alike: the coefficient recurrence the kernel
runs as one accumulate per block runs here as a Python loop.  The
arithmetic is meant to be the same operation for operation, so values,
tail bounds and term counts must be equal, not merely close.
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
from circmeans.circle import _hyp2f1_series, binomial_series_mean
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
        values = values + powers @ cs
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
    written as F(-b, -b; c; v)."""
    a = 1.0 - 0.5 * alpha
    return [(-a, 2.0 * a), (a - 1.0, 2.0 - 2.0 * a)]


def assert_same_hyp2f1(z, b, c, tol, **kw):
    got = _hyp2f1_series(z, b, c, tol, **kw)
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
                assert _hyp2f1_series(v, b, c, 1e-16)[0][0] == 1.0


class TestSignedCoefficientTail:
    """F(-alpha/2, -alpha/2; -alpha; v), the first family of the mean's
    connection formula: for alpha < 1 every coefficient from k = 1 on is
    negative, and for 1 < alpha < 2 the first is.  The tail bound must
    take |coefficient|, or it comes out negative and passes any tol."""

    @pytest.mark.parametrize("alpha", [0.05, 0.25, 0.5, 0.9, 1.5, 1.9])
    @pytest.mark.parametrize("cap", [3, 10, 64])
    def test_tail_bounds_the_omitted_terms(self, alpha, cap):
        v = np.array([1e-3, 0.02, 0.1, 0.3, 0.6])
        b, c = 0.5 * alpha, -alpha
        vals, tail, terms = _hyp2f1_series(v, b, c, 1e-300, max_terms=cap)
        assert terms == cap + 1 and tail > 0.0
        with mp.workdps(40):
            for vi, got in zip(v, vals):
                ref = mp.hyp2f1(-b, -b, c, mp.mpf(vi))
                assert float(abs(got - ref)) <= tail + 4.0 * EPS * abs(float(ref)), (vi, got, tail)
        assert_same_hyp2f1(v, b, c, 1e-300, max_terms=cap)


class TestNearOneAgainstMpmath:
    @pytest.mark.parametrize("alpha", [0.02, 0.25, 0.5, 0.9, 1.1, 1.5, 1.99])
    def test_families_within_tail_bound(self, alpha):
        mp.mp.dps = 40
        u = np.array([1e-300, 1e-120, 1e-16, 1e-8, 1e-4, 1e-2, 0.1, 0.3, 0.5])
        v = u * (2.0 - u)
        for b, c in _families(alpha):
            vals, tail, _ = _hyp2f1_series(v, b, c, 1e-16)
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


class TestDegenerateBandAgainstMpmath:
    """inner_mean_near_one inside the band |alpha - 1| <= 1e-9 and at
    1e-7 to 1e-5 outside it.

    Inside the band the alpha = 1 value stands in, so the error is that
    value's first-order error in alpha: about |alpha - 1| ln(1/u) / 2
    relative, 3.5e-7 at u = 1e-300 when |alpha - 1| = 1e-9.  Outside it
    the two connection families cancel (their gamma prefactors grow like
    1/|alpha - 1|), which costs up to about 3e-16/|alpha - 1| relative:
    1.5e-9 at |alpha - 1| = 1e-7 and 1e-10 at 1e-6, where the alpha = 1
    value would be off by up to 3.5e-5 and 3.5e-4.  The band ends about
    where the two errors cross; just outside it, at 1 +- 1e-9 (both
    outside in floating point), the connection formula is within 1.8e-7.
    """

    U = np.array([1e-300, 1e-100, 1e-30, 1e-12, 1e-8, 1e-4, 1e-2, 0.1, 0.3, 0.5])

    @staticmethod
    def reference(u, alpha):
        # F(a, a; 1; t^2) at t = 1 - u, a = 1 - alpha/2, with enough
        # digits to hold 1 - u.
        with mp.workdps(40 - int(math.log10(u))):
            a = 1 - mp.mpf(alpha) / 2
            t = 1 - mp.mpf(u)
            return mp.hyp2f1(a, a, 1, t * t)

    def relative_errors(self, alpha):
        got = inner_mean_near_one(self.U, alpha)
        return [float(abs(g - self.reference(u, alpha)) / self.reference(u, alpha))
                for u, g in zip(self.U, got)]

    @pytest.mark.parametrize("alpha", [1 + 1e-7, 1 - 1e-7, 1 + 1e-6, 1 - 1e-6,
                                       1 + 1e-10, 1 - 1e-10, 1 + 9e-10, 1 - 9e-10])
    def test_in_and_at_the_band(self, alpha):
        for u, rel in zip(self.U, self.relative_errors(alpha)):
            assert rel <= abs(alpha - 1.0) * (1.0 + 0.5 * math.log(1.0 / u)), (alpha, u, rel)
            if u >= 0.1:
                assert rel <= 1e-6, (alpha, u, rel)

    @pytest.mark.parametrize("alpha", [1 + 2e-6, 1 - 2e-6, 1 + 1e-5, 1 - 1e-5])
    def test_just_outside_the_band(self, alpha):
        for u, rel in zip(self.U, self.relative_errors(alpha)):
            assert rel <= 1e-9, (alpha, u, rel)


def test_package_import_leaves_scipy_out():
    # scipy is a test dependency only; the package itself needs numpy alone.
    src = str(Path(circmeans.__file__).resolve().parents[1])
    code = "import sys, circmeans, circmeans.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert done.stdout.strip() == "False"
