import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from circmeans.bounds import am_gm_sandwich
from circmeans.circle import (
    binomial_series_mean,
    inversion_symmetry,
    log_mean,
    mean_quadrature,
    mean_series,
    power_mean_integral,
)
from circmeans.core import BACKEND_QUADRATURE, BACKEND_SERIES, DEFAULT_SERIES_TOL, NumericalFailure

# Reference values computed with 30-digit mpmath quadrature of
# (1/pi) * int_0^pi (1 + 2 y cos th + y^2)^(alpha/2) dth.
ORACLE = {
    (0.5, 1.0): 1.063544409973364951,
    (0.8, 1.0): 1.1678095085207262172,
    (2.0, 1.0): 2.127088819946729902,
    (0.5, 1.5): 1.1412002725350265679,
    (0.3, 0.7): 1.0111327781888853696,
    (1.5, 0.5): 1.2613046499186718785,
}


def quadpack_mean(y: float, alpha: float) -> float:
    """Independent evaluation through QUADPACK for cross-checks."""
    val, _ = quad(
        lambda th: (1.0 + 2.0 * y * math.cos(th) + y * y) ** (alpha / 2.0) / math.pi,
        0.0,
        math.pi,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=500,
    )
    return val


class TestMeanQuadrature:
    @pytest.mark.parametrize("key", sorted(ORACLE))
    def test_frozen_values(self, key):
        y, alpha = key
        r = mean_quadrature(y, alpha, 1e-11)
        assert r.value == pytest.approx(ORACLE[key], abs=1e-11)
        assert abs(r.value - ORACLE[key]) <= r.error_estimate + 1e-13
        assert r.backend == BACKEND_QUADRATURE
        assert r.work > 0 and r.work % 15 == 0

    def test_four_over_pi(self):
        r = mean_quadrature(1.0, 1.0, 1e-12)
        assert r.value == pytest.approx(4.0 / math.pi, abs=1e-12)

    @pytest.mark.parametrize("y", [0.0, 0.25, 1.0, 2.5, 4.0])
    def test_alpha_two_closed_form(self, y):
        # |1+y*zeta|^2 integrates exactly: the mean is 1 + y^2.
        r = mean_quadrature(y, 2.0)
        assert r.value == pytest.approx(1.0 + y * y, abs=1e-13)

    def test_y_zero_is_exact(self):
        r = mean_quadrature(0.0, 0.7)
        assert r.value == 1.0
        assert r.error_estimate == 0.0

    def test_matches_quadpack_on_mixed_grid(self):
        for y in (0.05, 0.6, 0.97, 1.03, 3.7):
            for alpha in (0.25, 1.0, 1.9):
                assert mean_quadrature(y, alpha, 1e-11).value == pytest.approx(
                    quadpack_mean(y, alpha), abs=5e-11
                )

    def test_steep_corner_y1_small_alpha(self):
        # Integrand ~ (pi - th)^alpha near th = pi; refinement must dig in.
        r = mean_quadrature(1.0, 0.1, 1e-10)
        assert r.value == pytest.approx(quadpack_mean(1.0, 0.1), abs=5e-9)

    def test_budget_failure_carries_estimate(self):
        # Demanding sub-ulp accuracy either exhausts the panel budget
        # (failure carries the best estimate) or, if every panel
        # difference rounds to zero, legitimately claims that accuracy.
        try:
            r = mean_quadrature(1.0, 0.1, 1e-30)
        except NumericalFailure as exc:
            assert 1.0 < exc.best_estimate < 1.01
            assert exc.work > 0
        else:
            assert r.error_estimate <= 1e-30

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            mean_quadrature(-0.5, 1.0)
        with pytest.raises(ValueError):
            mean_quadrature(0.5, -1.0)
        with pytest.raises(ValueError):
            mean_quadrature(0.5, 1.0, tol=0.0)


class TestMeanSeries:
    def test_agrees_with_quadrature_inside_disk(self):
        r_q = mean_quadrature(0.5, 1.0, 1e-10)
        r_s, trunc = mean_series(0.5, 1.0, 1e-12)
        assert abs(r_q.value - r_s.value) <= 1e-9
        assert trunc.tail_bound <= 1e-12
        assert r_s.backend == BACKEND_SERIES
        assert r_s.work == trunc.terms_used

    @pytest.mark.parametrize("key", sorted(ORACLE))
    def test_frozen_values(self, key):
        y, alpha = key
        r, trunc = mean_series(y, alpha)
        assert r.value == pytest.approx(ORACLE[key], abs=1e-10 + trunc.tail_bound)

    @pytest.mark.parametrize("y", [0.0, 0.3, 1.0, 2.0, 4.0])
    def test_alpha_two_terminates(self, y):
        # C(1, k) vanishes for k >= 2, so the series is exactly 1 + y^2.
        r, trunc = mean_series(y, 2.0)
        assert r.value == 1.0 + y * y
        assert trunc.tail_bound == 0.0
        assert trunc.terms_used <= 130

    def test_y_zero(self):
        r, _ = mean_series(0.0, 0.7)
        assert r.value == 1.0

    def test_inversion_path_above_one(self):
        r2, _ = mean_series(2.0, 1.0)
        r_half, _ = mean_series(0.5, 1.0)
        assert r2.value == pytest.approx(2.0 * r_half.value, rel=1e-14)

    def test_honest_tail_at_convergence_boundary(self):
        # On the circle t = 1 the power series converges slowly for small
        # alpha; capping the term count must produce a truthful bound, not
        # a failure.  (mean_series itself takes Gauss's sum at y = 1.)
        vals, tail, terms = binomial_series_mean(np.array([1.0]), 0.25, 1e-12, max_terms=20_000)
        assert terms == 20_001 and tail > 1e-12
        q = mean_quadrature(1.0, 0.25, 1e-11)
        assert abs(vals[0] - q.value) <= tail + q.error_estimate + 1e-12

    def test_error_bounds_are_honest_jointly(self):
        for y in (0.1, 0.7, 0.999, 1.0, 1.4, 3.0):
            for alpha in (0.3, 1.0, 1.7):
                r_q = mean_quadrature(y, alpha, 1e-10)
                r_s, _ = mean_series(y, alpha)
                assert abs(r_q.value - r_s.value) <= (
                    r_q.error_estimate + r_s.error_estimate + 1e-12
                )


class TestBinomialSeriesCore:
    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            binomial_series_mean(np.array([1.2]), 1.0, 1e-10)
        for t in ([-0.1], [0.5, -1e-300], [0.5, 1.2]):
            with pytest.raises(ValueError):
                binomial_series_mean(np.array(t), 1.0, 1e-10)
        with pytest.raises(ValueError):
            binomial_series_mean(np.array([0.5, 1.0]), -1.5, 1e-10)
        with pytest.raises(ValueError):
            binomial_series_mean(np.array([0.5]), -2.0, 1e-10)
        with pytest.raises(ValueError):
            binomial_series_mean(np.array([1.0]), -1.5, 1e-10)

    def test_negative_exponent_against_quadpack(self):
        # Exponents in (-2, 0) power the area-integral inner means.
        for beta, t in [(-1.0, 0.5), (-1.5, 0.3), (-0.5, 0.9)]:
            vals, tail, _ = binomial_series_mean(np.array([t]), beta, 1e-14)
            ref, _ = quad(
                lambda th: (1.0 + 2.0 * t * math.cos(th) + t * t) ** (beta / 2.0) / math.pi,
                0.0, math.pi, epsabs=1e-13, epsrel=1e-13, limit=300,
            )
            assert vals[0] == pytest.approx(ref, abs=1e-12 + tail)


class TestMaxTermsValidation:
    # 2.5 used to leak a TypeError; 0 and -5 returned 1.0 with one term
    # and an infinite tail.
    @pytest.mark.parametrize("bad", [2.5, 3.0, np.float64(3.0), True, "3", None])
    def test_rejects_non_integer(self, bad):
        with pytest.raises(ValueError, match="max_terms must be an integer"):
            binomial_series_mean(np.array([0.5]), 1.0, 1e-10, max_terms=bad)

    @pytest.mark.parametrize("bad", [0, -5, np.int64(0)])
    def test_rejects_below_one(self, bad):
        with pytest.raises(ValueError, match="max_terms must be at least 1"):
            binomial_series_mean(np.array([0.5]), 1.0, 1e-10, max_terms=bad)

    @pytest.mark.parametrize("cap", [1, 3, 100])
    def test_accepts_numpy_integers(self, cap):
        t = np.array([0.9])
        ref_vals, ref_tail, ref_terms = binomial_series_mean(t, 0.5, 1e-12, max_terms=cap)
        for typ in (np.int32, np.int64, np.uint16):
            vals, tail, terms = binomial_series_mean(t, 0.5, 1e-12, max_terms=typ(cap))
            assert vals[0] == ref_vals[0] and tail == ref_tail
            assert type(terms) is int and terms == ref_terms == cap + 1


class TestInversionSymmetry:
    def test_examples(self):
        assert inversion_symmetry(2.0, 1.0) == (2.0, 0.5)
        assert inversion_symmetry(1.0, 0.7) == (1.0, 1.0)

    def test_identity_under_quadrature(self):
        for y, alpha in [(2.0, 1.0), (3.3, 0.4), (1.7, 1.8)]:
            scale, ry = inversion_symmetry(y, alpha)
            lhs = mean_quadrature(y, alpha, 1e-11).value
            rhs = scale * mean_quadrature(ry, alpha, 1e-11).value
            assert lhs == pytest.approx(rhs, abs=1e-9 * max(1.0, scale))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            inversion_symmetry(0.0, 1.0)


class TestHugeRadius:
    """(1 - y)^2 overflows past y ~ 1.34e154 and the inversion's y^alpha
    past 1.8e308: both raise NumericalFailure, never OverflowError."""

    @pytest.mark.parametrize("y", [1e155, 1e200, 1e300])
    def test_quadrature_and_log_mean(self, y):
        for alpha in (0.5, 1.0, 1.9):
            with pytest.raises(NumericalFailure):
                mean_quadrature(y, alpha)
        with pytest.raises(NumericalFailure):
            log_mean(y)

    @pytest.mark.parametrize("y", [1e155, 1e200, 1e300])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.9])
    def test_series(self, y, alpha):
        if alpha * math.log10(y) > 308.0:
            with pytest.raises(NumericalFailure):
                inversion_symmetry(y, alpha)
            with pytest.raises(NumericalFailure):
                mean_series(y, alpha)
        else:
            # mean = y^alpha (1 + alpha^2/(4 y^2) + ...) = y^alpha in binary64.
            assert mean_series(y, alpha)[0].value == pytest.approx(y**alpha, rel=1e-15)


class TestLogMean:
    def test_inside_disk_is_zero(self):
        assert abs(log_mean(0.5)) <= 1e-10

    def test_outside_disk_is_log_y(self):
        assert log_mean(2.0) == pytest.approx(math.log(2.0), abs=1e-10)

    def test_at_one_integrable_singularity(self):
        assert abs(log_mean(1.0)) <= 1e-10

    def test_jensen_identity_grid(self):
        ys = [0.1, 0.3, 0.5, 0.7, 0.9, 1.1, 1.5, 2.0, 3.0, 4.0]
        for y in ys:
            assert math.exp(log_mean(y)) == pytest.approx(max(1.0, y), abs=1e-8)


class TestMeanProperties:
    def test_monotone_in_y(self):
        ys = np.linspace(0.0, 4.0, 81)
        vals = [mean_quadrature(float(y), 1.3, 1e-11).value for y in ys]
        assert all(b - a >= -1e-12 for a, b in zip(vals, vals[1:]))

    def test_geometric_mean_floor(self):
        for y in (0.2, 0.9, 1.0, 1.5, 3.0):
            for alpha in (0.25, 1.0, 2.0):
                a = mean_quadrature(y, alpha, 1e-11).value
                assert a ** (1.0 / alpha) >= max(1.0, y) - 1e-9

    @settings(max_examples=60, deadline=None)
    @given(
        y=st.floats(min_value=0.0, max_value=5.0),
        alpha=st.floats(min_value=0.05, max_value=2.0),
    )
    def test_floor_property_random(self, y, alpha):
        r = mean_quadrature(y, alpha, 1e-9)
        floor = max(1.0, y) ** alpha
        assert r.value >= floor - r.error_estimate - 1e-8 * floor


def mp_power_mean(y: float, p: float):
    """(1/pi) int_0^pi |1 + y e^{i th}|^p dth at 30 digits: the Gauss
    function 2F1(-p/2, -p/2; 1; y^2) for y <= 1 and y^p times the same
    at 1/y^2 above; at p = 0 the log mean max(0, ln y) (Jensen)."""
    with mpmath.workdps(30):
        y, p = mpmath.mpf(y), mpmath.mpf(p)
        if p == 0:
            return mpmath.log(y) if y > 1 else mpmath.mpf(0)
        if y <= 1:
            return mpmath.hyp2f1(-p / 2, -p / 2, 1, y * y)
        return y**p * mpmath.hyp2f1(-p / 2, -p / 2, 1, 1 / (y * y))


def ulps(ref, n: int = 4) -> float:
    """n units in the last place of the double nearest ``ref``."""
    return n * math.ulp(float(ref))


# Offsets from y = 1 where the single pi/2 breakpoint let GK15 step over
# the feature of width |1 - y| at theta = pi: at alpha = 1 the value at
# 1 + 1.7e-5 missed tol 1e-10 by 2.6x, and every offset's error estimate
# undershot the true error 3-5x.
NEAR_ONE_OFFSETS = [1.7e-5, 7.3e-6, 1.7e-6, 3.1e-7]
NEAR_ONE = [1.0 + d for d in NEAR_ONE_OFFSETS] + [1.0 - d for d in NEAR_ONE_OFFSETS]


class TestNearOne:
    @pytest.mark.parametrize("y", NEAR_ONE)
    def test_mean_quadrature_meets_tol_and_estimate(self, y):
        tol = 1e-10
        r = mean_quadrature(y, 1.0, tol)
        ref = mp_power_mean(y, 1.0)
        miss = float(abs(r.value - ref))
        assert miss <= tol + ulps(ref)
        assert miss <= r.error_estimate + ulps(ref)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 1.9])
    def test_mean_quadrature_at_one_is_gauss_sum(self, alpha):
        # mean(1, alpha) = Gamma(1 + alpha) / Gamma(1 + alpha/2)^2.
        tol = 1e-10
        r = mean_quadrature(1.0, alpha, tol)
        with mpmath.workdps(30):
            a = mpmath.mpf(alpha)
            ref = mpmath.gamma(1 + a) / mpmath.gamma(1 + a / 2) ** 2
        miss = float(abs(r.value - ref))
        assert miss <= tol + ulps(ref)
        assert miss <= r.error_estimate + ulps(ref)

    @pytest.mark.parametrize(
        "y", NEAR_ONE + [1.0 - 2.0**-53, 1.0 + 2.0**-52], ids=lambda y: repr(y)
    )
    def test_log_mean(self, y):
        assert abs(log_mean(y, 1e-10) - float(mp_power_mean(y, 0.0))) <= 1e-10

    @pytest.mark.parametrize("r", [0.5, 0.9])
    def test_am_gm_lower_leg_at_one(self, r):
        # mean of |1 + zeta|^(-r) = Gamma(1 - r) / Gamma(1 - r/2)^2.
        lower, _, _ = am_gm_sandwich(1.0, r, 1e-10)
        ref = math.gamma(1.0 - r) / math.gamma(1.0 - 0.5 * r) ** 2
        assert lower ** -r == pytest.approx(ref, rel=1e-10)

    def test_am_gm_failure_carries_whole_lower_integral(self):
        # The failure carries the whole mean of |1 + zeta|^(-1/2),
        # Gamma(1/2) / Gamma(3/4)^2 = 1.18034..., not a piece of it.
        with pytest.raises(NumericalFailure) as exc:
            am_gm_sandwich(1.0, 0.5, tol=1e-30)
        ref = math.gamma(0.5) / math.gamma(0.75) ** 2
        assert abs(exc.value.best_estimate - ref) <= 1e-12
        assert exc.value.work > 0


# mean_series near the circle: the connection formula (Gauss's sum at
# y = 1) where its estimate clears tol, the power series elsewhere.
CONNECTION_ALPHAS = [0.05, 0.25, 0.5, 1 - 1e-7, 1 + 1e-9, 1.5, 1.9, 2 - 1e-9]
# 3 * 2^-53 is 3 ulps below 1; the doubles above 1 are twice as far apart.
CONNECTION_OFFSETS = [3 * 2.0**-53, 1e-12, 1e-8, 1e-5, 1e-3, 0.02, 0.05]
CONNECTION_YS = [1.0] + [1.0 - d for d in CONNECTION_OFFSETS] + [
    1.0 + 2.0 * d if d < 1e-15 else 1.0 + d for d in CONNECTION_OFFSETS]


def mp_mean(y: float, alpha: float):
    """mp_power_mean with the digits to hold 1 - y^2 a few ulps from y = 1."""
    with mpmath.workdps(60):
        return mp_power_mean(y, alpha)


class TestMeanSeriesNearOne:
    @pytest.mark.parametrize("alpha", CONNECTION_ALPHAS)
    @pytest.mark.parametrize("y", CONNECTION_YS, ids=repr)
    def test_within_estimate_against_mpmath(self, y, alpha):
        # Both paths' estimates count rounding.  On the power series the
        # truncation's bound is the tail alone, and the estimate adds the
        # rounding term to it.
        r, trunc = mean_series(y, alpha)
        ref = mp_mean(y, alpha)
        assert float(abs(r.value - ref)) <= r.error_estimate
        assert r.error_estimate <= DEFAULT_SERIES_TOL
        if trunc.path == "connection":
            assert trunc.tail_bound == r.error_estimate
        else:
            assert trunc.tail_bound < r.error_estimate

    @pytest.mark.parametrize("alpha", CONNECTION_ALPHAS)
    def test_work_near_one(self, alpha):
        # The power series took 12k terms to its 500k cap within 1e-3 of
        # y = 1.  The paired connection sums need at most 17 terms where
        # v <= 0.1, near alpha = 1 as elsewhere.
        for y in CONNECTION_YS:
            assert mean_series(y, alpha)[0].work <= 17, y

    @pytest.mark.parametrize("y", [1.0001, 0.9999])
    def test_rounding_term_grows_with_the_blocks(self, y):
        # At tol 1e-15 the power series sums 45 313 terms, 709 blocks, and
        # rounding takes 20.8 eps (y = 1.0001) and 8.0 eps (y = 0.9999) of
        # the value beyond the tail: up to the 8 eps that suits few blocks
        # and well over it.  alpha = 1 stays on the power series off y = 1.
        r, trunc = mean_series(y, 1.0, 1e-15)
        assert trunc.path == "power" and r.work > 45_000
        assert float(abs(r.value - mp_mean(y, 1.0))) <= r.error_estimate

    @pytest.mark.parametrize("y, alpha, tol", [
        (1.00001, 0.5, 1e-14), (1.0001, 0.5, 1e-14), (0.99999, 0.5, 1e-14),
        (1.0001, 0.999, 1e-15), (0.9999, 0.999, 1e-15)])
    def test_smaller_estimate_wins_below_tol_2e_14(self, y, alpha, tol):
        # The connection estimate (3.8e-15 and 4.5e-15 here) misses tol/4,
        # so the power series is summed as well, and it ends far worse:
        # 3.8e-13 after 396 933 terms at y = 1.00001, alpha = 0.5.  The
        # connection value, with the smaller estimate, is returned.
        r, trunc = mean_series(y, alpha, tol)
        assert trunc.path == "connection" and r.work > 17
        assert r.error_estimate <= 5e-15
        assert float(abs(r.value - mp_mean(y, alpha))) <= r.error_estimate

    @pytest.mark.parametrize("alpha", [1e-300, 1e-310, 5e-324])
    @pytest.mark.parametrize("y", [1.00001, 0.99, 1.0])
    def test_tiny_alpha(self, y, alpha):
        # At 5e-324 every connection coefficient rounds to 0, which the
        # power-sum loop read as a terminated series, and raised TypeError.
        r, _ = mean_series(y, alpha)
        assert float(abs(r.value - mp_mean(y, alpha))) <= r.error_estimate

    @pytest.mark.parametrize("alpha", [0.05, 0.5, 1.0, 1.5, 1.9])
    def test_gauss_sum_at_one(self, alpha):
        r, trunc = mean_series(1.0, alpha)
        assert float(abs(r.value - mp_mean(1.0, alpha))) <= r.error_estimate and r.work == 1
        assert trunc.path == "connection"

    @pytest.mark.parametrize("tol", [1e-14, 1e-15])
    def test_gauss_sum_at_one_for_every_tol(self, tol):
        # Gauss's sum is the answer on the circle whatever tol asks: its
        # estimate, 16 eps G, is the rounding of two gamma values.  The
        # power series took 500 002 terms here and reported 6.0e-10.
        r, trunc = mean_series(1.0, 0.05, tol)
        assert trunc.path == "connection" and r.work == 1
        assert r.error_estimate <= 3.6e-15
        assert float(abs(r.value - mp_mean(1.0, 0.05))) <= r.error_estimate

    def test_alpha_one_off_the_circle_sums_the_power_series(self):
        # alpha = 1, and the alphas where 1 + alpha rounds to 2, keep the
        # power series off the circle, although the connection formula
        # has no pole there.
        for alpha in (1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0)):
            r, trunc = mean_series(1.0 - 1e-6, alpha)
            assert trunc.path == "power"
            ref = mp_mean(1.0 - 1e-6, alpha)
            assert float(abs(r.value - ref)) <= r.error_estimate


_NEAR_ONE_Y = st.floats(min_value=-12.0, max_value=-1.0).flatmap(
    lambda u: st.sampled_from([1.0 + 10.0**u, 1.0 - 10.0**u])
)


class TestPowerMeanIntegralContract:
    """Every real exponent p in [-0.5, 2] and y near and away from the
    circle: the value lies within error_estimate + 4 ulp of mpmath, or
    NumericalFailure is raised.  At p = 0 the average cancels to 0 or
    ln y while the integrand is of order 1, so the ulps are taken of
    max(|ref|, 1) there."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        y=st.one_of(st.just(1.0), _NEAR_ONE_Y, st.floats(min_value=0.0, max_value=4.0)),
        p=st.floats(min_value=-0.5, max_value=2.0),
    )
    @example(y=1.0 + 1.7e-5, p=1.0)
    @example(y=1.0 - 1.7e-5, p=1.0)
    @example(y=1.0 + 7.3e-6, p=1.0)
    @example(y=1.0 - 7.3e-6, p=1.0)
    @example(y=1.0 + 1.7e-6, p=1.0)
    @example(y=1.0 - 1.7e-6, p=1.0)
    @example(y=1.0 + 3.1e-7, p=1.0)
    @example(y=1.0 - 3.1e-7, p=1.0)
    @example(y=1.0, p=0.0)
    @example(y=1.0, p=-0.5)
    @example(y=0.0, p=0.0)
    def test_within_estimate_or_raises(self, y, p):
        try:
            value, err, _ = power_mean_integral(y, p, 1e-10)
        except NumericalFailure:
            return
        ref = mp_power_mean(y, p)
        scale = ref if p != 0.0 else max(abs(ref), 1)
        assert float(abs(value - ref)) <= err + ulps(scale)
