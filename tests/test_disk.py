import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import hyp2f1

from circmeans.bounds import mid_bound
from circmeans.circle import mean_quadrature
from circmeans.core import NumericalFailure
from circmeans.disk import (
    area_integral_mean,
    inner_mean,
    inner_mean_near_one,
    lower_bound_from_area,
    radial_integral_lower,
)

mp.mp.dps = 40


def mp_inner_mean(t, alpha):
    """Arbitrary-precision oracle: 2F1(1-a/2, 1-a/2; 1; t^2)."""
    a = 1 - mp.mpf(alpha) / 2
    return float(mp.hyp2f1(a, a, 1, (mp.mpf(1) - mp.mpf(t)) ** 0 * mp.mpf(t) ** 2))


class TestInnerMean:
    def test_against_scipy_hypergeometric(self):
        # The mean of |1+t*zeta|^(beta) equals 2F1(-b/2,-b/2;1;t^2).
        ts = np.array([0.0, 0.2, 0.5, 0.85, 0.95, 1.05, 1.2, 2.0, 5.0])
        for alpha in (0.25, 0.7, 1.0, 1.3, 1.99):
            beta = alpha - 2.0
            mine = inner_mean(ts, alpha)
            for t, v in zip(ts, mine):
                if t <= 1.0:
                    ref = hyp2f1(-beta / 2, -beta / 2, 1.0, t * t)
                else:
                    ref = t**beta * hyp2f1(-beta / 2, -beta / 2, 1.0, t**-2)
                assert v == pytest.approx(ref, rel=2e-13)

    def test_alpha_two_is_one(self):
        assert np.all(inner_mean(np.array([0.0, 0.5, 1.0, 3.0]), 2.0) == 1.0)

    def test_divergence_at_circle_for_small_alpha(self):
        for alpha in (0.5, 1.0):
            with pytest.raises(ValueError):
                inner_mean(np.array([1.0]), alpha)

    def test_finite_limit_at_circle_above_one(self):
        # Gamma(alpha-1)/Gamma(alpha/2)^2 at t = 1 for alpha > 1.
        val = float(inner_mean(np.array([1.0]), 1.5)[0])
        ref = math.gamma(0.5) / math.gamma(0.75) ** 2
        assert val == pytest.approx(ref, rel=1e-14)

    def test_near_one_expansion_vs_mpmath(self):
        for alpha in (0.25, 0.5, 1.5, 1.99):
            a = 1 - mp.mpf(alpha) / 2
            for u in (0.1, 1e-3, 1e-8, 1e-12):
                t = 1 - mp.mpf(u)
                ref = float(mp.hyp2f1(a, a, 1, t * t))
                mine = float(inner_mean_near_one(np.array([u]), alpha)[0])
                assert mine == pytest.approx(ref, rel=1e-12)

    def test_near_one_degenerate_alpha_one(self):
        a = mp.mpf(1) / 2
        for u in (0.05, 1e-4, 1e-10):
            t = 1 - mp.mpf(u)
            ref = float(mp.hyp2f1(a, a, 1, t * t))
            mine = float(inner_mean_near_one(np.array([u]), 1.0)[0])
            assert mine == pytest.approx(ref, rel=1e-12)

    def test_near_one_survives_extreme_distances(self):
        # Far below double spacing of 1.0: the expansion must stay finite
        # and keep the leading u^(alpha-1) growth.
        v1 = float(inner_mean_near_one(np.array([1e-200]), 0.25)[0])
        v2 = float(inner_mean_near_one(np.array([1e-220]), 0.25)[0])
        assert math.isfinite(v1) and math.isfinite(v2)
        assert v2 / v1 == pytest.approx(10.0 ** (20 * 0.75), rel=1e-9)

    @pytest.mark.parametrize("alpha", [0.5, 1.0 - 1e-7, 1.0 + 1e-7, 1.0 - 5e-10, 1.0, 1.5])
    def test_near_one_error_bounds_the_error(self, alpha):
        # The connection formula's own estimate of tails plus rounding.
        u = np.array([1e-17, 1e-10, 1e-5, 1e-3, 0.01, 0.1, 0.3, 0.5])
        values, errors = inner_mean_near_one(u, alpha, with_error=True)
        assert np.array_equal(values, inner_mean_near_one(u, alpha))
        a = 1 - mp.mpf(alpha) / 2
        for ui, v, e in zip(u, values, errors):
            t = 1 - mp.mpf(ui)
            assert abs(mp.mpf(v) - mp.hyp2f1(a, a, 1, t * t)) <= e, (ui, e)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            inner_mean(np.array([-0.1]), 1.0)
        with pytest.raises(ValueError):
            inner_mean(np.array([0.5, -0.1]), 1.0)
        for u in ([0.0], [-1e-300], [0.7], [0.1, 0.0], [0.1, math.nextafter(0.5, 1.0)]):
            with pytest.raises(ValueError):
                inner_mean_near_one(np.array(u), 1.0)

    @pytest.mark.parametrize("alpha", [1e-160, 1e-300, 1e-310, 5e-324])
    def test_near_one_tiny_alpha_within_estimate_or_numerical_failure(self, alpha):
        # (alpha/2)^2 loses digits below alpha ~ 3e-154 and rounds to 0
        # below 4e-162, and so do the coefficients after the first; for
        # subnormal alpha the steps at x = alpha overflow.  1e-300 raised
        # TypeError and 1e-310 returned NaN.  At 40 digits the mpmath
        # value is 1/(u (2 - u)) here.
        u = np.array([0.1, 1e-8])
        try:
            values, errors = inner_mean_near_one(u, alpha, with_error=True)
        except NumericalFailure:
            return
        a = 1 - mp.mpf(alpha) / 2
        for ui, v, e in zip(u, values, errors):
            t = 1 - mp.mpf(ui)
            assert abs(mp.mpf(v) - mp.hyp2f1(a, a, 1, t * t)) <= e, (ui, v, e)


class TestAreaIntegralMean:
    @pytest.mark.parametrize("y", [0.0, 0.25, 1.0, 2.5, 4.0])
    def test_alpha_two_closed_form(self, y):
        # Inner mean is identically 1 and int r ln(1/r) dr = 1/4.
        r = area_integral_mean(y, 2.0, 1e-10)
        assert r.value == pytest.approx(1.0 + y * y, abs=1e-10)

    def test_y_zero(self):
        r = area_integral_mean(0.0, 1.0)
        assert r.value == 1.0 and r.error_estimate == 0.0

    def test_reference_point_against_quadrature(self):
        a = area_integral_mean(0.8, 1.0, 1e-8)
        q = mean_quadrature(0.8, 1.0, 1e-10)
        assert abs(a.value - q.value) <= 1e-7
        assert a.work > 0

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 1.5, 2.0])
    def test_agrees_with_quadrature_across_grid(self, alpha):
        for y in (0.1, 0.5, 0.9, 1.0, 1.1, 2.0, 4.0):
            a = area_integral_mean(y, alpha, 1e-8)
            q = mean_quadrature(y, alpha, 1e-11)
            assert abs(a.value - q.value) <= 1e-7, (y, alpha)

    def test_interior_singularity_never_sampled(self):
        # y > 1 puts the divergent radius 1/y inside the domain; for
        # alpha <= 1 any exact hit would raise.  A scan across many y
        # exercising both singular pieces must stay clean.
        for y in np.linspace(1.05, 3.95, 30):
            r = area_integral_mean(float(y), 0.5, 1e-7)
            assert math.isfinite(r.value)

    def test_error_estimate_honest(self):
        for y, alpha in [(0.3, 0.7), (1.5, 0.25), (2.0, 1.0), (0.97, 1.3)]:
            a = area_integral_mean(y, alpha, 1e-8)
            q = mean_quadrature(y, alpha, 1e-12)
            assert abs(a.value - q.value) <= a.error_estimate + 1e-11
        # On the circle, Gauss's sum gives the mean exactly:
        # Gamma(1 + alpha) / Gamma(1 + alpha/2)^2.
        for alpha in (0.25, 0.5, 1.5, 1.9):
            a = area_integral_mean(1.0, alpha, 1e-8)
            ref = mp.gamma(1 + mp.mpf(alpha)) / mp.gamma(1 + mp.mpf(alpha) / 2) ** 2
            assert abs(a.value - float(ref)) <= a.error_estimate <= 1e-8, alpha
            b = area_integral_mean(1.0 + 1e-12, alpha, 1e-8)
            assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate, alpha

    @pytest.mark.parametrize("alpha", [0.05, 0.1])
    @pytest.mark.parametrize("y", [1.0 + 1e-12, 1.0 + 1e-14])
    def test_small_alpha_just_above_one(self, y, alpha):
        # At alpha = 0.05 the tanh-sinh flank's outermost nodes used to
        # underflow to s = width * d = 0 and reach the near-one expansion,
        # which raised ValueError.
        a = area_integral_mean(y, alpha, 1e-8)
        with mp.workdps(40):
            yy, aa = mp.mpf(y), mp.mpf(alpha)
            ref = yy**aa * mp.hyp2f1(-aa / 2, -aa / 2, 1, 1 / (yy * yy))
        assert abs(a.value - float(ref)) <= a.error_estimate <= 1e-8

    @pytest.mark.parametrize("alpha", [1.0 - 1e-7, 1.0 + 1e-7, 1.0 - 5e-10])
    @pytest.mark.parametrize("y", [1.5, 2.0, 4.0, 8.0])
    def test_flanks_count_the_inner_mean_error(self, y, alpha):
        # The flanks integrate the inner mean's own error bound alongside
        # its value.  Near alpha = 1 that bound stays at the rounding
        # level of alpha = 1, so the area estimate still meets tol.
        a = area_integral_mean(y, alpha, 1e-8)
        yy, aa = mp.mpf(y), mp.mpf(alpha)
        ref = yy**aa * mp.hyp2f1(-aa / 2, -aa / 2, 1, 1 / (yy * yy))
        assert abs(mp.mpf(a.value) - ref) <= a.error_estimate <= 1e-8

    def test_rejects_alpha_above_two(self):
        with pytest.raises(ValueError):
            area_integral_mean(0.5, 2.5)

    @pytest.mark.parametrize("y, alpha", [(1.5, 1e-160), (1.5, 1e-200), (0.5, 1e-17),
                                          (1e-200, 1.0), (1.5, 1e-310)])
    def test_tiny_alpha_or_y_within_estimate_or_numerical_failure(self, y, alpha):
        # alpha - 2 rounds to -2 below alpha ~ 2.2e-16 (ValueError from the
        # series) and alpha^2 y^2 underflows to 0 (ZeroDivisionError).
        try:
            a = area_integral_mean(y, alpha)
        except NumericalFailure:
            return
        yy, aa = mp.mpf(y), mp.mpf(alpha)
        ref = (yy**aa * mp.hyp2f1(-aa / 2, -aa / 2, 1, 1 / (yy * yy)) if y > 1
               else mp.hyp2f1(-aa / 2, -aa / 2, 1, yy * yy))
        assert abs(mp.mpf(a.value) - ref) <= a.error_estimate


class TestRadialIntegralLower:
    def test_quarter_inside_disk(self):
        # For y <= 1 the min is 1 and the weight integrates to exactly 1/4.
        for y, alpha in [(0.7, 1.3), (0.2, 0.4), (1.0, 1.0)]:
            assert radial_integral_lower(y, alpha) == 0.25

    def test_frozen_closed_form_values(self):
        # 30-digit references for the two-piece closed form.
        assert radial_integral_lower(2.0, 1.0) == pytest.approx(
            0.22585660243000683632, abs=1e-15
        )
        assert radial_integral_lower(3.0, 0.5) == pytest.approx(
            0.17003164414148273745, abs=1e-15
        )

    def test_continuous_across_one(self):
        for alpha in (0.3, 1.0, 1.7, 2.0):
            below = radial_integral_lower(1.0 - 1e-12, alpha)
            above = radial_integral_lower(1.0 + 1e-12, alpha)
            assert below == pytest.approx(above, abs=1e-10)
            assert below == pytest.approx(0.25, abs=1e-10)

    def test_bounded_by_quarter_and_positive(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            y = float(rng.uniform(0.01, 6.0))
            alpha = float(rng.uniform(0.05, 2.0))
            v = radial_integral_lower(y, alpha)
            assert 0.0 < v <= 0.25

    def test_matches_brute_force_quadrature(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            y = float(rng.uniform(0.05, 5.0))
            alpha = float(rng.uniform(0.1, 2.0))
            pts = [1.0 / y] if y > 1.0 else []
            ref, _ = quad(
                lambda r: min(1.0, (y * r) ** (alpha - 2.0)) * r * math.log(1.0 / r)
                if r > 0 else 0.0,
                0.0, 1.0, points=pts, epsabs=1e-12, epsrel=1e-12, limit=200,
            )
            mine = radial_integral_lower(y, alpha)
            assert mine == pytest.approx(ref, abs=1e-9)

    def test_rejects_y_zero(self):
        with pytest.raises(ValueError):
            radial_integral_lower(0.0, 1.0)

    @pytest.mark.parametrize("y", [1e155, 1e200, 1e300])
    @pytest.mark.parametrize("alpha", [0.5, 1.9, 2.0])
    def test_huge_y_where_y_alpha_overflows(self, y, alpha):
        with mp.workdps(30):
            a, yy = mp.mpf(alpha), mp.mpf(y)
            ref = (1 + 2 * mp.log(yy)) / (4 * yy**2) + yy ** (a - 2) * (
                1 / a**2 - (1 + a * mp.log(yy)) / (a**2 * yy**a))
        assert radial_integral_lower(y, alpha) == pytest.approx(float(ref), rel=1e-13)


class TestLowerBoundFromArea:
    def test_small_branch_value(self):
        assert lower_bound_from_area(0.5, 1.0) == pytest.approx(1.0625, abs=1e-15)
        assert lower_bound_from_area(0.5, 1.0) == mid_bound(0.5, 1.0)

    def test_y_zero(self):
        assert lower_bound_from_area(0.0, 1.3) == 1.0

    def test_equals_mid_bound_small_and_middle(self):
        for alpha in (0.3, 0.9, 1.5, 2.0):
            thr = math.inf if alpha == 2.0 else (1.0 - alpha / 2.0) ** -1
            for t in (0.2, 0.9, 1.0):
                y = math.sqrt(t)
                assert lower_bound_from_area(y, alpha) == pytest.approx(
                    mid_bound(y, alpha), rel=1e-13
                )
            if math.isfinite(thr):
                y_mid = math.sqrt(0.5 * (1.0 + thr))
                assert lower_bound_from_area(y_mid, alpha) == pytest.approx(
                    mid_bound(y_mid, alpha), rel=1e-13
                )

    def test_dominates_mid_bound_at_large_threshold(self):
        # At t = (1 - beta)^(-1) the area bound exceeds t^beta by
        # beta^2 - beta(1-beta) ln(1/(1-beta)) >= 0.
        for alpha in (0.3, 1.0, 1.9):
            thr = (1.0 - alpha / 2.0) ** -1
            y = math.sqrt(thr)
            assert lower_bound_from_area(y, alpha) >= mid_bound(y, alpha) - 1e-12

    def test_falls_below_mid_bound_deep_in_large_branch(self):
        # Far beyond the threshold the -ln t term wins and the area route
        # is genuinely weaker than the Jensen floor t^(alpha/2); that is
        # why the large branch is not proved through the area integral.
        alpha = 0.3
        beta = alpha / 2.0
        t = math.exp(2.0 * beta / (1.0 - beta))       # ln t twice the crossover
        y = math.sqrt(t)
        assert lower_bound_from_area(y, alpha) < mid_bound(y, alpha)
        # ... while still lower-bounding the mean itself.
        assert lower_bound_from_area(y, alpha) <= mean_quadrature(y, alpha, 1e-11).value

    def test_is_true_lower_bound_for_the_mean(self):
        for alpha in (0.25, 1.0, 1.75):
            for y in (0.3, 0.9, 1.4, 3.0):
                mean = area_integral_mean(y, alpha, 1e-8)
                assert lower_bound_from_area(y, alpha) <= mean.value + mean.error_estimate + 1e-8
