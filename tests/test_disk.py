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
    _radial_weight,
    _rim_weight,
    area_integral_mean,
    inner_mean,
    inner_mean_near_one,
    lower_bound_from_area,
    radial_integral_lower,
)
from circmeans.quadrature import integrate_tanhsinh_singular

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

    # Arrays inside the series disk, 0, -0.0 and 0.9 included.
    INSIDE = [np.array([0.0]), np.array([-0.0]), np.array([0.9]),
              np.array([0.0, -0.0, 0.9, 1e-300, 1e-8, 0.01, 0.125, 0.2, 1 / 3,
                        0.5, 0.6, 0.75, 0.8, 0.875, math.nextafter(0.9, 0.0)])]

    @pytest.mark.parametrize("alpha", [0.05, 0.5, 1.0, 1.5, 1.9, 2.0])
    def test_all_inside_matches_the_general_path(self, alpha):
        # Ring points on both sides of t = 1, and t = 1.2, which joins the
        # series batch as 1/1.2, send the same points through the region
        # dispatch; the values must be the same bits.
        for t in self.INSIDE:
            general = inner_mean(np.concatenate([t, [0.95, 1.05, 1.2]]), alpha)[:t.size]
            assert np.array_equal(inner_mean(t, alpha), general), t

    @pytest.mark.parametrize("alpha", [0.05, 0.5, 1.0, 1.5, 1.9])
    @pytest.mark.parametrize("t", [0.9, 0.3, 1e-3, 1.2, 0.95, 1.05, 0.999])
    def test_one_radius_same_bits_in_any_batch(self, t, alpha):
        # Series radii (t = 0.9 at alpha = 0.05 gave ...656 alone and ...657
        # next to other radii under a BLAS product) and ring radii, whose
        # connection sums go two columns at a time.
        alone = inner_mean(np.array([t]), alpha)
        others = np.random.default_rng(7).uniform(0.0, 1.3, 14)
        others[others == 1.0] = 0.5
        for n in (2, 3, 8, 15):
            for pos in (0, n - 1):
                batch = np.insert(others[:n - 1], pos, t)
                assert np.array_equal(inner_mean(batch, alpha)[pos:pos + 1], alone), (n, pos)

    def test_nan_and_negative_inputs_take_the_general_path(self):
        assert np.isnan(inner_mean(np.array([np.nan]), 1.5)).all()
        with pytest.raises(ValueError):
            inner_mean(np.array([0.5, -1e-300]), 1.5)
        with pytest.raises(ValueError):
            inner_mean(np.array([-0.1]), 1.5)
        assert inner_mean(np.array([]), 1.5).shape == (0,)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("alpha", [1e-160, 1e-300, 1e-310, 5e-324])
    def test_near_one_tiny_alpha_within_estimate_or_numerical_failure(self, alpha):
        # (alpha/2)^2 loses digits below alpha ~ 3e-154 and rounds to 0
        # below 4e-162, and so do the coefficients after the first; for
        # subnormal alpha the steps at x = alpha overflow, which must
        # raise NumericalFailure without a RuntimeWarning first.  1e-300
        # raised TypeError and 1e-310 returned NaN.  At 40 digits the
        # mpmath value is 1/(u (2 - u)) here.
        u = np.array([0.1, 1e-8])
        try:
            values, errors = inner_mean_near_one(u, alpha, with_error=True)
        except NumericalFailure:
            return
        a = 1 - mp.mpf(alpha) / 2
        for ui, v, e in zip(u, values, errors):
            t = 1 - mp.mpf(ui)
            assert abs(mp.mpf(v) - mp.hyp2f1(a, a, 1, t * t)) <= e, (ui, v, e)


class TestRadialWeight:
    def test_all_positive_matches_the_general_path(self):
        # An r = 0 element sends the same points through the masked path.
        for r in (np.array([0.5]), np.linspace(1e-300, 1.0, 15), 0.5 + 0.5 * np.cos(np.arange(15))):
            r = r[r > 0.0]
            assert np.array_equal(_radial_weight(r), _radial_weight(np.append(r, 0.0))[:-1])

    def test_zero_nan_and_negative_give_zero(self):
        w = _radial_weight(np.array([0.5, 0.0, -0.0, np.nan, -0.5]))
        assert np.array_equal(w, [-0.5 * math.log(0.5), 0.0, 0.0, 0.0, 0.0])
        assert np.array_equal(_radial_weight(np.array([np.nan])), [0.0])
        assert _radial_weight(np.array([])).shape == (0,)


class TestRimWeight:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_at_the_centre(self):
        # Tanh-sinh samples s = 1 (r = 0), where (1 - s) ln(1/(1 - s)) is 0 * inf.
        w = _rim_weight(np.array([0.5, 1.0, math.nextafter(1.0, 0.0)]))
        assert w[1] == 0.0 and np.all(w[[0, 2]] > 0.0)

    def test_keeps_its_digits_at_the_rim(self):
        # r ln(1/r) at r = 1 - s is s - s^2/2 + ...; forming 1 - s first
        # would give 0 below s ~ 1.1e-16.
        for s in (1e-300, 1e-20, 1e-12, 1e-3):
            ref = -(1 - mp.mpf(s)) * mp.log(1 - mp.mpf(s))
            assert float(_rim_weight(np.array([s]))[0]) == pytest.approx(float(ref), rel=4e-16)


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
        # Just off it, each value is held to its own estimate: the two
        # differ by about (alpha/2) * mean * 1e-12, more than both estimates.
        for alpha in (0.25, 0.5, 1.5, 1.9):
            a = area_integral_mean(1.0, alpha, 1e-8)
            ref = mp.gamma(1 + mp.mpf(alpha)) / mp.gamma(1 + mp.mpf(alpha) / 2) ** 2
            assert abs(a.value - float(ref)) <= a.error_estimate <= 1e-8, alpha
            b = area_integral_mean(1.0 + 1e-12, alpha, 1e-8)
            assert abs(mp.mpf(b.value) - mp_mean(1.0 + 1e-12, alpha)) <= b.error_estimate <= 1e-8, alpha

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
    @pytest.mark.parametrize("y", [1.5, 2.0, 4.0, 8.0, math.nextafter(8.0, 0.0)])
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


def mp_mean(y, alpha):
    """mean(y, alpha) at 40 digits, by 2F1 and the inversion identity."""
    with mp.workdps(40):
        yy, aa = mp.mpf(y), mp.mpf(alpha)
        if yy > 1:
            return yy**aa * mp.hyp2f1(-aa / 2, -aa / 2, 1, 1 / (yy * yy))
        return mp.hyp2f1(-aa / 2, -aa / 2, 1, yy * yy)


class TestAreaBeyondEight:
    """From y = 8 on the right flank would reach the inner mean at
    u = 1/2 and past it, so the route reflects: y^alpha * mean(1/y)."""

    @pytest.mark.parametrize("tol", [1e-8, 1e-12])
    @pytest.mark.parametrize("alpha", [1e-6, 0.05, 0.5, 1.0 - 1e-7, 1.0, 1.5, 1.9, 2.0])
    def test_within_estimate_of_mpmath(self, alpha, tol):
        # The contract allows a NumericalFailure; none of these raises.
        for y in (8.0, math.nextafter(8.0, math.inf), 9.0, 13.7, 20.0, 1e3, 1e150):
            a = area_integral_mean(y, alpha, tol)
            assert abs(mp.mpf(a.value) - mp_mean(y, alpha)) <= a.error_estimate, (y, a)
            assert math.isfinite(a.error_estimate) and a.work > 0

    def test_eight_reflects_and_below_takes_the_split(self, monkeypatch):
        import circmeans.disk as disk

        flanks = []

        def counting(q, width, strength, tol):
            flanks.append(width)
            return integrate_tanhsinh_singular(q, width, strength, tol)

        monkeypatch.setattr(disk, "integrate_tanhsinh_singular", counting)
        below = math.nextafter(8.0, 0.0)
        for y, expected in [(below, [0.0625, 0.125]), (8.0, []), (math.nextafter(8.0, math.inf), [])]:
            flanks.clear()
            a = area_integral_mean(y, 0.5)
            # Below 8 the left flank is half of 1/y, a hair above 1/16.
            assert flanks == pytest.approx(expected, rel=1e-15), y
            assert abs(mp.mpf(a.value) - mp_mean(y, 0.5)) <= a.error_estimate, y

    @pytest.mark.parametrize("y", [1.05, 16.0, 1e150])
    def test_one_traced_call_per_reflected_call(self, monkeypatch, y):
        # A wrapper on the module attribute, as the benchmark's tracer
        # installs, must see the caller's call alone, not the reflected one.
        import circmeans.disk as disk

        seen = []
        unwrapped = disk.area_integral_mean

        def wrapper(*args, **kwargs):
            out = unwrapped(*args, **kwargs)
            seen.append((args[0], out.work))
            return out

        monkeypatch.setattr(disk, "area_integral_mean", wrapper)
        res = disk.area_integral_mean(y, 1.5)
        assert seen == [(y, res.work)] and res.work > 0

    @pytest.mark.parametrize("y, alpha, tol", [
        (1e200, 2.0, 1e-8),     # y^alpha overflows
        (1e300, 1.5, 1e-8),     # y^alpha overflows
        (1e300, 1.0, 1e-300),   # tol / y^alpha underflows
        (1e200, 1.0, 1e-8),     # alpha^2 / y^2 underflows at the reflected point
        (1e200, 1.5, 1e-8),
    ])
    def test_unresolvable_raises_numerical_failure_naming_y(self, y, alpha, tol):
        with pytest.raises(NumericalFailure) as exc:
            area_integral_mean(y, alpha, tol)
        assert f"y = {y!r}" in str(exc.value)
        assert repr(1.0 / y) not in str(exc.value)


class TestAreaExcess:
    """On 0 < y <= 1/8 the rule integrates (m(y r) - 1) r ln(1/r) and
    adds the moment 1/4; every call reflected from y >= 8 lands there."""

    ALPHAS = [1e-6, 1e-3, 0.03, 0.25, 0.5, 1.0 - 1e-7, 1.0, 1.5, 1.9, 2.0]
    BOUNDARY = math.nextafter(0.125, 1.0)

    @pytest.mark.parametrize("tol", [1e-8, 1e-12])
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_within_estimate_of_mpmath(self, alpha, tol):
        for y in (1e-6, 0.01, 1 / 16, 0.125, self.BOUNDARY, 0.2, 8.0, 8.0 + 1e-6, 16.0, 20.0, 1e3):
            a = area_integral_mean(y, alpha, tol)
            assert abs(mp.mpf(a.value) - mp_mean(y, alpha)) <= a.error_estimate, (y, a)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_both_sides_of_the_boundary_agree(self, alpha):
        inside, outside = area_integral_mean(0.125, alpha), area_integral_mean(self.BOUNDARY, alpha)
        assert abs(inside.value - outside.value) <= inside.error_estimate + outside.error_estimate

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 1.5, 1.9])
    @pytest.mark.parametrize("y", [9.0, 16.0, 20.0])
    def test_reflection_matches_the_inner_point(self, y, alpha):
        outer, inner = area_integral_mean(y, alpha), area_integral_mean(1.0 / y, alpha)
        scale = y**alpha
        assert abs(outer.value - scale * inner.value) <= (
            outer.error_estimate + scale * inner.error_estimate)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 1.5, 1.9])
    @pytest.mark.parametrize("y", [1e-6, 0.01, 1 / 16, 0.125, 8.0, 9.0, 16.0, 20.0])
    def test_at_most_three_panels(self, y, alpha):
        # m r ln(1/r) took up to 255 evaluations here at the default tol.
        assert area_integral_mean(y, alpha).work <= 45


def next_up(x):
    return math.nextafter(x, math.inf)


def next_down(x):
    return math.nextafter(x, 0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestAreaBand:
    """On 7/8 < y < 8/7, where 1/y lies within one flank of the rim, one
    tanh-sinh rule in s = 1 - r serves, reflected for y > 1; the split
    takes 8/7 <= y < 8."""

    ALPHAS = [1e-6, 1e-3, 0.01, 0.03, 0.05, 0.1, 0.25, 0.5, 1.0 - 1e-7, 1.0, 1.0 + 1e-7,
              1.5, 1.9, 2.0 - 1e-9, 2.0]
    LOW, HIGH = 7 / 8, 8 / 7
    BAND = [next_up(LOW), 0.97, 0.99, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12, next_down(1.0), 1.0,
            next_up(1.0), 1.0 + 1e-12, 1.0 + 1e-9, 1.0 + 1e-6, 1.01, 1.1, next_down(HIGH)]
    GRID = [LOW, *BAND, HIGH, next_up(HIGH)]
    WORK_ALPHAS = [0.25, 0.5, 1.0, 1.5, 1.9]

    @pytest.mark.parametrize("tol", [1e-8, 1e-12])
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_within_estimate_of_mpmath_or_numerical_failure(self, alpha, tol):
        # The split raises at small alpha on 8/7 and just above; the band
        # rule resolves every point (the split raised at 24 of them).
        for y in self.GRID:
            ref = mp_mean(y, alpha)
            try:
                a = area_integral_mean(y, alpha, tol)
            except NumericalFailure as exc:
                assert not self.LOW < y < self.HIGH, (y, exc)
                assert math.isfinite(exc.best_estimate), y
                assert abs(mp.mpf(exc.best_estimate) - ref) <= exc.error_estimate, (y, exc)
                continue
            assert abs(mp.mpf(a.value) - ref) <= a.error_estimate <= tol, (y, a)

    @pytest.mark.parametrize("alpha", WORK_ALPHAS)
    @pytest.mark.parametrize("outside, inside", [(LOW, next_up(LOW)), (HIGH, next_down(HIGH))])
    def test_both_sides_of_each_edge_agree(self, outside, inside, alpha):
        a, b = area_integral_mean(outside, alpha), area_integral_mean(inside, alpha)
        assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate

    def test_one_rule_of_width_one_on_the_band(self, monkeypatch):
        import circmeans.disk as disk

        widths = []

        def counting(q, width, strength, tol):
            widths.append(width)
            return integrate_tanhsinh_singular(q, width, strength, tol)

        monkeypatch.setattr(disk, "integrate_tanhsinh_singular", counting)
        for y, expected in [(next_up(self.LOW), [1.0]), (1.0 - 1e-12, [1.0]), (1.0, [1.0]),
                            (next_up(1.0), [1.0]), (next_down(self.HIGH), [1.0]),
                            (self.LOW, []), (self.HIGH, [0.125, 0.125])]:
            widths.clear()
            area_integral_mean(y, 0.5)
            assert widths == expected, y

    @pytest.mark.parametrize("alpha", WORK_ALPHAS)
    def test_at_most_150_evaluations(self, alpha):
        # The split and GK15 took 165-491 evaluations here.
        for y in self.BAND:
            assert area_integral_mean(y, alpha).work <= 150, y

    @pytest.mark.parametrize("y, alpha", [(1.05, 1e-2), (1.1, 1e-3)])
    def test_small_alpha_above_one(self, y, alpha):
        # The split's flanks raised NumericalFailure here.
        a = area_integral_mean(y, alpha)
        assert abs(mp.mpf(a.value) - mp_mean(y, alpha)) <= a.error_estimate


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestAreaSmallAlpha:
    # Reflected to the excess rule at y = 1/8, which has no flank.
    MUST_RETURN = {(8.0, 1e-6)}

    @pytest.mark.parametrize("y, alpha", [(1.0, 1e-3), (1.5, 1e-3), (4.0, 1e-3), (1.5, 1e-2),
                                          (8.0, 1e-6), (4.0, 0.03), (0.5, 1e-6)])
    def test_within_estimate_or_finite_best_estimate(self, y, alpha):
        # The flank's tanh-sinh nodes used to reach subnormal distances,
        # where the inner mean's expm1 overflowed and the rule's sum came
        # out NaN.  Below alpha ~ 0.02 most of the flank's mass lies
        # below the smallest normal double, so the route must raise.
        ref = mp_mean(y, alpha)
        try:
            a = area_integral_mean(y, alpha)
        except NumericalFailure as exc:
            assert (y, alpha) not in self.MUST_RETURN, exc
            assert math.isfinite(exc.best_estimate) and exc.error_estimate > 1e-8
            assert abs(mp.mpf(exc.best_estimate) - ref) <= exc.error_estimate
            return
        assert abs(mp.mpf(a.value) - ref) <= a.error_estimate

    def test_final_rounding_is_counted(self):
        # 1 + prefactor * radial rounds by about 7.8e-17 here, above the
        # quadrature's own estimate of 2e-17.
        a = area_integral_mean(0.5, 1e-6)
        assert abs(mp.mpf(a.value) - mp_mean(0.5, 1e-6)) <= a.error_estimate


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
