import math

import mpmath as mp
import numpy as np
import pytest

import circmeans.constants as constants
from circmeans.circle import mean_quadrature
from circmeans.constants import (
    Witness,
    best_constant_estimate,
    curvature_gap,
    lambda_profile,
    second_derivative_at_zero,
    sharpness_witness,
    verify_inequality,
)
from circmeans.core import NumericalFailure


def brute_force_margin(x: complex, y: complex, alpha: float, lam: float, n: int = 200_000) -> float:
    """Unreduced oracle: trapezoidal mean of |x + zeta y|^alpha over the
    full circle (spectrally accurate for the smooth periodic integrand)."""
    th = 2.0 * math.pi * np.arange(n) / n
    vals = np.abs(x + np.exp(1j * th) * y) ** alpha
    rhs = float(np.mean(vals)) ** (1.0 / alpha)
    lhs = math.sqrt(max(abs(x) ** 2 + lam * abs(y) ** 2, 0.0))
    return rhs - lhs


def mp_violation(alpha: float, lam: float, y: float):
    """(1 + lam*y^2)^(alpha/2) - mean(y, alpha) in 40-digit mpmath, y <= 1."""
    with mp.workdps(40):
        a, t = mp.mpf(alpha), mp.mpf(y) ** 2
        return (1 + mp.mpf(lam) * t) ** (a / 2) - mp.hyp2f1(-a / 2, -a / 2, 1, t)


class TestLambdaProfile:
    def test_frozen_value_at_one(self):
        # mean(1, 1) = 4/pi, so the profile value is 16/pi^2 - 1.
        assert lambda_profile(1.0, 1.0) == pytest.approx(0.6211389382774043431, abs=1e-12)

    def test_alpha_two_is_identically_one(self):
        # Division by y^2 amplifies the ~1e-15 quadrature noise at tiny y.
        for y in (1e-4, 0.3, 1.0, 7.0):
            assert lambda_profile(2.0, y) == pytest.approx(1.0, abs=1e-7)
        assert lambda_profile(2.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_small_y_limit_is_half_alpha(self):
        for alpha in (0.25, 1.0, 1.7):
            val = lambda_profile(alpha, 1e-4)
            assert val == pytest.approx(0.5 * alpha, abs=1e-6)
            # flat to second order: the profile sits above alpha/2, up to
            # the amplified quadrature noise floor
            assert val >= 0.5 * alpha - 1e-7

    def test_observed_monotone_in_y(self):
        # Exploratory check, not a proven fact: on these grids the
        # profile never decreases.  A failure here is a finding to
        # report, not automatically a bug.
        for alpha in (0.5, 1.0, 1.9):
            ys = np.geomspace(1e-3, 8.0, 40)
            vals = [lambda_profile(alpha, float(y)) for y in ys]
            assert all(b - a >= -1e-7 for a, b in zip(vals, vals[1:]))

    def test_profile_above_half_alpha_on_grid(self):
        for alpha in (0.25, 1.0, 2.0):
            for y in np.geomspace(1e-3, 6.0, 25):
                assert lambda_profile(alpha, float(y)) >= 0.5 * alpha - 1e-8

    def test_above_two_tends_to_one_from_above(self):
        vals = [lambda_profile(3.0, y) for y in (1.0, 3.0, 10.0, 30.0)]
        assert all(v > 1.0 for v in vals)
        assert vals == sorted(vals, reverse=True)
        assert vals[-1] == pytest.approx(1.0, abs=1e-3)

    def test_rejects_y_zero(self):
        with pytest.raises(ValueError):
            lambda_profile(1.0, 0.0)


class TestSecondDerivative:
    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 1.0, 1.5, 2.0])
    def test_equals_half_alpha_squared(self, alpha):
        val = second_derivative_at_zero(alpha)
        assert val == pytest.approx(0.5 * alpha * alpha, rel=1e-6)

    def test_specific_values(self):
        assert second_derivative_at_zero(1.0) == pytest.approx(0.5, rel=1e-9)
        assert second_derivative_at_zero(2.0) == pytest.approx(2.0, rel=1e-9)
        assert second_derivative_at_zero(0.5) == pytest.approx(0.125, rel=1e-9)


class TestBestConstant:
    def test_alpha_one_converges_to_half(self):
        grid = np.geomspace(1e-4, 4.0, 40)
        rep = best_constant_estimate(1.0, grid)
        assert rep.lambda_inf == pytest.approx(0.5, abs=1e-4)
        assert rep.argmin_y == grid[0]
        assert rep.second_derivative == pytest.approx(0.5, rel=1e-9)

    def test_alpha_two_flat_profile(self):
        grid = np.geomspace(1e-3, 4.0, 20)
        rep = best_constant_estimate(2.0, grid)
        assert rep.lambda_inf == pytest.approx(1.0, abs=1e-8)

    def test_above_two_minimum_at_far_end(self):
        grid = np.geomspace(1e-3, 50.0, 40)
        rep = best_constant_estimate(3.0, grid)
        assert rep.argmin_y == grid[-1]
        assert rep.lambda_inf == pytest.approx(1.0, abs=1e-3)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            best_constant_estimate(1.0, np.array([0.5]))
        with pytest.raises(ValueError):
            best_constant_estimate(1.0, np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            best_constant_estimate(1.0, np.array([1.0, 0.5]))


class TestSharpnessWitness:
    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 1.0, 1.5, 2.0])
    def test_finds_violation_just_above_half_alpha(self, alpha):
        w = sharpness_witness(alpha, 0.5 * alpha + 1e-3)
        assert isinstance(w, Witness)
        assert w.violation > 0.0
        assert 2.0**-30 <= w.y <= 1.0
        # the violation really is a violation of the reduced inequality
        b = (1.0 + w.lam * w.y**2) ** (0.5 * alpha)
        a = mean_quadrature(w.y, alpha, 1e-13).value
        assert b > a

    def test_alpha_two_large_candidate(self):
        w = sharpness_witness(2.0, 1.1)
        assert w.violation > 0.0

    def test_rejects_candidate_at_threshold(self):
        with pytest.raises(ValueError):
            sharpness_witness(1.0, 0.5)
        # An excess of 5e-5 is well inside the search's reach.
        w = sharpness_witness(1.0, 0.50005)
        assert mp_violation(1.0, w.lam, w.y) > 0

    def test_no_violation_at_half_alpha_down_to_2_pow_30(self):
        # The search criterion itself, applied at lambda = alpha/2, must
        # stay silent at every candidate radius.
        for alpha in (0.5, 1.0, 2.0):
            lam = 0.5 * alpha
            for k in range(31):
                y = 2.0**-k
                r = mean_quadrature(y, alpha, 1e-13)
                rhs = math.expm1(0.5 * alpha * math.log1p(lam * y * y))
                violation = rhs - (r.value - 1.0)
                assert violation <= 2.0 * r.error_estimate + 1e-13


WITNESS_ALPHAS = [0.05, 0.1, 0.25, 0.5, 1.0, 1.5, 1.9, 2.0]
# (y, violation) at excess 1e-3 from the earlier search, which stopped at
# a fixed margin of 1e-4 and after 30 halvings; the bound-based stop
# must find the same points.
WITNESSES_AT_1E_3 = {
    0.05: (0.25, 9.338538296121081e-07),
    0.1: (0.25, 6.205847528171083e-07),
    0.25: (0.125, 1.006768246198601e-06),
    0.5: (0.125, 3.1030066047427543e-07),
    1.0: (0.0625, 1.236194708545673e-06),
    1.5: (0.0625, 1.9896606492948027e-06),
    1.9: (0.125, 9.488817592677792e-06),
    2.0: (1.0, 0.0009999999999998899),
}


class TestWitnessReach:
    """The search ends where the violation bound (alpha/2)(lam - alpha/2)y^2
    falls to the noise floor, not at a fixed margin or halving count."""

    @pytest.mark.parametrize("excess", [1e-3, 1e-4, 1e-5, 1e-6])
    @pytest.mark.parametrize("alpha", WITNESS_ALPHAS)
    def test_witness_confirmed_by_mpmath(self, alpha, excess):
        lam = 0.5 * alpha + excess
        w = sharpness_witness(alpha, lam)
        ref = mp_violation(alpha, lam, w.y)
        assert ref > 0
        assert abs(w.violation - float(ref)) <= 1e-13
        if excess == 1e-3:
            assert (w.y, w.violation) == WITNESSES_AT_1E_3[alpha]

    @pytest.mark.parametrize("alpha", WITNESS_ALPHAS[:-1])
    def test_past_the_reach_fails_after_few_halvings(self, alpha, monkeypatch):
        radii = []

        def counting(y, a, tol):
            radii.append(y)
            return mean_quadrature(y, a, tol)

        monkeypatch.setattr(constants, "mean_quadrature", counting)
        with pytest.raises(NumericalFailure):
            sharpness_witness(alpha, 0.5 * alpha + 1e-9)
        assert len(radii) < 30

    def test_alpha_two_finds_y_one_at_tiny_excess(self):
        # At alpha = 2 the violation is exactly (lam - 1) y^2.
        w = sharpness_witness(2.0, 1.0 + 1e-9)
        assert w.y == 1.0

    @pytest.mark.parametrize("alpha", WITNESS_ALPHAS)
    def test_only_lambda_up_to_half_alpha_is_rejected(self, alpha):
        for lam in (0.5 * alpha, 0.5 * alpha - 1e-3, 0.0):
            with pytest.raises(ValueError):
                sharpness_witness(alpha, lam)
        with pytest.raises(NumericalFailure):
            sharpness_witness(alpha, math.nextafter(0.5 * alpha, math.inf))


class TestCurvatureGap:
    def test_sign_tracks_candidate(self):
        assert curvature_gap(1.0, 0.5) == 0.0
        assert curvature_gap(1.0, 0.6) > 0.0
        assert curvature_gap(1.0, 0.4) < 0.0


class TestVerifyInequality:
    def test_trivial_cases(self):
        assert verify_inequality(1.0, 0.0, 1.0, 0.5) == 0.0
        margin = verify_inequality(0.0, 1.0 + 2.0j, 1.0, 0.5)
        assert margin == pytest.approx(abs(1 + 2j) * (1.0 - math.sqrt(0.5)), rel=1e-12)

    def test_generic_pair_nonnegative(self):
        margin = verify_inequality(3.0 + 4.0j, 1.0 - 1.0j, 1.5, 0.75)
        assert margin >= 0.0

    def test_matches_brute_force(self):
        for x, y, alpha, lam in [
            (3.0 + 4.0j, 1.0 - 1.0j, 1.5, 0.75),
            (1.0, 0.4j, 0.7, 0.3),
            (-2.0 + 1.0j, 3.0 + 0.5j, 1.0, 0.5),
        ]:
            mine = verify_inequality(x, y, alpha, lam)
            ref = brute_force_margin(x, y, alpha, lam)
            assert mine == pytest.approx(ref, abs=1e-7)

    def test_rotation_and_scale_invariance(self):
        rng = np.random.default_rng(99)
        x, y, alpha, lam = 1.3 - 0.2j, 0.4 + 0.9j, 1.2, 0.55
        base = verify_inequality(x, y, alpha, lam)
        for _ in range(6):
            c = complex(rng.normal(), rng.normal())
            if abs(c) < 1e-3:
                continue
            scaled = verify_inequality(c * x, c * y, alpha, lam)
            assert scaled / abs(c) == pytest.approx(base, abs=1e-9)

    def test_margin_nonnegative_random_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            x = complex(rng.normal(), rng.normal())
            y = complex(rng.normal(), rng.normal())
            alpha = float(rng.uniform(0.1, 2.0))
            lam = 0.5 * alpha * float(rng.uniform(0.0, 1.0))
            assert verify_inequality(x, y, alpha, lam) >= -1e-10

    def test_rejects_lambda_above_half_alpha(self):
        with pytest.raises(ValueError):
            verify_inequality(1.0, 1.0, 1.0, 0.51)

    def test_rejects_alpha_above_two(self):
        with pytest.raises(ValueError):
            verify_inequality(1.0, 1.0, 2.3, 1.0)
