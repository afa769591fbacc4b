import math

import numpy as np
import pytest
from scipy.integrate import quad

from circmeans.core import NumericalFailure
from circmeans.quadrature import integrate_adaptive, integrate_tanhsinh_singular


def adaptive_or_best(f, a, b, tol, **kwargs):
    """integrate_adaptive's (value, error, evals), taken from the
    NumericalFailure when the kernel misses ``tol``."""
    try:
        return integrate_adaptive(f, a, b, tol, **kwargs)
    except NumericalFailure as exc:
        return exc.best_estimate, exc.error_estimate, exc.work


def test_smooth_polynomial_is_near_exact():
    value, err, n = integrate_adaptive(lambda x: x**3 - 2 * x + 1, 0.0, 2.0, 1e-12)
    assert value == pytest.approx(4.0 - 4.0 + 2.0, abs=1e-13)
    assert err <= 1e-12
    assert n >= 15


def test_oscillatory_against_quadpack():
    f = lambda x: np.cos(7.3 * x) * np.exp(-x)
    mine, err, _ = integrate_adaptive(f, 0.0, 5.0, 1e-11)
    ref, _ = quad(lambda x: math.cos(7.3 * x) * math.exp(-x), 0.0, 5.0, epsabs=1e-13)
    assert mine == pytest.approx(ref, abs=1e-10)


@pytest.mark.parametrize("p", [0.5, 0.9])
def test_endpoint_power_singularity(p):
    # int_0^1 x^(p-1) dx = 1/p, steep but integrable at 0.
    value, err, _ = adaptive_or_best(lambda x: x ** (p - 1.0), 0.0, 1.0, 1e-9)
    assert value == pytest.approx(1.0 / p, abs=5e-7)


def test_error_estimate_honest_on_bounded_steep_integrand():
    # Bounded Holder endpoints (the class the mean integrands live in):
    # the reported estimate must dominate the actual error.
    for p in (0.1, 0.35, 0.8):
        exact = 1.0 / (p + 1.0)
        value, err, _ = adaptive_or_best(lambda x, p=p: x**p, 0.0, 1.0, 1e-10)
        assert abs(value - exact) <= max(err, 1e-14)


def test_log_singularity():
    # int_0^1 ln(x) dx = -1.
    value, _, _ = adaptive_or_best(lambda x: np.log(x), 0.0, 1.0, 1e-10)
    assert value == pytest.approx(-1.0, abs=1e-9)


def test_breakpoints_are_never_sampled():
    bad = 0.37

    def f(x):
        if np.any(x == bad):
            raise AssertionError("sampled the excluded point")
        return np.abs(x - bad) ** -0.5

    value, _, _ = adaptive_or_best(f, 0.0, 1.0, 1e-6, breakpoints=(bad,))
    exact = 2.0 * (math.sqrt(bad) + math.sqrt(1.0 - bad))
    assert value == pytest.approx(exact, abs=1e-4)


def test_budget_exhaustion_raises_with_best_estimate():
    with pytest.raises(NumericalFailure) as exc:
        integrate_adaptive(lambda x: np.abs(x - 0.3) ** -0.5, 0.0, 1.0, 1e-13, max_panels=8)
    assert math.isfinite(exc.value.best_estimate)
    assert exc.value.error_estimate > 1e-13
    assert exc.value.work > 0


def test_invalid_interval():
    with pytest.raises(ValueError):
        integrate_adaptive(lambda x: x, 1.0, 0.0, 1e-6)


class TestTanhSinh:
    @pytest.mark.parametrize("p", [0.1, 0.25, 0.5, 1.0, 1.7])
    def test_pure_power(self, p):
        # int_0^W s^(p-1) ds = W^p / p.
        w = 0.37
        value, err, _ = integrate_tanhsinh_singular(lambda s: s ** (p - 1.0), w, p, 1e-12)
        assert value == pytest.approx(w**p / p, rel=1e-11)

    def test_power_times_smooth(self):
        # int_0^1 s^(-0.6) * cos(s) ds, reference from QUADPACK with split.
        ref, _ = quad(lambda s: s**-0.6 * math.cos(s), 0.0, 1.0,
                      epsabs=1e-13, epsrel=1e-13, limit=200)
        value, _, _ = integrate_tanhsinh_singular(
            lambda s: s**-0.6 * np.cos(s), 1.0, 0.4, 1e-12
        )
        assert value == pytest.approx(ref, abs=1e-10)

    def test_receives_exact_tiny_distances(self):
        # For strong singularities the rule must push nodes far below
        # the double spacing of the endpoint itself; the integrand sees
        # the exact distance, not a rounded abscissa.
        seen = {"min": 1.0}
        p = 0.25

        def q(s):
            seen["min"] = min(seen["min"], float(np.min(s)))
            return s ** (p - 1.0)

        value, _, _ = integrate_tanhsinh_singular(q, 1.0, p, 1e-12)
        assert value == pytest.approx(1.0 / p, rel=1e-11)
        assert seen["min"] < 1e-30

    def test_zero_width(self):
        assert integrate_tanhsinh_singular(lambda s: s, 0.0, 1.0, 1e-12) == (0.0, 0.0, 0)
