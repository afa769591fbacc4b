import math
import sys

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from circmeans.core import NumericalFailure
from circmeans.quadrature import (
    _S_MIN,
    _TANHSINH_MAX_LEVEL,
    _TANHSINH_ROUNDING,
    integrate_adaptive,
    integrate_tanhsinh_singular,
)


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_error_estimate_raises():
    # A Kronrod node lands on the pole at 0.3: the panel sums go inf and
    # the estimate NaN, which `err > tol` used to let through.
    with pytest.raises(NumericalFailure) as exc:
        integrate_adaptive(lambda x: np.abs(x - 0.3) ** -0.5, 0.0, 1.0, 1e-13)
    assert math.isnan(exc.value.error_estimate)
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

    @pytest.mark.parametrize("p", [1e-3, 0.01, 0.05])
    def test_mass_below_the_smallest_normal_is_counted(self, p):
        # Below strength ~0.05 the rule's reach passes the smallest normal
        # double, where s^(p-1) can overflow the integrand's own arithmetic.
        # Those nodes are dropped and the mass they carried, a share of
        # about (2.2e-308)^p, joins the error estimate: half of the
        # integral at p = 1e-3, 8e-4 of it at p = 0.01, 4e-16 at p = 0.05.
        seen = []

        def q(s):
            seen.append(float(s.min()))
            return s ** (p - 1.0)

        exact = 0.37**p / p
        if p < 0.05:
            with pytest.raises(NumericalFailure) as exc:
                integrate_tanhsinh_singular(q, 0.37, p, 1e-9 * exact)
            assert math.isfinite(exc.value.best_estimate)
            assert abs(exc.value.best_estimate - exact) <= exc.value.error_estimate
        else:
            value, _, _ = integrate_tanhsinh_singular(q, 0.37, p, 1e-9 * exact)
            assert value == pytest.approx(exact, rel=1e-11)
        assert min(seen) >= sys.float_info.min

    @pytest.mark.parametrize("width", [1e-3, 0.37, math.pi])
    @pytest.mark.parametrize("p", [0.05, 0.06, 0.1, 0.25, 1.0, 2.0])
    def test_estimate_covers_the_rounding(self, p, width):
        # The converged change can sit below the sum's own rounding: at
        # width 0.37, p = 0.1 returned an error of 3.2e-15 against an
        # estimate of 1.8e-15.  The c eps sum |w q| term covers it.
        with mp.workdps(40):
            exact = mp.mpf(width) ** p / p
            value, err, _ = integrate_tanhsinh_singular(lambda s: s ** (p - 1.0), width, p,
                                                        1e-9 * float(exact))
            assert abs(mp.mpf(value) - exact) <= err

    def test_error_above_tol_raises(self):
        # A converged level reports max(change, 1e-16 |value|); a tol below
        # that floor must raise, not return an error above tol.
        def q(s):
            return (2.0 * np.sin(0.5 * s)) ** 0.1 / math.pi

        with pytest.raises(NumericalFailure) as info:
            integrate_tanhsinh_singular(q, math.pi, 1.1, 1e-30)
        # (1/pi) int_0^pi |1 + e^{i th}|^0.1 dth = Gamma(1.1) / Gamma(1.05)^2
        assert info.value.best_estimate == pytest.approx(math.gamma(1.1) / math.gamma(1.05) ** 2, rel=1e-13)
        assert info.value.error_estimate > 1e-30

    def test_nan_integrand_raises(self):
        with pytest.raises(NumericalFailure) as exc:
            integrate_tanhsinh_singular(lambda s: np.full_like(s, np.nan), 1.0, 1.0, 1e-10)
        assert math.isnan(exc.value.best_estimate) and math.isnan(exc.value.error_estimate)

    def test_zero_width(self):
        assert integrate_tanhsinh_singular(lambda s: s, 0.0, 1.0, 1e-12) == (0.0, 0.0, 0)


def level_by_level_tanhsinh(q, width, strength, tol):
    """The tanh-sinh rule with one integrand call per level (and one for
    the probe at the smallest normal s), as it stood before its first
    four levels went to the integrand in one call: the oracle that the
    batched rule must match bit for bit."""
    if width <= 0.0:
        return 0.0, 0.0, 0
    t_max = max(3.2, math.asinh(38.0 / (math.pi * min(max(strength, 1e-3), 2.0))))

    def level_sum(h, only_odd):
        kmax = int(math.floor(t_max / h))
        ks = np.arange(-kmax, kmax + 1)
        if only_odd:
            ks = ks[ks % 2 != 0]
        if ks.size == 0:
            return 0.0, 0.0, 0.0, 0
        tau = ks * h
        x = math.pi * np.sinh(tau)
        ex = np.exp(-np.abs(x))
        d = np.where(x >= 0.0, ex / (1.0 + ex), 1.0 / (1.0 + ex))
        w = math.pi * np.cosh(tau) * ex / (1.0 + ex) ** 2
        s = width * d
        good = (s >= _S_MIN) & (w > 0.0)
        s, w = s[good], w[good]
        out = q(s)
        vals, bounds = out if isinstance(out, tuple) else (out, None)
        wq = w * np.asarray(vals, dtype=float)
        value = h * width * float(np.sum(wq))
        bound = 0.0 if bounds is None else h * width * float(np.dot(w, bounds))
        return value, bound, h * width * float(np.abs(wq).sum()), int(s.size)

    omitted, n_eval = 0.0, 0
    if width * math.exp(-math.pi * math.sinh(t_max)) < _S_MIN:
        out = q(np.array([_S_MIN]))
        q_min = float((out[0] if isinstance(out, tuple) else out)[0])
        omitted, n_eval = abs(q_min) * _S_MIN / strength, 1

    total, bound, mass, n_first = level_sum(0.5, only_odd=False)
    n_eval += n_first
    h = 0.5
    prev = math.inf
    for level in range(1, _TANHSINH_MAX_LEVEL + 1):
        h *= 0.5
        add, add_bound, add_mass, ne = level_sum(h, only_odd=True)
        n_eval += ne
        new_total = 0.5 * total + add
        bound = 0.5 * bound + add_bound
        mass = 0.5 * mass + add_mass
        change = abs(new_total - total)
        if level >= 3 and change <= tol and abs(total - prev) <= 16.0 * tol:
            total, err = new_total, max(change, 1e-16 * abs(new_total))
            break
        prev = total
        total = new_total
    else:
        err = abs(total - prev)
    err += omitted
    if not err <= tol:
        raise NumericalFailure(
            f"tanh-sinh rule did not reach tol={tol:g} (error ~{err:.3g})",
            best_estimate=total, error_estimate=err, work=n_eval,
        )
    return total, err + bound + _TANHSINH_ROUNDING * mass, n_eval


def tanhsinh_outcome(rule, q, width, strength, tol):
    """(value, error, evals), or the message, best estimate, error and
    work of the NumericalFailure that ``rule`` raised."""
    try:
        return rule(q, width, strength, tol)
    except NumericalFailure as exc:
        return str(exc), exc.best_estimate, exc.error_estimate, exc.work


def counted(q):
    """q, and a list that gets one entry per call: the call's node count."""
    calls = []

    def wrapped(s):
        calls.append(s.size)
        return q(s)

    return wrapped, calls


class TestTanhSinhBatch:
    """Levels 0-3 always run, so they go to the integrand in one call;
    the values, estimates and evaluation counts must not move."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("with_bounds", [False, True])
    @pytest.mark.parametrize("p", [0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 1.5, 2.0])
    def test_bit_identical_to_the_level_by_level_rule(self, p, with_bounds):
        def plain(s):
            return s ** (p - 1.0) * np.cos(s)

        def paired(s):
            v = plain(s)
            return v, 1e-17 * np.abs(v) + 1e-19

        q = paired if with_bounds else plain
        for width in (1e-3, 0.37, 1.0, math.pi):
            for rel in (1e-14, 1e-9, 1e-3):
                tol = rel * width**p / p
                batched = tanhsinh_outcome(integrate_tanhsinh_singular, q, width, p, tol)
                oracle = tanhsinh_outcome(level_by_level_tanhsinh, q, width, p, tol)
                assert batched == oracle, (width, rel)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("q, width, p, tol", [
        # tol below the converged level's floor of 1e-16 |value|
        (lambda s: (2.0 * np.sin(0.5 * s)) ** 0.1 / math.pi, math.pi, 1.1, 1e-30),
        # NaN integrand: no level converges
        (lambda s: np.full_like(s, np.nan), 1.0, 1.0, 1e-10),
        # below strength 0.05 the probe's omitted mass exceeds tol
        (lambda s: s ** (0.01 - 1.0), 0.37, 0.01, 1e-9 * 0.37**0.01 / 0.01),
        (lambda s: (s ** (0.001 - 1.0), np.zeros_like(s)), 1.0, 0.001, 1e-8),
    ], ids=["below-the-floor", "nan", "probe", "probe-with-bounds"])
    def test_raising_paths_match(self, q, width, p, tol):
        oracle = tanhsinh_outcome(level_by_level_tanhsinh, q, width, p, tol)
        assert isinstance(oracle[0], str)
        assert repr(tanhsinh_outcome(integrate_tanhsinh_singular, q, width, p, tol)) == repr(oracle)

    @pytest.mark.parametrize("tol", [1e-3, 1e-9, 1e-14])
    @pytest.mark.parametrize("p", [0.01, 0.5, 1.0, 2.0])
    def test_one_call_for_the_first_four_levels(self, p, tol):
        # The oracle calls q once per level (and once for the probe); the
        # batched rule once for the probe and levels 0-3 together, then
        # once per further level.
        q = lambda s: s ** (p - 1.0) * np.exp(-s)
        batched, calls = counted(q)
        oracle, oracle_calls = counted(q)
        tanhsinh_outcome(integrate_tanhsinh_singular, batched, 1.0, p, tol)
        tanhsinh_outcome(level_by_level_tanhsinh, oracle, 1.0, p, tol)
        probe = p < 0.05
        assert oracle_calls[0] == 1 if probe else oracle_calls[0] > 1
        levels = oracle_calls[probe:]
        assert len(levels) >= 4
        assert len(calls) == len(levels) - 3
        assert calls[0] == sum(oracle_calls) - sum(levels[4:])
        assert calls[1:] == levels[4:]

    def test_converged_at_level_three_calls_once(self):
        batched, calls = counted(lambda s: s ** -0.5)
        oracle, oracle_calls = counted(lambda s: s ** -0.5)
        assert integrate_tanhsinh_singular(batched, 1.0, 0.5, 1e-3) == \
            level_by_level_tanhsinh(oracle, 1.0, 0.5, 1e-3)
        assert len(oracle_calls) == 4 and calls == [sum(oracle_calls)]
