import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from circmeans.core import (
    BranchRegime,
    McEstimate,
    MeanResult,
    check_alpha,
    check_integer,
    check_radius,
    check_tol,
    classify_regime,
    large_branch_threshold,
    rng_from_seed,
)


def test_check_alpha_accepts_positive():
    assert check_alpha(0.5) == 0.5
    assert check_alpha(3.0) == 3.0


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_check_alpha_rejects(bad):
    with pytest.raises(ValueError):
        check_alpha(bad)


def test_check_alpha_upper():
    assert check_alpha(2.0, upper=2.0) == 2.0
    with pytest.raises(ValueError):
        check_alpha(2.0001, upper=2.0)


@pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf])
def test_check_radius_rejects(bad):
    with pytest.raises(ValueError):
        check_radius(bad)


def test_check_tol_rejects_nonpositive():
    with pytest.raises(ValueError):
        check_tol(0.0)
    with pytest.raises(ValueError):
        check_tol(-1.0)


class TestClassifyRegime:
    def test_examples(self):
        assert classify_regime(0.5, 1.0) is BranchRegime.SMALL
        assert classify_regime(math.sqrt(1.5), 1.0) is BranchRegime.MIDDLE
        assert classify_regime(2.0, 1.0) is BranchRegime.LARGE

    def test_boundaries_closed(self):
        # y^2 = 1 belongs to small, y^2 = threshold belongs to large.
        assert classify_regime(1.0, 1.3) is BranchRegime.SMALL
        thr = large_branch_threshold(1.0)  # = 2
        assert thr == 2.0
        assert classify_regime(math.sqrt(thr), 1.0) is BranchRegime.LARGE

    def test_alpha_two_has_no_large_branch(self):
        assert math.isinf(large_branch_threshold(2.0))
        for y in (0.5, 1.0, 3.0, 50.0, 1e8):
            assert classify_regime(y, 2.0) is not BranchRegime.LARGE

    def test_rejects_alpha_outside(self):
        with pytest.raises(ValueError):
            classify_regime(1.0, 2.5)
        with pytest.raises(ValueError):
            classify_regime(1.0, 0.0)

    @given(
        y=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        alpha=st.floats(min_value=1e-6, max_value=2.0, allow_nan=False),
    )
    def test_partition(self, y, alpha):
        # Exactly one branch, consistent with the threshold arithmetic.
        regime = classify_regime(y, alpha)
        t = y * y
        thr = large_branch_threshold(alpha)
        expected = (
            BranchRegime.SMALL if t <= 1.0
            else BranchRegime.LARGE if t >= thr
            else BranchRegime.MIDDLE
        )
        assert regime is expected


def test_mean_result_rejects_unknown_backend():
    with pytest.raises(ValueError):
        MeanResult(1.0, 0.0, "fft", 1)
    with pytest.raises(ValueError):
        MeanResult(1.0, -1e-3, "series", 1)


def test_mean_result_rejects_nan_estimate_accepts_inf():
    with pytest.raises(ValueError, match="error_estimate"):
        MeanResult(1.0, math.nan, "quadrature", 1)
    # A series stopped at its term cap reports an infinite tail.
    assert MeanResult(1.0, math.inf, "series", 1).error_estimate == math.inf


def test_mc_estimate_validation():
    with pytest.raises(ValueError):
        McEstimate(1.0, 0.1, 0)
    with pytest.raises(ValueError):
        McEstimate(1.0, -0.1, 10)


def test_mc_estimate_work_counts():
    est = McEstimate(1.0, 0.1, 10)
    assert (est.discarded, est.path_steps) == (0, 0)
    assert McEstimate(1.0, 0.1, 10, False, discarded=2, path_steps=30).path_steps == 30
    with pytest.raises(TypeError):
        McEstimate(1.0, 0.1, 10, False, 2)
    with pytest.raises(ValueError):
        McEstimate(1.0, 0.1, 10, discarded=-1)
    with pytest.raises(ValueError):
        McEstimate(1.0, 0.1, 10, path_steps=-1)


@pytest.mark.parametrize("good", [0, -3, 2**70, np.int64(7), np.uint64(2**64 - 1), np.int8(-1)])
def test_check_integer_accepts_integers(good):
    got = check_integer("x", good)
    assert type(got) is int and got == int(good)


@pytest.mark.parametrize("bad", [2.5, 2.0, np.float64(3.0), True, np.True_, "3", None, 1 + 0j])
def test_check_integer_rejects_non_integers(bad):
    with pytest.raises(ValueError, match="x must be an integer"):
        check_integer("x", bad)


@pytest.mark.parametrize("bad", [2.5, 2.0, np.float64(2.0), True, np.True_, "2"])
def test_rng_rejects_non_integer_seed(bad):
    # 2.5 used to give seed 2's stream, and True seed 1's.
    with pytest.raises(ValueError, match="seed must be an integer"):
        rng_from_seed(bad)
    with pytest.raises(ValueError, match="stream must be an integer"):
        rng_from_seed(2, bad)


def test_rng_accepts_numpy_and_wide_integer_seeds():
    assert np.array_equal(rng_from_seed(np.int64(5), np.int32(1)).random(4), rng_from_seed(5, 1).random(4))
    # Seeds are taken modulo 2^64.
    assert np.array_equal(rng_from_seed(2**64 + 9).random(4), rng_from_seed(9).random(4))
    assert np.array_equal(rng_from_seed(np.uint64(2**64 - 1)).random(4), rng_from_seed(-1).random(4))


def test_rng_reproducible_and_stream_separated():
    a = rng_from_seed(12345).random(5)
    b = rng_from_seed(12345).random(5)
    c = rng_from_seed(12345, stream=1).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
