import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from circmeans.core import (
    BranchRegime,
    McEstimate,
    MeanResult,
    check_alpha,
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


def test_rng_reproducible_and_stream_separated():
    a = rng_from_seed(12345).random(5)
    b = rng_from_seed(12345).random(5)
    c = rng_from_seed(12345, stream=1).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
