import math
import multiprocessing
import os
import pickle
import select
import signal
import subprocess
import sys
import textwrap
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.stats import kstest

from circmeans.circle import mean_quadrature
from circmeans.core import NumericalFailure, rng_from_seed
from circmeans.disk import area_integral_mean
import circmeans.stochastic as stochastic
from circmeans.stochastic import (
    PathConfig,
    _gaussian_increments,
    green_radius_cdf,
    mc_area_mean,
    occupation_bias_allowance,
    occupation_time_mc,
    sample_green_points,
    variance_flag,
)


class TestGreenSampler:
    def test_cdf_endpoints_and_monotonicity(self):
        r = np.linspace(0.0, 1.0, 1001)
        c = green_radius_cdf(r)
        assert c[0] == 0.0
        assert c[-1] == 1.0
        assert np.all(np.diff(c) > 0.0)

    def test_radius_distribution_kolmogorov_smirnov(self):
        # Radii sqrt(U1 U2) against the radial CDF r^2 (1 - 2 ln r).
        r = np.abs(sample_green_points(rng_from_seed(19), 100_000))
        assert kstest(r, green_radius_cdf).pvalue > 1e-3

    def test_samples_inside_disk(self):
        z = sample_green_points(rng_from_seed(3), 10_000)
        assert np.all(np.abs(z) < 1.0)

    def test_second_moment(self):
        # E|z|^2 = int_0^1 r^2 * 4 r ln(1/r) dr = 1/4.
        z = sample_green_points(rng_from_seed(101), 1_000_000)
        m2 = np.abs(z) ** 2
        se = np.std(m2, ddof=1) / math.sqrt(m2.size)
        assert abs(np.mean(m2) - 0.25) <= 3.0 * se

    def test_fourth_moment(self):
        # E|z|^4 = int_0^1 r^4 * 4 r ln(1/r) dr = 1/9.
        z = sample_green_points(rng_from_seed(202), 1_000_000)
        m4 = np.abs(z) ** 4
        se = np.std(m4, ddof=1) / math.sqrt(m4.size)
        assert abs(np.mean(m4) - 1.0 / 9.0) <= 3.0 * se

    def test_angular_symmetry(self):
        z = sample_green_points(rng_from_seed(7), 500_000)
        se = np.std(z.real, ddof=1) / math.sqrt(z.size)
        assert abs(np.mean(z.real)) <= 4.0 * se
        assert abs(np.mean(z.imag)) <= 4.0 * se

    def test_reproducible(self):
        a = sample_green_points(rng_from_seed(42), 1000)
        b = sample_green_points(rng_from_seed(42), 1000)
        assert np.array_equal(a, b)


class TestMcAreaMean:
    def test_alpha_two_zero_variance(self):
        for y in (0.0, 0.5, 2.0):
            est = mc_area_mean(y, 2.0, 5_000, rng_from_seed(1))
            assert est.mean == pytest.approx(1.0 + y * y, abs=1e-12)
            assert est.stderr == 0.0
            assert not est.variance_warning

    def test_against_quadrature(self):
        est = mc_area_mean(0.5, 1.0, 1_000_000, rng_from_seed(12))
        ref = mean_quadrature(0.5, 1.0, 1e-12).value
        assert abs(est.mean - ref) <= 3.0 * est.stderr
        assert not est.variance_warning

    def test_against_area_backend(self):
        est = mc_area_mean(0.7, 1.3, 400_000, rng_from_seed(13))
        ref = area_integral_mean(0.7, 1.3, 1e-9)
        assert abs(est.mean - ref.value) <= 3.0 * est.stderr + ref.error_estimate

    def test_variance_warning_flag(self):
        assert mc_area_mean(2.0, 0.5, 2_000, rng_from_seed(2)).variance_warning
        assert variance_flag(1.0, 1.0)
        assert not variance_flag(0.99, 1.0)
        assert not variance_flag(1.5, 1.01)

    def test_reproducible(self):
        a = mc_area_mean(0.5, 1.0, 10_000, rng_from_seed(5))
        b = mc_area_mean(0.5, 1.0, 10_000, rng_from_seed(5))
        assert a == b

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            mc_area_mean(0.5, 1.0, 999, rng_from_seed(0))


class TestPathConfig:
    def test_defaults(self):
        cfg = PathConfig()
        assert cfg.dt == 1e-3
        assert cfg.steps_budget == 8000

    def test_rejects_large_dt(self):
        with pytest.raises(ValueError):
            PathConfig(dt=2e-3)
        with pytest.raises(ValueError):
            PathConfig(dt=0.0)
        with pytest.raises(ValueError):
            PathConfig(max_steps=0)

    @pytest.mark.parametrize("bad", [2.5, 2.0, np.float64(3.0), True, np.True_, "3"])
    def test_rejects_non_integer_max_steps(self, bad):
        # 2.5 used to become a budget of 2, and True a budget of 1.
        with pytest.raises(ValueError, match="max_steps must be an integer"):
            PathConfig(max_steps=bad)

    def test_accepts_numpy_integer_max_steps(self):
        assert PathConfig(max_steps=np.int64(3)).steps_budget == 3

    @pytest.mark.parametrize("bad", [2.7, 2.0, np.float64(2.0), True, np.True_, "2", None])
    def test_rejects_non_integer_seed(self, bad):
        # 2.7 used to run seed 2's paths.
        with pytest.raises(ValueError, match="seed must be an integer"):
            PathConfig(seed=bad)

    @pytest.mark.parametrize("good", [np.int64(3), np.uint64(2**63 + 5), 2**63 + 5, -1])
    def test_accepts_integer_seeds(self, good):
        assert PathConfig(seed=good).seed == good


class TestSampleCountValidation:
    BAD = [1e4, 10_000.0, np.float64(1e4), True, "10000"]

    @pytest.mark.parametrize("bad", BAD)
    def test_occupation_rejects_non_integer_n(self, bad):
        with pytest.raises(ValueError, match="n must be an integer"):
            occupation_time_mc(0.5, 1.5, PathConfig(), bad)

    @pytest.mark.parametrize("bad", BAD)
    def test_green_rejects_non_integer_n(self, bad):
        with pytest.raises(ValueError, match="n must be an integer"):
            mc_area_mean(0.5, 1.5, bad, rng_from_seed(0))

    def test_numpy_integer_n(self):
        a = mc_area_mean(0.5, 1.5, np.int64(1_000), rng_from_seed(5))
        b = mc_area_mean(0.5, 1.5, 1_000, rng_from_seed(5))
        assert a == b and type(a.n) is int


class TestGaussianIncrements:
    """The Box-Muller helper behind every occupation-time step."""

    N = 1_000_000
    DT = 1e-3

    @pytest.fixture(scope="class")
    def draws(self):
        return _gaussian_increments(rng_from_seed(2024), self.N, self.DT)

    def test_shapes_and_dtype(self, draws):
        for d in draws:
            assert d.shape == (self.N,) and d.dtype == np.float64

    @pytest.mark.parametrize("axis", [0, 1])
    def test_coordinates_standard_normal(self, draws, axis):
        assert kstest(draws[axis] / math.sqrt(self.DT), "norm").pvalue > 1e-3

    def test_squared_radius_exponential(self, draws):
        dx, dv = draws
        assert kstest((dx * dx + dv * dv) / (2.0 * self.DT), "expon").pvalue > 1e-3

    def test_angle_uniform(self, draws):
        dx, dv = draws
        turns = np.arctan2(dv, dx) / (2.0 * math.pi) % 1.0
        assert kstest(turns, "uniform").pvalue > 1e-3

    def test_coordinates_uncorrelated(self, draws):
        dx, dv = draws
        assert abs(np.corrcoef(dx, dv)[0, 1]) < 5.0 / math.sqrt(self.N)

    def test_values_of_the_box_muller_formula(self):
        rng = rng_from_seed(7)
        dx, dv = _gaussian_increments(rng_from_seed(7), 1_000, self.DT)
        r = np.sqrt(-2.0 * self.DT * np.log(1.0 - rng.random(1_000)))
        theta = rng.random(1_000, dtype=np.float32) * np.float32(2.0 * math.pi)
        assert np.array_equal(dx, r * np.cos(theta)) and np.array_equal(dv, r * np.sin(theta))

    def test_extreme_uniforms(self):
        # U = 0 gives radius 0; U = 1 - 2^-53, the largest float64 uniform,
        # gives the tail cut sqrt(2 * 53 ln 2) = 8.57 sigma, not an infinity.
        class EdgeGenerator:
            def random(self, size, dtype=np.float64):
                if dtype == np.float32:
                    return np.full(size, 0.125, dtype=np.float32)
                return np.array([0.0, 1.0 - 2.0**-53])

        dx, dv = _gaussian_increments(EdgeGenerator(), 2, self.DT)
        assert np.all(np.isfinite(dx)) and np.all(np.isfinite(dv))
        radius = np.hypot(dx, dv) / math.sqrt(self.DT)
        assert radius[0] == 0.0
        assert radius[1] == pytest.approx(math.sqrt(106.0 * math.log(2.0)), rel=1e-7)


class TestOccupationTime:
    def test_exit_time_mean(self):
        # alpha = 2 turns the functional into the exit time: the
        # martingale |B|^2 - 2t gives E[tau] = 1/2, up to the upward
        # sqrt(dt) discretization bias.
        cfg = PathConfig(dt=1e-3, seed=21)
        est = occupation_time_mc(1.0, 2.0, cfg, 4_000)
        tau_mean = 0.5 * (est.mean - 1.0)
        tau_se = 0.5 * est.stderr
        allowance = occupation_bias_allowance(1.0, 2.0, cfg.dt) / 2.0
        assert abs(tau_mean - 0.5) <= 3.0 * tau_se + allowance
        # bias direction: discrete monitoring exits late
        assert tau_mean > 0.5 - 3.0 * tau_se

    def test_y_zero_exact(self):
        est = occupation_time_mc(0.0, 1.0, PathConfig(seed=4), 1_500)
        assert est.mean == 1.0
        assert est.stderr == 0.0

    def test_against_quadrature_with_bias_allowance(self):
        cfg = PathConfig(dt=1e-3, seed=33)
        est = occupation_time_mc(0.5, 1.5, cfg, 20_000)
        ref = mean_quadrature(0.5, 1.5, 1e-12).value
        assert abs(est.mean - ref) <= 3.0 * est.stderr + occupation_bias_allowance(0.5, 1.5, cfg.dt)
        assert not est.variance_warning

    def test_reproducible(self):
        a = occupation_time_mc(0.5, 1.5, PathConfig(dt=1e-3, seed=77), 2_000)
        b = occupation_time_mc(0.5, 1.5, PathConfig(dt=1e-3, seed=77), 2_000)
        assert a == b

    def test_discard_overflow_fails(self):
        # With a 5-step budget almost no path exits: must refuse.
        cfg = PathConfig(dt=1e-3, max_steps=5, seed=1)
        with pytest.raises(NumericalFailure):
            occupation_time_mc(0.5, 1.0, cfg, 1_000)

    def test_variance_warning(self):
        est = occupation_time_mc(1.5, 0.5, PathConfig(dt=1e-3, seed=8), 1_000)
        assert est.variance_warning

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            occupation_time_mc(0.5, 1.0, PathConfig(), 500)


def _chunked_estimate():
    """The n = 10000 estimate that TestForkedChunkWorkers compares, at module
    level so that a multiprocessing worker can run it."""
    return occupation_time_mc(0.5, 1.5, PathConfig(dt=1e-3, seed=91), 10_000)


def _send_chunked_estimate(queue):
    queue.put(_chunked_estimate())


def _src_env():
    """The environment for a fresh interpreter that imports this checkout's src/."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestForkedChunkWorkers:
    """From n = 10000 on, occupation_time_mc runs its chunks on the caller and
    on workers forked for the call; the estimate must not depend on where
    they ran, and nothing may outlive the call.  Tests that need the workers
    report two usable CPUs, whatever the host has."""

    @pytest.fixture
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(stochastic, "_usable_cpus", lambda: 2)

    @pytest.fixture
    def forks(self, monkeypatch):
        """The caller's pid of each os.fork call, in call order."""
        calls, fork = [], os.fork

        def counted_fork():
            calls.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        return calls

    def test_forked_workers_equal_in_process(self, monkeypatch, two_cpus, forks):
        forked = _chunked_estimate()
        assert len(forks) == 1
        monkeypatch.setattr(stochastic, "_usable_cpus", lambda: 1)
        assert _chunked_estimate() == forked
        assert len(forks) == 1

    def test_daemonic_worker_runs_in_process(self, two_cpus):
        # A multiprocessing.Pool worker is daemonic: multiprocessing lets it
        # start no children, but it forks workers of its own.
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply_async(_chunked_estimate).get(timeout=120) == _chunked_estimate()

    def test_multiprocessing_child_runs_in_process(self, two_cpus):
        # A non-daemonic child joins its children before it exits, so none
        # of its workers may outlive the call.
        expected = _chunked_estimate()
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        child = ctx.Process(target=_send_chunked_estimate, args=(queue,))
        child.start()
        try:
            assert queue.get(timeout=120) == expected
            child.join(timeout=120)
            assert not child.is_alive() and child.exitcode == 0
        finally:
            if child.is_alive():
                child.kill()
                child.join()

    def test_forked_child_forks_its_own_workers(self, two_cpus, forks):
        # An os.fork() child forks workers of its own.
        expected = _chunked_estimate()
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                est = _chunked_estimate()
                os.write(write_end, pickle.dumps((est, forks.count(os.getpid()))))
            finally:
                os._exit(0)
        os.close(write_end)
        try:
            with os.fdopen(read_end, "rb") as fh:
                assert select.select([fh], [], [], 120)[0], "the forked child hung"
                est, child_forks = pickle.loads(fh.read())
        finally:
            if os.waitpid(pid, os.WNOHANG) == (0, 0):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        assert est == expected
        assert child_forks == 1

    def test_off_main_thread_runs_in_process(self, monkeypatch, two_cpus):
        expected = _chunked_estimate()

        def no_fork():
            raise AssertionError("forked off the main thread")

        monkeypatch.setattr(os, "fork", no_fork)
        with ThreadPoolExecutor(1) as pool:
            assert pool.submit(_chunked_estimate).result(timeout=120) == expected

    def test_script_without_main_guard(self, tmp_path):
        script = tmp_path / "no_guard.py"
        script.write_text(textwrap.dedent("""\
            from circmeans.stochastic import PathConfig, occupation_time_mc
            print(repr(occupation_time_mc(0.5, 1.5, PathConfig(dt=1e-3, seed=91), 10_000)))
            """))
        done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                              env=_src_env(), timeout=120)
        assert done.returncode == 0
        assert done.stderr == ""
        assert done.stdout.strip() == repr(_chunked_estimate())

    def test_call_after_a_dead_worker_starts_afresh(self, monkeypatch, two_cpus):
        # A worker that dies without reporting fails the call, and the
        # next call starts afresh.
        expected = _chunked_estimate()
        caller, chunk = os.getpid(), stochastic._occupation_chunk

        def dies_in_worker(*args):
            if os.getpid() != caller:
                os._exit(1)
            return chunk(*args)

        monkeypatch.setattr(stochastic, "_occupation_chunk", dies_in_worker)
        with pytest.raises(RuntimeError, match="ended without a result"):
            _chunked_estimate()
        monkeypatch.setattr(stochastic, "_occupation_chunk", chunk)
        assert _chunked_estimate() == expected

    def test_worker_exception_reaches_caller(self, monkeypatch, two_cpus):
        caller, chunk = os.getpid(), stochastic._occupation_chunk

        def fails_in_worker(*args):
            if os.getpid() != caller:
                raise MemoryError("chunk in a worker")
            return chunk(*args)

        monkeypatch.setattr(stochastic, "_occupation_chunk", fails_in_worker)
        with pytest.raises(MemoryError, match="chunk in a worker"):
            _chunked_estimate()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_nothing_outlives_a_call(self, two_cpus, forks):
        threads = threading.active_count()
        fds = os.listdir("/proc/self/fd") if sys.platform == "linux" else []
        _chunked_estimate()
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):      # every worker was reaped
            os.waitpid(-1, os.WNOHANG)
        assert threading.active_count() == threads
        if sys.platform == "linux":
            assert len(os.listdir("/proc/self/fd")) == len(fds)
        code = textwrap.dedent("""\
            import sys
            from circmeans import stochastic
            stochastic._usable_cpus = lambda: 2
            stochastic.occupation_time_mc(0.5, 1.5, stochastic.PathConfig(dt=1e-3, seed=91), 10_000)
            print(sorted({"multiprocessing", "concurrent.futures"} & set(sys.modules)))
            """)
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=_src_env(), timeout=120)
        assert done.returncode == 0
        assert done.stdout == "[]\n"

    @pytest.mark.skipif(sys.platform != "linux" or stochastic._usable_cpus() < 2,
                        reason="needs Linux's parent-death signal and two usable CPUs")
    def test_killed_caller_leaves_no_worker(self):
        # A worker holds the caller's stdout; if it outlived a killed caller
        # it would keep a reader such as `| tail` waiting for its whole share.
        code = textwrap.dedent("""\
            from circmeans.stochastic import PathConfig, occupation_time_mc
            print("started", flush=True)
            occupation_time_mc(0.5, 1.5, PathConfig(dt=1e-3, seed=91), 1_000_000)
            """)
        proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, env=_src_env())
        try:
            assert proc.stdout.readline() == b"started\n"
            time.sleep(1.0)
            proc.kill()
            proc.wait(timeout=10)
            assert select.select([proc.stdout], [], [], 3.0)[0], "a worker outlived its caller"
            assert proc.stdout.read() == b""
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()

    def test_discards_counted_over_all_chunks(self):
        cfg = PathConfig(dt=1e-3, max_steps=5, seed=1)
        with pytest.raises(NumericalFailure, match="^10000 of 10000 paths failed to exit within 5 steps$"):
            occupation_time_mc(0.5, 1.0, cfg, 10_000)

    def test_chunk_sizes(self):
        assert stochastic._chunk_sizes(9_999) == [9_999]
        assert stochastic._chunk_sizes(10_001) == [5_001, 5_000]
        assert stochastic._chunk_sizes(1_000_000) == [62_500] * 16
        assert stochastic._chunk_sizes(2_000_003) == [125_001] * 3 + [125_000] * 13


class TestBiasAllowance:
    def test_scales_with_sqrt_dt(self):
        a1 = occupation_bias_allowance(0.5, 1.5, 1e-3)
        a2 = occupation_bias_allowance(0.5, 1.5, 1e-4)
        assert a1 / a2 == pytest.approx(math.sqrt(10.0), rel=1e-12)

    def test_infinite_in_flagged_regime(self):
        assert math.isinf(occupation_bias_allowance(2.0, 0.5, 1e-3))

    def test_zero_at_origin(self):
        assert occupation_bias_allowance(0.0, 1.0, 1e-3) == 0.0
