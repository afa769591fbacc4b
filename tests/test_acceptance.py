"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
each test also fails loudly on its own assertion.
"""
import math
import time
from typing import NamedTuple

import numpy as np
import pytest
from scipy.integrate import quad

import circmeans.cli as cli
from circmeans.bounds import am_gm_sandwich, bernoulli_gap, bernoulli_log_gap
from circmeans.circle import binomial_series_mean, log_mean, mean_quadrature, mean_series
from circmeans.cli import SweepConfig, run_sweep
from circmeans.constants import second_derivative_at_zero, sharpness_witness, best_constant_estimate
from circmeans.core import rng_from_seed
from circmeans.disk import area_integral_mean, radial_integral_lower
from circmeans.stochastic import (
    PathConfig,
    mc_area_mean,
    occupation_bias_allowance,
    occupation_time_mc,
    sample_green_points,
)

ALPHA_TEST_SET = (0.25, 0.75, 1.0, 1.5, 2.0)


def verdict(label: int | str, ok: bool, detail: str) -> None:
    print(f"criterion {label!s:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {label}: {detail}"


def test_criterion_01_equality_case_all_backends():
    t0 = time.monotonic()
    ys = np.arange(0.0, 4.0 + 1e-9, 0.25)
    worst_det = 0.0
    worst_green = 0.0
    occ_ok = True
    for y in ys:
        y = float(y)
        ref = 1.0 + y * y
        worst_det = max(worst_det, abs(mean_quadrature(y, 2.0).value - ref))
        worst_det = max(worst_det, abs(mean_series(y, 2.0)[0].value - ref))
        worst_det = max(worst_det, abs(area_integral_mean(y, 2.0, 1e-10).value - ref))
        green = mc_area_mean(y, 2.0, 5_000, rng_from_seed(1000 + int(4 * y)))
        worst_green = max(worst_green, abs(green.mean - ref))
        assert green.stderr == 0.0
        occ = occupation_time_mc(y, 2.0, PathConfig(dt=1e-3, seed=2000 + int(4 * y)), 1_200)
        allow = occupation_bias_allowance(y, 2.0, 1e-3)
        if abs(occ.mean - ref) > 3.0 * occ.stderr + allow:
            occ_ok = False
    elapsed = time.monotonic() - t0
    ok = worst_det <= 1e-10 and worst_green <= 1e-12 and occ_ok and elapsed < 10.0
    verdict(1, ok, f"alpha=2 backends: det {worst_det:.2e} (<=1e-10), "
                   f"green {worst_green:.2e} (<=1e-12), occupation within 3*se+bias, "
                   f"{elapsed:.1f}s (<10s)")


def test_criterion_02_backend_cross_agreement():
    t0 = time.monotonic()
    worst_qs = worst_qa = 0.0
    for alpha in (0.25, 0.5, 1.0, 1.5, 2.0):
        for y in np.geomspace(0.01, 4.0, 40):
            y = float(y)
            q = mean_quadrature(y, alpha, 1e-11).value
            s = mean_series(y, alpha)[0].value
            a = area_integral_mean(y, alpha, 1e-8).value
            worst_qs = max(worst_qs, abs(q - s))
            worst_qa = max(worst_qa, abs(q - a))
    elapsed = time.monotonic() - t0
    ok = worst_qs <= 1e-8 and worst_qa <= 1e-6 and elapsed < 120.0
    verdict(2, ok, f"|quad-series| {worst_qs:.2e} (<=1e-8), "
                   f"|quad-area| {worst_qa:.2e} (<=1e-6), {elapsed:.1f}s (<120s)")


def test_criterion_03_closed_form_four_over_pi():
    target = 4.0 / math.pi
    q = mean_quadrature(1.0, 1.0, 1e-11)
    # mean_series takes Gauss's sum Gamma(2)/Gamma(3/2)^2 at y = 1; the raw
    # power series on t = 1 stays as a check independent of it.
    s, trunc = mean_series(1.0, 1.0)
    raw, raw_tail, _ = binomial_series_mean(np.array([1.0]), 1.0, 1e-12)
    # independent brute force: midpoint Riemann sum, 1e7 nodes
    n = 10_000_000
    th = (np.arange(n) + 0.5) * (math.pi / n)
    brute = float(np.mean(np.abs(2.0 * np.cos(0.5 * th))))
    ok = (
        abs(q.value - target) <= 1e-10
        and abs(s.value - target) <= 1e-6
        and abs(s.value - target) <= trunc.tail_bound + 1e-12
        and abs(raw[0] - target) <= raw_tail + 1e-12
        and abs(brute - target) <= 1e-9
    )
    verdict(3, ok, f"quad dev {abs(q.value-target):.2e} (<=1e-10), "
                   f"series dev {abs(s.value-target):.2e} (<=1e-6, tail {trunc.tail_bound:.2e}), "
                   f"raw t=1 series dev {abs(raw[0]-target):.2e} (tail {raw_tail:.2e}), "
                   f"riemann dev {abs(brute-target):.2e}")


SWEEP_ALPHAS = (0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)
SWEEP_TOL = 1e-9


class SweepRow(NamedTuple):
    alpha: float
    y: float
    mid: float
    target: float
    margin_mean_mid: float
    margin_mid_target: float
    backend_delta: float


@pytest.fixture(scope="module")
def chain_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("acc") / "sweep.csv"
    cfg = SweepConfig(alphas=SWEEP_ALPHAS, y_min=0.005, y_max=5.0, points=400,
                      spacing="log", tol=SWEEP_TOL)
    status = run_sweep(cfg, str(out))
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    parsed = [
        SweepRow(*(float(r[i]) for i in (0, 1, 3, 4, 5, 6, 8))) for r in rows
    ]
    return status, parsed


def test_criterion_04a_chain_sweep_exit_and_min_margins(chain_sweep):
    status, rows = chain_sweep
    min_mm = min(r.margin_mean_mid for r in rows)
    min_mt = min(r.margin_mid_target for r in rows)
    ok = status == 0 and min_mm >= -1e-9 and min_mt >= -1e-9
    verdict("4a", ok, f"sweep exit {status} (=0), min margins {min_mm:.2e} / {min_mt:.2e} (>=-1e-9)")


def test_criterion_04b_strict_positivity_window(chain_sweep):
    # Both margins are strictly positive on the window alpha <= 1.9,
    # y in [0.1, 3], but no uniform floor fits them: alpha/2 is sharp, so
    # the chain is tight to fourth order as y -> 0.  With beta = alpha/2
    # and t = y^2 <= 1 the leading terms are
    #   mean - mid   = sum_{k>=2} C(beta, k)^2 t^k >= C(beta, 2)^2 t^2,
    #   mid - target = bernoulli_gap(beta, t) ~ beta^3 (1 - beta) t^2 / 2,
    # e.g. 6.1e-8 and 6.3e-9 at alpha = 0.1, y = 0.1017 (both confirmed
    # by an mpmath 2F1 reference).  Each row must instead clear floors
    # that the exact margins clear and that lie above what the sweep can
    # resolve:
    #   (a) mean - mid > max(tol, 10 * backend_delta): the sweep tolerance
    #       and the row's own quadrature-series disagreement;
    #   (b) mid - target > 64 eps * max(mid, target): the rounding of the
    #       two bounds, which the margin is computed from;
    #   (c) on the small branch (t <= 1), mean - mid >= C(beta, 2)^2 t^2
    #       - tol: the series' exact lower bound, less the sweep tolerance.
    _, rows = chain_sweep
    window = [r for r in rows if r.alpha <= 1.9 and 0.1 <= r.y <= 3.0]
    eps = np.finfo(float).eps
    ratios = {"a": [], "b": [], "c": []}
    failures = []
    for r in window:
        floor_a = max(SWEEP_TOL, 10.0 * r.backend_delta)
        floor_b = 64.0 * eps * max(r.mid, r.target)
        row_ok = r.margin_mean_mid > floor_a and r.margin_mid_target > floor_b
        ratios["a"].append((r.margin_mean_mid / floor_a, r))
        ratios["b"].append((r.margin_mid_target / floor_b, r))
        t = r.y * r.y
        if t <= 1.0:
            beta = 0.5 * r.alpha
            floor_c = (0.5 * beta * (beta - 1.0)) ** 2 * t * t - SWEEP_TOL
            row_ok = row_ok and r.margin_mean_mid >= floor_c
            if floor_c > 0.0:
                ratios["c"].append((r.margin_mean_mid / floor_c, r))
        if not row_ok:
            failures.append(r)
    ok = len(window) > 0 and not failures
    parts = [f"{len(failures)} of {len(window)} window rows below their floors"]
    for k, v in ratios.items():
        q, r = min(v, key=lambda p: p[0])
        parts.append(f"worst margin/floor ({k}) {q:.4g} at alpha={r.alpha} y={r.y:.4f}")
    r = min(window, key=lambda r: min(r.margin_mean_mid, r.margin_mid_target))
    parts.append(f"smallest margin {min(r.margin_mean_mid, r.margin_mid_target):.2e} "
                 f"at alpha={r.alpha} y={r.y:.4f}")
    if failures:
        r = failures[0]
        parts.append(f"first failing row alpha={r.alpha} y={r.y:.4f} margins "
                     f"{r.margin_mean_mid:.3e} / {r.margin_mid_target:.3e}")
    detail = "; ".join(parts)
    verdict("4b", ok, detail)


def test_criterion_05_radial_integrals():
    rng = np.random.default_rng(515)
    worst = 0.0
    for _ in range(1_000):
        y = float(rng.uniform(0.02, 6.0))
        alpha = float(rng.uniform(0.05, 2.0))
        mine = radial_integral_lower(y, alpha)
        if y <= 1.0:
            assert mine == 0.25
            continue
        ref, _ = quad(
            lambda r: min(1.0, (y * r) ** (alpha - 2.0)) * r * math.log(1.0 / r) if r > 0 else 0.0,
            0.0, 1.0, points=[1.0 / y], epsabs=1e-13, epsrel=1e-13, limit=200,
        )
        worst = max(worst, abs(mine - ref))
    ok = worst <= 1e-9
    verdict(5, ok, f"closed form vs brute force: worst {worst:.2e} (<=1e-9); exact 1/4 for y<=1")


def test_criterion_06_sharpness():
    curv_ok = True
    for alpha in (0.1, 0.25, 0.5, 1.0, 1.5, 2.0):
        val = second_derivative_at_zero(alpha)
        if abs(val - 0.5 * alpha * alpha) > 1e-6 * 0.5 * alpha * alpha:
            curv_ok = False
    witness_ok = True
    for alpha in ALPHA_TEST_SET:
        w = sharpness_witness(alpha, 0.5 * alpha + 1e-3)
        if not w.violation > 0.0:
            witness_ok = False
    clean_ok = True
    for alpha in ALPHA_TEST_SET:
        lam = 0.5 * alpha
        for k in range(31):
            y = 2.0**-k
            r = mean_quadrature(y, alpha, 1e-13)
            rhs = math.expm1(0.5 * alpha * math.log1p(lam * y * y))
            if rhs - (r.value - 1.0) > 2.0 * r.error_estimate + 1e-13:
                clean_ok = False
    ok = curv_ok and witness_ok and clean_ok
    verdict(6, ok, f"curvature alpha^2/2 to 1e-6 rel: {curv_ok}; "
                   f"witness at alpha/2+1e-3: {witness_ok}; "
                   f"no violation at alpha/2 down to 2^-30: {clean_ok}")


def test_criterion_07_best_constant():
    t0 = time.monotonic()
    grid = np.geomspace(1e-4, 50.0, 70)
    worst_low = 0.0
    for alpha in ALPHA_TEST_SET:
        rep = best_constant_estimate(alpha, grid)
        worst_low = max(worst_low, abs(rep.lambda_inf - 0.5 * alpha))
    worst_high = 0.0
    for alpha in (2.5, 3.0, 4.0):
        rep = best_constant_estimate(alpha, grid)
        worst_high = max(worst_high, abs(rep.lambda_inf - 1.0))
    elapsed = time.monotonic() - t0
    ok = worst_low <= 1e-4 and worst_high <= 1e-3 and elapsed < 60.0
    verdict(7, ok, f"lambda_inf vs alpha/2: {worst_low:.2e} (<=1e-4); "
                   f"vs 1 above 2: {worst_high:.2e} (<=1e-3); {elapsed:.1f}s (<60s)")


def test_criterion_08_elementary_gap_inequalities():
    rng = np.random.default_rng(88)
    beta = rng.uniform(0.0, 1.0, 10_000)
    t = rng.uniform(1e-12, 100.0, 10_000)
    bern_min = float(np.min(1.0 + beta**2 * t - (1.0 + beta * t) ** beta))
    beta2 = rng.uniform(0.0, 1.0 - 1e-9, 10_000)
    t2 = 1.0 + rng.random(10_000) * (1.0 / (1.0 - beta2) - 1.0)
    log_min = float(np.min(
        beta2**2 + t2**beta2 - beta2 * (1.0 - beta2) * np.log(t2) - (1.0 + beta2 * t2) ** beta2
    ))
    eq_ok = True
    for t_eq in (0.5, 1.0, 7.0, 99.0):
        eq_ok &= abs(bernoulli_gap(0.0, t_eq)) <= 1e-12
        eq_ok &= abs(bernoulli_gap(1.0, t_eq)) <= 1e-12
    eq_ok &= abs(bernoulli_log_gap(0.0, 1.0)) <= 1e-12
    ok = bern_min >= 0.0 and log_min >= 0.0 and eq_ok
    verdict(8, ok, f"bernoulli min {bern_min:.2e} (>=0) on 1e4 draws; "
                   f"log variant min {log_min:.2e} (>=0); equality cases to 1e-12: {eq_ok}")


def test_criterion_09_stochastic_module(tmp_path):
    t0 = time.monotonic()
    # Green sampler moments at n = 1e6, 3 sigma.
    z = sample_green_points(rng_from_seed(909), 1_000_000)
    m2 = np.abs(z) ** 2
    m4 = m2 * m2
    dev2 = abs(float(np.mean(m2)) - 0.25)
    dev4 = abs(float(np.mean(m4)) - 1.0 / 9.0)
    se2 = float(np.std(m2, ddof=1)) / 1000.0
    se4 = float(np.std(m4, ddof=1)) / 1000.0
    moments_ok = dev2 <= 3.0 * se2 and dev4 <= 3.0 * se4

    # Exit time at dt = 1e-4, n = 1e4 paths, bias coefficient from a
    # Richardson pair at dt = 1e-3 / 1e-4 with independent seeds.
    def tau_hat(dt, seed, n):
        est = occupation_time_mc(1.0, 2.0, PathConfig(dt=dt, seed=seed), n)
        return 0.5 * (est.mean - 1.0), 0.5 * est.stderr

    cal_hi, _ = tau_hat(1e-3, 911, 10_000)
    cal_lo, _ = tau_hat(1e-4, 912, 10_000)
    c_hat = (cal_hi - cal_lo) / (math.sqrt(1e-3) - math.sqrt(1e-4))
    tau, tau_se = tau_hat(1e-4, 913, 10_000)
    tau_ok = abs(tau - 0.5) <= 3.0 * tau_se + max(c_hat, 0.3) * math.sqrt(1e-4)

    # Cross-check gate at n = 1e6 on healthy rows.
    out = tmp_path / "mc.csv"
    cfg = SweepConfig(alphas=(1.5,), y_min=0.5, y_max=2.0, points=2, spacing="log", seed=914)
    status = cli.mc_crosscheck(cfg, 1_000_000, 1e-3, str(out))
    elapsed = time.monotonic() - t0
    ok = moments_ok and tau_ok and status == 0 and elapsed < 300.0
    verdict(9, ok, f"moments 3sigma: {moments_ok} (dev {dev2:.1e}/{dev4:.1e}); "
                   f"E[tau] {tau:.5f} vs 1/2 with c_hat {c_hat:.2f}: {tau_ok}; "
                   f"crosscheck exit {status} (=0); {elapsed:.0f}s (<300s)")


def test_criterion_10_jensen_and_am_gm():
    worst_away = 0.0
    for y in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9,
              1.1, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]:
        worst_away = max(worst_away, abs(math.exp(log_mean(y)) - max(1.0, y)))
    at_one = abs(math.exp(log_mean(1.0)) - 1.0)
    sandwich_ok = True
    for y in (0.0, 0.4, 0.9, 1.0, 1.6, 3.0):
        for r in (0.5, 1.0, 2.0):
            if y == 1.0 and r >= 1.0:
                continue  # inadmissible: negative mean diverges
            lower, mid, upper = am_gm_sandwich(y, r)
            if not (lower <= mid + 1e-8 and mid <= upper + 1e-8):
                sandwich_ok = False
    ok = worst_away <= 1e-8 and at_one <= 1e-4 and sandwich_ok
    verdict(10, ok, f"exp(log-mean) vs max(1,y): {worst_away:.2e} (<=1e-8) away from 1, "
                    f"{at_one:.2e} (<=1e-4) at 1; sandwich ordering: {sandwich_ok}")
