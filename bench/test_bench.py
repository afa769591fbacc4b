"""Tests of the benchmark itself: oracle, counting generator, tracer,
fidelity to the CLI, and a tiny-size run of each workload.

    python3 -m pytest bench -q
"""
from __future__ import annotations

import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
import tracing
import workloads

cm = workloads.import_program()
HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


class TestOracle:
    def test_self_check_passes(self):
        assert oracle.self_check() == []

    def test_closed_forms(self):
        assert float(oracle.mean_ref(1.0, 1.0)) == pytest.approx(4.0 / math.pi, rel=1e-15)
        assert float(oracle.mean_ref(0.5, 2.0)) == 1.25
        assert float(oracle.mean_ref(0.0, 0.7)) == 1.0
        assert float(oracle.log_mean_ref(0.5)) == 0.0
        assert float(oracle.log_mean_ref(3.0)) == pytest.approx(math.log(3.0), rel=1e-15)

    def test_inversion_symmetry(self):
        for alpha in (0.25, 1.0, 1.9):
            lhs = oracle.mean_ref(4.0, alpha)
            rhs = 4.0**alpha * oracle.mean_ref(0.25, alpha)
            assert oracle.deviation(float(rhs), lhs) <= 1e-15 * float(lhs)

    def test_flags_a_wrong_value(self):
        ref = oracle.mean_ref(0.5, 1.0)
        good = float(ref)
        bad = good + 1e-9
        assert oracle.deviation(good, ref) <= oracle.slack(ref)
        assert oracle.deviation(bad, ref) > 1e-10


class TestCountingGenerator:
    def test_same_stream_and_counts(self):
        tracer = tracing.Tracer()
        plain = cm.core.rng_from_seed(7, 1)
        counted = tracing.CountingGenerator(cm.core.rng_from_seed(7, 1), tracer)
        assert (counted.standard_normal((5, 2)) == plain.standard_normal((5, 2))).all()
        assert (counted.random(3) == plain.random(3)).all()
        assert (counted.uniform(0.0, 2.0, 4) == plain.uniform(0.0, 2.0, 4)).all()
        assert counted.integers(0, 2**63) == plain.integers(0, 2**63)
        assert tracer.bucket.count["core.rng.normals"] == 10
        assert tracer.bucket.count["core.rng.uniforms"] == 7

    def test_path_steps_from_normals_and_unchanged_estimate(self):
        cfg = cm.stochastic.PathConfig(dt=1e-3, seed=11)
        plain = cm.stochastic.occupation_time_mc(0.5, 1.5, cfg, 1000)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.phase("p")
            traced = cm.stochastic.occupation_time_mc(0.5, 1.5, cfg, 1000)
        finally:
            tracer.uninstall()
        assert traced == plain
        normals = tracer.buckets["p"].count["core.rng.normals"]
        assert normals % 2 == 0 and normals // 2 >= 1000
        assert tracer.buckets["p"].count["stochastic.occupation.discarded"] == 0


class TestTracer:
    def test_self_time_and_restore(self):
        original = cm.disk.integrate_adaptive
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert cm.disk.integrate_adaptive is not original
            assert cm.cli.mean_quadrature is cm.circle.mean_quadrature
            tracer.phase("p")
            cm.disk.area_integral_mean(2.0, 1.5)
        finally:
            tracer.uninstall()
        assert cm.disk.integrate_adaptive is original
        b = tracer.buckets["p"]
        assert b.count["disk.area_integral_mean.calls"] == 1
        assert b.count["quadrature.tanhsinh.calls"] == 2
        assert b.self_s["disk.area_integral_mean"] < b.total_s["disk.area_integral_mean"]
        # Self times of all spans add up to the root span's duration.
        assert sum(b.self_s.values()) == pytest.approx(b.total_s["disk.area_integral_mean"], rel=1e-9)
        parents = list(tracer.span_parent)
        assert parents[0] == -1 and all(0 <= p < i for i, p in enumerate(parents) if i)

    def test_traced_pass_gives_same_digest(self, tmp_path):
        inp = workloads.make_inputs("verify-chain", 5, tiny=True)
        (tmp_path / "figure").mkdir()
        plain = workloads.verify_chain_pass(cm, inp, tmp_path)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.phase("setup")
            tracer.phase("pass0")
            traced = workloads.verify_chain_pass(cm, inp, tmp_path)
        finally:
            tracer.uninstall()
        assert traced.digest() == plain.digest()
        metrics = tracer.layer_metrics("setup", ["pass0"])
        assert metrics["disk.area_integral_mean.calls"] == len(inp["alphas"]) * len(inp["ys"])
        assert metrics["bounds.calls"] > 0 and metrics["cli.self_s"] > 0


class TestFidelityToCli:
    def test_sweep_rows_are_the_clis(self, tmp_path):
        cfg = cm.cli.SweepConfig(alphas=(0.5, 1.5), y_min=0.05, y_max=3.0, points=5, spacing="log",
                                 backends=("quadrature", "series", "area_integral"))
        cli_out = tmp_path / "cli.csv"
        assert cm.cli.run_sweep(cfg, str(cli_out), stdout=io.StringIO()) == 0
        inp = workloads.make_inputs("verify-chain", 0, tiny=True)
        inp["alphas"], inp["ys"] = cfg.alphas, cfg.grid()
        (tmp_path / "figure").mkdir()
        workloads.verify_chain_pass(cm, inp, tmp_path)
        assert (tmp_path / "sweep.csv").read_bytes() == cli_out.read_bytes()

    def test_mc_rows_are_the_clis(self, tmp_path):
        cfg = cm.cli.SweepConfig(alphas=(0.5,), y_min=0.5, y_max=2.0, points=2, seed=9)
        cli_out = tmp_path / "cli.csv"
        cm.cli.mc_crosscheck(cfg, workloads.MC_N, workloads.MC_DT, str(cli_out),
                             stdout=io.StringIO())
        res = workloads.mc_crosscheck_pass(cm, workloads.make_inputs("mc-crosscheck", 9, tiny=True),
                                           tmp_path)
        assert bytes(res.csv) == cli_out.read_bytes()


class TestWorkloads:
    @pytest.mark.parametrize("name", workloads.WORKLOADS)
    def test_tiny_run_is_repeatable_and_correct(self, name, tmp_path):
        inp = workloads.make_inputs(name, 3, tiny=True)
        assert workloads.make_inputs(name, 3, tiny=True).keys() == inp.keys()
        (tmp_path / "figure").mkdir()
        first = workloads.PASSES[name](cm, inp, tmp_path)
        second = workloads.PASSES[name](cm, inp, tmp_path)
        assert first.digest() == second.digest()
        assert len(first.rows_ms) > 0
        rep = workloads.check_ops(first.ops)
        assert rep.unexpected == []
        assert rep.attempted == len(first.ops)

    def test_near_circle_keeps_structural_points(self):
        for seed in (0, 1, 2):
            rows = workloads.make_inputs("near-circle", seed)["rows"]
            ys = {y for _, y in rows}
            alphas = {a for a, _ in rows}
            assert 1.0 in ys and 1.0 - 1e-7 in alphas
            for k in range(1, 13):
                assert any(1e-1**k <= 1.0 - y < 1e-1**(k - 1) for y in ys)
                assert any(1e-1**k <= y - 1.0 < 1e-1**(k - 1) for y in ys)
            assert max(ys) > 8.5

    def test_seed_changes_the_jitter_only(self):
        a = workloads.make_inputs("verify-chain", 1)
        b = workloads.make_inputs("verify-chain", 2)
        assert a["ys"].size == b["ys"].size and (a["ys"] != b["ys"]).any()
        assert (workloads.make_inputs("verify-chain", 1)["ys"] == a["ys"]).all()
        assert (abs(np.log(a["ys"])) >= 0.02 - 1e-12).all()

    def test_known_defects_are_classified(self):
        rep = workloads.check_ops([
            workloads.Op("area_integral", 1.0, 10.0, tol=1e-8, raised="ValueError"),
            workloads.Op("area_integral", 1.0, 2.0, tol=1e-8, raised="ValueError"),
            workloads.Op("quadrature", 1.0, 0.5, 1.0, 1e-12, 1e-10),
            workloads.Op("log_mean", 1.0, 1.0 - 1.3736906e-7, 2.8e-10, tol=1e-10),
            workloads.Op("log_mean", 1.0, 1.0 - 8.8168e-6, 1.794e-8, tol=1e-10),
            workloads.Op("log_mean", 1.0, 1.0 - 1.3736906e-7, 1e-7, tol=1e-10),
            workloads.Op("log_mean", 1.0, 0.5, 2e-10, tol=1e-10),
        ])
        assert rep.failed == 7
        assert rep.known == {"area-large-y": 1, "log-mean-near-one": 2}
        assert rep.est_missed == 1
        # The raise at y = 2, the wrong value's tolerance and estimate, the
        # log mean 1000x off its tolerance (over its class limit of about
        # 170x at that offset), and any miss far from y = 1.
        assert len(rep.unexpected) == 5


class TestCommand:
    def test_metric_names_match_benchmark_json(self):
        assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
            k: u for k, (u, _) in tracing.PER_LAYER.items()}
        assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)

    @pytest.mark.parametrize("trace", [0, 1])
    def test_end_to_end_prints_every_metric(self, trace):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "mc-crosscheck", "--seed", "2",
             "--seconds", "0", "--trace", str(trace)],
            capture_output=True, text=True, timeout=180, cwd=HERE.parent,
        )
        assert done.returncode == 0, done.stderr
        out = last_json(done.stdout)
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] is True and out["attempted"] >= 1
        spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        assert {k: v["unit"] for k, v in out["metrics"].items()} == {m["name"]: m["unit"] for m in spec}

    def test_fails_without_the_program(self, tmp_path):
        shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
        done = subprocess.run(
            SPEC["command"] + ["--workload", "verify-chain", "--seed", "1", "--seconds", "1",
                               "--trace", "0"],
            capture_output=True, text=True, timeout=180, cwd=tmp_path,
        )
        assert done.returncode != 0
        assert "{" not in done.stdout
