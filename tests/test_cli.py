import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import circmeans
import circmeans.cli as cli
from circmeans.cli import SweepConfig, fmt, main


def read_csv(path):
    raw = path.read_bytes()
    assert b"\r" not in raw, "CSV must use Unix line endings"
    lines = raw.decode().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestFmt:
    def test_roundtrip_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = float(rng.normal()) * 10.0 ** int(rng.integers(-12, 12))
            assert float(fmt(x)) == x


class TestSweepConfig:
    def test_validation_errors(self):
        base = dict(alphas=(1.0,), y_min=0.1, y_max=2.0, points=10)
        SweepConfig(**base).validate()
        with pytest.raises(ValueError):
            SweepConfig(**{**base, "alphas": ()}).validate()
        with pytest.raises(ValueError):
            SweepConfig(**{**base, "y_min": 3.0}).validate()
        with pytest.raises(ValueError):
            SweepConfig(**{**base, "points": 1}).validate()
        with pytest.raises(ValueError):
            SweepConfig(**{**base, "tol": -1.0}).validate()
        with pytest.raises(ValueError):
            SweepConfig(**{**base, "spacing": "cubic"}).validate()
        with pytest.raises(ValueError):
            SweepConfig(**{**base, "backends": ("fft",)}).validate()

    @pytest.mark.parametrize("bad", [
        {"alphas": ()}, {"y_min": 3.0}, {"points": 1}, {"tol": -1.0},
        {"spacing": "cubic"}, {"backends": ("fft",)}, {"y_min": 0.0, "spacing": "log"},
    ])
    def test_invalid_config_raises_at_construction(self, bad):
        base = dict(alphas=(1.0,), y_min=0.1, y_max=2.0, points=10)
        with pytest.raises(ValueError):
            SweepConfig(**{**base, **bad})

    def test_grids(self):
        cfg = SweepConfig(alphas=(1.0,), y_min=1.0, y_max=4.0, points=3, spacing="log")
        assert np.allclose(cfg.grid(), [1.0, 2.0, 4.0])
        cfg = SweepConfig(alphas=(1.0,), y_min=0.0, y_max=1.0, points=3)
        assert np.allclose(cfg.grid(), [0.0, 0.5, 1.0])


class TestFlagsReachConfig:
    """Each grid subcommand's non-default flags land in its SweepConfig."""

    def capture(self, monkeypatch, name):
        seen = []
        monkeypatch.setattr(cli, name, lambda *args: seen.append(args) or 0)
        return seen

    def test_sweep(self, monkeypatch):
        seen = self.capture(monkeypatch, "run_sweep")
        assert main(["sweep", "--alpha", "1,0.5", "--y-min", "0.1", "--y-max", "2", "--points", "7",
                     "--tol", "1e-7", "--backend", "quadrature,area_integral", "--log",
                     "--out", "s.csv"]) == 0
        assert seen == [(SweepConfig(alphas=(1.0, 0.5), y_min=0.1, y_max=2.0, points=7,
                                     spacing="log", tol=1e-7,
                                     backends=("quadrature", "area_integral")), "s.csv")]

    def test_mc(self, monkeypatch):
        seen = self.capture(monkeypatch, "mc_crosscheck")
        assert main(["mc", "--alpha", "1.5", "--y-min", "0.7", "--y-max", "3", "--points", "4",
                     "--seed", "9", "--n", "20000", "--dt", "5e-4", "--log", "--out", "m.csv"]) == 0
        assert seen == [(SweepConfig(alphas=(1.5,), y_min=0.7, y_max=3.0, points=4, spacing="log",
                                     seed=9), 20000, 5e-4, "m.csv")]

    def test_defaults_are_linear(self, monkeypatch):
        seen = self.capture(monkeypatch, "run_sweep")
        assert main(["sweep", "--alpha", "1", "--out", "s.csv"]) == 0
        assert seen == [(SweepConfig(alphas=(1.0,), y_min=0.01, y_max=4.0, points=50), "s.csv")]

    def test_figure_log_grid(self, monkeypatch):
        seen = self.capture(monkeypatch, "emit_figure_data")
        assert main(["figure", "--alpha", "2", "--y-min", "0.1", "--y-max", "10", "--points", "3",
                     "--log", "--out", "f"]) == 0
        (alphas, ys, out), = seen
        assert alphas == (2.0,) and out == "f"
        assert np.allclose(ys, [0.1, 1.0, 10.0])

    def test_constants_log_grid_by_default(self, monkeypatch):
        seen = self.capture(monkeypatch, "constant_table")
        assert main(["constants", "--alpha", "1,2", "--y-min", "0.01", "--y-max", "1",
                     "--points", "3"]) == 0
        (alphas, ys, out), = seen
        assert alphas == (1.0, 2.0) and out is None
        assert np.allclose(ys, [0.01, 0.1, 1.0])


class TestSweepCommand:
    def test_alpha_two_passes_with_zero_margins(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        status = main([
            "sweep", "--alpha", "2", "--y-min", "0.1", "--y-max", "3",
            "--points", "40", "--out", str(out),
        ])
        assert status == 0
        header, rows = read_csv(out)
        assert header == cli.VerificationRow.HEADER.split(",")
        assert len(rows) == 40
        for row in rows:
            assert abs(float(row[5])) <= 1e-10   # mean - mid
            assert abs(float(row[6])) <= 1e-10   # mid - target
        captured = capsys.readouterr()
        assert "status: OK" in captured.out
        assert "min margin" in captured.out

    def test_rows_in_ascending_order_and_roundtrip(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main([
            "sweep", "--alpha", "1,0.5", "--y-min", "0.01", "--y-max", "4",
            "--points", "12", "--log", "--out", str(out),
        ]) == 0
        _, rows = read_csv(out)
        keys = [(float(r[0]), float(r[1])) for r in rows]
        assert keys == sorted(keys)
        # 17 significant digits survive the trip through text
        mean_back = [float(r[2]) for r in rows]
        assert all(m > 1.0 for m in mean_back)

    def test_summary_min_equals_rows_min(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        main(["sweep", "--alpha", "0.5,1.5", "--y-min", "0.05", "--y-max", "4",
              "--points", "25", "--log", "--out", str(out)])
        _, rows = read_csv(out)
        min_mm = min(float(r[5]) for r in rows)
        captured = capsys.readouterr()
        assert fmt(min_mm) in captured.out

    def test_config_rejection_exit_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        status = main(["sweep", "--alpha", "1", "--tol", "-1", "--out", str(out)])
        assert status == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_backend_exit_2(self, tmp_path, capsys):
        status = main(["sweep", "--alpha", "1", "--backend", "fft",
                       "--out", str(tmp_path / "x.csv")])
        assert status == 2

    def test_mc_backend_rejected_in_sweep(self, tmp_path):
        status = main(["sweep", "--alpha", "1", "--backend", "mc_green",
                       "--out", str(tmp_path / "x.csv")])
        assert status == 2

    def test_seed_flag_rejected(self, tmp_path, capsys):
        # The sweep is deterministic: it draws no random numbers.
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--alpha", "1", "--seed", "3", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_violation_exit_1_and_stderr_triples(self, tmp_path, capsys, monkeypatch):
        # Corrupt the intermediate bound: every margin goes negative.
        monkeypatch.setattr(cli, "mid_bound", lambda y, alpha: 100.0)
        out = tmp_path / "bad.csv"
        status = main(["sweep", "--alpha", "1", "--y-min", "0.5", "--y-max", "1.5",
                       "--points", "3", "--out", str(out)])
        assert status == 1
        captured = capsys.readouterr()
        assert "violation: alpha=" in captured.err
        assert "y=" in captured.err and "margin=" in captured.err
        assert "status: VIOLATION" in captured.out
        # partial results were still written
        _, rows = read_csv(out)
        assert len(rows) == 3

    def test_byte_stable_across_runs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--alpha", "0.75", "--y-min", "0.02", "--y-max", "3",
                "--points", "15", "--log", "--backend", "quadrature,series,area_integral"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestFigureCommand:
    def test_default_alphas_and_shapes(self, tmp_path, capsys):
        status = main(["figure", "--points", "31", "--out", str(tmp_path)])
        assert status == 0
        files = sorted(tmp_path.glob("chain_alpha_*.csv"))
        assert len(files) == 3
        header, rows = read_csv(files[0])
        assert header == ["y", "mean", "mid_bound", "target_bound"]
        assert len(rows) == 31
        first = [float(v) for v in rows[0]]
        assert first == [0.0, 1.0, 1.0, 1.0]
        for row in rows:
            y, mean, mid, target = map(float, row)
            assert mean >= mid - 1e-9
            assert mid >= target - 1e-12

    def test_alpha_two_curves_coincide(self, tmp_path):
        main(["figure", "--alpha", "2", "--points", "11", "--y-max", "2",
              "--out", str(tmp_path)])
        _, rows = read_csv(next(tmp_path.glob("chain_alpha_2.csv")))
        for row in rows:
            y, mean, mid, target = map(float, row)
            assert mean == pytest.approx(1 + y * y, abs=1e-10)
            assert mid == pytest.approx(1 + y * y, abs=1e-12)
            assert target == pytest.approx(1 + y * y, abs=1e-12)


class TestConstantsCommand:
    def test_table(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        status = main(["constants", "--alpha", "1,2,4", "--points", "50",
                       "--out", str(out)])
        assert status == 0
        header, rows = read_csv(out)
        assert header == ["alpha", "lambda_inf", "argmin_y", "reference", "abs_gap"]
        by_alpha = {float(r[0]): [float(v) for v in r] for r in rows}
        assert by_alpha[1.0][3] == 0.5
        assert by_alpha[2.0][3] == 1.0
        assert by_alpha[4.0][3] == 1.0
        assert by_alpha[1.0][4] <= 1e-4
        assert by_alpha[2.0][4] <= 1e-6
        assert by_alpha[4.0][4] <= 1e-3


class TestSharpnessCommand:
    def test_witnesses(self, capsys):
        status = main(["sharpness", "--alpha", "0.5,1,2"])
        assert status == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0] == "alpha,lambda,y,violation"
        assert len(out) == 4
        for line in out[1:]:
            alpha, lam, y, viol = map(float, line.split(","))
            assert lam == pytest.approx(alpha / 2 + 1e-3)
            assert viol > 0.0

    def test_excess_too_small_exit_2(self, capsys):
        assert main(["sharpness", "--alpha", "1", "--excess", "1e-5"]) == 0
        capsys.readouterr()
        # Past the reach of working precision: no witness can clear the floor.
        assert main(["sharpness", "--alpha", "1", "--excess", "1e-9"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:")
        assert "Traceback" not in err

    def test_small_excess_witnesses(self, capsys):
        assert main(["sharpness", "--alpha", "0.5,1,2", "--excess", "1e-6"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert len(out) == 4
        for line in out[1:]:
            assert float(line.split(",")[3]) > 0.0


class TestMcCommand:
    def test_crosscheck_gate_passes(self, tmp_path, capsys):
        out = tmp_path / "mc.csv"
        status = main([
            "mc", "--alpha", "1.5", "--y-min", "0.5", "--y-max", "2.0",
            "--points", "2", "--n", "20000", "--seed", "11", "--out", str(out),
        ])
        assert status == 0
        header, rows = read_csv(out)
        assert header == ["alpha", "y", "deterministic", "mc_green", "mc_occupation",
                          "sigmas_green", "sigmas_occupation", "warnings"]
        assert len(rows) == 2
        for row in rows:
            assert float(row[5]) <= 4.0
            assert row[7] == ""

    def test_flagged_rows_marked_and_excluded(self, tmp_path):
        out = tmp_path / "mc2.csv"
        status = main([
            "mc", "--alpha", "0.5", "--y-min", "2.0", "--y-max", "3.0",
            "--points", "2", "--n", "10000", "--seed", "1", "--out", str(out),
        ])
        # flagged rows cannot fail the gate
        assert status == 0
        _, rows = read_csv(out)
        assert all(row[7] == "variance" for row in rows)

    def test_small_n_rejected(self, tmp_path):
        assert main(["mc", "--alpha", "1.5", "--n", "5000",
                     "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("flags", [["--alpha", "1.5", "--dt", "0.01"], ["--alpha", "1.5,3"]])
    def test_bad_dt_or_alpha_writes_nothing(self, tmp_path, capsys, flags):
        out = tmp_path / "x.csv"
        assert main(["mc", *flags, "--n", "10000", "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep", "figure"])
    def test_sweep_and_figure_bad_alpha_write_nothing(self, tmp_path, capsys, command):
        # sweep and figure reject an alpha above 2 before --out, as mc does.
        out = tmp_path / "out"
        assert main([command, "--alpha", "0.5,3", "--points", "3", "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_tol_flag_rejected(self, tmp_path, capsys):
        # The MC gates are set in sigmas and the bias allowance, not by a tolerance.
        with pytest.raises(SystemExit) as exc:
            main(["mc", "--alpha", "1.5", "--tol", "1e-9", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_byte_stable(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["mc", "--alpha", "2", "--y-min", "0.5", "--y-max", "1.0",
                "--points", "2", "--n", "10000", "--seed", "3"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestMeanCommand:
    def test_all_backends(self, capsys):
        status = main(["mean", "--alpha", "1", "--y", "0.5",
                       "--backend", "quadrature,series,area_integral,mc_green,mc_occupation",
                       "--n", "5000", "--seed", "2"])
        assert status == 0
        out = capsys.readouterr().out
        for tag in ("quadrature", "series", "area_integral", "mc_green",
                    "mc_occupation", "log_mean"):
            assert tag in out
        occupation = next(line for line in out.splitlines() if line.startswith("mc_occupation"))
        fields = dict(f.split("=", 1) for f in occupation.split()[1:] if "=" in f)
        assert fields["n"] == "5000" and fields["discarded"] == "0"
        # Mean exit time 1/2 at dt = 1e-3: about 500 steps a path.
        assert 2_250_000 < int(fields["path_steps"]) < 3_000_000

    def test_default_deterministic_trio(self, capsys):
        assert main(["mean", "--alpha", "0.7", "--y", "1.3"]) == 0
        out = capsys.readouterr().out
        assert "quadrature" in out and "series" in out and "area_integral" in out
        assert "mc_green" not in out

    def test_alpha_above_two_rejected_before_any_value(self, capsys):
        # area_integral takes alpha <= 2 only: the trio must fail up front,
        # not after quadrature and series have printed.
        assert main(["mean", "--alpha", "3", "--y", "0.5"]) == 2
        captured = capsys.readouterr()
        assert "value=" not in captured.out
        assert "error:" in captured.err

    def test_alpha_above_two_with_quadrature_and_series(self, capsys):
        assert main(["mean", "--alpha", "3", "--y", "0.5", "--backend", "quadrature,series"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == ["quadrature", "series", "log_mean"]


@pytest.mark.parametrize("flags", [
    ["--alpha", "1", "--y", "1e155"],                         # (1 - y)**2 in the quadrature
    ["--alpha", "3", "--y", "1e120", "--backend", "series"],  # y**alpha in the inversion
])
def test_overflow_is_a_numerical_failure(capsys, flags):
    assert main(["mean", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:")
    assert "Traceback" not in err


@pytest.mark.parametrize("flags", [
    ["sweep", "--alpha", "1", "--points", "3"],
    ["mc", "--alpha", "1.5", "--points", "2", "--n", "10000"],
    ["constants", "--alpha", "1", "--points", "3"],
    ["sharpness", "--alpha", "1"],
])
def test_out_in_missing_directory_exit_2(tmp_path, capsys, flags):
    out = tmp_path / "missing" / "x.csv"
    assert main([*flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not out.parent.exists()


def test_module_entrypoint_exit_codes():
    # The child interpreter finds the package where this one did.
    src = str(Path(circmeans.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    ok = subprocess.run(
        [sys.executable, "-m", "circmeans.cli", "mean", "--alpha", "2", "--y", "1"],
        capture_output=True, text=True, env=env,
    )
    assert ok.returncode == 0
    assert "quadrature" in ok.stdout
    bad = subprocess.run(
        [sys.executable, "-m", "circmeans.cli", "sweep", "--alpha", "1",
         "--tol", "-1", "--out", "/tmp/_circmeans_bad.csv"],
        capture_output=True, text=True, env=env,
    )
    assert bad.returncode == 2
    assert "error:" in bad.stderr