"""Command-line driver: sweeps, figure data, constant tables, MC checks.

Subcommands
-----------
mean        evaluate one (y, alpha) with every requested backend
sweep       grid verification of the chain mean >= mid >= target, CSV out
figure      per-alpha CSV of (y, mean, mid_bound, target_bound) curves
constants   best-constant table (lambda_inf vs alpha/2 or 1)
sharpness   violation witnesses for candidates above alpha/2
mc          Monte Carlo vs deterministic cross-check table

Exit status is 0 for a clean pass, 1 when a verification gate fails
(offending rows go to stderr), 2 on configuration or numerical failure.
CSV files use comma separators, '.' decimal points, 17 significant
digits (lossless for binary64), a header row and Unix line endings;
with a fixed seed the bytes are identical run to run.

All state lives in flags; no environment variables are consulted.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from .bounds import mid_bound, target_bound
from .circle import log_mean, mean_quadrature, mean_series
from .constants import best_constant_estimate, sharpness_witness
from .core import (
    BACKEND_AREA_INTEGRAL,
    BACKEND_MC_GREEN,
    BACKEND_MC_OCCUPATION,
    BACKEND_QUADRATURE,
    BACKEND_SERIES,
    BACKENDS,
    DETERMINISTIC_BACKENDS,
    NumericalFailure,
    check_alpha,
    classify_regime,
    rng_from_seed,
)
from .disk import area_integral_mean
from .stochastic import PathConfig, mc_area_mean, occupation_bias_allowance, occupation_time_mc

_EXIT_OK = 0
_EXIT_VIOLATION = 1
_EXIT_FAILURE = 2


def fmt(x: float) -> str:
    """17 significant digits: round-trips every binary64 value."""
    return format(float(x), ".17g")


@dataclass(frozen=True)
class SweepConfig:
    """Grid and tolerance settings shared by the grid subcommands."""

    alphas: tuple[float, ...]
    y_min: float
    y_max: float
    points: int
    spacing: str = "linear"
    tol: float = 1e-9
    seed: int = 0
    backends: tuple[str, ...] = (BACKEND_QUADRATURE, BACKEND_SERIES)

    def validate(self) -> None:
        if not self.alphas:
            raise ValueError("at least one alpha is required")
        for a in self.alphas:
            if not (math.isfinite(a) and a > 0.0):
                raise ValueError(f"alpha values must be positive, got {a!r}")
        if not (math.isfinite(self.y_min) and math.isfinite(self.y_max)):
            raise ValueError("y bounds must be finite")
        if not 0.0 <= self.y_min < self.y_max:
            raise ValueError("need 0 <= y_min < y_max")
        if self.spacing == "log" and self.y_min <= 0.0:
            raise ValueError("log spacing requires y_min > 0")
        if self.points < 2:
            raise ValueError("points must be >= 2")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be positive, got {self.tol!r}")
        if self.spacing not in ("linear", "log"):
            raise ValueError(f"spacing must be linear or log, got {self.spacing!r}")
        unknown = set(self.backends) - BACKENDS
        if unknown:
            raise ValueError(f"unknown backends: {sorted(unknown)}")

    def grid(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.y_min, self.y_max, self.points)
        return np.linspace(self.y_min, self.y_max, self.points)


@dataclass(frozen=True)
class VerificationRow:
    """One grid point of the chain verification."""

    alpha: float
    y: float
    mean: float
    mid: float
    target: float
    margin_mean_mid: float
    margin_mid_target: float
    regime: str
    backend_delta: float

    HEADER = "alpha,y,mean,mid_bound,target_bound,margin_mean_mid,margin_mid_target,regime,backend_delta"

    def as_csv(self) -> str:
        return ",".join(
            [
                fmt(self.alpha),
                fmt(self.y),
                fmt(self.mean),
                fmt(self.mid),
                fmt(self.target),
                fmt(self.margin_mean_mid),
                fmt(self.margin_mid_target),
                self.regime,
                fmt(self.backend_delta),
            ]
        )


def _mean_all_backends(y: float, alpha: float, cfg: SweepConfig) -> tuple[float, float]:
    """Quadrature mean and max pairwise disagreement of selected backends.

    Quadrature is always evaluated (it is the row's primary value); the
    other selected deterministic backends feed the disagreement column.
    """
    quad_tol = min(max(0.1 * cfg.tol, 1e-13), 1e-9)
    values = [mean_quadrature(y, alpha, quad_tol).value]
    if BACKEND_SERIES in cfg.backends:
        values.append(mean_series(y, alpha)[0].value)
    if BACKEND_AREA_INTEGRAL in cfg.backends:
        values.append(area_integral_mean(y, alpha).value)
    delta = max((abs(a - b) for i, a in enumerate(values) for b in values[i + 1:]), default=0.0)
    return values[0], delta


def run_sweep(cfg: SweepConfig, out_path: str, stdout=None, stderr=None) -> int:
    """Evaluate the chain over the grid, stream rows to CSV, summarize."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    cfg.validate()
    for b in cfg.backends:
        if b not in DETERMINISTIC_BACKENDS:
            raise ValueError(f"sweep accepts deterministic backends only, got {b!r}")
    ys = cfg.grid()
    rows: list[VerificationRow] = []
    with open(out_path, "w", newline="\n") as fh:
        fh.write(VerificationRow.HEADER + "\n")
        fh.flush()
        for alpha in sorted(cfg.alphas):
            for y in ys:
                mean, delta = _mean_all_backends(float(y), alpha, cfg)
                mid = mid_bound(y, alpha)
                target = target_bound(y, alpha)
                row = VerificationRow(
                    alpha=alpha,
                    y=float(y),
                    mean=mean,
                    mid=mid,
                    target=target,
                    margin_mean_mid=mean - mid,
                    margin_mid_target=mid - target,
                    regime=str(classify_regime(y, alpha)),
                    backend_delta=delta,
                )
                rows.append(row)
                fh.write(row.as_csv() + "\n")
                fh.flush()

    worst_mm = min(rows, key=lambda r: r.margin_mean_mid)
    worst_mt = min(rows, key=lambda r: r.margin_mid_target)
    print(f"rows: {len(rows)}", file=stdout)
    print(
        f"min margin mean-mid:    {fmt(worst_mm.margin_mean_mid)} "
        f"at alpha={fmt(worst_mm.alpha)} y={fmt(worst_mm.y)}",
        file=stdout,
    )
    print(
        f"min margin mid-target:  {fmt(worst_mt.margin_mid_target)} "
        f"at alpha={fmt(worst_mt.alpha)} y={fmt(worst_mt.y)}",
        file=stdout,
    )
    print(f"max backend delta:      {fmt(max(r.backend_delta for r in rows))}", file=stdout)

    violations = [
        r for r in rows if r.margin_mean_mid < -cfg.tol or r.margin_mid_target < -cfg.tol
    ]
    if violations:
        for r in violations:
            worst = min(r.margin_mean_mid, r.margin_mid_target)
            print(f"violation: alpha={fmt(r.alpha)} y={fmt(r.y)} margin={fmt(worst)}", file=stderr)
        print("status: VIOLATION", file=stdout)
        return _EXIT_VIOLATION
    print("status: OK", file=stdout)
    return _EXIT_OK


def emit_figure_data(alphas, ys, out_dir: str, stdout=None) -> list[str]:
    """One CSV per alpha with the three curves, quadrature values."""
    import os

    stdout = stdout if stdout is not None else sys.stdout

    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for alpha in alphas:
        path = os.path.join(out_dir, f"chain_alpha_{fmt(alpha)}.csv")
        with open(path, "w", newline="\n") as fh:
            fh.write("y,mean,mid_bound,target_bound\n")
            for y in ys:
                y = float(y)
                mean = 1.0 if y == 0.0 else mean_quadrature(y, alpha).value
                fh.write(
                    f"{fmt(y)},{fmt(mean)},{fmt(mid_bound(y, alpha))},{fmt(target_bound(y, alpha))}\n"
                )
        print(f"wrote {path}", file=stdout)
        paths.append(path)
    return paths


def constant_table(alphas, ys, out_path: str | None, stdout=None) -> list[tuple]:
    """Best-constant rows (alpha, lambda_inf, argmin_y, reference, abs_gap)."""
    stdout = stdout if stdout is not None else sys.stdout
    rows = []
    for alpha in alphas:
        report = best_constant_estimate(alpha, ys)
        reference = min(0.5 * alpha, 1.0)
        gap = abs(report.lambda_inf - reference)
        rows.append((alpha, report.lambda_inf, report.argmin_y, reference, gap))
    header = "alpha,lambda_inf,argmin_y,reference,abs_gap"
    lines = [header] + [",".join(fmt(v) for v in row) for row in rows]
    if out_path:
        with open(out_path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    for line in lines:
        print(line, file=stdout)
    return rows


def mc_crosscheck(
    cfg: SweepConfig,
    n: int,
    dt: float,
    out_path: str,
    stdout=None,
    stderr=None,
) -> int:
    """Compare both MC backends against quadrature over the grid.

    Healthy rows (no variance warning) must sit within 4 sigma of the
    deterministic value, plus the documented sqrt(dt) bias allowance for
    the occupation backend.
    """
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    cfg.validate()
    if n < 10_000:
        raise ValueError("mc crosscheck requires n >= 10000")
    # Reject a bad dt or alpha before --out is opened, not after some rows.
    PathConfig(dt=dt)
    for alpha in cfg.alphas:
        check_alpha(alpha, upper=2.0)
    ys = cfg.grid()
    failures = []
    stream = 0
    with open(out_path, "w", newline="\n") as fh:
        fh.write(
            "alpha,y,deterministic,mc_green,mc_occupation,sigmas_green,sigmas_occupation,warnings\n"
        )
        fh.flush()
        for alpha in sorted(cfg.alphas):
            for y in ys:
                y = float(y)
                det = mean_quadrature(y, alpha, 1e-12).value
                green = mc_area_mean(y, alpha, n, rng_from_seed(cfg.seed, stream))
                occ_seed = int(rng_from_seed(cfg.seed, stream + 1).integers(0, 2**63))
                occ = occupation_time_mc(y, alpha, PathConfig(dt=dt, seed=occ_seed), n)
                stream += 2
                sig_g = abs(green.mean - det) / green.stderr if green.stderr > 0 else 0.0
                sig_o = abs(occ.mean - det) / occ.stderr if occ.stderr > 0 else 0.0
                warned = green.variance_warning or occ.variance_warning
                fh.write(
                    ",".join(
                        [
                            fmt(alpha), fmt(y), fmt(det), fmt(green.mean), fmt(occ.mean),
                            fmt(sig_g), fmt(sig_o), "variance" if warned else "",
                        ]
                    )
                    + "\n"
                )
                fh.flush()
                if not warned:
                    allowance = occupation_bias_allowance(y, alpha, dt)
                    if sig_g > 4.0:
                        failures.append((alpha, y, "mc_green", sig_g))
                    if abs(occ.mean - det) > 4.0 * occ.stderr + allowance:
                        failures.append((alpha, y, "mc_occupation", sig_o))
    if failures:
        for alpha, y, tag, sig in failures:
            print(f"gate failure: alpha={fmt(alpha)} y={fmt(y)} {tag} sigmas={fmt(sig)}", file=stderr)
        print("status: VIOLATION", file=stdout)
        return _EXIT_VIOLATION
    print("status: OK", file=stdout)
    return _EXIT_OK


def run_mean(args, stdout=None) -> int:
    """Evaluate one (y, alpha) with each requested backend."""
    stdout = stdout if stdout is not None else sys.stdout
    backends = args.backend or list(DETERMINISTIC_BACKENDS)
    for b in backends:
        if b not in BACKENDS:
            raise ValueError(f"unknown backend {b!r}")
    if len(args.alpha) != 1:
        raise ValueError("mean evaluates a single point; pass exactly one alpha")
    y, alpha = args.y, args.alpha[0]
    for b in backends:
        if b == BACKEND_QUADRATURE:
            r = mean_quadrature(y, alpha, args.tol)
            print(f"quadrature      value={fmt(r.value)} error={fmt(r.error_estimate)} work={r.work}", file=stdout)
        elif b == BACKEND_SERIES:
            r, trunc = mean_series(y, alpha)
            print(
                f"series          value={fmt(r.value)} tail_bound={fmt(trunc.tail_bound)} terms={trunc.terms_used}",
                file=stdout,
            )
        elif b == BACKEND_AREA_INTEGRAL:
            r = area_integral_mean(y, alpha)
            print(f"area_integral   value={fmt(r.value)} error={fmt(r.error_estimate)} work={r.work}", file=stdout)
        elif b == BACKEND_MC_GREEN:
            est = mc_area_mean(y, alpha, args.n, rng_from_seed(args.seed))
            flag = " variance_warning" if est.variance_warning else ""
            print(f"mc_green        value={fmt(est.mean)} stderr={fmt(est.stderr)} n={est.n}{flag}", file=stdout)
        elif b == BACKEND_MC_OCCUPATION:
            est = occupation_time_mc(y, alpha, PathConfig(dt=args.dt, seed=args.seed), args.n)
            flag = " variance_warning" if est.variance_warning else ""
            print(
                f"mc_occupation   value={fmt(est.mean)} stderr={fmt(est.stderr)} n={est.n}"
                f" discarded={est.discarded} path_steps={est.path_steps}{flag}",
                file=stdout,
            )
    print(f"log_mean        value={fmt(log_mean(y))} reference={fmt(max(0.0, math.log(y)) if y > 0 else 0.0)}", file=stdout)
    return _EXIT_OK


def _alpha_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok)


def _backend_list(text: str) -> list[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circmeans",
        description="Circular power means on the unit circle: backends, bound-chain sweeps, "
        "best-constant recovery and Monte Carlo cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_grid_flags(p, y_min=0.01, y_max=4.0, points=50, log=False):
        p.add_argument("--y-min", type=float, default=y_min)
        p.add_argument("--y-max", type=float, default=y_max)
        p.add_argument("--points", type=int, default=points)
        p.add_argument("--log", action="store_true", default=log, help="log-spaced y grid")

    p_mean = sub.add_parser("mean", help="evaluate one point with selected backends")
    p_mean.add_argument("--alpha", type=_alpha_list, required=True)
    p_mean.add_argument("--y", type=float, required=True)
    p_mean.add_argument("--tol", type=float, default=1e-10)
    p_mean.add_argument("--backend", type=_backend_list, default=None,
                        help="comma-separated backend tags (default: deterministic trio)")
    p_mean.add_argument("--n", type=int, default=100_000, help="MC sample count")
    p_mean.add_argument("--seed", type=int, default=0)
    p_mean.add_argument("--dt", type=float, default=1e-3)

    p_sweep = sub.add_parser("sweep", help="verify the bound chain over a grid")
    p_sweep.add_argument("--alpha", type=_alpha_list, required=True)
    add_grid_flags(p_sweep)
    p_sweep.add_argument("--tol", type=float, default=1e-9)
    p_sweep.add_argument("--backend", type=_backend_list,
                         default=[BACKEND_QUADRATURE, BACKEND_SERIES])
    p_sweep.add_argument("--out", required=True, help="CSV output path")

    p_fig = sub.add_parser("figure", help="emit per-alpha curve data")
    p_fig.add_argument("--alpha", type=_alpha_list, default=(0.5, 1.0, 1.5))
    add_grid_flags(p_fig, y_min=0.0, y_max=3.0, points=301)
    p_fig.add_argument("--out", required=True, help="output directory")

    p_const = sub.add_parser("constants", help="best-constant table")
    p_const.add_argument("--alpha", type=_alpha_list, required=True)
    add_grid_flags(p_const, y_min=1e-4, y_max=50.0, points=80, log=True)
    p_const.add_argument("--out", default=None, help="optional CSV output path")

    p_sharp = sub.add_parser("sharpness", help="witnesses for candidates above alpha/2")
    p_sharp.add_argument("--alpha", type=_alpha_list, required=True)
    p_sharp.add_argument("--excess", type=float, default=1e-3,
                         help="candidate lambda = alpha/2 + excess (>= 1e-4)")
    p_sharp.add_argument("--out", default=None)

    p_mc = sub.add_parser("mc", help="Monte Carlo vs deterministic cross-check")
    p_mc.add_argument("--alpha", type=_alpha_list, required=True)
    add_grid_flags(p_mc, y_min=0.5, y_max=2.0, points=2)
    p_mc.add_argument("--n", type=int, default=100_000)
    p_mc.add_argument("--seed", type=int, default=0)
    p_mc.add_argument("--dt", type=float, default=1e-3)
    p_mc.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "mean":
            return run_mean(args)
        if args.command == "sweep":
            cfg = SweepConfig(
                alphas=args.alpha, y_min=args.y_min, y_max=args.y_max, points=args.points,
                spacing="log" if args.log else "linear", tol=args.tol,
                backends=tuple(args.backend),
            )
            return run_sweep(cfg, args.out)
        if args.command == "figure":
            cfg = SweepConfig(alphas=args.alpha, y_min=args.y_min, y_max=args.y_max,
                              points=args.points, spacing="log" if args.log else "linear")
            cfg.validate()
            emit_figure_data(args.alpha, cfg.grid(), args.out)
            return _EXIT_OK
        if args.command == "constants":
            cfg = SweepConfig(alphas=args.alpha, y_min=args.y_min, y_max=args.y_max,
                              points=args.points, spacing="log" if args.log else "linear")
            cfg.validate()
            constant_table(args.alpha, cfg.grid(), args.out)
            return _EXIT_OK
        if args.command == "sharpness":
            lines = ["alpha,lambda,y,violation"]
            for alpha in args.alpha:
                w = sharpness_witness(alpha, 0.5 * alpha + args.excess)
                lines.append(",".join(fmt(v) for v in (alpha, w.lam, w.y, w.violation)))
            for line in lines:
                print(line)
            if args.out:
                with open(args.out, "w", newline="\n") as fh:
                    fh.write("\n".join(lines) + "\n")
            return _EXIT_OK
        if args.command == "mc":
            cfg = SweepConfig(
                alphas=args.alpha, y_min=args.y_min, y_max=args.y_max, points=args.points,
                spacing="log" if args.log else "linear", seed=args.seed,
            )
            return mc_crosscheck(cfg, args.n, args.dt, args.out)
        raise ValueError(f"unknown command {args.command!r}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_FAILURE
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _EXIT_FAILURE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
