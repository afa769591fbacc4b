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
import os
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
    check_radius,
    check_tol,
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


def _csv(*values) -> str:
    """One CSV row: numbers through :func:`fmt`, strings as they are."""
    return ",".join([v if isinstance(v, str) else fmt(v) for v in values])


def _table(header: str, rows, out_path: str | None, stdout=None) -> None:
    """Print a CSV table and, given ``out_path``, write it there too."""
    lines = [header] + [_csv(*row) for row in rows]
    if out_path:
        with open(out_path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    for line in lines:
        print(line, file=stdout)


@dataclass(frozen=True)
class SweepConfig:
    """Grid and tolerance settings shared by the grid subcommands,
    validated when built."""

    alphas: tuple[float, ...]
    y_min: float
    y_max: float
    points: int
    spacing: str = "linear"
    tol: float = 1e-9
    seed: int = 0
    backends: tuple[str, ...] = (BACKEND_QUADRATURE, BACKEND_SERIES)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if not self.alphas:
            raise ValueError("at least one alpha is required")
        for a in self.alphas:
            check_alpha(a)
        if not check_radius(self.y_min) < check_radius(self.y_max):
            raise ValueError("need 0 <= y_min < y_max")
        if self.spacing == "log" and self.y_min <= 0.0:
            raise ValueError("log spacing requires y_min > 0")
        if self.points < 2:
            raise ValueError("points must be >= 2")
        check_tol(self.tol)
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
        return _csv(*vars(self).values())


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
    stderr = stderr if stderr is not None else sys.stderr
    # Reject what the bound chain cannot take before --out is opened.
    for alpha in cfg.alphas:
        check_alpha(alpha, upper=2.0)
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
    # Reject what the bound chain cannot take before out_dir is created.
    for alpha in alphas:
        check_alpha(alpha, upper=2.0)
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for alpha in alphas:
        path = os.path.join(out_dir, f"chain_alpha_{fmt(alpha)}.csv")
        with open(path, "w", newline="\n") as fh:
            fh.write("y,mean,mid_bound,target_bound\n")
            for y in ys:
                y = float(y)
                fh.write(_csv(y, mean_quadrature(y, alpha).value, mid_bound(y, alpha),
                              target_bound(y, alpha)) + "\n")
        print(f"wrote {path}", file=stdout)
        paths.append(path)
    return paths


def constant_table(alphas, ys, out_path: str | None, stdout=None) -> list[tuple]:
    """Best-constant rows (alpha, lambda_inf, argmin_y, reference, abs_gap)."""
    rows = []
    for alpha in alphas:
        report = best_constant_estimate(alpha, ys)
        reference = min(0.5 * alpha, 1.0)
        gap = abs(report.lambda_inf - reference)
        rows.append((alpha, report.lambda_inf, report.argmin_y, reference, gap))
    _table("alpha,lambda_inf,argmin_y,reference,abs_gap", rows, out_path, stdout)
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
    stderr = stderr if stderr is not None else sys.stderr
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
                fh.write(_csv(alpha, y, det, green.mean, occ.mean, sig_g, sig_o,
                              "variance" if warned else "") + "\n")
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
    backends = args.backends or DETERMINISTIC_BACKENDS
    for b in backends:
        if b not in BACKENDS:
            raise ValueError(f"unknown backend {b!r}")
    if len(args.alphas) != 1:
        raise ValueError("mean evaluates a single point; pass exactly one alpha")
    y, alpha = args.y, args.alphas[0]
    # Quadrature and series take any alpha > 0, the rest alpha <= 2; check
    # before any value is printed.
    check_alpha(alpha, upper=None if set(backends) <= {BACKEND_QUADRATURE, BACKEND_SERIES} else 2.0)
    for b in backends:
        if b == BACKEND_QUADRATURE:
            r = mean_quadrature(y, alpha, args.tol)
            print(f"quadrature      value={fmt(r.value)} error={fmt(r.error_estimate)} work={r.work}", file=stdout)
        elif b == BACKEND_SERIES:
            r, trunc = mean_series(y, alpha)
            print(
                f"series          value={fmt(r.value)} tail_bound={fmt(trunc.tail_bound)} terms={trunc.terms_used}"
                f" path={trunc.path}",
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


def _backend_list(text: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circmeans",
        description="Circular power means on the unit circle: backends, bound-chain sweeps, "
        "best-constant recovery and Monte Carlo cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # main builds SweepConfig from every parsed name that is one of its
    # fields, so a flag that sets a field is stored under the field's name.
    def add(name, summary, grid=None, alphas=None):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--alpha", dest="alphas", metavar="ALPHA", type=_alpha_list,
                       required=alphas is None, default=alphas)
        if grid:
            y_min, y_max, points = grid
            p.add_argument("--y-min", type=float, default=y_min)
            p.add_argument("--y-max", type=float, default=y_max)
            p.add_argument("--points", type=int, default=points)
        return p

    p_mean = add("mean", "evaluate one point with selected backends")
    p_mean.add_argument("--y", type=float, required=True)
    p_mean.add_argument("--tol", type=float, default=1e-10)
    p_mean.add_argument("--backend", dest="backends", metavar="BACKEND", type=_backend_list,
                        help="comma-separated backend tags (default: deterministic trio)")
    p_mean.add_argument("--n", type=int, default=100_000, help="MC sample count")
    p_mean.add_argument("--seed", type=int, default=0)
    p_mean.add_argument("--dt", type=float, default=1e-3)

    p_sweep = add("sweep", "verify the bound chain over a grid", (0.01, 4.0, 50))
    p_sweep.add_argument("--tol", type=float, default=1e-9)
    p_sweep.add_argument("--backend", dest="backends", metavar="BACKEND", type=_backend_list,
                         default=(BACKEND_QUADRATURE, BACKEND_SERIES))
    p_sweep.add_argument("--out", required=True, help="CSV output path")

    p_fig = add("figure", "emit per-alpha curve data", (0.0, 3.0, 301), alphas=(0.5, 1.0, 1.5))
    p_fig.add_argument("--out", required=True, help="output directory")

    p_const = add("constants", "best-constant table", (1e-4, 50.0, 80))
    p_const.add_argument("--out", default=None, help="optional CSV output path")
    # constants always takes a log grid, accumulating at y = 0.
    p_const.set_defaults(spacing="log")

    p_sharp = add("sharpness", "witnesses for candidates above alpha/2")
    p_sharp.add_argument("--excess", type=float, default=1e-3,
                         help="candidate lambda = alpha/2 + excess (>= 1e-4)")
    p_sharp.add_argument("--out", default=None)

    p_mc = add("mc", "Monte Carlo vs deterministic cross-check", (0.5, 2.0, 2))
    p_mc.add_argument("--n", type=int, default=100_000)
    p_mc.add_argument("--seed", type=int, default=0)
    p_mc.add_argument("--dt", type=float, default=1e-3)
    p_mc.add_argument("--out", required=True)

    for p in (p_sweep, p_fig, p_mc):
        p.add_argument("--log", dest="spacing", action="store_const", const="log",
                       default="linear", help="log-spaced y grid")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "mean":
            return run_mean(args)
        if args.command == "sharpness":
            rows = []
            for alpha in args.alphas:
                w = sharpness_witness(alpha, 0.5 * alpha + args.excess)
                rows.append((alpha, w.lam, w.y, w.violation))
            _table("alpha,lambda,y,violation", rows, args.out)
            return _EXIT_OK
        fields = SweepConfig.__dataclass_fields__
        cfg = SweepConfig(**{k: v for k, v in vars(args).items() if k in fields})
        if args.command == "sweep":
            return run_sweep(cfg, args.out)
        if args.command == "mc":
            return mc_crosscheck(cfg, args.n, args.dt, args.out)
        if args.command == "figure":
            emit_figure_data(cfg.alphas, cfg.grid(), args.out)
        else:
            constant_table(cfg.alphas, cfg.grid(), args.out)
        return _EXIT_OK
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
    except (NumericalFailure, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
    return _EXIT_FAILURE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
