"""Inputs, passes and checks of the three benchmark workloads.

A pass evaluates every row of a workload once, in a closed loop: one
(alpha, y) row starts when the previous one has finished.  Every pass of
a run repeats the same inputs, so passes must give identical outputs.
The program receives only the generated grids and seeds, through the same
calls the ``circmeans`` CLI makes.

verify-chain   the paper's deterministic reproduction: a three-backend
               chain sweep, then the constants, sharpness and figure tables.
near-circle    the ``mean`` subcommand's per-point work near y = 1 and
               beyond y = 8.5, where the known defects live.
mc-crosscheck  the ``mc`` subcommand: both Monte Carlo backends gated
               against quadrature.
"""
from __future__ import annotations

import hashlib
import io
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

WORKLOADS = ("verify-chain", "near-circle", "mc-crosscheck")

# Percentile reported as row_ms_tail: the highest with at least ten rows
# beyond it at the sizes below (mc-crosscheck runs hold about 30 rows).
TAIL_PERCENTILE = {"verify-chain": 99, "near-circle": 95, "mc-crosscheck": 50}

MC_N = 10_000            # the mc subcommand's minimum sample count
MC_DT = 1e-3
MC_GATE_SIGMAS = 4.0


def import_program():
    """Import circmeans from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import circmeans
    import circmeans.cli  # noqa: F401  (binds circmeans.cli)

    where = Path(circmeans.__file__).resolve().parent
    if where != (src / "circmeans").resolve():
        raise ImportError(f"circmeans was imported from {where}, not from {src}")
    return circmeans


@dataclass(frozen=True)
class Op:
    """One checked operation and what it returned.

    ``error`` is the program's own error estimate (NaN when it gives
    none), ``tol`` the tolerance the call asked for (NaN when none).
    ``raised`` names the exception class when the call raised.
    ``extra`` holds kind-specific facts: series terms; for MC, whether a
    variance warning excluded the row from gates and whether the gate
    passed.
    """

    kind: str
    alpha: float
    y: float
    value: float = math.nan
    error: float = math.nan
    tol: float = math.nan
    raised: str = ""
    extra: tuple = ()


@dataclass
class PassResult:
    rows_ms: list[float] = field(default_factory=list)
    csv: bytearray = field(default_factory=bytearray)
    ops: list[Op] = field(default_factory=list)
    wall_s: float = math.nan

    def digest(self) -> str:
        h = hashlib.sha256(bytes(self.csv))
        for op in self.ops:
            h.update(repr(tuple(vars(op).values())).encode())
        return h.hexdigest()


# ---------------------------------------------------------------- inputs

def _jittered_log_grid(rng, lo: float, hi: float, n: int, band: float) -> np.ndarray:
    """n log-spaced points on [lo, hi], each moved by up to 0.4 of a step,
    then pushed out of the band |ln y| < ``band`` around the circle."""
    logs = np.linspace(math.log(lo), math.log(hi), n)
    step = logs[1] - logs[0]
    logs[1:-1] += rng.uniform(-0.4, 0.4, n - 2) * step
    near = np.abs(logs) < band
    logs[near] = np.where(logs[near] < 0.0, -band, band)
    return np.exp(logs)


def make_inputs(name: str, seed: int, tiny: bool = False) -> dict:
    """The grids of one workload; the same seed gives the same grids."""
    rng = np.random.default_rng(seed)
    if name == "verify-chain":
        return dict(
            alphas=(0.5, 1.5) if tiny else (0.25, 0.5, 1.0, 1.5),
            # The near-circle workload covers |ln y| < 0.02, where the
            # series leaves its few-term regime.
            ys=_jittered_log_grid(rng, 0.01, 4.0, 4 if tiny else 64, 0.02),
            const_alphas=(1.0,) if tiny else (0.5, 1.0, 2.0, 3.0),
            const_ys=np.geomspace(1e-4, 50.0, 8 if tiny else 80),
            sharp_alphas=(1.0,) if tiny else (0.5, 1.0, 2.0),
            sharp_excess=1e-3,
            fig_alphas=(1.0,) if tiny else (0.5, 1.0, 1.5),
            fig_ys=np.linspace(0.0, 3.0, 7 if tiny else 301),
        )
    if name == "near-circle":
        alphas = (1.5,) if tiny else (0.25, 0.5, 1.0 - 1e-7, 1.0, 1.5, 1.9)
        ks = (3,) if tiny else range(1, 13)
        rows = [(a, 1.0) for a in alphas]
        # Offsets k = 1..12 go two by two to the alphas in order, on both
        # sides of y = 1, each with its own mantissa c in [1, 10).  Small
        # alphas meet shallow offsets: at deep ones their series runs into
        # the 500k-term cap (about 1 s a call), which y = 1 already shows.
        for k in ks:
            alpha = alphas[min((k - 1) // 2, len(alphas) - 1)]
            for side in (-1.0, 1.0):
                rows.append((alpha, 1.0 + side * float(rng.uniform(1.0, 10.0)) * 10.0**-k))
        large = (9.0,) if tiny else tuple(float(y) for y in range(8, 21))
        rows += [(a, y) for y in large for a in alphas]
        return dict(rows=rows)
    if name == "mc-crosscheck":
        return dict(alphas=(0.5,) if tiny else (0.5, 1.5), ys=(0.5, 2.0), n=MC_N, dt=MC_DT,
                    seed=int(seed))
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def warm_up(cm, seed: int) -> None:
    """One small call into every traced layer, backends first."""
    cli = cm.cli
    cli.mean_quadrature(0.5, 1.0)
    cli.mean_series(0.5, 1.0)
    cli.area_integral_mean(2.0, 1.5)
    cli.log_mean(0.5)
    cli.mc_area_mean(0.5, 1.5, 1000, cli.rng_from_seed(seed, 0))
    cli.occupation_time_mc(0.5, 1.5, cli.PathConfig(dt=MC_DT, seed=seed), 1000)
    cli.occupation_bias_allowance(0.5, 1.5, MC_DT)
    cli.VerificationRow(1.5, 0.5, 1.0, cli.mid_bound(0.5, 1.5), cli.target_bound(0.5, 1.5),
                        0.0, 0.0, "small", 0.0).as_csv()
    cm.constants.lambda_profile(1.0, 0.5)
    cli.sharpness_witness(1.0, 0.5 + 1e-3)


# ---------------------------------------------------------------- passes

def _call(kind: str, alpha: float, y: float, tol: float, fn) -> tuple[Op, object]:
    """Run one backend call; a raise is recorded, not propagated."""
    try:
        out = fn()
    except Exception as exc:  # the benchmark must see every failure and go on
        return Op(kind, alpha, y, tol=tol, raised=type(exc).__name__), None
    return None, out


def _mean_op(kind, alpha, y, tol, fn) -> Op:
    failed, r = _call(kind, alpha, y, tol, fn)
    return failed or Op(kind, alpha, y, r.value, r.error_estimate, tol, extra=(r.work,))


def _series_op(cm, alpha, y) -> Op:
    tol = cm.core.DEFAULT_SERIES_TOL
    failed, out = _call("series", alpha, y, tol, lambda: cm.cli.mean_series(y, alpha))
    if failed:
        return failed
    r, trunc = out
    return Op("series", alpha, y, r.value, trunc.tail_bound, tol, extra=(trunc.terms_used,))


def verify_chain_pass(cm, inp: dict, out_dir: Path) -> PassResult:
    """``sweep --backend quadrature,series,area_integral``, then the
    ``constants``, ``sharpness`` and ``figure`` subcommands.

    Sweep rows repeat the CLI's per-row work (``run_sweep`` and
    ``_mean_all_backends``) so that each row is timed and each backend's
    value reaches the oracle; the CSV bytes are the CLI's.
    """
    cli = cm.cli
    res = PassResult()
    sweep_tol = 1e-9
    quad_tol = min(max(0.1 * sweep_tol, 1e-13), 1e-9)
    sweep_path = out_dir / "sweep.csv"
    with open(sweep_path, "w", newline="\n") as fh:
        fh.write(cli.VerificationRow.HEADER + "\n")
        fh.flush()
        for alpha in sorted(inp["alphas"]):
            for y in inp["ys"]:
                t0 = time.perf_counter()
                y = float(y)
                ops = [
                    _mean_op("quadrature", alpha, y, quad_tol,
                             lambda: cli.mean_quadrature(y, alpha, quad_tol)),
                    _series_op(cm, alpha, y),
                    _mean_op("area_integral", alpha, y, 1e-8,
                             lambda: cli.area_integral_mean(y, alpha)),
                ]
                values = [op.value for op in ops]
                delta = max((abs(a - b) for i, a in enumerate(values) for b in values[i + 1:]),
                            default=0.0)
                mid, target = cli.mid_bound(y, alpha), cli.target_bound(y, alpha)
                row = cli.VerificationRow(
                    alpha=alpha, y=y, mean=values[0], mid=mid, target=target,
                    margin_mean_mid=values[0] - mid, margin_mid_target=mid - target,
                    regime=str(cli.classify_regime(y, alpha)), backend_delta=delta,
                )
                fh.write(row.as_csv() + "\n")
                fh.flush()
                ops.append(Op("chain", alpha, y, min(row.margin_mean_mid, row.margin_mid_target),
                              tol=sweep_tol))
                res.ops += ops
                res.rows_ms.append(1e3 * (time.perf_counter() - t0))
    res.csv += sweep_path.read_bytes()

    buf = io.StringIO()
    failed, table = _call("constants", math.nan, math.nan, math.nan,
                          lambda: cli.constant_table(inp["const_alphas"], inp["const_ys"], None,
                                                     stdout=buf))
    res.ops += [failed] if failed else [Op("constants", a, y, lam) for a, lam, y, _, _ in table]
    res.csv += buf.getvalue().encode()

    lines = ["alpha,lambda,y,violation"]
    for alpha in inp["sharp_alphas"]:
        lam = 0.5 * alpha + inp["sharp_excess"]
        failed, w = _call("sharpness", alpha, math.nan, math.nan,
                          lambda: cli.sharpness_witness(alpha, lam))
        if failed:
            res.ops.append(failed)
            continue
        lines.append(",".join(cli.fmt(v) for v in (alpha, w.lam, w.y, w.violation)))
        res.ops.append(Op("sharpness", alpha, w.y, w.violation, extra=(w.lam,)))
    res.csv += ("\n".join(lines) + "\n").encode()

    failed, paths = _call("figure", math.nan, math.nan, math.nan,
                          lambda: cli.emit_figure_data(inp["fig_alphas"], inp["fig_ys"],
                                                       str(out_dir / "figure"), stdout=io.StringIO()))
    if failed:
        res.ops.append(failed)
    else:
        for alpha, path in zip(inp["fig_alphas"], paths):
            raw = Path(path).read_bytes()
            res.csv += raw
            for line in raw.decode().splitlines()[1:]:
                y, mean = (float(v) for v in line.split(",")[:2])
                res.ops.append(Op("figure", alpha, y, mean, tol=cm.core.DEFAULT_QUAD_TOL))
    return res


def near_circle_pass(cm, inp: dict, out_dir: Path) -> PassResult:
    """The ``mean`` subcommand's calls for every row: each backend on its
    own, so one that raises does not hide the others."""
    cli = cm.cli
    res = PassResult()
    quad_tol = 1e-10                    # the mean subcommand's --tol default
    lines = ["alpha,y,backend,value,error,work,raised"]
    for alpha, y in inp["rows"]:
        t0 = time.perf_counter()
        ops = [
            _mean_op("quadrature", alpha, y, quad_tol, lambda: cli.mean_quadrature(y, alpha, quad_tol)),
            _series_op(cm, alpha, y),
            _mean_op("area_integral", alpha, y, 1e-8, lambda: cli.area_integral_mean(y, alpha)),
        ]
        failed, value = _call("log_mean", alpha, y, 1e-10, lambda: cli.log_mean(y))
        ops.append(failed or Op("log_mean", alpha, y, value, tol=1e-10))
        for op in ops:
            work = op.extra[0] if op.extra else 0
            lines.append(",".join([cli.fmt(alpha), cli.fmt(y), op.kind, cli.fmt(op.value),
                                   cli.fmt(op.error), str(work), op.raised]))
        res.ops += ops
        res.rows_ms.append(1e3 * (time.perf_counter() - t0))
    text = "\n".join(lines) + "\n"
    (out_dir / "near_circle.csv").write_text(text)
    res.csv += text.encode()
    return res


def mc_crosscheck_pass(cm, inp: dict, out_dir: Path) -> PassResult:
    """``mc --n MC_N --dt 1e-3``: the CLI's rows, streams and gates.

    Repeats ``cli.mc_crosscheck`` row by row, so that each row is timed
    and each gate outcome is kept; the CSV bytes are the CLI's.
    """
    cli = cm.cli
    res = PassResult()
    n, dt, seed = inp["n"], inp["dt"], inp["seed"]
    stream = 0
    path = out_dir / "mc.csv"
    with open(path, "w", newline="\n") as fh:
        fh.write("alpha,y,deterministic,mc_green,mc_occupation,sigmas_green,sigmas_occupation,warnings\n")
        fh.flush()
        for alpha in sorted(inp["alphas"]):
            for y in inp["ys"]:
                t0 = time.perf_counter()
                det = cli.mean_quadrature(y, alpha, 1e-12)
                green = cli.mc_area_mean(y, alpha, n, cli.rng_from_seed(seed, stream))
                occ_seed = int(cli.rng_from_seed(seed, stream + 1).integers(0, 2**63))
                occ = cli.occupation_time_mc(y, alpha, cli.PathConfig(dt=dt, seed=occ_seed), n)
                stream += 2
                sig_g = abs(green.mean - det.value) / green.stderr if green.stderr > 0 else 0.0
                sig_o = abs(occ.mean - det.value) / occ.stderr if occ.stderr > 0 else 0.0
                warned = green.variance_warning or occ.variance_warning
                fh.write(",".join([
                    cli.fmt(alpha), cli.fmt(y), cli.fmt(det.value), cli.fmt(green.mean),
                    cli.fmt(occ.mean), cli.fmt(sig_g), cli.fmt(sig_o), "variance" if warned else "",
                ]) + "\n")
                fh.flush()
                green_ok = occ_ok = True
                if not warned:
                    allowance = cli.occupation_bias_allowance(y, alpha, dt)
                    green_ok = sig_g <= MC_GATE_SIGMAS
                    occ_ok = abs(occ.mean - det.value) <= MC_GATE_SIGMAS * occ.stderr + allowance
                res.ops += [
                    Op("quadrature", alpha, y, det.value, det.error_estimate, 1e-12, extra=(det.work,)),
                    Op("mc_green", alpha, y, green.mean, green.stderr, extra=(warned, green_ok, green.n)),
                    Op("mc_occupation", alpha, y, occ.mean, occ.stderr, extra=(warned, occ_ok, occ.n)),
                ]
                res.rows_ms.append(1e3 * (time.perf_counter() - t0))
    res.csv += path.read_bytes()
    return res


PASSES = {
    "verify-chain": verify_chain_pass,
    "near-circle": near_circle_pass,
    "mc-crosscheck": mc_crosscheck_pass,
}


# ---------------------------------------------------------------- checks

# Baseline defects of the program that this benchmark sees.  They count
# in fail_frac and est_miss_frac; the run stays correct as long as every
# failure belongs to one of them.
KNOWN_DEFECTS = {
    "area-large-y": "area_integral_mean raises ValueError for y >~ 8.5 (near-one expansion gets u > 0.5)",
    "series-tail-near-one": "mean_series within 1e-3 of y = 1 stops at the 500k-term cap above tol, "
                            "and its tail bound undershoots the true tail by up to 1%",
    "quadrature-near-one": "mean_quadrature within 0.1 of y = 1 underestimates its error "
                           "and can miss tol (GK15 estimate fooled near theta = pi)",
    "degenerate-band": "area_integral_mean for |alpha - 1| <= 1e-6 and y >= 0.9 uses the alpha = 1 limit, "
                       "off by up to 1e-6 relative",
    "log-mean-near-one": "log_mean within 0.1 of y = 1 can miss tol without raising "
                         "(GK15 estimate fooled near theta = pi)",
}


def feature_mass(kind: str, alpha: float, y: float) -> float:
    """Scale of the integrand's mass over |theta - pi| <= |y - 1|.

    Near y = 1 the circle integrand has a near-singular point of width
    d = |y - 1| at theta = pi: about d^alpha high for the mean and
    |ln d| deep for the log mean.  An adaptive panel whose Kronrod-Gauss
    difference misses that point can lose at most part of this mass.
    """
    d = abs(y - 1.0)
    if d == 0.0:
        return 0.0
    if kind == "log_mean":
        return d * (1.0 + abs(math.log(d))) / math.pi
    return d ** (1.0 + alpha) / math.pi


# Limits of the adaptive-quadrature classes near y = 1.  Two kinds of miss
# are seen: a few times the tolerance (worst 7x), and rare fooled panels
# that lose a small share of the feature mass (worst 0.07 %: log_mean at
# y = 1 + 1.4e-4, 2.9e3 x tol).  Both worsts are from thousands of random
# offsets per decade of |y - 1|; each limit is over ten times its worst.
ADAPTIVE_TOL_FACTOR = 100.0
ADAPTIVE_MASS_SHARE = 1e-2


def known_defect(op: Op, dev: float, slack: float, ref: float) -> str | None:
    """The baseline defect a missed tolerance or estimate belongs to, if any.

    Each class has a limit above the sizes seen at the baseline, so a
    larger error of the same kind is reported as unexpected.
    """
    near_one = abs(op.y - 1.0) <= 1e-3
    if op.kind == "series" and near_one and dev <= 1.01 * op.error + slack:
        return "series-tail-near-one"
    if op.kind in ("quadrature", "log_mean") and abs(op.y - 1.0) < 0.1:
        error = op.tol if math.isnan(op.error) else max(op.error, op.tol)
        limit = (ADAPTIVE_TOL_FACTOR * error
                 + ADAPTIVE_MASS_SHARE * feature_mass(op.kind, op.alpha, op.y))
        if dev <= limit:
            return "quadrature-near-one" if op.kind == "quadrature" else "log-mean-near-one"
    if (op.kind == "area_integral" and abs(op.alpha - 1.0) <= 1e-6 and op.y >= 0.9
            and dev <= 1e-6 * abs(ref) + op.error):
        return "degenerate-band"
    return None


@dataclass
class CheckReport:
    attempted: int = 0
    failed: int = 0
    est_checked: int = 0
    est_missed: int = 0
    known: dict = field(default_factory=dict)        # defect -> count
    unexpected: list = field(default_factory=list)   # descriptions

    def note(self, op: Op, defect: str | None, what: str) -> None:
        if defect is None:
            self.unexpected.append(f"{what}: {op.kind} alpha={op.alpha!r} y={op.y!r} "
                                   f"value={op.value!r} error={op.error!r} raised={op.raised or '-'}")
        else:
            self.known[defect] = self.known.get(defect, 0) + 1

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def est_miss_frac(self) -> float:
        return self.est_missed / self.est_checked if self.est_checked else 0.0


def check_ops(ops: list[Op]) -> CheckReport:
    """Judge every operation against the mpmath oracle or its gate."""
    import oracle

    rep = CheckReport()
    for op in ops:
        rep.attempted += 1
        if op.raised:
            rep.failed += 1
            large_area = op.kind == "area_integral" and op.raised == "ValueError" and op.y > 8.0
            rep.note(op, "area-large-y" if large_area else None, "raised")
            continue
        if op.kind in ("mc_green", "mc_occupation"):
            if not op.extra[1]:            # (warned, gate_ok, n)
                rep.failed += 1
                rep.note(op, None, "MC gate failed")
            continue
        if op.kind == "chain":
            if op.value < -op.tol:
                rep.failed += 1
                rep.note(op, None, "chain violated")
            continue
        if op.kind == "sharpness":
            lam = op.extra[0]
            if not oracle.target_ref(op.y, op.alpha, lam) > oracle.mean_ref(op.y, op.alpha):
                rep.failed += 1
                rep.note(op, None, "witness is no violation")
            continue
        if op.kind == "constants":
            # lambda = (m^(2/alpha) - 1)/y^2 from a quadrature at tol 1e-13:
            # the tolerance carries through with the derivative in m.
            ref = oracle.lambda_ref(op.alpha, op.y)
            m = float(oracle.mean_ref(op.y, op.alpha))
            tol = (2.0 / op.alpha) * m ** (2.0 / op.alpha - 1.0) * 1e-13 / (op.y * op.y)
            if oracle.deviation(op.value, ref) > tol + oracle.slack(ref):
                rep.failed += 1
                rep.note(op, None, "lambda off its tolerance")
            continue
        ref = oracle.log_mean_ref(op.y) if op.kind == "log_mean" else oracle.mean_ref(op.y, op.alpha)
        dev = oracle.deviation(op.value, ref)
        slack = oracle.slack(ref)
        if dev > op.tol + slack:
            rep.failed += 1
            rep.note(op, known_defect(op, dev, slack, float(ref)), f"missed tol by {dev:.3g}")
        if op.kind in ("quadrature", "series", "area_integral"):
            rep.est_checked += 1
            if dev > op.error + slack:
                rep.est_missed += 1
                rep.note(op, known_defect(op, dev, slack, float(ref)), f"estimate missed (err {dev:.3g})")
    return rep


def mc_stderr_rel(ops: list[Op], kind: str) -> float:
    """Median of stderr/mean over the gated (warning-free) rows of ``kind``."""
    rel = [op.error / op.value for op in ops
           if op.kind == kind and not op.raised and not op.extra[0]]
    return float(np.median(rel)) if rel else 0.0
