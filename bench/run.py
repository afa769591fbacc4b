"""circmeans benchmark: one command for every workload and metric.

    python3 bench/run.py --workload verify-chain --seed 1 --seconds 20 --trace 0

Runs one workload in this fresh interpreter.  Set-up (imports, grid
generation and one warm-up call per layer) is timed here and in four more
fresh interpreters; then passes over the workload's rows repeat, in a
closed loop from one process with no extra threads, until ``--seconds``
would be exceeded (at least two passes, whose output digests must agree).
Outputs are then judged against an mpmath oracle, outside every timing.

With ``--trace 0`` the last stdout line is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` half the time runs untraced and
half traced, and the object carries the per-layer metrics.  The lines
before it give machine facts, verdicts, digests and every figure in
words.  Exit status is 0 when a result was printed, 2 when the program
could not be imported, and non-zero whenever no result was printed.
"""
from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# One process, no extra threads: pin the BLAS pools before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 4


def setup(name: str, seed: int):
    """Everything ``setup_s`` covers: import, grids, warm-up."""
    cm = workloads.import_program()
    inputs = workloads.make_inputs(name, seed)
    workloads.warm_up(cm, seed)
    return cm, inputs


def probe_setup_s(name: str, seed: int) -> list[float]:
    """Set-up time of SETUP_PROBES fresh interpreters, one after another."""
    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", name, "--seed", str(seed), "--seconds", "0"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(done.stdout.split()[-1]))
    return out


def run_passes(fn, budget_s: float, min_passes: int, before_pass=None) -> list:
    """Repeat ``fn`` while the next pass is expected to fit in the budget."""
    results = []
    start = time.perf_counter()
    while True:
        gc.collect()
        if before_pass is not None:
            before_pass(len(results))
        t = time.perf_counter()
        res = fn()
        res.wall_s = time.perf_counter() - t
        results.append(res)
        elapsed = time.perf_counter() - start
        if len(results) >= min_passes and elapsed + res.wall_s > budget_s:
            return results


def percentile(values: list[float], q: int) -> float:
    if q == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _git_commit() -> str | None:
    git = workloads.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts(cm) -> dict:
    import hashlib

    import mpmath
    import numpy
    import scipy

    src = hashlib.sha256()
    for path in sorted((workloads.ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(workloads.ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "circmeans": cm.__version__,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": _git_commit(),
        "src_sha256": src.hexdigest(),
    }


def report_checks(name: str, results: list, say) -> tuple[bool, workloads.CheckReport]:
    """Digest agreement and oracle checks; prints the verdict lines."""
    import oracle

    digests = [r.digest() for r in results]
    same = len(set(digests)) == 1
    say(f"digest: sha256:{digests[0]} over {len(digests)} passes, "
        f"{'identical' if same else 'DIFFERENT: ' + ' '.join(d[:12] for d in digests)}")
    problems = oracle.self_check()
    say(f"oracle self-check: {'ok' if not problems else 'FAILED: ' + '; '.join(problems)}")
    rep = workloads.check_ops(results[0].ops)
    for defect, count in sorted(rep.known.items()):
        say(f"baseline defect seen: {defect} x{count} ({workloads.KNOWN_DEFECTS[defect]})")
    for line in rep.unexpected:
        say(f"UNEXPECTED: {line}")
    correct = same and not problems and not rep.unexpected
    say(f"verdict: {name} correct={str(correct).lower()} attempted={rep.attempted} failed={rep.failed} "
        f"fail_frac={rep.fail_frac:.6g} est_miss_frac={rep.est_miss_frac:.6g} "
        f"({rep.est_missed}/{rep.est_checked} estimates)")
    return correct, rep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    name = args.workload

    try:
        cm, inputs = setup(name, args.seed)
    except ImportError as exc:
        print(f"error: cannot import the circmeans program: {exc}", file=sys.stderr)
        return 2
    setup_main = time.perf_counter() - T0
    if args.setup_probe:
        print(repr(setup_main))
        return 0

    def say(line: str) -> None:
        print(line, flush=True)

    say(f"workload: {name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    out_dir = workloads.OUT / name
    (out_dir / "figure").mkdir(parents=True, exist_ok=True)
    pass_fn = workloads.PASSES[name]

    def one_pass():
        return pass_fn(cm, inputs, out_dir)

    if args.trace:
        plain = run_passes(one_pass, 0.5 * args.seconds, 1)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.phase("setup")
            workloads.warm_up(cm, args.seed)
            traced = run_passes(one_pass, 0.5 * args.seconds, 1,
                                before_pass=lambda i: tracer.phase(f"pass{i}"))
        finally:
            tracer.uninstall()
        tracer.write(out_dir / "trace.npz")
        results = plain + traced
    else:
        setup_samples = [setup_main] + probe_setup_s(name, args.seed)
        results = run_passes(one_pass, args.seconds, 2)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    say("machine: " + json.dumps(machine_facts(cm), sort_keys=True))
    correct, rep = report_checks(name, results, say)
    rows = [ms for r in results for ms in r.rows_ms]
    walls = [r.wall_s for r in results]
    q_tail = workloads.TAIL_PERCENTILE[name]
    beyond = int(len(rows) * (100 - q_tail) / 100)
    say(f"rows: {len(rows)} over {len(results)} passes; {beyond} rows beyond p{q_tail}"
        + ("" if beyond >= 10 else " (fewer than 10: the tail percentile is not resolved)"))
    stderr_rel = {kind: workloads.mc_stderr_rel(results[0].ops, kind)
                  for kind in ("mc_green", "mc_occupation")}

    if args.trace:
        n_plain = len(plain)
        metrics = tracer.layer_metrics("setup", [f"pass{i}" for i in range(len(traced))])
        metrics.update({
            "stochastic.green.stderr_rel": stderr_rel["mc_green"],
            "stochastic.occupation.stderr_rel": stderr_rel["mc_occupation"],
            "cli.csv_bytes": len(results[0].csv),
            "check.fail_frac": rep.fail_frac,
            "check.est_miss_frac": rep.est_miss_frac,
            "trace.overhead_s": statistics.median(walls[n_plain:]) - statistics.median(walls[:n_plain]),
        })
        say(f"spans: {len(tracer.span_start)} written to {out_dir / 'trace.npz'}")
        units = {k: u for k, (u, _) in tracing.PER_LAYER.items()}
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup_samples),
            "row_ms_p50": percentile(rows, 50),
            "row_ms_tail": percentile(rows, q_tail),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"wall_s": "s", "setup_s": "s", "row_ms_p50": "ms", "row_ms_tail": "ms",
                 "peak_rss_mb": "MB"}
        say(f"setup samples (s): {' '.join(f'{s:.4f}' for s in setup_samples)}")
        say(f"pass walls (s): {' '.join(f'{w:.4f}' for w in walls)}")
        for q in (90, 99):
            if len(rows) * (100 - q) / 100 >= 10:
                say(f"row_ms_p{q} = {percentile(rows, q):.6g} ms")
        say(f"mc_green.stderr_rel = {stderr_rel['mc_green']:.6g}  "
            f"mc_occupation.stderr_rel = {stderr_rel['mc_occupation']:.6g}")
    for key, value in metrics.items():
        say(f"metric {key} = {value:.6g} {units[key]}")
    print(json.dumps({
        "correct": correct,
        "attempted": rep.attempted,
        "failed": rep.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
