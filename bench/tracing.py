"""Spans and counters recorded from outside the circmeans package.

The traced run replaces public functions of each layer with wrappers
that open a span, call the original, close the span and read counts from
the return value.  A function is replaced under every name a circmeans
module holds it by, so ``circmeans.disk.integrate_adaptive`` and
``circmeans.cli.mean_quadrature`` are traced as well as the definitions.
Nothing under ``src/`` is edited; :meth:`Tracer.uninstall` restores the
originals.

Each span records its name, start, end and parent.  Spans stay in
memory, in flat arrays, until :meth:`Tracer.write` saves them.  A span's
self time is its duration minus the durations of its direct children;
with one thread the children never overlap, so that is exactly the time
the children cover.
"""
from __future__ import annotations

import functools
import math
import statistics
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# Functions wrapped per layer: (module, attribute, span name).
LAYER_FUNCTIONS = [
    ("quadrature", "integrate_adaptive", "quadrature.adaptive"),
    ("quadrature", "integrate_tanhsinh_singular", "quadrature.tanhsinh"),
    ("circle", "mean_quadrature", "circle.mean_quadrature"),
    ("circle", "mean_series", "circle.mean_series"),
    ("circle", "binomial_series_mean", "circle.binomial_series_mean"),
    ("circle", "log_mean", "circle.log_mean"),
    ("disk", "area_integral_mean", "disk.area_integral_mean"),
    ("disk", "inner_mean", "disk.inner_mean"),
    ("disk", "inner_mean_near_one", "disk.inner_mean_near_one"),
    ("bounds", "mid_bound", "bounds.mid_bound"),
    ("bounds", "target_bound", "bounds.target_bound"),
    ("bounds", "bernoulli_gap", "bounds.bernoulli_gap"),
    ("bounds", "bernoulli_log_gap", "bounds.bernoulli_log_gap"),
    ("bounds", "am_gm_sandwich", "bounds.am_gm_sandwich"),
    ("constants", "lambda_profile", "constants.lambda_profile"),
    ("constants", "second_derivative_at_zero", "constants.second_derivative_at_zero"),
    ("constants", "best_constant_estimate", "constants.best_constant_estimate"),
    ("constants", "sharpness_witness", "constants.sharpness_witness"),
    ("constants", "verify_inequality", "constants.verify_inequality"),
    ("constants", "curvature_gap", "constants.curvature_gap"),
    ("stochastic", "mc_area_mean", "stochastic.mc_area_mean"),
    ("stochastic", "occupation_time_mc", "stochastic.occupation_time_mc"),
    ("stochastic", "sample_green_points", "stochastic.sample_green_points"),
    ("stochastic", "occupation_bias_allowance", "stochastic.occupation_bias_allowance"),
    ("cli", "fmt", "cli.fmt"),
    ("cli", "constant_table", "cli.constant_table"),
    ("cli", "emit_figure_data", "cli.emit_figure_data"),
]

# Per-layer metrics of a traced run: name -> (unit, better).
PER_LAYER = {
    "quadrature.adaptive.calls": ("count", "lower"),
    "quadrature.adaptive.evals": ("count", "lower"),
    "quadrature.adaptive.self_s": ("s", "lower"),
    "quadrature.adaptive.failures": ("count", "lower"),
    "quadrature.tanhsinh.calls": ("count", "lower"),
    "quadrature.tanhsinh.evals": ("count", "lower"),
    "quadrature.tanhsinh.self_s": ("s", "lower"),
    "quadrature.tanhsinh.failures": ("count", "lower"),
    "circle.mean_quadrature.calls": ("count", "lower"),
    "circle.mean_quadrature.self_s": ("s", "lower"),
    "circle.mean_series.calls": ("count", "lower"),
    "circle.mean_series.terms": ("count", "lower"),
    "circle.mean_series.self_s": ("s", "lower"),
    "circle.mean_series.tail_misses": ("count", "lower"),
    "circle.binomial_series_mean.terms": ("count", "lower"),
    "circle.binomial_series_mean.self_s": ("s", "lower"),
    "circle.log_mean.self_s": ("s", "lower"),
    "disk.area_integral_mean.calls": ("count", "lower"),
    "disk.area_integral_mean.evals": ("count", "lower"),
    "disk.area_integral_mean.self_s": ("s", "lower"),
    "disk.area_integral_mean.failures": ("count", "lower"),
    "disk.inner_mean.points": ("count", "lower"),
    "disk.inner_mean.self_s": ("s", "lower"),
    "disk.inner_mean_near_one.points": ("count", "lower"),
    "disk.inner_mean_near_one.self_s": ("s", "lower"),
    "bounds.calls": ("count", "lower"),
    "bounds.self_s": ("s", "lower"),
    "constants.lambda_profile.calls": ("count", "lower"),
    "constants.self_s": ("s", "lower"),
    "constants.sharpness_witness.self_s": ("s", "lower"),
    "stochastic.occupation.path_steps": ("count", "lower"),
    "stochastic.occupation.ns_per_path_step": ("ns", "lower"),
    "stochastic.occupation.discarded": ("count", "lower"),
    "stochastic.green.points": ("count", "lower"),
    "stochastic.green.ns_per_point": ("ns", "lower"),
    "stochastic.mc_area_mean.self_s": ("s", "lower"),
    "stochastic.occupation_time_mc.self_s": ("s", "lower"),
    "stochastic.green.stderr_rel": ("fraction", "lower"),
    "stochastic.occupation.stderr_rel": ("fraction", "lower"),
    "core.rng.normals": ("count", "lower"),
    "core.rng.uniforms": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.csv_bytes": ("bytes", "lower"),
    "check.fail_frac": ("fraction", "lower"),
    "check.est_miss_frac": ("fraction", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


# Leaves of per-layer metrics read straight from a bucket's counters.
COUNTED = {"evals", "failures", "terms", "tail_misses", "points", "discarded", "normals", "uniforms"}


class Bucket:
    """Counts and times of one phase: the set-up warm-up or one pass."""

    def __init__(self):
        self.count = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)


class CountingGenerator:
    """A numpy Generator that counts the normal and uniform variates drawn.

    Draws are delegated unchanged, so the stream (and every estimate built
    on it) is the same as without counting.
    """

    def __init__(self, gen: np.random.Generator, tracer: "Tracer"):
        self._gen = gen
        self._tracer = tracer

    def _add(self, key: str, size) -> None:
        n = 1 if size is None else math.prod(np.atleast_1d(size).tolist())
        self._tracer.bucket.count[key] += int(n)

    def standard_normal(self, size=None, *args, **kwargs):
        self._add("core.rng.normals", size)
        return self._gen.standard_normal(size, *args, **kwargs)

    def random(self, size=None, *args, **kwargs):
        self._add("core.rng.uniforms", size)
        return self._gen.random(size, *args, **kwargs)

    def uniform(self, low=0.0, high=1.0, size=None):
        self._add("core.rng.uniforms", size)
        return self._gen.uniform(low, high, size)

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _arg(args, kwargs, pos: int, name: str, default):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _on_adaptive(b: Bucket, args, kwargs, out) -> None:
    b.count["quadrature.adaptive.evals"] += out[2]
    if out[1] > _arg(args, kwargs, 3, "tol", math.inf):
        b.count["quadrature.adaptive.failures"] += 1


def _on_tanhsinh(b: Bucket, args, kwargs, out) -> None:
    b.count["quadrature.tanhsinh.evals"] += out[2]


def _on_series(b: Bucket, args, kwargs, out) -> None:
    from circmeans.core import DEFAULT_SERIES_TOL

    trunc = out[1]
    b.count["circle.mean_series.terms"] += trunc.terms_used
    if trunc.tail_bound > _arg(args, kwargs, 2, "tol", DEFAULT_SERIES_TOL):
        b.count["circle.mean_series.tail_misses"] += 1


def _on_binomial(b: Bucket, args, kwargs, out) -> None:
    b.count["circle.binomial_series_mean.terms"] += out[2]


def _on_area(b: Bucket, args, kwargs, out) -> None:
    b.count["disk.area_integral_mean.evals"] += out.work


def _points(key: str):
    def on_call(b: Bucket, args, kwargs, out) -> None:
        b.count[key] += int(np.size(args[0]))
    return on_call


def _on_occupation(b: Bucket, args, kwargs, out) -> None:
    # occupation_time_mc does not report its discards: n - estimate.n.
    b.count["stochastic.occupation.discarded"] += int(_arg(args, kwargs, 3, "n", out.n)) - out.n


def _on_green_points(b: Bucket, args, kwargs, out) -> None:
    b.count["stochastic.green.points"] += int(_arg(args, kwargs, 1, "n", 0))


def _on_kernel_failure(stem: str):
    """A quadrature kernel fails when it raises NumericalFailure; an error
    raised by the integrand belongs to the integrand's layer."""
    def on_raise(b: Bucket, exc: BaseException) -> None:
        from circmeans.core import NumericalFailure

        if isinstance(exc, NumericalFailure):
            b.count[stem + ".failures"] += 1
            b.count[stem + ".evals"] += exc.work
    return on_raise


def _on_area_failure(b: Bucket, exc: BaseException) -> None:
    b.count["disk.area_integral_mean.failures"] += 1


ON_RETURN = {
    "quadrature.adaptive": _on_adaptive,
    "quadrature.tanhsinh": _on_tanhsinh,
    "circle.mean_series": _on_series,
    "circle.binomial_series_mean": _on_binomial,
    "disk.area_integral_mean": _on_area,
    "disk.inner_mean": _points("disk.inner_mean.points"),
    "disk.inner_mean_near_one": _points("disk.inner_mean_near_one.points"),
    "stochastic.occupation_time_mc": _on_occupation,
    "stochastic.sample_green_points": _on_green_points,
}

ON_RAISE = {
    "quadrature.adaptive": _on_kernel_failure("quadrature.adaptive"),
    "quadrature.tanhsinh": _on_kernel_failure("quadrature.tanhsinh"),
    "disk.area_integral_mean": _on_area_failure,
}


class Tracer:
    """In-memory span recorder with per-phase buckets of counts and times."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._child_s: list[float] = []
        self.buckets: dict[str, Bucket] = {}
        self.bucket = Bucket()
        self._patched: list[tuple[object, str, object]] = []

    def phase(self, label: str) -> Bucket:
        """Send counts and times from now on to a fresh bucket ``label``."""
        self.bucket = self.buckets[label] = Bucket()
        return self.bucket

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(math.nan)
        self._stack.append(idx)
        self._child_s.append(0.0)
        self.bucket.count[name + ".calls"] += 1
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, name: str) -> None:
        end = time.perf_counter()
        self.span_end[idx] = end
        duration = end - self.span_start[idx]
        self._stack.pop()
        children = self._child_s.pop()
        if self._child_s:
            self._child_s[-1] += duration
        self.bucket.self_s[name] += duration - children
        self.bucket.total_s[name] += duration

    def wrap(self, fn, name: str):
        on_return = ON_RETURN.get(name)
        on_raise = ON_RAISE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self._close(idx, name)
                if on_raise is not None:
                    on_raise(self.bucket, exc)
                raise
            self._close(idx, name)
            if on_return is not None:
                on_return(self.bucket, args, kwargs, out)
            return out

        return traced

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "circmeans" or mod_name.startswith("circmeans.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        """Wrap every layer function, ``VerificationRow.as_csv`` and the RNG factory."""
        import importlib

        for module, attr, name in LAYER_FUNCTIONS:
            original = getattr(importlib.import_module(f"circmeans.{module}"), attr)
            self._replace_everywhere(original, self.wrap(original, name))
        cli = importlib.import_module("circmeans.cli")
        row_cls = cli.VerificationRow
        self._patched.append((row_cls, "as_csv", row_cls.as_csv))
        row_cls.as_csv = self.wrap(row_cls.as_csv, "cli.as_csv")
        rng_from_seed = importlib.import_module("circmeans.core").rng_from_seed

        @functools.wraps(rng_from_seed)
        def counting_rng(seed, stream=0):
            return CountingGenerator(rng_from_seed(seed, stream), self)

        for mod in (importlib.import_module("circmeans.stochastic"), cli):
            self._patched.append((mod, "rng_from_seed", rng_from_seed))
            mod.rng_from_seed = counting_rng

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patched):
            setattr(target, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        """Save every span (name, start, end, parent) as compressed arrays."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )

    def layer_metrics(self, setup: str, passes: list[str]) -> dict[str, float]:
        """Per-layer figures of the set-up warm-up plus one pass.

        Counts repeat exactly from pass to pass; times are the median over
        the traced passes.  ``<stem>.self_s`` and ``<stem>.calls`` sum every
        span named ``stem`` or ``stem.*``, so ``bounds.self_s`` covers the
        whole layer.  Metrics that do not come from spans (relative
        stderr, CSV bytes, check fractions, overhead) are left out.
        """
        def merged(fn):
            return fn(self.buckets[setup]) + statistics.median(fn(self.buckets[p]) for p in passes)

        def under(table, stem, suffix=""):
            return sum(v for k, v in table.items()
                       if k == stem + suffix or (k.startswith(stem + ".") and k.endswith(suffix)))

        out = {}
        for key in PER_LAYER:
            stem, _, leaf = key.rpartition(".")
            if leaf == "self_s":
                out[key] = merged(lambda b: under(b.self_s, stem))
            elif leaf == "calls":
                out[key] = merged(lambda b: under(b.count, stem, ".calls"))
            elif leaf in COUNTED:
                out[key] = merged(lambda b: b.count[key])
        out["stochastic.occupation.path_steps"] = merged(lambda b: b.count["core.rng.normals"] // 2)
        steps = sum(b.count["core.rng.normals"] for b in self.buckets.values()) / 2
        points = sum(b.count["stochastic.green.points"] for b in self.buckets.values())

        def busy(name):
            return sum(b.total_s[name] for b in self.buckets.values())

        out["stochastic.occupation.ns_per_path_step"] = (
            1e9 * busy("stochastic.occupation_time_mc") / steps if steps else 0.0)
        out["stochastic.green.ns_per_point"] = (
            1e9 * busy("stochastic.sample_green_points") / points if points else 0.0)
        return out
