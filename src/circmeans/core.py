"""Shared domain types, parameter validation and RNG policy.

Every quantity in this package is parameterized by the exponent ``alpha``
of the circular power mean and by the non-negative radius ``y`` (the
modulus ratio after reducing a pair of complex numbers to canonical
position).  This module owns the validation rules for those parameters,
the branch classification of the piecewise intermediate bound, and the
result containers shared by the deterministic and Monte Carlo backends.

All containers are frozen dataclasses: immutable values that are safe to
share between threads.
"""
from __future__ import annotations

import enum
import math
import operator
from dataclasses import KW_ONLY, dataclass

import numpy as np

# Default absolute tolerance for quadrature-based means.
DEFAULT_QUAD_TOL = 1e-10
# Default bound on the omitted tail of the power-series backend.
DEFAULT_SERIES_TOL = 1e-12

BACKEND_QUADRATURE = "quadrature"
BACKEND_SERIES = "series"
BACKEND_AREA_INTEGRAL = "area_integral"
BACKEND_MC_GREEN = "mc_green"
BACKEND_MC_OCCUPATION = "mc_occupation"

BACKENDS = frozenset(
    {
        BACKEND_QUADRATURE,
        BACKEND_SERIES,
        BACKEND_AREA_INTEGRAL,
        BACKEND_MC_GREEN,
        BACKEND_MC_OCCUPATION,
    }
)

DETERMINISTIC_BACKENDS = (BACKEND_QUADRATURE, BACKEND_SERIES, BACKEND_AREA_INTEGRAL)


class NumericalFailure(RuntimeError):
    """A numerical routine could not meet its contract.

    Carries the best estimate produced so far together with the error
    estimate attached to it, so callers can decide whether the partial
    answer is still useful.
    """

    def __init__(self, message: str, *, best_estimate: float = math.nan,
                 error_estimate: float = math.inf, work: int = 0):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate
        self.work = work


def check_alpha(alpha: float, *, upper: float | None = None) -> float:
    """Validate the mean exponent.  Must be finite and > 0.

    Operations tied to the sharp-constant result additionally pass
    ``upper=2.0``: those contracts only hold on (0, 2].
    """
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha <= 0.0:
        raise ValueError(f"alpha must be a finite positive real, got {alpha!r}")
    if upper is not None and alpha > upper:
        raise ValueError(f"alpha must lie in (0, {upper}], got {alpha!r}")
    return alpha


def check_radius(y: float) -> float:
    """Validate the radius: finite and >= 0."""
    y = float(y)
    if not math.isfinite(y) or y < 0.0:
        raise ValueError(f"radius y must be a finite non-negative real, got {y!r}")
    return y


def check_tol(tol: float) -> float:
    """Validate an absolute tolerance: finite and > 0."""
    tol = float(tol)
    if not math.isfinite(tol) or tol <= 0.0:
        raise ValueError(f"tolerance must be a finite positive real, got {tol!r}")
    return tol


def check_integer(name: str, value) -> int:
    """``value`` as an int; bools, floats and other non-integers raise ValueError.

    Accepts Python and numpy integers of any size.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


class BranchRegime(enum.Enum):
    """Branch of the piecewise intermediate bound a given (y, alpha) falls in.

    ``SMALL`` covers y^2 <= 1, ``LARGE`` covers y^2 >= (1 - alpha/2)^(-1)
    and ``MIDDLE`` the open interval between.  For alpha = 2 the large
    threshold is +inf, so the large branch is empty.
    """

    SMALL = "small"
    MIDDLE = "middle"
    LARGE = "large"

    def __str__(self) -> str:  # CSV-friendly
        return self.value


def large_branch_threshold(alpha: float) -> float:
    """Value of y^2 at which the large branch starts; +inf for alpha = 2."""
    alpha = check_alpha(alpha, upper=2.0)
    if alpha == 2.0:
        return math.inf
    return 1.0 / (1.0 - alpha / 2.0)


def classify_regime(y: float, alpha: float) -> BranchRegime:
    """Classify (y, alpha) into the small/middle/large branch.

    Boundary points go to the closed branches: y^2 = 1 is small and
    y^2 = (1 - alpha/2)^(-1) is large.  At y^2 = 1 the adjacent branch
    values agree, so the assignment is value-neutral there.
    """
    y = check_radius(y)
    alpha = check_alpha(alpha, upper=2.0)
    t = y * y
    if t <= 1.0:
        return BranchRegime.SMALL
    if t >= large_branch_threshold(alpha):
        return BranchRegime.LARGE
    return BranchRegime.MIDDLE


@dataclass(frozen=True)
class MeanResult:
    """One evaluation of a circular mean.

    value           computed mean, >= 0
    error_estimate  claimed absolute error bound (tail bound, quadrature
                    error estimate, or stderr-derived for MC wrappers)
    backend         one of BACKENDS
    work            integrand evaluations or series terms consumed
    """

    value: float
    error_estimate: float
    backend: str
    work: int

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        # inf is allowed: a capped series reports an infinite tail.
        if not self.error_estimate >= 0.0:
            raise ValueError(f"error_estimate must be >= 0, got {self.error_estimate!r}")


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo estimate with its statistical health.

    When ``variance_warning`` is False, ``stderr`` is the sample standard
    deviation of the per-sample estimates divided by sqrt(n).  When True,
    the integrand has infinite variance in this parameter regime and the
    reported stderr is unreliable; such estimates are excluded from
    statistical gates.

    Path simulations also report their work: ``discarded`` paths that
    never finished (and are not among the ``n``) and ``path_steps``, the
    number of single-path steps live paths took (one uniform pair each in
    :func:`~circmeans.stochastic.occupation_time_mc`; the uniforms drawn
    for the slot of an exited path before it is compacted away, and those
    a block of steps draws for a path after it exits, are not counted).
    Both are totals over all paths, whichever chunk or worker process ran
    them.  Estimators that simulate no paths leave both at 0.
    """

    mean: float
    stderr: float
    n: int
    variance_warning: bool = False
    _: KW_ONLY
    discarded: int = 0
    path_steps: int = 0

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError("n must be a positive integer")
        if self.stderr < 0.0:
            raise ValueError("stderr must be >= 0")
        if self.discarded < 0 or self.path_steps < 0:
            raise ValueError("discarded and path_steps must be >= 0")


def rng_from_seed(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic generator from a 64-bit seed and a stream index.

    Distinct streams derived from the same seed are statistically
    independent; aggregating shards in a fixed stream order makes
    estimates reproducible regardless of scheduling.  Seed and stream
    must be integers (floats, bools and strings raise ValueError); the
    seed is taken modulo 2^64.
    """
    seed = check_integer("seed", seed) & 0xFFFFFFFFFFFFFFFF
    stream = check_integer("stream", stream)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))
