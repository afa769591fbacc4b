"""Numerical recovery of the best convexity constant and its sharpness.

For a fixed exponent alpha, the largest lambda making

    (|x|^2 + lambda |y|^2)^(1/2)  <=  (mean of |x + zeta y|^alpha)^(1/alpha)

hold for all complex x, y is found by reducing to the canonical radius
y > 0 and minimizing the profile

    lambda(y) = (mean(y, alpha)^(2/alpha) - 1) / y^2

over y.  On (0, 2] the infimum is alpha/2, attained in the limit y -> 0
(the profile is flat to second order there, so a grid accumulating at 0
plus exact curvature information beats any local optimizer); for
alpha >= 2 the infimum is 1, approached as y -> infinity.

Sharpness: for lambda above alpha/2 the inequality must fail somewhere.
Since both sides match to first order at y = 0 and the right side's
curvature there is exactly alpha^2/2 against alpha*lambda on the left,
a violation appears for small y and is located by geometric descent.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circle import mean_quadrature
from .core import NumericalFailure, check_alpha, check_radius

# Quadrature tolerance used by the profile: near machine precision, since
# lambda(y) divides a quantity of size ~y^2 by y^2.
_PROFILE_TOL = 1e-13
# Witness search: least accepted excess lam - alpha/2, and the last k
# of the radii y = 2^-k it tries (see sharpness_witness).
_WITNESS_MARGIN = 1e-4
_WITNESS_MAX_HALVINGS = 30


@dataclass(frozen=True)
class Witness:
    """A concrete violation point for a candidate constant."""

    lam: float
    y: float
    violation: float


@dataclass(frozen=True)
class SharpnessReport:
    """Outcome of the best-constant search for one exponent."""

    alpha: float
    lambda_inf: float
    argmin_y: float
    second_derivative: float


def lambda_profile(alpha: float, y: float) -> float:
    """Largest lambda for which the reduced inequality is tight at y.

    Rearranging (1 + lambda y^2)^(1/2) <= mean(y, alpha)^(1/alpha) gives
    lambda(y) = (mean^(2/alpha) - 1)/y^2.  Computed from the quadrature
    backend through expm1/log1p so the 1-cancellation costs nothing even
    at y ~ 1e-6.  alpha > 2 is allowed (profile tends to 1 from above as
    y grows).
    """
    alpha = check_alpha(alpha)
    y = check_radius(y)
    if y == 0.0:
        raise ValueError("lambda profile requires y > 0")
    mean = mean_quadrature(y, alpha, _PROFILE_TOL).value
    return math.expm1((2.0 / alpha) * math.log1p(mean - 1.0)) / (y * y)


def second_derivative_at_zero(alpha: float) -> float:
    """Curvature of y -> mean(y, alpha) at y = 0; equals alpha^2/2.

    The series backend gives the exact coefficient (twice the squared
    k = 1 binomial coefficient, i.e. 2*(alpha/2)^2); a central second
    difference of the quadrature backend at step 1e-3 cross-checks it.
    The two must agree to 1e-6 relative or a NumericalFailure is raised.
    """
    alpha = check_alpha(alpha)
    exact = 0.5 * alpha * alpha
    h = 1e-3
    # mean is even in y, so the central second difference collapses to
    # 2*(mean(h) - mean(0))/h^2; one Richardson step removes the h^2 term.
    def fd(step: float) -> float:
        m = mean_quadrature(step, alpha, _PROFILE_TOL).value
        return 2.0 * (m - 1.0) / (step * step)

    fd_h = fd(h)
    fd_h2 = fd(0.5 * h)
    richardson = (4.0 * fd_h2 - fd_h) / 3.0
    if abs(richardson - exact) > 1e-6 * exact:
        raise NumericalFailure(
            f"second-derivative cross-check failed for alpha={alpha}: "
            f"series {exact:.12e} vs difference {richardson:.12e}",
            best_estimate=exact,
            error_estimate=abs(richardson - exact),
        )
    return exact


def best_constant_estimate(alpha: float, y_grid: np.ndarray) -> SharpnessReport:
    """Minimum of the lambda profile over a grid accumulating at 0.

    For alpha in (0, 2] the reported minimum sits at the smallest grid
    point and approaches alpha/2 quadratically in that point; for
    alpha > 2 the minimum migrates to the largest grid point and
    approaches 1 like (alpha/2 - 1)/y_max^2.
    """
    alpha = check_alpha(alpha)
    ys = np.asarray(y_grid, dtype=float)
    if ys.size < 2 or np.any(ys <= 0.0) or np.any(np.diff(ys) <= 0.0):
        raise ValueError("y_grid must be an increasing grid of positive radii")
    profile = np.array([lambda_profile(alpha, float(yy)) for yy in ys])
    idx = int(np.argmin(profile))
    return SharpnessReport(
        alpha=alpha,
        lambda_inf=float(profile[idx]),
        argmin_y=float(ys[idx]),
        second_derivative=second_derivative_at_zero(alpha),
    )


def sharpness_witness(alpha: float, lam: float) -> Witness:
    """Find y with (1 + lam*y^2)^(alpha/2) > mean(y, alpha).

    Requires lam > alpha/2 + 1e-4: the violation near 0 scales like
    (alpha/2)*(lam - alpha/2)*y^2, so candidates closer to the threshold
    drown in working precision.  Searches y = 2^{-k}, k = 0..30, and
    returns the first violation that clears the numerical noise floor;
    exhaustion raises NumericalFailure.
    """
    alpha = check_alpha(alpha, upper=2.0)
    lam = float(lam)
    if not lam > 0.5 * alpha + _WITNESS_MARGIN:
        raise ValueError(
            f"candidate lambda={lam} is not above alpha/2 + margin = {0.5 * alpha + _WITNESS_MARGIN}"
        )
    for k in range(_WITNESS_MAX_HALVINGS + 1):
        y = 2.0**-k
        result = mean_quadrature(y, alpha, _PROFILE_TOL)
        rhs = math.expm1(0.5 * alpha * math.log1p(lam * y * y))  # b(y) - 1
        violation = rhs - (result.value - 1.0)
        noise = 2.0 * result.error_estimate + 1e-13
        if violation > noise:
            return Witness(lam=lam, y=y, violation=violation)
    raise NumericalFailure(
        f"no violation found down to y = 2^-{_WITNESS_MAX_HALVINGS} for alpha={alpha}, lambda={lam}; "
        "the candidate is too close to alpha/2 for working precision",
        best_estimate=math.nan,
    )


def verify_inequality(x: complex, y: complex, alpha: float, lam: float) -> float:
    """Margin RHS - LHS of the convexity inequality at a complex pair.

    LHS = (|x|^2 + lam*|y|^2)^(1/2),
    RHS = (mean of |x + zeta*y|^alpha over the circle)^(1/alpha).

    Rotation and scaling reduce the pair to the canonical radius
    |y|/|x|; x = 0 and y = 0 need no quadrature at all.  Requires
    alpha in (0, 2] and lam <= alpha/2, under which the margin is
    >= -1e-10, the quadrature tolerance.
    """
    alpha = check_alpha(alpha, upper=2.0)
    lam = float(lam)
    if lam > 0.5 * alpha:
        raise ValueError(f"lambda must not exceed alpha/2 = {0.5 * alpha}, got {lam}")
    ax = abs(complex(x))
    ay = abs(complex(y))
    lhs = math.sqrt(max(ax * ax + lam * ay * ay, 0.0))
    if ay == 0.0:
        rhs = ax
    elif ax == 0.0:
        # mean of |zeta*y|^alpha is |y|^alpha exactly.
        rhs = ay
    else:
        r = ay / ax
        mean = mean_quadrature(r, alpha, 1e-10).value
        rhs = ax * mean ** (1.0 / alpha)
    return rhs - lhs


def curvature_gap(alpha: float, lam: float) -> float:
    """b''(0) - a''(0) = alpha*lam - alpha^2/2 for b = (1 + lam y^2)^(alpha/2).

    Positive exactly when lam exceeds alpha/2, which is why a sharpness
    witness must exist for any such lam.
    """
    alpha = check_alpha(alpha)
    return alpha * float(lam) - 0.5 * alpha * alpha
