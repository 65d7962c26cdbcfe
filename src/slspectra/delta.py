"""The index shift delta_n(alpha, beta) and its closed asymptotic forms.

For n >= 2 the shift solves the scalar fixed-point equation

    delta = (1/pi) arccos( cos(a) / sqrt((n+delta)^2 sin^2 a + cos^2 a) )
          - (1/pi) arccos( cos(b) / sqrt((n+delta)^2 sin^2 b + cos^2 b) )

with the principal arccos branch.  The right-hand side contracts with rate
O(1/n^2), so plain iteration from the asymptotic closed form converges in a
handful of steps; the recorded residual is the absolute fixed-point defect
of the returned value.  Iteration stops once consecutive iterates differ
by at most FIXED_POINT_TOL.

For n in {0, 1} the equation is outside its stated range; the same map can
still be iterated formally and the result is flagged as extrapolated.  It
is reported for bookkeeping only and never used as ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError
from .potential import PI, BoundaryParams

FIXED_POINT_TOL = 1e-13
MAX_ITERATIONS = 200

_VALUE_WINDOW = (-1.0, 2.0)


@dataclass(frozen=True)
class DeltaValue:
    """A solved index shift with its convergence evidence."""

    n: int
    value: float
    iterations: int
    residual: float
    extrapolated: bool = False


def sin_two_pi(x: float) -> float:
    """sin(2 pi x) with exact period reduction, so integer x gives exactly 0."""
    m = x - round(x)
    if m == 0.5 or m == -0.5:
        return 0.0
    return math.sin(2.0 * PI * m)


def _term(nu: float, s: float, c: float) -> float:
    denom = math.sqrt(nu * nu * s * s + c * c)
    if denom == 0.0:
        # only reachable when c == 0 and nu == 0; the c == 0 value is
        # arccos(0) / pi for every nu, so take the continuous limit
        return 0.5
    return math.acos(c / denom) / PI


def _rhs(d: float, n: int, sa: float, ca: float, sb: float, cb: float) -> float:
    nu = n + d
    return _term(nu, sa, ca) - _term(nu, sb, cb)


def delta_asymptotic(n: int, bc: BoundaryParams) -> float:
    """Leading closed form of the shift for the applicable boundary case.

    Both conditions non-Dirichlet: (cot b - cot a) / (pi n).
    Dirichlet left only: 1/2 + cot(b) / (pi (n + 1/2)).
    Dirichlet right only: 1/2 - cot(a) / (pi (n + 1/2)).
    Dirichlet both: exactly 1.
    """
    if n < 1:
        raise ValueError(f"asymptotic form needs n >= 1, got {n}")
    sa, ca = bc.sin_alpha, bc.cos_alpha
    sb, cb = bc.sin_beta, bc.cos_beta
    if sa == 0.0 and sb == 0.0:
        return 1.0
    if sa == 0.0:
        return 0.5 + (cb / sb) / (PI * (n + 0.5))
    if sb == 0.0:
        return 0.5 - (ca / sa) / (PI * (n + 0.5))
    return (cb / sb - ca / sa) / (PI * n)


def _iterate(n: int, bc: BoundaryParams, extrapolated: bool) -> DeltaValue:
    sa, ca = bc.sin_alpha, bc.cos_alpha
    sb, cb = bc.sin_beta, bc.cos_beta
    d = delta_asymptotic(max(n, 1), bc)
    for it in range(1, MAX_ITERATIONS + 1):
        d_next = _rhs(d, n, sa, ca, sb, cb)
        if abs(d_next - d) <= FIXED_POINT_TOL:
            residual = abs(_rhs(d_next, n, sa, ca, sb, cb) - d_next)
            value = DeltaValue(n=n, value=d_next, iterations=it, residual=residual,
                               extrapolated=extrapolated)
            if not extrapolated and not (_VALUE_WINDOW[0] <= d_next <= _VALUE_WINDOW[1]):
                raise ConvergenceError(
                    f"index shift {d_next} outside the sanity window {_VALUE_WINDOW}",
                    last_value=d_next, residual=residual)
            return value
        d = d_next
    residual = abs(_rhs(d, n, sa, ca, sb, cb) - d)
    if extrapolated:
        return DeltaValue(n=n, value=d, iterations=MAX_ITERATIONS, residual=residual,
                          extrapolated=True)
    raise ConvergenceError(
        f"index-shift iteration did not converge for n = {n} "
        f"(alpha = {bc.alpha}, beta = {bc.beta})",
        last_value=d, residual=residual)


def solve_delta(n: int, bc: BoundaryParams) -> DeltaValue:
    """Solve the fixed-point equation for the index shift, n >= 2."""
    if n < 2:
        raise ValueError(
            f"the fixed-point equation is stated for n >= 2, got {n}; "
            "use delta_for_index for smaller indices")
    return _iterate(n, bc, extrapolated=False)


def delta_for_index(n: int, bc: BoundaryParams) -> DeltaValue:
    """The index shift for any n >= 0.

    solve_delta for n >= 2.  At n in {0, 1} the fixed-point map is iterated
    formally; the result is flagged extrapolated and informational only.
    """
    if n >= 2:
        return solve_delta(n, bc)
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    return _iterate(n, bc, extrapolated=True)
