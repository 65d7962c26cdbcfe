"""The index shift delta_n(alpha, beta) and its closed asymptotic forms.

For n >= 2 the shift solves the scalar fixed-point equation

    delta = (1/pi) arccos( cos(a) / sqrt((n+delta)^2 sin^2 a + cos^2 a) )
          - (1/pi) arccos( cos(b) / sqrt((n+delta)^2 sin^2 b + cos^2 b) )

with the principal arccos branch.  The right-hand side contracts with rate
O(1/n^2), so plain iteration from the asymptotic closed form converges in a
handful of steps; the recorded residual is the absolute fixed-point defect
of the returned value.  Iteration stops once consecutive iterates differ
by at most FIXED_POINT_TOL.

One loop in Python floats serves every set of indices (``_shifts``):
each index iterates from its closed form, computed for all of them as one
array, and its own loop stops where a call for that index alone would.
solve_delta and delta_for_index are one-index calls of it; the eigenvalue
search, the k-series coefficients, the CLI table and the verification
criteria pass all their indices at once.  The residual is evaluated only
where a DeltaValue is built (``_delta_values``) or an error is raised.

For n in {0, 1} the equation is outside its stated range; the same map can
still be iterated formally and the result is flagged as extrapolated.  It
is reported for bookkeeping only and never used as ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .potential import PI, BoundaryParams, _whole

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
    return float(_sin_two_pi(np.array([x]))[0])


def _sin_two_pi(xs: np.ndarray) -> np.ndarray:
    """sin_two_pi of each entry of a 1-d array.

    x - round(x) is exact (ties round to even), math.sin takes 2 pi times
    it, and half-integers give exactly 0 rather than sin(pi).
    """
    m = xs - np.round(xs)
    sines = np.fromiter(map(math.sin, (2.0 * PI * m).tolist()), float, m.size)
    sines[np.abs(m) == 0.5] = 0.0
    return sines


def _map(bc: BoundaryParams):
    """The right-hand side (n, d) -> rhs of the fixed-point equation, in Python floats."""
    sa, ca, sb, cb = bc.sin_alpha, bc.cos_alpha, bc.sin_beta, bc.cos_beta
    # where cos == 0 the term is arccos(0) / pi = 1/2 for every nu; a positive
    # cos^2 there keeps the ratio at 0 / denom, not 0 / 0, at nu == 0
    cca, ccb = ca * ca if ca else 1.0, cb * cb if cb else 1.0

    def rhs(n: int, d: float) -> float:
        nu = n + d
        return (math.acos(ca / math.sqrt(nu * nu * sa * sa + cca)) / PI
                - math.acos(cb / math.sqrt(nu * nu * sb * sb + ccb)) / PI)

    return rhs


def _leading(n, bc: BoundaryParams):
    """delta_asymptotic without the range check; n may be an integer array."""
    sa, ca = bc.sin_alpha, bc.cos_alpha
    sb, cb = bc.sin_beta, bc.cos_beta
    if sa == 0.0 and sb == 0.0:
        return 1.0
    if sa == 0.0:
        return 0.5 + (cb / sb) / (PI * (n + 0.5))
    if sb == 0.0:
        return 0.5 - (ca / sa) / (PI * (n + 0.5))
    return (cb / sb - ca / sa) / (PI * n)


def delta_asymptotic(n: int, bc: BoundaryParams) -> float:
    """Leading closed form of the shift for the applicable boundary case.

    Both conditions non-Dirichlet: (cot b - cot a) / (pi n).
    Dirichlet left only: 1/2 + cot(b) / (pi (n + 1/2)).
    Dirichlet right only: 1/2 - cot(a) / (pi (n + 1/2)).
    Dirichlet both: exactly 1.
    n is an integer >= 1 (ValueError otherwise).
    """
    return _leading(_whole(n, "index", 1), bc)


def _shifts(ns, bc: BoundaryParams) -> tuple[np.ndarray, np.ndarray]:
    """Values and iteration counts of the shifts at the integer indices ns >= 0.

    Each index iterates the map from delta_asymptotic(max(n, 1)) and stops
    at the first iterate within FIXED_POINT_TOL of its predecessor; one
    still open after MAX_ITERATIONS keeps its last iterate.  Indices n < 2
    are extrapolated and never raise.  Otherwise the first index in ns
    whose iteration did not converge, or whose value left the sanity
    window, raises ConvergenceError with that value and its residual.
    """
    ns = np.asarray(ns, dtype=np.int64)
    starts = np.full(ns.shape, _leading(np.maximum(ns, 1), bc))
    rhs = _map(bc)
    values, iterations = [], []
    for n, d in zip(ns.tolist(), starts.tolist()):
        for it in range(1, MAX_ITERATIONS + 1):
            last, d = d, rhs(n, d)
            if abs(d - last) <= FIXED_POINT_TOL:
                break
        stuck = not abs(d - last) <= FIXED_POINT_TOL
        if n >= 2 and (stuck or not _VALUE_WINDOW[0] <= d <= _VALUE_WINDOW[1]):
            raise ConvergenceError(
                f"index-shift iteration did not converge for n = {n} "
                f"(alpha = {bc.alpha}, beta = {bc.beta})" if stuck else
                f"index shift {d} outside the sanity window {_VALUE_WINDOW}",
                last_value=d, residual=abs(rhs(n, d) - d))
        values.append(d)
        iterations.append(it)
    return np.array(values), np.array(iterations, dtype=int)


def _delta_values(ns, bc: BoundaryParams) -> list[DeltaValue]:
    """DeltaValue records of the shifts at the integer indices ns >= 0, by _shifts.

    Each record's residual is the absolute fixed-point defect of its value.
    The callers have checked ns.
    """
    values, iterations = _shifts(ns, bc)
    rhs = _map(bc)
    return [DeltaValue(n=n, value=v, iterations=it, residual=abs(rhs(n, v) - v),
                       extrapolated=n < 2)
            for n, v, it in zip(np.asarray(ns).tolist(), values.tolist(), iterations.tolist())]


def solve_delta(n: int, bc: BoundaryParams) -> DeltaValue:
    """Solve the fixed-point equation for the index shift, n >= 2 an integer.

    Any other n raises ValueError; delta_for_index takes n = 0, 1 too.
    """
    return _delta_values([_whole(n, "index", 2)], bc)[0]


def delta_for_index(n: int, bc: BoundaryParams) -> DeltaValue:
    """The index shift for any n >= 0, by one _delta_values call.

    For n >= 2 it is solve_delta's record.  At n in {0, 1} the fixed-point
    map is iterated formally; the result is flagged extrapolated and
    informational only.  n is an integer >= 0 (ValueError otherwise).
    """
    return _delta_values([_whole(n, "index", 0)], bc)[0]
