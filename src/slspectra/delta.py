"""The index shift delta_n(alpha, beta) and its closed asymptotic forms.

For n >= 2 the shift solves the scalar fixed-point equation

    delta = (1/pi) arccos( cos(a) / sqrt((n+delta)^2 sin^2 a + cos^2 a) )
          - (1/pi) arccos( cos(b) / sqrt((n+delta)^2 sin^2 b + cos^2 b) )

with the principal arccos branch.  The right-hand side contracts with rate
O(1/n^2), so plain iteration from the asymptotic closed form converges in a
handful of steps; the recorded residual is the absolute fixed-point defect
of the returned value.  Iteration stops once consecutive iterates differ
by at most FIXED_POINT_TOL.

One iteration serves a whole array of indices (``_shifts``): each index
leaves it at the iterate where a loop over that index alone would stop, so
every value, iteration count and residual is the one-index result bit for
bit.  The square roots and quotients are numpy's, which round as Python's
do; the arccos is ``math.acos`` mapped over the ratios.  The last few open
indices (at most _FLOAT_TAIL) iterate in Python floats by the same
operations, since an array step costs 10-20 µs of dispatch whatever
its size and n = 0, 1 may need 20-34 steps.  solve_delta and
delta_for_index are one-index calls of it; find_spectrum, the k-series
coefficients, the CLI table and the verification criteria pass all their
indices at once.

For n in {0, 1} the equation is outside its stated range; the same map can
still be iterated formally and the result is flagged as extrapolated.  It
is reported for bookkeeping only and never used as ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .potential import PI, BoundaryParams

FIXED_POINT_TOL = 1e-13
MAX_ITERATIONS = 200

_VALUE_WINDOW = (-1.0, 2.0)
# _shifts finishes this many open indices or fewer in Python floats
_FLOAT_TAIL = 8


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


def _rhs(d: np.ndarray, ns: np.ndarray, s: np.ndarray, c: np.ndarray, cc: np.ndarray) -> np.ndarray:
    """The right-hand side at the shifts d of the indices ns, both boundary terms at once.

    s, c and cc are (2, 1) columns: sin, cos and cos^2 of alpha and beta.
    """
    nu = ns + d
    ratio = (c / np.sqrt(nu * nu * s * s + cc)).ravel()
    # math.acos, not np.arccos: the two differ in the last bit on some values
    terms = np.fromiter(map(math.acos, ratio.tolist()), float, ratio.size) / PI
    return terms[:nu.size] - terms[nu.size:]


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
    """
    if n < 1:
        raise ValueError(f"asymptotic form needs n >= 1, got {n}")
    return _leading(n, bc)


def _shifts(ns, bc: BoundaryParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values, iterations and residuals of the shifts at the integer indices ns >= 0.

    One fixed-point iteration runs over all indices at once, each from
    delta_asymptotic(max(n, 1)); once at most _FLOAT_TAIL indices are open,
    each finishes in a float loop with _rhs's operations.  An index leaves
    the iteration at the first iterate within FIXED_POINT_TOL of its
    predecessor; one still open after MAX_ITERATIONS keeps its last iterate.
    Indices n < 2 are extrapolated and never raise.  Otherwise the first
    index in ns whose iteration did not converge, or whose value left the
    sanity window, raises ConvergenceError.
    """
    ns = np.asarray(ns, dtype=np.int64)
    s = np.array([[bc.sin_alpha], [bc.sin_beta]])
    c = np.array([[bc.cos_alpha], [bc.cos_beta]])
    # where cos == 0 the term is arccos(0) / pi = 1/2 for every nu; a positive
    # cos^2 there keeps the ratio at 0 / denom, not 0 / 0, at nu == 0
    cc = np.where(c == 0.0, 1.0, c * c)
    d = np.full(ns.shape, _leading(np.maximum(ns, 1), bc))
    iterations = np.full(ns.shape, MAX_ITERATIONS)
    active, n_active, current = np.arange(ns.size), ns, d.copy()
    it = 0
    while active.size > _FLOAT_TAIL and it < MAX_ITERATIONS:
        it += 1
        d_next = _rhs(current, n_active, s, c, cc)
        done = np.abs(d_next - current) <= FIXED_POINT_TOL
        if done.any():
            d[active] = d_next
            iterations[active[done]] = it
            active, n_active, d_next = active[~done], n_active[~done], d_next[~done]
        current = d_next
    stuck = np.zeros(ns.shape, dtype=bool)
    # the last few open indices iterate in floats, by _rhs's operations
    (sa, sb), (ca, cb), (cca, ccb) = s.ravel().tolist(), c.ravel().tolist(), cc.ravel().tolist()
    for i, n, x in zip(active.tolist(), n_active.tolist(), current.tolist()):
        for k in range(it + 1, MAX_ITERATIONS + 1):
            nu = n + x
            x_next = (math.acos(ca / math.sqrt(nu * nu * sa * sa + cca)) / PI
                      - math.acos(cb / math.sqrt(nu * nu * sb * sb + ccb)) / PI)
            if abs(x_next - x) <= FIXED_POINT_TOL:
                x, iterations[i] = x_next, k
                break
            x = x_next
        else:
            stuck[i] = True
        d[i] = x
    residuals = np.abs(_rhs(d, ns, s, c, cc) - d)
    outside = ~((_VALUE_WINDOW[0] <= d) & (d <= _VALUE_WINDOW[1]))
    bad = np.flatnonzero((ns >= 2) & (stuck | outside))
    if bad.size:
        i = bad[0]
        raise ConvergenceError(
            f"index-shift iteration did not converge for n = {ns[i]} "
            f"(alpha = {bc.alpha}, beta = {bc.beta})" if stuck[i] else
            f"index shift {float(d[i])} outside the sanity window {_VALUE_WINDOW}",
            last_value=float(d[i]), residual=float(residuals[i]))
    return d, iterations, residuals


def _delta_values(ns, bc: BoundaryParams) -> list[DeltaValue]:
    """DeltaValue records of the shifts at the integer indices ns >= 0, by _shifts."""
    ns = [int(n) for n in ns]
    values, iterations, residuals = _shifts(ns, bc)
    return [DeltaValue(n=n, value=v, iterations=it, residual=r, extrapolated=n < 2)
            for n, v, it, r in zip(ns, values.tolist(), iterations.tolist(), residuals.tolist())]


def solve_delta(n: int, bc: BoundaryParams) -> DeltaValue:
    """Solve the fixed-point equation for the index shift, n >= 2."""
    if n < 2:
        raise ValueError(
            f"the fixed-point equation is stated for n >= 2, got {n}; "
            "use delta_for_index for smaller indices")
    return _delta_values([n], bc)[0]


def delta_for_index(n: int, bc: BoundaryParams) -> DeltaValue:
    """The index shift for any n >= 0.

    solve_delta for n >= 2.  At n in {0, 1} the fixed-point map is iterated
    formally; the result is flagged extrapolated and informational only.
    """
    if n >= 2:
        return solve_delta(n, bc)
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    return _delta_values([n], bc)[0]
