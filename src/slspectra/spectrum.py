"""Eigenvalue location by shooting on the characteristic function.

The characteristic function Phi(mu) is the boundary defect at x = pi of the
left-normalized solution,

    Phi(mu) = phi(pi, mu) cos(beta) + phi'(pi, mu) sin(beta),

whose zeros are the eigenvalues mu_0 < mu_1 < ... of the problem.  Every
index is bracketed by counting: the interior zeros of the shooting solution
plus its terminal phase fragment equal the number K(mu) of eigenvalues
below mu.  A whole batch of mu is counted by the lifted Prufer angle on
the pairwise run product of the Phi sweep: each run matrix carries its
whole half-turns floor(sqrt(w_eff) h / pi), a product adds those of its
factors and a carry read from signs, and every product is rescaled, so
the count never overflows, however deep mu lies, and holds no node array
(Pruess & Fulton, ACM TOMS 19, 1993).  Bisection on K, every unresolved
index in one batch per round, starts from min(q) - 1 (walked down while
some index has no count at or below it) and from the midpoints between
consecutive asymptotic frequencies n + delta_n + [q] / (2 (n + delta_n)),
and stops when K(lo) = n and K(hi) = n + 1: then [lo, hi] holds exactly
the n-th eigenvalue, and the counts are the certificate that the n-th
eigenfunction has n interior zeros.  Roots are then refined by bracketed
Anderson-Bjorck regula falsi steps, vectorized over whole index ranges.
The node-sign count of count_interior_zeros is independent of the search
and checks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, sqrt

import numpy as np

from .delta import DeltaValue, _delta_values, _shifts, delta_for_index
from .errors import BracketError, UnsupportedRegimeError
from .odesolve import (
    DEFAULT_GRID_SIZE,
    Mesh,
    SolutionTrace,
    _mul2,
    _product,
    _quiet,
    _transfer,
    build_mesh,
    endpoint_values,
)
from .odesolve import y_values_batch  # noqa: F401  (binding kept for perfbench tracing)
from .potential import PI, BoundaryParams, Potential, _unique, mean_q

DEFAULT_ROOT_TOL = 1e-10
MAX_INDEX = 300


@dataclass
class Eigenpair:
    """One certified eigenvalue with its index evidence.

    lam is sqrt(|mu|); mu_negative records the hyperbolic case mu < 0.
    bracket is the refined interval the root was isolated in: a sign change
    of Phi in the arithmetic of the batch that found it.  Its converged end
    often has |Phi| near rounding, and the rounding of a Phi sweep depends
    on the batch size, so char_function at that end alone may show the
    other sign.  char_residual is the characteristic-function magnitude at
    the returned mu.  zeros is K at the lower end of the counted bracket,
    the number of eigenvalues below it (equal to n): by Sturm oscillation,
    the interior zero count of the eigenfunction.
    """

    n: int
    mu: float
    lam: float
    mu_negative: bool
    delta: DeltaValue
    bracket: tuple[float, float]
    char_residual: float
    zeros: int


@dataclass
class Spectrum:
    """Contiguous eigenpairs of one boundary problem, indexed from 0."""

    q: Potential
    bc: BoundaryParams
    pairs: list[Eigenpair]

    def __post_init__(self):
        for i, p in enumerate(self.pairs):
            if p.n != i:
                raise ValueError(f"eigenpair indices must be contiguous from 0, got {p.n} at {i}")
        mus = [p.mu for p in self.pairs]
        if any(b <= a for a, b in zip(mus[:-1], mus[1:])):
            raise ValueError("eigenvalues must be strictly increasing")

    @property
    def mus(self) -> np.ndarray:
        return np.array([p.mu for p in self.pairs])

    def pair(self, n: int) -> Eigenpair:
        return self.pairs[n]


class _CharEngine:
    """Prepared mesh and boundary data for batched Phi evaluations."""

    def __init__(self, q: Potential, bc: BoundaryParams, grid_size: int):
        self.bc = bc
        self.mesh: Mesh = build_mesh(q, grid_size)
        self.y0 = bc.sin_alpha
        self.yp0 = -bc.cos_alpha

    def phi_batch(self, mus) -> np.ndarray:
        y, yp = endpoint_values(self.mesh, np.asarray(mus, dtype=float),
                                self.y0, self.yp0, forward=True)
        return y * self.bc.cos_beta + yp * self.bc.sin_beta


def char_function(q: Potential, bc: BoundaryParams, mu: float,
                  grid_size: int = DEFAULT_GRID_SIZE) -> float:
    """Boundary defect at x = pi of the left-normalized solution."""
    engine = _CharEngine(q, bc, grid_size)
    return float(engine.phi_batch([mu])[0])


def char_function_right(q: Potential, bc: BoundaryParams, mu: float,
                        grid_size: int = DEFAULT_GRID_SIZE) -> float:
    """The same zeros computed from the right-normalized solution.

    Constancy of the Wronskian of phi and psi gives
        Phi(mu) = -[psi(0) cos(alpha) + psi'(0) sin(alpha)],
    so this equals char_function up to solver tolerance.
    """
    mesh = build_mesh(q, grid_size)
    y, yp = endpoint_values(mesh, [mu], bc.sin_beta, -bc.cos_beta, forward=False)
    return float(-(y[0] * bc.cos_alpha + yp[0] * bc.sin_alpha))


def count_interior_zeros(trace: SolutionTrace) -> int:
    """Sign changes of the trace strictly inside (0, pi)."""
    return int(_zero_counts(trace.y[:, None])[0])


def _zero_counts(values: np.ndarray) -> np.ndarray:
    """Interior sign changes per column of a (nodes, columns) value array.

    Exact zeros are skipped: each takes the sign of the last nonzero value
    above it in its column, so it neither adds nor splits a sign change.
    """
    signs = np.sign(values[1:-1])
    rows = np.arange(signs.shape[0])[:, None]
    last = np.maximum.accumulate(np.where(signs != 0.0, rows, 0), axis=0)
    signs = np.take_along_axis(signs, last, axis=0)
    return np.sum(signs[:-1] * signs[1:] < 0.0, axis=0)


# ---------------------------------------------------------------------------
# counting and bracketing
# ---------------------------------------------------------------------------


@_quiet
def _counts(engine: _CharEngine, mus) -> np.ndarray:
    """Number of eigenvalues strictly below each mu, from one product over the runs.

    Counts by the lifted angle F of the state, (y, y2) = r (sin F, cos F),
    so y = 0 exactly where F is a multiple of pi.  A propagator P, scaled
    by any positive factor, and n = floor(F_P(0) / pi), the whole
    half-turns of the state that starts at F = 0, fix the lifted map F_P,
    since the angle of P (0, 1) gives F_P(0) - n pi.  These pairs multiply
    on the pairwise tree of odesolve._product (see _lifted_steps and
    _lifted_mul), so a batch of mu takes one pass over the runs with the
    block transients of the Phi sweep and no node array.  At pi, F of the
    start direction (sin alpha, -cos alpha), whose angle pi - alpha lies in
    [0, pi), holds N whole half-turns (the carry rule with that direction
    for A (0, 1)) and a fragment phi in [0, pi), the angle of
    (y, y2)(pi) folded into y >= 0.  The eigenvalues below mu are those
    with (k + 1) pi - beta < F: N of them, one more where phi > pi - beta,
    and one fewer where phi = beta = 0.
    """
    mus = np.atleast_1d(np.asarray(mus, dtype=float))
    m00, m01, m10, m11, n = _product(engine.mesh, mus, True, _lifted_steps, _lifted_mul)
    y, y2 = m00 * engine.y0 + m01 * engine.yp0, m10 * engine.y0 + m11 * engine.yp0
    n += (m01 != 0.0) & ((np.signbit(m01) ^ np.signbit(y)) | (y == 0.0))
    flip = np.where(y != 0.0, np.signbit(y), np.signbit(y2))
    phi = np.arctan2(np.abs(y), np.where(flip, -y2, y2))
    # an exact zero of y at pi under a Dirichlet end is mu itself, not below it
    return (n + (phi > PI - engine.bc.beta) - ((y == 0.0) & (engine.bc.beta == 0.0))).astype(int)


def _lifted_steps(h, gen, weff, C, S, sign):
    """Forward run propagators, scaled, and the whole half-turns of F from 0.

    Inside a run y solves y'' = -w_eff y exactly, w_eff = -(d^2 + b c)
    (see odesolve), which is mu - q on piecewise constant q.  A run with
    w_eff < 0 turns F by less than pi; its propagator is divided by
    cosh(r h), r = sqrt(-w_eff), with C = 1 and S = tanh(r h)/r, which
    never overflow.  Otherwise F turns from 0 to th = sqrt(w_eff) h, so
    n = floor(th / pi), and the sign of m01 = y(h) is (-1)^n.  Near an
    exact half-turn rounding may give m01 the other sign; n then moves by
    one towards the nearer integer of th / pi, so that it agrees with the
    matrix.
    """
    hyp = weff < 0.0
    if hyp.any():
        r = np.sqrt(-weff[hyp])
        C[hyp], S[hyp] = 1.0, np.tanh(r * np.broadcast_to(h, weff.shape)[hyp]) / r
    T = _transfer(h, gen, weff, C, S, sign)
    # th is monotone in w_eff and h; below 3 < pi every m01 > 0 and n = 0
    if np.sqrt(weff.max(initial=0.0)) * h.max() < 3.0:
        return T + (np.zeros_like(weff),)
    turns = np.sqrt(np.maximum(weff * h * h, 0.0)) / PI
    n = np.floor(turns)
    wrong = np.signbit(T[1]) != (n % 2.0 == 1.0)
    n[wrong] += np.where(turns[wrong] - n[wrong] > 0.5, 1.0, -1.0)
    return T + (n,)


def _lifted_mul(B, A):
    """The lifted pair of BA from those of B and A, elementwise over stacks.

    BA is divided by its largest entry.  n_BA = n_A + n_B + carry, where
    the carry says that B's preimage of y = 0, an angle in (0, pi], is at
    most the angle of A (0, 1) folded into [0, pi).  That holds when
    b01 != 0 and sign(b01) s (BA)01 <= 0, with s the sign that folds
    A (0, 1) into y >= 0: the sign of a01, or of a11 where a01 = 0.
    """
    P = _mul2(B[:4], A[:4])
    scale = np.maximum.reduce([np.abs(p) for p in P])
    s = np.where(A[1] != 0.0, np.signbit(A[1]), np.signbit(A[3]))
    carry = (B[1] != 0.0) & ((np.signbit(B[1]) ^ s ^ np.signbit(P[1])) | (P[1] == 0.0))
    return tuple(p / scale for p in P) + (A[4] + B[4] + carry,)


def _asymptotic_center(n: int, delta_value: float, meanq: float) -> float:
    nu = n + delta_value
    return nu + meanq / (2.0 * nu)


def _brackets(engine: _CharEngine, ns: list[int], deltas, meanq: float):
    """Counted brackets of the ascending indices ns: lo, hi with K(lo) = n, K(hi) = n + 1.

    K is _counts.  The first batch counts at min(q) - 1 and at the squared
    midpoints between consecutive asymptotic frequencies n + delta_n +
    [q] / (2 (n + delta_n)), n >= 2, next to each index.  Each further
    round counts one batch: the midpoint of every index's tightest counted
    bracket that still holds more than one eigenvalue, a point below the
    lowest when some index has no count <= n (the depth below min(q)
    doubles), and a point above the highest when some index has no count
    > n (the height above min(q) doubles).  No mu is counted twice.
    Returns the arrays lo, hi and K(lo).
    """
    bc, qmin = engine.bc, float(engine.mesh.run_q.min())
    seps = sorted({max(n - 1, 2) for n in ns} | {max(n, 2) for n in ns})
    needed = set(seps) | {m + 1 for m in seps}
    shifts = {n: d.value for n, d in zip(ns, deltas)}
    extra = sorted(needed - shifts.keys())
    shifts.update(zip(extra, _shifts(extra, bc)[0].tolist()))
    centers = {m: _asymptotic_center(m, shifts[m], meanq) for m in needed}
    points = [qmin - 1.0] + [(0.5 * (centers[m] + centers[m + 1])) ** 2 for m in seps]
    ns = np.asarray(ns)
    mus, ks = np.empty(0), np.empty(0, dtype=int)
    walks = 0
    while True:
        new = _unique(points)
        if mus.size:  # mus is sorted: drop the points already counted
            new = new[mus[np.searchsorted(mus, new).clip(max=mus.size - 1)] != new]
        mus, ks = np.concatenate((mus, new)), np.concatenate((ks, _counts(engine, new)))
        order = np.argsort(mus)
        mus, ks = mus[order], ks[order]
        drops = np.flatnonzero(np.diff(ks) < 0)
        if drops.size:
            raise BracketError(f"oscillation counts decrease above mu = {mus[drops[0]]:.9f}")
        lo = np.searchsorted(ks, ns, side="right") - 1  # the last count <= n
        hi = lo + 1  # the first count > n
        below, above = lo < 0, hi == mus.size
        inner = ~below & ~above
        a, b = mus[lo[inner]], mus[hi[inner]]
        split = (ks[lo[inner]] < ns[inner]) | (ks[hi[inner]] > ns[inner] + 1)
        if not (below.any() or above.any() or split.any()):
            return a, b, ks[lo]
        a, b = a[split], b[split]
        mid = 0.5 * (a + b)
        stuck = (b - a <= 1e-8) | (mid <= a) | (mid >= b)
        if stuck.any():
            raise BracketError(
                f"eigenvalues cluster below resolution near mu = {a[stuck][0]:.9f}")
        points = list(mid)
        if below.any() or above.any():
            if walks == 64:
                raise BracketError(f"no count bounds indices {ns[below | above].tolist()} "
                                   f"between mu = {mus[0]:.3g} and {mus[-1]:.3g}")
            walks += 1
        if below.any():
            points.append(qmin - 2.0 * (qmin - mus[0]))
        if above.any():
            points.append(qmin + 2.0 * max(mus[-1] - qmin, 1.0))


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------


def _refine_batch(engine: _CharEngine, lo, hi, tol: float):
    """Bracketed Anderson-Bjorck iteration per column, bisection as fallback.

    [lo, hi] brackets a sign change of Phi; the first batch evaluates Phi at
    every distinct end.  Each step evaluates Phi in one batch at one point
    inside every bracket still wider than tol with a float inside it: the
    regula falsi point of the ends' values, kept tol/2 inside, or the
    midpoint where that point is not inside or the bracket did not halve
    over the last two steps (so at most three times the cost of
    bisection).  When an interpolated point
    replaces the same end as the previous one, the value at the other end
    is scaled by 1 - f_new / f_replaced, or halved when that is not
    positive (Anderson & Bjorck, BIT 13, 1973).

    Returns (mu, residual, bracket_lo, bracket_hi): mu is the bracket end
    with the smaller true |Phi| and residual that |Phi|.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    ends, at = _unique(np.concatenate((lo, hi)), return_inverse=True)
    flo, fhi = np.split(engine.phi_batch(ends)[at], 2)
    # an exact zero at an end collapses the bracket onto that end
    hi, fhi = np.where(flo == 0.0, lo, hi), np.where(flo == 0.0, 0.0, fhi)
    lo, flo = np.where(fhi == 0.0, hi, lo), np.where(fhi == 0.0, 0.0, flo)

    glo, ghi = flo.copy(), fhi.copy()  # interpolation values, scaled
    last = np.zeros(lo.shape)  # end the last interpolated point replaced: -1 lo, +1 hi
    back = np.full((2, lo.size), np.inf)  # bracket widths two and one steps back
    while True:
        mid = 0.5 * (lo + hi)
        j = np.flatnonzero((hi - lo > tol) & (lo < mid) & (mid < hi))
        if j.size == 0:
            break
        a, b, width = lo[j], hi[j], hi[j] - lo[j]
        x = np.clip(a - glo[j] * width / (ghi[j] - glo[j]), a + 0.5 * tol, b - 0.5 * tol)
        bisect = ~((a < x) & (x < b)) | (width > 0.5 * back[0, j])
        x = np.where(bisect, mid[j], x)
        fx = engine.phi_batch(x)
        back[:, j] = back[1, j], width

        to_lo, zero = np.sign(fx) == np.sign(flo[j]), fx == 0.0
        side = np.where(to_lo, -1.0, 1.0)
        scale = np.where((side == last[j]) & ~bisect,
                         1.0 - fx / np.where(to_lo, flo[j], fhi[j]), 1.0)
        scale = np.where(scale > 0.0, scale, 0.5)
        # a bisection point restarts the interpolation from true values
        glo[j] = np.where(to_lo, fx, np.where(bisect, flo[j], glo[j] * scale))
        ghi[j] = np.where(to_lo, np.where(bisect, fhi[j], ghi[j] * scale), fx)
        # an exact zero collapses the bracket onto it
        lo[j], flo[j] = np.where(to_lo | zero, x, a), np.where(to_lo | zero, fx, flo[j])
        hi[j], fhi[j] = np.where(to_lo, b, x), np.where(to_lo, fhi[j], fx)
        last[j] = np.where(bisect, last[j], side)

    pick_lo = np.abs(flo) <= np.abs(fhi)
    return np.where(pick_lo, lo, hi), np.minimum(np.abs(flo), np.abs(fhi)), lo, hi


# ---------------------------------------------------------------------------
# assembled searches
# ---------------------------------------------------------------------------


def _certified_pairs(engine: _CharEngine, ns: list[int], deltas, meanq: float,
                     tol: float) -> list[Eigenpair]:
    """Counted, refined eigenpairs for the ascending indices ns, as one batch."""
    lo, hi, zeros = _brackets(engine, ns, deltas, meanq)
    mus, residuals, lo, hi = _refine_batch(engine, lo, hi, tol)
    rows = zip(ns, mus.tolist(), residuals.tolist(), lo.tolist(), hi.tolist(), deltas,
               zeros.tolist())
    return [Eigenpair(n=n, mu=mu, lam=sqrt(abs(mu)), mu_negative=mu < 0.0, delta=d,
                      bracket=(a, b), char_residual=r, zeros=k)
            for n, mu, r, a, b, d, k in rows]


def find_eigenvalue(q: Potential, bc: BoundaryParams, n: int,
                    tol: float = DEFAULT_ROOT_TOL,
                    grid_size: int = DEFAULT_GRID_SIZE) -> Eigenpair:
    """Locate and certify the n-th eigenvalue.

    The root is isolated in a counted bracket, below whose ends lie n and
    n + 1 eigenvalues, and refined to a mu window of width tol.
    """
    if not (0 <= n <= MAX_INDEX):
        raise ValueError(f"index must lie in [0, {MAX_INDEX}], got {n}")
    if not 0.0 < tol < inf:
        raise ValueError("tol must be finite and positive")
    engine = _CharEngine(q, bc, grid_size)
    [pair] = _certified_pairs(engine, [n], [delta_for_index(n, bc)], mean_q(q), tol)
    if n >= 2 and pair.mu <= 0.0:
        raise UnsupportedRegimeError(
            f"mu_{n} = {pair.mu:.6f} <= 0; asymptotic indexing assumes positive "
            "eigenvalues from index 2 on")
    return pair


def find_spectrum(q: Potential, bc: BoundaryParams, n_max: int,
                  tol: float = DEFAULT_ROOT_TOL,
                  grid_size: int = DEFAULT_GRID_SIZE) -> Spectrum:
    """All certified eigenpairs for indices 0 through n_max.

    Counts, brackets and refinement sweeps all run as batches over the
    index range.
    """
    if not (0 <= n_max <= MAX_INDEX):
        raise ValueError(f"n_max must lie in [0, {MAX_INDEX}], got {n_max}")
    if not 0.0 < tol < inf:
        raise ValueError("tol must be finite and positive")
    engine = _CharEngine(q, bc, grid_size)
    deltas = _delta_values(range(n_max + 1), bc)
    pairs = _certified_pairs(engine, list(range(n_max + 1)), deltas, mean_q(q), tol)
    if n_max >= 2 and pairs[2].mu <= 0.0:
        raise UnsupportedRegimeError(
            f"mu_2 = {pairs[2].mu:.6f} <= 0; potential outside the supported regime")
    return Spectrum(q=q, bc=bc, pairs=pairs)
