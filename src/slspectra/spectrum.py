"""Eigenvalue location by shooting on the characteristic function.

The characteristic function Phi(mu) is the boundary defect at x = pi of the
left-normalized solution,

    Phi(mu) = phi(pi, mu) cos(beta) + phi'(pi, mu) sin(beta),

whose zeros are the eigenvalues mu_0 < mu_1 < ... of the problem.  Every
index is bracketed by counting: the interior zeros of the shooting solution
plus its terminal phase fragment equal the number K(mu) of eigenvalues
below mu.  A whole batch of mu is counted by the lifted Prufer angle on
the pairwise run product of the Phi sweep (odesolve.count_product): each
run matrix carries its whole half-turns floor(sqrt(w_eff) h / pi), a
product adds those of its factors and a carry read from signs, and every
product is rescaled, so the count never overflows, however deep mu lies,
and holds no node array (Pruess & Fulton, ACM TOMS 19, 1993); _counts
reads K and the angle gap from that product.  find_eigenvalue and
find_spectrum run one search over a contiguous index range
(find_eigenvalue's is [n, n]), which builds the mesh once, passes it with
the boundary data to every count and sweep, and solves the shifts of the
range and its neighbours in one fixed point (delta._shifts).  The first
count batch takes the lower bound L of mu_0, from min(q) and the boundary
angles, and a separator between each pair of neighbouring indices: the
squared midpoint of the asymptotic frequencies
c_m = nu_m + [q] / (2 nu_m), nu_m = m + delta_m, for m >= 2, and
((nu_m + nu_{m+1}) / 2)^2 + [q] for 0|1 and 1|2, where the shifts are
extrapolated; one array of nu and c gives these separators and the first
refinement points (_estimates).  On most problems this one batch gives
K(lo) = n and K(hi) = n + 1 for every index; bisection on K, every
unresolved index in one batch per round, and at most one count at the
upper bound U = (n_max + 1)^2 + max(q) + 1 settle the rest.  L and U
follow from the min-max principle (_bounds), so a count that contradicts
either is a solver fault, not a search state.  Then [lo, hi] holds
exactly the n-th eigenvalue, and the counts are the certificate that the
n-th eigenfunction has n interior zeros.  Both entry points refuse a
range that reaches index 2 where K(0) >= 3, that is where mu_2 < 0: the
counts on either side of 0 decide it, or a count at 0 itself, which a
range above index 2 takes in its first batch.  [q] is Mesh.mean, from the
samples of q the mesh already holds.

The count also returns the angle gap at every counted point.  With
nu = sqrt(max(mu - [q], 1)), the angle Theta of (nu y, y') at pi, lifted
like F, and beta_s = atan2(nu sin beta, cos beta), the n-th eigenvalue is
the zero of G_n = Theta + beta_s - (n + 1) pi, which the counted bracket
holds with G_n <= 0 at lo and G_n > 0 at hi.  G_n is nearly linear in mu,
so the refinement runs bracketed Anderson-Bjorck regula falsi steps on it,
vectorized over whole index ranges, from the counted ends and their gaps:
no sweep evaluates an end again.  Each step is one Phi sweep (_gaps), and
G_n comes from the same state (y, y') at pi.  The first point is the
asymptotic root c_n^2 (nu_n^2 + [q] for n = 0, 1) where it lies inside the
counted bracket; brackets below q(pi), where G_n turns within ulps of a
bound state, start at their midpoint and finish on Phi itself.  Phi is
swept as it is, unscaled: only a value beyond the float range raises.
Criterion 12's node-sign count (verification._eigen_zero_counts) is
independent of the search and checks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, sqrt

import numpy as np

from .delta import DeltaValue, _delta_values
from .delta import delta_for_index  # noqa: F401  (binding kept for perfbench tracing)
from .errors import BracketError, UnsupportedRegimeError
from .odesolve import (
    DEFAULT_GRID_SIZE,
    Mesh,
    build_mesh,
    count_product,
    endpoint_values,
)
from .odesolve import y_values_batch  # noqa: F401  (binding kept for perfbench tracing)
from .potential import PI, BoundaryParams, Potential, _unique, _whole
from .potential import mean_q  # noqa: F401  (binding kept for perfbench tracing)

DEFAULT_ROOT_TOL = 1e-10
MAX_INDEX = 300


@dataclass
class Eigenpair:
    """One certified eigenvalue with its index evidence.

    lam is sqrt(|mu|); mu_negative records the hyperbolic case mu < 0.
    bracket is the refined interval the root was isolated in: a sign change
    of G, the angle gap of the index (see the module docstring), in the
    arithmetic of the count or of the batch that found each end.  G has
    the sign of (-1)^(n + 1) Phi, so Phi changes sign across it too, up to
    rounding.  Its converged end often has |Phi| near rounding, and the
    rounding of a Phi sweep depends on the batch size, so char_function at
    that end alone may show the other sign.  char_residual is |Phi| at the
    returned mu, an absolute magnitude: Phi scales with the solution at pi,
    so under a tall barrier it is large however near mu lies (4.1e12 for a
    step of height 586 over [0, 2.5]).  zeros is K at the lower end of the
    counted bracket, the number of eigenvalues below it (equal to n): by
    Sturm oscillation, the interior zero count of the eigenfunction.
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
        """The eigenpair of index n, an integer in [0, len(pairs) - 1] (ValueError otherwise)."""
        return self.pairs[_whole(n, "index", 0, len(self.pairs) - 1)]


def char_function(q: Potential, bc: BoundaryParams, mu: float,
                  grid_size: int = DEFAULT_GRID_SIZE) -> float:
    """Boundary defect at x = pi of the left-normalized solution.

    Input and overflow follow the sweep's rules (see odesolve).
    """
    mesh = build_mesh(q, grid_size)
    y, yp = endpoint_values(mesh, [mu], bc.sin_alpha, -bc.cos_alpha, forward=True)
    return float(y[0] * bc.cos_beta + yp[0] * bc.sin_beta)


def char_function_right(q: Potential, bc: BoundaryParams, mu: float,
                        grid_size: int = DEFAULT_GRID_SIZE) -> float:
    """The same zeros computed from the right-normalized solution.

    Constancy of the Wronskian of phi and psi gives
        Phi(mu) = -[psi(0) cos(alpha) + psi'(0) sin(alpha)],
    so this equals char_function up to solver tolerance.  Input and
    overflow follow the sweep's rules (see odesolve).
    """
    mesh = build_mesh(q, grid_size)
    y, yp = endpoint_values(mesh, [mu], bc.sin_beta, -bc.cos_beta, forward=False)
    return float(-(y[0] * bc.cos_alpha + yp[0] * bc.sin_alpha))


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


def _angle_scale(mesh: Mesh, mus: np.ndarray) -> np.ndarray:
    """The scale nu = sqrt(max(mu - [q], 1)) of the angle gap, for _gaps and _counts."""
    return np.sqrt(np.maximum(mus - mesh.mean, 1.0))


def _gaps(mesh: Mesh, bc: BoundaryParams, mus: np.ndarray, sign: np.ndarray):
    """Angle gaps G_n and Phi at mus, from one Phi sweep; sign = (-1)^(n + 1).

    With nu = sqrt(max(mu - [q], 1)), the scaled angle Theta of
    (nu y, y2) at pi and beta_s = atan2(nu sin beta, cos beta) put the
    n-th eigenvalue where Theta + beta_s = (n + 1) pi.  The sine and
    cosine of Theta + beta_s are proportional to nu Phi and
    y2 cos beta - nu^2 y sin beta, so inside the counted bracket, where
    |G_n| < pi, G_n = atan2(s nu Phi, s (y2 cos beta - nu^2 y sin beta)).
    """
    y, yp = endpoint_values(mesh, mus, bc.sin_alpha, -bc.cos_alpha, forward=True)
    cb, sb = bc.cos_beta, bc.sin_beta
    phi = y * cb + yp * sb
    nu = _angle_scale(mesh, mus)
    return np.arctan2(sign * nu * phi, sign * (yp * cb - nu * (nu * y) * sb)), phi


def _counts(mesh: Mesh, bc: BoundaryParams, mus):
    """Eigenvalue counts K and angle gaps G_K at each mu, from one product over the runs.

    K is the number of eigenvalues strictly below mu, counted by the lifted
    angle F of the state, (y, y2) = r (sin F, cos F), so y = 0 exactly
    where F is a multiple of pi.  odesolve.count_product gives, for the
    batch, the whole-mesh propagator rescaled and the whole half-turns n of
    the state that starts at F = 0, in one pass over the runs with the
    block transients of the Phi sweep and no node array.  At pi, F of the
    start direction (sin alpha, -cos alpha), whose angle pi - alpha lies
    in [0, pi) (BoundaryParams snaps an alpha near 0 to pi), holds N
    whole half-turns (the carry rule of odesolve._lifted_mul with that
    direction for A (0, 1)) and a fragment phi in [0, pi), the angle of
    (y, y2)(pi) folded into y >= 0.  The
    eigenvalues below mu are those with (k + 1) pi - beta < F: N of them,
    one more where phi > pi - beta, and one fewer where phi = 0 at a
    Dirichlet right end (dirichlet_right, which a beta below 5e-16 takes).
    pi - beta is atan2(sin beta, -cos beta), from the sine and cosine the
    sweeps use: the float pi - beta is off by up to 1.2e-16, and near
    beta = pi (cot beta = -1e8) that moves the count at the lower bound of
    mu_0 (see _bounds).

    The gap is that of the scaled angle (see _gaps), with
    nu = sqrt(max(mu - [q], 1)): G_K = N pi + atan2(nu |y|, +-y2) +
    atan2(nu sin beta, cos beta) - (K + 1) pi, with +-y2 the folded y2,
    held in [-pi, 0] so that its sign agrees with K.  The n-th eigenvalue
    is the zero of G_n = G_K + (K - n) pi.
    """
    mus = np.atleast_1d(np.asarray(mus, dtype=float))
    m00, m01, m10, m11, n = count_product(mesh, mus)
    y0, yp0 = bc.sin_alpha, -bc.cos_alpha
    y, y2 = m00 * y0 + m01 * yp0, m10 * y0 + m11 * yp0
    n += (m01 != 0.0) & ((np.signbit(m01) ^ np.signbit(y)) | (y == 0.0))
    flip = np.where(y != 0.0, np.signbit(y), np.signbit(y2))
    folded = np.where(flip, -y2, y2)
    phi = np.arctan2(np.abs(y), folded)
    # an exact zero of y at pi under a Dirichlet end is mu itself, not below it
    k = n + (phi > np.arctan2(bc.sin_beta, -bc.cos_beta)) - ((y == 0.0) & bc.dirichlet_right)
    nu = _angle_scale(mesh, mus)
    turn = np.arctan2(nu * np.abs(y), folded) + np.arctan2(nu * bc.sin_beta, bc.cos_beta)
    return k.astype(int), np.clip((n - k - 1.0) * PI + turn, -PI, 0.0)


def _estimates(ns: range, bc: BoundaryParams, meanq: float):
    """Shift records, first points and separators of the contiguous indices ns.

    One _delta_values call solves the shifts of m = max(ns[0] - 1, 0) to
    ns[-1] + 1.  With nu_m = m + delta_m and the asymptotic frequency
    c_m = nu_m + [q] / (2 nu_m), the first point of n, an estimate of
    mu_n, is c_n^2, or nu_n^2 + [q] for n = 0, 1, whose shifts are
    extrapolated and where nu_0 may be 0.  The separator m|m+1, a count
    point between the asymptotic positions of mu_m and mu_{m+1}, is
    ((c_m + c_{m+1}) / 2)^2, or ((nu_m + nu_{m+1}) / 2)^2 + [q] for
    m = 0, 1.  Returns the DeltaValue records and first points of ns, and
    the separators of m = max(ns[0] - 1, 0) to ns[-1].
    """
    start = max(ns[0] - 1, 0)
    ms = np.arange(start, ns[-1] + 2)
    records = _delta_values(ms, bc)
    nu = ms + np.array([d.value for d in records])
    low = ms < 2
    c = nu + meanq / (2.0 * np.where(low, 1.0, nu))
    first = np.where(low, nu * nu + meanq, c * c)
    # float_power squares by pow, as Python's ** does; an array's ** multiplies,
    # which differs from it in the last bit on some values
    seps = np.float_power(0.5 * np.where(low[:-1], nu[:-1] + nu[1:], c[:-1] + c[1:]), 2.0)
    k = ns[0] - start
    return records[k:-1], first[k:-1], np.where(low[:-1], seps + meanq, seps)


def _bounds(mesh: Mesh, bc: BoundaryParams, n: int):
    """The lower bound L of mu_0 and the upper bound U of mu_n, from min-max.

    With a = max(cot alpha, 0) and b = max(-cot beta, 0), 0 at a Dirichlet
    end (sin 0, as BoundaryParams snaps it),

        L = min(q) - 1 - max(a (a + 2/pi), b (b + 2/pi)),
        U = (n + 1)^2 + max(q) + 1.

    L: Green's identity puts -a y(0)^2 - b y(pi)^2 into the Rayleigh
    quotient, and on [0, pi/2] a y(0)^2 <= a (a + 2/pi) int y^2 + int y'^2
    (the trace inequality with epsilon = 1/a; the same at pi), so
    mu_0 >= L + 1.  U: the Dirichlet problem at the constant max(q) has
    mu_n = (n + 1)^2 + max(q), and min-max puts every mu_n at or below it.
    Both are exact for piecewise-constant q, and the slack of 1 covers the
    Magnus mesh; min(q) and max(q) are those of mesh.run_q.
    """
    # t (t + 2/pi) grows with t >= 0, so the larger of a and b gives the max
    t = max(max(bc.cos_alpha, 0.0) / (bc.sin_alpha or inf),
            max(-bc.cos_beta, 0.0) / (bc.sin_beta or inf))
    return mesh.run_q.min() - 1.0 - t * (t + 2.0 / PI), (n + 1.0) ** 2 + mesh.run_q.max() + 1.0


def _check_regime(mesh: Mesh, bc: BoundaryParams, mus: np.ndarray, ks: np.ndarray):
    """UnsupportedRegimeError where K(0) >= 3, that is where mu_2 < 0.

    K is monotone, so the counts ks at mus <= 0 bound K(0) from below and
    those at mus >= 0 from above; where they leave it open between 2 and 3,
    one more count at 0 decides.  A range above index 2 has counted at 0
    in its first batch (see _brackets).  An eigenvalue at 0 itself is not
    below 0.
    """
    k0 = ks[mus <= 0.0].max(initial=0)
    if k0 < 3 <= ks[mus >= 0.0].min(initial=3):
        k0 = _counts(mesh, bc, [0.0])[0][0]
    if k0 >= 3:
        raise UnsupportedRegimeError(
            f"mu_2 < 0 (at least {k0} eigenvalues lie below 0); asymptotic indexing "
            "assumes mu_n >= 0 from index 2 on")


def _brackets(mesh: Mesh, bc: BoundaryParams, ns, seps: np.ndarray):
    """Counted brackets of the contiguous indices ns: lo, hi with K(lo) = n, K(hi) = n + 1.

    K is _counts, and L and U are the bounds of mu_0 and mu_{ns[-1]}
    (_bounds).  The first batch counts at L and at seps, the separators
    m|m+1 on both sides of each index (see _estimates), 0|1 and 1|2 among
    them, so that on most problems this one round brackets every index,
    and at 0 when ns starts above index 2, for the regime rule.
    Each further round counts one batch: the midpoint of every index's
    tightest counted bracket that still holds more than one eigenvalue,
    and U when some index has no count above it.  A count above 0 at or
    below L, or at most ns[-1] at or above U, contradicts its bound and
    raises BracketError.  No mu is counted twice: a midpoint lies strictly
    between two adjacent counted points, and U is counted only while every
    counted point lies below it.  Where ns reaches index 2, the counts
    decide the regime (_check_regime).  Returns the arrays lo, hi, K(lo)
    and the angle gap G_n at lo and at hi (see _counts), so the refinement
    starts from the counted ends without sweeping them.
    """
    lower, upper = _bounds(mesh, bc, ns[-1])
    ns = np.asarray(ns)
    # a range above index 2 has no count near mu_2, so its first batch counts at 0
    mus = _unique([lower] + seps.tolist() + ([0.0] if ns[0] > 2 else []))
    ks, gaps = _counts(mesh, bc, mus)
    while True:
        drops = np.flatnonzero(np.diff(ks) < 0)
        if drops.size:
            raise BracketError(f"oscillation counts decrease above mu = {mus[drops[0]]:.9f}")
        if ks[0] > 0:
            raise BracketError(f"K = {ks[0]} at mu = {mus[0]:.9g} contradicts the lower "
                               f"bound {lower:.9g} of mu_0")
        lo = np.searchsorted(ks, ns, side="right") - 1  # the last count <= n
        hi = lo + 1  # the first count > n
        above = hi == mus.size
        a, b = mus[lo[~above]], mus[hi[~above]]
        split = (ks[lo[~above]] < ns[~above]) | (ks[hi[~above]] > ns[~above] + 1)
        if not (above.any() or split.any()):
            if ns[-1] >= 2:
                _check_regime(mesh, bc, mus, ks)
            # K(lo) = n and K(hi) = n + 1: G_n is G_K at lo and G_K + pi at hi
            return a, b, ks[lo], gaps[lo], gaps[hi] + PI
        a, b = a[split], b[split]
        mid = 0.5 * (a + b)
        stuck = (b - a <= 1e-8) | (mid <= a) | (mid >= b)
        if stuck.any():
            raise BracketError(
                f"eigenvalues cluster below resolution near mu = {a[stuck][0]:.9f}")
        if above.any() and mus[-1] >= upper:
            raise BracketError(f"K = {ks[-1]} at mu = {mus[-1]:.9g} contradicts the upper "
                               f"bound {upper:.9g} of mu_{ns[-1]}")
        new = _unique(np.append(mid, upper) if above.any() else mid)
        k_new, gap_new = _counts(mesh, bc, new)
        mus, ks = np.concatenate((mus, new)), np.concatenate((ks, k_new))
        gaps = np.concatenate((gaps, gap_new))
        order = np.argsort(mus)
        mus, ks, gaps = mus[order], ks[order], gaps[order]


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------


def _refine_batch(mesh: Mesh, bc: BoundaryParams, ns, lo, hi, glo, ghi, tol: float, first):
    """Bracketed Anderson-Bjorck iteration per column on the angle gap, bisection as fallback.

    [lo, hi] is the counted bracket of index ns[i], and glo, ghi the gap
    G_n there from the count (see _counts), so no sweep evaluates an end.
    Each step sweeps Phi in one batch at one point inside every bracket
    still wider than tol with a float inside it, and reads G_n there from
    the same state (_gaps): G_n is nearly linear in mu where the
    solution oscillates at pi.  Below q(pi) it is not: x = pi lies in a
    forbidden zone, where a bound state's angle turns by pi within a few
    ulps of mu, while Phi stays linear in the coefficient of the growing
    solution.  So a bracket whose upper end has come to lie at or below
    q(pi), the last interval's midpoint sample, goes on in s Phi,
    s = (-1)^(n + 1), which has the sign of G_n, from the step after which
    both of its ends have been swept, restarting from true values, and
    stays on it.  The first step takes the column's entry of first, an
    asymptotic estimate of the root, where it lies more than tol/2 inside
    the bracket, or the midpoint of a bracket whose upper end lies at or
    below q(pi), where that estimate crowds the upper end.  Otherwise a
    step takes the regula falsi point of the ends' values, kept tol/2
    inside, or the midpoint where that point is not inside or the bracket
    did not halve over the last three steps (so at most four times the cost
    of bisection).  A first point counts as an
    interpolated one.  When an interpolated point replaces the same end as
    the previous one, the value at the other end is scaled by
    1 - f_new / f_replaced, or halved when that is not positive (Anderson &
    Bjorck, BIT 13, 1973).

    Returns (mu, residual, bracket_lo, bracket_hi): mu is the bracket end
    with the smaller |value| and residual the true |Phi| there, from the
    sweep that evaluated it; an end that no step replaced (a bracket
    narrower than tol from the start, or a root within tol of a counted
    end) takes one more Phi sweep (_gaps) for its residual.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    flo, fhi = np.array(glo, dtype=float), np.array(ghi, dtype=float)
    # an exact zero at an end collapses the bracket onto that end
    hi, fhi = np.where(flo == 0.0, lo, hi), np.where(flo == 0.0, 0.0, fhi)
    lo, flo = np.where(fhi == 0.0, hi, lo), np.where(fhi == 0.0, 0.0, flo)
    nan, inf = np.full(lo.shape, np.nan), np.full(lo.shape, np.inf)
    # one row per column state, so that a step gathers and scatters them at once:
    # the ends, their true values and interpolation values (scaled), Phi at
    # the ends a step has swept, the end the last interpolated point replaced
    # (-1 lo, +1 hi), the bracket widths three, two and one steps back,
    # s = (-1)^(n + 1), which turns the gap's angle of index n into one near
    # 0, and 1 once the column iterates on s Phi
    state = np.array((lo, hi, flo, fhi, flo, fhi, nan, nan, np.zeros(lo.shape), inf, inf, inf,
                      np.where(np.asarray(ns) % 2 == 0, -1.0, 1.0), np.zeros(lo.shape)))
    edge = mesh.q[-1]  # q at pi: below it the state at pi is in a forbidden zone
    first = np.where(hi <= edge, 0.5 * (lo + hi), first)
    while True:
        lo, hi = state[0], state[1]
        mid = 0.5 * (lo + hi)
        j = np.flatnonzero((hi - lo > tol) & (lo < mid) & (mid < hi))
        if j.size == 0:
            break
        a, b, fa, fb, ga, gb, pa, pb, last, back0, back1, back2, sign, on_phi = state[:, j]
        width = b - a
        x = np.minimum(np.maximum(a - ga * width / (gb - ga), a + 0.5 * tol), b - 0.5 * tol)
        if first is not None:  # the first step only
            f, first = first[j], None
            x = np.where((a + 0.5 * tol < f) & (f < b - 0.5 * tol), f, x)
        bisect = ~((a < x) & (x < b)) | (width > 0.5 * back0)
        x = np.where(bisect, 0.5 * (a + b), x)
        fx, px = _gaps(mesh, bc, x, sign)
        if on_phi.any():
            fx = np.where(on_phi == 1.0, sign * px, fx)

        to_lo, zero = np.sign(fx) == np.sign(fa), fx == 0.0
        side = np.where(to_lo, -1.0, 1.0)
        scale = np.where((side == last) & ~bisect, 1.0 - fx / np.where(to_lo, fa, fb), 1.0)
        scale = np.where(scale > 0.0, scale, 0.5)
        # a bisection point restarts the interpolation from true values
        ga = np.where(to_lo, fx, np.where(bisect, fa, ga * scale))
        gb = np.where(to_lo, np.where(bisect, fb, gb * scale), fx)
        # an exact zero collapses the bracket onto it
        new_lo, new_hi = to_lo | zero, ~to_lo
        a, fa, pa = np.where(new_lo, x, a), np.where(new_lo, fx, fa), np.where(new_lo, px, pa)
        b, fb, pb = np.where(new_hi, x, b), np.where(new_hi, fx, fb), np.where(new_hi, px, pb)
        last = np.where(bisect, last, side)
        low = b <= edge
        if low.any():  # a bracket below the edge whose ends are both swept now goes on in s Phi
            switch = low & (on_phi == 0.0) & ~np.isnan(pa) & ~np.isnan(pb)
            fa, fb = np.where(switch, sign * pa, fa), np.where(switch, sign * pb, fb)
            ga, gb = np.where(switch, fa, ga), np.where(switch, fb, gb)
            last, on_phi = np.where(switch, 0.0, last), np.where(switch, 1.0, on_phi)
        state[:, j] = a, b, fa, fb, ga, gb, pa, pb, last, back1, back2, width, sign, on_phi

    lo, hi, flo, fhi, _, _, phi_lo, phi_hi = state[:8]
    pick_lo = np.abs(flo) <= np.abs(fhi)
    mus, residual = np.where(pick_lo, lo, hi), np.abs(np.where(pick_lo, phi_lo, phi_hi))
    unswept = np.flatnonzero(np.isnan(residual))
    if unswept.size:
        residual[unswept] = np.abs(_gaps(mesh, bc, mus[unswept], state[12, unswept])[1])
    return mus, residual, lo, hi


# ---------------------------------------------------------------------------
# assembled searches
# ---------------------------------------------------------------------------


def _search(q: Potential, bc: BoundaryParams, ns: range, tol: float,
            grid_size: int) -> list[Eigenpair]:
    """Counted, refined eigenpairs of the contiguous indices ns, as one batch.

    The shifts, first points and separators come from one _estimates call;
    counts, brackets and refinement sweeps all run as batches over ns.
    """
    if not 0.0 < tol < inf:
        raise ValueError("tol must be finite and positive")
    mesh = build_mesh(q, grid_size)
    deltas, first, seps = _estimates(ns, bc, mesh.mean)
    lo, hi, zeros, glo, ghi = _brackets(mesh, bc, ns, seps)
    mus, residuals, lo, hi = _refine_batch(mesh, bc, ns, lo, hi, glo, ghi, tol, first)
    rows = zip(ns, mus.tolist(), residuals.tolist(), lo.tolist(), hi.tolist(), deltas,
               zeros.tolist())
    return [Eigenpair(n=n, mu=mu, lam=sqrt(abs(mu)), mu_negative=mu < 0.0, delta=d,
                      bracket=(a, b), char_residual=r, zeros=k)
            for n, mu, r, a, b, d, k in rows]


def find_eigenvalue(q: Potential, bc: BoundaryParams, n: int,
                    tol: float = DEFAULT_ROOT_TOL,
                    grid_size: int = DEFAULT_GRID_SIZE) -> Eigenpair:
    """Locate and certify the n-th eigenvalue: the search of find_spectrum on [n, n].

    The root is isolated in a counted bracket, below whose ends lie n and
    n + 1 eigenvalues, and refined to a mu window of width tol.  n must be
    an integer in [0, MAX_INDEX] (ValueError otherwise).  For n >= 2 it
    raises UnsupportedRegimeError when mu_2 < 0, as find_spectrum does.
    """
    n = _whole(n, "index", 0, MAX_INDEX)
    return _search(q, bc, range(n, n + 1), tol, grid_size)[0]


def find_spectrum(q: Potential, bc: BoundaryParams, n_max: int,
                  tol: float = DEFAULT_ROOT_TOL,
                  grid_size: int = DEFAULT_GRID_SIZE) -> Spectrum:
    """All certified eigenpairs for indices 0 through n_max.

    Counts, brackets and refinement sweeps all run as batches over the
    index range.  n_max must be an integer in [0, MAX_INDEX] (ValueError
    otherwise).  For n_max >= 2 it raises UnsupportedRegimeError when
    mu_2 < 0, decided by the counts (see _check_regime).
    """
    n_max = _whole(n_max, "n_max", 0, MAX_INDEX)
    return Spectrum(q=q, bc=bc, pairs=_search(q, bc, range(n_max + 1), tol, grid_size))
