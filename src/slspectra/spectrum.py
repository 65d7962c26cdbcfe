"""Eigenvalue location by shooting on the characteristic function.

The characteristic function Phi(mu) is the boundary defect at x = pi of the
left-normalized solution,

    Phi(mu) = phi(pi, mu) cos(beta) + phi'(pi, mu) sin(beta),

whose zeros are the eigenvalues mu_0 < mu_1 < ... of the problem.  Indices
n >= 2 are bracketed around the asymptotic frequency
n + delta_n + [q] / (2 (n + delta_n)), one batch of Phi evaluations per
widening rung.  The two lowest indices, and any index whose asymptotic
bracket misbehaves, are isolated by bisection on the oscillation index: the
count of interior zeros of the shooting solution plus its terminal phase
fragment equals the number of eigenvalues below mu.  The index comes from a
walk over the mesh's runs of constant q that counts zeros by phase: a run
contributes its whole half-turns floor(sqrt(mu - q) h / pi) and a sign test
for the last zero, and hyperbolic runs are scaled so the walk never
overflows, so a handful of walks pins each index exactly even when the
lower spectral bound is very deep.  Roots are then refined by bracketed
Anderson-Bjorck regula falsi steps, vectorized over whole index ranges, and
every returned eigenpair is certified by the interior zero count of its
eigenfunction on the full mesh (the n-th eigenfunction has exactly n of
them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import sqrt

import numpy as np

from .delta import DeltaValue, delta_for_index
from .errors import BracketError, OscillationMismatchError, UnsupportedRegimeError
from .odesolve import (
    DEFAULT_GRID_SIZE,
    Mesh,
    SolutionTrace,
    _blocks,
    _quiet,
    _trace,
    build_mesh,
    endpoint_values,
    y_values_batch,
)
from .potential import PI, BoundaryParams, Potential, mean_q

DEFAULT_ROOT_TOL = 1e-10
BRACKET_HALF_WIDTHS = (0.4, 0.45, 0.49)
MAX_INDEX = 300


@dataclass
class Eigenpair:
    """One certified eigenvalue with its index evidence.

    lam is sqrt(|mu|); mu_negative records the hyperbolic case mu < 0.
    bracket is the interval the root was isolated in: a sign change of Phi
    in the arithmetic of the batch that found it.  Its converged end often
    has |Phi| near rounding, and the rounding of a Phi sweep depends on the
    batch size, so char_function at that end alone may show the other sign.
    char_residual is the characteristic-function magnitude at the returned
    mu, zeros the counted interior zeros of the eigenfunction (equal to n).
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
        self.q = q
        self.bc = bc
        self.mesh: Mesh = build_mesh(q, grid_size)
        self.y0 = bc.sin_alpha
        self.yp0 = -bc.cos_alpha

    def phi_batch(self, mus, guard: bool = True) -> np.ndarray:
        y, yp = endpoint_values(self.mesh, np.asarray(mus, dtype=float),
                                self.y0, self.yp0, forward=True, guard=guard)
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


def eigenfunction(pair: Eigenpair, q: Potential, bc: BoundaryParams,
                  grid_size: int = DEFAULT_GRID_SIZE) -> SolutionTrace:
    """Trace of the left-normalized eigenfunction at the pair's eigenvalue."""
    mesh = build_mesh(q, grid_size)
    return _trace(mesh, pair.mu, bc.sin_alpha, -bc.cos_alpha, forward=True)


def eigenfunction_right(pair: Eigenpair, q: Potential, bc: BoundaryParams,
                        grid_size: int = DEFAULT_GRID_SIZE) -> SolutionTrace:
    """Trace of the right-normalized eigenfunction at the pair's eigenvalue."""
    mesh = build_mesh(q, grid_size)
    return _trace(mesh, pair.mu, bc.sin_beta, -bc.cos_beta, forward=False)


# ---------------------------------------------------------------------------
# bracketing
# ---------------------------------------------------------------------------


def _scan_floor(q: Potential) -> float:
    n1 = q.norm1()
    return -n1 * (1.0 + n1) - 1.0


@_quiet
def _oscillation_index(engine: _CharEngine, mu: float) -> int:
    """Number of eigenvalues strictly below mu.

    Walks the shooting solution across the mesh's runs of constant q and
    counts its interior zeros by phase.  A run with w = mu - q > 0 turns
    the phase by th = sqrt(w) h: it holds floor(th / pi) whole half-turns,
    one zero each, plus one zero exactly when the sign of y at its end
    disagrees with their parity.  An odd count negates the run's step, so
    the sign test sees only that last zero.  A run with w < 0 holds at most
    one zero and steps by its propagator divided by cosh th, with entries
    1, tanh(th)/sqrt(-w) and sqrt(-w) tanh(th), which never overflow.  The
    state is renormalized when it grows; zeros and the terminal direction
    depend on neither its scale nor its sign.  One is added if the terminal
    phase fragment has passed the right boundary angle.
    """
    y, yp = engine.y0, engine.yp0
    zeros = 0
    prev = y  # only its sign is read: that of the last nonzero y
    mesh = engine.mesh
    for h, w, C, S in _blocks(mesh.run_h, mesh.run_q, np.array([float(mu)]), True):
        hyp = w < 0.0
        if hyp.any():
            r = np.sqrt(-w, out=np.ones_like(w), where=hyp)
            C, S = np.where(hyp, 1.0, C), np.where(hyp, np.tanh(r * h) / r, S)
        turns = np.floor(np.sqrt(np.maximum(w * h * h, 0.0)) / PI)
        if turns.any():
            zeros += int(turns.sum())
            sign = 1.0 - 2.0 * (turns % 2.0)
            C, S = C * sign, S * sign
        for c, s, ws in zip(C[:, 0].tolist(), S[:, 0].tolist(), (w * S)[:, 0].tolist()):
            y, yp = c * y + s * yp, -ws * y + c * yp
            if not (-1e100 < y < 1e100 and -1e100 < yp < 1e100):
                scale = max(abs(y), abs(yp))
                y /= scale
                yp /= scale
            if y > 0.0:
                if prev < 0.0:
                    zeros += 1
                prev = 1.0
            elif y < 0.0:
                if prev > 0.0:
                    zeros += 1
                prev = -1.0
    angle = math.atan2(y, yp)
    if angle <= 0.0:
        angle += PI
    return zeros + (1 if angle > PI - engine.bc.beta else 0)


def _brackets_by_counting(engine: _CharEngine, ns, hint_hi: float) -> list[tuple[float, float]]:
    """Index-bisection brackets of the ascending indices ns, sharing every count."""
    floor = _scan_floor(engine.q)
    known = {floor: _oscillation_index(engine, floor)}
    if known[floor] != 0:
        raise BracketError(
            f"lower spectral bound {floor:.3f} is not below the whole spectrum")
    hi, tries = max(hint_hi, floor + 1.0), 1
    known[hi] = _oscillation_index(engine, hi)
    brackets = []
    for n in ns:
        while known[hi] < n + 1:
            hi = (sqrt(max(hi, 0.0)) + 1.5) ** 2
            if tries == 64:
                raise BracketError(f"could not find {n + 1} eigenvalues below mu = {hi:.3f}")
            tries += 1
            known[hi] = _oscillation_index(engine, hi)
        a = max(mu for mu, k in known.items() if k <= n)
        b = min(mu for mu, k in known.items() if k > n)
        while not (known[a] == n and known[b] == n + 1):
            if b - a <= 1e-8:
                raise BracketError(
                    f"eigenvalues cluster below resolution near mu = {a:.9f}")
            mid = 0.5 * (a + b)
            known[mid] = _oscillation_index(engine, mid)
            a, b = (mid, b) if known[mid] <= n else (a, mid)
        brackets.append((a, b))
    return brackets


def _asymptotic_center(n: int, delta_value: float, meanq: float) -> float:
    nu = n + delta_value
    return nu + meanq / (2.0 * nu)


def _low_hint(engine: _CharEngine, meanq: float) -> float:
    d2 = delta_for_index(2, engine.bc)
    return max((_asymptotic_center(2, d2.value, meanq) - BRACKET_HALF_WIDTHS[0]) ** 2, 1.0)


def bracket_eigenvalue(q: Potential, bc: BoundaryParams, n: int,
                       grid_size: int = DEFAULT_GRID_SIZE) -> tuple[float, float]:
    """A sign-change interval of Phi around the n-th eigenvalue.

    Indices n >= 2 use the asymptotic frequency with a widening ladder;
    n in {0, 1} are isolated by oscillation-index bisection upward from the
    lower spectral bound.
    """
    engine = _CharEngine(q, bc, grid_size)
    meanq = mean_q(q)
    if n < 2:
        return _brackets_by_counting(engine, [n], _low_hint(engine, meanq))[0]
    lam_c = _asymptotic_center(n, delta_for_index(n, bc).value, meanq)
    lo, hi, _, _ = _asymptotic_brackets(engine, np.array([lam_c]))[:, 0]
    if np.isnan(lo):
        raise BracketError(
            f"asymptotic frequency {lam_c:.3f} too small for index {n}; "
            "potential outside the asymptotic regime" if lam_c < 0.5 else
            f"no sign change around index {n} within the widening limit "
            f"(lambda center {lam_c:.6f})")
    return (float(lo), float(hi))


def _asymptotic_brackets(engine: _CharEngine, lam_c: np.ndarray):
    """Sign-change brackets of Phi around the asymptotic frequencies lam_c.

    Each rung of BRACKET_HALF_WIDTHS evaluates Phi at both ends of every
    index still unbracketed, in one batch.  Returns (lo, hi, Phi(lo),
    Phi(hi)), all NaN where no rung brackets or lam_c < 0.5 (outside the
    asymptotic regime).
    """
    out = np.full((4, lam_c.size), np.nan)
    todo = np.flatnonzero(lam_c >= 0.5)
    for w in BRACKET_HALF_WIDTHS:
        if todo.size == 0:
            break
        lo = np.maximum(lam_c[todo] - w, 1e-3) ** 2
        hi = (lam_c[todo] + w) ** 2
        flo, fhi = np.split(engine.phi_batch(np.concatenate((lo, hi))), 2)
        hit = (flo == 0.0) | (fhi == 0.0) | (flo * fhi < 0.0)
        out[:, todo[hit]] = np.array([lo, hi, flo, fhi])[:, hit]
        todo = todo[~hit]
    return out


def _recovery_bracket(engine: _CharEngine, n: int, meanq: float) -> tuple[float, float]:
    """Index-exact bracket used when the asymptotic one misses or miscounts."""
    lam_hi = n + 2.5 + sqrt(abs(meanq) + 1.0)
    return _brackets_by_counting(engine, [n], lam_hi * lam_hi)[0]


def _brackets(engine: _CharEngine, ns: list[int], deltas, meanq: float) -> np.ndarray:
    """Rows lo, hi, Phi(lo), Phi(hi) for the ascending indices ns.

    Indices 0 and 1 share one oscillation-index bisection, the others take
    batched asymptotic brackets, and an asymptotic miss takes the recovery
    bracket.  Phi is NaN at the ends of counted brackets.
    """
    low = [n for n in ns if n < 2]
    out = np.full((4, len(ns)), np.nan)
    if low:
        out[:2, :len(low)] = np.transpose(
            _brackets_by_counting(engine, low, _low_hint(engine, meanq)))
    out[:, len(low):] = _asymptotic_brackets(engine, np.array(
        [_asymptotic_center(n, d.value, meanq) for n, d in zip(ns, deltas) if n >= 2]))
    for j in np.flatnonzero(np.isnan(out[0])):
        out[:2, j] = _recovery_bracket(engine, ns[j], meanq)
    return out


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------


def _refine_batch(engine: _CharEngine, lo, hi, flo, fhi, tol: float):
    """Bracketed Anderson-Bjorck iteration per column, bisection as fallback.

    [lo, hi] brackets a sign change of Phi; flo, fhi are Phi at its ends,
    NaN where not yet evaluated (those ends are swept first).  Each step
    evaluates Phi in one batch at one point inside every bracket still
    wider than tol with a float inside it: the regula falsi point of the
    ends' values, kept tol/2 inside, or the midpoint where that point is
    not inside or the bracket did not halve over the last two steps (so at
    most three times the cost of bisection).  When an interpolated point
    replaces the same end as the previous one, the value at the other end
    is scaled by 1 - f_new / f_replaced, or halved when that is not
    positive (Anderson & Bjorck, BIT 13, 1973).

    Returns (mu, residual, bracket_lo, bracket_hi): mu is the bracket end
    with the smaller true |Phi| and residual that |Phi|.
    """
    lo, hi, flo, fhi = (np.array(v, dtype=float) for v in (lo, hi, flo, fhi))
    fresh = np.isnan(flo)
    if fresh.any():
        flo[fresh], fhi[fresh] = np.split(
            engine.phi_batch(np.concatenate((lo[fresh], hi[fresh]))), 2)
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


def _certify(engine: _CharEngine, mus: np.ndarray) -> np.ndarray:
    """Interior zero count of the shooting solution at each mu."""
    return _zero_counts(y_values_batch(engine.mesh, mus, engine.y0, engine.yp0))


def _build_pair(n: int, mu: float, residual: float, bracket: tuple[float, float],
                delta: DeltaValue, zeros: int) -> Eigenpair:
    mu = float(mu)
    return Eigenpair(
        n=n, mu=mu, lam=sqrt(abs(mu)), mu_negative=mu < 0.0, delta=delta,
        bracket=(float(bracket[0]), float(bracket[1])),
        char_residual=float(residual), zeros=int(zeros),
    )


def _certified_pairs(engine: _CharEngine, ns: list[int], deltas, meanq: float,
                     tol: float) -> list[Eigenpair]:
    """Bracketed, refined, certified eigenpairs for the ascending indices ns.

    All brackets refine and certify as one batch.  An index whose root
    miscounts is bracketed again by index bisection, refined and certified
    on its own, and raises OscillationMismatchError if it still miscounts.
    """
    mus, residuals, lo, hi = _refine_batch(engine, *_brackets(engine, ns, deltas, meanq), tol)
    zeros = _certify(engine, mus)
    pairs = []
    for j, n in enumerate(ns):
        if zeros[j] != n:
            a, b = _recovery_bracket(engine, n, meanq)
            mus[j:j + 1], residuals[j:j + 1], lo[j:j + 1], hi[j:j + 1] = _refine_batch(
                engine, [a], [b], [np.nan], [np.nan], tol)
            zeros[j] = _certify(engine, mus[j:j + 1])[0]
            if zeros[j] != n:
                raise OscillationMismatchError(
                    f"eigenfunction {n} at mu = {mus[j]:.9f} has {zeros[j]} interior "
                    f"zeros, expected {n}")
        pairs.append(_build_pair(n, mus[j], residuals[j], (lo[j], hi[j]), deltas[j], zeros[j]))
    return pairs


def find_eigenvalue(q: Potential, bc: BoundaryParams, n: int,
                    tol: float = DEFAULT_ROOT_TOL,
                    grid_size: int = DEFAULT_GRID_SIZE) -> Eigenpair:
    """Locate and certify the n-th eigenvalue.

    The root is isolated by bracketing, refined to a mu window of width tol,
    and certified by the interior zero count of its eigenfunction; a
    miscount triggers one full rescan of the mu axis before giving up.
    """
    if not (0 <= n <= MAX_INDEX):
        raise ValueError(f"index must lie in [0, {MAX_INDEX}], got {n}")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
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

    Brackets, refinement sweeps, and oscillation certificates all run as
    batches over the index range.
    """
    if not (0 <= n_max <= MAX_INDEX):
        raise ValueError(f"n_max must lie in [0, {MAX_INDEX}], got {n_max}")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    engine = _CharEngine(q, bc, grid_size)
    deltas = [delta_for_index(n, bc) for n in range(n_max + 1)]
    pairs = _certified_pairs(engine, list(range(n_max + 1)), deltas, mean_q(q), tol)
    if n_max >= 2 and pairs[2].mu <= 0.0:
        raise UnsupportedRegimeError(
            f"mu_2 = {pairs[2].mu:.6f} <= 0; potential outside the supported regime")
    return Spectrum(q=q, bc=bc, pairs=pairs)
