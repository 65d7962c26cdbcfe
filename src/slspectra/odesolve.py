"""Initial-value solver for -y'' + q y = mu y and the series oracle.

The stepping scheme freezes the coefficient w = mu - q at each mesh
interval's midpoint and applies the exact constant-coefficient propagator
(trigonometric for w > 0, hyperbolic for w < 0, linear drift at w = 0).
The propagator is exact in mu, so phase accuracy does not degrade for
highly oscillatory solutions; the only discretization error comes from the
midpoint freezing of q, and that vanishes for potentials that are constant
on mesh intervals (zero, constant, and step potentials with the jump on a
mesh node).  The propagator is also differentiable in mu in closed form, and
for the discrete solution (y y_mu' - y' y_mu)' = -y^2, so the integral of
y^2 over [0, pi] comes from endpoint values of y and y_mu alone.

A run is a maximal stretch of consecutive mesh intervals with equal
midpoint q.  The frozen propagator is exact across a whole run, so the
characteristic-function and norm sweeps take one step per run: two steps
on a step potential, one on a constant, and one per interval on a smooth
potential, where runs and intervals coincide.  Node values need every
node and step the full mesh.

Batches of spectral parameters propagate together.  Every sweep reads the
per-step coefficients from one block generator, which evaluates them a
block of consecutive steps at a time, in propagation order, each entry in
its own branch only.  The block length follows from the batch size and
one fixed budget of (step, mu) entries: 256 steps at 64 mu, the whole
default mesh for one or two mu.  The characteristic-function and norm
sweeps contract each block's run propagators by a pairwise tree and
compose the block products in order.  The node sweep cuts each block of L
intervals into chunks of about sqrt(L) intervals: it forms the chunk
propagators side by side, chains them for the chunk start states, and
then steps all chunks at once, so a block costs about 3 sqrt(L) vectorised
steps instead of L.  The transient arrays of a block, chunk propagators
included, stay near 2 MB whatever the batch or mesh size, and short
batches still run few, long vectorised passes.

The independent oracle is the successive-approximation series for the
solution vanishing at the origin, built from iterated Volterra integrals
with an explicit tail bound, so solver and series can certify each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError
from .potential import PI, Potential, _snapped_sincos, integrate

DEFAULT_GRID_SIZE = 4096
BLOWUP_BOUND = 1e12

_SERIES_Z = 1e-4
_DS_SERIES_Z = 0.1
# One coefficient block holds _BLOCK_ELEMS (interval, mu) entries: 256
# intervals at a batch of _BLOCK_MUS spectral parameters, longer blocks for
# smaller batches and shorter ones, down to a single interval, for larger.
_BLOCK_MUS = 64
_BLOCK_ELEMS = 256 * _BLOCK_MUS

# Deep hyperbolic sweeps overflow to inf and nan; the overflow guards turn
# that into BlowUpError, so numpy's floating-point warnings stay silent.
_quiet = np.errstate(over="ignore", invalid="ignore")


@dataclass
class SolutionTrace:
    """Solution values and derivatives on an increasing grid in [0, pi]."""

    grid: np.ndarray
    y: np.ndarray
    yprime: np.ndarray
    mu: float


@dataclass
class FundamentalSystem:
    """The four solutions normalized at the endpoints.

    y1(0) = 1, y1'(0) = 0;  y2(0) = 0, y2'(0) = 1;
    y3(pi) = 1, y3'(pi) = 0;  y4(pi) = 0, y4'(pi) = 1.
    """

    y1: SolutionTrace
    y2: SolutionTrace
    y3: SolutionTrace
    y4: SolutionTrace


@dataclass
class PicardResult:
    """Partial sum of the series solution plus its truncation certificate.

    tail_bound dominates the sum of all omitted terms at x = pi.
    """

    trace: SolutionTrace
    tail_bound: float
    terms: int


@dataclass
class Mesh:
    """Propagation mesh: nodes, interval widths, midpoint potential values.

    run_h and run_q describe the runs, the maximal stretches of consecutive
    intervals with equal qmid: each run's length, the difference of its end
    nodes, and its q.  A mesh whose qmid never repeats has one run per
    interval, and then run_h equals h bit for bit.
    """

    nodes: np.ndarray
    h: np.ndarray
    qmid: np.ndarray
    run_h: np.ndarray
    run_q: np.ndarray


def build_mesh(q: Potential, grid_size: int = DEFAULT_GRID_SIZE) -> Mesh:
    """Uniform mesh on [0, pi] with the potential's breakpoints inserted."""
    if grid_size < 64:
        raise ValueError(f"grid_size must be >= 64, got {grid_size}")
    nodes = np.linspace(0.0, PI, grid_size + 1)
    bps = [b for b in q.breakpoints if 0.0 < b < PI]
    if bps:
        extra = [b for b in bps if np.min(np.abs(nodes - b)) > 1e-12]
        if extra:
            nodes = np.unique(np.concatenate([nodes, np.asarray(extra)]))
    h = np.diff(nodes)
    qmid = np.asarray(q((nodes[:-1] + nodes[1:]) / 2.0), dtype=float)
    starts = np.flatnonzero(np.concatenate(([True], qmid[1:] != qmid[:-1])))
    run_h = np.diff(nodes[np.append(starts, h.size)])
    return Mesh(nodes=nodes, h=h, qmid=qmid, run_h=run_h, run_q=qmid[starts])


def _step_coeffs(w, h):
    """Propagator entries C, S for one interval of width h and coefficient w.

    C and S solve u'' = -w u with (C, C') = (1, 0) and (S, S') = (0, 1) at
    the interval start, evaluated at the end: cos th and h sin(th)/th for
    z = w h^2 = th^2 >= _SERIES_Z, cosh th and h sinh(th)/th for
    z <= -_SERIES_Z, and their series in z in between, which keeps the
    formulas smooth through w = 0.  Each entry evaluates its own branch only.
    """
    z = w * h * h
    th = np.sqrt(np.abs(z))
    osc = z >= _SERIES_Z
    hyp = z <= -_SERIES_Z
    big = osc | hyp
    C, S = np.empty_like(z), np.empty_like(z)
    np.cos(th, out=C, where=osc)
    np.cosh(th, out=C, where=hyp)
    np.sin(th, out=S, where=osc)
    np.sinh(th, out=S, where=hyp)
    np.multiply(h, S, out=S, where=big)
    np.divide(S, th, out=S, where=big)
    small = ~big
    if small.any():
        z, h = z[small], np.broadcast_to(h, small.shape)[small]
        z2 = z * z
        C[small] = 1.0 - z / 2.0 + z2 / 24.0 - z2 * z / 720.0
        S[small] = h * (1.0 - z / 6.0 + z2 / 120.0 - z2 * z / 5040.0)
    return C, S


def _dS_dw(w, h, C, S):
    """Derivative of the propagator entry S in the coefficient w.

    The closed form (h C - S) / (2 w) is 0/0 at w = 0 and loses about
    6 eps / |z| to cancellation, so |z| < _DS_SERIES_Z takes the series of
    h sin(sqrt(w) h)/sqrt(w) in z = w h^2 through z^6, whose truncation
    error stays below rounding there.
    """
    z = w * h * h
    small = np.abs(z) < _DS_SERIES_Z
    wsafe = np.where(small, 1.0, w)
    closed = (h * C - S) / (2.0 * wsafe)
    series = h * h * h * (-1.0 / 6.0 + z * (1.0 / 60.0 + z * (-1.0 / 1680.0 + z * (
        1.0 / 90720.0 + z * (-1.0 / 7983360.0 + z * (
            1.0 / 1037836800.0 - z / 186810624000.0))))))
    return np.where(small, series, closed)


def _blocks(h: np.ndarray, q: np.ndarray, mus: np.ndarray, forward: bool):
    """Per-step (h, w, C, S) of steps of widths h and potential values q.

    The steps are a mesh's intervals (mesh.h, mesh.qmid) or its runs
    (mesh.run_h, mesh.run_q); they come block by block in propagation
    order, and backward propagation starts at the last step.  w, C and S
    have shape (steps, mus) and h has shape (steps, 1).  A block holds
    about _BLOCK_ELEMS entries, so its length follows from the batch size.
    """
    if not forward:
        h, q = h[::-1], q[::-1]
    size = max(1, _BLOCK_ELEMS // max(1, mus.size))
    for lo in range(0, h.size, size):
        hb = h[lo:lo + size, None]
        w = mus - q[lo:lo + size, None]
        yield (hb, w, *_step_coeffs(w, hb))


def _transfer(h, w, C, S, sign):
    """Propagator entries (m00, m01, m10, m11); sign = -1 gives the inverses."""
    return (C, sign * S, -sign * w * S, C)


def _transfer_dmu(h, w, C, S, sign):
    """Propagator entries followed by the entries of their mu-derivative."""
    dC = -0.5 * h * S
    return _transfer(h, w, C, S, sign) + (
        dC, sign * _dS_dw(w, h, C, S), -0.5 * sign * (S + h * C), dC)


def _mul2(B, A):
    """Product B A of 2x2 matrices stored as entry tuples (m00, m01, m10, m11)."""
    return tuple(B[2 * i] * A[j] + B[2 * i + 1] * A[2 + j] for i in (0, 1) for j in (0, 1))


def _compose(B, A):
    """(B, dB)(A, dA) = (BA, dB A + B dA), each pair an 8-tuple of entries."""
    dBA = zip(_mul2(B[4:], A[:4]), _mul2(B[:4], A[4:]))
    return _mul2(B[:4], A[:4]) + tuple(x + y for x, y in dBA)


def _sweep(mesh: Mesh, mus: np.ndarray, y0: float, yp0: float, forward: bool,
           entries, mul):
    """Whole-mesh product of the run matrices, applied to (y0, yp0).

    One exact step per run of constant q: entries builds one block's
    matrices from (h, w, C, S, sign) and mul(B, A) multiplies two stacks of
    them.  Each block is contracted by a pairwise tree, an odd level
    carrying its last matrix up unpaired, and the block products compose in
    propagation order.  Returns the product's rows applied to the start:
    (y, y') for _transfer, and (y, y', y_mu, y_mu') for _transfer_dmu.
    """
    sign = 1.0 if forward else -1.0
    M = None
    for block in _blocks(mesh.run_h, mesh.run_q, mus, forward):
        E = entries(*block, sign)
        while len(E[0]) > 1:
            n = len(E[0])
            P = mul([t[1:n:2] for t in E], [t[0:n - 1:2] for t in E])
            E = P if n % 2 == 0 else [np.concatenate((p, t[-1:])) for p, t in zip(P, E)]
        M = E if M is None else mul(E, M)
    return [M[i][0] * y0 + M[i + 1][0] * yp0 for i in range(0, len(M), 2)]


@_quiet
def endpoint_values(mesh: Mesh, mus, y0: float, yp0: float, *, forward: bool = True,
                    guard: bool = True):
    """Propagate (y0, yp0) across the whole mesh for a batch of mu values.

    Returns (y, y') at x = pi when forward, at x = 0 otherwise.  With guard
    set, raises BlowUpError if any final value escapes the overflow bound;
    scans that only need signs of deeply hyperbolic values run unguarded.

    Memory: the runs go in blocks of about _BLOCK_ELEMS (run, mu) entries,
    so the transient arrays of one block stay near 2 MB whatever the batch
    or mesh size.
    """
    mus = np.atleast_1d(np.asarray(mus, dtype=float))
    ys, yps = _sweep(mesh, mus, y0, yp0, forward, _transfer, _mul2)
    if guard and (
        not np.all(np.isfinite(ys)) or not np.all(np.isfinite(yps))
        or np.max(np.abs(ys)) > BLOWUP_BOUND or np.max(np.abs(yps)) > BLOWUP_BOUND
    ):
        raise BlowUpError(
            "solution exceeded the overflow guard; spectral parameter far outside "
            "the admissible range"
        )
    return ys, yps


@_quiet
def propagate_with_norm(mesh: Mesh, mus, y0: float, yp0: float, *, forward: bool = True):
    """Endpoint values plus the integral of y^2 over [0, pi] for a batch of mu.

    The propagated y solves -y'' + q~ y = mu y with the midpoint-frozen q~,
    and for that equation (y y_mu' - y' y_mu)' = -y^2.  Starting data do not
    depend on mu, so the forward sweep gives
        int_0^pi y^2 = y'(pi) y_mu(pi) - y(pi) y_mu'(pi),
    and the backward sweep y(0) y_mu'(0) - y'(0) y_mu(0).  This is the exact
    integral of the discrete solution, not a further approximation.  Each
    run of constant q contributes its propagator T and dT/dmu in closed
    form; the pairs are contracted by a pairwise tree,
    (B, dB)(A, dA) = (BA, dB A + B dA), block by block, and the block
    products compose in order.

    Memory: the runs go in blocks of about _BLOCK_ELEMS (run, mu) entries,
    so the transient arrays of one block stay near 2 MB whatever the batch
    or mesh size.

    Returns (y, y', acc) at x = pi when forward, at x = 0 otherwise.  Raises
    BlowUpError if any returned value is non-finite or |y| exceeds
    BLOWUP_BOUND.
    """
    mus = np.atleast_1d(np.asarray(mus, dtype=float))
    y, yp, dy, dyp = _sweep(mesh, mus, y0, yp0, forward, _transfer_dmu, _compose)
    acc = (yp * dy - y * dyp) if forward else (y * dyp - yp * dy)
    if not all(np.all(np.isfinite(v)) for v in (y, yp, acc)) or np.max(np.abs(y)) > BLOWUP_BOUND:
        raise BlowUpError("solution exceeded the overflow guard in norm propagation")
    return y, yp, acc


@_quiet
def _nodes(mesh: Mesh, mus: np.ndarray, y0: float, yp0: float, forward: bool,
           with_yprime: bool = True, scaled=None):
    """y and y' at every node for a batch of mu, each of shape (nodes, mus).

    Steps from x = 0 when forward and from x = pi otherwise.  A block of L
    intervals splits into chunks of k = isqrt(L) consecutive rows, the last
    one possibly shorter.  Stepping all chunks at once forms the propagator
    of every chunk but the last in k vectorised steps; chaining those gives
    each chunk's start state, and k more steps through all chunks at once
    give every node.  That is about 3 sqrt(L) numpy steps per block instead
    of L, on arrays of L/k rows, and the transients stay within a block.
    Rows come back in increasing node order either way.  Without
    with_yprime, only the last y' in propagation order comes back, as one
    array of shape (mus,).

    scaled, when given, replaces _transfer: it maps (h, w, C, S, sign) to
    the entries of each step's propagator times a nonzero factor.  The
    sweep then takes one step per run instead of per interval, and divides
    every chunk propagator and block start state by its largest magnitude,
    so each row is the run-end state of the scaled steps up to a positive
    factor: only signs and directions mean anything, and nothing overflows.
    """
    h, q = (mesh.h, mesh.qmid) if scaled is None else (mesh.run_h, mesh.run_q)
    Y = np.empty((len(h) + 1, mus.size))
    YP = np.empty_like(Y) if with_yprime else None
    y, yp = np.full(mus.size, float(y0)), np.full(mus.size, float(yp0))
    Y[0] = y
    if with_yprime:
        YP[0] = yp
    lo = 1
    for block in _blocks(h, q, mus, forward):
        a, b, c, _ = (scaled or _transfer)(*block, 1.0 if forward else -1.0)
        L = len(a)
        k = math.isqrt(L)
        if scaled is not None:
            y, yp = _normalised(y, yp)
        ys, yps = _chunk_starts(a, b, c, y, yp, k, scaled is not None)
        last = L - 1 - (len(ys) - 1) * k
        for j in range(k):
            rows = slice(j, L, k)
            ra = a[rows]
            m = len(ra)
            ys, yps = ra * ys[:m] + b[rows] * yps[:m], c[rows] * ys[:m] + ra * yps[:m]
            Y[lo + j:lo + L:k] = ys
            if with_yprime:
                YP[lo + j:lo + L:k] = yps
            if j == last:
                y, yp = ys[-1], yps[-1]
        lo += L
    flip = slice(None, None, 1 if forward else -1)
    return Y[flip], (YP[flip] if with_yprime else yp)


def _normalised(*entries):
    """The entries divided by their largest magnitude, elementwise over arrays."""
    scale = np.maximum.reduce([np.abs(e) for e in entries])
    return tuple(e / scale for e in entries)


def _chunk_starts(a, b, c, y, yp, k, normalise=False):
    """States at the start of each k-row chunk of one block's propagator rows.

    a, b, c are the rows' entries m00 = m11, m01 and m10, and (y, yp) the
    block's start state.  The propagators of the full chunks, all but the
    last, are formed together, row j of every chunk in one step, and then
    chained in order; with normalise, each is first divided by its largest
    entry.  Returns two arrays of shape (chunks, mus).
    """
    full = (len(a) - 1) // k
    ys, yps = np.empty((full + 1, y.size)), np.empty((full + 1, y.size))
    ys[0], yps[0] = y, yp
    if full:
        p00, p01, p10 = a[0:full * k:k], b[0:full * k:k], c[0:full * k:k]
        p11 = p00
        for j in range(1, k):
            rows = slice(j, full * k, k)
            ra, rb, rc = a[rows], b[rows], c[rows]
            p00, p01, p10, p11 = (ra * p00 + rb * p10, ra * p01 + rb * p11,
                                  rc * p00 + ra * p10, rc * p01 + ra * p11)
        if normalise:
            p00, p01, p10, p11 = _normalised(p00, p01, p10, p11)
        for i in range(full):
            ys[i + 1] = p00[i] * ys[i] + p01[i] * yps[i]
            yps[i + 1] = p10[i] * ys[i] + p11[i] * yps[i]
    return ys, yps


def _trace(mesh: Mesh, mu: float, y0: float, yp0: float, forward: bool) -> SolutionTrace:
    Y, YP = _nodes(mesh, np.array([float(mu)]), y0, yp0, forward)
    y, yp = Y[:, 0], YP[:, 0]
    bad = ~((np.abs(y) <= BLOWUP_BOUND) & (np.abs(yp) <= BLOWUP_BOUND))
    if bad.any():
        # report the first node past the bound in propagation order
        i = np.flatnonzero(bad)[0 if forward else -1]
        raise BlowUpError(f"solution blew up at x = {mesh.nodes[i]:.6f} for mu = {mu}")
    return SolutionTrace(grid=mesh.nodes.copy(), y=y, yprime=yp, mu=float(mu))


def y_values_batch(mesh: Mesh, mus, y0: float, yp0: float) -> np.ndarray:
    """Forward solution values at every node for a batch of mu, shape (nodes, mus).

    Used for oscillation counting across a whole spectrum in one sweep.
    """
    mus = np.atleast_1d(np.asarray(mus, dtype=float))
    out, _ = _nodes(mesh, mus, y0, yp0, True, with_yprime=False)
    # reductions only, no full-size temporary; a NaN fails the comparison too
    if not max(out.max(), -out.min()) <= BLOWUP_BOUND:
        raise BlowUpError("solution exceeded the overflow guard in batched trace")
    return out


def solve_ivp(q: Potential, mu: float, at_left: bool, y0: float, yp0: float,
              grid_size: int = DEFAULT_GRID_SIZE) -> SolutionTrace:
    """Solve -y'' + q y = mu y with data (y0, yp0) at x = 0 or x = pi.

    Integration runs left to right when at_left, right to left otherwise;
    the returned trace always lists the grid in increasing order.  mu may be
    negative (hyperbolic regime); no square root of mu is ever taken.
    """
    mesh = build_mesh(q, grid_size)
    return _trace(mesh, float(mu), float(y0), float(yp0), forward=at_left)


def phi(q: Potential, mu: float, alpha: float, grid_size: int = DEFAULT_GRID_SIZE) -> SolutionTrace:
    """Left-normalized solution: phi(0) = sin(alpha), phi'(0) = -cos(alpha)."""
    if not (0.0 < alpha <= PI):
        raise ValueError(f"alpha must lie in (0, pi], got {alpha}")
    s, c = _snapped_sincos(alpha)
    return solve_ivp(q, mu, True, s, -c, grid_size)


def psi(q: Potential, mu: float, beta: float, grid_size: int = DEFAULT_GRID_SIZE) -> SolutionTrace:
    """Right-normalized solution: psi(pi) = sin(beta), psi'(pi) = -cos(beta)."""
    if not (0.0 <= beta < PI):
        raise ValueError(f"beta must lie in [0, pi), got {beta}")
    s, c = _snapped_sincos(beta)
    return solve_ivp(q, mu, False, s, -c, grid_size)


def fundamental_system(q: Potential, mu: float,
                       grid_size: int = DEFAULT_GRID_SIZE) -> FundamentalSystem:
    """The four endpoint-normalized solutions at a common spectral parameter."""
    return FundamentalSystem(
        y1=solve_ivp(q, mu, True, 1.0, 0.0, grid_size),
        y2=solve_ivp(q, mu, True, 0.0, 1.0, grid_size),
        y3=solve_ivp(q, mu, False, 1.0, 0.0, grid_size),
        y4=solve_ivp(q, mu, False, 0.0, 1.0, grid_size),
    )


# ---------------------------------------------------------------------------
# series oracle
# ---------------------------------------------------------------------------


def _cumulative_simpson(vals: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative integral of uniformly sampled values, fourth order.

    Even nodes follow the composite Simpson chain; odd nodes add the exact
    integral of the local cubic interpolant, so their O(h^5) corrections do
    not accumulate.
    """
    n = vals.size
    out = np.zeros(n)
    if n < 2:
        return out
    if n == 2:
        out[1] = dx * 0.5 * (vals[0] + vals[1])
        return out
    if n == 3:
        out[2] = dx / 3.0 * (vals[0] + 4.0 * vals[1] + vals[2])
        out[1] = dx / 12.0 * (5.0 * vals[0] + 8.0 * vals[1] - vals[2])
        return out

    # composite Simpson over node pairs
    n_pair = (n - 1) // 2
    pair = dx / 3.0 * (vals[0 : 2 * n_pair - 1 : 2] + 4.0 * vals[1 : 2 * n_pair : 2]
                       + vals[2 : 2 * n_pair + 1 : 2])
    out[2 : 2 * n_pair + 1 : 2] = np.cumsum(pair)

    # odd nodes: cubic through the four nearest samples
    odd = np.arange(1, n, 2)
    fwd = odd[odd + 2 < n]
    out[fwd] = out[fwd - 1] + dx / 24.0 * (
        9.0 * vals[fwd - 1] + 19.0 * vals[fwd] - 5.0 * vals[fwd + 1] + vals[fwd + 2]
    )
    bwd = odd[odd + 2 >= n]
    out[bwd] = out[bwd - 1] + dx / 24.0 * (
        vals[bwd - 3] - 5.0 * vals[bwd - 2] + 19.0 * vals[bwd - 1] + 9.0 * vals[bwd]
    )
    return out


def _picard_grid(q: Potential, grid_size: int):
    """Per-segment uniform grids split at genuine jumps of q.

    Returns (nodes, segments) where each segment is (start index, q values
    covering that segment's nodes).  q is evaluated one ulp inside the
    segment at shared edges so both sides of a jump see their own limit.
    """
    jumps = sorted(j for j in q.jump_points if 0.0 < j < PI)
    cuts = [0.0] + jumps + [PI]
    parts = []
    segments = []
    start = 0
    for i, (a, b) in enumerate(zip(cuts[:-1], cuts[1:])):
        m = max(8, int(round(grid_size * (b - a) / PI)))
        seg = np.linspace(a, b, m + 1)
        pts = seg.copy()
        if a > 0.0:
            pts[0] = np.nextafter(a, PI)
        if b < PI:
            pts[-1] = np.nextafter(b, 0.0)
        qseg = np.asarray(q(pts), dtype=float)
        segments.append((start, qseg))
        parts.append(seg if i == 0 else seg[1:])
        start += m
    nodes = np.concatenate(parts)
    return nodes, segments


def _cumint_segmented(nodes: np.ndarray, segments, factor: np.ndarray) -> np.ndarray:
    """Cumulative integral over the whole grid of q(t) * factor(t).

    segments carries (start index, side-correct q values) per smooth piece;
    each piece integrates with the uniform fourth-order rule and chains its
    offset across shared nodes.
    """
    out = np.empty(nodes.size)
    offset = 0.0
    for start, qseg in segments:
        stop = start + qseg.size
        dx = nodes[start + 1] - nodes[start]
        vals = qseg * factor[start:stop]
        cum = _cumulative_simpson(vals, dx)
        out[start:stop] = offset + cum
        offset = out[stop - 1]
    return out


def picard_y2(q: Potential, lam: float, K: int,
              grid_size: int = 2 * DEFAULT_GRID_SIZE) -> PicardResult:
    """Partial sum of the series for the solution with y(0) = 0, y'(0) = 1.

    The zeroth term is sin(lam x) / lam; each further term is the Volterra
    integral of the previous one against sin(lam (x - t)) q(t) / lam,
    evaluated through its sin/cos split so only cumulative integrals are
    needed.  Requires lam >= 1.  The certificate bounds the omitted tail by
    sum over k > K of sigma0(pi)^k / (lam^(k+1) k!).
    """
    if lam < 1.0:
        raise ValueError(f"series construction requires lam >= 1, got {lam}")
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")

    nodes, segments = _picard_grid(q, grid_size)
    sin_l = np.sin(lam * nodes)
    cos_l = np.cos(lam * nodes)

    s_prev = sin_l / lam
    total = s_prev.copy()
    total_prime = cos_l.copy()
    for _ in range(K):
        ck = _cumint_segmented(nodes, segments, cos_l * s_prev)
        dk = _cumint_segmented(nodes, segments, sin_l * s_prev)
        s_k = (sin_l * ck - cos_l * dk) / lam
        total += s_k
        total_prime += cos_l * ck + sin_l * dk
        s_prev = s_k

    trace = SolutionTrace(grid=nodes, y=total, yprime=total_prime, mu=lam * lam)
    return PicardResult(trace=trace, tail_bound=_picard_tail(q.norm1(), lam, K), terms=K)


def _picard_tail(sigma0: float, lam: float, K: int) -> float:
    """Bound on the series terms past K at x = pi.

    Sums sigma0^k / (lam^(k+1) k!) over k > K until the terms fall below
    1e-18 of the sum, with sigma0 the L1 norm of q.
    """
    tail = 0.0
    term = sigma0 ** (K + 1) / (lam ** (K + 2) * math.factorial(K + 1))
    k = K + 1
    while term > 0.0 and k < K + 200:
        tail += term
        term *= sigma0 / (lam * (k + 1))
        if term < tail * 1e-18:
            tail += term
            break
        k += 1
    return float(tail)


# ---------------------------------------------------------------------------
# leading asymptotic kernels
# ---------------------------------------------------------------------------


def kernel_A(q: Potential, lam: float, x: float, tol: float = 1e-10) -> float:
    """Leading oscillatory kernel of the cosine-normalized solution.

    A(x, lam) = sin(lam x) * int_0^x q + int_0^x q(t) sin(lam (x - 2t)) dt.
    2 lam (y1 - cos(lam x)) - A is O(1/lam) uniformly on [0, pi].
    """
    if lam < 1.0:
        raise ValueError(f"kernel is defined for lam >= 1, got {lam}")
    bps = q.breakpoints
    i1 = integrate(q, 0.0, x, tol, breakpoints=bps)
    i2 = integrate(lambda t: q(t) * np.sin(lam * (x - 2.0 * t)), 0.0, x, tol,
                   freq=2.0 * lam, breakpoints=bps)
    return math.sin(lam * x) * i1 + i2


def kernel_B(q: Potential, lam: float, x: float, tol: float = 1e-10) -> float:
    """Leading oscillatory kernel of the sine-normalized solution.

    B(x, lam) = cos(lam x) * int_0^x q - int_0^x q(t) cos(lam (x - 2t)) dt.
    """
    if lam < 1.0:
        raise ValueError(f"kernel is defined for lam >= 1, got {lam}")
    bps = q.breakpoints
    i1 = integrate(q, 0.0, x, tol, breakpoints=bps)
    i2 = integrate(lambda t: q(t) * np.cos(lam * (x - 2.0 * t)), 0.0, x, tol,
                   freq=2.0 * lam, breakpoints=bps)
    return math.cos(lam * x) * i1 - i2
