"""Initial-value solver for -y'' + q y = mu y and the series oracle.

The stepping scheme is the sixth-order Magnus step with three Gauss points
(Blanes, Casas & Ros, BIT 40, 2000).  On an interval [x, x + h] with
midpoint x_m it samples q1, q2 and q3 at x_m - r h, x_m and x_m + r h,
r = sqrt(15)/10, and steps the state (y, y2) by exp(h K), with the
generator

    K = [[d, b], [c, -d]],   w = mu - q2,
    s2 = (sqrt(15)/3) h (q3 - q1),   s3 = (10/3) h (q3 - 2 q2 + q1),
    d = -s2/12 + h s2 s3/7200 - e w,   e = h^2 s2/180,
    b = 1 - h s3/180 + h^2 s2^2/3600,
    c = c0 - gamma w,   gamma = 1 + h s3/180 + h^2 s2^2/3600,
    c0 = s3/(12 h) - s2^2/120 + s3^2/3600,

the closed form of the three-point Magnus expansion for A = [[0, 1],
[q - mu, 0]].  K^2 = -w_eff I with w_eff = -(d^2 + b c), so the step is
C I + S K = (C + d S, b S, c S, C - d S), with C and S the exact
constant-coefficient entries at w_eff (trigonometric for w_eff > 0,
hyperbolic below, linear drift at 0).  Inside a step y solves
y'' = -w_eff y exactly, with y' = d y + b y2.  The step is exact in mu, so
phase accuracy does not degrade for highly oscillatory solutions; its
local error falls 128x per halving of h, and it vanishes where q is
constant on the mesh intervals (zero, constant, and step potentials with
the jump on a mesh node): there s2 = s3 = 0, so d = 0, b = gamma = 1,
c = -w, and the step is the exact propagator at w = mu - q.

The step solves the Hamiltonian system v' = K v, whose mu-derivative is
[[-e, 0], [-gamma, e]].  So for the discrete solution
(y y2_mu - y2 y_mu)' = -(gamma y^2 - 2 e y y2) holds exactly, and the
integral of that weight over [0, pi], the discrete norm, comes from
endpoint values of (y, y2) and their mu-derivatives alone.  gamma - 1 and
e are O(h^4) and vanish where q is constant.  The step matrix and its
mu-derivative are closed forms.

A run is a maximal stretch of consecutive mesh intervals with equal
generator coefficients (q2, d0, e, b, gamma, c0), d0 = d + e w.  The step
is exact across a whole run, so the characteristic-function and norm
sweeps and the eigenvalue count take one step per run: two steps on a
step potential, one on a constant, and one per interval on a smooth
potential, where runs and intervals coincide.  Node values need every node
and step the full mesh.

Batches of spectral parameters propagate together.  Every sweep reads the
per-step coefficients from one block generator, which evaluates them a
block of consecutive steps at a time, in propagation order, each entry in
its own branch only.  The block length follows from the batch size and
one fixed budget of (step, mu) entries: 256 steps at 64 mu, the whole
default mesh for up to 32 mu.  A block's step matrices are one stacked
array, rows and columns on the two leading axes and (steps, mus) on the
last two, and every product of two stacks is _mul's three numpy calls,
B[:, 0:1] A[0:1] + B[:, 1:2] A[1:2], elementwise in the order
m_ij = b_i0 a_0j + b_i1 a_1j.  Three sweeps contract each block's run
propagators by one pairwise tree, _product, and compose the block
products in order: the characteristic-function sweep (endpoint_values),
the norm sweep (norm_product), which stacks (T, dT/dmu) on one more
leading axis, and the count sweep (count_product), which carries each
propagator, rescaled, with its whole half-turns; spectrum._counts reads
the eigenvalue count K and the angle gap from it.  The node sweep
(_nodes), for solution traces and the oscillation certificate only,
turns each block of L interval propagators into their prefix products by
a doubling scan, log2 L vectorised passes instead of L steps at the price
of L log2 L products, and applies them to the block's start state.  The
transient arrays of a block stay near 2 MB whatever the batch or mesh
size, and short batches still run few, long vectorised passes.

Every sweep keeps two rules.  The input rule (_batch): a non-finite mu,
y0 or yp0 raises ValueError, naming the offending values, before any
block is formed.  The overflow rule: BlowUpError where a computed value
is non-finite, and only there; a finite value comes back however large.
The end-value sweeps check their results at once (_finite_end); the node
sweep checks each block as it writes it and stops at the first
non-finite node, which it names.

The norm sweep runs forward only.  Every run propagator has determinant
1, so the backward propagator is the adjugate of the forward one, and one
sweep gives the norm at both ends (see propagate_with_norm).  The backward
characteristic-function sweep still runs from x = pi, so the psi side has
a sweep of its own to be checked against.

The independent oracle is the successive-approximation series for the
solution vanishing at the origin, built from iterated Volterra integrals
with an explicit tail bound, so solver and series can certify each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError
from .potential import PI, BoundaryParams, Potential, _unique, _whole, integrate

DEFAULT_GRID_SIZE = 512

# the outer Gauss points of an interval sit at x_m -+ _GAUSS3 h
_GAUSS3 = math.sqrt(15.0) / 10.0
# generator rows d0, e, b, gamma, c0 of an interval where q is constant
_EXACT_GEN = np.array([[0.0], [0.0], [1.0], [1.0], [0.0]])
_SERIES_Z = 1e-4
_DS_SERIES_Z = 0.1
# One coefficient block holds _BLOCK_ELEMS (interval, mu) entries: 256
# intervals at a batch of _BLOCK_MUS spectral parameters, longer blocks for
# smaller batches and shorter ones, down to a single interval, for larger.
_BLOCK_MUS = 64
_BLOCK_ELEMS = 256 * _BLOCK_MUS

# Deep hyperbolic sweeps overflow to inf and nan; every sweep turns that
# into BlowUpError, so numpy's floating-point warnings stay silent.
_quiet = np.errstate(over="ignore", invalid="ignore")


@dataclass
class SolutionTrace:
    """Solution values and derivatives on an increasing grid in [0, pi]."""

    grid: np.ndarray
    y: np.ndarray
    yprime: np.ndarray
    mu: float


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
    """Propagation mesh: nodes, interval widths, Magnus step coefficients.

    q holds each interval's midpoint sample q2 and gen its generator
    coefficients, rows d0, e, b, gamma and c0, so that d = d0 - e w and
    c = c0 - gamma w at w = mu - q2 (see the module docstring).  run_h,
    run_q and run_gen describe the runs, the maximal stretches of
    consecutive intervals with equal q and gen: each run's length, the
    difference of its end nodes, and its coefficients.  A mesh whose
    coefficients never repeat has one run per interval, and then run_h
    equals h bit for bit.  exact says that q is constant on every interval,
    so every run takes the exact propagator (d0 = e = c0 = 0,
    b = gamma = 1) and the sweeps skip the generator terms.  mean is [q],
    the mean of q over [0, pi], by the three-point Gauss rule of every
    interval: exact up to rounding for piecewise-linear q, whose
    breakpoints are nodes, and sixth order for smooth q.
    """

    nodes: np.ndarray
    h: np.ndarray
    q: np.ndarray
    gen: np.ndarray
    run_h: np.ndarray
    run_q: np.ndarray
    run_gen: np.ndarray
    exact: bool
    mean: float


def build_mesh(q: Potential, grid_size: int = DEFAULT_GRID_SIZE) -> Mesh:
    """Uniform mesh on [0, pi] with the potential's breakpoints inserted.

    grid_size is an integer >= 64 (ValueError otherwise).  q is evaluated
    once, at the three Gauss points of every interval, and the generator
    coefficients of each step are folded here, so the sweeps take no
    division per (step, mu) entry.  Where the three samples agree,
    s2 = s3 = 0 and the step is the exact propagator at w = mu - q.
    """
    nodes = np.linspace(0.0, PI, _whole(grid_size, "grid_size", 64) + 1)
    extra = [b for b in q.breakpoints if np.min(np.abs(nodes - b)) > 1e-12]
    if extra:
        nodes = _unique(np.concatenate([nodes, np.asarray(extra)]))
    h = np.diff(nodes)
    mid, off = (nodes[:-1] + nodes[1:]) / 2.0, h * _GAUSS3
    q1, q2, q3 = np.asarray(q(np.concatenate((mid - off, mid, mid + off))),
                            dtype=float).reshape(3, -1)
    new = q2[1:] != q2[:-1]
    # s2 = s3 = 0 exactly where the three samples agree
    exact = bool(np.all(q1 == q2) and np.all(q3 == q2))
    if exact:
        gen = np.broadcast_to(_EXACT_GEN, (5, h.size))
    else:
        s2 = (math.sqrt(15.0) / 3.0) * h * (q3 - q1)
        s3 = (10.0 / 3.0) * h * (q3 - 2.0 * q2 + q1)
        hs3, hs2sq = h * s3 / 180.0, (h * s2) ** 2 / 3600.0
        gen = np.stack((-s2 / 12.0 + h * s2 * s3 / 7200.0, h * h * s2 / 180.0,
                        1.0 - hs3 + hs2sq, 1.0 + hs3 + hs2sq,
                        s3 / (12.0 * h) - s2 * s2 / 120.0 + s3 * s3 / 3600.0))
        new |= np.any(gen[:, 1:] != gen[:, :-1], axis=0)
    starts = np.flatnonzero(np.concatenate(([True], new)))
    run_h = np.diff(nodes[np.append(starts, h.size)])
    return Mesh(nodes=nodes, h=h, q=q2, gen=gen, run_h=run_h, run_q=q2[starts],
                run_gen=gen[:, starts], exact=exact,
                mean=float(h @ (5.0 * q1 + 8.0 * q2 + 5.0 * q3)) / (18.0 * PI))


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


def _blocks(mesh: Mesh, runs: bool, mus: np.ndarray, forward: bool, entries):
    """Step matrix entries of a mesh's runs or intervals, block by block.

    The steps come in propagation order, and backward propagation starts at
    the last step.  entries maps one block's (h, gen, w_eff, C, S, sign) to
    its matrix entries (see _coeffs), with C and S the _step_coeffs at
    w_eff, h of shape (steps, 1), w_eff, C and S of shape (steps, mus), and
    sign -1 backward.  An exact mesh gives gen = None and w_eff = w =
    mu - q, so piecewise constant q takes no generator terms at all, and
    no block is checked for them.  A block holds about _BLOCK_ELEMS
    entries, so its length follows from the batch size, and its
    coefficients are dropped once entries returns.
    """
    h, q, gen = (mesh.run_h, mesh.run_q, mesh.run_gen) if runs else (mesh.h, mesh.q, mesh.gen)
    sign = 1.0 if forward else -1.0
    if not forward:
        h, q, gen = h[::-1], q[::-1], gen[:, ::-1]
    size = max(1, _BLOCK_ELEMS // max(1, mus.size))
    for lo in range(0, h.size, size):
        part = slice(lo, lo + size)
        k = None if mesh.exact else gen[:, part, None]
        yield entries(*_coeffs(h[part, None], mus - q[part, None], k), sign)


def _coeffs(h, w, gen):
    """(h, gen, w_eff, C, S) of one block at w = mu - q2, which it overwrites.

    With gen None (an exact mesh) w_eff = w.  Otherwise gen holds the rows
    d0, e, b, gamma, c0, each of shape (steps, 1), and comes back as
    (d, b, c, e, gamma) with d = d0 - e w and c = c0 - gamma w of shape
    (steps, mus), and w_eff = -(d^2 + b c).
    """
    if gen is None:
        return (h, None, w, *_step_coeffs(w, h))
    d0, e, b, gamma, c0 = gen
    c = np.multiply(gamma, w)
    np.subtract(c0, c, out=c)
    d = np.multiply(e, w, out=w)
    np.subtract(d0, d, out=d)
    weff = np.multiply(b, c)
    weff += d * d
    np.negative(weff, out=weff)
    return (h, (d, b, c, e, gamma), weff, *_step_coeffs(weff, h))


def _transfer(h, gen, weff, C, S, sign, out=None):
    """Step matrices, stacked (2, 2, steps, mus); sign = -1 gives the inverses.

    The step is (C + d S, b S, c S, C - d S) and its inverse
    (C - d S, -b S, -c S, C + d S); with gen None it is (C, S, -w S, C),
    w = w_eff, and its inverse (C, -S, w S, C).  The entries are written
    into out, a new array unless given.
    """
    T = np.empty((2, 2) + weff.shape) if out is None else out
    if gen is None:
        T[0, 0] = T[1, 1] = C
        np.multiply(sign, S, out=T[0, 1])
        np.multiply(-sign * weff, S, out=T[1, 0])
        return T
    d, b, c = gen[:3]
    if sign < 0.0:
        S = -S
    dS = d * S
    np.add(C, dS, out=T[0, 0])
    np.multiply(b, S, out=T[0, 1])
    np.multiply(c, S, out=T[1, 0])
    np.subtract(C, dS, out=T[1, 1])
    return T


def _transfer_dmu(h, gen, weff, C, S, sign):
    """Forward step matrices and their mu-derivatives, stacked (2, 2, 2, steps, mus).

    The leading axis holds (T, dT/dmu).  sign is ignored: the backward norm
    is adj(dM) (see norm_product), so no sweep steps backward with
    derivatives.  With gen None the step is (C, S, -w S, C) and
    dT/dmu = (dC, dS, -(S + h C)/2, dC), with dC = -h S / 2, dS = dS/dw and
    S + w dS = (S + h C) / 2.  Otherwise the step is C I + S K with
    dK/dmu = [[-e, 0], [-gamma, e]] and dw_eff/dmu = r = 2 d e + b gamma, so
    dT/dmu = r (dC I + dS K) + S dK/dmu, at w_eff:
    (r (dC + d dS) - e S, r b dS, r c dS - gamma S, r (dC - d dS) + e S).
    """
    out = np.empty((2, 2, 2) + weff.shape)
    _transfer(h, gen, weff, C, S, 1.0, out[0])
    D = out[1]
    dS = _dS_dw(weff, h, C, S)
    if gen is None:
        np.multiply(-0.5 * h, S, out=D[0, 0])
        D[1, 1] = D[0, 0]
        D[0, 1] = dS
        np.multiply(-0.5, S + h * C, out=D[1, 0])
        return out
    d, b, c, e, gamma = gen
    rate = d * (2.0 * e)
    rate += b * gamma
    dS *= rate
    dC = np.multiply(-0.5 * h, S)
    dC *= rate
    ddS, eS = np.multiply(d, dS, out=rate), e * S
    np.add(dC, ddS, out=D[0, 0])
    D[0, 0] -= eS
    np.multiply(b, dS, out=D[0, 1])
    np.multiply(c, dS, out=D[1, 0])
    D[1, 0] -= gamma * S
    np.subtract(dC, ddS, out=D[1, 1])
    D[1, 1] += eS
    return out


def _mul(B, A, out):
    """Stacked 2x2 products B A into out: rows and columns on the two leading axes.

    out[i, j] = B[i, 0] A[0, j] + B[i, 1] A[1, j], elementwise over the
    trailing axes, in three numpy calls; out must not share memory with
    B or A.
    """
    np.multiply(B[:, 0:1], A[0:1], out=out)
    out += B[:, 1:2] * A[1:2]
    return out


def _compose(B, A, out):
    """(B, dB)(A, dA) = (BA, dB A + B dA) into out, each pair stacked on the leading axis.

    The stack (B, dB) times A gives BA and dB A in _mul's two products
    and one sum; B dA is added to the second.
    """
    np.multiply(B[:, :, 0:1], A[0, 0:1], out=out)
    out += B[:, :, 1:2] * A[0, 1:2]
    out[1] += _mul(B[0], A[1], np.empty_like(out[1]))
    return out


def _product(mesh: Mesh, mus: np.ndarray, forward: bool, entries, mul):
    """Whole-mesh product of the run matrices, the run axis contracted.

    mus is a batch from _batch.  One step per run: entries builds one
    block's tree elements (see _blocks) as one array whose second-to-last
    axis runs over the steps and whose last over mus, and mul(B, A, out)
    multiplies two such stacks into out.  Each block is contracted by a pairwise tree, an odd level
    carrying its last element up unpaired, into one preallocated array
    per level, and the block products compose in propagation order.
    Returns one element, the step axis dropped: (2, 2, mus) for _transfer,
    (2, 2, 2, mus) for _transfer_dmu (the product, then its
    mu-derivative), and (5, mus) for the count's lifted pairs (m00, m01,
    m10, m11, n), see count_product.
    """
    M = None
    for E in _blocks(mesh, True, mus, forward, entries):
        while (n := E.shape[-2]) > 1:
            P = np.empty(E.shape[:-2] + ((n + 1) // 2, E.shape[-1]))
            mul(E[..., 1:n:2, :], E[..., 0:n - 1:2, :], P[..., :n // 2, :])
            if n % 2:
                P[..., -1, :] = E[..., -1, :]
            E = P
        M = E if M is None else mul(E, M, np.empty_like(M))
    return M[..., 0, :]


def _batch(mus, y0: float = 0.0, yp0: float = 0.0) -> np.ndarray:
    """mus as a sweep's float batch, after the input rule (see the module docstring).

    Raises ValueError where a mu, y0 or yp0 is not finite, naming the
    first non-finite mu and each non-finite start value.
    """
    mus = np.atleast_1d(np.asarray(mus, dtype=float))
    if not (np.isfinite(mus).all() and math.isfinite(y0) and math.isfinite(yp0)):
        bad = [f"mu = {mu}" for mu in mus[~np.isfinite(mus)][:1]]
        bad += [f"{name} = {v}" for name, v in (("y0", y0), ("yp0", yp0)) if not math.isfinite(v)]
        raise ValueError(f"mu, y0 and yp0 must be finite, got {', '.join(bad)}")
    return mus


def _finite_end(*values):
    """The end values of a sweep, or BlowUpError where one left the float range."""
    if not all(np.isfinite(v).all() for v in values):
        raise BlowUpError("solution overflowed the float range")
    return values


def _apply(M, y0: float, yp0: float):
    """Rows of the 2x2 matrices M applied to (y0, yp0): (y, y'), then (y_mu, y_mu')."""
    return [M[i] * y0 + M[i + 1] * yp0 for i in range(0, len(M), 2)]


@_quiet
def endpoint_values(mesh: Mesh, mus, y0: float, yp0: float, *, forward: bool = True):
    """Propagate (y0, yp0) across the whole mesh for a batch of mu values.

    Returns (y, y') at x = pi when forward, at x = 0 otherwise; the backward
    values come from a sweep of the inverse run propagators from x = pi.
    Input and overflow follow the module's two rules.  Counting, which
    needs no magnitudes, takes the same run product rescaled at every step
    (see count_product).

    Memory: the runs go in blocks of about _BLOCK_ELEMS (run, mu) entries,
    so the transient arrays of one block stay near 2 MB whatever the batch
    or mesh size.
    """
    M = _product(mesh, _batch(mus, y0, yp0), forward, _transfer, _mul)
    return _finite_end(*_apply(M.reshape(4, -1), y0, yp0))


def propagate_with_norm(mesh: Mesh, mus, y0: float, yp0: float, *, forward: bool = True):
    """Endpoint values plus the discrete norm over [0, pi] for a batch of mu.

    The propagated (y, y') is the state (y, y2) of the Magnus steps, which
    solve a Hamiltonian system with (y y2_mu - y2 y_mu)' =
    -(gamma y^2 - 2 e y y2) (see the module docstring), the weight that
    approximates y^2 to sixth order.  Starting data do not depend on mu, so
    the forward sweep gives
        int_0^pi (gamma y^2 - 2 e y y2) = y'(pi) y_mu(pi) - y(pi) y_mu'(pi),
    and the backward sweep y(0) y_mu'(0) - y'(0) y_mu(0).  This is the exact
    integral of the discrete solution's weight, not a further approximation,
    and it is int y^2 where q is constant on every interval.

    Both directions read the forward product M and dM/dmu of norm_product.
    Every run propagator has determinant 1, so its inverse, the backward
    step, is its adjugate.  For 2x2 matrices adj(BA) = adj(A) adj(B) and
    adj is linear, so the backward product is adj(M) and its mu-derivative
    adj(dM), exactly: no reversed sweep is needed.

    Returns (y, y', acc) at x = pi when forward, at x = 0 otherwise.  Input
    and overflow follow the module's two rules: the start data are checked
    with mus, before the product is formed.
    """
    return norm_end(norm_product(mesh, _batch(mus, y0, yp0)), y0, yp0, forward=forward)


@_quiet
def norm_product(mesh: Mesh, mus):
    """The whole-mesh propagator M from 0 to pi and dM/dmu, for a batch of mu.

    Each run contributes its step matrix T and dT/dmu in closed form; the
    pairs are contracted by a pairwise tree, (B, dB)(A, dA) =
    (BA, dB A + B dA), block by block, and the block products compose in
    order.  Returns the 8 entries of (M, dM) as the rows of one array of
    shape (8, mus).  A non-finite mu raises ValueError (see _batch).

    Memory: the runs go in blocks of about _BLOCK_ELEMS (run, mu) entries,
    so the transient arrays of one block stay near 2 MB whatever the batch
    or mesh size.
    """
    return _product(mesh, _batch(mus), True, _transfer_dmu, _compose).reshape(8, -1)


@_quiet
def norm_end(product, y0: float, yp0: float, *, forward: bool = True):
    """(y, y', discrete norm) from norm_product's (M, dM), as propagate_with_norm.

    Forward, (y0, yp0) is the data at x = 0 and the values are at pi;
    backward, the data are at pi, the values at 0, and the product is
    adj(M), adj(dM).  Input and overflow follow the module's two rules.
    """
    _batch((), y0, yp0)
    if not forward:
        a, b, c, d, da, db, dc, dd = product
        product = (d, -b, -c, a, dd, -db, -dc, da)
    y, yp, dy, dyp = _apply(product, y0, yp0)
    return _finite_end(y, yp, (yp * dy - y * dyp) if forward else (y * dyp - yp * dy))


@_quiet
def count_product(mesh: Mesh, mus):
    """The whole-mesh propagator from 0 to pi, rescaled, and its whole half-turns.

    The count's lifted pair for a batch of mu: a propagator P, scaled by
    any positive factor, and n = floor(F_P(0) / pi), the whole half-turns
    of the lifted angle F of the state (y, y2) = r (sin F, cos F) that
    starts at F = 0.  The pair fixes the lifted map F_P, since the angle
    of P (0, 1) gives F_P(0) - n pi.  These pairs multiply on the pairwise
    tree of _product (see _lifted_steps and _lifted_mul), each product
    divided by its largest entry, so no entry overflows, however deep mu
    lies, and no node array is held.  spectrum._counts reads K and the
    angle gap from them.  Returns the rows m00, m01, m10, m11 and n of one
    array of shape (5, mus).  A non-finite mu raises ValueError (see
    _batch).
    """
    return _product(mesh, _batch(mus), True, _lifted_steps, _lifted_mul)


def _lifted_steps(h, gen, weff, C, S, sign):
    """Forward run propagators, scaled, and the whole half-turns of F from 0.

    Inside a run y solves y'' = -w_eff y exactly, w_eff = -(d^2 + b c),
    which is mu - q on piecewise constant q.  A run with w_eff < 0 turns F
    by less than pi; its propagator is divided by cosh(r h),
    r = sqrt(-w_eff), with C = 1 and S = tanh(r h)/r, which never
    overflow.  Otherwise F turns from 0 to th = sqrt(w_eff) h, so
    n = floor(th / pi), and the sign of m01 = y(h) is (-1)^n.  Near an
    exact half-turn rounding may give m01 the other sign; n then moves by
    one towards the nearer integer of th / pi, so that it agrees with the
    matrix.  Returns the rows m00, m01, m10, m11 and n of one array.
    """
    hyp = weff < 0.0
    if hyp.any():
        r = np.sqrt(-weff[hyp])
        C[hyp], S[hyp] = 1.0, np.tanh(r * np.broadcast_to(h, weff.shape)[hyp]) / r
    L = np.empty((5,) + weff.shape)
    _transfer(h, gen, weff, C, S, sign, _square(L))
    # th is monotone in w_eff and h; below 3 < pi every m01 > 0 and n = 0
    if np.sqrt(weff.max(initial=0.0)) * h.max() < 3.0:
        L[4] = 0.0
        return L
    turns = np.sqrt(np.maximum(weff * h * h, 0.0)) / PI
    n = np.floor(turns)
    wrong = np.signbit(L[1]) != (n % 2.0 == 1.0)
    n[wrong] += np.where(turns[wrong] - n[wrong] > 0.5, 1.0, -1.0)
    L[4] = n
    return L


def _square(L):
    """The rows m00, m01, m10, m11 of a lifted stack as a (2, 2, ...) view."""
    return L[:4].reshape((2, 2) + L.shape[1:])


def _lifted_mul(B, A, out):
    """The lifted pair of BA from those of B and A, into out, elementwise over stacks.

    BA is divided by its largest entry.  n_BA = n_A + n_B + carry, where
    the carry says that B's preimage of y = 0, an angle in (0, pi], is at
    most the angle of A (0, 1) folded into [0, pi).  That holds when
    b01 != 0 and sign(b01) s (BA)01 <= 0, with s the sign that folds
    A (0, 1) into y >= 0: the sign of a01, or of a11 where a01 = 0.
    """
    _mul(_square(B), _square(A), _square(out))
    scale = np.abs(out[:4]).max(axis=0)
    s = np.where(A[1] != 0.0, np.signbit(A[1]), np.signbit(A[3]))
    carry = (B[1] != 0.0) & ((np.signbit(B[1]) ^ s ^ np.signbit(out[1])) | (out[1] == 0.0))
    out[:4] /= scale
    np.add(A[4], B[4], out=out[4])
    out[4] += carry
    return out


@_quiet
def _nodes(mesh: Mesh, mus, y0: float, yp0: float, forward: bool, with_yprime: bool = True):
    """y and y' at every node for a batch of mu, each of shape (nodes, mus).

    Steps from x = 0 when forward and from x = pi otherwise.  Each block of
    L interval propagators becomes its prefix products by a doubling scan
    (Hillis & Steele, CACM 29, 1986): the pass with stride k multiplies
    row i by row i - k for i >= k, so after log2 L passes row i is the
    product of rows 0..i.  Applied to the block's start state, these give
    the block's node values, and the last one carries into the next block.
    Rows come back in increasing node order either way.  Without
    with_yprime, no y' rows are formed: only the last y' in propagation
    order comes back, as one array of shape (mus,).  Solution traces and
    the oscillation certificate read it; eigenvalue counts take the run
    product instead.

    Input follows the module's rule (_batch).  Each block's values are
    checked as they are written.  At the first non-finite one in
    propagation order (the y and y' rows, and without with_yprime the
    carried y'), over all columns, the sweep raises BlowUpError naming
    that node's x and its column's mu, and forms no later block.  Every
    finite value comes back, however large.
    """
    mus = _batch(mus, y0, yp0)
    Y = np.empty((len(mesh.h) + 1, mus.size))
    YP = np.empty_like(Y) if with_yprime else None
    y, yp = np.full(mus.size, float(y0)), np.full(mus.size, float(yp0))
    Y[0] = y
    if with_yprime:
        YP[0] = yp
    lo = 1
    for P in _blocks(mesh, False, mus, forward, _transfer):
        Q, k, hi = np.empty_like(P), 1, lo + P.shape[2]
        while k < P.shape[2]:  # the passes alternate between P and Q
            Q[:, :, :k] = P[:, :, :k]
            _mul(P[:, :, k:], P[:, :, :-k], Q[:, :, k:])
            P, Q, k = Q, P, 2 * k
        Y[lo:hi] = P[0, 0] * y + P[0, 1] * yp
        ok = np.isfinite(Y[lo:hi])
        if with_yprime:
            YP[lo:hi] = P[1, 0] * y + P[1, 1] * yp
            ok &= np.isfinite(YP[lo:hi])
        y, yp = Y[hi - 1], P[1, 0, -1] * y + P[1, 1, -1] * yp
        ok[-1] &= np.isfinite(yp)
        if not ok.all():
            i, j = np.argwhere(~ok)[0]
            x = mesh.nodes[lo + i if forward else len(mesh.h) - lo - i]
            raise BlowUpError(f"solution blew up at x = {x:.6f} for mu = {mus[j]}")
        lo = hi
    flip = slice(None, None, 1 if forward else -1)
    return Y[flip], (YP[flip] if with_yprime else yp)


def y_values_batch(mesh: Mesh, mus, y0: float, yp0: float) -> np.ndarray:
    """Forward solution values at every node for a batch of mu, shape (nodes, mus).

    Used for oscillation counting across a whole spectrum in one sweep; no
    y' rows are formed.  Input and overflow follow _nodes.
    """
    return _nodes(mesh, mus, y0, yp0, True, with_yprime=False)[0]


def solve_ivp(q: Potential, mu: float, at_left: bool, y0: float, yp0: float,
              grid_size: int = DEFAULT_GRID_SIZE) -> SolutionTrace:
    """Solve -y'' + q y = mu y with data (y0, yp0) at x = 0 or x = pi.

    Integration runs left to right when at_left, right to left otherwise;
    the returned trace always lists the grid in increasing order.  mu may be
    negative (hyperbolic regime); no square root of mu is ever taken.
    Input and overflow follow _nodes.
    """
    mesh = build_mesh(q, grid_size)
    Y, YP = _nodes(mesh, [mu], y0, yp0, at_left)
    return SolutionTrace(grid=mesh.nodes.copy(), y=Y[:, 0], yprime=YP[:, 0], mu=float(mu))


def phi(q: Potential, mu: float, alpha: float, grid_size: int = DEFAULT_GRID_SIZE) -> SolutionTrace:
    """Left-normalized solution: phi(0) = sin(alpha), phi'(0) = -cos(alpha).

    alpha and its snapped sine and cosine follow BoundaryParams.
    """
    bc = BoundaryParams(alpha, 0.0)
    return solve_ivp(q, mu, True, bc.sin_alpha, -bc.cos_alpha, grid_size)


def psi(q: Potential, mu: float, beta: float, grid_size: int = DEFAULT_GRID_SIZE) -> SolutionTrace:
    """Right-normalized solution: psi(pi) = sin(beta), psi'(pi) = -cos(beta).

    beta and its snapped sine and cosine follow BoundaryParams.
    """
    bc = BoundaryParams(PI, beta)
    return solve_ivp(q, mu, False, bc.sin_beta, -bc.cos_beta, grid_size)


# ---------------------------------------------------------------------------
# series oracle
# ---------------------------------------------------------------------------


def _cumulative_simpson(vals: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative integral of uniformly sampled values, fourth order.

    Even nodes follow the composite Simpson chain; odd nodes add the exact
    integral of the local cubic interpolant, so their O(h^5) corrections do
    not accumulate.  Needs at least 4 samples; every segment of
    _picard_grid has at least 9.
    """
    n = vals.size
    out = np.zeros(n)
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
    cuts = [0.0, *q.jump_points, PI]
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


def picard_y2(q: Potential, lam: float, K: int, grid_size: int = 8192) -> PicardResult:
    """Partial sum of the series for the solution with y(0) = 0, y'(0) = 1.

    The zeroth term is sin(lam x) / lam; each further term is the Volterra
    integral of the previous one against sin(lam (x - t)) q(t) / lam,
    evaluated through its sin/cos split so only cumulative integrals are
    needed.  Requires 1 <= lam < inf, and integers K >= 1 and grid_size >= 64
    (ValueError otherwise).  The certificate bounds the omitted tail by
    sum over k > K of sigma0^k / (lam^(k+1) k!), sigma0 = q.norm1().
    """
    if not 1.0 <= lam < math.inf:
        raise ValueError(f"series construction requires 1 <= lam < inf, got {lam}")
    K = _whole(K, "K", 1)
    nodes, segments = _picard_grid(q, _whole(grid_size, "grid_size", 64))
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


def kernel_A(q: Potential, lam: float, x: float) -> float:
    """Leading oscillatory kernel of the cosine-normalized solution.

    A(x, lam) = sin(lam x) * int_0^x q + int_0^x q(t) sin(lam (x - 2t)) dt.
    2 lam (y1 - cos(lam x)) - A is O(1/lam) uniformly on [0, pi].
    """
    if not 1.0 <= lam < math.inf:
        raise ValueError(f"kernel is defined for 1 <= lam < inf, got {lam}")
    bps = q.breakpoints
    i1 = integrate(q, 0.0, x, breakpoints=bps)
    i2 = integrate(lambda t: q(t) * np.sin(lam * (x - 2.0 * t)), 0.0, x,
                   freq=2.0 * lam, breakpoints=bps)
    return math.sin(lam * x) * i1 + i2
