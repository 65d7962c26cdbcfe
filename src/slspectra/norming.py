"""Norming constants, the oscillatory correction integral, and model values.

The norming constants are the squared L2 norms of the endpoint-normalized
eigenfunctions,

    a_n = int_0^pi phi_n^2,    b_n = int_0^pi psi_n^2.

Their large-n behaviour is governed by the correction integral

    ae_n = -(1/2) int_0^pi (pi - t) q(t) sin(2 (n + delta_n) t) dt,

entering through the model value

    model_a = (pi/2) [1 + 2 ae_n / (pi nu)] sin^2(alpha)
            + (pi / (2 nu^2)) [1 + 2 ae_n / (pi nu)] cos^2(alpha),

with nu = n + delta_n; the defect a_n - model_a decays like 1/n^2.  Both
bracket denominators use delta_n itself.  model_b mirrors model_a with beta
in place of alpha but keeps ae_n, which is b_n's correction only for q
symmetric about pi/2.  b_n's own is the reflected integral
-(1/2) int_0^pi t q(t) sin(2 nu (pi - t)) dt, ae_n of q(pi - x).  With ae_n
instead, the b-side defect of an asymmetric q decays only like 1/n: for
step(2, 1), Neumann at both ends, n^2 (b_n - model_b) reads 0.72, 1.31 and
2.90 at n = 50, 100 and 200, and 0.50 at each with the reflected integral.

ae_n comes from the moment rule ``potential.fourier_moments``, one call for
a whole batch of indices.  For zero, constant, step and grid potentials
(``Potential.piecewise_linear``) it is exact and takes one panel per piece;
other potentials have no breakpoints and take 2048 equal panels.
``norming_records`` forms the model values and remainders of a batch as
arrays, by the scalar functions' operations, so each field is theirs bit
for bit.

``norming_records`` reads a_n and b_n from one forward norm product, each
at the end where the eigenfunction is large, and relates the other by
a_n = c_n^2 b_n (``_eigen_norms``): a norm read where its solution is
exponentially small, under a tall barrier or in a boundary layer, cancels
entries of the product's size.  The acceptance criteria read the norms
through the same ``_eigen_norms``.  ``norming_a_batch`` and
``norming_b_batch`` give the one-sided norms of the solutions at any mu,
each read from the same norm product at one end.

Remainder extraction divides the measured defect by the active bracket
weight.  When sin(alpha) and cos(alpha) are both nonzero the two bracket
remainders cannot be separated from a_n alone; extraction then reports the
sine-bracket normalization and flags the value as combined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .delta import DeltaValue
from .odesolve import DEFAULT_GRID_SIZE, build_mesh, norm_end, norm_product
from .odesolve import propagate_with_norm  # noqa: F401  (binding kept for perfbench tracing)
from .potential import PI, BoundaryParams, Potential, _whole, fourier_moments
from .potential import integrate  # noqa: F401  (binding kept for perfbench tracing)
from .spectrum import Eigenpair, Spectrum


def _delta_value(delta):
    return delta.value if isinstance(delta, DeltaValue) else np.asarray(delta, dtype=float)


@dataclass
class NormingRecord:
    """Measured and modelled norming data for one index.

    r_n / rtilde_n are the remainders extracted from a_n, p_n / ptilde_n
    their mirrors extracted from b_n.  extraction_a and extraction_b say
    which bracket the value was normalized against: "sin", "cos", or
    "combined" when the brackets are not separately identifiable.
    """

    n: int
    a_n: float
    b_n: float
    ae_n: float
    model_a: float
    model_b: float
    r_n: float
    rtilde_n: float
    p_n: float
    ptilde_n: float
    extraction_a: str
    extraction_b: str


def norming_a_batch(q: Potential, bc: BoundaryParams, mus,
                    grid_size: int = DEFAULT_GRID_SIZE) -> np.ndarray:
    """int_0^pi phi^2 at each mu, phi the left-normalized solution, from the forward sweep.

    The one-sided norm at any mu: the discrete integral that norm_end reads
    at x = pi from the norm product, as _eigen_norms does.  At an
    eigenvalue it is a_n read at x = pi, which under a tall barrier can be
    the small end; norming_records reads each norm at the large one.  Input
    and overflow follow the norm sweep's rules (see odesolve).
    """
    product = norm_product(build_mesh(q, grid_size), mus)
    return norm_end(product, bc.sin_alpha, -bc.cos_alpha, forward=True)[2]


def norming_b_batch(q: Potential, bc: BoundaryParams, mus,
                    grid_size: int = DEFAULT_GRID_SIZE) -> np.ndarray:
    """int_0^pi psi^2 at each mu, psi the right-normalized solution, from the adjugate.

    The mirror of norming_a_batch: norm_end reads the adjugate of the same
    norm product at x = 0, b_n at an eigenvalue.  Input and overflow
    follow the norm sweep's rules (see odesolve).
    """
    product = norm_product(build_mesh(q, grid_size), mus)
    return norm_end(product, bc.sin_beta, -bc.cos_beta, forward=False)[2]


def ae_n(q: Potential, delta, n):
    """Correction integral at 2 (n + delta_n); n and delta (plain floats) may be arrays.

    Each index, a scalar or an array entry, is an integer >= 2 (ValueError
    otherwise, naming the first entry that is not).
    """
    n = np.asarray(n)
    if n.dtype.kind not in "iu" or np.any(n < 2):
        for k in n.ravel().tolist():
            _whole(k, "index", 2)
    return ae_tilde_n(q, n + _delta_value(delta))


def ae_tilde_n(q: Potential, lam):
    """Correction integral at the true eigenfrequency 2 lambda_n (lam may be an array)."""
    ae = -0.5 * fourier_moments(lambda t: (PI - t) * q(t), np.multiply(2.0, lam), q.breakpoints,
                                cubic=q.piecewise_linear)[1]
    return float(ae) if ae.ndim == 0 else ae


def _model(sin_v: float, cos_v: float, delta, ae: float, n: int) -> float:
    nu = n + _delta_value(delta)
    corr = 1.0 + 2.0 * ae / (PI * nu)
    return (PI / 2.0) * corr * sin_v * sin_v + (PI / (2.0 * nu * nu)) * corr * cos_v * cos_v


def model_a(bc: BoundaryParams, delta, ae: float, n: int) -> float:
    """Model value of a_n with both remainders set to zero.

    n is an integer >= 2 (ValueError otherwise).
    """
    return _model(bc.sin_alpha, bc.cos_alpha, delta, ae, _whole(n, "index", 2))


def model_b(bc: BoundaryParams, delta, ae: float, n: int) -> float:
    """Model value of b_n with both remainders set to zero.

    It takes ae_n, not the reflected integral b_n needs when q is not
    symmetric about pi/2 (see the module docstring).  n is an integer >= 2
    (ValueError otherwise).
    """
    return _model(bc.sin_beta, bc.cos_beta, delta, ae, _whole(n, "index", 2))


def _extract(defect: float, sin_v: float, cos_v: float, nu: float):
    if sin_v != 0.0 and cos_v == 0.0:
        return defect / ((PI / 2.0) * sin_v * sin_v), math.nan, "sin"
    if sin_v == 0.0:
        return math.nan, defect / (PI / (2.0 * nu * nu)), "cos"
    return defect / ((PI / 2.0) * sin_v * sin_v), math.nan, "combined"


def extract_remainders(a_value: float, ae: float, delta, bc: BoundaryParams, n: int):
    """Remainders (r_n, rtilde_n, mode) implied by a measured a_n.

    The measured defect D = a_n - model_a is divided by the sine-bracket
    weight (pi/2) sin^2(alpha) whenever sin(alpha) is nonzero, or by the
    cosine-bracket weight pi / (2 nu^2) in the Dirichlet case.  mode is
    "combined" when both brackets are active and the split is not
    identifiable; plugging the reported remainder back into its bracket
    reproduces a_n exactly either way.  n is an integer >= 2 (ValueError
    otherwise).
    """
    n = _whole(n, "index", 2)
    nu = n + _delta_value(delta)
    defect = a_value - _model(bc.sin_alpha, bc.cos_alpha, delta, ae, n)
    return _extract(defect, bc.sin_alpha, bc.cos_alpha, nu)


def _large_end(bc: BoundaryParams, y, yp, u, up):
    """c_n, 1 / c_n, and where the forward end is the large one, |c_n| >= |1 / c_n|.

    With phi_n = c_n psi_n, c_n = phi(pi) sin beta - phi'(pi) cos beta comes
    from the forward values (y, yp) at pi and 1 / c_n = psi(0) sin alpha -
    psi'(0) cos alpha from the backward values (u, up) at 0.
    """
    c = y * bc.sin_beta - yp * bc.cos_beta
    inv_c = u * bc.sin_alpha - up * bc.cos_alpha
    return c, inv_c, np.abs(c) >= np.abs(inv_c)


def _eigen_norms(q: Potential, bc: BoundaryParams, mus, grid_size: int = DEFAULT_GRID_SIZE):
    """a_n and b_n at eigenvalues mus from one norm product, each at its well-conditioned end.

    At an eigenvalue phi_n = c_n psi_n, so a_n = c_n^2 b_n.  A norm read at
    the end where its solution is exponentially small cancels entries of
    size |M|, so only one end is read, the large one, judged from both
    (_large_end, with the adjugate values at 0).  Where |c_n| >= |1 / c_n|,
    a_n comes from the forward identity and b_n = a_n / c_n^2; elsewhere
    b_n comes from the adjugate identity and a_n = b_n c_n^2.  The value
    read at the small end carries the root window times the solution's
    growth, so it can be far from its exact size, but it stays below the
    accurate one read at the large end: under barriers of height 330-586 on
    the right, c_n reads up to 4e13 where it is exponentially small, so a
    fixed threshold on |c_n| alone would pick the small end.  Input and
    overflow follow the norm sweep's rules (see odesolve).
    """
    product = norm_product(build_mesh(q, grid_size), mus)
    y, yp, a_vals = norm_end(product, bc.sin_alpha, -bc.cos_alpha, forward=True)
    u, up, b_vals = norm_end(product, bc.sin_beta, -bc.cos_beta, forward=False)
    c, inv_c, forward = _large_end(bc, y, yp, u, up)
    # the end not read may have lost its value entirely: 1/c_n rounds to 0
    # under a barrier of height 240
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return (np.where(forward, a_vals, b_vals / inv_c / inv_c),
                np.where(forward, a_vals / c / c, b_vals))


def norming_record(q: Potential, bc: BoundaryParams, pair: Eigenpair,
                   grid_size: int = DEFAULT_GRID_SIZE) -> NormingRecord:
    """Assemble the full measured-versus-model record for one eigenpair."""
    return norming_records(q, bc, [pair], grid_size=grid_size)[0]


def norming_records(q: Potential, bc: BoundaryParams, pairs,
                    grid_size: int = DEFAULT_GRID_SIZE) -> list[NormingRecord]:
    """Batched records for eigenpairs (or a whole Spectrum).

    Indices below 2 get the measured norms with the model fields set to
    NaN, since the correction integral and model are asymptotic objects.
    A pair with a non-finite mu raises ValueError.
    """
    if isinstance(pairs, Spectrum):
        pairs = pairs.pairs
    pairs = list(pairs)
    mus = np.array([p.mu for p in pairs])
    a_vals, b_vals = _eigen_norms(q, bc, mus, grid_size)
    ns = np.array([p.n for p in pairs], dtype=int)
    deltas = np.array([p.delta.value for p in pairs], dtype=float)
    late = ns >= 2
    # ae_n, model_a, model_b and the four remainders, by _model's and
    # _extract's operations on the batch.  A cell without a value (below
    # index 2, or the remainder _extract leaves out) holds the object
    # math.nan, as the scalar functions return, so equal records compare equal
    columns = np.full((7, ns.size), math.nan, dtype=object)
    index, shift = ns[late], deltas[late]
    ae = ae_n(q, shift, index)
    ma = _model(bc.sin_alpha, bc.cos_alpha, shift, ae, index)
    mb = _model(bc.sin_beta, bc.cos_beta, shift, ae, index)
    r, rt, mode_a = _extract(a_vals[late] - ma, bc.sin_alpha, bc.cos_alpha, index + shift)
    pv, pt, mode_b = _extract(b_vals[late] - mb, bc.sin_beta, bc.cos_beta, index + shift)
    for column, values in zip(columns, (ae, ma, mb, r, rt, pv, pt)):
        column[late] = values
    modes = {True: (mode_a, mode_b), False: ("none", "none")}
    # the columns follow NormingRecord's field order
    return [NormingRecord(n, a_v, b_v, *model, *modes[n >= 2]) for n, a_v, b_v, *model
            in zip(ns.tolist(), a_vals.tolist(), b_vals.tolist(), *columns.tolist())]
