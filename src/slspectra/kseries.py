"""Partial sums of the norming-correction series and its split.

The series under study is

    k(x) = sum_{n >= 2} ae_n / (n + delta_n) cos((n + delta_n) x),

on [0, 2 pi].  Integration by parts against sigma(t) = int_0^t (pi - s) q(s) ds
splits every term exactly:

    ae_n / nu = -sigma(pi) c_n + int_0^pi sigma(t) cos(2 nu t) dt,
    c_n = sin(2 pi delta_n) / (2 nu),        nu = n + delta_n,

giving k = k1 + k2 with

    k1(x) = -sigma(pi) sum c_n cos(nu x),
    k2(x) = sum [ (1/2) int_0^{2 pi} sigma_tilde(t) cos(nu t) dt ] cos(nu x),

where sigma_tilde(t) = sigma(t/2).  The half in the k2 coefficient is the
substitution factor from t -> t/2; it is what makes the per-term identity
hold, as the constant-potential oracle confirms.

Two boundary cases are supported: both conditions non-Dirichlet
("interior") and Dirichlet at both ends ("dirichlet-dirichlet").  In the
latter, delta_n = 1 makes every c_n vanish and k2 runs over integer
frequencies m = n + 1 >= 3, so it has a closed form: pi/2 times the even
part of the Fourier series of sigma_tilde with its first three cosine
terms removed.  That closed form is the convergence oracle; absolute
continuity itself is not machine-decidable from finitely many terms, so
the diagnostic reports total-variation stability across a truncation
ladder instead.

The shifts delta_n of all indices come from one call of the fixed-point
loop (``delta._shifts``).  ae_n, int sigma cos(2 nu t) and, in the
Dirichlet-Dirichlet case, the three harmonics of sigma that the closed form
removes come from one call of the moment rule ``potential.fourier_moments``:
both integrands stacked, the frequencies 0, 2 and 4 appended to the 2 nu, so
all share its phases and Bessel weights.  No frequency's moment depends on
the others in the call, so each value is the one a separate call returns;
``k2_closed_form_dd`` called on its own still makes its own call.  The rule
is exact for zero, constant, step and grid potentials, whose integrands
(pi - t) q(t) and sigma are cubics between breakpoints; for them every
piece is one panel (``Potential.piecewise_linear``), other potentials have
no breakpoints and take 2048 equal panels.  sin(2 pi delta_n) in the k1
coefficients is delta's exactly reduced ``sin_two_pi``, on the array.

The partial sums live on the uniform grid x_j = 2 pi j / P, P = points - 1.
There the integer part of nu x_j P / (2 pi) is reduced modulo P exactly in
integer arithmetic, each term's phases come from two small cosine and sine
tables, and the sums over n are real matrix products (``_partial_rows``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .delta import _shifts, _sin_two_pi
from .delta import solve_delta  # noqa: F401  (binding kept for perfbench tracing)
from .errors import CaseError
from .potential import (
    PI,
    BoundaryParams,
    CumulativeIntegrals,
    Potential,
    _whole,
    fourier_moments,
    sigma_functions,
)
from .potential import integrate  # noqa: F401  (binding kept for perfbench tracing)

TRUNCATION_CAP = 400
DEFAULT_GRID_POINTS = 2048
# the closed form removes the mean and the first two cosine harmonics of
# sigma_tilde: moments of sigma at 2 m for m = 0, 1, 2
_HARMONICS = (0.0, 2.0, 4.0)

CASE_INTERIOR = "interior"
CASE_DIRICHLET_DIRICHLET = "dirichlet-dirichlet"


@dataclass
class KSeriesResult:
    """Partial sums on a grid for a ladder of truncation orders.

    k_partial, k1_partial, k2_partial have shape (len(N_list), len(grid));
    row i is the partial sum through index N_list[i].  closed_form is the
    dirichlet-dirichlet oracle on the same grid, None in the interior case.
    """

    case_tag: str
    grid: np.ndarray
    N_list: tuple[int, ...]
    k_partial: np.ndarray
    k1_partial: np.ndarray
    k2_partial: np.ndarray
    closed_form: np.ndarray | None


@dataclass
class ACReport:
    """Absolute-continuity evidence for a truncation ladder on [a, b].

    variations[i] is the grid total variation of partial sum N_list[i];
    tv_stability is |V_last - V_prev| / V_prev (0 when V_prev vanishes and
    V_last does too); max_jump is the largest step between adjacent grid
    values of the finest partial sum.
    """

    segment: tuple[float, float]
    N_list: tuple[int, ...]
    variations: tuple[float, ...]
    tv_stability: float
    max_jump: float


def case_tag(bc: BoundaryParams) -> str:
    """Classify the boundary pair for the series, or raise CaseError."""
    if not bc.dirichlet_left and not bc.dirichlet_right:
        return CASE_INTERIOR
    if bc.dirichlet_left and bc.dirichlet_right:
        return CASE_DIRICHLET_DIRICHLET
    raise CaseError(
        f"series is defined for both conditions non-Dirichlet or both Dirichlet; "
        f"got alpha = {bc.alpha}, beta = {bc.beta}")


def series_coefficients(q: Potential, bc: BoundaryParams, N: int):
    """Per-term data for indices 2..N, N an integer in [2, TRUNCATION_CAP].

    Returns (nus, k_coefs, k1_coefs, k2_coefs) where the term of each series
    at index n is coef * cos(nu x).  The integration-by-parts identity
    k_coef = k1_coef + k2_coef holds per term to about 2e-13 of the largest
    |k_coef| at N = 400.
    """
    return _coefficients(q, bc, N, sigma_functions(q))[0]


def _coefficients(q: Potential, bc: BoundaryParams, N: int, ci: CumulativeIntegrals,
                  harmonics=()):
    """series_coefficients, and int_0^pi sigma(t) cos(w t) dt at the extra frequencies harmonics.

    The shifts come from one _shifts call and all moments from one call of
    the moment rule, the harmonics appended to the 2 nu; a frequency's
    moment does not depend on the others in the call.
    """
    case_tag(bc)
    ns = np.arange(2, _whole(N, "truncation", 2, TRUNCATION_CAP) + 1)
    deltas = _shifts(ns, bc)[0]
    nus = ns + deltas
    # the half from substituting t -> t/2 in the sigma_tilde integral
    # over [0, 2 pi]: (1/2) int sigma_tilde cos(nu t) = int sigma cos(2 nu s);
    # ae_n = -(1/2) int (pi - t) q(t) sin(2 nu t) dt, as norming.ae_tilde_n
    cos_m, sin_m = fourier_moments(lambda t: np.stack([ci.sigma(t), (PI - t) * q(t)]),
                                   np.append(2.0 * nus, harmonics), q.breakpoints,
                                   cubic=q.piecewise_linear)
    k1_coefs = -ci.sigma(PI) * _sin_two_pi(deltas) / (2.0 * nus)
    coefs = (nus, -0.5 * sin_m[1, :nus.size] / nus, k1_coefs, cos_m[0, :nus.size])
    return coefs, cos_m[0, nus.size:]


def _default_grid(grid):
    if grid is None:
        return np.linspace(0.0, 2.0 * PI, DEFAULT_GRID_POINTS)
    return np.asarray(grid, dtype=float)


def _truncation_ladder(N: int, truncations):
    if truncations is None:
        ladder = sorted({max(2, N // 4), max(2, N // 2), N})
    else:
        ladder = sorted({_whole(t, "each truncation", 2, N) for t in truncations})
        if not ladder:
            raise ValueError("truncations must not be empty")
    return tuple(ladder)


def _partial_rows(nus, coef_sets, points, ladder):
    """Partial sums of each coefficient set at the truncations, on linspace(0, 2 pi, points).

    With P = points - 1 the grid is x_j = 2 pi j / P.  Split nu = w + f,
    w = floor(nu), and j = a B + b, B = isqrt(P) + 1; then

        nu x_j = (2 pi / P) ((w a B) mod P + f a B) + (2 pi / P) ((w b) mod P + f b),

    with the integer products reduced exactly in int64, so no angle exceeds
    2 pi (1 + f).  Each term takes cosine and sine tables of its A =
    ceil(points / B) a-angles and B b-angles, 2 (A + B) trig calls instead
    of one cosine per grid point, and per ladder segment
    sum_n c_n cos(nu_n x_j) = sum_n (c_n C_a) C_b - (c_n S_a) S_b is one
    real matrix product per coefficient set.  Where nu is an integer (the
    Dirichlet-Dirichlet case) every angle is an exact multiple of 2 pi / P.
    """
    coefs = np.array(coef_sets)
    period = points - 1
    n_low = math.isqrt(period) + 1
    n_high = -(-points // n_low)
    whole = np.floor(nus)
    frac = (nus - whole)[:, None]
    whole = whole.astype(np.int64)[:, None] % period

    def angles(j):
        return (2.0 * PI / period) * ((whole * j) % period + frac * j)

    high = angles(n_low * np.arange(n_high))
    high = np.stack([np.cos(high), np.sin(high)], axis=1)
    low = angles(np.arange(n_low))
    low = np.stack([np.cos(low), -np.sin(low)], axis=1)
    rows = np.empty((len(coefs), len(ladder), points))
    acc = np.zeros((len(coefs), n_high * n_low))
    pos = 0
    for i, n_stop in enumerate(ladder):
        seg = slice(pos, n_stop - 1)  # indices pos + 2..n_stop
        weighted = (coefs[:, seg, None, None] * high[seg]).reshape(len(coefs), -1, n_high)
        acc += (weighted.transpose(0, 2, 1) @ low[seg].reshape(-1, n_low)).reshape(len(coefs), -1)
        rows[:, i] = acc[:, :points]
        pos = n_stop - 1
    return rows


def k_partial_sum(q: Potential, bc: BoundaryParams, N: int, points: int = DEFAULT_GRID_POINTS,
                  truncations=None) -> KSeriesResult:
    """Partial sums of k, its split pieces, and the closed-form oracle.

    The grid is linspace(0, 2 pi, points), points an integer >= 2.  N is an
    integer in [2, TRUNCATION_CAP], and each truncation one in [2, N].  The
    default truncation ladder is {N/4, N/2, N}.
    """
    tag = case_tag(bc)
    points = _whole(points, "points", 2)
    grid = np.linspace(0.0, 2.0 * PI, points)
    ci = sigma_functions(q)
    dd = tag == CASE_DIRICHLET_DIRICHLET
    (nus, *coefs), moments = _coefficients(q, bc, N, ci, _HARMONICS if dd else ())
    # nus holds the terms of the indices 2..N
    ladder = _truncation_ladder(nus.size + 1, truncations)
    k_rows, k1_rows, k2_rows = _partial_rows(nus, coefs, points, ladder)
    return KSeriesResult(
        case_tag=tag,
        grid=grid,
        N_list=ladder,
        k_partial=k_rows,
        k1_partial=k1_rows,
        k2_partial=k2_rows,
        closed_form=_closed_form(ci, grid, moments) if dd else None,
    )


def k2_closed_form_dd(q: Potential, grid=None) -> np.ndarray:
    """Closed form of k2 in the Dirichlet-Dirichlet case.

    pi/2 times the even part of the Fourier series of sigma_tilde,
    (sigma_tilde(x) + sigma_tilde(2 pi - x)) / 2, with the mean and the
    first two cosine harmonics removed (the series starts at frequency 3).
    The m-th cosine coefficient (1/pi) int_0^{2 pi} sigma_tilde(t) cos(m t) dt
    is (2/pi) int_0^pi sigma(s) cos(2 m s) ds.
    """
    grid = _default_grid(grid)
    ci = sigma_functions(q)
    moments = fourier_moments(ci.sigma, _HARMONICS, q.breakpoints, cubic=q.piecewise_linear)[0]
    return _closed_form(ci, grid, moments)


def _closed_form(ci: CumulativeIntegrals, grid: np.ndarray, moments: np.ndarray) -> np.ndarray:
    """k2_closed_form_dd on grid from the cosine moments of sigma at _HARMONICS."""
    coeffs = (2.0 / PI) * moments
    even = (ci.sigma_tilde(grid) + ci.sigma_tilde(2.0 * PI - grid)) / 2.0
    return (PI / 2.0) * (even - coeffs[0] / 2.0 - coeffs[1] * np.cos(grid)
                         - coeffs[2] * np.cos(2.0 * grid))


def ac_diagnostic(grid, partials, N_list, a: float, b: float) -> ACReport:
    """Total-variation evidence of absolute continuity on [a, b].

    partials has one row per truncation in N_list (a KSeriesResult row
    block, or any stack of grid functions on the same grid), and N_list at
    least one entry.  Another row count, or a non-finite grid or partials
    entry, raises ValueError.
    """
    if not (0.0 < a < b < 2.0 * PI):
        raise ValueError(f"segment must satisfy 0 < a < b < 2 pi, got [{a}, {b}]")
    grid = np.asarray(grid, dtype=float)
    partials = np.atleast_2d(np.asarray(partials, dtype=float))
    if not 0 < len(partials) == len(N_list):
        raise ValueError(f"partials must have one row per entry of N_list, at least one, "
                         f"got {len(partials)} rows for {len(N_list)} entries")
    if not (np.isfinite(grid).all() and np.isfinite(partials).all()):
        raise ValueError("grid and partials must be finite")
    mask = (grid >= a) & (grid <= b)
    if int(np.sum(mask)) < 3:
        raise ValueError("segment contains too few grid points")
    variations = tuple(float(np.sum(np.abs(np.diff(row[mask])))) for row in partials)
    if len(variations) >= 2 and variations[-2] > 0.0:
        stability = abs(variations[-1] - variations[-2]) / variations[-2]
    else:
        stability = 0.0 if variations[-1] == 0.0 else math.inf
    max_jump = float(np.max(np.abs(np.diff(partials[-1][mask]))))
    return ACReport(segment=(float(a), float(b)), N_list=tuple(int(n) for n in N_list),
                    variations=variations, tv_stability=float(stability),
                    max_jump=max_jump)
