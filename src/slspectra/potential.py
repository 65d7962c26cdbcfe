"""Potentials on [0, pi], boundary parameters, and the shared quadrature engine.

A potential is a real, integrable function q on [0, pi].  Two representations
are supported: a small family of named analytic potentials (zero, constant,
step, trigonometric test polynomials) and piecewise-linear interpolants of
sampled data.  Potentials carrying integrable singularities must be supplied
pre-sampled on a locally refined grid.

The quadrature engine is an adaptive composite rule built on two-point
Gauss panels.  Gauss nodes are strictly interior to each panel, so integrands
that jump at known breakpoints (a step potential, say) are integrated exactly
once the breakpoints are used as panel edges; no one-sided limits are needed.
Oscillatory integrands are seeded with at least eight panels per period of
the supplied frequency hint before refinement starts.

Oscillatory moments, int_0^pi f(t) exp(i w t) dt for an array of w, come
from a panel-moment (Filon) rule instead: exact up to rounding when f is a
cubic between breakpoints, fourth order in the panel width otherwise,
whatever the frequency.  The rule has two layouts.  A caller that knows f
is a cubic between breakpoints (``cubic=True``; the moment integrands of a
``piecewise_linear`` potential are) gets one panel per piece.  Otherwise f
takes 2048 equal panels over [0, pi] and may have no interior breakpoints;
their phases are factorised over 2 rows of 32 x 32 panels, so each
frequency takes 96 phases instead of a sine and a cosine per panel, and
the panel sums become small matrix products.

Everything here is immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import QuadratureError

PI = math.pi

DEFAULT_QUAD_TOL = 1e-10

_GAUSS_OFFSET = 0.5 / math.sqrt(3.0)
# integrate: at least _MIN_PANELS initial panels, at most _MAX_REFINE halvings
_MIN_PANELS = 8
_MAX_REFINE = 28
# sigma_functions: uniform node-table intervals, breakpoints added
_TABLE_POINTS = 2048
_NAMED_POTENTIALS = ("zero", "constant", "step", "smooth-test")
_DOMAIN_SLACK = 1e-12

# Moment rule: one panel per piece when f is cubic between breakpoints,
# else _MOMENT_PANELS equal panels, whose phases are factorised over rows of
# _MOMENT_SIDE x _MOMENT_SIDE panels (2048 = 2 x 32 x 32: no row is padded);
# a block of _MOMENT_ELEMS (frequency, phase or Bessel) entries keeps its
# transients near 1 MB.
_MOMENT_PANELS = 2048
_MOMENT_SIDE = 32
_MOMENT_ELEMS = 8192
# Four-point Gauss-Legendre nodes s_j and weights w_j in closed form; the
# matrix (k + 1/2) w_j P_k(s_j) maps node values to Legendre coefficients.
_GL4_NODES = np.array([-1.0, -1.0, 1.0, 1.0]) * np.sqrt(
    (3.0 + np.array([2.0, -2.0, -2.0, 2.0]) * math.sqrt(1.2)) / 7.0)
_GL4_WEIGHTS = (18.0 - np.array([1.0, -1.0, -1.0, 1.0]) * math.sqrt(30.0)) / 36.0
_GL4_LEGENDRE = (np.stack([np.ones(4), _GL4_NODES, (3.0 * _GL4_NODES ** 2 - 1.0) / 2.0,
                           (5.0 * _GL4_NODES ** 3 - 3.0 * _GL4_NODES) / 2.0], axis=1)
                 * _GL4_WEIGHTS[:, None] * (np.arange(4) + 0.5))
# Row m: the coefficient (-1)^m / (2^m m! (2k + 2m + 1)!!) of theta^(k + 2m)
# in j_k(theta), k = 0..3.  j_k takes the series where |theta| <= the k-th
# limit: ten rows reach rounding for |theta| <= 1, where the series of every
# k has been taken; twelve for |theta| <= 2.5, which only j_2 and j_3 take,
# since their closed forms cancel just above 1.
_BESSEL_SERIES = np.array([
    [(-1) ** m / (2 ** m * math.factorial(m) * math.prod(range(1, 2 * k + 2 * m + 2, 2)))
     for k in range(4)] for m in range(12)])
_BESSEL_NEAR_ROWS = 10
_BESSEL_LIMITS = np.array([1.0, 1.0, 2.5, 2.5])
_I_POWERS = np.array([1.0, 1j, -1.0, -1j])


def _bessel_weights(theta, radius):
    """2 r i^k j_k(theta) for k = 0..3 on a last axis; theta = w r has a trailing axis of 1.

    Where |theta| <= 1, the ten-term series; j_2 and j_3 keep the series,
    with two more terms, up to |theta| = 2.5 (_BESSEL_LIMITS), and the
    extra terms enter only above 1, so the entries at |theta| <= 1 are
    those of the ten terms bit for bit.  Elsewhere the closed forms,
    sin(theta) and cos(theta) times polynomials in x = 1 / theta:
    j_0 = x s, j_1 = x (x s - c), j_2 = (3 x^2 - 1) x s - 3 x^2 c and
    j_3 = (15 x^2 - 6) x^2 s - (15 x^2 - 1) x c.  Just above 1 the last two
    cancel: j_3 would lose about three digits at theta = 1.1.
    """
    near = np.abs(theta) <= _BESSEL_LIMITS
    series = np.where(near, theta, 0.0)
    # the rows past the tenth are zero at |theta| <= 1, where 0 s^2 + row is row
    wide = np.abs(series) > 1.0
    bessel = 0.0
    for m, row in reversed(list(enumerate(_BESSEL_SERIES))):
        bessel = bessel * series * series + (row if m < _BESSEL_NEAR_ROWS else wide * row)
    weights = 2.0 * radius * _I_POWERS * series ** np.arange(4) * bessel
    if near.all():
        return weights
    far = np.where(np.abs(theta) <= 1.0, 2.0, theta)
    x, s, c = 1.0 / far, np.sin(far), np.cos(far)
    x2 = x * x
    bessel = np.concatenate([x * s, x * (x * s - c), (3.0 * x2 - 1.0) * x * s - 3.0 * x2 * c,
                             (15.0 * x2 - 6.0) * x2 * s - (15.0 * x2 - 1.0) * x * c], axis=-1)
    return np.where(near, weights, 2.0 * radius * _I_POWERS * bessel)


def _unique(values, return_index=False, return_inverse=False):
    """np.unique of a 1-d array, by one stable sort.

    Same values, first-occurrence indices and inverse as np.unique, whose
    first call in a process imports numpy.ma (about 15 ms).
    """
    values = np.ravel(values)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    first = np.empty(ordered.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    out = [ordered[first]]
    if return_index:
        out.append(order[first])
    if return_inverse:
        inverse = np.empty(values.size, dtype=np.intp)
        inverse[order] = np.cumsum(first) - 1
        out.append(inverse)
    return out[0] if len(out) == 1 else tuple(out)


def _gauss2(f, a, b):
    """Two-point Gauss estimate of the integral of f over [a, b], vectorized."""
    c = 0.5 * (a + b)
    d = (b - a) * _GAUSS_OFFSET
    return 0.5 * (b - a) * (f(c - d) + f(c + d))


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    u: float,
    v: float,
    tol: float = DEFAULT_QUAD_TOL,
    *,
    freq: float = 0.0,
    breakpoints: Sequence[float] = (),
) -> float:
    """Integrate f over [u, v] to an absolute error target of tol.

    f must accept numpy arrays.  ``freq`` is the angular frequency of the
    fastest oscillation of the integrand (the w in sin(w t)); the initial
    panel count is chosen so each period gets at least eight panels.
    ``breakpoints`` are abscissae where f is allowed to jump or kink; they
    are forced to be panel edges.

    Raises ValueError for bounds that are not finite or a freq that is not
    finite and >= 0, and QuadratureError when panels fail to converge
    within the refinement budget, or as soon as a panel estimate is not
    finite, carrying the last estimate and its error bound.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if not (math.isfinite(u) and math.isfinite(v)):
        raise ValueError(f"integration bounds must be finite, got [{u}, {v}]")
    if not 0.0 <= freq < math.inf:
        raise ValueError(f"freq must be finite and >= 0, got {freq}")
    if u > v:
        raise ValueError(f"integration bounds out of order: [{u}, {v}]")
    if u == v:
        return 0.0

    width = v - u
    periods = freq * width / (2.0 * PI)
    n0 = max(_MIN_PANELS, 8 * int(math.ceil(periods)) if periods > 0 else 0)
    n0 = min(max(n0, 1), 1 << 14)
    edges = np.linspace(u, v, n0 + 1)
    interior = [b for b in breakpoints if u < b < v]
    if interior:
        edges = _unique(np.concatenate([edges, np.asarray(interior, dtype=float)]))

    a = edges[:-1].copy()
    b = edges[1:].copy()
    coarse = _gauss2(f, a, b)

    total = 0.0
    accepted_err = 0.0
    open_estimate = float(np.sum(coarse))
    open_err = math.inf
    for _ in range(_MAX_REFINE):
        mid = 0.5 * (a + b)
        left = _gauss2(f, a, mid)
        right = _gauss2(f, mid, b)
        fine = left + right
        lmid = 0.5 * (a + mid)
        rmid = 0.5 * (mid + b)
        finer = (_gauss2(f, a, lmid) + _gauss2(f, lmid, mid)
                 + _gauss2(f, mid, rmid) + _gauss2(f, rmid, b))
        # a discontinuity can make one Richardson gap vanish by accident;
        # demanding two consecutive levels agree closes that hole
        err = np.maximum(np.abs(fine - coarse), np.abs(finer - fine)) / 15.0
        if not np.isfinite(err).all():  # a NaN would fail the budget at every level
            raise QuadratureError(f"non-finite panel estimate on [{u}, {v}]",
                                  estimate=total + float(np.sum(finer)), error_bound=math.inf)
        budget = tol * (b - a) / width
        done = err <= budget
        if np.any(done):
            total += float(np.sum(finer[done] + (finer[done] - fine[done]) / 15.0))
            accepted_err += float(np.sum(err[done]))
        keep = ~done
        if not np.any(keep):
            return total
        a = np.concatenate([a[keep], mid[keep]])
        b = np.concatenate([mid[keep], b[keep]])
        coarse = np.concatenate([left[keep], right[keep]])
        open_estimate = float(np.sum(fine[keep]))
        open_err = float(np.sum(err[keep]))

    raise QuadratureError(
        f"quadrature did not converge on [{u}, {v}] after {_MAX_REFINE} refinements "
        f"({a.size} panels open)",
        estimate=total + open_estimate,
        error_bound=accepted_err + open_err,
    )


def fourier_moments(f: Callable[[np.ndarray], np.ndarray], omegas,
                    breakpoints: Sequence[float] = (), *,
                    cubic: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """int_0^pi f(t) cos(w t) dt and int_0^pi f(t) sin(w t) dt for each w in omegas.

    The frequencies must be finite (ValueError otherwise).  The panels take
    one of two layouts.  With ``cubic=True``, which says that f is a
    polynomial of degree <= 3 between breakpoints, each piece between
    breakpoints is one panel.  Otherwise f is taken on 2048 equal panels
    over [0, pi], and interior breakpoints raise ValueError, since those
    panels would straddle them.  On a panel of centre c and half-width r,
    f is replaced by the cubic sum_k a_k P_k((t - c) / r) through its four
    (interior) Gauss-Legendre nodes, whose moment is exactly
    r exp(i w c) sum_k a_k 2 i^k j_k(w r); j_k is evaluated once per
    distinct r, by its ten-term series where |w r| <= 1 and in closed form
    elsewhere (``_bessel_weights``).  That runs once per table of whole
    frequency blocks, size x max(1, _MOMENT_ELEMS // (4 x size x radii))
    frequencies with size the block length below, so a call of a few
    hundred frequencies on a few radii takes one table.  The weights are
    elementwise, so a value does not depend on how the frequencies are cut
    into tables.

    Whole pieces take one phase per panel, and their products with the
    Bessel weights are summed per distinct r.  The 2048 panels' phases are
    factorised: they form 2 rows of 32 x 32 panels, and panel
    p = 1024 j + 32 h + l has exp(i w c_p) = exp(i w c_(1024 j + 32 h))
    exp(i w 2 r l).  Each frequency thus takes 32 low phases and 64 high
    ones instead of 2048.  The low phases, times the Bessel weights, are
    contracted with a row's coefficients by one matrix product per
    (frequency, row), and the high phases with the result by one product
    per frequency.  No frequency's value depends on the others in the call.

    f may return stacked integrands: values of shape lead + t.shape, with
    lead the same at every call.  f is then evaluated once, each integrand
    gets its own Legendre fit, and the Bessel weights and the phases of a
    frequency block are formed once and contracted with each integrand's
    coefficients in turn, by the same operations a call with that
    integrand alone would take, so every value is bit for bit the
    single-integrand one.  A block holds _MOMENT_ELEMS // integrands
    entries of the larger of its phase array and its Bessel table, which
    keeps the transients within the single-integrand budget.  Returns
    (cosine, sine), shaped lead + omegas.shape.
    """
    omegas = np.asarray(omegas, dtype=float)
    w = omegas.ravel()
    if not np.all(np.isfinite(w)):
        raise ValueError("moment frequencies must be finite")
    cuts = np.array([0.0, *sorted(b for b in breakpoints if 0.0 < b < PI), PI])
    if cubic:
        # the Bessel weights are taken once per distinct radius
        radius, piece_radius = _unique(np.diff(cuts) / 2, return_inverse=True)
        radii = radius[piece_radius]
        centres = cuts[:-1] + radii
    elif cuts.size > 2:
        raise ValueError("interior breakpoints need cubic=True")
    else:
        radius = radii = np.array([PI / (2 * _MOMENT_PANELS)])
        centres = radius * (2 * np.arange(_MOMENT_PANELS) + 1)
    legendre = np.asarray(f(centres[:, None] + radii[:, None] * _GL4_NODES))
    lead = legendre.shape[:-2]
    fits = [v @ _GL4_LEGENDRE for v in legendre.reshape(-1, centres.size, 4)]
    if cubic:
        # panels sorted by radius, so each radius sums a run of them
        order = np.argsort(piece_radius, kind="stable")
        starts = _unique(piece_radius[order], return_index=True)[1]
        centres = centres[order]
        coefs = [fit[order].T for fit in fits]
        phases = centres.size
    else:
        low = 2.0 * radius * np.arange(_MOMENT_SIDE)
        high = centres[::_MOMENT_SIDE]
        # row j, entry (h, 32 k + l): a_k of panel 1024 j + 32 h + l
        coefs = [fit.reshape(-1, _MOMENT_SIDE, _MOMENT_SIDE, 4).transpose(0, 1, 3, 2)
                 .reshape(-1, _MOMENT_SIDE, 4 * _MOMENT_SIDE) for fit in fits]
        phases = high.size

    out = np.zeros((len(fits), w.size), dtype=complex)
    size = max(1, _MOMENT_ELEMS // len(fits) // max(phases, 4 * radius.size))
    # the Bessel weights of whole blocks at a time, each of the four orders
    # an entry of the budget, so the table's transients stay near 1 MB too
    table = size * max(1, _MOMENT_ELEMS // (4 * size * radius.size))
    for lo in range(0, w.size, size):
        if lo % table == 0:
            table_weights = _bessel_weights(w[lo:lo + table, None, None] * radius[:, None],
                                            radius[:, None])
        wb = w[lo:lo + size, None, None]
        weights = table_weights[lo % table:lo % table + size]
        if cubic:
            arg = wb[:, 0] * centres
            # the phases go out of scope before the weights are applied, as
            # with one integrand, so the block's transients do not grow
            sums = np.stack([np.cos(arg), np.sin(arg)], axis=1)[:, :, None]
            sums = [np.add.reduceat(sums * own, starts, axis=-1) for own in coefs]
            for acc, own in zip(out, sums):
                own = weights * (own[:, 0] + 1j * own[:, 1]).transpose(0, 2, 1)
                acc[lo:lo + size] += np.sum(own.reshape(len(wb), -1), axis=-1)
        else:
            arg = wb * low
            # rows (k, l) of the weights x low phases, as (real, imaginary) columns
            sums = weights[..., None] * (np.cos(arg) + 1j * np.sin(arg))[:, :, None]
            sums = sums.view(float).reshape(len(wb), 1, -1, 2)
            sums = [(own @ sums).view(complex).reshape(len(wb), -1, 1) for own in coefs]
            arg = wb * high
            phase = np.cos(arg) + 1j * np.sin(arg)
            for acc, own in zip(out, sums):
                acc[lo:lo + size] += (phase @ own)[:, 0, 0]
    shape = lead + omegas.shape
    return out.real.reshape(shape), out.imag.reshape(shape)


def _snapped_sincos(angle: float) -> tuple[float, float]:
    """(sin, cos) of a boundary angle with exact values at multiples of pi/2.

    sin(pi) evaluates to ~1.2e-16 in floating point; the boundary-condition
    case analysis (Dirichlet versus not) must see an exact zero there.
    """
    s = math.sin(angle)
    c = math.cos(angle)
    if abs(s) < 5e-16:
        s = 0.0
        c = 1.0 if c > 0 else -1.0
    elif abs(c) < 5e-16:
        c = 0.0
        s = 1.0 if s > 0 else -1.0
    return s, c


def _whole(value, what: str, lo: int | None = None, hi: int | None = None) -> int:
    """value as an int, or ValueError when it is not an integer or lies outside [lo, hi].

    An integer is any value with __index__ (Python and numpy integers).  A
    bound left as None is not checked; hi is given only with lo.
    """
    try:
        n = operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if hi is not None and not lo <= n <= hi:
        raise ValueError(f"{what} must lie in [{lo}, {hi}], got {n}")
    if lo is not None and n < lo:
        raise ValueError(f"{what} must be >= {lo}, got {n}")
    return n


def _json_number(value, what: str) -> float:
    """A JSON number as a float; bools, strings, arrays and overflowing integers are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} is out of range for a float, got {value!r}") from None


def _json_numbers(values, name: str) -> tuple[float, ...]:
    """A JSON array of numbers as floats."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"'{name}' must be an array, got {values!r}")
    return tuple(_json_number(v, f"each entry of '{name}'") for v in values)


@dataclass(frozen=True)
class BoundaryParams:
    """Separated boundary-condition angles: alpha in (0, pi], beta in [0, pi).

    The condition at x=0 is y(0) cos(alpha) + y'(0) sin(alpha) = 0 and at
    x=pi it is y(pi) cos(beta) + y'(pi) sin(beta) = 0.  alpha = pi is the
    Dirichlet condition on the left, beta = 0 the Dirichlet condition on
    the right.  sin_alpha, cos_alpha, sin_beta and cos_beta are the
    angles' sines and cosines, snapped to exact values at multiples of
    pi/2 (_snapped_sincos) and computed once.
    """

    alpha: float
    beta: float
    sin_alpha: float = field(init=False, repr=False, compare=False)
    cos_alpha: float = field(init=False, repr=False, compare=False)
    sin_beta: float = field(init=False, repr=False, compare=False)
    cos_beta: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0.0 < self.alpha <= PI):
            raise ValueError(f"alpha must lie in (0, pi], got {self.alpha}")
        if not (0.0 <= self.beta < PI):
            raise ValueError(f"beta must lie in [0, pi), got {self.beta}")
        snapped = _snapped_sincos(self.alpha) + _snapped_sincos(self.beta)
        for name, value in zip(("sin_alpha", "cos_alpha", "sin_beta", "cos_beta"), snapped):
            object.__setattr__(self, name, value)

    @property
    def dirichlet_left(self) -> bool:
        return self.sin_alpha == 0.0

    @property
    def dirichlet_right(self) -> bool:
        return self.sin_beta == 0.0


@dataclass
class Potential:
    """A real integrable potential on [0, pi].

    kind is "named" or "grid".  Named potentials are
      zero:               q = 0
      constant(c):        q = c
      step(c, x0):        q = c on [0, x0], 0 on (x0, pi]
      smooth-test(c_1..): q = sum_j c_j cos(j x)
    Grid potentials interpolate samples piecewise-linearly; abscissae must
    be strictly increasing with xs[0] = 0 and xs[-1] = pi encoded to full
    double precision.  ``offset`` adds a constant to either kind, so that
    spectral-shift experiments keep the exact structure of the base
    potential.

    Evaluation outside [0, pi], or at NaN, raises ValueError.  Instances are
    immutable by convention; do not mutate fields after construction.
    """

    kind: str
    name: str | None = None
    params: tuple[float, ...] = ()
    xs: np.ndarray | None = None
    qs: np.ndarray | None = None
    offset: float = 0.0
    _norm1: float | None = field(default=None, init=False, repr=False, compare=False)
    _mean: float | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == "named":
            self._validate_named()
        elif self.kind == "grid":
            self._validate_grid()
        else:
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if not math.isfinite(self.offset):
            raise ValueError("offset must be finite")

    def _validate_named(self):
        if self.name not in _NAMED_POTENTIALS:
            raise ValueError(f"unknown named potential {self.name!r}")
        p = tuple(float(x) for x in self.params)
        if any(not math.isfinite(x) for x in p):
            raise ValueError("potential parameters must be finite")
        if self.name == "zero" and p:
            raise ValueError("zero potential takes no parameters")
        if self.name == "constant" and len(p) != 1:
            raise ValueError("constant potential takes exactly one parameter")
        if self.name == "step":
            if len(p) != 2:
                raise ValueError("step potential takes parameters (height, x0)")
            if not (0.0 < p[1] < PI):
                raise ValueError(f"step location must lie in (0, pi), got {p[1]}")
        if self.name == "smooth-test" and len(p) < 1:
            raise ValueError("smooth-test potential needs at least one coefficient")
        object.__setattr__(self, "params", p)

    def _validate_grid(self):
        if self.xs is None or self.qs is None:
            raise ValueError("grid potential needs xs and qs")
        xs = np.asarray(self.xs, dtype=float)
        qs = np.asarray(self.qs, dtype=float)
        if xs.ndim != 1 or xs.shape != qs.shape or xs.size < 2:
            raise ValueError("xs and qs must be matching 1-d arrays with >= 2 samples")
        if not np.all(np.diff(xs) > 0):
            raise ValueError("grid abscissae must be strictly increasing")
        if xs[0] != 0.0:
            raise ValueError(f"grid must start at 0, got {xs[0]!r}")
        if xs[-1] != PI:
            raise ValueError(
                f"grid must end at pi to full double precision, got {xs[-1]!r}"
            )
        if not np.all(np.isfinite(qs)):
            raise ValueError("grid samples must be finite")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "qs", qs)

    # ---- constructors ----

    @classmethod
    def zero(cls) -> "Potential":
        return cls(kind="named", name="zero")

    @classmethod
    def constant(cls, c: float) -> "Potential":
        return cls(kind="named", name="constant", params=(float(c),))

    @classmethod
    def step(cls, c: float, x0: float) -> "Potential":
        return cls(kind="named", name="step", params=(float(c), float(x0)))

    @classmethod
    def smooth_test(cls, coefficients: Sequence[float]) -> "Potential":
        return cls(kind="named", name="smooth-test", params=tuple(float(c) for c in coefficients))

    @classmethod
    def from_grid(cls, xs: Sequence[float], qs: Sequence[float]) -> "Potential":
        return cls(kind="grid", xs=np.asarray(xs, dtype=float), qs=np.asarray(qs, dtype=float))

    @classmethod
    def from_json(cls, spec: str | dict) -> "Potential":
        obj = json.loads(spec) if isinstance(spec, str) else spec
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ValueError("potential spec must be an object with a 'kind' field")
        offset = _json_number(obj.get("offset", 0.0), "'offset'")
        if obj["kind"] == "named":
            return cls(kind="named", name=obj.get("name"),
                       params=_json_numbers(obj.get("params", []), "params"), offset=offset)
        if obj["kind"] == "grid":
            return cls(kind="grid", xs=np.array(_json_numbers(obj["xs"], "xs")),
                       qs=np.array(_json_numbers(obj["qs"], "qs")), offset=offset)
        raise ValueError(f"unknown potential kind {obj['kind']!r}")

    def to_json(self) -> dict:
        if self.kind == "named":
            out: dict = {"kind": "named", "name": self.name, "params": list(self.params)}
        else:
            out = {"kind": "grid", "xs": self.xs.tolist(), "qs": self.qs.tolist()}
        if self.offset != 0.0:
            out["offset"] = self.offset
        return out

    # ---- evaluation ----

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        inside = (arr >= -_DOMAIN_SLACK) & (arr <= PI + _DOMAIN_SLACK)  # False at NaN
        if not inside.all():
            raise ValueError(f"potential evaluated outside [0, pi]: {arr[~inside][:3]!r}")
        arr = np.clip(arr, 0.0, PI)
        if self.kind == "grid":
            vals = np.interp(arr, self.xs, self.qs)
        elif self.name == "zero":
            vals = np.zeros_like(arr)
        elif self.name == "constant":
            vals = np.full_like(arr, self.params[0])
        elif self.name == "step":
            c, x0 = self.params
            vals = np.where(arr <= x0, c, 0.0)
        else:  # smooth-test
            vals = np.zeros_like(arr)
            for j, c in enumerate(self.params, start=1):
                vals = vals + c * np.cos(j * arr)
        vals = vals + self.offset
        if np.isscalar(x) or arr.ndim == 0:
            return float(vals)
        return vals

    @property
    def breakpoints(self) -> tuple[float, ...]:
        """Abscissae where q jumps or kinks (quadrature panel edges)."""
        if self.kind == "grid":
            return tuple(self.xs[1:-1])
        if self.name == "step":
            return (self.params[1],)
        return ()

    @property
    def piecewise_linear(self) -> bool:
        """True when q is linear between its breakpoints: zero, constant, step and grid.

        Then (pi - t) q(t) and sigma are cubics there, which the moment rule
        integrates exactly on one panel per piece (``fourier_moments(...,
        cubic=True)``).  The moment rule takes the breakpoints only then:
        the other potentials have none, and their moments take 2048 panels.
        """
        return self.kind == "grid" or self.name != "smooth-test"

    @property
    def jump_points(self) -> tuple[float, ...]:
        """Abscissae where q is genuinely discontinuous."""
        if self.kind == "named" and self.name == "step":
            return (self.params[1],)
        return ()

    def norm1(self) -> float:
        """L1 norm of q over [0, pi], cached after the first call."""
        if self._norm1 is None:
            value = integrate(lambda t: np.abs(self(t)), 0.0, PI,
                              breakpoints=self.breakpoints)
            object.__setattr__(self, "_norm1", value)
        return self._norm1

    def shifted(self, c: float) -> "Potential":
        """The potential q + c, sharing the base representation exactly."""
        return Potential(kind=self.kind, name=self.name, params=self.params,
                         xs=self.xs, qs=self.qs, offset=self.offset + float(c))


@dataclass
class CumulativeIntegrals:
    """The weighted cumulative integral of a potential and its half-argument form.

    sigma(x)  = integral of (pi - t) q(t) over [0, x]
    sigma_tilde(x) = sigma(x / 2), defined for x in [0, 2 pi]

    Built on a node table with two-point Gauss panels, so piecewise-linear
    potentials (and steps, whose jumps are table nodes) are integrated
    exactly up to rounding.  The L1 norm and the mean of q are
    Potential.norm1 and mean_q.
    """

    q: Potential
    nodes: np.ndarray
    cum_weighted: np.ndarray

    def sigma(self, x):
        arr = np.asarray(x, dtype=float)
        if not ((arr >= -_DOMAIN_SLACK) & (arr <= PI + _DOMAIN_SLACK)).all():
            raise ValueError("cumulative integral evaluated outside [0, pi]")
        arr = np.clip(arr, 0.0, PI)
        i = np.clip(np.searchsorted(self.nodes, arr, side="right") - 1,
                    0, self.nodes.size - 2)
        a = self.nodes[i]
        vals = self.cum_weighted[i] + _gauss2(lambda t: (PI - t) * self.q(t), a, arr)
        if np.isscalar(x) or arr.ndim == 0:
            return float(vals)
        return vals

    def sigma_tilde(self, x):
        arr = np.asarray(x, dtype=float)
        if not ((arr >= -_DOMAIN_SLACK) & (arr <= 2.0 * PI + 2.0 * _DOMAIN_SLACK)).all():
            raise ValueError("sigma_tilde evaluated outside [0, 2 pi]")
        return self.sigma(np.clip(arr, 0.0, 2.0 * PI) / 2.0)


def sigma_functions(q: Potential) -> CumulativeIntegrals:
    """Build the cumulative integrals of q on a shared node table."""
    nodes = np.linspace(0.0, PI, _TABLE_POINTS + 1)
    bps = q.breakpoints
    if bps:
        nodes = _unique(np.concatenate([nodes, np.asarray(bps, dtype=float)]))
    panels = _gauss2(lambda t: (PI - t) * q(t), nodes[:-1], nodes[1:])
    return CumulativeIntegrals(q=q, nodes=nodes,
                               cum_weighted=np.concatenate([[0.0], np.cumsum(panels)]))


def mean_q(q: Potential) -> float:
    """Mean value of the potential, (1 / pi) times its integral over [0, pi].

    Cached on q after the first call, as Potential.norm1 is.
    """
    if q._mean is None:
        object.__setattr__(q, "_mean", integrate(q, 0.0, PI, breakpoints=q.breakpoints) / PI)
    return q._mean
