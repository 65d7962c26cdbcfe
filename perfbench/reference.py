"""Reference values that share nothing with the solver's mesh.

Every potential the workloads generate is a sum of a piecewise-linear part
(panels ``(u, v, a, b)`` meaning ``q = a + b (t - u)`` on ``[u, v]``) and a
cosine sum ``sum_j c_j cos(j t)``.  The references below are closed forms
for that representation:

* eigenvalues of piecewise-constant potentials from the exact Pruefer
  angle, solved by this module's own bisection (not the solver's brackets);
* eigenvalues of ``c cos x`` in the Neumann-Neumann and Dirichlet-Dirichlet
  cases as Mathieu characteristic values, from the Hill (Fourier) matrix;
* norming constants of piecewise-constant potentials from exact per-panel
  integrals of the sinusoidal or hyperbolic solution;
* ``ae_n``, ``sigma`` and the series coefficients from polynomial-times-
  trigonometric moments.

Only numpy is used, so the measured process holds nothing beyond what the
library itself loads.
"""

from __future__ import annotations

import math

import numpy as np

PI = math.pi


class QModel:
    """A potential as panels of degree <= 1 plus a cosine sum."""

    def __init__(self, panels, cosines=()):
        self.panels = [tuple(float(x) for x in p) for p in panels]
        self.cosines = [(int(j), float(c)) for j, c in cosines]

    @property
    def piecewise_constant(self) -> bool:
        return not self.cosines and all(p[3] == 0.0 for p in self.panels)

    @classmethod
    def from_spec(cls, spec: dict) -> "QModel":
        kind, p = spec["family"], spec.get("params", [])
        if kind == "zero":
            return cls([(0.0, PI, 0.0, 0.0)])
        if kind == "constant":
            return cls([(0.0, PI, p[0], 0.0)])
        if kind == "step":
            return cls([(0.0, p[1], p[0], 0.0), (p[1], PI, 0.0, 0.0)])
        if kind == "smooth":
            return cls([(0.0, PI, 0.0, 0.0)], [(j, c) for j, c in enumerate(p, start=1)])
        if kind == "grid":
            xs, qs = spec["xs"], spec["qs"]
            return cls([(xs[i], xs[i + 1], qs[i], (qs[i + 1] - qs[i]) / (xs[i + 1] - xs[i]))
                        for i in range(len(xs) - 1)])
        raise ValueError(f"unknown family {kind!r}")


# ---------------------------------------------------------------------------
# polynomial times trigonometric moments
# ---------------------------------------------------------------------------


def _poly_antideriv(coefs, t):
    """Antiderivative of sum coefs[k] t^k, evaluated at t."""
    return sum(c * t ** (k + 1) / (k + 1) for k, c in enumerate(coefs))


def _deriv(coefs):
    return [k * c for k, c in enumerate(coefs)][1:]


def _poly_eval(coefs, t):
    return sum(c * t ** k for k, c in enumerate(coefs))


def trig_moment(coefs, u, v, omega: float, kind: str):
    """Integral over [u, v] of P(t) sin(omega t) or P(t) cos(omega t).

    P has the monomial coefficients ``coefs``.  Large omega uses the
    repeated integration-by-parts antiderivative; small omega (where that
    cancels) uses the Taylor series of the trigonometric factor.  ``v`` may
    be an array.
    """
    v = np.asarray(v, dtype=float)
    reach = omega * max(abs(u), float(np.max(np.abs(v))))
    if reach < 0.5:
        # sin/cos as power series in omega t, each term a polynomial moment
        total = np.zeros_like(v)
        for m in range(30):
            k = 2 * m + 1 if kind == "sin" else 2 * m
            fac = (-1) ** m * omega ** k / math.factorial(k)
            if fac == 0.0 and m > 0:
                break
            shifted = [0.0] * k + list(coefs)
            total = total + fac * (_poly_antideriv(shifted, v) - _poly_antideriv(shifted, u))
        return total

    def anti(t):
        s, c = np.sin(omega * t), np.cos(omega * t)
        out = 0.0
        d = list(coefs)
        k = 0
        while d:
            p = _poly_eval(d, t)
            # derivatives of P cycle through (sin, cos) with alternating signs
            if kind == "sin":
                term = (-c, s, c, -s)[k % 4]
            else:
                term = (s, c, -s, -c)[k % 4]
            out = out + p * term / omega ** (k + 1)
            d = _deriv(d)
            k += 1
        return out

    return anti(v) - anti(u)


def weighted_sin_integral(model: QModel, omega: float) -> float:
    """Integral over [0, pi] of (pi - t) q(t) sin(omega t)."""
    total = 0.0
    for u, v, a, b in model.panels:
        # (pi - t)(a - b u + b t) as monomial coefficients in t
        a0 = a - b * u
        coefs = [PI * a0, PI * b - a0, -b]
        total += float(trig_moment(coefs, u, v, omega, "sin"))
    for j, c in model.cosines:
        # cos(j t) sin(w t) = (sin((w + j) t) + sin((w - j) t)) / 2
        for w, sign in ((omega + j, 1.0), (abs(omega - j), math.copysign(1.0, omega - j))):
            total += 0.5 * c * sign * float(trig_moment([PI, -1.0], 0.0, PI, w, "sin"))
    return total


def ae(model: QModel, nu: float) -> float:
    """ae at frequency nu: -(1/2) int_0^pi (pi - t) q(t) sin(2 nu t) dt."""
    return -0.5 * weighted_sin_integral(model, 2.0 * nu)


def sigma(model: QModel, x):
    """sigma(x) = int_0^x (pi - t) q(t) dt for x in [0, pi] (array)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for u, v, a, b in model.panels:
        a0 = a - b * u
        coefs = [PI * a0, PI * b - a0, -b]
        top = np.clip(x, u, v)
        out = out + (_poly_antideriv(coefs, top) - _poly_antideriv(coefs, u))
    for j, c in model.cosines:
        out = out + c * trig_moment([PI, -1.0], 0.0, x, float(j), "cos")
    return out


def _sigma_cos_integral(model: QModel, m: int) -> float:
    """int_0^pi sigma(s) cos(2 m s) ds, by parts from the closed forms."""
    if m == 0:
        # pi sigma(pi) - int s (pi - s) q(s) ds
        total = PI * float(sigma(model, PI))
        for u, v, a, b in model.panels:
            a0 = a - b * u
            coefs = [0.0, PI * a0, PI * b - a0, -b]
            total -= _poly_antideriv(coefs, v) - _poly_antideriv(coefs, u)
        for j, c in model.cosines:
            total -= c * float(trig_moment([0.0, PI, -1.0], 0.0, PI, float(j), "cos"))
        return total
    return ae(model, float(m)) / m


def k2_closed_form_dd(model: QModel, grid):
    """pi/2 times the even part of sigma_tilde minus its first three harmonics."""
    grid = np.asarray(grid, dtype=float)
    coefs = [2.0 / PI * _sigma_cos_integral(model, m) for m in range(3)]
    even = 0.5 * (sigma(model, grid / 2.0) + sigma(model, (2.0 * PI - grid) / 2.0))
    return (PI / 2.0) * (even - coefs[0] / 2.0 - coefs[1] * np.cos(grid)
                         - coefs[2] * np.cos(2.0 * grid))


# ---------------------------------------------------------------------------
# index shift and series coefficients
# ---------------------------------------------------------------------------


def _shift_term(nu, s, c):
    return np.arccos(c / np.sqrt(nu * nu * s * s + c * c)) / PI


def index_shift(ns, alpha: float, beta: float) -> np.ndarray:
    """delta_n for an array of n >= 2, by plain vectorised fixed-point iteration."""
    ns = np.asarray(ns, dtype=float)
    sa, ca, sb, cb = math.sin(alpha), math.cos(alpha), math.sin(beta), math.cos(beta)
    d = np.full(ns.shape, 0.5)
    for _ in range(200):
        nxt = _shift_term(ns + d, sa, ca) - _shift_term(ns + d, sb, cb)
        if np.max(np.abs(nxt - d)) <= 1e-15:
            return nxt
        d = nxt
    return d


def series_coefficients(model: QModel, alpha: float, beta: float, N: int):
    """(nus, k, k1, k2) for n = 2..N from the closed forms.

    k = ae_n / nu, k1 = -sigma(pi) sin(2 pi delta_n) / (2 nu), and
    k2 = k - k1 by the integration-by-parts identity the split rests on.
    """
    ns = np.arange(2, N + 1)
    deltas = index_shift(ns, alpha, beta)
    nus = ns + deltas
    k = np.array([ae(model, nu) / nu for nu in nus])
    k1 = -float(sigma(model, PI)) * np.sin(2.0 * PI * deltas) / (2.0 * nus)
    return nus, k, k1, k - k1


def partial_sum_rows(nus, coefs, grid, ladder):
    rows = np.empty((len(ladder), grid.size))
    acc = np.zeros(grid.size)
    pos = 0
    for i, n_stop in enumerate(ladder):
        while pos < n_stop - 1:
            acc += coefs[pos] * np.cos(nus[pos] * grid)
            pos += 1
        rows[i] = acc
    return rows


# ---------------------------------------------------------------------------
# piecewise-constant potentials: eigenvalues and norming constants
# ---------------------------------------------------------------------------


def _const_panels(model: QModel):
    if not model.piecewise_constant:
        raise ValueError("exact Pruefer references need a piecewise-constant potential")
    return [(v - u, a) for u, v, a, _ in model.panels]


def _pruefer_end(panels, theta, mu):
    """Continuous Pruefer angle (y = r sin, y' = r cos) across all panels."""
    for length, c in panels:
        w = mu - c
        m = np.floor(theta / PI)
        r = theta - m * PI
        pos = w > 0.0
        k = np.sqrt(np.where(pos, w, 1.0))
        # oscillatory panels: the scaled angle advances by exactly k * length
        psi = np.arctan2(k * np.sin(r), np.cos(r)) + k * length
        mp = np.floor(psi / PI)
        rp = psi - mp * PI
        osc = (m + mp) * PI + np.arctan2(np.sin(rp), k * np.cos(rp))
        # non-oscillatory panels: at most one zero, read off the end state
        kap = np.sqrt(np.where(pos, 1.0, -w))
        kl = kap * length
        th = np.tanh(kl)
        t_over_k = np.where(kl < 1e-8, length, th / np.where(kl < 1e-8, 1.0, kap))
        y_end = np.sin(r) + np.cos(r) * t_over_k
        yp_end = np.sin(r) * kap * th + np.cos(r)
        phi = np.arctan2(y_end, yp_end)
        phi = np.where(phi < 0.0, phi + 2.0 * PI, phi)
        hyp = m * PI + phi
        theta = np.where(pos, osc, hyp)
    return theta


def eigenvalues_piecewise_constant(model: QModel, alpha: float, beta: float, n_max: int):
    """mu_0..mu_{n_max} from theta(pi; mu) = (n + 1) pi - beta, by bisection."""
    panels = _const_panels(model)
    theta0 = PI - alpha
    targets = (np.arange(n_max + 1) + 1.0) * PI - beta
    heights = [c for _, c in panels]
    lo = np.full(n_max + 1, min(heights) - 1.0)
    hi = np.array([(n + 2.0) ** 2 + max(heights) + 1.0 for n in range(n_max + 1)])
    start = np.full(n_max + 1, theta0)
    for _ in range(200):
        low_ok = _pruefer_end(panels, start, lo) < targets
        if np.all(low_ok):
            break
        lo = np.where(low_ok, lo, 2.0 * lo - 1.0)
    for _ in range(200):
        high_ok = _pruefer_end(panels, start, hi) > targets
        if np.all(high_ok):
            break
        hi = np.where(high_ok, hi, 2.0 * hi + 1.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.all((mid <= lo) | (mid >= hi)):
            break
        below = _pruefer_end(panels, start, mid) < targets
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _square_integrals(w, length):
    """int_0^L of C^2, C S and S^2 for u'' = -w u, C(0)=1, S'(0)=1."""
    z = w * length * length
    if abs(z) < 1e-2:
        # termwise products of the power series of C and S
        cc = cs = ss = 0.0
        for i in range(10):
            ci = (-w) ** i / math.factorial(2 * i)
            si = (-w) ** i / math.factorial(2 * i + 1)
            for j in range(10):
                cj = (-w) ** j / math.factorial(2 * j)
                sj = (-w) ** j / math.factorial(2 * j + 1)
                cc += ci * cj * length ** (2 * i + 2 * j + 1) / (2 * i + 2 * j + 1)
                cs += ci * sj * length ** (2 * i + 2 * j + 2) / (2 * i + 2 * j + 2)
                ss += si * sj * length ** (2 * i + 2 * j + 3) / (2 * i + 2 * j + 3)
        return cc, cs, ss
    if w > 0.0:
        k = math.sqrt(w)
        s2 = math.sin(2.0 * k * length) / (4.0 * k)
        return (length / 2.0 + s2, math.sin(k * length) ** 2 / (2.0 * w),
                (length / 2.0 - s2) / w)
    k = math.sqrt(-w)
    s2 = math.sinh(2.0 * k * length) / (4.0 * k)
    return (length / 2.0 + s2, math.sinh(k * length) ** 2 / (-2.0 * w),
            (s2 - length / 2.0) / (-w))


def _propagate(w, length, y, yp):
    if w > 0.0:
        k = math.sqrt(w)
        c, s = math.cos(k * length), math.sin(k * length) / k
    elif w < 0.0:
        k = math.sqrt(-w)
        c, s = math.cosh(k * length), math.sinh(k * length) / k
    else:
        c, s = 1.0, length
    return c * y + s * yp, -w * s * y + c * yp


def norm_squared(model: QModel, mu: float, y0: float, yp0: float, forward: bool) -> float:
    """Exact int_0^pi y^2 for the solution with (y0, yp0) at 0 (or at pi)."""
    panels = _const_panels(model)
    if not forward:
        # reflect x -> pi - x: the derivative changes sign, panels reverse
        panels = panels[::-1]
        yp0 = -yp0
    y, yp = y0, yp0
    total = 0.0
    for length, c in panels:
        w = mu - c
        cc, cs, ss = _square_integrals(w, length)
        total += y * y * cc + 2.0 * y * yp * cs + yp * yp * ss
        y, yp = _propagate(w, length, y, yp)
    return total


# ---------------------------------------------------------------------------
# Mathieu characteristic values
# ---------------------------------------------------------------------------


def mathieu_cos_eigenvalues(c: float, dirichlet: bool, n_max: int) -> np.ndarray:
    """Eigenvalues of -y'' + c cos(x) y on [0, pi], NN or DD, indices 0..n_max.

    x = 2z turns the problem into Mathieu's equation with a = 4 mu and
    q = 2c: Neumann-Neumann gives a_{2n}(q) (even, period pi), Dirichlet-
    Dirichlet gives b_{2n+2}(q).  Both are eigenvalues of the symmetric
    tridiagonal Hill matrix in the cos(2kz) or sin(2kz) basis, which
    converges geometrically in its size.
    """
    q = 2.0 * c
    size = n_max + 60
    if dirichlet:
        diag = (2.0 * np.arange(1, size + 1)) ** 2
        off = np.full(size - 1, q)
    else:
        diag = (2.0 * np.arange(size)) ** 2
        off = np.full(size - 1, q)
        off[0] = math.sqrt(2.0) * q
    a = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return a[: n_max + 1] / 4.0
