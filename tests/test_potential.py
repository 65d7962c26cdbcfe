import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slspectra import (
    BoundaryParams,
    Potential,
    QuadratureError,
    integrate,
    k_partial_sum,
    mean_q,
    sigma_functions,
)
from slspectra import potential
from slspectra.potential import fourier_moments

from conftest import uneven_grid

PI = math.pi


class TestIntegrate:
    def test_exact_oracles(self):
        assert integrate(lambda t: np.sin(3 * t) ** 2, 0.0, PI) == pytest.approx(PI / 2, abs=1e-10)
        assert integrate(lambda t: np.ones_like(t), 0.0, PI) == pytest.approx(PI, abs=1e-12)

    def test_weighted_oscillatory_antiderivative(self):
        # int_0^pi (pi - t) sin(2 n t) dt = pi / (2 n), here n = 4
        val = integrate(lambda t: (PI - t) * np.sin(8 * t), 0.0, PI, freq=8.0)
        assert val == pytest.approx(PI / 8, abs=1e-10)

    def test_high_frequency_seeding(self):
        val = integrate(lambda t: np.sin(100 * t) ** 2, 0.0, PI, freq=200.0)
        assert val == pytest.approx(PI / 2, abs=1e-9)

    def test_empty_interval(self):
        assert integrate(lambda t: np.ones_like(t), 1.0, 1.0) == 0.0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            integrate(lambda t: t, 1.0, 0.0)
        with pytest.raises(ValueError):
            integrate(lambda t: t, 0.0, 1.0, tol=0.0)

    @pytest.mark.parametrize("freq", [math.nan, math.inf, -1.0])
    def test_freq_must_be_finite_and_non_negative(self, freq):
        with pytest.raises(ValueError, match="^freq must be finite and >= 0"):
            integrate(lambda t: t, 0.0, 1.0, freq=freq)

    # each call once halved its NaN panels at every level until memory ran
    # out, so they run in a child process under an address-space cap
    @pytest.mark.parametrize("call,error", [
        ("integrate(lambda t: t, 0.0, math.nan)", "ValueError"),
        ("integrate(lambda t: t, -math.inf, 1.0)", "ValueError"),
        ("integrate(lambda t: t, 0.0, math.inf)", "ValueError"),
        ("integrate(lambda t: np.where(t < 0.5, np.nan, t), 0.0, 1.0)", "QuadratureError"),
        ("kernel_A(Potential.step(2.0, math.pi / 2), 5.0, math.nan)", "ValueError"),
    ], ids=["nan-bound", "-inf-bound", "inf-bound", "nan-panel", "kernel"])
    def test_non_finite_input_fails_fast(self, call, error):
        code = (
            "import math, resource, time\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "import numpy as np\n"
            "from slspectra import Potential, integrate, kernel_A\n"
            "start = time.process_time()\n"
            "try:\n"
            f"    {call}\n"
            "except Exception as exc:\n"
            "    print(type(exc).__name__, time.process_time() - start)\n"
            "else:\n"
            "    print('returned', time.process_time() - start)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(Path(__file__).resolve().parent.parent / "src"),
                        env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        name, seconds = proc.stdout.split()
        assert name == error and float(seconds) < 5.0

    def test_jump_at_breakpoint_is_exact(self):
        q = Potential.step(2.0, PI / 2)
        val = integrate(q, 0.0, PI, breakpoints=q.breakpoints)
        assert val == pytest.approx(PI, abs=1e-13)

    def test_hidden_singularity_raises(self):
        # integrable singularity with no declared breakpoint never certifies
        f = lambda t: 1.0 / np.sqrt(np.abs(t - 0.3))
        with pytest.raises(QuadratureError) as info:
            integrate(f, 0.0, 2.0, tol=1e-10)
        err = info.value
        assert math.isfinite(err.estimate)
        assert err.error_bound > 0

    @given(split=st.floats(min_value=0.3, max_value=2.8))
    @settings(max_examples=25, deadline=None)
    def test_additivity(self, split):
        f = lambda t: t ** 3 - 2.0 * t + np.sin(t)
        whole = integrate(f, 0.0, PI, tol=1e-11)
        parts = integrate(f, 0.0, split, tol=1e-11) + integrate(f, split, PI, tol=1e-11)
        assert whole == pytest.approx(parts, abs=2e-11)


@pytest.mark.parametrize("values", [
    np.array([]), np.array([2.5]), np.array([3.0, 1.0, 3.0, -0.5, 1.0, 1.0]),
    np.random.default_rng(1).integers(0, 40, 300), np.random.default_rng(2).normal(size=50),
    np.round(np.random.default_rng(3).normal(size=400), 1),
], ids=["empty", "one", "repeats", "ints", "distinct", "rounded"])
def test_unique_matches_numpy(values):
    got = potential._unique(values, return_index=True, return_inverse=True)
    want = np.unique(values, return_index=True, return_inverse=True)
    for g, w in zip(got, want):
        assert np.array_equal(g, w) and g.dtype == w.dtype
    assert np.array_equal(potential._unique(values), want[0])


def _polynomial_moments(pieces, omega):
    """Exact (cos, sin) moments of a piecewise polynomial at omega != 0.

    pieces holds (a, b, Polynomial); int p e^{i w t} = e^{i w t} sum_m
    (-1)^m p^(m) / (i w)^(m + 1) by repeated integration by parts.
    """
    total = 0j
    for a, b, p in pieces:
        for t, sign in ((b, 1.0), (a, -1.0)):
            term, d = 0j, p
            for m in range(p.degree() + 1):
                term += (-1) ** m * d(t) / (1j * omega) ** (m + 1)
                d = d.deriv()
            total += sign * np.exp(1j * omega * t) * term
    return total.real, total.imag


def _mp_pieces(q, mp):
    """(a, b, coefficients in t of (pi - t) q(t)) on each piece of a piecewise-linear q.

    Exact in mpmath; pi is the float PI, the right end and weight that the
    library integrates with.
    """
    pi = mp.mpf(PI)
    if q.kind == "grid":
        nodes = [mp.mpf(float(x)) for x in q.xs]
        values = [mp.mpf(float(y)) + q.offset for y in q.qs]
        ends = list(zip(values[:-1], values[1:]))
    else:
        # zero, constant and step are constant on each piece
        cuts = [0.0, *q.breakpoints, PI]
        nodes = [mp.mpf(x) if x != PI else pi for x in cuts]
        ends = [(mp.mpf(q(0.5 * (a + b))),) * 2 for a, b in zip(cuts[:-1], cuts[1:])]
    pieces = []
    for a, b, (qa, qb) in zip(nodes[:-1], nodes[1:], ends):
        slope = (qb - qa) / (b - a)
        start = qa - a * slope
        pieces.append((a, b, [pi * start, pi * slope - start, -slope]))
    return pieces


def _mp_value(p, t):
    return sum(c * t ** i for i, c in enumerate(p))


def _mp_sigma_pieces(pieces):
    """Pieces of sigma(x) = int_0^x of the pieces' polynomial, continuous from sigma(0) = 0."""
    out, level = [], 0
    for a, b, p in pieces:
        antiderivative = [0] + [c / (i + 1) for i, c in enumerate(p)]
        antiderivative[0] = level - _mp_value(antiderivative, a)
        out.append((a, b, antiderivative))
        level = _mp_value(antiderivative, b)
    return out


def _mp_moment(pieces, w, mp):
    """Exact int p(t) e^{i w t} over the pieces, by repeated integration by parts."""
    total = mp.mpc(0)
    for a, b, p in pieces:
        if w == 0:
            antiderivative = [0] + [c / (i + 1) for i, c in enumerate(p)]
            total += _mp_value(antiderivative, b) - _mp_value(antiderivative, a)
            continue
        for t, sign in ((b, 1), (a, -1)):
            term, d, m = mp.mpc(0), p, 0
            while d:
                term += (-1) ** m * _mp_value(d, t) / (1j * w) ** (m + 1)
                d, m = [i * c for i, c in enumerate(d)][1:], m + 1
            total += sign * mp.expj(w * t) * term
    return total


class TestFourierMoments:
    # 2.37 and 80.9 are off the integers; at 5000.3 the panels' |w r|
    # exceeds 1, where the Bessel weights take the closed form
    OMEGAS = np.array([2.37, 80.9, 5000.3])

    def _check(self, f, breakpoints, pieces, omegas=OMEGAS):
        cos_m, sin_m = fourier_moments(f, np.concatenate([[0.0], omegas]), breakpoints, cubic=True)
        assert cos_m[0] == pytest.approx(sum(p.integ()(b) - p.integ()(a) for a, b, p in pieces),
                                         abs=1e-12)
        assert sin_m[0] == 0.0
        for i, w in enumerate(omegas, start=1):
            want_c, want_s = _polynomial_moments(pieces, w)
            assert abs(cos_m[i] - want_c) <= 1e-12
            assert abs(sin_m[i] - want_s) <= 1e-12

    def test_zero_is_exactly_zero(self):
        cos_m, sin_m = fourier_moments(Potential.zero(), self.OMEGAS)
        assert np.all(cos_m == 0.0) and np.all(sin_m == 0.0)

    @pytest.mark.parametrize("q", [Potential.constant(1.7), Potential.constant(1.0).shifted(0.5)],
                             ids=["constant", "offset"])
    def test_constant(self, q):
        c = float(q(0.0))
        self._check(q, q.breakpoints, [(0.0, PI, np.polynomial.Polynomial([c]))])

    def test_step_on_panel_edge_with_weight(self):
        # pi/2 is already an edge of the uniform panels; (pi - t) q is linear
        q = Potential.step(2.0, PI / 2)
        P = np.polynomial.Polynomial
        self._check(lambda t: (PI - t) * q(t), q.breakpoints,
                    [(0.0, PI / 2, 2.0 * P([PI, -1.0])), (PI / 2, PI, P([0.0]))])

    def test_grid_with_weight(self):
        # piecewise linear q on an irregular grid: (pi - t) q is piecewise quadratic
        xs = np.concatenate([[0.0], np.sort(np.random.default_rng(3).uniform(0.1, 3.0, 11)), [PI]])
        qs = np.random.default_rng(4).normal(size=xs.size)
        q = Potential.from_grid(xs, qs)
        P = np.polynomial.Polynomial
        pieces = []
        for a, b, qa, qb in zip(xs[:-1], xs[1:], qs[:-1], qs[1:]):
            line = P([qa - a * (qb - qa) / (b - a), (qb - qa) / (b - a)])
            pieces.append((a, b, P([PI, -1.0]) * line))
        self._check(lambda t: (PI - t) * q(t), q.breakpoints, pieces)

    def test_cosine_sum(self):
        # cos(j t) cos(w t) and cos(j t) sin(w t) by product-to-sum
        coeffs = [1.0, -0.5, 0.3]
        q = Potential.smooth_test(coeffs)
        cos_m, sin_m = fourier_moments(q, self.OMEGAS)
        for i, w in enumerate(self.OMEGAS):
            want_c = want_s = 0.0
            for j, c in enumerate(coeffs, start=1):
                for k in (w + j, w - j):
                    want_c += 0.5 * c * math.sin(k * PI) / k
                    want_s += 0.5 * c * (1.0 - math.cos(k * PI)) / k
            assert abs(cos_m[i] - want_c) <= 1e-12
            assert abs(sin_m[i] - want_s) <= 1e-12

    _uneven_grid = staticmethod(uneven_grid)

    @pytest.mark.parametrize("make", [
        lambda: Potential.step(2.0, 1.0),
        lambda: Potential.from_grid(*TestFourierMoments._uneven_grid(5)),
        lambda: Potential.smooth_test([1.0, -0.5, 0.3]),
    ], ids=["step", "grid64", "smooth"])
    def test_batch_invariance(self, make):
        # every batch gets the same panel layout, so a
        # frequency's moment must not depend on the others in its call
        q = make()
        omegas = np.concatenate([[0.0, 1.0, -3.3],
                                 np.random.default_rng(6).uniform(0.0, 1300.0, 300)])
        cos_m, sin_m = fourier_moments(q, omegas, q.breakpoints, cubic=q.piecewise_linear)
        for i, w in enumerate(omegas):
            alone = fourier_moments(q, w, q.breakpoints, cubic=q.piecewise_linear)
            assert alone[0] == cos_m[i] and alone[1] == sin_m[i]

    @pytest.mark.parametrize("make", [
        lambda: Potential.step(2.0, 1.0),
        lambda: Potential.from_grid(*TestFourierMoments._uneven_grid(5)),
        lambda: Potential.from_grid(*TestFourierMoments._packed_grid()),
        lambda: Potential.smooth_test([1.0, -0.5, 0.3]),
    ], ids=["step", "grid64", "packed", "smooth"])
    # the ids name the panel counts before the closed-form Bessel weights;
    # 2e4 reaches |w r| = 15 on the 2048 panels and up to 2.9e4 on whole pieces
    @pytest.mark.parametrize("top", [1300.0, 2e4], ids=["2048-panels", "31417-panels"])
    def test_stacked_integrands(self, make, top):
        # two integrands in one call share the phases and the Bessel weights,
        # yet each value is the one a call with that integrand alone returns
        q = make()
        omegas = np.concatenate([[0.0, 1.0, -3.3],
                                 np.random.default_rng(6).uniform(0.0, 1300.0, 300), [top]])
        first = lambda t: (PI - t) * q(t)
        cubic = q.piecewise_linear
        both = fourier_moments(lambda t: np.stack([q(t), first(t)]), omegas, q.breakpoints,
                               cubic=cubic)
        for i, f in enumerate((q, first)):
            alone = fourier_moments(f, omegas, q.breakpoints, cubic=cubic)
            assert np.array_equal(both[0][i], alone[0]) and np.array_equal(both[1][i], alone[1])

    # the ids name the panel counts of an earlier rule; each piece is now one panel
    @pytest.mark.parametrize("omegas", [OMEGAS[:2], OMEGAS], ids=["2048-panels", "7855-panels"])
    def test_uneven_pieces(self, omegas):
        P = np.polynomial.Polynomial
        # a piece of width 1e-3 next to one 3000 times as wide
        q = Potential.step(2.0, 1e-3)
        self._check(q, q.breakpoints, [(0.0, 1e-3, P([2.0])), (1e-3, PI, P([0.0]))], omegas)
        xs, qs = self._uneven_grid(8)
        q = Potential.from_grid(xs, qs)
        pieces = []
        for a, b, qa, qb in zip(xs[:-1], xs[1:], qs[:-1], qs[1:]):
            line = P([qa - a * (qb - qa) / (b - a), (qb - qa) / (b - a)])
            pieces.append((a, b, P([PI, -1.0]) * line))
        self._check(lambda t: (PI - t) * q(t), q.breakpoints, pieces, omegas)

    def test_step_at_high_frequency(self):
        # whole pieces, |w r| up to 2.1e4; int_0^x0 c e^{i w t} dt = c (sin(w x0) + i (1 - cos(w x0))) / w
        c, x0 = 3.0, 1.0
        omegas = np.array([2e4, 2e4 + 0.37])
        cos_m, sin_m = fourier_moments(Potential.step(c, x0), omegas, (x0,), cubic=True)
        assert np.max(np.abs(cos_m - c * np.sin(omegas * x0) / omegas)) <= 1e-14
        assert np.max(np.abs(sin_m - c * (1.0 - np.cos(omegas * x0)) / omegas)) <= 1e-14

    @staticmethod
    def _packed_grid():
        # 198 short pieces on [0, 0.2] next to one long piece
        xs = np.append(np.linspace(0.0, 0.2, 199), PI)
        return xs, np.cos(xs)

    @pytest.mark.parametrize("grid", [lambda: TestFourierMoments._uneven_grid(5),
                                      lambda: TestFourierMoments._packed_grid()],
                             ids=["grid64", "packed"])
    def test_memory_peak(self, grid):
        # whole pieces, one integrand and two stacked ones: the Bessel table
        # holds four entries per distinct radius, one radius per piece on grid64
        q = Potential.from_grid(*grid())
        omegas = 2.0 * (np.arange(2, 401) + 0.37)
        for f in (q, lambda t: np.stack([q(t), (PI - t) * q(t)])):
            tracemalloc.start()
            try:
                fourier_moments(f, omegas, q.breakpoints, cubic=q.piecewise_linear)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2.5e6

    @pytest.mark.parametrize("make", [
        lambda: Potential.step(2.0, 1.0),
        lambda: Potential.from_grid(*TestFourierMoments._uneven_grid(5)),
        lambda: Potential.from_grid(*TestFourierMoments._packed_grid()),
        lambda: Potential.smooth_test([1.0, -0.5, 0.3]),
    ], ids=["step", "grid64", "packed", "smooth"])
    def test_blocks_and_appended_frequencies_keep_values(self, make, monkeypatch):
        # a frequency's moment does not depend on how the call is cut into
        # blocks and Bessel tables, nor on the frequencies appended after it:
        # the k-series appends the closed form's harmonics to its 2 nu
        q = make()
        f = lambda t: np.stack([q(t), (PI - t) * q(t)])
        omegas = 2.0 * (np.arange(2, 402) + 0.37)
        harmonics = [0.0, 2.0, 4.0]
        moments = lambda w: fourier_moments(f, w, q.breakpoints, cubic=q.piecewise_linear)
        want, alone, both = moments(omegas), moments(harmonics), moments(np.append(omegas, harmonics))
        for got, ref, other in zip(both, want, alone):
            assert np.array_equal(got[:, :omegas.size], ref)
            assert np.array_equal(got[:, omegas.size:], other)
        for elems in (512, 65536):
            monkeypatch.setattr(potential, "_MOMENT_ELEMS", elems)
            for got, ref in zip(moments(omegas), want):
                assert np.array_equal(got, ref)

    @pytest.mark.parametrize("make, most", [
        (lambda: Potential.step(2.0, 1.0), 4),
        (lambda: Potential.from_grid(*TestFourierMoments._packed_grid()), 398),
        (lambda: Potential.smooth_test([1.0, -0.5, 0.3]), 96),
    ], ids=["step", "packed", "smooth"])
    def test_phases_per_frequency(self, make, most, monkeypatch):
        # whole pieces take one phase per piece and at most one Bessel sine
        # per piece; the 2048 panels' factorised phases take 32 low and 64
        # high ones, where one per panel would take 2048.  Two stacked
        # integrands share them, so they stay within that bound.  Sines are
        # counted, each with its cosine, since q's own values take cosines
        q = make()
        sin = np.sin
        omegas = 2.0 * (np.arange(2, 101) + 0.37)
        for f in (q, lambda t: np.stack([q(t), (PI - t) * q(t)])):
            seen = []
            monkeypatch.setattr(potential.np, "sin", lambda x: seen.append(np.size(x)) or sin(x))
            fourier_moments(f, omegas, q.breakpoints, cubic=q.piecewise_linear)
            assert 0 < sum(seen) <= most * omegas.size

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_frequencies(self, bad):
        with pytest.raises(ValueError, match="moment frequencies must be finite"):
            fourier_moments(Potential.constant(1.0), [1.0, bad])

    @pytest.mark.parametrize("pieces", [64, 256, 1024])
    def test_uniform_grid_panel_counts(self, pieces):
        # the panels are read off the shape of f's argument, (panels, 4):
        # 2048 without breakpoints, one per piece with cubic=True, and
        # breakpoints without cubic=True are refused before f is called
        xs = np.linspace(0.0, PI, pieces + 1)
        q = Potential.from_grid(xs, np.cos(xs))
        shapes = []
        f = lambda t: shapes.append(t.shape) or q(t)
        fourier_moments(f, [1.0, 2e4])
        fourier_moments(f, [1.0, 2e4], q.breakpoints, cubic=True)
        with pytest.raises(ValueError, match="interior breakpoints need cubic=True"):
            fourier_moments(f, [1.0, 2e4], q.breakpoints)
        assert shapes == [(2048, 4), (pieces, 4)]

    def test_smooth_at_high_frequency(self):
        # moments at w = 2e4 on 2048 panels, against mpmath: for
        # q = sum c_j cos(j t), int q e^{i w t} and int (pi - t) q e^{i w t}
        # are sums of G(w +- j) and F(w +- j)
        mpmath = pytest.importorskip("mpmath")
        coeffs = [1.0, -0.5]
        q = Potential.smooth_test(coeffs)
        omegas = np.array([2e4, 2e4 + 0.37, 1.5e4 - 0.3])
        cos_m, sin_m = fourier_moments(lambda t: np.stack([q(t), (PI - t) * q(t)]), omegas)
        with mpmath.workdps(30):
            pi = mpmath.mpf(PI)

            def G(a):
                return (mpmath.expj(a * pi) - 1) / (1j * a)

            def F(a):
                return -pi / (1j * a) - (mpmath.expj(a * pi) - 1) / a ** 2

            for i, w in enumerate(omegas):
                w = mpmath.mpf(float(w))
                for k, H in enumerate((G, F)):
                    want = sum(c * (H(w + j) + H(w - j)) / 2 for j, c in enumerate(coeffs, start=1))
                    assert abs(cos_m[k, i] - float(want.real)) <= 5e-15
                    assert abs(sin_m[k, i] - float(want.imag)) <= 5e-15

    def test_shape_follows_omegas(self):
        cos_m, sin_m = fourier_moments(Potential.constant(1.0), 3.0)
        assert cos_m.shape == () and sin_m.shape == ()
        cos_m, _ = fourier_moments(Potential.constant(1.0), np.ones((2, 3)))
        assert cos_m.shape == (2, 3)
        # stacked integrands lead: f returns shape (4, 1) + t.shape
        stacked = lambda t: np.ones((4, 1) + np.shape(t)) * np.arange(4.0)[:, None, None, None]
        cos_m, sin_m = fourier_moments(stacked, np.ones((2, 3)))
        assert cos_m.shape == (4, 1, 2, 3) and sin_m.shape == (4, 1, 2, 3)
        assert np.all(cos_m[2] == fourier_moments(lambda t: 2.0 * np.ones_like(t),
                                                  np.ones((2, 3)))[0])
        cos_m, _ = fourier_moments(stacked, 3.0)
        assert cos_m.shape == (4, 1)


_XS13 = np.append(np.arange(12) * PI / 12, PI)


class TestWholePieceMoments:
    """cubic=True: one panel per piece, exact for the moment integrands of piecewise-linear q."""

    OMEGAS = np.concatenate([[0.0, 0.3, -2.37], 2.0 * (np.arange(2, 401, 37) + 0.37),
                             [1303.0, 5000.3, 2e4]])

    @pytest.mark.parametrize("make", [
        lambda: Potential.zero(),
        lambda: Potential.constant(1.7),
        lambda: Potential.step(2.3, 1.1),
        lambda: Potential.step(-1.5, 0.4).shifted(0.7),
        lambda: Potential.from_grid(_XS13, np.sin(2 * _XS13) + _XS13 / 3),
        lambda: Potential.from_grid(*uneven_grid(5)),
    ], ids=["zero", "constant", "step", "offset-step", "grid13", "grid64"])
    def test_against_mpmath(self, make):
        # (pi - t) q(t) and sigma, stacked as the k-series stacks them,
        # against exact antiderivatives of polynomial x e^{i w t}
        mpmath = pytest.importorskip("mpmath")
        q = make()
        assert q.piecewise_linear
        ci = sigma_functions(q)
        cos_m, sin_m = fourier_moments(lambda t: np.stack([(PI - t) * q(t), ci.sigma(t)]),
                                       self.OMEGAS, q.breakpoints, cubic=True)
        with mpmath.workdps(30):
            weighted = _mp_pieces(q, mpmath)
            for k, pieces in enumerate((weighted, _mp_sigma_pieces(weighted))):
                for i, w in enumerate(self.OMEGAS):
                    want = _mp_moment(pieces, mpmath.mpf(float(w)), mpmath)
                    assert abs(cos_m[k, i] - float(want.real)) <= 5e-14
                    assert abs(sin_m[k, i] - float(want.imag)) <= 5e-14

    def test_zero_is_exactly_zero(self):
        cos_m, sin_m = fourier_moments(Potential.zero(), self.OMEGAS, cubic=True)
        assert np.all(cos_m == 0.0) and np.all(sin_m == 0.0)


class TestBesselWeights:
    """2 r i^k j_k(theta): the ten-term series where |theta| <= 1, the closed form above."""

    @staticmethod
    def _j(theta):
        # r = 1/2 makes 2 r = 1, and the product with conj(i^k) is exact
        weights = potential._bessel_weights(np.asarray(theta, dtype=float)[:, None], 0.5)
        return (weights * np.conj(potential._I_POWERS)).real

    def test_closed_form_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        theta = np.concatenate([[np.nextafter(1.0, 2.0)], np.geomspace(1.0, 2e4, 200)[1:]])
        theta = np.concatenate([theta, -theta])
        got = self._j(theta)
        with mpmath.workdps(30):
            for t, row in zip(theta, got):
                x = mpmath.mpf(abs(float(t)))
                for k, value in enumerate(row):
                    want = mpmath.sqrt(mpmath.pi / (2 * x)) * mpmath.besselj(k + 0.5, x)
                    want *= -1 if t < 0 and k % 2 else 1
                    assert abs(value - float(want)) * max(1.0, abs(t)) <= 2e-15

    def test_dense_just_above_one_against_mpmath(self):
        # the closed forms of j_2 and j_3 cancel just above |theta| = 1 (j_3
        # was 1.1e-13 off at 1.10); their series now runs to 2.5
        mpmath = pytest.importorskip("mpmath")
        theta = np.linspace(1.0, 4.0, 601)[1:]
        got = self._j(np.concatenate([theta, -theta]))
        with mpmath.workdps(30):
            for t, row in zip(np.concatenate([theta, -theta]), got):
                x = mpmath.mpf(abs(float(t)))
                for k in (2, 3):
                    want = mpmath.sqrt(mpmath.pi / (2 * x)) * mpmath.besselj(k + 0.5, x)
                    want *= -1 if t < 0 and k % 2 else 1
                    assert abs(row[k] - float(want)) <= 1e-14 * abs(float(want))

    def test_j2_j3_branches_meet_at_their_limit(self):
        limit = potential._BESSEL_LIMITS[2]
        above = np.nextafter(limit, 4.0)
        at, beyond = self._j([limit, -limit]), self._j([above, -above])
        assert np.max(np.abs(at - beyond)[:, 2:]) <= 1e-15

    def test_branches_meet_at_one(self):
        # the series at |theta| = 1 and the closed form one ulp above
        above = np.nextafter(1.0, 2.0)
        at, beyond = self._j([1.0, -1.0]), self._j([above, -above])
        assert np.max(np.abs(at - beyond)) <= 1e-15

    def test_series_below_one_is_kept(self):
        # |theta| <= 1 takes the series bit for bit, even beside closed-form entries
        theta = np.array([0.0, 1e-3, -0.5, 1.0, 3.0, -40.0])[:, None]
        radius = np.array([0.25])
        rows = potential._BESSEL_SERIES  # the twelve-term series
        assert len(rows) == 12
        bessel = rows[-1]
        for row in rows[-2::-1]:
            bessel = bessel * theta * theta + row
        series = 2.0 * radius * potential._I_POWERS * theta ** np.arange(4) * bessel
        assert np.array_equal(potential._bessel_weights(theta, radius)[:4], series[:4])


class TestPotential:
    def test_named_values(self):
        assert Potential.zero()(1.3) == 0.0
        assert Potential.constant(2.5)(0.7) == 2.5
        q = Potential.step(2.0, PI / 2)
        assert q(1.0) == 2.0
        assert q(2.0) == 0.0
        qc = Potential.smooth_test([1.0])
        x = np.linspace(0, PI, 50)
        assert np.allclose(qc(x), np.cos(x))

    def test_smooth_test_combination(self):
        q = Potential.smooth_test([2.0, -1.0])
        x = np.linspace(0, PI, 21)
        assert np.allclose(q(x), 2 * np.cos(x) - np.cos(2 * x))

    def test_grid_interpolation(self):
        q = Potential.from_grid([0.0, 1.0, PI], [0.0, 2.0, 0.0])
        assert q(0.5) == pytest.approx(1.0)
        assert q(1.0) == pytest.approx(2.0)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            Potential.zero()(PI + 0.1)
        with pytest.raises(ValueError):
            Potential.zero()(-0.1)
        # NaN once evaluated to q's value on the last piece
        for x in (math.nan, np.array([0.5, math.nan])):
            with pytest.raises(ValueError, match="^potential evaluated outside"):
                Potential.step(2.0, PI / 2)(x)

    @pytest.mark.parametrize("bad", [
        dict(kind="named", name="nope"),
        dict(kind="named", name="constant", params=()),
        dict(kind="named", name="constant", params=(math.nan,)),
        dict(kind="named", name="step", params=(1.0, PI)),
        dict(kind="named", name="smooth-test", params=()),
        dict(kind="grid", xs=np.array([0.0, 1.0]), qs=np.array([1.0, 2.0])),
        dict(kind="grid", xs=np.array([0.1, PI]), qs=np.array([1.0, 2.0])),
        dict(kind="grid", xs=np.array([0.0, 0.0, PI]), qs=np.array([1.0, 2.0, 3.0])),
        dict(kind="grid", xs=np.array([0.0, PI]), qs=np.array([1.0, math.inf])),
        dict(kind="other"),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            Potential(**bad)

    @pytest.mark.parametrize("bad,message", [
        (dict(kind="named", name="constant", params=(1.0,), offset=math.inf),
         "offset must be finite"),
        (dict(kind="named", name="zero", params=(1.0,)), "zero potential takes no parameters"),
        (dict(kind="named", name="step", params=(1.0,)),
         "step potential takes parameters (height, x0)"),
        (dict(kind="grid", xs=np.array([0.0, PI])), "grid potential needs xs and qs"),
        (dict(kind="grid", xs=np.array([0.0, PI]), qs=np.array([1.0, 2.0, 3.0])),
         "xs and qs must be matching 1-d arrays with >= 2 samples"),
    ], ids=["offset", "zero-params", "step-params", "grid-missing", "grid-shapes"])
    def test_validation_messages(self, bad, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Potential(**bad)
        with pytest.raises(ValueError, match="unknown potential kind 'other'"):
            Potential.from_json('{"kind":"other"}')

    def test_breakpoints(self):
        assert Potential.step(2.0, 1.0).breakpoints == (1.0,)
        assert Potential.step(2.0, 1.0).jump_points == (1.0,)
        assert Potential.constant(1.0).breakpoints == ()
        grid = Potential.from_grid([0.0, 1.0, 2.0, PI], [0.0, 1.0, 0.0, 1.0])
        assert grid.breakpoints == (1.0, 2.0)
        assert grid.jump_points == ()

    def test_piecewise_linear(self):
        xs = [0.0, 1.0, PI]
        for q in (Potential.zero(), Potential.constant(1.5), Potential.step(2.0, 1.1),
                  Potential.from_grid(xs, [0.5, 1.5, -1.0])):
            for variant in (q, q.shifted(0.5), Potential.from_json(json.dumps(q.shifted(-2.0).to_json()))):
                assert variant.piecewise_linear is True
        smooth = Potential.smooth_test([1.0, -0.5])
        for variant in (smooth, smooth.shifted(1.0), Potential.from_json(smooth.to_json())):
            assert variant.piecewise_linear is False
        with pytest.raises(AttributeError):
            smooth.piecewise_linear = True

    def test_shifted(self):
        q = Potential.step(2.0, PI / 2)
        qs = q.shifted(3.0)
        x = np.linspace(0, PI, 17)
        assert np.allclose(qs(x), q(x) + 3.0)
        assert qs.breakpoints == q.breakpoints

    def test_norm1(self):
        assert Potential.constant(-2.0).norm1() == pytest.approx(2 * PI, abs=1e-10)
        assert Potential.step(2.0, PI / 2).norm1() == pytest.approx(PI, abs=1e-10)

    def test_json_round_trip(self):
        for q in (Potential.constant(1.5), Potential.step(2.0, 1.1),
                  Potential.smooth_test([1.0, 0.25]).shifted(-0.5),
                  Potential.from_grid([0.0, 1.0, PI], [0.5, 1.5, -1.0])):
            q2 = Potential.from_json(json.dumps(q.to_json()))
            x = np.linspace(0, PI, 33)
            assert np.array_equal(np.asarray(q2(x)), np.asarray(q(x)))

    def test_json_spec_formats(self):
        q = Potential.from_json('{"kind":"named","name":"constant","params":[1.0]}')
        assert q(0.2) == 1.0
        q = Potential.from_json({"kind": "grid", "xs": [0.0, PI], "qs": [1.0, 1.0]})
        assert q(1.0) == 1.0
        with pytest.raises(ValueError):
            Potential.from_json('{"name":"constant"}')


class TestBoundaryParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            BoundaryParams(0.0, 0.0)
        with pytest.raises(ValueError):
            BoundaryParams(PI + 0.1, 0.0)
        with pytest.raises(ValueError):
            BoundaryParams(PI, PI)
        with pytest.raises(ValueError):
            BoundaryParams(PI, -0.1)

    def test_exact_trig_snapping(self):
        bc = BoundaryParams(PI, 0.0)
        assert bc.sin_alpha == 0.0 and bc.cos_alpha == -1.0
        assert bc.sin_beta == 0.0 and bc.cos_beta == 1.0
        assert bc.dirichlet_left and bc.dirichlet_right
        bc = BoundaryParams(PI / 2, PI / 2)
        assert bc.cos_alpha == 0.0 and bc.sin_alpha == 1.0
        assert not bc.dirichlet_left and not bc.dirichlet_right

    def test_angles_snapped_once(self, monkeypatch):
        calls, made = [], []
        snap, post_init = potential._snapped_sincos, BoundaryParams.__post_init__
        monkeypatch.setattr(potential, "_snapped_sincos", lambda a: calls.append(a) or snap(a))
        monkeypatch.setattr(BoundaryParams, "__post_init__",
                            lambda self: made.append(self) or post_init(self))
        bc = BoundaryParams(PI / 3, PI / 3)
        k_partial_sum(Potential.step(3.0, 1.0), bc, 50)
        assert made and len(calls) <= 2 * len(made)
        assert repr(bc) == f"BoundaryParams(alpha={PI / 3!r}, beta={PI / 3!r})"
        assert hash(bc) == hash((PI / 3, PI / 3)) and bc == BoundaryParams(PI / 3, PI / 3)


class TestCumulativeIntegrals:
    def test_zero_potential(self, q_zero):
        ci = sigma_functions(q_zero)
        assert ci.sigma(PI) == 0.0

    def test_constant(self, q_one):
        ci = sigma_functions(q_one)
        assert ci.sigma(PI) == pytest.approx(PI ** 2 / 2, abs=1e-12)
        assert ci.sigma_tilde(2 * PI) == pytest.approx(PI ** 2 / 2, abs=1e-12)

    def test_step_piecewise_values(self, q_step):
        ci = sigma_functions(q_step)
        # inside the step: 2 (pi x - x^2 / 2); frozen at x = 1
        assert ci.sigma(1.0) == pytest.approx(2 * PI - 1.0, abs=1e-12)
        plateau = 2 * (PI * (PI / 2) - (PI / 2) ** 2 / 2)
        assert ci.sigma(2.5) == pytest.approx(plateau, abs=1e-12)

    def test_domain_error(self, q_step):
        ci = sigma_functions(q_step)
        with pytest.raises(ValueError, match="cumulative integral evaluated outside"):
            ci.sigma(PI + 0.1)
        for x in (-0.1, 2 * PI + 0.1, math.nan):
            with pytest.raises(ValueError, match="sigma_tilde evaluated outside"):
                ci.sigma_tilde(x)
        with pytest.raises(ValueError, match="cumulative integral evaluated outside"):
            ci.sigma(np.array([1.0, math.nan]))

    def test_sigma_tilde_is_half_argument(self, q_step):
        ci = sigma_functions(q_step)
        x = np.linspace(0, 2 * PI, 41)
        assert np.allclose(ci.sigma_tilde(x), ci.sigma(x / 2), atol=1e-14)

    def test_mean_q_examples(self, q_zero, q_one, q_step):
        assert mean_q(q_zero) == 0.0
        assert mean_q(q_one) == pytest.approx(1.0, abs=1e-12)
        assert mean_q(q_step) == pytest.approx(1.0, abs=1e-12)

    def test_mean_q_integrates_once_per_potential(self):
        # the value of one quadrature, the same on each call
        q = Potential.smooth_test([1.0, -0.5]).shifted(0.25)
        first = mean_q(q)
        assert mean_q(q) == first
        assert first == potential.integrate(q, 0.0, PI) / PI
        assert mean_q(q.shifted(1.0)) == pytest.approx(first + 1.0, abs=1e-12)

    @given(c=st.floats(min_value=-5.0, max_value=5.0))
    @settings(max_examples=25, deadline=None)
    def test_mean_q_shift_linearity(self, c, q_step):
        assert mean_q(q_step.shifted(c)) == pytest.approx(mean_q(q_step) + c, abs=1e-9)
