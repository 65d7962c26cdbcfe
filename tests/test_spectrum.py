import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slspectra import (
    BoundaryParams,
    BracketError,
    Potential,
    Spectrum,
    UnsupportedRegimeError,
    char_function,
    char_function_right,
    count_interior_zeros,
    delta_for_index,
    find_eigenvalue,
    find_spectrum,
    mean_q,
    phi,
    psi,
)
from slspectra import potential, spectrum
from slspectra.odesolve import DEFAULT_GRID_SIZE, SolutionTrace, _step_coeffs
from slspectra.spectrum import MAX_INDEX, _zero_counts

PI = math.pi


def _bracket(q, bc, n, grid_size):
    """The counted bracket of index n: n eigenvalues below lo, n + 1 below hi."""
    engine = spectrum._CharEngine(q, bc, grid_size)
    lo, hi, _ = spectrum._brackets(engine, [n], [delta_for_index(n, bc)], mean_q(q))
    return float(lo[0]), float(hi[0])


class TestCharFunction:
    def test_dirichlet_zeros(self, q_zero, bc_dd):
        for n in range(3):
            assert char_function(q_zero, bc_dd, (n + 1) ** 2, 512) == pytest.approx(0.0, abs=1e-12)

    def test_neumann_zeros(self, q_zero, bc_nn):
        for n in (1, 2, 3):
            assert char_function(q_zero, bc_nn, n ** 2, 512) == pytest.approx(0.0, abs=1e-10)

    def test_neumann_closed_form(self, q_zero, bc_nn):
        # Phi(mu) = -sqrt(mu) sin(sqrt(mu) pi) at mu = 2.25
        assert char_function(q_zero, bc_nn, 2.25, 512) == pytest.approx(1.5, abs=1e-12)

    @given(mu=st.floats(min_value=-3.0, max_value=120.0),
           alpha=st.floats(min_value=0.4, max_value=PI),
           beta=st.floats(min_value=0.0, max_value=PI - 0.4))
    @settings(max_examples=20, deadline=None)
    def test_left_right_symmetry(self, mu, alpha, beta, q_step):
        bc = BoundaryParams(alpha, beta)
        left = char_function(q_step, bc, mu, 512)
        right = char_function_right(q_step, bc, mu, 512)
        assert left == pytest.approx(right, abs=1e-7 * max(1.0, abs(left)))


class TestBracketing:
    def test_contains_free_eigenvalue(self, q_zero, bc_dd):
        lo, hi = _bracket(q_zero, bc_dd, 3, 512)
        assert lo < 16.0 < hi

    def test_contains_shifted_eigenvalue(self, q_one, bc_nn):
        lo, hi = _bracket(q_one, bc_nn, 2, 512)
        assert lo < 5.0 < hi

    def test_step_bracket_contains_scanned_root(self, q_step, bc_nn):
        lo, hi = _bracket(q_step, bc_nn, 5, 512)
        # independent oracle: bisect the sign of Phi directly inside the window
        f = lambda m: char_function(q_step, bc_nn, m, 512)
        a, b = lo, hi
        fa = f(a)
        for _ in range(60):
            mid = 0.5 * (a + b)
            if f(mid) * fa > 0:
                a = mid
            else:
                b = mid
        root = 0.5 * (a + b)
        assert lo < root < hi
        assert abs(root - 26.01) < 0.5

    def test_low_indices_by_counting(self, q_zero, bc_dd):
        for n in (0, 1):
            lo, hi = _bracket(q_zero, bc_dd, n, 512)
            assert lo < (n + 1) ** 2 < hi

    def test_walks_up_from_low_centres(self, q_zero, bc_dd, monkeypatch):
        # centres at 0 leave index 3 (mu = 16) above every first count; the
        # height above min(q) doubles until a count exceeds 3
        monkeypatch.setattr(spectrum, "_asymptotic_center", lambda n, d, meanq: 0.0)
        lo, hi = _bracket(q_zero, bc_dd, 3, 512)
        assert lo <= 16.0 < hi
        assert find_eigenvalue(q_zero, bc_dd, 3).mu == pytest.approx(16.0, abs=1e-8)

    # the first batch for index 0 on zero DD counts at min(q) - 1 = -1 and at
    # the 0|1 separator 2.25; a count that drops between them decreases
    @pytest.mark.parametrize("counts,message", [
        (lambda mus: np.where(mus < 2.0, 5, 0), "oscillation counts decrease above mu"),
        (lambda mus: np.where(mus < 3.3, 0, 2), "eigenvalues cluster below resolution"),
        (lambda mus: np.zeros(mus.size, dtype=int), "no count bounds indices [0]"),
    ], ids=["decreasing", "cluster", "unbounded"])
    def test_bracket_errors(self, q_zero, bc_dd, monkeypatch, counts, message):
        monkeypatch.setattr(spectrum, "_counts", lambda engine, mus: counts(np.asarray(mus)))
        with pytest.raises(BracketError, match=re.escape(message)):
            _bracket(q_zero, bc_dd, 0, 512)

    def test_counts_are_never_repeated(self, q_step, bc_nn, monkeypatch):
        # every round of the index bisection reuses all earlier counts
        counted = []
        count = spectrum._counts

        def recording(engine, mus):
            counted.extend(np.atleast_1d(mus).tolist())
            return count(engine, mus)

        monkeypatch.setattr(spectrum, "_counts", recording)
        find_spectrum(q_step, bc_nn, 4, grid_size=1024)
        assert 0 < len(counted) == len(set(counted))


class TestFindEigenvalue:
    def test_free_dirichlet(self, q_zero, bc_dd):
        p = find_eigenvalue(q_zero, bc_dd, 4, grid_size=1024)
        assert p.mu == pytest.approx(25.0, abs=1e-8)
        assert p.lam == pytest.approx(5.0, abs=1e-9)
        assert not p.mu_negative

    def test_free_mixed(self, q_zero):
        p = find_eigenvalue(q_zero, BoundaryParams(PI / 2, 0.0), 2, grid_size=1024)
        assert p.mu == pytest.approx(6.25, abs=1e-8)

    def test_constant_shift(self, q_one, bc_dd):
        p = find_eigenvalue(q_one, bc_dd, 4, grid_size=1024)
        assert p.mu == pytest.approx(26.0, abs=1e-8)

    def test_negative_ground_state(self, bc_nn):
        p = find_eigenvalue(Potential.constant(-5.0), bc_nn, 0, grid_size=512)
        assert p.mu == pytest.approx(-5.0, abs=1e-8)
        assert p.mu_negative and p.lam == pytest.approx(math.sqrt(5.0), abs=1e-8)
        assert p.zeros == 0

    def test_unsupported_regime(self, bc_nn):
        with pytest.raises(UnsupportedRegimeError):
            find_eigenvalue(Potential.constant(-30.0), bc_nn, 2, grid_size=512)

    def test_index_validation(self, q_zero, bc_dd):
        with pytest.raises(ValueError):
            find_eigenvalue(q_zero, bc_dd, -1)
        with pytest.raises(ValueError):
            find_eigenvalue(q_zero, bc_dd, 301)

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-10])
    def test_root_window_must_be_finite_and_positive(self, q_zero, bc_dd, q_step, bc_nn, tol):
        # unchecked, an infinite window gives mu_3 = 20.25 for the free problem (exactly 16)
        with pytest.raises(ValueError, match="^tol must be finite and positive$"):
            find_eigenvalue(q_zero, bc_dd, 3, tol=tol)
        with pytest.raises(ValueError, match="^tol must be finite and positive$"):
            find_spectrum(q_step, bc_nn, 30, tol=tol)


class TestEigenfunctions:
    def test_free_dirichlet_shape(self, q_zero, bc_dd):
        p = find_eigenvalue(q_zero, bc_dd, 1, grid_size=1024)
        tr = phi(q_zero, p.mu, bc_dd.alpha, 1024)
        assert np.max(np.abs(tr.y - np.sin(2 * tr.grid) / 2)) < 1e-9

    def test_free_neumann_shape(self, q_zero, bc_nn):
        p = find_eigenvalue(q_zero, bc_nn, 3, grid_size=1024)
        tr = phi(q_zero, p.mu, bc_nn.alpha, 1024)
        assert np.max(np.abs(tr.y - np.cos(3 * tr.grid))) < 1e-9

    def test_zero_counts_step(self, q_step, bc_nn):
        for n in range(11):
            p = find_eigenvalue(q_step, bc_nn, n, grid_size=1024)
            tr = phi(q_step, p.mu, bc_nn.alpha, 1024)
            assert count_interior_zeros(tr) == n == p.zeros

    def test_zero_counts_skip_exact_zeros(self):
        # reference: drop the exact zeros of each column, count sign flips
        rng = np.random.default_rng(7)
        values = rng.choice([-2.0, -1.0, 0.0, 0.0, 1.0, 3.0], size=(40, 200))
        values[:, :3] = 0.0
        values[1:6, 3] = 0.0
        values[1, 4], values[-2, 4] = 5.0, -5.0
        expect = []
        for col in values[1:-1].T:
            s = col[col != 0.0]
            expect.append(int(np.sum(s[:-1] * s[1:] < 0.0)) if s.size >= 2 else 0)
        assert _zero_counts(values).tolist() == expect
        trace = SolutionTrace(grid=np.linspace(0, PI, 40), y=values[:, 5], yprime=values[:, 5],
                              mu=1.0)
        assert count_interior_zeros(trace) == expect[5]

    def test_right_eigenfunction_proportional(self, q_step):
        bc = BoundaryParams(PI / 3, PI / 4)
        p = find_eigenvalue(q_step, bc, 4, grid_size=1024)
        left = phi(q_step, p.mu, bc.alpha, 1024)
        right = psi(q_step, p.mu, bc.beta, 1024)
        i = len(left.grid) // 3
        scale = right.y[i] / left.y[i]
        assert np.max(np.abs(right.y - scale * left.y)) < 1e-6 * max(1, abs(scale))


class TestSpectrum:
    def test_invariants_and_residual_trend(self, step_nn_spectrum60, q_step):
        s = step_nn_spectrum60
        mus = s.mus
        assert np.all(np.diff(mus) > 0)
        assert all(p.zeros == p.n for p in s.pairs)
        meanq = mean_q(q_step)
        # mu_n - (n + delta_n)^2 - [q] tends to zero
        r = np.array([p.mu - (p.n + p.delta.value) ** 2 - meanq for p in s.pairs[10:]])
        ns = np.arange(10, 61)
        first = np.max(np.abs(r[ns <= 35]))
        second = np.max(np.abs(r[ns > 35]))
        assert second < first
        # n (lambda_n - (n + delta_n) - [q] / (2 (n + delta_n))) tends to zero
        l = np.array([p.n * (p.lam - (p.n + p.delta.value)
                             - meanq / (2 * (p.n + p.delta.value)))
                      for p in s.pairs[10:]])
        assert np.max(np.abs(l[ns > 35])) < np.max(np.abs(l[ns <= 35]))

    def test_shift_invariance(self, q_step, bc_nn):
        for c in (-1.0, 1.0, 5.0):
            s0 = find_spectrum(q_step, bc_nn, 8, grid_size=1024)
            sc = find_spectrum(q_step.shifted(c), bc_nn, 8, grid_size=1024)
            devs = [abs((b.mu - a.mu) - c) for a, b in zip(s0.pairs, sc.pairs)]
            assert max(devs) < 1e-6

    def test_low_index_deltas_flagged(self, q_zero, bc_dd):
        s = find_spectrum(q_zero, bc_dd, 4, grid_size=512)
        assert s.pair(0).delta.extrapolated
        assert s.pair(1).delta.extrapolated
        assert not s.pair(2).delta.extrapolated

    def test_char_residual_small(self, q_zero, bc_dd):
        s = find_spectrum(q_zero, bc_dd, 10, grid_size=1024)
        assert max(p.char_residual for p in s.pairs) < 1e-6

    def test_validation(self, q_zero, bc_dd):
        s = find_spectrum(q_zero, bc_dd, 3, grid_size=512)
        with pytest.raises(ValueError):
            Spectrum(q=q_zero, bc=bc_dd, pairs=s.pairs[1:])
        with pytest.raises(ValueError):
            Spectrum(q=q_zero, bc=bc_dd, pairs=[s.pairs[0], s.pairs[0]])
        tied = [s.pairs[0], dataclasses.replace(s.pairs[1], mu=s.pairs[0].mu)]
        with pytest.raises(ValueError, match="eigenvalues must be strictly increasing"):
            Spectrum(q=q_zero, bc=bc_dd, pairs=tied)
        with pytest.raises(ValueError):
            find_spectrum(q_zero, bc_dd, -1)


class TestRefinement:
    CASES = {
        "step-NN": (Potential.step(2.0, PI / 2), BoundaryParams(PI / 2, PI / 2)),
        "cos-DD": (Potential.smooth_test([1.0]), BoundaryParams(PI, 0.0)),
        "constant-generic": (Potential.constant(1.0), BoundaryParams(2.3, 0.7)),
    }

    @staticmethod
    def _phi_rounding(mu):
        # columns of one Phi sweep round differently in different batches
        return 1e-12 * max(1.0, math.sqrt(abs(mu)))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bracket_contract(self, case):
        q, bc = self.CASES[case]
        tol = 1e-10
        for p in find_spectrum(q, bc, 20, tol=tol).pairs:
            lo, hi = p.bracket
            assert 0.0 <= hi - lo <= tol
            assert p.mu in (lo, hi)
            flo, fhi = char_function(q, bc, lo), char_function(q, bc, hi)
            assert flo * fhi <= 0.0 or min(abs(flo), abs(fhi)) <= self._phi_rounding(p.mu)
            # the true |Phi| at mu, not an interpolation value
            assert p.char_residual == pytest.approx(abs(char_function(q, bc, p.mu)),
                                                    abs=1e-2 * self._phi_rounding(p.mu))

    @pytest.mark.parametrize("bc,exact", [(BoundaryParams(PI, 0.0), lambda n: (n + 1) ** 2),
                                          (BoundaryParams(PI / 2, PI / 2), lambda n: n ** 2)])
    def test_zero_potential_exact(self, q_zero, bc, exact):
        for p in find_spectrum(q_zero, bc, 30).pairs:
            assert p.mu == pytest.approx(exact(p.n), abs=1e-10)

    def test_tolerance_below_float_spacing(self, q_step, bc_nn):
        # no float lies strictly inside a bracket of width tol near mu_60
        p = find_eigenvalue(q_step, bc_nn, 60, tol=1e-14)
        lo, hi = p.bracket
        assert lo < hi <= np.nextafter(lo, np.inf)
        assert p.mu in (lo, hi)
        flo, fhi = char_function(q_step, bc_nn, lo), char_function(q_step, bc_nn, hi)
        assert flo * fhi <= 0.0 or min(abs(flo), abs(fhi)) <= self._phi_rounding(p.mu)

    def test_phi_evaluation_budget(self, q_step, bc_nn, monkeypatch):
        sweeps = []
        sweep = spectrum.endpoint_values

        def counting(mesh, mus, *args, **kwargs):
            sweeps.append(np.size(mus))
            return sweep(mesh, mus, *args, **kwargs)

        monkeypatch.setattr(spectrum, "endpoint_values", counting)
        s = find_spectrum(q_step, bc_nn, 60)
        assert sum(sweeps) <= 9 * len(s.pairs)
        assert len(sweeps) <= 25


class TestSearchBudget:
    """Counts that do not depend on the machine: count rounds and Phi points per call."""

    CASES = {
        "zero-DD-25": (Potential.zero(), BoundaryParams(PI, 0.0), 25),
        "zero-NN-25": (Potential.zero(), BoundaryParams(PI / 2, PI / 2), 25),
        "constant-generic-25": (Potential.constant(1.3), BoundaryParams(2.62, 0.655), 25),
        "cos-NN-20": (Potential.smooth_test([1.0]), BoundaryParams(PI / 2, PI / 2), 20),
        "step-NN-16": (Potential.step(2.0, PI / 2), BoundaryParams(PI / 2, PI / 2), 16),
        "step-NN-60": (Potential.step(2.0, PI / 2), BoundaryParams(PI / 2, PI / 2), 60),
        "smooth-pi-0.7-60": (Potential.smooth_test([1.0, -0.5]), BoundaryParams(PI, 0.7), 60),
        "smooth-2.3-0.6-300": (Potential.smooth_test([1.0, -0.5]), BoundaryParams(2.3, 0.6), 300),
    }

    @staticmethod
    def _record(monkeypatch):
        """Batch sizes of every count and every Phi sweep of the search."""
        batches = {"counts": [], "phi": []}
        count, sweep = spectrum._counts, spectrum.endpoint_values

        def counting(engine, mus):
            batches["counts"].append(np.size(mus))
            return count(engine, mus)

        def sweeping(mesh, mus, *args, **kwargs):
            batches["phi"].append(np.size(mus))
            return sweep(mesh, mus, *args, **kwargs)

        monkeypatch.setattr(spectrum, "_counts", counting)
        monkeypatch.setattr(spectrum, "endpoint_values", sweeping)
        return batches

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_count_round(self, case, monkeypatch):
        # the first batch separates indices 0|1 and 1|2 as well, so one
        # round brackets every index
        q, bc, n_max = self.CASES[case]
        batches = self._record(monkeypatch)
        s = find_spectrum(q, bc, n_max)
        assert len(batches["counts"]) == 1
        assert [p.zeros for p in s.pairs] == list(range(n_max + 1))

    @pytest.mark.parametrize("case,limit", [("step-NN-60", 370), ("smooth-pi-0.7-60", 372)])
    def test_phi_points(self, case, limit, monkeypatch):
        # 85% of the 436 and 438 Phi points a search takes with three count
        # rounds and a regula falsi first step
        q, bc, n_max = self.CASES[case]
        batches = self._record(monkeypatch)
        find_spectrum(q, bc, n_max)
        assert sum(batches["phi"]) <= limit

    def test_no_adaptive_mean(self, monkeypatch):
        # [q] comes from the mesh's Gauss samples, not from potential.integrate
        def refuse(*args, **kwargs):
            raise AssertionError("potential.integrate called")

        monkeypatch.setattr(potential, "integrate", refuse)
        q, bc = Potential.smooth_test([1.1, -0.4]), BoundaryParams(2.3, 0.6)
        assert find_spectrum(q, bc, 20).pairs[20].zeros == 20
        assert find_eigenvalue(q, bc, 7).zeros == 7


def _free_eigenvalues(bc, n_max):
    """mu_0..mu_n_max of the zero potential from its closed-form Phi.

    With s the signed square root of mu, the left-normalized solution is
    sin(alpha) cos(s x) - cos(alpha) sin(s x)/s for s > 0 and the cosh/sinh
    form for s < 0.  Sign changes of Phi on a fine grid of s, from below
    every bound state, are bisected to rounding.
    """
    sa, ca, sb, cb = bc.sin_alpha, bc.cos_alpha, bc.sin_beta, bc.cos_beta

    def char(s):
        r = np.abs(s)
        osc = s > 0.0
        rr = np.where(r > 0.0, r, 1.0)
        c = np.where(osc, np.cos(r * PI), np.cosh(r * PI))
        sn = np.where(r > 0.0, np.where(osc, np.sin(r * PI), np.sinh(r * PI)) / rr, PI)
        y = sa * c - ca * sn
        yp = np.where(osc, -r * r, r * r) * sn * sa - ca * c
        return y * cb + yp * sb

    bound = max(abs(ca / sa) if sa else 0.0, abs(cb / sb) if sb else 0.0)
    s = np.arange(-(bound + 3.0), n_max + 3.0, 1e-3)
    f = char(s)
    lo = s[:-1][f[:-1] * f[1:] < 0.0][:n_max + 1]
    hi = lo + 1e-3
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        left = char(mid) * char(lo) > 0.0
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
    assert lo.size == n_max + 1
    return lo * np.abs(lo)


def _node_sign_walk(engine, mu):
    """Number of eigenvalues below mu from y's sign changes at every mesh node.

    Each interval takes the Magnus step (C + d S, b S, c S, C - d S) with
    d = d0 - e w, c = c0 - gamma w at w = mu - q2 and C, S at
    w_eff = -(d^2 + b c); intervals with w_eff < 0 step by it divided by
    cosh, so that deep mu does not overflow.
    """
    mesh = engine.mesh
    d0, e, b, gamma, c0 = mesh.gen
    w = mu - mesh.q
    d, c = d0 - e * w, c0 - gamma * w
    weff = -(d * d + b * c)
    hyp = weff < 0.0
    r = np.sqrt(np.abs(weff))
    C, S = np.ones_like(w), np.tanh(r * mesh.h) / np.where(hyp, r, 1.0)
    C[~hyp], S[~hyp] = _step_coeffs(weff[~hyp], mesh.h[~hyp])
    dS = d * S
    y, yp = engine.y0, engine.yp0
    zeros, prev = 0, np.sign(y)
    for m00, m01, m10, m11 in zip((C + dS).tolist(), (b * S).tolist(), (c * S).tolist(),
                                  (C - dS).tolist()):
        y, yp = m00 * y + m01 * yp, m10 * y + m11 * yp
        scale = max(abs(y), abs(yp))
        if scale > 1e100:
            y, yp = y / scale, yp / scale
        if y != 0.0:
            zeros += int(prev != 0.0 and np.sign(y) != prev)
            prev = np.sign(y)
    angle = math.atan2(y, yp)
    angle += PI if angle <= 0.0 else 0.0
    return zeros + int(angle > PI - engine.bc.beta)


def _both_counts(engine, mus):
    """_counts of each mu on its own and of all of them in one batch; they must agree."""
    single = [int(spectrum._counts(engine, [mu])[0]) for mu in mus]
    assert spectrum._counts(engine, mus).tolist() == single
    return single


def _old_floor(q):
    n1 = q.norm1()
    return -n1 * (1.0 + n1) - 1.0


class TestOscillationIndex:
    BCS = {"DD": BoundaryParams(PI, 0.0), "NN": BoundaryParams(PI / 2, PI / 2),
           "robin": BoundaryParams(2.0, 0.9), "robin-bound": BoundaryParams(0.2, 2.9)}

    @pytest.mark.parametrize("grid", [4096, 64])
    @pytest.mark.parametrize("bc_name", sorted(BCS))
    @pytest.mark.parametrize("c", [0.0, 3.5, -2.0])
    def test_counts_between_exact_eigenvalues(self, c, bc_name, grid):
        # constant potentials shift the zero potential's closed-form spectrum
        bc = self.BCS[bc_name]
        mus = _free_eigenvalues(bc, 100) + c
        engine = spectrum._CharEngine(Potential.constant(c), bc, grid)
        probes = np.concatenate(([mus[0] - 1.0], 0.5 * (mus[:-1] + mus[1:])))
        assert _both_counts(engine, probes) == list(range(101))

    @pytest.mark.parametrize("q,bc", [(Potential.step(2.0, PI / 2), BoundaryParams(PI / 2, PI / 2)),
                                      (Potential.step(2.0, 1.3), BoundaryParams(1.1, 2.0)),
                                      (Potential.step(-1.5, 1.0), BoundaryParams(PI, 0.0)),
                                      (Potential.step(40.0, 0.2), BoundaryParams(2.3, 0.7))],
                             ids=["step-NN", "step-generic", "step-DD", "thin-tall"])
    def test_step_counts_equal_node_sign_walk(self, q, bc):
        engine = spectrum._CharEngine(q, bc, 4096)
        mus = np.concatenate(([_old_floor(q), -3.0, 0.0, 2.0], np.linspace(-1.0, 3600.0, 97)))
        assert _both_counts(engine, mus) == [_node_sign_walk(engine, mu) for mu in mus]

    def test_no_warning_where_a_merged_cosh_overflows(self, bc_nn):
        q = Potential.constant(100.0)
        engine = spectrum._CharEngine(q, bc_nn, 4096)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _both_counts(engine, [_old_floor(q)]) == [0]
            p = find_eigenvalue(q, bc_nn, 0)
        assert p.mu == pytest.approx(100.0, abs=1e-8)

    @pytest.mark.parametrize("q,bc", [(Potential.smooth_test([3e4]), BoundaryParams(PI / 2, PI / 2)),
                                      (Potential.smooth_test([1e5, -3e4]), BoundaryParams(1.1, 2.0)),
                                      (Potential.constant(1e6), BoundaryParams(PI, 0.0)),
                                      (Potential.step(-2e5, 1.0), BoundaryParams(2.3, 0.7))],
                             ids=["smooth-tall", "smooth-two-mode", "constant-high", "step-deep"])
    def test_deep_counts_equal_node_sign_walk(self, q, bc):
        # the old a-priori floor lies far below every run's q; the count
        # scales its hyperbolic runs and divides every product by its largest entry
        engine = spectrum._CharEngine(q, bc, 4096)
        mus = np.array([_old_floor(q), -2e5 - 1.0, -1e4, 0.0, 3e4, 1e5, 4e5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _both_counts(engine, mus) == [_node_sign_walk(engine, mu) for mu in mus]

    @pytest.mark.parametrize("grid", [512, 64])
    @pytest.mark.parametrize("bc", [BoundaryParams(PI / 2, PI / 2), BoundaryParams(2.0, 0.9),
                                    BoundaryParams(0.2, 2.9), BoundaryParams(0.05, 3.0),
                                    BoundaryParams(PI, 0.9), BoundaryParams(PI / 2, 0.0)],
                             ids=["NN", "robin", "robin-bound", "near-NN", "DR", "ND"])
    @pytest.mark.parametrize("c", [0.0, 3.5, -2.0])
    def test_counts_at_exact_half_turns(self, c, bc, grid):
        # constant(c) is one run, and mu = c + k^2 turns it by exactly k
        # half-turns, where rounding puts the step's m01 on either side of 0;
        # mu within 1e-9 of an eigenvalue (every probe under NN) is skipped
        exact = _free_eigenvalues(bc, 130) + c
        mus = c + np.arange(101.0) ** 2
        gap = np.min(np.abs(mus[:, None] - exact), axis=1)
        probes = mus[gap > 1e-9 * np.maximum(1.0, np.abs(mus))]
        engine = spectrum._CharEngine(Potential.constant(c), bc, grid)
        assert _both_counts(engine, probes) == np.searchsorted(exact, probes).tolist()

    def test_count_memory_does_not_grow_with_the_mesh(self):
        # the lifted product holds one block's transients, about 1.5 MB here,
        # where a node array of 513 x 3001 floats alone takes 12 MB
        engine = spectrum._CharEngine(Potential.smooth_test([1.0, -0.5]),
                                      BoundaryParams(PI, 0.7), 512)
        mus = np.linspace(-600.0, 9.5e4, 3001)
        tracemalloc.start()
        try:
            spectrum._counts(engine, mus)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4e6


def _hill_mathieu(c, dirichlet, n_max):
    """mu_0..mu_n_max of -y'' + c cos(x) y on [0, pi], NN or DD, from the Hill matrix.

    x = 2z turns the problem into Mathieu's equation with a = 4 mu and
    q = 2c; its period-pi eigenvalues, even for NN and odd for DD, are those
    of a symmetric tridiagonal matrix in the cos(2kz) or sin(2kz) basis,
    which converges geometrically in its size.
    """
    size = n_max + 60
    k = np.arange(1, size + 1) if dirichlet else np.arange(size)
    off = np.full(size - 1, 2.0 * c)
    if not dirichlet:
        off[0] *= math.sqrt(2.0)
    hill = np.diag((2.0 * k) ** 2) + np.diag(off, 1) + np.diag(off, -1)
    return np.linalg.eigvalsh(hill)[:n_max + 1] / 4.0


def _mathieu_errors(c, dirichlet, n_max, grid_size, tol):
    """Worst relative error of find_spectrum on c cos(x) against the Hill matrix."""
    bc = BoundaryParams(PI, 0.0) if dirichlet else BoundaryParams(PI / 2, PI / 2)
    ref = _hill_mathieu(c, dirichlet, n_max)
    mus = find_spectrum(Potential.smooth_test([c]), bc, n_max, tol=tol, grid_size=grid_size).mus
    return float(np.max(np.abs(mus - ref) / np.maximum(1.0, np.abs(ref))))


class TestFourthOrderStep:
    # the order floor of the former fourth-order step, at small c: on 64,
    # 128 and 256 intervals the error still falls at least 12x per halving
    # (64x, then 14-34x as it reaches rounding), and the default mesh sits
    # at rounding

    @pytest.mark.parametrize("c", [1.0, 1.5])
    @pytest.mark.parametrize("dirichlet", [False, True], ids=["NN", "DD"])
    def test_mathieu_error_falls_at_fourth_order(self, c, dirichlet):
        errs = [_mathieu_errors(c, dirichlet, 20, grid, 1e-14) for grid in (64, 128, 256)]
        assert errs[0] >= 12.0 * errs[1] and errs[1] >= 12.0 * errs[2]
        assert _mathieu_errors(c, dirichlet, 20, DEFAULT_GRID_SIZE, 1e-14) <= 1e-13


class TestSixthOrderStep:
    # root windows far below the discretisation error, so that the returned
    # mu is the discrete eigenvalue

    @pytest.mark.parametrize("dirichlet", [False, True], ids=["NN", "DD"])
    def test_mathieu_error_falls_at_sixth_order(self, dirichlet):
        # c = 20 keeps the coarse-mesh errors far above rounding; a
        # fourth-order step falls about 16x per halving
        errs = [_mathieu_errors(20.0, dirichlet, 20, grid, 1e-14) for grid in (64, 128, 256)]
        assert errs[0] >= 48.0 * errs[1] and errs[1] >= 48.0 * errs[2]
        assert _mathieu_errors(20.0, dirichlet, 20, DEFAULT_GRID_SIZE, 1e-14) <= 1e-13

    @pytest.mark.parametrize("c", [1.0, 20.0])
    @pytest.mark.parametrize("dirichlet", [False, True], ids=["NN", "DD"])
    def test_default_mesh_resolves_the_highest_index(self, c, dirichlet):
        # the default mesh keeps h sqrt(mu_300) below pi; 256 intervals,
        # where it exceeds pi, leave 6e-11 (c = 1) and 2e-8 (c = 20)
        assert _mathieu_errors(c, dirichlet, MAX_INDEX, DEFAULT_GRID_SIZE, 1e-13) <= 1e-13


def _assert_counted_pairs(q, bc, n_max, grid_size=DEFAULT_GRID_SIZE):
    """Each eigenfunction has n interior zeros and Phi changes sign across its bracket."""
    s = find_spectrum(q, bc, n_max, grid_size=grid_size)
    for p in s.pairs:
        assert count_interior_zeros(phi(q, p.mu, bc.alpha, grid_size)) == p.n == p.zeros
        lo, hi = _bracket(q, bc, p.n, grid_size)
        assert lo <= p.mu <= hi
        assert char_function(q, bc, lo, grid_size) * char_function(q, bc, hi, grid_size) < 0.0
    return s


class TestFormerFailures:
    """Tall barriers, a mesh coarse for its index range, and bound states
    below min(q) - 1 that only the boundary angles create."""

    def test_tall_barrier_neumann(self):
        _assert_counted_pairs(Potential.step(500.0, 1.0), BoundaryParams(PI / 2, PI / 2), 5)

    def test_barrier_neumann_dirichlet(self):
        _assert_counted_pairs(Potential.step(10.0, 1.7), BoundaryParams(PI / 2, 0.0), 5)

    def test_coarse_mesh_dirichlet(self, q_zero, bc_dd):
        s = find_spectrum(q_zero, bc_dd, 100, grid_size=64)
        assert np.max(np.abs(s.mus - np.arange(1, 102) ** 2.0)) <= 1e-10
        assert all(p.zeros == p.n for p in s.pairs)

    def test_robin_bound_states(self, q_zero):
        bc = BoundaryParams(0.2, 2.9)
        s = find_spectrum(q_zero, bc, 10)
        assert s.mus[0] == pytest.approx(-24.336, abs=1e-3)
        assert np.max(np.abs(s.mus - _free_eigenvalues(bc, 10))) <= 1e-8
