import dataclasses
import importlib.util
import math
import re
import tracemalloc
import warnings
from pathlib import Path

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
    delta_for_index,
    find_eigenvalue,
    find_spectrum,
    mean_q,
    norming_records,
    phi,
    psi,
)
from slspectra import delta, potential, spectrum
from slspectra.odesolve import DEFAULT_GRID_SIZE, _step_coeffs, build_mesh, y_values_batch
from slspectra.spectrum import MAX_INDEX, _zero_counts
from slspectra.verification import _eigen_zero_counts

PI = math.pi


def _fields(spec):
    """Every Eigenpair field of a spectrum, for bit-for-bit comparison."""
    return [dataclasses.astuple(p) for p in spec.pairs]


def _bracket(q, bc, n, grid_size):
    """The counted bracket of index n: n eigenvalues below lo, n + 1 below hi."""
    mesh = build_mesh(q, grid_size)
    ns = range(n, n + 1)
    seps = spectrum._estimates(ns, bc, mesh.mean)[2]
    lo, hi = spectrum._brackets(mesh, bc, ns, seps)[:2]
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

    def test_large_values_come_back(self, q_zero, bc_nn):
        # only the float range bounds Phi: Phi(-400) = 20 sinh(20 pi) = 1.9e28
        assert char_function(q_zero, bc_nn, -400.0) == pytest.approx(
            20.0 * math.sinh(20.0 * PI), rel=1e-12)
        assert char_function_right(q_zero, bc_nn, -400.0) == pytest.approx(
            20.0 * math.sinh(20.0 * PI), rel=1e-12)

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_mu(self, q_zero, bc_nn, mu):
        # refused before the sweep, as solve_ivp refuses it, not reported as an overflow
        for fn in (char_function, char_function_right):
            with pytest.raises(ValueError, match=f"^mu, y0 and yp0 must be finite, got mu = {mu}$"):
                fn(q_zero, bc_nn, mu)

    @given(mu=st.floats(min_value=-3.0, max_value=120.0),
           alpha=st.floats(min_value=0.4, max_value=PI),
           beta=st.floats(min_value=0.0, max_value=PI - 0.4))
    @settings(max_examples=20, deadline=None)
    def test_left_right_symmetry(self, mu, alpha, beta, q_step):
        bc = BoundaryParams(alpha, beta)
        left = char_function(q_step, bc, mu, 512)
        right = char_function_right(q_step, bc, mu, 512)
        assert left == pytest.approx(right, abs=1e-7 * max(1.0, abs(left)))


# the cases of the bound test: the free Dirichlet problem, where
# mu_n = U - 1, deep Robin states at both ends (the deeper one on either side),
# a tall barrier on either side, a deep interior well on a grid and a
# smooth q
BOUND_CASES = {
    "zero-DD": (Potential.zero(), BoundaryParams(PI, 0.0)),
    "zero-0.2-2.9": (Potential.zero(), BoundaryParams(0.2, 2.9)),
    "zero-0.1-pi-0.1": (Potential.zero(), BoundaryParams(0.1, PI - 0.1)),
    "zero-0.3-2.9": (Potential.zero(), BoundaryParams(0.3, 2.9)),
    "constant3-0.05-3.09": (Potential.constant(3.0), BoundaryParams(0.05, 3.09)),
    "constant-3-0.05-3.09": (Potential.constant(-3.0), BoundaryParams(0.05, 3.09)),
    "step500-NN": (Potential.step(500.0, 1.0), BoundaryParams(PI / 2, PI / 2)),
    "mirror100-NN": (Potential.step(-100.0, PI - 2.0).shifted(100.0),
                     BoundaryParams(PI / 2, PI / 2)),
    "well-100-DD": (Potential.from_grid(PI * np.arange(13) / 12,
                                        np.where(np.arange(13) == 6, -100.0, 0.0)),
                    BoundaryParams(PI, 0.0)),
    "smooth-2.3-0.6": (Potential.smooth_test([1.0, -0.5]), BoundaryParams(2.3, 0.6)),
}


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
        # estimates at 0 leave index 3 (mu = 16) above every first count; one
        # count at the upper bound U = (3 + 1)^2 + max(q) + 1 = 17 lies above it
        estimates, count = spectrum._estimates, spectrum._counts
        counted = []

        def at_zero(ns, bc, meanq):
            deltas, first, seps = estimates(ns, bc, meanq)
            return deltas, np.zeros_like(first), np.zeros_like(seps)

        def recording(mesh, bc, mus):
            counted.extend(np.atleast_1d(mus).tolist())
            return count(mesh, bc, mus)

        monkeypatch.setattr(spectrum, "_estimates", at_zero)
        monkeypatch.setattr(spectrum, "_counts", recording)
        lo, hi = _bracket(q_zero, bc_dd, 3, 512)
        assert lo <= 16.0 < hi
        assert counted.count(17.0) == 1
        assert find_eigenvalue(q_zero, bc_dd, 3).mu == pytest.approx(16.0, abs=1e-8)

    # the first batch for index 0 on zero DD counts at the lower bound
    # L = min(q) - 1 = -1 and at the 0|1 separator 2.25, and the upper bound
    # of mu_0 is U = 1 + max(q) + 1 = 2; a count that drops between them decreases
    @pytest.mark.parametrize("counts,message", [
        (lambda mus: np.where(mus < 2.0, 5, 0), "oscillation counts decrease above mu"),
        (lambda mus: np.where(mus < 1.5, 0, 2), "eigenvalues cluster below resolution"),
        (lambda mus: np.zeros(mus.size, dtype=int),
         "K = 0 at mu = 2.25 contradicts the upper bound 2 of mu_0"),
        (lambda mus: np.ones(mus.size, dtype=int),
         "K = 1 at mu = -1 contradicts the lower bound -1 of mu_0"),
    ], ids=["decreasing", "cluster", "unbounded", "below"])
    def test_bracket_errors(self, q_zero, bc_dd, monkeypatch, counts, message):
        # _counts returns K and the angle gap; these cases fail on K alone
        monkeypatch.setattr(spectrum, "_counts", lambda mesh, bc, mus: (
            counts(np.asarray(mus)), np.zeros(np.size(mus))))
        with pytest.raises(BracketError, match=re.escape(message)):
            _bracket(q_zero, bc_dd, 0, 512)

    def test_upper_bound_is_counted_once(self, q_zero, bc_nn, monkeypatch):
        # on zero NN the 0|1 separator 0.25 lies below U = 2: the second round
        # counts U, and a count of 0 there contradicts it
        counted = []

        def zeros(mesh, bc, mus):
            counted.extend(np.atleast_1d(mus).tolist())
            return np.zeros(np.size(mus), dtype=int), np.zeros(np.size(mus))

        monkeypatch.setattr(spectrum, "_counts", zeros)
        with pytest.raises(BracketError, match=re.escape(
                "K = 0 at mu = 2 contradicts the upper bound 2 of mu_0")):
            _bracket(q_zero, bc_nn, 0, 512)
        assert counted.count(2.0) == 1

    @pytest.mark.parametrize("case", sorted(BOUND_CASES))
    @pytest.mark.parametrize("grid_size,n_max", [
        (64, 0), (64, 5), (64, 30), (DEFAULT_GRID_SIZE, 0), (DEFAULT_GRID_SIZE, 5),
        (DEFAULT_GRID_SIZE, 30), (DEFAULT_GRID_SIZE, 60)])
    def test_counts_respect_the_bounds(self, case, grid_size, n_max):
        # no eigenvalue of the mesh's problem lies below L, and n_max + 1 lie below U
        q, bc = BOUND_CASES[case]
        mesh = build_mesh(q, grid_size)
        lower, upper = spectrum._bounds(mesh, bc, n_max)
        k = spectrum._counts(mesh, bc, [lower, upper])[0]
        assert k[0] == 0 and k[1] >= n_max + 1
        if mesh.exact:  # piecewise-constant q: mu_0 >= L + 1 holds without slack
            assert spectrum._counts(mesh, bc, [lower + 1.0])[0][0] == 0

    def test_counts_are_never_repeated(self, q_step, bc_nn, monkeypatch):
        # every round of the index bisection reuses all earlier counts
        counted = []
        count = spectrum._counts

        def recording(mesh, bc, mus):
            counted.extend(np.atleast_1d(mus).tolist())
            return count(mesh, bc, mus)

        monkeypatch.setattr(spectrum, "_counts", recording)
        find_spectrum(q_step, bc_nn, 4, grid_size=1024)
        assert 0 < len(counted) == len(set(counted))


class TestSearchPath:
    @pytest.mark.parametrize("search,arg", [(find_spectrum, 0), (find_spectrum, 12),
                                            (find_eigenvalue, 0), (find_eigenvalue, 1),
                                            (find_eigenvalue, 7)])
    def test_one_shift_solve_per_call(self, q_step, search, arg, monkeypatch):
        # the shifts of the indices and of their neighbours come from one fixed point
        calls = []
        for module in (delta, spectrum):
            if hasattr(module, "_shifts"):
                solve = getattr(module, "_shifts")
                monkeypatch.setattr(module, "_shifts",
                                    lambda ns, bc, solve=solve: calls.append(1) or solve(ns, bc))
        search(q_step, BoundaryParams(2.3, 0.6), arg)
        assert len(calls) == 1

    @pytest.mark.parametrize("bc", [BoundaryParams(PI, 0.0), BoundaryParams(2.3, 0.6)],
                             ids=["dd", "robin"])
    @pytest.mark.parametrize("ns", [range(0, 1), range(1, 2), range(2, 3), range(7, 8),
                                    range(0, 301)], ids=["0", "1", "2", "7", "0-300"])
    @pytest.mark.parametrize("meanq", [0.0, 1.7, -0.3721956483])
    def test_estimates_are_the_scalar_formulas(self, bc, ns, meanq):
        # nu_m = m + delta_m and c_m = nu_m + [q] / (2 nu_m); below m = 2 the
        # shifts are extrapolated and nu_0 may be 0
        deltas, first, seps = spectrum._estimates(ns, bc, meanq)
        assert deltas == [delta_for_index(n, bc) for n in ns]
        nu = {m: m + delta_for_index(m, bc).value for m in range(max(ns[0] - 1, 0), ns[-1] + 2)}
        c = {m: v + meanq / (2.0 * v) for m, v in nu.items() if m >= 2}
        assert first.tolist() == [nu[n] * nu[n] + meanq if n < 2 else c[n] * c[n] for n in ns]
        assert seps.tolist() == [(0.5 * (nu[m] + nu[m + 1])) ** 2 + meanq if m < 2
                                 else (0.5 * (c[m] + c[m + 1])) ** 2
                                 for m in range(max(ns[0] - 1, 0), ns[-1] + 1)]


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

    def test_one_regime_rule(self, bc_nn):
        # mu_2 = -21.50 of step(-30, 2.5) NN lies below 0: find_spectrum refused
        # it, while find_eigenvalue returned mu_5 = 4.475 and mu_6 = 12.44; both
        # now refuse every range that reaches index 2, by K(0) >= 3 (it is 5)
        q = Potential.step(-30.0, 2.5)
        message = r"^mu_2 < 0 \(at least [345] eigenvalues lie below 0\); asymptotic indexing"
        with pytest.raises(UnsupportedRegimeError, match=message):
            find_spectrum(q, bc_nn, 10)
        for n in (2, 3, 5, 6):
            with pytest.raises(UnsupportedRegimeError, match=message):
                find_eigenvalue(q, bc_nn, n)
        assert find_eigenvalue(q, bc_nn, 1).mu == pytest.approx(
            find_spectrum(q, bc_nn, 1).pairs[1].mu, abs=1e-9)

    def test_mu_2_at_zero_is_supported(self, bc_dd):
        # mu_n = (n + 1)^2 - 9: the eigenvalue at 0 is not below 0, so K(0) = 2
        q = Potential.constant(-9.0)
        assert find_spectrum(q, bc_dd, 4).pairs[2].mu == pytest.approx(0.0, abs=1e-9)
        assert find_eigenvalue(q, bc_dd, 3).mu == pytest.approx(7.0, abs=1e-9)
        # 0.5 lower, mu_2 = -0.5 and K(0) = 3: refused
        message = "^" + re.escape("mu_2 < 0 (at least 3 eigenvalues lie below 0)")
        for search, n in ((find_spectrum, 4), (find_eigenvalue, 3)):
            with pytest.raises(UnsupportedRegimeError, match=message):
                search(Potential.constant(-9.5), bc_dd, n)

    def test_index_validation(self, q_zero, bc_dd):
        with pytest.raises(ValueError):
            find_eigenvalue(q_zero, bc_dd, -1)
        with pytest.raises(ValueError):
            find_eigenvalue(q_zero, bc_dd, 301)

    @pytest.mark.parametrize("n", [2.5, 3.0, "3"], ids=["fraction", "float", "string"])
    def test_index_must_be_an_integer(self, q_zero, bc_nn, n):
        # 2.5 once reached the bracket search, 3.0 came back as Eigenpair.n == 3.0,
        # and a non-integer n_max raised TypeError
        with pytest.raises(ValueError, match="^index must be an integer, got"):
            find_eigenvalue(q_zero, bc_nn, n)
        with pytest.raises(ValueError, match="^n_max must be an integer, got"):
            find_spectrum(q_zero, bc_nn, n)

    def test_numpy_integers_are_indices(self, q_zero, bc_nn):
        p = find_eigenvalue(q_zero, bc_nn, np.int64(3))
        assert p.n == 3 and type(p.n) is int and p.mu == pytest.approx(9.0, abs=1e-8)
        spec = find_spectrum(q_zero, bc_nn, np.int64(3))
        assert [pair.n for pair in spec.pairs] == [0, 1, 2, 3]

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
            assert _zero_counts(tr.y[:, None]).tolist() == [n] == [p.zeros]

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
        assert _zero_counts(values[:, 5:6]).tolist() == expect[5:6]

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
        """Batch sizes of every count and every Phi sweep of the search, and their points."""
        batches = {"counts": [], "phi": [], "counted": [], "swept": []}
        count, sweep = spectrum._counts, spectrum.endpoint_values

        def counting(mesh, bc, mus):
            batches["counts"].append(np.size(mus))
            batches["counted"].extend(np.atleast_1d(mus).tolist())
            return count(mesh, bc, mus)

        def sweeping(mesh, mus, *args, **kwargs):
            batches["phi"].append(np.size(mus))
            batches["swept"].extend(np.atleast_1d(mus).tolist())
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
        assert 0 < sum(batches["phi"]) <= limit

    @pytest.mark.parametrize("case,sweeps,points", [
        ("cos-NN-20", 9, 115), ("step-NN-60", 9, 300), ("smooth-pi-0.7-60", 9, 300)])
    def test_no_sweep_evaluates_a_counted_end(self, case, sweeps, points, monkeypatch):
        # the refinement starts from the count's angle gaps at the bracket
        # ends; with end values from a Phi sweep the search took 11, 12 and
        # 11 sweeps of 134, 349 and 343 points
        q, bc, n_max = self.CASES[case]
        batches = self._record(monkeypatch)
        find_spectrum(q, bc, n_max)
        assert not set(batches["counted"]) & set(batches["swept"])
        assert 0 < len(batches["phi"]) <= sweeps and sum(batches["phi"]) <= points

    def test_eigenvalue_counts_zero_in_its_first_batch(self, monkeypatch):
        # index 7 counts nowhere near mu_2, so the regime rule's count at 0
        # rides in the first batch, and one count round brackets the index
        batches = self._record(monkeypatch)
        find_eigenvalue(Potential.step(2.0, PI / 2), BoundaryParams(PI / 2, PI / 2), 7)
        assert len(batches["counts"]) == 1 and 0.0 in batches["counted"]

    def test_deep_bound_states_finish_on_phi(self, monkeypatch):
        # mu_0 = -24.3 of these angles lies far below q(pi) = 0, where the angle
        # gap turns by pi within a few ulps of mu: refined on the gap alone
        # the search took 101 sweeps, by bisection, and 10 on Phi alone
        q, bc = Potential.zero(), BoundaryParams(0.2, 2.9)
        batches = self._record(monkeypatch)
        s = find_spectrum(q, bc, 10)
        assert len(batches["phi"]) <= 15
        # the first batch counts at the lower bound of mu_0; a walk down from
        # min(q) - 1, doubling the depth, took 7 count batches
        assert len(batches["counts"]) <= 3
        assert np.max(np.abs(s.mus - _free_eigenvalues(bc, 10))) <= 1e-9

    WELL_ANGLES = [BoundaryParams(PI, 0.0), BoundaryParams(PI / 2, PI / 2),
                   BoundaryParams(2.3, 0.6)]

    @pytest.mark.parametrize("bc", WELL_ANGLES, ids=["DD", "NN", "generic"])
    def test_interior_well_finishes_on_phi(self, bc, monkeypatch):
        # mu_0 = -12.87 of a -40 dip at pi/2 lies below q(pi) = 0 but its
        # counted bracket reaches up to the 0|1 separator above [q]: with the
        # switch to Phi fixed by that first bracket the search took 43, 28
        # and 31 sweeps, and 13, 18 and 16 from the asymptotic first point
        self._interior_well(-40.0, bc, 15, (-13.0, -12.8), monkeypatch)

    @pytest.mark.parametrize("bc", WELL_ANGLES, ids=["DD", "NN", "generic"])
    def test_deep_interior_well_finishes_on_phi(self, bc, monkeypatch):
        # mu_0 = -47.25: 21, 14 and 19 sweeps from the asymptotic first point
        self._interior_well(-100.0, bc, 17, (-47.3, -47.2), monkeypatch)

    def _interior_well(self, depth, bc, sweeps, mu_range, monkeypatch):
        xs = PI * np.arange(13) / 12
        q = Potential.from_grid(xs, np.where(np.arange(13) == 6, depth, 0.0))
        batches = self._record(monkeypatch)
        s = find_spectrum(q, bc, 10)
        assert len(batches["phi"]) <= sweeps
        mu0 = s.mus[0]
        assert mu_range[0] < mu0 < mu_range[1]
        # Phi changes sign across mu_0 on a mesh eight times finer
        below, above = (char_function(q, bc, mu0 + d, grid_size=4096) for d in (-1e-9, 1e-9))
        assert below * above < 0.0

    def test_count_gap_matches_the_sweep(self):
        # G_K from the lifted count equals G_K read from a Phi sweep's state
        q, bc = Potential.smooth_test([1.0, -0.5]), BoundaryParams(2.3, 0.6)
        mesh = build_mesh(q, DEFAULT_GRID_SIZE)
        mus = np.linspace(-3.0, 2500.0, 997)
        k, gap = spectrum._counts(mesh, bc, mus)
        assert np.all((-PI <= gap) & (gap <= 0.0))
        swept, _ = spectrum._gaps(mesh, bc, mus, np.where(k % 2 == 0, -1.0, 1.0))
        inside = gap > -PI + 1e-6  # away from the wrap of the principal value
        assert np.max(np.abs(swept - gap)[inside]) <= 1e-13

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


def _node_sign_walk(mesh, bc, mu):
    """Number of eigenvalues below mu from y's sign changes at every mesh node.

    Each interval takes the Magnus step (C + d S, b S, c S, C - d S) with
    d = d0 - e w, c = c0 - gamma w at w = mu - q2 and C, S at
    w_eff = -(d^2 + b c); intervals with w_eff < 0 step by it divided by
    cosh, so that deep mu does not overflow.
    """
    d0, e, b, gamma, c0 = mesh.gen
    w = mu - mesh.q
    d, c = d0 - e * w, c0 - gamma * w
    weff = -(d * d + b * c)
    hyp = weff < 0.0
    r = np.sqrt(np.abs(weff))
    C, S = np.ones_like(w), np.tanh(r * mesh.h) / np.where(hyp, r, 1.0)
    C[~hyp], S[~hyp] = _step_coeffs(weff[~hyp], mesh.h[~hyp])
    dS = d * S
    y, yp = bc.sin_alpha, -bc.cos_alpha
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
    return zeros + int(angle > PI - bc.beta)


def _both_counts(mesh, bc, mus):
    """_counts of each mu on its own and of all of them in one batch; they must agree."""
    single = [int(spectrum._counts(mesh, bc, [mu])[0][0]) for mu in mus]
    assert spectrum._counts(mesh, bc, mus)[0].tolist() == single
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
        mesh = build_mesh(Potential.constant(c), grid)
        probes = np.concatenate(([mus[0] - 1.0], 0.5 * (mus[:-1] + mus[1:])))
        assert _both_counts(mesh, bc, probes) == list(range(101))

    @pytest.mark.parametrize("q,bc", [(Potential.step(2.0, PI / 2), BoundaryParams(PI / 2, PI / 2)),
                                      (Potential.step(2.0, 1.3), BoundaryParams(1.1, 2.0)),
                                      (Potential.step(-1.5, 1.0), BoundaryParams(PI, 0.0)),
                                      (Potential.step(40.0, 0.2), BoundaryParams(2.3, 0.7))],
                             ids=["step-NN", "step-generic", "step-DD", "thin-tall"])
    def test_step_counts_equal_node_sign_walk(self, q, bc):
        mesh = build_mesh(q, 4096)
        mus = np.concatenate(([_old_floor(q), -3.0, 0.0, 2.0], np.linspace(-1.0, 3600.0, 97)))
        assert _both_counts(mesh, bc, mus) == [_node_sign_walk(mesh, bc, mu) for mu in mus]

    def test_no_warning_where_a_merged_cosh_overflows(self, bc_nn):
        q = Potential.constant(100.0)
        mesh = build_mesh(q, 4096)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _both_counts(mesh, bc_nn, [_old_floor(q)]) == [0]
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
        mesh = build_mesh(q, 4096)
        mus = np.array([_old_floor(q), -2e5 - 1.0, -1e4, 0.0, 3e4, 1e5, 4e5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _both_counts(mesh, bc, mus) == [_node_sign_walk(mesh, bc, mu) for mu in mus]

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
        mesh = build_mesh(Potential.constant(c), grid)
        assert _both_counts(mesh, bc, probes) == np.searchsorted(exact, probes).tolist()

    def test_count_memory_does_not_grow_with_the_mesh(self):
        # the lifted product holds one block's transients, about 1.5 MB here,
        # where a node array of 513 x 3001 floats alone takes 12 MB
        mesh = build_mesh(Potential.smooth_test([1.0, -0.5]), 512)
        mus = np.linspace(-600.0, 9.5e4, 3001)
        tracemalloc.start()
        try:
            spectrum._counts(mesh, BoundaryParams(PI, 0.7), mus)
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
    zeros = _eigen_zero_counts(build_mesh(q, grid_size), s)
    for p, k in zip(s.pairs, zeros.tolist()):
        assert k == p.n == p.zeros
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

    # inputs whose Phi sweeps pass 1e12 but stay inside the float range:
    # the search sweeps them as they are
    @pytest.mark.parametrize("spec,angles,n_max", [
        ({"family": "step", "params": [600.0, 2.8]}, (PI, 0.0), 10),
        ({"family": "step", "params": [-400.0, 1.0]}, (PI, 0.0), 1),
        ({"family": "zero"}, (0.05, 3.0), 10),
    ], ids=["tall-step-DD", "deep-step-DD", "deep-robin"])
    def test_large_sweeps_against_the_reference(self, spec, angles, n_max):
        reference = _perfbench_reference()
        q = Potential.zero() if spec["family"] == "zero" else Potential.step(*spec["params"])
        s = find_spectrum(q, BoundaryParams(*angles), n_max)
        want = reference.eigenvalues_piecewise_constant(
            reference.QModel.from_spec(spec), *angles, n_max)
        assert np.max(np.abs(s.mus - want) / np.maximum(np.abs(want), 1.0)) <= 1e-12
        assert all(p.zeros == p.n for p in s.pairs)

    def test_deep_robin_state_closed_form(self, q_zero):
        # mu_0 = -399: the solution grows like e^(20 x), and Phi reaches 7e22 at
        # the bracket end
        bc = BoundaryParams(0.05, 3.0)
        s = find_spectrum(q_zero, bc, 10)
        want = _free_eigenvalues(bc, 10)
        assert np.max(np.abs(s.mus - want) / np.maximum(np.abs(want), 1.0)) <= 1e-12

    def test_alpha_near_zero_takes_the_direction_of_pi(self, q_zero):
        # the sine of alpha = 1e-16 snaps to 0; the count needs the start
        # direction of alpha = pi, not its opposite
        bc, dirichlet = BoundaryParams(1e-16, PI / 2), BoundaryParams(PI, PI / 2)
        assert (bc.sin_alpha, bc.cos_alpha) == (0.0, -1.0)
        s = find_spectrum(q_zero, bc, 5)
        assert s.mus.tolist() == [(n + 0.5) ** 2 for n in range(6)]
        assert _fields(s) == _fields(find_spectrum(q_zero, dirichlet, 5))
        q = Potential.step(2.0, 1.0)
        records = [norming_records(q, b, find_spectrum(q, b, 10).pairs) for b in (bc, dirichlet)]
        assert [dataclasses.astuple(r) for r in records[0]] == [
            dataclasses.astuple(r) for r in records[1]]

    @pytest.mark.parametrize("q", [Potential.zero(), Potential.step(2.0, 1.0),
                                   Potential.smooth_test([1.0, -0.5])], ids=["zero", "step", "smooth"])
    def test_beta_near_zero_counts_as_dirichlet(self, q):
        # beta = 3e-16 snaps to the direction of beta = 0, in the count too
        for alpha in (PI, 2.3):
            assert _fields(find_spectrum(q, BoundaryParams(alpha, 3e-16), 20)) == _fields(
                find_spectrum(q, BoundaryParams(alpha, 0.0), 20))

    def test_deep_step_keeps_its_regime_contract(self):
        # mu_2 = -319.7 of step(-400, 1) DD lies below 0
        with pytest.raises(UnsupportedRegimeError):
            find_spectrum(Potential.step(-400.0, 1.0), BoundaryParams(PI, 0.0), 2)


# barriers of height 330-586 on the left, (q, alpha, beta): their
# eigenfunction traces grow far past 1e12 across the barrier and stay inside
# the float range; the mirrors put the barrier on the right
TALL_BARRIERS = [(Potential.step(586.0, 2.5), 2.47, 0.64),
                 (Potential.step(440.0, 2.0), PI / 2, 0.0),
                 (Potential.step(330.0, 1.7), PI / 2, PI / 2)]
TALL_IDS = ["step586", "step440", "step330"]


def _mirror(q, alpha, beta):
    """The reflected problem q(pi - x) with angles (pi - beta, pi - alpha), for a step."""
    height, x0 = q.params
    return Potential.step(-height, PI - x0).shifted(height), PI - beta, PI - alpha


class TestTallBarrierTraces:
    """The node traces reach every spectrum the search returns, and count n zeros."""

    @pytest.mark.parametrize("q,alpha,beta", TALL_BARRIERS, ids=TALL_IDS)
    def test_node_sweep_counts_n(self, q, alpha, beta):
        bc = BoundaryParams(alpha, beta)
        s = find_spectrum(q, bc, 5)
        values = y_values_batch(build_mesh(q), s.mus, bc.sin_alpha, -bc.cos_alpha)
        assert np.max(np.abs(values)) > 1e12
        assert _zero_counts(values).tolist() == list(range(6))

    @pytest.mark.parametrize("q,alpha,beta", TALL_BARRIERS, ids=TALL_IDS)
    def test_phi_traces_count_n(self, q, alpha, beta):
        for p in find_spectrum(q, BoundaryParams(alpha, beta), 5).pairs:
            assert _zero_counts(phi(q, p.mu, alpha).y[:, None]).tolist() == [p.n]

    @pytest.mark.parametrize("mirrored", [False, True], ids=["left", "right"])
    @pytest.mark.parametrize("q,alpha,beta", TALL_BARRIERS, ids=TALL_IDS)
    def test_certificate_counts_n_towards_the_large_end(self, q, alpha, beta, mirrored):
        # the forward traces of the mirrors and the backward ones of the
        # barriers on the left grow towards the end where the eigenfunction
        # is exponentially small, and gain spurious sign changes
        if mirrored:
            q, alpha, beta = _mirror(q, alpha, beta)
        s = find_spectrum(q, BoundaryParams(alpha, beta), 5)
        assert _eigen_zero_counts(build_mesh(q), s).tolist() == list(range(6))


class TestNodeCertificateEnds:
    """Criterion 12's count reads the end signs too, so the end intervals count."""

    @pytest.mark.parametrize("grid", [64, 128])
    @pytest.mark.parametrize("alpha,beta", [(PI / 2, PI / 2), (PI, PI / 2), (PI / 2, 0.0),
                                            (2.3, 0.6), (PI, 0.0)],
                             ids=["NN", "DN", "ND", "robin", "DD"])
    def test_zero_potential_through_n_equals_grid(self, q_zero, alpha, beta, grid):
        # on the zero potential the interior nodes alone first missed a zero
        # at n = N/2 (N - 1 at DD): the first zero of cos(nu x) lies in
        # (0, h) once nu > N/2.  With the ends the count holds until nu h
        # first reaches pi, at n = N (N - 1 at DD, where the zeros sit on nodes)
        dd = alpha == PI and beta == 0.0
        last = grid - 2 if dd else grid
        s = find_spectrum(q_zero, BoundaryParams(alpha, beta), last, grid_size=grid)
        counts = _eigen_zero_counts(build_mesh(q_zero, grid), s)
        assert counts.tolist() == list(range(last + 1))


def _perfbench_reference():
    """perfbench/reference.py, loaded by path as it stands."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
