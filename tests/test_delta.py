import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slspectra import (
    BoundaryParams,
    ConvergenceError,
    delta_asymptotic,
    delta_for_index,
    sin_two_pi,
    solve_delta,
)
from slspectra import delta
from slspectra.fitting import fit_loglog_slope

PI = math.pi

CASES = [
    BoundaryParams(PI / 4, PI / 2),
    BoundaryParams(PI, PI / 3),
    BoundaryParams(PI / 3, 0.0),
    BoundaryParams(PI, 0.0),
]


def _oracle_bisect(n, alpha, beta, lo=-0.9, hi=1.9, iters=120):
    """Independent root finder for the fixed-point defect, pure bisection."""

    def term(nu, angle):
        s, c = math.sin(angle), math.cos(angle)
        if abs(s) < 5e-16:
            s, c = 0.0, math.copysign(1.0, c)
        denom = math.sqrt(nu * nu * s * s + c * c)
        return math.acos(c / denom) / PI

    def defect(d):
        return term(n + d, alpha) - term(n + d, beta) - d

    flo, fhi = defect(lo), defect(hi)
    assert flo * fhi <= 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if defect(mid) * flo > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _scalar_fixed_point(n, bc):
    """The one-index fixed-point loop, in Python floats: the oracle of the array solve.

    Returns (value, iterations, residual, converged), read against the
    module's current FIXED_POINT_TOL and MAX_ITERATIONS.
    """

    def term(nu, s, c):
        denom = math.sqrt(nu * nu * s * s + c * c)
        if denom == 0.0:
            return 0.5
        return math.acos(c / denom) / PI

    def rhs(d):
        nu = n + d
        return term(nu, bc.sin_alpha, bc.cos_alpha) - term(nu, bc.sin_beta, bc.cos_beta)

    d = delta_asymptotic(max(n, 1), bc)
    for it in range(1, delta.MAX_ITERATIONS + 1):
        d_next = rhs(d)
        if abs(d_next - d) <= delta.FIXED_POINT_TOL:
            return d_next, it, abs(rhs(d_next) - d_next), True
        d = d_next
    return d, delta.MAX_ITERATIONS, abs(rhs(d) - d), False


def _assert_matches_oracle(dv, n, bc):
    value, iterations, residual, _ = _scalar_fixed_point(n, bc)
    assert (dv.n, dv.value, dv.iterations, dv.residual, dv.extrapolated) == (
        n, value, iterations, residual, n < 2)
    assert type(dv.value) is float and type(dv.iterations) is int
    assert type(dv.residual) is float


class TestArraySolve:
    """One iteration over all indices returns each index's scalar fixed point bit for bit."""

    @pytest.mark.parametrize("bc", CASES + [BoundaryParams(PI / 2, PI / 2),
                                            BoundaryParams(2.3, 0.6)],
                             ids=["quarter-half", "pi-third", "third-zero", "dd", "nn", "robin"])
    def test_archetypes(self, bc):
        ns = range(0, 1001)
        for n, dv in zip(ns, delta._delta_values(ns, bc)):
            _assert_matches_oracle(dv, n, bc)
        for n in (0, 1, 2, 3, 17, 1000):
            _assert_matches_oracle(delta_for_index(n, bc), n, bc)

    @given(alpha=st.floats(min_value=0.05, max_value=PI),
           beta=st.floats(min_value=0.0, max_value=PI - 0.05))
    @settings(max_examples=25, deadline=None)
    def test_drawn_angles(self, alpha, beta):
        bc = BoundaryParams(alpha, beta)
        ns = range(0, 1001)
        for n, dv in zip(ns, delta._delta_values(ns, bc)):
            _assert_matches_oracle(dv, n, bc)

    @pytest.mark.parametrize("order", [list(range(0, 40)), [30, 5, 2, 0]],
                             ids=["ascending", "shuffled"])
    def test_first_unconverged_index_raises(self, order, monkeypatch):
        # three iterations leave the low indices unconverged at these angles;
        # the error names the first such index in the order given, as a loop
        # over the indices would
        monkeypatch.setattr(delta, "MAX_ITERATIONS", 3)
        bc = BoundaryParams(2.3, 0.6)
        failing = [n for n in order if n >= 2 and not _scalar_fixed_point(n, bc)[3]]
        assert failing
        value, _, residual, _ = _scalar_fixed_point(failing[0], bc)
        with pytest.raises(ConvergenceError, match=f"for n = {failing[0]} ") as info:
            delta._shifts(order, bc)
        assert (info.value.last_value, info.value.residual) == (value, residual)
        # extrapolated indices keep their last iterate instead
        values, iterations, residuals = delta._shifts([0, 1], bc)
        for n in (0, 1):
            assert (values[n], iterations[n], residuals[n]) == _scalar_fixed_point(n, bc)[:3]

    def test_sanity_window_raises_at_first_index(self, monkeypatch):
        # the shifts at these angles are positive; a window that ends at 0
        # rejects the first index n >= 2, while n = 0, 1 are never checked
        monkeypatch.setattr(delta, "_VALUE_WINDOW", (-1.0, 0.0))
        bc = BoundaryParams(2.3, 0.6)
        value, _, residual, _ = _scalar_fixed_point(2, bc)
        with pytest.raises(ConvergenceError, match="outside the sanity window") as info:
            delta._shifts(range(0, 10), bc)
        assert (info.value.last_value, info.value.residual) == (value, residual)
        assert delta_for_index(1, bc).value > 0.0

    def test_few_open_indices_finish_in_floats(self, monkeypatch):
        # n = 0 needs 33 iterations at these angles; the array iteration stops
        # once at most delta._FLOAT_TAIL indices are open, and those finish
        # in floats
        calls = []
        rhs = delta._rhs

        def counting(d, *args):
            calls.append(d.size)
            return rhs(d, *args)

        monkeypatch.setattr(delta, "_rhs", counting)
        bc = BoundaryParams(2.3, 0.6)
        values, iterations, residuals = delta._shifts(range(21), bc)
        assert max(iterations) == 33
        assert len(calls) <= 8 and calls[-1] == 21  # the last call is the residuals
        for n in range(21):
            assert (values[n], iterations[n], residuals[n]) == _scalar_fixed_point(n, bc)[:3]


class TestSolveDelta:
    def test_dirichlet_both_is_one(self):
        assert solve_delta(5, BoundaryParams(PI, 0.0)).value == 1.0

    def test_neumann_both_is_zero(self):
        assert solve_delta(5, BoundaryParams(PI / 2, PI / 2)).value == 0.0

    def test_half_case(self):
        assert solve_delta(5, BoundaryParams(PI, PI / 2)).value == 0.5

    def test_against_bisection_oracle(self):
        bc = BoundaryParams(PI / 4, PI / 2)
        got = solve_delta(10, bc).value
        assert got == pytest.approx(_oracle_bisect(10, PI / 4, PI / 2), abs=1e-12)
        # leading form with O(1/n^2) slack
        assert abs(got - (-1.0 / (10 * PI))) < 1e-3

    def test_rejects_small_index(self):
        with pytest.raises(ValueError):
            solve_delta(1, BoundaryParams(PI, 0.0))

    def test_extrapolated_flagging(self):
        dv = delta_for_index(0, BoundaryParams(PI / 2, PI / 2))
        assert dv.extrapolated and dv.value == 0.0
        dv = delta_for_index(1, BoundaryParams(PI, PI / 3))
        assert dv.extrapolated
        assert not delta_for_index(2, BoundaryParams(PI, PI / 3)).extrapolated
        with pytest.raises(ValueError):
            delta_for_index(-1, BoundaryParams(PI, 0.0))

    @given(n=st.integers(min_value=2, max_value=200),
           alpha=st.floats(min_value=0.2, max_value=PI),
           beta=st.floats(min_value=0.0, max_value=PI - 0.2))
    @settings(max_examples=60, deadline=None)
    def test_residual_and_window(self, n, alpha, beta):
        dv = solve_delta(n, BoundaryParams(alpha, beta))
        assert dv.residual <= 1e-13
        assert -1.0 <= dv.value <= 2.0


class TestAsymptoticForms:
    def test_interior_formula(self):
        bc = BoundaryParams(PI / 4, 3 * PI / 4)
        assert delta_asymptotic(10, bc) == pytest.approx(-1.0 / (5 * PI), abs=1e-15)

    def test_dirichlet_both(self):
        assert delta_asymptotic(7, BoundaryParams(PI, 0.0)) == 1.0

    def test_dirichlet_left(self):
        bc = BoundaryParams(PI, PI / 4)
        assert delta_asymptotic(10, bc) == pytest.approx(0.5 + 1.0 / (PI * 10.5), abs=1e-15)

    def test_index_zero_rejected(self):
        with pytest.raises(ValueError, match="asymptotic form needs n >= 1, got 0"):
            delta_asymptotic(0, BoundaryParams(PI / 2, PI / 2))

    def test_convergence_rate(self):
        ns = np.arange(10, 101)
        for bc in CASES[:3]:
            diffs = [abs(solve_delta(int(n), bc).value - delta_asymptotic(int(n), bc))
                     for n in ns]
            assert fit_loglog_slope(ns, diffs, floor=1e-12) <= -1.8


class TestStructuralProperties:
    def test_sin_two_pi_exactness(self):
        assert sin_two_pi(1.0) == 0.0
        assert sin_two_pi(0.5) == 0.0
        assert sin_two_pi(0.25) == pytest.approx(1.0)
        assert sin_two_pi(0.5 + 1e-3) == pytest.approx(-math.sin(2 * PI * 1e-3), abs=1e-15)

    def test_sin_two_pi_delta_decays(self):
        # n |sin(2 pi delta_n)| stays bounded in all four archetypes
        for bc in CASES:
            vals = [n * abs(sin_two_pi(solve_delta(n, bc).value))
                    for n in range(10, 101)]
            first = max(vals[:45])
            second = max(vals[45:])
            assert second <= max(1.5 * first, 1e-12)

    def test_continuity_in_alpha(self):
        # finite differences along a fine alpha grid vary slowly, no jumps
        alphas = np.linspace(0.4, PI - 0.02, 250)
        vals = np.array([solve_delta(12, BoundaryParams(float(a), 1.0)).value
                         for a in alphas])
        diffs = np.diff(vals)
        assert np.all(diffs > 0)  # monotone in alpha at fixed beta
        ratios = diffs[1:] / diffs[:-1]
        assert np.all(ratios < 1.5) and np.all(ratios > 0.5)
