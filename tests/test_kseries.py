import math

import numpy as np
import pytest

from slspectra import (
    BoundaryParams,
    CaseError,
    Potential,
    ac_diagnostic,
    case_tag,
    k2_closed_form_dd,
    k_partial_sum,
    series_coefficients,
    sigma_functions,
    sin_two_pi,
    solve_delta,
)
from slspectra import kseries
from slspectra.fitting import is_strictly_decreasing
from slspectra.potential import fourier_moments

from conftest import uneven_grid

PI = math.pi


_XS13 = np.append(np.arange(12) * PI / 12, PI)
ONE_PASS_POTENTIALS = {
    "constant": lambda: Potential.constant(1.0),
    "step": lambda: Potential.step(2.0, PI / 2),
    "smooth": lambda: Potential.smooth_test([1.0, -0.5]),
    "grid13": lambda: Potential.from_grid(_XS13, np.sin(2 * _XS13) + _XS13 / 3),
    "grid64": lambda: Potential.from_grid(*uneven_grid(5)),
}


class TestCases:
    def test_tags(self, bc_dd, bc_nn):
        assert case_tag(bc_dd) == "dirichlet-dirichlet"
        assert case_tag(bc_nn) == "interior"

    @pytest.mark.parametrize("alpha,beta", [(PI, PI / 3), (PI / 3, 0.0)])
    def test_mixed_cases_rejected(self, alpha, beta):
        with pytest.raises(CaseError):
            case_tag(BoundaryParams(alpha, beta))
        with pytest.raises(CaseError):
            k_partial_sum(Potential.zero(), BoundaryParams(alpha, beta), 10)

    def test_truncation_cap(self, q_one, bc_dd):
        with pytest.raises(ValueError):
            k_partial_sum(q_one, bc_dd, 401)
        with pytest.raises(ValueError):
            k_partial_sum(q_one, bc_dd, 20, truncations=(1, 20))

    @pytest.mark.parametrize("N, truncations", [(10.5, None), (10, []), (10, [2.9, 10])],
                             ids=["fractional-N", "empty-ladder", "fractional-truncation"])
    def test_truncations_must_be_integers(self, q_one, bc_dd, N, truncations):
        with pytest.raises(ValueError):
            k_partial_sum(q_one, bc_dd, N, truncations=truncations)

    def test_series_coefficients_rejects_fractional_N(self, q_one, bc_dd):
        with pytest.raises(ValueError):
            series_coefficients(q_one, bc_dd, 10.5)


class TestSeriesTerms:
    def test_zero_potential_vanishes(self, q_zero, bc_dd):
        res = k_partial_sum(q_zero, bc_dd, 12)
        assert np.max(np.abs(res.k_partial)) < 1e-12
        assert np.max(np.abs(res.k2_partial)) < 1e-12

    def test_constant_dd_term_formula(self, q_one, bc_dd):
        grid = np.linspace(0, 2 * PI, 128)
        res = k_partial_sum(q_one, bc_dd, 8, points=128)
        manual = np.zeros_like(grid)
        for n in range(2, 9):
            manual += -PI / (4 * (n + 1) ** 2) * np.cos((n + 1) * grid)
        assert np.max(np.abs(res.k_partial[-1] - manual)) < 1e-9

    def test_split_identity_per_term(self, q_step):
        bc = BoundaryParams(PI / 4, PI / 2)
        nus, kc, k1c, k2c = series_coefficients(q_step, bc, 40)
        assert np.max(np.abs(kc - k1c - k2c)) < 1e-8

    @pytest.mark.parametrize("q,bc", [
        (Potential.step(3.0, 1.0), BoundaryParams(PI / 3, PI / 3)),
        (Potential.constant(1.0), BoundaryParams(PI, 0.0)),
    ], ids=["step-interior", "constant-dd"])
    def test_split_identity_at_cap(self, q, bc):
        nus, kc, k1c, k2c = series_coefficients(q, bc, 400)
        assert np.max(np.abs(kc - k1c - k2c)) <= 5e-13 * np.max(np.abs(kc))

    def test_k1_vanishes_when_shift_is_exact(self, q_step, bc_dd, bc_nn):
        for bc in (bc_dd, bc_nn):
            res = k_partial_sum(q_step, bc, 10, points=64, truncations=(10,))
            assert np.max(np.abs(res.k1_partial[0])) == 0.0

    def test_c_n_quadratic_decay(self, q_one):
        bc = BoundaryParams(PI / 4, PI / 2)
        nus, _, k1c, _ = series_coefficients(q_one, bc, 200)
        # k1 coefficient is -sigma(pi) sin(2 pi delta_n)/(2 nu); n^2 |c_n| bounded
        sigma_pi = PI ** 2 / 2
        ns = np.arange(2, 201)
        scaled = ns ** 2 * np.abs(k1c) / sigma_pi
        assert np.max(scaled[100:]) <= np.max(scaled[:100]) * 1.5

    def test_terms_vanish_at_large_n(self, q_step, bc_nn):
        nus, kc, _, _ = series_coefficients(q_step, bc_nn, 120)
        assert abs(kc[-1]) < abs(kc[0])
        assert abs(kc[-1]) < 1e-3


class TestClosedForm:
    def test_zero_potential(self, q_zero):
        grid = np.linspace(0, 2 * PI, 64)
        assert np.max(np.abs(k2_closed_form_dd(q_zero, grid))) < 1e-12

    def test_default_grid(self, q_one):
        grid = np.linspace(0.0, 2.0 * PI, kseries.DEFAULT_GRID_POINTS)
        assert np.array_equal(k2_closed_form_dd(q_one), k2_closed_form_dd(q_one, grid))

    def test_constant_analytic(self, q_one):
        # sigma(x) = pi x - x^2/2, sigma_tilde(x) = pi x/2 - x^2/8; removing
        # the first three cosine harmonics of the even part leaves
        # (pi/2)(pi x/4 - x^2/8 - pi^2/12 + cos(x)/2 + cos(2x)/8)
        grid = np.linspace(0, 2 * PI, 256)
        expect = (PI / 2) * (PI * grid / 4 - grid ** 2 / 8 - PI ** 2 / 12
                             + np.cos(grid) / 2 + np.cos(2 * grid) / 8)
        got = k2_closed_form_dd(q_one, grid)
        assert np.max(np.abs(got - expect)) < 1e-9

    def test_partial_sums_approach_closed_form(self, q_step, bc_dd):
        grid = np.linspace(0, 2 * PI, 512)
        closed = k2_closed_form_dd(q_step, grid)
        mask = (grid >= 1.0) & (grid <= 2 * PI - 1.0)
        errs = []
        for N in (25, 50, 100):
            part = k_partial_sum(q_step, bc_dd, N, points=512, truncations=(N,)).k2_partial[0]
            errs.append(np.max(np.abs(part[mask] - closed[mask])))
        assert is_strictly_decreasing(errs)

    def test_cauchy_ladder_interior(self, q_step, bc_nn):
        grid = np.linspace(0, 2 * PI, 512)
        res = k_partial_sum(q_step, bc_nn, 160, points=512, truncations=(40, 80, 160))
        mask = (grid >= 0.5) & (grid <= 2 * PI - 0.5)
        d1 = np.max(np.abs(res.k_partial[1][mask] - res.k_partial[0][mask]))
        d2 = np.max(np.abs(res.k_partial[2][mask] - res.k_partial[1][mask]))
        assert d2 < d1


@pytest.mark.parametrize("name", ONE_PASS_POTENTIALS)
@pytest.mark.parametrize("N", [50, 400])
class TestOnePass:
    """k_partial_sum takes everything from one shift solve and one moment call, bit for bit."""

    @pytest.mark.parametrize("bc", [BoundaryParams(PI, 0.0), BoundaryParams(2.3, 0.6)],
                             ids=["dd", "robin"])
    def test_coefficients_are_one_stacked_call(self, name, N, bc):
        q = ONE_PASS_POTENTIALS[name]()
        nus, kc, k1c, k2c = series_coefficients(q, bc, N)
        ns = np.arange(2, N + 1)
        deltas = [solve_delta(int(n), bc).value for n in ns]
        assert np.array_equal(nus, ns + np.array(deltas))
        ci = sigma_functions(q)
        cos_m, sin_m = fourier_moments(lambda t: np.stack([ci.sigma(t), (PI - t) * q(t)]),
                                       2.0 * nus, q.breakpoints, cubic=q.piecewise_linear)
        assert np.array_equal(kc, -0.5 * sin_m[1] / nus)
        assert np.array_equal(k2c, cos_m[0])
        assert np.array_equal(k1c, -ci.sigma(PI) * np.array([sin_two_pi(d) for d in deltas])
                              / (2.0 * nus))
        # the partial sums are those of these coefficients
        res = k_partial_sum(q, bc, N, points=256)
        rows = kseries._partial_rows(nus, [kc, k1c, k2c], 256, res.N_list)
        assert np.array_equal(np.stack([res.k_partial, res.k1_partial, res.k2_partial]), rows)

    def test_closed_form_is_the_standalone_one(self, name, N):
        q = ONE_PASS_POTENTIALS[name]()
        res = k_partial_sum(q, BoundaryParams(PI, 0.0), N, points=256)
        assert np.array_equal(res.closed_form, k2_closed_form_dd(q, res.grid))


class TestK1Sines:
    """The k1 coefficients take sin(2 pi delta_n) as sin_two_pi does, bit for bit."""

    def test_k1_sines_match_the_scalar_loop(self, q_step):
        # the array form of sin(2 pi delta_n) is sin_two_pi bit for bit, on
        # the archetypes and on 50 random angle pairs
        rng = np.random.default_rng(21)
        bcs = [BoundaryParams(PI, 0.0), BoundaryParams(PI / 2, PI / 2),
               BoundaryParams(PI / 4, PI / 2), BoundaryParams(PI / 3, PI / 3)]
        bcs += [BoundaryParams(a, b) for a, b in rng.uniform(0.01, PI - 0.01, (50, 2))]
        sigma_pi = sigma_functions(q_step).sigma(PI)
        for bc in bcs:
            nus, _, k1c, _ = series_coefficients(q_step, bc, 400)
            deltas = kseries._shifts(np.arange(2, 401), bc)[0].tolist()
            expect = -sigma_pi * np.array([sin_two_pi(d) for d in deltas]) / (2.0 * nus)
            assert np.array_equal(k1c, expect)

    def test_k1_sines_at_half_integers(self, q_step, bc_nn, monkeypatch):
        # |m| = 0.5 gives exactly 0, and ties round to even on both paths
        deltas = np.array([0.5, -0.5, 1.5, 2.5, -1.5, 0.25, -0.75, 1e-17, 0.0, 1.0])
        monkeypatch.setattr(kseries, "_shifts", lambda ns, bc: (deltas,))
        nus, _, k1c, _ = series_coefficients(q_step, bc_nn, deltas.size + 1)
        expect = (-sigma_functions(q_step).sigma(PI)
                  * np.array([sin_two_pi(d) for d in deltas.tolist()]) / (2.0 * nus))
        assert np.array_equal(k1c, expect)
        assert np.count_nonzero(k1c[:5]) == 0


class TestPartialRows:
    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="the reference needs extended-precision long double")
    @pytest.mark.parametrize("bc", [BoundaryParams(PI, 0.0), BoundaryParams(2.0, 0.5)])
    def test_rows_match_long_double_termwise_sums(self, q_step, bc):
        # reference: one series at a time, each term added in ascending n, in
        # long double at x_j = 2 pi j / (points - 1) with pi to long-double
        # precision; P = points - 1 is 1, 2 (prime), 63, 300 and 2047
        ladder = (100, 200, 400)
        xs = np.append(np.arange(12) * PI / 12, PI)
        for q in (q_step, Potential.from_grid(xs, np.sin(2 * xs) + xs / 3)):
            nus, *coef_sets = series_coefficients(q, bc, 400)
            for points in (2, 3, 64, 301, 2048):
                res = k_partial_sum(q, bc, 400, points=points, truncations=ladder)
                assert np.array_equal(res.grid, np.linspace(0, 2 * PI, points))
                grid = 8 * np.arctan(np.longdouble(1)) * np.arange(points) / (points - 1)
                for rows, coefs in zip((res.k_partial, res.k1_partial, res.k2_partial),
                                       coef_sets):
                    acc = np.zeros(points, dtype=np.longdouble)
                    expect = []
                    for pos, (nu, c) in enumerate(zip(nus, coefs)):
                        acc += np.longdouble(c) * np.cos(np.longdouble(nu) * grid)
                        if pos + 2 in ladder:
                            expect.append(acc.copy())
                    expect = np.array(expect)
                    assert np.max(np.abs(rows - expect)) <= 4e-15 * np.max(np.abs(expect))

    @pytest.mark.parametrize("points", [1, 0, -3])
    def test_points_validation(self, q_step, bc_dd, points):
        with pytest.raises(ValueError):
            k_partial_sum(q_step, bc_dd, 10, points=points)

    def test_points_must_be_an_integer(self, q_step, bc_dd):
        # 64.5 once escaped as TypeError
        with pytest.raises(ValueError, match="^points must be an integer, got 64.5"):
            k_partial_sum(q_step, bc_dd, 10, points=64.5)
        got = k_partial_sum(q_step, bc_dd, 10, points=np.int64(65))
        assert np.array_equal(got.k_partial, k_partial_sum(q_step, bc_dd, 10, points=65).k_partial)


class TestACDiagnostic:
    def test_zero_potential_variation(self, q_zero, bc_dd):
        res = k_partial_sum(q_zero, bc_dd, 12)
        rep = ac_diagnostic(res.grid, res.k_partial, res.N_list, 1.0, 5.0)
        assert rep.variations[-1] == 0.0
        assert rep.tv_stability == 0.0

    def test_constant_dd_matches_closed_variation(self, q_one, bc_dd):
        res = k_partial_sum(q_one, bc_dd, 100)
        mask_rep = ac_diagnostic(res.grid, res.k2_partial, res.N_list, 1.0, 5.0)
        closed_rep = ac_diagnostic(res.grid, res.closed_form[None, :], (100,), 1.0, 5.0)
        assert mask_rep.variations[-1] == pytest.approx(
            closed_rep.variations[-1], rel=0.02)

    def test_interior_variation_stabilizes(self, q_step):
        bc = BoundaryParams(PI / 3, PI / 3)
        res = k_partial_sum(q_step, bc, 200, truncations=(100, 200))
        rep = ac_diagnostic(res.grid, res.k_partial, res.N_list, 0.5, 2 * PI - 0.5)
        assert rep.tv_stability <= 0.05

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_input_refused(self, q_step, bc_dd, value):
        # NaN partial sums used to read as an unstable series (tv_stability = inf)
        res = k_partial_sum(q_step, bc_dd, 20)
        partials, grid = res.k_partial.copy(), res.grid.copy()
        partials[-1, 3] = value
        grid[5] = value
        for args in ((res.grid, partials), (grid, res.k_partial)):
            with pytest.raises(ValueError, match="^grid and partials must be finite$"):
                ac_diagnostic(*args, res.N_list, 1.0, 5.0)

    @pytest.mark.parametrize("rows", [0, 2], ids=["no-row", "two-rows"])
    def test_one_row_per_truncation(self, q_step, bc_dd, rows):
        # two rows for three truncations used to give a three-truncation
        # report with two variations, and no row an IndexError
        res = k_partial_sum(q_step, bc_dd, 30, truncations=(10, 20, 30))
        with pytest.raises(ValueError, match=f"^partials must have one row per entry of N_list, "
                                             f"at least one, got {rows} rows for 3 entries$"):
            ac_diagnostic(res.grid, res.k_partial[:rows], res.N_list, 1.0, 5.0)
        with pytest.raises(ValueError, match="^partials must have one row per entry of N_list"):
            ac_diagnostic(res.grid, res.k_partial[:0], (), 1.0, 5.0)

    def test_segment_validation(self, q_zero, bc_dd):
        res = k_partial_sum(q_zero, bc_dd, 8)
        with pytest.raises(ValueError):
            ac_diagnostic(res.grid, res.k_partial, res.N_list, 0.0, 5.0)
        with pytest.raises(ValueError):
            ac_diagnostic(res.grid, res.k_partial, res.N_list, 5.0, 1.0)
        # two grid points of linspace(0, 2 pi, 8) lie in [0.8, 2.0]
        res = k_partial_sum(q_zero, bc_dd, 8, points=8)
        with pytest.raises(ValueError, match="segment contains too few grid points"):
            ac_diagnostic(res.grid, res.k_partial, res.N_list, 0.8, 2.0)
