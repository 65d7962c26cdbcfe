import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slspectra import (
    BlowUpError,
    BoundaryParams,
    Potential,
    find_spectrum,
    kernel_A,
    phi,
    picard_y2,
    psi,
    solve_ivp,
)
from slspectra import odesolve, spectrum
from slspectra.odesolve import (
    _BLOCK_ELEMS,
    _BLOCK_MUS,
    _dS_dw,
    _mul,
    _nodes,
    _product,
    _step_coeffs,
    _transfer,
    build_mesh,
    count_product,
    endpoint_values,
    norm_product,
    propagate_with_norm,
    y_values_batch,
)
from slspectra.spectrum import _zero_counts

import tuple_tree
from conftest import pool_potentials

PI = math.pi


class TestSolveIvp:
    def test_free_cosine(self, q_zero):
        tr = solve_ivp(q_zero, 4.0, True, 1.0, 0.0, 512)
        assert np.max(np.abs(tr.y - np.cos(2 * tr.grid))) < 1e-12
        assert tr.y[-1] == pytest.approx(1.0, abs=1e-12)

    def test_zero_mu_linear(self, q_zero):
        tr = solve_ivp(q_zero, 0.0, True, 0.0, 1.0, 512)
        assert np.max(np.abs(tr.y - tr.grid)) < 1e-13
        assert tr.y[-1] == pytest.approx(PI, abs=1e-13)

    def test_constant_shift_reduction(self, q_one):
        tr = solve_ivp(q_one, 5.0, True, 1.0, 0.0, 512)
        assert np.max(np.abs(tr.y - np.cos(2 * tr.grid))) < 1e-12

    def test_hyperbolic_regime(self, q_zero):
        tr = solve_ivp(q_zero, -1.0, True, 1.0, 0.0, 512)
        assert np.max(np.abs(tr.y - np.cosh(tr.grid))) < 1e-11

    def test_right_to_left(self, q_zero):
        tr = solve_ivp(q_zero, 1.0, False, 0.0, -1.0, 512)
        # y(pi) = 0, y'(pi) = -1 gives y = sin(pi - x)
        assert np.max(np.abs(tr.y - np.sin(PI - tr.grid))) < 1e-12
        assert np.all(np.diff(tr.grid) > 0)

    def test_blow_up_guard(self, q_zero):
        # a trace raises only where it leaves the float range; below that,
        # values far beyond any fixed bound come back: cosh(sqrt(4000) x)
        # reaches 9.8e85 at pi
        with pytest.raises(BlowUpError):
            solve_ivp(q_zero, -1e6, True, 1.0, 0.0, 512)
        tr = solve_ivp(q_zero, -4000.0, True, 1.0, 0.0, 512)
        ref = np.cosh(math.sqrt(4000.0) * tr.grid)
        assert ref[-1] > 1e85
        assert np.max(np.abs(tr.y / ref - 1.0)) <= 1e-12

    @pytest.mark.parametrize("mu, y0, yp0", [(math.nan, 1.0, 0.0), (math.inf, 1.0, 0.0),
                                             (1.0, math.nan, 0.0), (1.0, 1.0, math.inf)],
                             ids=["nan-mu", "inf-mu", "nan-y0", "inf-yp0"])
    def test_non_finite_data_rejected(self, q_zero, mu, y0, yp0):
        for at_left in (True, False):
            with pytest.raises(ValueError, match="must be finite"):
                solve_ivp(q_zero, mu, at_left, y0, yp0, 512)
        if math.isfinite(y0) and math.isfinite(yp0):
            for solution in (phi, psi):
                with pytest.raises(ValueError, match="must be finite"):
                    solution(q_zero, mu, PI / 2)

    def test_grid_size_validation(self, q_zero):
        with pytest.raises(ValueError):
            solve_ivp(q_zero, 1.0, True, 1.0, 0.0, 32)

    @pytest.mark.parametrize("grid_size", [100.5, np.float64(512.0), "512"],
                             ids=["fraction", "float64", "string"])
    def test_grid_size_must_be_an_integer(self, q_step, grid_size):
        # each once escaped as TypeError
        calls = (lambda: build_mesh(q_step, grid_size),
                 lambda: solve_ivp(q_step, 1.0, True, 1.0, 0.0, grid_size),
                 lambda: phi(q_step, 1.0, PI / 2, grid_size),
                 lambda: find_spectrum(q_step, BoundaryParams(PI, 0.0), 3, grid_size=grid_size))
        for call in calls:
            with pytest.raises(ValueError, match="^grid_size must be an integer, got"):
                call()

    def test_numpy_integer_grid_size(self, q_step):
        mesh, ref = build_mesh(q_step, np.int64(512)), build_mesh(q_step, 512)
        assert np.array_equal(mesh.nodes, ref.nodes) and np.array_equal(mesh.gen, ref.gen)

    def test_mesh_includes_breakpoints(self, q_step):
        mesh = build_mesh(q_step, 100)
        assert np.any(np.isclose(mesh.nodes, PI / 2, atol=1e-14))

    def test_batch_matches_scalar(self, q_step):
        mesh = build_mesh(q_step, 256)
        mus = np.array([3.0, -1.0, 40.0])
        batch = y_values_batch(mesh, mus, 1.0, 0.5)
        for j, mu in enumerate(mus):
            tr = solve_ivp(q_step, float(mu), True, 1.0, 0.5, 256)
            assert np.max(np.abs(batch[:, j] - tr.y)) < 1e-11


def _generator(mesh, mus):
    """Per-interval (d, b, c, e, gamma, w_eff) of the Magnus step, each of shape (intervals, mus).

    d = d0 - e w and c = c0 - gamma w at w = mu - q2, w_eff = -(d^2 + b c).
    """
    d0, e, b, gamma, c0 = (row[:, None] for row in mesh.gen)
    w = mus - mesh.q[:, None]
    d, c = d0 - e * w, c0 - gamma * w
    b, e, gamma = (np.broadcast_to(v, w.shape) for v in (b, e, gamma))
    return d, b, c, e, gamma, -(d * d + b * c)


def _sequential_norm(mesh, mus, y0, yp0, forward):
    """Interval-by-interval reference: exact integral of the norm weight on each step.

    Inside a Magnus step y solves y'' = -w_eff y, with y' = d y + b y2, and
    the discrete norm integrates gamma y^2 - 2 e y y2.  With left values
    (y, p = y') an interval contributes I = ICC y^2 + 2 ICS y p + ISS p^2
    to int y^2, where ICC = h/2 + CS/2, ICS = S^2/2 and
    ISS = (h/2 - CS/2)/w_eff, or h^3 (1/3 - z/15 + 2 z^2/315) near
    w_eff = 0, with C, S at w_eff.  int y y2 = ((y_r^2 - y_l^2)/2 - d I)/b,
    so the weight integrates to (gamma + 2 e d / b) I - (e / b)(y_r^2 - y_l^2).
    """
    y = np.full(mus.shape, float(y0))
    yp = np.full(mus.shape, float(yp0))
    acc = np.zeros(mus.shape)
    coeffs = _generator(mesh, mus)
    order = range(len(mesh.h)) if forward else range(len(mesh.h) - 1, -1, -1)
    for i in order:
        h = mesh.h[i]
        d, b, c, e, gamma, weff = (v[i] for v in coeffs)
        z = weff * h * h
        r = np.sqrt(np.abs(weff))
        rs = np.where(r > 0, r, 1.0)
        C = np.where(weff > 0, np.cos(r * h), np.cosh(r * h))
        S = np.where(r > 0, np.where(weff > 0, np.sin(r * h), np.sinh(r * h)) / rs, h)
        y_right = y
        if not forward:
            y, yp = (C - d * S) * y - b * S * yp, -c * S * y + (C + d * S) * yp
        ISS = np.where(np.abs(z) < 1e-4,
                       h ** 3 * (1 / 3 - z / 15 + 2 * z * z / 315),
                       (h / 2 - C * S / 2) / np.where(weff != 0, weff, 1.0))
        p = d * y + b * yp
        y_left = y
        if forward:
            y, yp = (C + d * S) * y + b * S * yp, c * S * y + (C - d * S) * yp
            y_right = y
        sq = (h / 2 + C * S / 2) * y_left * y_left + S * S * y_left * p + ISS * p * p
        acc += (gamma + 2 * e * d / b) * sq - e / b * (y_right * y_right - y_left * y_left)
    return acc


def _magnus_entries(mesh, mus):
    """Per-interval step (C + d S, b S, c S, C - d S), C, S at w_eff, shape (intervals, mus)."""
    d, b, c, _, _, weff = _generator(mesh, mus)
    C, S = _step_coeffs(weff, mesh.h[:, None])
    return C + d * S, b * S, c * S, C - d * S


def _all_branch_coeffs(w, h):
    """Reference C, S: every branch evaluated on every entry, then selected."""
    z = w * h * h
    small = np.abs(z) < 1e-4
    th_p = np.sqrt(np.where(z >= 1e-4, z, 1.0))
    th_m = np.sqrt(np.where(z <= -1e-4, -z, 1.0))
    C = np.where(
        small,
        1.0 - z / 2.0 + z * z / 24.0 - z * z * z / 720.0,
        np.where(z > 0, np.cos(th_p), np.cosh(th_m)),
    )
    S = np.where(
        small,
        h * (1.0 - z / 6.0 + z * z / 120.0 - z * z * z / 5040.0),
        np.where(z > 0, h * np.sin(th_p) / th_p, h * np.sinh(th_m) / th_m),
    )
    return C, S


def _propagation_entries(mesh, mus, forward):
    """_magnus_entries in propagation order: backward, the inverse steps, last interval first."""
    a, b, c, d = _magnus_entries(mesh, mus)
    return (a, b, c, d) if forward else (d[::-1], -b[::-1], -c[::-1], a[::-1])


@np.errstate(over="ignore", invalid="ignore")
def _sequential_nodes(mesh, mus, y0, yp0, forward):
    """Node values stepped one interval at a time, in increasing node order."""
    a, b, c, d = _propagation_entries(mesh, mus, forward)
    Y, YP = np.empty((len(a) + 1, mus.size)), np.empty((len(a) + 1, mus.size))
    Y[0], YP[0] = y0, yp0
    for i in range(len(a)):
        Y[i + 1] = a[i] * Y[i] + b[i] * YP[i]
        YP[i + 1] = c[i] * Y[i] + d[i] * YP[i]
    flip = slice(None, None, 1 if forward else -1)
    return Y[flip], YP[flip]


class TestLiveBranchCoefficients:
    def test_bitwise_equal_to_all_branch_formula(self):
        # h = 1 and h = 1/2 put z = +-1e-4 exactly on the branch limits
        h = np.array([1.0, 0.5, PI / 4096, 1e-3, 0.37])[:, None]
        targets = np.array([0.0, 1e-4, -1e-4, np.nextafter(1e-4, 0.0), np.nextafter(-1e-4, 0.0),
                            5e-5, -5e-5, 1e-12, -3e-9, 2e-4, -2e-4, 0.3, -0.3, 2.5,
                            40.0, 900.0, -25.0, -399.0, -400.0, -401.0])
        w = targets / (h * h)
        z = w * h * h
        assert np.any(z == 1e-4) and np.any(z == -1e-4) and np.any(z == 0.0)
        C, S = _step_coeffs(w, h)
        Cr, Sr = _all_branch_coeffs(w, h)
        assert np.array_equal(C, Cr) and np.array_equal(S, Sr)


class TestNormSweep:
    # mu = 0 and mu = 2 put w = 0 exactly on one side of the step
    mus = np.concatenate([[0.0, 2.0, -6.5], np.linspace(-3.0, 900.0, _BLOCK_MUS - 2)])

    @pytest.mark.parametrize("forward", [True, False])
    @pytest.mark.parametrize("mesh_case", ["step-4097", "cos-64", "cos-1024", "cos-4096"])
    def test_matches_endpoints_and_sequential_sum(self, mesh_case, forward):
        if mesh_case == "step-4097":
            mesh = build_mesh(Potential.step(2.0, 1.3), 4096)
            assert len(mesh.h) == 4097
        else:
            mesh = build_mesh(Potential.smooth_test([1.0, -0.5]), int(mesh_case[4:]))
        y0, yp0 = 0.6, -0.8
        ref = _sequential_norm(mesh, self.mus, y0, yp0, forward)
        # both sweeps round like N eps |P| |(y0, yp0)| with P the whole-mesh
        # propagator; against a 40-digit product both are off by 1.6e-13 of
        # |(y, y')| at mu = 0 on the 4097-interval step mesh
        cols = [endpoint_values(mesh, self.mus, *e, forward=forward)
                for e in ((1.0, 0.0), (0.0, 1.0))]
        prop_norm = np.sqrt(sum(c * c for col in cols for c in col))
        for size in (1, _BLOCK_MUS - 1, _BLOCK_MUS, _BLOCK_MUS + 1):
            mus = self.mus[:size]
            y, yp, acc = propagate_with_norm(mesh, mus, y0, yp0, forward=forward)
            ye, ype = endpoint_values(mesh, mus, y0, yp0, forward=forward)
            scale = prop_norm[:size] * math.hypot(y0, yp0)
            assert np.max(np.abs(y - ye) / scale) <= 1e-12
            assert np.max(np.abs(yp - ype) / scale) <= 1e-12
            assert np.max(np.abs(acc / ref[:size] - 1.0)) <= 1e-11

    @pytest.mark.parametrize("q", [Potential.zero(), Potential.constant(3.0),
                                   Potential.step(2.0, 1.3), Potential.step(-1.5, PI / 2)],
                             ids=["zero", "constant", "step", "step-mid"])
    def test_backward_end_bitwise_on_two_runs(self, q):
        # the backward norm end is the adjugate of the forward product; with
        # at most two runs, adj(T2 T1) = adj(T1) adj(T2) takes the same
        # roundings as the reversed Phi sweep, entry for entry
        mesh = build_mesh(q)
        assert len(mesh.run_h) <= 2
        for size in (1, _BLOCK_MUS, len(self.mus)):
            mus = self.mus[:size]
            y, yp, _ = propagate_with_norm(mesh, mus, 0.6, -0.8, forward=False)
            ye, ype = endpoint_values(mesh, mus, 0.6, -0.8, forward=False)
            assert np.array_equal(y, ye) and np.array_equal(yp, ype)

    @pytest.mark.parametrize("forward", [True, False])
    @pytest.mark.parametrize("start", [(0.0, 1.0), (1.0, 0.0)])
    def test_deep_hyperbolic_guard(self, q_zero, forward, start):
        mesh = build_mesh(q_zero, 512)
        for mus in ([-1e6], [4.0, -1e6, 9.0], [-5e4]):
            with pytest.raises(BlowUpError):
                propagate_with_norm(mesh, mus, *start, forward=forward)


class TestGenerator:
    def test_folded_coefficients_equal_commutator_form(self):
        # Omega = a1 + a3/12 + [-20 a1 - a3 + C1, a2 + C2]/240 with
        # C1 = [a1, a2], C2 = -[a1, 2 a3 + C1]/60, from A = [[0, 1], [q - mu, 0]]
        # at the three Gauss points (Blanes, Casas & Ros, BIT 40, 2000)
        q = Potential.smooth_test([3.0, -2.0, 1.0])
        mesh = build_mesh(q, 64)
        x, h = mesh.nodes[:-1] + mesh.h / 2.0, mesh.h
        r = math.sqrt(15.0) / 10.0
        mus = np.array([-7.0, 0.0, 2.5, 300.0])
        d, b, c, _, _, _ = _generator(mesh, mus)

        def A(points):
            out = np.zeros(points.shape + mus.shape + (2, 2))
            out[..., 0, 1] = 1.0
            out[..., 1, 0] = q(points)[:, None] - mus
            return out

        def com(X, Y):
            return X @ Y - Y @ X

        A1, A2, A3 = A(x - r * h), A(x), A(x + r * h)
        hh = h[:, None, None, None]
        a1, a2 = hh * A2, math.sqrt(15.0) / 3.0 * hh * (A3 - A1)
        a3 = 10.0 / 3.0 * hh * (A3 - 2.0 * A2 + A1)
        C1 = com(a1, a2)
        C2 = -com(a1, 2.0 * a3 + C1) / 60.0
        omega = a1 + a3 / 12.0 + com(-20.0 * a1 - a3 + C1, a2 + C2) / 240.0
        H = h[:, None]
        for got, want in ((H * d, omega[..., 0, 0]), (-H * d, omega[..., 1, 1]),
                          (H * b, omega[..., 0, 1]), (H * c, omega[..., 1, 0])):
            assert np.max(np.abs(got - want) / (H * np.maximum(1.0, np.abs(mus)))) <= 1e-14


class TestMuDerivative:
    """norm_product's dM/dmu against a difference quotient of the Phi sweep's product.

    On 64 intervals e and gamma - 1 are large enough that dropping e from
    dT/dmu, setting gamma = 1 there, or flipping the sign of d on one
    diagonal moves dM by 1e-8 of its size or more at some mu; the
    extrapolated quotient is within 5e-12 of the closed form.
    """

    mus = np.array([-45.0, -5.0, 0.0, 3.0, 37.5, 400.0, 2500.0])

    # forward only: the backward norm is adj(dM), so no sweep steps backward with dT/dmu
    @pytest.mark.parametrize("forward", [True])
    @pytest.mark.parametrize("coeffs", [[1.0, -0.5], [20.0, -10.0]], ids=["cos", "tall-cos"])
    def test_matches_central_difference(self, coeffs, forward):
        mesh = build_mesh(Potential.smooth_test(coeffs), 64)
        assert not mesh.exact and mesh.q.min() > -45.0

        def quotient(step):
            up, down = (_product(mesh, m, forward, _transfer, _mul).reshape(4, -1)
                        for m in (self.mus + step, self.mus - step))
            return (up - down) / (2.0 * step)

        # mu-scale sqrt(mu); Richardson extrapolation leaves O(step^4)
        step = 1e-3 * np.maximum(1.0, np.sqrt(np.abs(self.mus)))
        ref = (4.0 * quotient(step / 2.0) - quotient(step)) / 3.0
        dM = np.array(norm_product(mesh, self.mus)[4:])
        err = np.max(np.abs(dM - ref), axis=0) / np.max(np.abs(ref), axis=0)
        assert np.max(err) <= 2e-11


class TestBlockedKernel:
    """The coefficient blocks shorten as the mu batch grows.

    A batch of _BLOCK_MUS puts 256 steps in a block; smaller batches take
    longer blocks, larger ones shorter.  The Phi and norm sweeps step the
    two runs of a step mesh at once, so the smooth meshes, one run per
    interval, give partial last blocks and odd levels in every pairwise
    tree; both kinds give the node sweep's doubling scan block lengths that
    are not powers of two, whose last pass reaches only the block's tail.
    """

    mus = np.concatenate([[0.0, 2.0, -6.5], np.linspace(-3.0, 900.0, 298)])
    sizes = (1, 2, _BLOCK_MUS - 1, _BLOCK_MUS, _BLOCK_MUS + 1, 301)
    y0, yp0 = 0.6, -0.8

    @pytest.fixture(params=[("step", 4096), ("step", 1024), ("step", 64),
                            ("cos", 4096), ("cos", 1024), ("cos", 64)],
                    ids=lambda p: f"grid{p[1]}" if p[0] == "step" else f"cos-grid{p[1]}")
    def mesh(self, request):
        kind, grid = request.param
        if kind == "step":
            mesh = build_mesh(Potential.step(2.0, 1.3), grid)
            assert len(mesh.h) == grid + 1 and len(mesh.run_h) == 2
        else:
            mesh = build_mesh(Potential.smooth_test([1.0, -0.5]), grid)
            assert len(mesh.h) == len(mesh.run_h) == grid
        return mesh

    def _scale(self, mesh, forward):
        """|P| |(y0, yp0)| per mu, with P the whole-mesh propagator."""
        cols = [endpoint_values(mesh, self.mus, *e, forward=forward)
                for e in ((1.0, 0.0), (0.0, 1.0))]
        return np.sqrt(sum(c * c for col in cols for c in col)) * math.hypot(self.y0, self.yp0)

    @pytest.mark.parametrize("forward", [True, False])
    def test_columns_independent_of_batch_size(self, mesh, forward):
        scale = self._scale(mesh, forward)
        start = (self.y0, self.yp0)
        ref = endpoint_values(mesh, self.mus, *start, forward=forward)
        ref_norm = propagate_with_norm(mesh, self.mus, *start, forward=forward)
        for size in self.sizes:
            mus, sc = self.mus[:size], scale[:size]
            for got, want in zip(endpoint_values(mesh, mus, *start, forward=forward), ref):
                assert np.max(np.abs(got - want[:size]) / sc) <= 1e-13
            y, yp, acc = propagate_with_norm(mesh, mus, *start, forward=forward)
            for got, want in zip((y, yp), ref_norm):
                assert np.max(np.abs(got - want[:size]) / sc) <= 1e-13
            assert np.max(np.abs(acc / ref_norm[2][:size] - 1.0)) <= 1e-13

    @pytest.mark.parametrize("forward", [True, False])
    def test_empty_batch(self, mesh, forward):
        # the overflow guards reduce over an empty batch without failing
        start = (self.y0, self.yp0)
        for out in (*endpoint_values(mesh, [], *start, forward=forward),
                    *propagate_with_norm(mesh, [], *start, forward=forward)):
            assert out.shape == (0,)
        assert y_values_batch(mesh, [], *start).shape == (len(mesh.nodes), 0)

    @pytest.mark.parametrize("forward", [True, False])
    def test_node_sweep_ends_at_endpoint_values(self, mesh, forward):
        # the node sweep applies each block's prefix products, formed by a
        # doubling scan, to the block's start state and chains the blocks in
        # sequence, so its rounding grows with the block count where the
        # pairwise trees round like log N eps
        scale = self._scale(mesh, forward)
        Y, YP = _nodes(mesh, self.mus, self.y0, self.yp0, forward)
        first, last = (0, -1) if forward else (-1, 0)
        assert np.all(Y[first] == self.y0) and np.all(YP[first] == self.yp0)
        y, yp = endpoint_values(mesh, self.mus, self.y0, self.yp0, forward=forward)
        assert np.max(np.abs(Y[last] - y) / scale) <= 1e-12
        assert np.max(np.abs(YP[last] - yp) / scale) <= 1e-12

    @pytest.mark.parametrize("forward", [True, False])
    def test_node_values_match_sequential_steps(self, mesh, forward):
        scale = self._scale(mesh, forward)
        start = (self.y0, self.yp0)
        Yr, YPr = _sequential_nodes(mesh, self.mus, *start, forward)
        first = 0 if forward else -1
        for size in (21,) + self.sizes:
            Y, YP = _nodes(mesh, self.mus[:size], *start, forward)
            assert np.all(Y[first] == self.y0) and np.all(YP[first] == self.yp0)
            assert np.max(np.abs(Y - Yr[:, :size]) / scale[:size]) <= 1e-12
            assert np.max(np.abs(YP - YPr[:, :size]) / scale[:size]) <= 1e-12

    @pytest.mark.parametrize("forward", [True, False])
    @pytest.mark.parametrize("mu", [-400.0, -4000.0, -1e5, -1e6])
    def test_blow_up_at_sequential_first_node(self, mesh, forward, mu):
        # a trace raises exactly where the sequential steps leave the float
        # range, naming the same first node in propagation order; where they
        # stay finite, however large, the trace is theirs to rounding
        with np.errstate(over="ignore", invalid="ignore"):
            Yr, YPr = _sequential_nodes(mesh, np.array([mu]), 1.0, 0.5, forward)
        yr, ypr = Yr[:, 0], YPr[:, 0]
        bad = ~(np.isfinite(yr) & np.isfinite(ypr))
        assert bad.any() == (mu <= -1e5)
        if not bad.any():
            Y, YP = _nodes(mesh, np.array([mu]), 1.0, 0.5, forward)
            size = np.hypot(yr, ypr)
            assert np.max(np.abs(Y[:, 0] - yr) / size) <= 1e-12
            assert np.max(np.abs(YP[:, 0] - ypr) / size) <= 1e-12
            return
        i = np.flatnonzero(bad)[0 if forward else -1]
        with pytest.raises(BlowUpError) as err:
            _nodes(mesh, np.array([mu]), 1.0, 0.5, forward)
        assert str(err.value) == f"solution blew up at x = {mesh.nodes[i]:.6f} for mu = {mu}"

    @pytest.mark.parametrize("forward", [True, False])
    def test_batch_blow_up_names_first_node_over_all_columns(self, mesh, forward):
        # the columns overflow at different nodes, the earliest in
        # propagation order neither first nor last in the batch; the sweep
        # names that node and its column's mu.  The sequential steps from a
        # start scaled by 2^-600, exactly, stay finite well past the nodes
        # where the unscaled values leave the float range, and so give each
        # of those nodes: unscaled, a y' overflow spoils the next sequential
        # y, which the prefix products never read.  Without y' rows only
        # each block's last y' is formed and checked
        mus = np.array([-1e5, 3.0, -4e5, -2e6, -1e6, 900.0])
        Yr, YPr = _sequential_nodes(mesh, mus, 2.0 ** -600, 0.5 * 2.0 ** -600, forward)
        flip = slice(None, None, 1 if forward else -1)
        with np.errstate(over="ignore"):
            bad_y, bad_yp = (~np.isfinite(2.0 ** 600 * V[flip]) for V in (Yr, YPr))
        assert bad_y.any() and not (bad_y | bad_yp)[:, [1, 5]].any()
        size = _BLOCK_ELEMS // mus.size
        carried = np.zeros(len(mesh.nodes), dtype=bool)
        carried[size::size] = carried[-1] = True
        for with_yprime, bad in ((True, bad_y | bad_yp), (False, bad_y | bad_yp & carried[:, None])):
            r, j = np.argwhere(bad)[0]
            x = mesh.nodes[r if forward else len(mesh.h) - r]
            with pytest.raises(BlowUpError) as err:
                _nodes(mesh, mus, 1.0, 0.5, forward, with_yprime)
            assert str(err.value) == f"solution blew up at x = {x:.6f} for mu = {mus[j]}"
            assert mus[j] == -2e6

    @pytest.mark.parametrize("forward", [True, False])
    def test_blow_up_forms_no_later_block(self, monkeypatch, forward):
        # 301 mu put 54 intervals in a block, 76 blocks on 4097 intervals;
        # mu = -1e9 overflows within 0.03 of the start, inside the first
        mesh = build_mesh(Potential.step(2.0, 1.3), 4096)
        assert len(mesh.h) == 4097
        blocks = []

        def counted(*args, **kwargs):
            blocks.append(args[0].shape[0])
            return _transfer(*args, **kwargs)

        monkeypatch.setattr(odesolve, "_transfer", counted)
        mus = (np.arange(301) + 0.5) ** 2
        _nodes(mesh, mus, 1.0, 0.5, forward, with_yprime=False)
        assert len(blocks) == 76 and sum(blocks) == 4097
        mus[150] = -1e9
        for with_yprime in (True, False):
            blocks.clear()
            with pytest.raises(BlowUpError, match="for mu = -1000000000.0$"):
                _nodes(mesh, mus, 1.0, 0.5, forward, with_yprime)
            assert blocks == [54]

    @pytest.mark.parametrize("mu, y0, yp0, shown", [
        (math.nan, 1.0, 0.0, "mu = nan"), (-math.inf, 1.0, 0.0, "mu = -inf"),
        (1.0, math.nan, 0.0, "y0 = nan"), (1.0, 1.0, math.inf, "yp0 = inf")],
        ids=["nan-mu", "inf-mu", "nan-y0", "inf-yp0"])
    def test_non_finite_start_data_form_no_block(self, monkeypatch, mu, y0, yp0, shown):
        # the start data are refused as solve_ivp refuses them, before any
        # block; the message names the first non-finite mu and each
        # non-finite start value
        mesh = build_mesh(Potential.step(2.0, PI / 2))
        blocks = []

        def counted(*args, **kwargs):
            blocks.append(args[0].shape[0])
            return _transfer(*args, **kwargs)

        monkeypatch.setattr(odesolve, "_transfer", counted)
        mus = [4.0, mu, 9.0]
        message = f"^mu, y0 and yp0 must be finite, got {shown}$"
        with pytest.raises(ValueError, match=message):
            y_values_batch(mesh, mus, y0, yp0)
        for forward in (True, False):
            with pytest.raises(ValueError, match=message):
                _nodes(mesh, mus, y0, yp0, forward)
        assert blocks == []

    def test_certificate_counts_match_sequential_steps(self, q_step, bc_nn, step_nn_spectrum60):
        mesh = build_mesh(q_step)
        mus = np.array([p.mu for p in step_nn_spectrum60.pairs])
        start = (bc_nn.sin_alpha, -bc_nn.cos_alpha)
        counts = _zero_counts(y_values_batch(mesh, mus, *start))
        Yr, _ = _sequential_nodes(mesh, mus, *start, True)
        assert np.array_equal(counts, _zero_counts(Yr))
        assert np.array_equal(counts, np.arange(61))

    def test_phi_sweep_against_mpmath_product(self):
        # the float per-interval propagators multiplied out in 40-digit
        # arithmetic; on the smooth mesh the sweep multiplies the same ones,
        # on the step mesh it takes one exact step per run instead
        mpmath = pytest.importorskip("mpmath")
        for q in (Potential.step(2.0, 1.3), Potential.smooth_test([1.0, -0.5])):
            mesh = build_mesh(q, 4096)
            assert len(mesh.h) == (4097 if q.name == "step" else 4096)
            for mu in (0.0, 2.0, 37.5, 900.0):
                entries = [e[:, 0].tolist() for e in _magnus_entries(mesh, np.array([mu]))]
                with mpmath.workdps(40):
                    y, yp = mpmath.mpf(self.y0), mpmath.mpf(self.yp0)
                    for a, b, c, d in zip(*entries):
                        y, yp = a * y + b * yp, c * y + d * yp
                    bound = 1e-12 * float(mpmath.sqrt(y * y + yp * yp))
                    y, yp = float(y), float(yp)
                ye, ype = endpoint_values(mesh, [mu], self.y0, self.yp0)
                assert abs(ye[0] - y) <= bound
                assert abs(ype[0] - yp) <= bound

    @pytest.mark.parametrize("forward", [True, False])
    def test_node_values_against_mpmath_product(self, forward):
        # the float per-interval propagators multiplied out node by node in
        # 40-digit arithmetic; the scan forms the same prefix products in
        # another order, so only its own rounding separates the two
        mpmath = pytest.importorskip("mpmath")
        for q in (Potential.step(2.0, 1.3), Potential.smooth_test([1.0, -0.5])):
            mesh = build_mesh(q, 4096)
            assert len(mesh.h) == (4097 if q.name == "step" else 4096)
            for mu in (0.0, 900.0):
                entries = [e[:, 0].tolist()
                           for e in _propagation_entries(mesh, np.array([mu]), forward)]
                ref = [(self.y0, self.yp0)]
                with mpmath.workdps(40):
                    y, yp = mpmath.mpf(self.y0), mpmath.mpf(self.yp0)
                    size = mpmath.sqrt(y * y + yp * yp)
                    for a, b, c, d in zip(*entries):
                        y, yp = a * y + b * yp, c * y + d * yp
                        size = max(size, mpmath.sqrt(y * y + yp * yp))
                        ref.append((float(y), float(yp)))
                    bound = 1e-12 * float(size)
                Yr, YPr = np.array(ref[::1 if forward else -1]).T
                Y, YP = _nodes(mesh, np.array([mu]), self.y0, self.yp0, forward)
                assert np.max(np.abs(Y[:, 0] - Yr)) <= bound
                assert np.max(np.abs(YP[:, 0] - YPr)) <= bound

    def test_node_batch_holds_one_node_array(self, q_step):
        mesh = build_mesh(q_step, 4096)
        mus = (np.arange(301) + 0.5) ** 2
        tracemalloc.start()
        try:
            out = y_values_batch(mesh, mus, 0.0, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (len(mesh.nodes), 301)
        assert peak <= 1.5 * out.nbytes

    def test_large_finite_values_come_back(self, q_zero):
        # values far above 1e12 are the run product's, exactly; on the
        # zero potential y(pi) = cosh(k pi) + 0.5 sinh(k pi) / k, k^2 = -mu
        mesh = build_mesh(q_zero, 512)
        mus = np.array([-400.0, -1e4, 3.0])
        for forward in (True, False):
            y, yp = endpoint_values(mesh, mus, 1.0, 0.5, forward=forward)
            M = _product(mesh, mus, forward, _transfer, _mul).reshape(4, -1)
            assert np.array_equal(y, M[0] + M[1] * 0.5) and np.array_equal(yp, M[2] + M[3] * 0.5)
            assert np.all(np.abs(y[:2]) > 1e12) and np.all(np.isfinite(y))
        k = np.sqrt(-mus[:2])
        y, _ = endpoint_values(mesh, mus[:2], 1.0, 0.5)
        assert np.max(np.abs(y / (np.cosh(k * PI) + 0.5 * np.sinh(k * PI) / k) - 1.0)) <= 1e-12
        # the norm int y^2 ~ y(pi)^2 / (2k) stays finite too
        _, _, acc = propagate_with_norm(mesh, [-400.0], 1.0, 0.0)
        assert acc[0] == pytest.approx((PI / 2 + math.sinh(40.0 * PI) / 80.0), rel=1e-12)

    def test_blow_up_raises_without_warnings(self, q_zero):
        mesh = build_mesh(q_zero, 512)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BlowUpError):
                propagate_with_norm(mesh, [-1e6], 1.0, 0.0)
            with pytest.raises(BlowUpError):
                endpoint_values(mesh, [-1e6], 1.0, 0.0)
            with pytest.raises(BlowUpError):
                y_values_batch(mesh, [-1e6], 1.0, 0.0)
            for char in (spectrum.char_function, spectrum.char_function_right):
                with pytest.raises(BlowUpError):
                    char(q_zero, BoundaryParams(PI / 2, PI / 2), -1e6)
            for at_left in (True, False):
                with pytest.raises(BlowUpError):
                    solve_ivp(q_zero, -1e6, at_left, 1.0, 0.0, 512)
                with pytest.raises(BlowUpError):
                    endpoint_values(mesh, [-1e6], 1.0, 0.0, forward=at_left)
                with pytest.raises(BlowUpError):
                    _nodes(mesh, [-1e6], 1.0, 0.0, at_left, with_yprime=False)
            with pytest.raises(BlowUpError):
                phi(q_zero, -1e6, PI / 2)
            with pytest.raises(BlowUpError):
                psi(q_zero, -1e6, PI / 2)


def _two_piece_norm(c, x0, mu, y0, yp0, forward):
    """Closed-form int_0^pi y^2 for q = c on [0, x0], 0 on (x0, pi].

    On a piece of length L with w = mu - q and start (y, y'), the integral is
    y^2 (L/2 + CS/2) + y y' S^2 + y'^2 (L/2 - CS/2)/w, with C, S the
    trigonometric or hyperbolic propagator entries; the backward sweep is
    the forward one of the reflected problem.
    """
    pieces = [(x0, c), (PI - x0, 0.0)]
    if not forward:
        pieces, yp0 = pieces[::-1], -yp0
    y, yp, total = y0, yp0, 0.0
    for length, qc in pieces:
        w = mu - qc
        r = math.sqrt(abs(w))
        if w > 0.0:
            C, S = math.cos(r * length), math.sin(r * length) / r
        else:
            C, S = math.cosh(r * length), math.sinh(r * length) / r
        total += (y * y * (length + C * S) / 2.0 + y * yp * S * S
                  + yp * yp * (length - C * S) / (2.0 * w))
        y, yp = C * y + S * yp, -w * S * y + C * yp
    return total


class TestRuns:
    @pytest.mark.parametrize("q", [Potential.zero(), Potential.constant(-2.5)], ids=["zero", "const"])
    def test_constant_potential_is_one_run(self, q):
        for grid in (64, 4096):
            mesh = build_mesh(q, grid)
            assert mesh.run_h.tolist() == [PI]
            assert mesh.run_q.tolist() == [mesh.q[0]] and mesh.exact

    def test_step_runs_meet_at_breakpoint(self):
        mesh = build_mesh(Potential.step(2.0, 1.3))
        assert mesh.run_q.tolist() == [2.0, 0.0]
        assert mesh.run_h.tolist() == [1.3, PI - 1.3]
        assert 1.3 in mesh.nodes

    def test_grid_flat_segment_merges(self):
        q = Potential.from_grid([0.0, 1.0, 2.0, PI], [0.5, 1.0, 1.0, -0.5])
        mesh = build_mesh(q, 256)
        flat = (mesh.nodes[:-1] >= 1.0) & (mesh.nodes[1:] <= 2.0)
        assert np.all(mesh.q[flat] == 1.0) and not mesh.exact
        assert np.all(mesh.gen[:, flat] == np.array([[0.0], [0.0], [1.0], [1.0], [0.0]]))
        assert len(mesh.run_h) == len(mesh.h) - np.count_nonzero(flat) + 1
        [k] = np.flatnonzero(mesh.run_q == 1.0)
        assert mesh.run_h[k] == 1.0
        assert np.array_equal(np.delete(mesh.run_h, k), mesh.h[~flat])

    def test_smooth_potential_has_one_run_per_interval(self):
        mesh = build_mesh(Potential.smooth_test([1.0, -0.5]))
        assert np.array_equal(mesh.run_h, mesh.h)
        assert np.array_equal(mesh.run_q, mesh.q)
        assert np.array_equal(mesh.run_gen, mesh.gen) and not mesh.exact

    @pytest.mark.parametrize("c,x0,alpha,beta", [(2.0, PI / 2, PI / 2, PI / 2),
                                                 (2.0, 1.3, 1.1, 2.0),
                                                 (-1.5, 1.0, 2.4, 0.6)])
    def test_step_norms_match_closed_form(self, c, x0, alpha, beta):
        q = Potential.step(c, x0)
        spec = find_spectrum(q, BoundaryParams(alpha, beta), 60)
        mesh = build_mesh(q)
        for forward, angle in ((True, alpha), (False, beta)):
            y0, yp0 = math.sin(angle), -math.cos(angle)
            _, _, acc = propagate_with_norm(mesh, spec.mus, y0, yp0, forward=forward)
            exact = [_two_piece_norm(c, x0, mu, y0, yp0, forward) for mu in spec.mus]
            assert np.max(np.abs(acc / exact - 1.0)) <= 1e-13

    @pytest.mark.parametrize("z", [1.01e-4, -1.01e-4, 1.9e-4, -1.9e-4, -3e-4])
    def test_one_run_norm_near_series_threshold(self, z):
        # constant(1) is one run of length pi, so z = (mu - 1) pi^2; the
        # closed-form dS/dw cancels for small |z|
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        y0, yp0 = math.sin(2.0), -math.cos(2.0)
        mu = 1.0 + z / PI ** 2
        _, _, acc = propagate_with_norm(build_mesh(Potential.constant(1.0)), [mu], y0, yp0)
        w = mp.mpf(mu) - 1
        r = mp.sqrt(abs(w))
        if w > 0:
            y = lambda x: y0 * mp.cos(r * x) + yp0 * mp.sin(r * x) / r
        else:
            y = lambda x: y0 * mp.cosh(r * x) + yp0 * mp.sinh(r * x) / r
        exact = mp.quad(lambda x: y(x) ** 2, [0, mp.pi])
        assert abs(acc[0] / float(exact) - 1.0) <= 1e-14


def _mm(B, A):
    """Product B A of 2x2 matrices stored as entry tuples (m00, m01, m10, m11)."""
    return tuple(B[2 * i] * A[j] + B[2 * i + 1] * A[2 + j] for i in (0, 1) for j in (0, 1))


def _exact_run_product(mesh, mus, forward, dmu=False):
    """Whole-mesh product of the exact run propagators of a mesh of at most two runs.

    A run of width h and potential q steps by (C, S, -w S, C), w = mu - q,
    and backward by (C, -S, w S, C); with dmu each also carries the forward
    mu-derivative (dC, dS, -(S + h C)/2, dC), dC = -h S/2, and two runs
    compose as (T2, dT2)(T1, dT1) = (T2 T1, dT2 T1 + T2 dT1).
    """
    mats = []
    for h, q in zip(mesh.run_h, mesh.run_q):
        w = mus - q
        C, S = _step_coeffs(w, h)
        T = (C, S, -w * S, C) if forward else (C, -S, w * S, C)
        if dmu:
            dC = -0.5 * h * S
            T += (dC, _dS_dw(w, h, C, S), -0.5 * (S + h * C), dC)
        mats.append(T)
    if not forward:
        mats.reverse()
    if len(mats) == 1:
        return mats[0]
    A, B = mats
    M = _mm(B[:4], A[:4])
    if dmu:
        M += tuple(x + y for x, y in zip(_mm(B[4:], A[:4]), _mm(B[:4], A[4:])))
    return M


@np.errstate(over="ignore", invalid="ignore")
def _exact_run_counts(mesh, bc, mus):
    """Eigenvalues below each mu from the exact run propagators, one run at a time.

    A run with w = mu - q > 0 holds floor(sqrt(w) h / pi) whole half-turns,
    one zero each, plus one where y's sign at its end disagrees with their
    parity; a run with w < 0, stepped by its propagator over cosh, holds at
    most one.  One more where the end angle has passed pi - beta.
    """
    y, yp = np.full(mus.shape, bc.sin_alpha), np.full(mus.shape, -bc.cos_alpha)
    count, last = np.zeros(mus.shape, dtype=int), np.sign(y)
    for h, q in zip(mesh.run_h, mesh.run_q):
        w = mus - q
        half = np.floor(np.sqrt(np.maximum(w * h * h, 0.0)) / PI)
        C, S = _step_coeffs(w, h)
        hyp = w < 0.0
        r = np.sqrt(-w[hyp])
        C[hyp], S[hyp] = 1.0, np.tanh(r * h) / r
        parity = 1.0 - 2.0 * (half % 2.0)
        y, yp = parity * (C * y + S * yp), parity * (-w * S * y + C * yp)
        scale = np.maximum(np.abs(y), np.abs(yp))
        y, yp = y / scale, yp / scale
        sign = np.sign(y)
        count += half.astype(int) + (sign * last < 0.0)
        last = np.where(sign != 0.0, sign, last)
    angle = np.arctan2(y, yp)
    angle = np.where(angle <= 0.0, angle + PI, angle)
    return count + (angle > PI - bc.beta)


class TestPiecewiseConstantSteps:
    """Where q is constant on every interval, s2 = s3 = 0 and the Magnus step
    is the exact propagator: every sweep equals the product of the exact run
    propagators bit for bit, and the count equals their run-by-run count."""

    mus = np.concatenate([[0.0, 2.0, -6.5, 3.0], np.linspace(-3.0, 900.0, 61)])
    deep = np.array([-1e4, -400.0, -50.0, 1e4, 4e4])

    @pytest.mark.parametrize("q", [Potential.zero(), Potential.constant(3.0),
                                   Potential.step(2.0, 1.3), Potential.step(-1.5, PI / 2)],
                             ids=["zero", "constant", "step", "step-mid"])
    def test_sweeps_equal_exact_run_products(self, q):
        mesh = build_mesh(q)
        assert mesh.exact and len(mesh.run_h) <= 2
        y0, yp0 = 0.6, -0.8
        for forward in (True, False):
            M = _exact_run_product(mesh, self.mus, forward)
            y, yp = endpoint_values(mesh, self.mus, y0, yp0, forward=forward)
            assert np.array_equal(y, M[0] * y0 + M[1] * yp0)
            assert np.array_equal(yp, M[2] * y0 + M[3] * yp0)
        exact = _exact_run_product(mesh, self.mus, True, dmu=True)
        assert all(np.array_equal(got, want)
                   for got, want in zip(norm_product(mesh, self.mus), exact))
        mus = np.concatenate((self.mus, self.deep))
        for bc in (BoundaryParams(PI, 0.0), BoundaryParams(PI / 2, PI / 2),
                   BoundaryParams(2.0, 0.9), BoundaryParams(0.2, 2.9)):
            assert np.array_equal(spectrum._counts(mesh, bc, mus)[0],
                                  _exact_run_counts(mesh, bc, mus))


class TestStackedTree:
    """Every sweep's product is bit for bit that of the entry-tuple tree.

    The library contracts stacked (2, 2, runs, mus) arrays; tests/tuple_tree.py
    keeps the tuple form, one array per matrix entry, with the same tree,
    the same odd-level carries and the same operation order.  Meshes of
    64, 512 and 1000 intervals at 1, 37 and 300 mu give blocks of one
    step up to the whole mesh, and odd levels.
    """

    POTENTIALS = {
        "smooth-test": lambda: Potential.smooth_test([1.0, -0.5]),
        "step": lambda: Potential.step(2.0, 1.3),
        "grid13": lambda: Potential.from_grid(
            PI * np.arange(13) / 12.0,
            [1.2 * math.cos(x) - 0.4 * math.sin(2.0 * x) + 0.3 for x in PI * np.arange(13) / 12.0]),
    }

    @pytest.mark.parametrize("size", [1, 37, 300])
    @pytest.mark.parametrize("grid", [64, 512, 1000])
    @pytest.mark.parametrize("name", sorted(POTENTIALS))
    def test_sweeps_equal_the_tuple_tree(self, name, grid, size):
        q = self.POTENTIALS[name]()
        mesh = build_mesh(q, grid)
        mus = np.random.default_rng(size).uniform(-30.0, 9e4, size)
        y0, yp0 = 0.6, -0.8
        for forward in (True, False):
            M = tuple_tree.product(mesh, mus, forward, tuple_tree.transfer, tuple_tree.mul2)
            y, yp = endpoint_values(mesh, mus, y0, yp0, forward=forward)
            assert np.array_equal(y, M[0] * y0 + M[1] * yp0)
            assert np.array_equal(yp, M[2] * y0 + M[3] * yp0)
            Y, YP = _nodes(mesh, mus, y0, yp0, forward)
            want_y, want_yp = tuple_tree.nodes(mesh, mus, y0, yp0, forward)
            assert np.array_equal(Y, want_y) and np.array_equal(YP, want_yp)
        want = tuple_tree.product(mesh, mus, True, tuple_tree.transfer_dmu, tuple_tree.compose)
        assert np.array_equal(norm_product(mesh, mus), np.array(want))
        want = tuple_tree.product(mesh, mus, True, tuple_tree.lifted_steps, tuple_tree.lifted_mul)
        assert np.array_equal(count_product(mesh, mus), np.array(want))


class TestBoundaryNormalizedSolutions:
    def test_phi_neumann(self, q_zero):
        tr = phi(q_zero, 4.0, PI / 2, 512)
        assert np.max(np.abs(tr.y - np.cos(2 * tr.grid))) < 1e-12

    def test_phi_dirichlet(self, q_zero):
        tr = phi(q_zero, 1.0, PI, 512)
        assert np.max(np.abs(tr.y - np.sin(tr.grid))) < 1e-12

    def test_phi_superposition(self, q_zero):
        tr = phi(q_zero, 4.0, PI / 4, 512)
        expect = (math.sqrt(2) / 2) * (np.cos(2 * tr.grid) - np.sin(2 * tr.grid) / 2)
        assert np.max(np.abs(tr.y - expect)) < 1e-12

    def test_psi_dirichlet_right(self, q_zero):
        tr = psi(q_zero, 1.0, 0.0, 512)
        assert np.max(np.abs(tr.y - np.sin(PI - tr.grid))) < 1e-12

    def test_psi_neumann_right(self, q_zero):
        tr = psi(q_zero, 4.0, PI / 2, 512)
        assert np.max(np.abs(tr.y - np.cos(2 * (PI - tr.grid)))) < 1e-12

    def test_psi_constant_shift(self):
        q = Potential.constant(3.0)
        tr = psi(q, 7.0, PI / 2, 512)
        assert np.max(np.abs(tr.y - np.cos(2 * (PI - tr.grid)))) < 1e-12

    def test_angle_validation(self, q_zero):
        with pytest.raises(ValueError):
            phi(q_zero, 1.0, 0.0)
        with pytest.raises(ValueError):
            psi(q_zero, 1.0, PI)


class TestStructure:
    @given(mu=st.floats(min_value=-5.0, max_value=200.0),
           qi=st.integers(min_value=0, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_wronskian_conserved(self, mu, qi):
        q = pool_potentials()[qi]
        y1 = solve_ivp(q, mu, True, 1.0, 0.0, 256)
        y2 = solve_ivp(q, mu, True, 0.0, 1.0, 256)
        w = y1.y * y2.yprime - y1.yprime * y2.y
        assert np.max(np.abs(w - 1.0)) < 1e-7

    def test_fundamental_initial_conditions(self, q_step):
        for data in ((1.0, 0.0), (0.0, 1.0)):
            left = solve_ivp(q_step, 11.0, True, *data, 256)
            right = solve_ivp(q_step, 11.0, False, *data, 256)
            assert (left.y[0], left.yprime[0]) == data
            assert (right.y[-1], right.yprime[-1]) == data

    @given(c=st.floats(min_value=-5.0, max_value=5.0),
           mu=st.floats(min_value=-2.0, max_value=100.0))
    @settings(max_examples=20, deadline=None)
    def test_shift_covariance(self, c, mu, q_step):
        base = solve_ivp(q_step, mu, True, 1.0, 0.3, 256)
        shifted = solve_ivp(q_step.shifted(c), mu + c, True, 1.0, 0.3, 256)
        scale = max(1.0, float(np.max(np.abs(base.y))))
        assert np.max(np.abs(base.y - shifted.y)) < 1e-9 * scale

    def test_leading_order_magnitudes(self, q_step):
        # lam |y1 - cos(lam x)| and lam |lam y2 - sin(lam x)| stay bounded
        c1s, c2s = [], []
        for lam in (10.0, 20.0, 40.0, 80.0):
            y1 = solve_ivp(q_step, lam * lam, True, 1.0, 0.0, 2048)
            y2 = solve_ivp(q_step, lam * lam, True, 0.0, 1.0, 2048)
            c1s.append(lam * np.max(np.abs(y1.y - np.cos(lam * y1.grid))))
            c2s.append(lam * np.max(np.abs(lam * y2.y - np.sin(lam * y2.grid))))
        assert max(c1s) < 3 * min(c1s)
        assert max(c2s) < 3 * min(c2s)


class TestMeshMean:
    """Mesh.mean, the three-point Gauss rule over the mesh, against exact means."""

    GRID_XS = np.linspace(0.0, PI, 23)
    GRID_QS = np.cos(3.0 * np.linspace(0.0, PI, 23)) + 0.4 * np.linspace(0.0, PI, 23)

    @pytest.mark.parametrize("q,exact", [
        (Potential.zero(), 0.0),
        (Potential.constant(-2.7), -2.7),
        (Potential.step(2.3, 1.1).shifted(0.5), 2.3 * 1.1 / PI + 0.5),
        (Potential.step(-40.0, PI / 2), -20.0),
        # piecewise-linear interpolation: the trapezoid sum of the samples
        (Potential.from_grid(GRID_XS, GRID_QS),
         float(np.sum(np.diff(GRID_XS) * (GRID_QS[1:] + GRID_QS[:-1]) / 2.0)) / PI),
        (Potential.smooth_test([1.0, -0.5, 0.3]).shifted(0.7), 0.7),
    ], ids=["zero", "constant", "step-offset", "tall-step", "grid", "smooth"])
    @pytest.mark.parametrize("grid_size", [64, 512, 1000])
    def test_exact_means(self, q, exact, grid_size):
        mesh = build_mesh(q, grid_size)
        scale = max(1.0, float(np.max(np.abs(q(mesh.nodes)))))
        assert abs(mesh.mean - exact) <= 1e-15 * scale


class TestPicardSeries:
    def test_zero_potential_exact(self, q_zero):
        pr = picard_y2(q_zero, 7.0, 3, 512)
        assert np.max(np.abs(pr.trace.y - np.sin(7 * pr.trace.grid) / 7)) < 1e-14
        assert pr.tail_bound == 0.0

    @pytest.mark.parametrize("qname", ["one", "step"])
    def test_agrees_with_solver(self, qname, q_one, q_step):
        q = q_one if qname == "one" else q_step
        pr = picard_y2(q, 5.0, 9)
        ref = solve_ivp(q, 25.0, True, 0.0, 1.0, 2048)
        assert abs(pr.trace.y[-1] - ref.y[-1]) < pr.tail_bound + 1e-8
        # derivative endpoint agrees too
        assert abs(pr.trace.yprime[-1] - ref.yprime[-1]) < 5 * pr.tail_bound + 1e-7

    def test_tail_certificate_value(self, q_one):
        # independent oracle: direct summation of sigma0^k / (lam^(k+1) k!)
        pr = picard_y2(q_one, 5.0, 8, 512)
        sigma0 = PI
        expect = sum(sigma0 ** k / (5.0 ** (k + 1) * math.factorial(k))
                     for k in range(9, 40))
        assert pr.tail_bound == pytest.approx(expect, rel=1e-12)
        assert pr.tail_bound < 1e-8

    def test_validation(self, q_one):
        with pytest.raises(ValueError):
            picard_y2(q_one, 0.5, 3)
        with pytest.raises(ValueError):
            picard_y2(q_one, 5.0, 0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_non_finite_lam(self, q_one, lam):
        # once an all-NaN trace with tail_bound 0.0
        with pytest.raises(ValueError, match="requires 1 <= lam < inf"):
            picard_y2(q_one, lam, 3)

    def test_counts_must_be_integers(self, q_one):
        # a fractional K once escaped as TypeError, a fractional grid_size
        # was taken as it came
        with pytest.raises(ValueError, match="^K must be an integer, got 2.5"):
            picard_y2(q_one, 5.0, 2.5)
        with pytest.raises(ValueError, match="^grid_size must be an integer, got 1000.5"):
            picard_y2(q_one, 5.0, 3, 1000.5)
        got, want = picard_y2(q_one, 5.0, np.int64(3), np.int64(512)), picard_y2(q_one, 5.0, 3, 512)
        assert np.array_equal(got.trace.y, want.trace.y) and got.tail_bound == want.tail_bound


class TestAsymptoticKernels:
    def test_zero_potential(self, q_zero):
        assert kernel_A(q_zero, 5.0, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_constant_closed_forms(self, q_one):
        for lam, x in ((7.0, 2.0), (13.0, 1.1)):
            assert kernel_A(q_one, lam, x) == pytest.approx(x * math.sin(lam * x), abs=1e-9)

    def test_integer_frequency_endpoint(self, q_one):
        for n in (3.0, 6.0, 11.0):
            assert kernel_A(q_one, n, PI) == pytest.approx(0.0, abs=1e-9)

    def test_remainder_halving(self, q_step):
        worst = {}
        for lam in (10.0, 20.0):
            tr = solve_ivp(q_step, lam * lam, True, 1.0, 0.0, 2048)
            idx = np.linspace(128, len(tr.grid) - 1, 17).astype(int)
            worst[lam] = max(
                abs(2 * lam * (tr.y[i] - math.cos(lam * tr.grid[i]))
                    - kernel_A(q_step, lam, float(tr.grid[i])))
                for i in idx)
        ratio = worst[20.0] / worst[10.0]
        assert 0.35 <= ratio <= 0.65

    def test_lam_validation(self, q_one):
        with pytest.raises(ValueError):
            kernel_A(q_one, 0.5, 1.0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_non_finite_lam(self, q_one, lam):
        # once refused by the quadrature, as a bad freq
        with pytest.raises(ValueError, match="defined for 1 <= lam < inf"):
            kernel_A(q_one, lam, 1.0)
