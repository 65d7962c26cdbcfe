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
    fundamental_system,
    kernel_A,
    kernel_B,
    phi,
    picard_y2,
    psi,
    solve_ivp,
)
from slspectra.odesolve import (
    _BLOCK_MUS,
    _nodes,
    _step_coeffs,
    _trace,
    build_mesh,
    endpoint_values,
    propagate_with_norm,
    y_values_batch,
)
from slspectra.spectrum import _zero_counts

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
        with pytest.raises(BlowUpError):
            solve_ivp(q_zero, -4000.0, True, 1.0, 0.0, 512)

    def test_grid_size_validation(self, q_zero):
        with pytest.raises(ValueError):
            solve_ivp(q_zero, 1.0, True, 1.0, 0.0, 32)

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


def _sequential_norm(mesh, mus, y0, yp0, forward):
    """Interval-by-interval reference: exact integral of y^2 on each step.

    With left values (y, y') an interval contributes
    ICC y^2 + 2 ICS y y' + ISS y'^2, where ICC = h/2 + CS/2, ICS = S^2/2 and
    ISS = (h/2 - CS/2)/w, or h^3 (1/3 - z/15 + 2 z^2/315) near w = 0.
    """
    y = np.full(mus.shape, float(y0))
    yp = np.full(mus.shape, float(yp0))
    acc = np.zeros(mus.shape)
    order = range(len(mesh.h)) if forward else range(len(mesh.h) - 1, -1, -1)
    for i in order:
        h, w = mesh.h[i], mus - mesh.qmid[i]
        z = w * h * h
        r = np.sqrt(np.abs(w))
        rs = np.where(r > 0, r, 1.0)
        C = np.where(w > 0, np.cos(r * h), np.cosh(r * h))
        S = np.where(r > 0, np.where(w > 0, np.sin(r * h), np.sinh(r * h)) / rs, h)
        if not forward:
            y, yp = C * y - S * yp, w * S * y + C * yp
        ISS = np.where(np.abs(z) < 1e-4,
                       h ** 3 * (1 / 3 - z / 15 + 2 * z * z / 315),
                       (h / 2 - C * S / 2) / np.where(w != 0, w, 1.0))
        acc += (h / 2 + C * S / 2) * y * y + S * S * y * yp + ISS * yp * yp
        if forward:
            y, yp = C * y + S * yp, -w * S * y + C * yp
    return acc


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


@np.errstate(over="ignore", invalid="ignore")
def _sequential_nodes(mesh, mus, y0, yp0, forward):
    """Node values stepped one interval at a time, in increasing node order."""
    sign = 1.0 if forward else -1.0
    h, qmid = (mesh.h, mesh.qmid) if forward else (mesh.h[::-1], mesh.qmid[::-1])
    w = mus - qmid[:, None]
    C, S = _step_coeffs(w, h[:, None])
    b, c = sign * S, -sign * w * S
    Y, YP = np.empty((len(h) + 1, mus.size)), np.empty((len(h) + 1, mus.size))
    Y[0], YP[0] = y0, yp0
    for i in range(len(h)):
        Y[i + 1] = C[i] * Y[i] + b[i] * YP[i]
        YP[i + 1] = c[i] * Y[i] + C[i] * YP[i]
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
            mesh = build_mesh(Potential.step(2.0, 1.3))
            assert len(mesh.h) == 4097
        else:
            mesh = build_mesh(Potential.smooth_test([1.0, -0.5]), int(mesh_case[4:]))
        y0, yp0 = 0.6, -0.8
        ref = _sequential_norm(mesh, self.mus, y0, yp0, forward)
        # both sweeps round like N eps |P| |(y0, yp0)| with P the whole-mesh
        # propagator; against a 40-digit product both are off by 1.6e-13 of
        # |(y, y')| at mu = 0 on the 4097-interval step mesh
        cols = [endpoint_values(mesh, self.mus, *e, forward=forward, guard=False)
                for e in ((1.0, 0.0), (0.0, 1.0))]
        prop_norm = np.sqrt(sum(c * c for col in cols for c in col))
        for size in (1, _BLOCK_MUS - 1, _BLOCK_MUS, _BLOCK_MUS + 1):
            mus = self.mus[:size]
            y, yp, acc = propagate_with_norm(mesh, mus, y0, yp0, forward=forward)
            ye, ype = endpoint_values(mesh, mus, y0, yp0, forward=forward, guard=False)
            scale = prop_norm[:size] * math.hypot(y0, yp0)
            assert np.max(np.abs(y - ye) / scale) <= 1e-12
            assert np.max(np.abs(yp - ype) / scale) <= 1e-12
            assert np.max(np.abs(acc / ref[:size] - 1.0)) <= 1e-11

    @pytest.mark.parametrize("forward", [True, False])
    @pytest.mark.parametrize("start", [(0.0, 1.0), (1.0, 0.0)])
    def test_deep_hyperbolic_guard(self, q_zero, forward, start):
        mesh = build_mesh(q_zero, 512)
        for mus in ([-1e6], [4.0, -1e6, 9.0], [-5e4]):
            with pytest.raises(BlowUpError):
                propagate_with_norm(mesh, mus, *start, forward=forward)


class TestBlockedKernel:
    """The coefficient blocks shorten as the mu batch grows.

    A batch of _BLOCK_MUS puts 256 steps in a block; smaller batches take
    longer blocks, larger ones shorter.  The Phi and norm sweeps step the
    two runs of a step mesh at once, so the smooth meshes, one run per
    interval, give partial last blocks and odd levels in every pairwise
    tree; both kinds give, in most node-sweep blocks, a short last chunk.
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
    def test_node_sweep_ends_at_endpoint_values(self, mesh, forward):
        # the node sweep multiplies the propagators in sequence, through chunk
        # products of about sqrt(L) intervals, so its rounding grows with the
        # interval count where the pairwise trees round like log N eps
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
        Yr, YPr = _sequential_nodes(mesh, np.array([mu]), 1.0, 0.5, forward)
        bad = ~((np.abs(Yr[:, 0]) <= 1e12) & (np.abs(YPr[:, 0]) <= 1e12))
        i = np.flatnonzero(bad)[0 if forward else -1]
        with pytest.raises(BlowUpError) as err:
            _trace(mesh, mu, 1.0, 0.5, forward)
        assert str(err.value) == f"solution blew up at x = {mesh.nodes[i]:.6f} for mu = {mu}"

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
            mesh = build_mesh(q)
            assert len(mesh.h) == (4097 if q.name == "step" else 4096)
            for mu in (0.0, 2.0, 37.5, 900.0):
                w = mu - mesh.qmid
                C, S = _step_coeffs(w, mesh.h)
                with mpmath.workdps(40):
                    y, yp = mpmath.mpf(self.y0), mpmath.mpf(self.yp0)
                    for c, s, ws in zip(C.tolist(), S.tolist(), (w * S).tolist()):
                        y, yp = c * y + s * yp, -ws * y + c * yp
                    bound = 1e-12 * float(mpmath.sqrt(y * y + yp * yp))
                    y, yp = float(y), float(yp)
                ye, ype = endpoint_values(mesh, [mu], self.y0, self.yp0)
                assert abs(ye[0] - y) <= bound
                assert abs(ype[0] - yp) <= bound

    def test_node_batch_holds_one_node_array(self, q_step):
        mesh = build_mesh(q_step)
        mus = (np.arange(301) + 0.5) ** 2
        tracemalloc.start()
        try:
            out = y_values_batch(mesh, mus, 0.0, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (len(mesh.nodes), 301)
        assert peak <= 1.5 * out.nbytes

    def test_blow_up_raises_without_warnings(self, q_zero):
        mesh = build_mesh(q_zero, 512)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BlowUpError):
                propagate_with_norm(mesh, [-1e6], 1.0, 0.0)
            with pytest.raises(BlowUpError):
                endpoint_values(mesh, [-1e6], 1.0, 0.0, guard=True)
            with pytest.raises(BlowUpError):
                y_values_batch(mesh, [-1e6], 1.0, 0.0)
            with pytest.raises(BlowUpError):
                solve_ivp(q_zero, -4000.0, True, 1.0, 0.0, 512)


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
            assert mesh.run_q.tolist() == [mesh.qmid[0]]

    def test_step_runs_meet_at_breakpoint(self):
        mesh = build_mesh(Potential.step(2.0, 1.3))
        assert mesh.run_q.tolist() == [2.0, 0.0]
        assert mesh.run_h.tolist() == [1.3, PI - 1.3]
        assert 1.3 in mesh.nodes

    def test_grid_flat_segment_merges(self):
        q = Potential.from_grid([0.0, 1.0, 2.0, PI], [0.5, 1.0, 1.0, -0.5])
        mesh = build_mesh(q, 256)
        flat = (mesh.nodes[:-1] >= 1.0) & (mesh.nodes[1:] <= 2.0)
        assert np.all(mesh.qmid[flat] == 1.0)
        assert len(mesh.run_h) == len(mesh.h) - np.count_nonzero(flat) + 1
        [k] = np.flatnonzero(mesh.run_q == 1.0)
        assert mesh.run_h[k] == 1.0
        assert np.array_equal(np.delete(mesh.run_h, k), mesh.h[~flat])

    def test_smooth_potential_has_one_run_per_interval(self):
        mesh = build_mesh(Potential.smooth_test([1.0, -0.5]))
        assert np.array_equal(mesh.run_h, mesh.h)
        assert np.array_equal(mesh.run_q, mesh.qmid)

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
        fs = fundamental_system(q, mu, 256)
        w = fs.y1.y * fs.y2.yprime - fs.y1.yprime * fs.y2.y
        assert np.max(np.abs(w - 1.0)) < 1e-7

    def test_fundamental_initial_conditions(self, q_step):
        fs = fundamental_system(q_step, 11.0, 256)
        assert (fs.y1.y[0], fs.y1.yprime[0]) == (1.0, 0.0)
        assert (fs.y2.y[0], fs.y2.yprime[0]) == (0.0, 1.0)
        assert (fs.y3.y[-1], fs.y3.yprime[-1]) == (1.0, 0.0)
        assert (fs.y4.y[-1], fs.y4.yprime[-1]) == (0.0, 1.0)

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
            fs = fundamental_system(q_step, lam * lam, 2048)
            c1s.append(lam * np.max(np.abs(fs.y1.y - np.cos(lam * fs.y1.grid))))
            c2s.append(lam * np.max(np.abs(lam * fs.y2.y - np.sin(lam * fs.y2.grid))))
        assert max(c1s) < 3 * min(c1s)
        assert max(c2s) < 3 * min(c2s)


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


class TestAsymptoticKernels:
    def test_zero_potential(self, q_zero):
        assert kernel_A(q_zero, 5.0, 2.0) == pytest.approx(0.0, abs=1e-12)
        assert kernel_B(q_zero, 5.0, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_constant_closed_forms(self, q_one):
        for lam, x in ((7.0, 2.0), (13.0, 1.1)):
            assert kernel_A(q_one, lam, x) == pytest.approx(x * math.sin(lam * x), abs=1e-9)
            expect_b = x * math.cos(lam * x) - math.sin(lam * x) / lam
            assert kernel_B(q_one, lam, x) == pytest.approx(expect_b, abs=1e-9)

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
