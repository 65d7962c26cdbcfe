import dataclasses
import math
import warnings

import numpy as np
import pytest

from slspectra import (
    BoundaryParams,
    Potential,
    ae_n,
    ae_tilde_n,
    extract_remainders,
    find_eigenvalue,
    find_spectrum,
    model_a,
    model_b,
    norming_record,
    norming_records,
    phi,
    psi,
    solve_delta,
)
from slspectra import norming as norming_module
from slspectra import odesolve
from slspectra.fitting import fit_loglog_slope, window_max_ratio
from slspectra.norming import norming_a_batch, norming_b_batch
from slspectra.odesolve import DEFAULT_GRID_SIZE, build_mesh
from slspectra.spectrum import DEFAULT_ROOT_TOL

PI = math.pi


class TestMeasuredNorms:
    def test_free_dirichlet(self, q_zero, bc_dd):
        p = find_eigenvalue(q_zero, bc_dd, 3, grid_size=1024)
        assert norming_a_batch(q_zero, bc_dd, [p.mu], 1024)[0] == pytest.approx(PI / 32, rel=1e-10)
        assert norming_b_batch(q_zero, bc_dd, [p.mu], 1024)[0] == pytest.approx(PI / 32, rel=1e-10)

    def test_free_neumann(self, q_zero, bc_nn):
        p0 = find_eigenvalue(q_zero, bc_nn, 0, grid_size=1024)
        p5 = find_eigenvalue(q_zero, bc_nn, 5, grid_size=1024)
        assert norming_a_batch(q_zero, bc_nn, [p0.mu], 1024)[0] == pytest.approx(PI, abs=1e-10)
        assert norming_a_batch(q_zero, bc_nn, [p5.mu], 1024)[0] == pytest.approx(PI / 2, abs=1e-10)
        assert norming_b_batch(q_zero, bc_nn, [p5.mu], 1024)[0] == pytest.approx(PI / 2, abs=1e-10)

    def test_left_right_ratio(self, q_step):
        bc = BoundaryParams(PI / 3, PI / 4)
        for n in (0, 2, 5):
            p = find_eigenvalue(q_step, bc, n, grid_size=1024)
            a = norming_a_batch(q_step, bc, [p.mu], 1024)[0]
            b = norming_b_batch(q_step, bc, [p.mu], 1024)[0]
            left = phi(q_step, p.mu, bc.alpha, 1024)
            right = psi(q_step, p.mu, bc.beta, 1024)
            i = len(left.grid) // 3
            ratio = (right.y[i] / left.y[i]) ** 2
            assert b / a == pytest.approx(ratio, rel=1e-6)

    def test_shift_invariance(self, q_step, bc_nn):
        s0 = find_spectrum(q_step, bc_nn, 6, grid_size=1024)
        s3 = find_spectrum(q_step.shifted(3.0), bc_nn, 6, grid_size=1024)
        for p0, p3 in zip(s0.pairs, s3.pairs):
            a0 = norming_a_batch(q_step, bc_nn, [p0.mu], 1024)[0]
            a3 = norming_a_batch(q_step.shifted(3.0), bc_nn, [p3.mu], 1024)[0]
            assert abs(a3 - a0) < 1e-6


class TestClosedFormNorms:
    # mu = (k + 0.37)^2 spans the small-z series region ((mu - q) h^2 < 1e-4
    # below mu ~ 170 on the default mesh) and the trigonometric branch above it
    lam = np.arange(40) + 0.37

    def test_zero_potential_dirichlet(self, q_zero, bc_dd):
        lam = self.lam
        exact = (PI / 2 - np.sin(2 * lam * PI) / (4 * lam)) / lam ** 2
        for norms in (norming_a_batch, norming_b_batch):
            got = norms(q_zero, bc_dd, lam ** 2)
            assert np.max(np.abs(got / exact - 1.0)) <= 1e-11

    def test_zero_potential_neumann(self, q_zero, bc_nn):
        lam = self.lam
        exact = PI / 2 + np.sin(2 * lam * PI) / (4 * lam)
        for norms in (norming_a_batch, norming_b_batch):
            got = norms(q_zero, bc_nn, lam ** 2)
            assert np.max(np.abs(got / exact - 1.0)) <= 1e-11

    def test_constant_hyperbolic_neumann(self, bc_nn):
        mus = np.array([0.1, 2.9, -20.0])
        kappa = np.sqrt(3.0 - mus)
        exact = PI / 2 + np.sinh(2 * kappa * PI) / (4 * kappa)
        q = Potential.constant(3.0)
        for norms in (norming_a_batch, norming_b_batch):
            got = norms(q, bc_nn, mus)
            assert np.max(np.abs(got / exact - 1.0)) <= 1e-11


class TestBoundaryAngleIdentities:
    """d mu_n / d alpha = 1 / a_n and d mu_n / d beta = -1 / b_n.

    With phi(0) = sin alpha, phi'(0) = -cos alpha these hold exactly for the
    discrete problem the Magnus steps solve (Kong, Wu & Zettl,
    J. Differential Equations 156, 1999), so the eigenvalue search and the
    norm sweep check each other without a shared code path.  Each returned
    mu lies within root_tol of a sign change of the discrete Phi, so a
    central difference of step eps is off by at most
    2 root_tol / (2 eps) = root_tol / eps = 1e-5, plus an O(eps^2)
    truncation term orders of magnitude smaller.
    """

    EPS = 1e-5
    TOL = DEFAULT_ROOT_TOL / EPS

    @pytest.mark.parametrize("q", [Potential.step(2.0, PI / 2),
                                   Potential.smooth_test([1.0, -0.5])], ids=["step", "smooth"])
    @pytest.mark.parametrize("alpha,beta", [(0.7, 2.3), (2.0, 1.1), (2.8, 0.4)])
    def test_angle_derivatives(self, q, alpha, beta):
        self._check(q, alpha, beta, 20)

    @pytest.mark.parametrize("barrier", ["left", "mirror"])
    @pytest.mark.parametrize("alpha,beta", [(PI / 2, PI / 2), (2.3, 0.6)], ids=["NN", "robin"])
    def test_barrier_angle_derivatives(self, barrier, alpha, beta):
        # the bound states are exponentially small at the barrier's end; read
        # there, a_0 of the mirror barrier at NN was -9.9 and b_0 of the
        # left one 8.0, against 0.6212
        self._check(BARRIERS[barrier][0], alpha, beta, 5)

    def _check(self, q, alpha, beta, n_max):
        def mus(a, b):
            return find_spectrum(q, BoundaryParams(a, b), n_max).mus

        bc = BoundaryParams(alpha, beta)
        records = norming_records(q, bc, find_spectrum(q, bc, n_max))
        a_n = np.array([r.a_n for r in records])
        b_n = np.array([r.b_n for r in records])
        eps = self.EPS
        dmu_dalpha = (mus(alpha + eps, beta) - mus(alpha - eps, beta)) / (2 * eps)
        dmu_dbeta = (mus(alpha, beta + eps) - mus(alpha, beta - eps)) / (2 * eps)
        assert np.max(np.abs(dmu_dalpha - 1.0 / a_n)) <= self.TOL
        assert np.max(np.abs(dmu_dbeta + 1.0 / b_n)) <= self.TOL


# q = 100 on one side of a jump, 0 on the other: (potential, jump, height left, height right)
BARRIERS = {
    "left": (Potential.step(100.0, 2.0), 2.0, 100.0, 0.0),
    "mirror": (Potential.step(-100.0, PI - 2.0).shifted(100.0), PI - 2.0, 0.0, 100.0),
}


def _exact_barrier(barrier, bc, mu0):
    """(mu, a, b) of a barrier in 60-digit arithmetic, mu the root of Phi near mu0.

    Each piece propagates (y, y') exactly by the cos/sin (cosh/sinh) pair
    C, S at w = mu - height, and int y^2 over the piece is the closed form
    of (y C + y' S)^2.  A piece of negative length steps backward.
    """
    mpmath = pytest.importorskip("mpmath")
    _, jump, left, right = BARRIERS[barrier]
    with mpmath.workdps(60):
        x0 = mpmath.mpf(jump)
        pieces = [(x0, left), (mpmath.pi - x0, right)]

        def sweep(mu, y, yp, backward):
            total = 0
            for length, height in (pieces[::-1] if backward else pieces):
                length = -length if backward else length
                w = mu - height
                k = mpmath.sqrt(abs(w))
                if w > 0:
                    c, s, cp = mpmath.cos(k * length), mpmath.sin(k * length), -1
                else:
                    c, s, cp = mpmath.cosh(k * length), mpmath.sinh(k * length), 1
                cc = length / 2 + s * c / (2 * k)
                ss = (s * c / (2 * k) - length / 2) * cp
                total += y * y * cc + y * yp * s * s / (k * k) + yp * yp * ss / (k * k)
                y, yp = y * c + yp * s / k, cp * y * k * s + yp * c
            return y, yp, abs(total)

        sa, ca, sb, cb = (mpmath.mpf(v) for v in (bc.sin_alpha, bc.cos_alpha, bc.sin_beta,
                                                   bc.cos_beta))

        def char(mu):
            y, yp, _ = sweep(mu, sa, -ca, False)
            return y * cb + yp * sb

        mu = mpmath.findroot(char, mpmath.mpf(mu0))
        return (float(mu), float(sweep(mu, sa, -ca, False)[2]),
                float(sweep(mu, sb, -cb, True)[2]))


class TestBarrierNorms:
    """Norms of bound states exponentially small at one end, against exact propagation.

    The jump is a mesh node, so the Magnus steps are exact and only the end
    a norm is read at decides its accuracy: at the small end it cancels
    entries of size e^20 (b_0 = 8.04 and a_0 = -9.88 at NN against 0.6212
    when read there).
    """

    @pytest.mark.parametrize("barrier", ["left", "mirror"])
    @pytest.mark.parametrize("alpha,beta", [(PI / 2, PI / 2), (2.3, 0.6)], ids=["NN", "robin"])
    def test_against_exact_norms(self, barrier, alpha, beta):
        q, bc = BARRIERS[barrier][0], BoundaryParams(alpha, beta)
        s = find_spectrum(q, bc, 2)
        for p, rec in zip(s.pairs, norming_records(q, bc, s)):
            mu, a, b = _exact_barrier(barrier, bc, p.mu)
            assert abs(p.mu - mu) <= DEFAULT_ROOT_TOL
            assert abs(rec.a_n / a - 1.0) <= 1e-10
            assert abs(rec.b_n / b - 1.0) <= 1e-10


# (name, q, q(pi - x), n_max): three problems with their reflections, and
# barriers of height 330-586 on the right, whose c_n computed from the
# forward values at pi reads 12 to 4e13 where it is exponentially small
REFLECTIONS = [
    ("smooth", Potential.smooth_test([1.0, -0.5]), Potential.smooth_test([-1.0, -0.5]), 60),
    ("step", Potential.step(2.0, 1.0), Potential.step(-2.0, PI - 1.0).shifted(2.0), 60),
    ("barrier100", Potential.step(100.0, 2.0), Potential.step(-100.0, PI - 2.0).shifted(100.0), 60),
]
TALL_MIRRORS = [
    ("mirror440", Potential.step(-440.0, PI - 2.0).shifted(440.0), (PI, PI / 2)),
    ("mirror330", Potential.step(-330.0, PI - 1.7).shifted(330.0), (PI / 2, PI / 2)),
    ("mirror586", Potential.step(-586.0, PI - 2.5).shifted(586.0), (PI - 0.64, PI - 2.47)),
]


class TestReflectedProblem:
    """b_n(q, alpha, beta) = a_n(q(pi - x), pi - beta, pi - alpha), and a_n = b_n likewise.

    x -> pi - x maps psi_n of one problem onto phi_n of the other, so each
    problem's b_n is the other's a_n, computed at the other end of the mesh
    from a product of its own, and the eigenvalues agree.  Measured within
    6.6e-11 relative.  Read at the end where the eigenfunction is
    exponentially small, the tall mirrors gave a_0 = -6.2e18, 1.4e9 and
    3.9e35 against 0.0853, 0.748 and 0.175.
    """

    @staticmethod
    def _check(q, r, alpha, beta, n_max):
        s = find_spectrum(q, BoundaryParams(alpha, beta), n_max)
        t = find_spectrum(r, BoundaryParams(PI - beta, PI - alpha), n_max)
        assert np.max(np.abs(s.mus - t.mus) / np.maximum(np.abs(t.mus), 1.0)) <= 1e-9
        mine, theirs = norming_records(q, s.bc, s), norming_records(r, t.bc, t)
        a, b = (np.array([getattr(rec, f) for rec in mine]) for f in ("a_n", "b_n"))
        ra, rb = (np.array([getattr(rec, f) for rec in theirs]) for f in ("a_n", "b_n"))
        assert np.max(np.abs(b / ra - 1.0)) <= 1e-9
        assert np.max(np.abs(a / rb - 1.0)) <= 1e-9

    @pytest.mark.parametrize("name,q,r,n_max", REFLECTIONS, ids=[c[0] for c in REFLECTIONS])
    @pytest.mark.parametrize("alpha,beta", [(PI / 2, PI / 2), (2.3, 0.6), (PI, 0.7)],
                             ids=["NN", "robin", "dirichlet-robin"])
    def test_reflection(self, name, q, r, n_max, alpha, beta):
        self._check(q, r, alpha, beta, n_max)

    @pytest.mark.parametrize("name,q,angles", TALL_MIRRORS, ids=[c[0] for c in TALL_MIRRORS])
    def test_tall_mirrors(self, name, q, angles):
        height, x0 = -q.params[0], PI - q.params[1]
        self._check(q, Potential.step(height, x0), *angles, 5)


class TestGelfandLevitanIdentity:
    """sum_n (1/alpha_n - 1/alpha_n^0) = -h at beta = pi/2.

    With phi(0) = 1 and phi'(0) = h = -cot alpha the norming constants are
    alpha_n = a_n / sin^2 alpha, and alpha_n^0 = pi for n = 0, pi/2 after,
    those of the zero potential at h = 0 (Gelfand & Levitan, Izv. Akad. Nauk
    SSSR 15, 1951; Freiling & Yurko, Inverse Sturm-Liouville Problems and
    their Applications, 2001, ch. 1).  One identity checks every a_n of a
    spectrum at once.  The partial sums S_N approach -h like C/N, so one
    Richardson step 2 S_300 - S_150 + h is checked.
    """

    @staticmethod
    def _defect(q, alpha):
        bc = BoundaryParams(alpha, PI / 2)
        a = np.array([r.a_n for r in norming_records(q, bc, find_spectrum(q, bc, 300))])
        sums = np.cumsum(bc.sin_alpha ** 2 / a - np.where(np.arange(a.size) == 0, 1.0, 2.0) / PI)
        return 2.0 * sums[300] - sums[150] - bc.cos_alpha / bc.sin_alpha

    @pytest.mark.parametrize("q", [Potential.smooth_test([1.0, -0.5]),
                                   Potential.smooth_test([3.0, -2.0, 1.0])],
                             ids=["smooth", "smooth3"])
    @pytest.mark.parametrize("alpha", [PI / 2, 2.3], ids=["N", "robin"])
    def test_smooth_potentials(self, q, alpha):
        # measured -1.8e-6, 5.9e-6, -7.1e-6 and 4.5e-7; the step falls like N^-2
        assert abs(self._defect(q, alpha)) <= 1e-5

    @pytest.mark.parametrize("barrier", ["left", "mirror"])
    def test_barriers(self, barrier):
        # measured -5.6e-4 and 9.9e-4: the jump of 100 slows the decay; with
        # the mirror's a_n read at its small end the defect was -2.6
        assert abs(self._defect(BARRIERS[barrier][0], PI / 2)) <= 2e-3


class TestCorrectionIntegral:
    def test_zero_potential(self, q_zero):
        assert ae_n(q_zero, 0.0, 5) == 0.0
        assert ae_tilde_n(q_zero, 5.0) == 0.0

    @pytest.mark.parametrize("n", [2, 7, 30])
    def test_constant_oracle(self, n, q_one):
        # int_0^pi (pi - t) sin(2 m t) dt = pi / (2 m)
        assert ae_n(q_one, 0.0, n) == pytest.approx(-PI / (4 * n), abs=1e-8)
        assert ae_n(q_one, 1.0, n) == pytest.approx(-PI / (4 * (n + 1)), abs=1e-8)

    def test_index_validation(self, q_one):
        with pytest.raises(ValueError):
            ae_n(q_one, 0.0, 1)
        with pytest.raises(ValueError):
            ae_n(q_one, [0.0, 0.0], [2, 1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_frequencies(self, bad):
        q = Potential.step(2.0, 1.0)
        with pytest.raises(ValueError, match="moment frequencies must be finite"):
            ae_tilde_n(q, bad)
        with pytest.raises(ValueError, match="moment frequencies must be finite"):
            ae_n(q, [0.5, bad], [3, 4])

    def test_huge_finite_frequency(self):
        # 2 lambda = 2e300 is finite: a value of size about 1 / lambda, no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = ae_tilde_n(Potential.step(2.0, 1.0), 1e300)
        assert abs(value) <= 1e-298

    def test_array_matches_scalar(self, q_step):
        ns = np.array([2, 5, 17, 40, 300])
        deltas = np.array([0.25, -0.1, 0.0, 1.0, 0.37])
        batch = ae_n(q_step, deltas, ns)
        assert batch.shape == ns.shape
        for n, d, got in zip(ns, deltas, batch):
            want = ae_n(q_step, float(d), int(n))
            assert isinstance(want, float)
            assert abs(got - want) <= 1e-15

    def test_tilde_matches_at_true_frequency(self, q_one, bc_nn):
        # lambda_n = sqrt(n^2 + 1) for the constant potential
        diffs = []
        for n in (10, 40):
            d = solve_delta(n, bc_nn)
            lam = math.sqrt(n * n + 1.0)
            diffs.append(abs(ae_tilde_n(q_one, lam) - ae_n(q_one, d, n)))
        assert diffs[1] < diffs[0]
        assert diffs[1] < 1e-2

    def test_tilde_defect_decays(self, q_step, step_nn_spectrum60):
        ns = np.arange(10, 61)
        diffs = [abs(ae_tilde_n(q_step, step_nn_spectrum60.pair(int(n)).lam)
                     - ae_n(q_step, step_nn_spectrum60.pair(int(n)).delta, int(n)))
                 for n in ns]
        assert fit_loglog_slope(ns, diffs, floor=1e-13) <= -0.8


class TestModelValues:
    def test_pure_sine_bracket(self, bc_nn):
        assert model_a(bc_nn, 0.0, 0.0, 7) == pytest.approx(PI / 2, abs=1e-15)

    def test_pure_cosine_bracket(self, bc_dd):
        assert model_a(bc_dd, 1.0, 0.0, 4) == pytest.approx(PI / 50, abs=1e-15)

    def test_mixed_substitution(self):
        bc = BoundaryParams(PI / 4, PI / 2)
        got = model_a(bc, 0.0, -PI / 16, 4)
        corr = 1.0 - 1.0 / 32.0
        expect = (PI / 2) * corr * 0.5 + (PI / 32) * corr * 0.5
        assert got == pytest.approx(expect, abs=1e-14)

    def test_model_b_mirror(self, bc_dd):
        # beta = 0 puts all weight on the cosine bracket
        assert model_b(bc_dd, 1.0, 0.0, 4) == pytest.approx(PI / 50, abs=1e-15)

    def test_validation(self, bc_nn):
        with pytest.raises(ValueError):
            model_a(bc_nn, 0.0, 0.0, 1)
        with pytest.raises(ValueError, match="^index must be >= 2, got 1$"):
            model_b(bc_nn, 0.0, 0.0, 1)


class TestRemainderExtraction:
    def test_zero_potential_neumann(self, q_zero, bc_nn):
        p = find_eigenvalue(q_zero, bc_nn, 6, grid_size=1024)
        a = norming_a_batch(q_zero, bc_nn, [p.mu], 1024)[0]
        r, rt, mode = extract_remainders(a, 0.0, p.delta, bc_nn, 6)
        assert mode == "sin"
        assert abs(r) < 1e-9
        assert math.isnan(rt)

    def test_zero_potential_dirichlet(self, q_zero, bc_dd):
        p = find_eigenvalue(q_zero, bc_dd, 6, grid_size=1024)
        a = norming_a_batch(q_zero, bc_dd, [p.mu], 1024)[0]
        r, rt, mode = extract_remainders(a, 0.0, p.delta, bc_dd, 6)
        assert mode == "cos"
        assert abs(rt) < 1e-9
        assert math.isnan(r)

    def test_combined_mode(self, q_step):
        bc = BoundaryParams(PI / 3, PI / 2)
        p = find_eigenvalue(q_step, bc, 5, grid_size=1024)
        a = norming_a_batch(q_step, bc, [p.mu], 1024)[0]
        ae = ae_n(q_step, p.delta, 5)
        r, rt, mode = extract_remainders(a, ae, p.delta, bc, 5)
        assert mode == "combined"
        # plugging the combined remainder back into its bracket reproduces a_n
        rebuilt = model_a(bc, p.delta, ae, 5) + (PI / 2) * bc.sin_alpha ** 2 * r
        assert rebuilt == pytest.approx(a, rel=1e-12)

    def test_validation(self, bc_nn):
        with pytest.raises(ValueError, match="^index must be >= 2, got 1$"):
            extract_remainders(PI / 2, 0.0, 0.0, bc_nn, 1)

    def test_step_remainder_bounded(self, q_step, bc_nn, step_nn_spectrum60):
        records = norming_records(q_step, bc_nn, step_nn_spectrum60)
        ns = np.array([rec.n for rec in records if rec.n >= 10])
        vals = [rec.n ** 2 * abs(rec.r_n) for rec in records if rec.n >= 10]
        ratio, _, _ = window_max_ratio(ns, vals, 10, 35, 60)
        assert ratio <= 2.0


class TestConvergence:
    def test_norms_converge_at_sixth_order(self):
        # both norms fall about 64x per halving of the mesh; 128 -> 256
        # ends near 7e-13 (a_n) and 2e-12 (b_n), above the sweep's rounding
        q, bc = Potential.smooth_test([1.0, -0.5]), BoundaryParams(2.3, 0.6)

        def norms(grid):
            spec = find_spectrum(q, bc, 20, tol=1e-14, grid_size=grid)
            return np.array([[r.a_n, r.b_n] for r in norming_records(q, bc, spec, grid_size=grid)])

        ref = norms(4096)
        errs = [np.max(np.abs(norms(grid) / ref - 1.0), axis=0) for grid in (64, 128, 256)]
        assert np.all(errs[0] >= 48.0 * errs[1]) and np.all(errs[1] >= 48.0 * errs[2])


def _assert_one_sided_ends(records, q, bc, mus, grid_size=DEFAULT_GRID_SIZE):
    """Each record's norm at its chosen end is the one-sided sweep's, bit for bit.

    The chosen end is pi for a_n where |c_n| >= |1 / c_n|, with c_n =
    phi(pi) sin beta - phi'(pi) cos beta and 1 / c_n = psi(0) sin alpha -
    psi'(0) cos alpha, and 0 for b_n elsewhere.  On these problems both ends
    are well conditioned, so the other norm, from c_n^2, agrees with its
    one-sided sweep to rounding as well.
    """
    a, b = norming_a_batch(q, bc, mus, grid_size), norming_b_batch(q, bc, mus, grid_size)
    mesh = build_mesh(q, grid_size)
    y, yp, _ = odesolve.propagate_with_norm(mesh, mus, bc.sin_alpha, -bc.cos_alpha)
    u, up, _ = odesolve.propagate_with_norm(mesh, mus, bc.sin_beta, -bc.cos_beta, forward=False)
    forward = (np.abs(y * bc.sin_beta - yp * bc.cos_beta)
               >= np.abs(u * bc.sin_alpha - up * bc.cos_alpha))
    got_a, got_b = np.array([r.a_n for r in records]), np.array([r.b_n for r in records])
    assert np.array_equal(np.where(forward, got_a, got_b), np.where(forward, a, b))
    assert np.max(np.abs(got_a / a - 1.0)) <= 1e-10
    assert np.max(np.abs(got_b / b - 1.0)) <= 1e-10


class TestRecords:
    def test_one_mesh_per_batch(self, q_step, bc_nn, step_nn_spectrum60, monkeypatch):
        built = []
        build_mesh = norming_module.build_mesh

        def counting_build_mesh(*args, **kwargs):
            built.append(args)
            return build_mesh(*args, **kwargs)

        monkeypatch.setattr(norming_module, "build_mesh", counting_build_mesh)
        records = norming_records(q_step, bc_nn, step_nn_spectrum60.pairs[:5])
        assert len(built) == 1
        mus = [p.mu for p in step_nn_spectrum60.pairs[:5]]
        _assert_one_sided_ends(records, q_step, bc_nn, mus)

    def test_one_norm_sweep_per_batch(self, monkeypatch):
        # a_n and b_n read one forward product: its blocks are built once
        q = Potential.smooth_test([1.0, -0.5])
        bc = BoundaryParams(2.3, 0.6)
        pairs = find_spectrum(q, bc, 24, grid_size=1024).pairs
        blocks = []
        transfer_dmu = odesolve._transfer_dmu

        def counting_transfer_dmu(*args):
            blocks.append(len(args[0]))
            return transfer_dmu(*args)

        monkeypatch.setattr(odesolve, "_transfer_dmu", counting_transfer_dmu)
        records = norming_records(q, bc, pairs, grid_size=1024)
        assert sum(blocks) == len(build_mesh(q, 1024).run_h) == 1024
        assert len(blocks) == math.ceil(1024 / (odesolve._BLOCK_ELEMS // len(pairs)))
        _assert_one_sided_ends(records, q, bc, [p.mu for p in pairs], 1024)

    def test_empty_batch(self, q_step, bc_nn):
        assert norming_records(q_step, bc_nn, []) == []

    @pytest.mark.parametrize("mu", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_eigenvalue_refused(self, q_step, bc_nn, step_nn_spectrum60, mu):
        # every reader of _eigen_norms, the verify criteria among them
        pairs = step_nn_spectrum60.pairs[:4]
        bad = dataclasses.replace(pairs[2], mu=mu)
        message = f"^mu, y0 and yp0 must be finite, got mu = {mu}$"
        with pytest.raises(ValueError, match=message):
            norming_records(q_step, bc_nn, pairs[:2] + [bad])
        with pytest.raises(ValueError, match=message):
            norming_record(q_step, bc_nn, bad)
        with pytest.raises(ValueError, match=message):
            norming_module._eigen_norms(q_step, bc_nn, np.array([p.mu for p in pairs] + [mu]))

    def test_single_record_is_the_batch_one(self, q_step, bc_nn, step_nn_spectrum60):
        pair = step_nn_spectrum60.pair(3)
        assert norming_record(q_step, bc_nn, pair) == norming_records(q_step, bc_nn, [pair])[0]

    def test_one_correction_call_per_batch(self, q_step, bc_nn, step_nn_spectrum60,
                                           monkeypatch):
        calls = []
        ae_n_fn = norming_module.ae_n

        def counting_ae_n(*args, **kwargs):
            calls.append(args)
            return ae_n_fn(*args, **kwargs)

        monkeypatch.setattr(norming_module, "ae_n", counting_ae_n)
        pairs = step_nn_spectrum60.pairs[:12]
        records = norming_records(q_step, bc_nn, pairs)
        assert len(calls) == 1
        for rec, p in zip(records, pairs):
            if p.n < 2:
                assert math.isnan(rec.ae_n)
            else:
                assert rec.ae_n == ae_n_fn(q_step, p.delta, p.n)

    @pytest.mark.parametrize("bc", [
        BoundaryParams(PI / 2, PI / 2), BoundaryParams(PI, 0.0), BoundaryParams(PI, PI / 2),
        BoundaryParams(PI / 2, 0.0), BoundaryParams(2.3, 0.6),
    ], ids=["nn", "dd", "dn", "nd", "robin"])
    def test_array_fields_match_the_scalar_path(self, bc):
        # every field is the scalar model_a, model_b and extract_remainders
        # value bit for bit, NaN below index 2, in a batch that mixes both
        q = Potential.step(2.0, 1.0)
        pairs = find_spectrum(q, bc, 12).pairs
        pairs = [pairs[i] for i in (5, 0, 12, 1, 2, 7)]
        same = lambda x, y: x == y or (math.isnan(x) and math.isnan(y))
        for p, rec in zip(pairs, norming_records(q, bc, pairs)):
            assert rec.n == p.n
            if p.n < 2:
                assert all(math.isnan(v) for v in (rec.ae_n, rec.model_a, rec.model_b, rec.r_n,
                                                   rec.rtilde_n, rec.p_n, rec.ptilde_n))
                assert rec.extraction_a == rec.extraction_b == "none"
                continue
            ae = ae_n(q, p.delta, p.n)
            assert rec.ae_n == ae
            assert rec.model_a == model_a(bc, p.delta, ae, p.n)
            assert rec.model_b == model_b(bc, p.delta, ae, p.n)
            r, rt, mode_a = extract_remainders(rec.a_n, ae, p.delta, bc, p.n)
            assert same(rec.r_n, r) and same(rec.rtilde_n, rt) and rec.extraction_a == mode_a
            nu = p.n + p.delta.value
            pv, pt, mode_b = norming_module._extract(rec.b_n - rec.model_b, bc.sin_beta,
                                                     bc.cos_beta, nu)
            assert same(rec.p_n, pv) and same(rec.ptilde_n, pt) and rec.extraction_b == mode_b

    def test_bookkeeping_identity(self, q_step, bc_nn, step_nn_spectrum60):
        records = norming_records(q_step, bc_nn, step_nn_spectrum60)
        for rec in records:
            if rec.n < 2:
                assert math.isnan(rec.model_a)
                continue
            rebuilt = rec.model_a + (PI / 2) * rec.r_n
            assert rebuilt == pytest.approx(rec.a_n, rel=1e-12)

    def test_smooth_potential_decay(self, q_cos, bc_nn):
        s = find_spectrum(q_cos, bc_nn, 40)
        records = norming_records(q_cos, bc_nn, s)
        ns = np.arange(10, 41)
        defects = [abs(records[n].a_n - PI / 2) for n in ns]
        assert fit_loglog_slope(ns, defects, floor=1e-9) <= -1.8

    def test_dirichlet_scaled_limit(self, q_cos, bc_dd):
        # (n + delta_n)^2 a_n approaches pi/2 at the squared rate for smooth q
        s = find_spectrum(q_cos, bc_dd, 40)
        records = norming_records(q_cos, bc_dd, s)
        ns = np.arange(10, 41)
        defects = [abs(records[n].a_n * (n + s.pair(n).delta.value) ** 2 - PI / 2)
                   for n in ns]
        assert fit_loglog_slope(ns, defects, floor=1e-9) <= -1.8
