"""Correctness gate: every completed call against an independent reference.

Tolerances are the accuracy the library already promises; none is looser
than its source:

* eigenvalues, exact-scheme potentials (zero, constant, step):
  acceptance criterion 01, 1e-8, here relative to max(1, |mu|);
* eigenvalues where the mesh limits accuracy (``c cos x``): criterion 03,
  1e-6, the same scale;
* norming constants a_n, b_n: criterion 02, relative 1e-6;
* ae_n: criterion 07, 1e-8, absolute (relative once |ae_n| > 1);
* series partial sums: ``series_coefficients``' per-coefficient tolerance 1e-10,
  summed over the N - 1 terms; the Dirichlet-Dirichlet closed form: 1e-8
  (criterion 07's integral tolerance).

Calls with no reference (grid potentials, multi-term cosine sums) still get
the structural checks: contiguous indices, certified zero counts.
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref
from workloads import ARCHETYPES

MU_EXACT_TOL = 1e-8
MU_MESH_TOL = 1e-6
NORM_REL_TOL = 1e-6
AE_ABS_TOL = 1e-8
SERIES_TOL = 1e-10
CLOSED_FORM_TOL = 1e-8
TV_REL_TOL = 1e-9


def _archetype(bc):
    for name, angles in ARCHETYPES.items():
        if tuple(bc) == angles:
            return name
    return None


def eigenvalues(call: dict, n_max: int):
    """Reference mu_0..mu_{n_max}, or None when no closed form applies."""
    model = ref.QModel.from_spec(call["potential"])
    alpha, beta = call["bc"]
    if model.piecewise_constant:
        return ref.eigenvalues_piecewise_constant(model, alpha, beta, n_max)
    arch = _archetype(call["bc"])
    if (call["potential"]["family"] == "smooth" and len(call["potential"]["params"]) == 1
            and arch in ("NN", "DD")):
        return ref.mathieu_cos_eigenvalues(call["potential"]["params"][0], arch == "DD", n_max)
    return None


def norming_pairs(lib, call: dict, bc):
    """Eigenpairs n_first.. built from reference eigenvalues, each with delta_for_index."""
    first, count = call["n_first"], call["count"]
    mus = eigenvalues(call, first + count - 1)[first:]
    pairs = []
    for n, mu in zip(range(first, first + count), mus):
        mu = float(mu)
        pairs.append(lib.Eigenpair(n=n, mu=mu, lam=math.sqrt(abs(mu)), mu_negative=mu < 0.0,
                                   delta=lib.delta_for_index(n, bc), bracket=(mu, mu),
                                   char_residual=0.0, zeros=n))
    return pairs


class Verdict:
    """Worst error of one call and whether every check passed."""

    def __init__(self):
        self.err = 0.0
        self.ok = True
        self.notes: list[str] = []

    def add(self, what: str, err: float, tol: float):
        err = float(err)
        self.err = max(self.err, err)
        if not err <= tol:
            self.ok = False
            self.notes.append(f"{what} error {err:.3e} > {tol:.0e}")

    def require(self, what: str, cond: bool):
        if not cond:
            self.ok = False
            self.notes.append(what)


def check_spectrum(call, spec) -> Verdict:
    v = Verdict()
    n_max = call["n_max"]
    pairs = spec.pairs
    v.require("wrong number of pairs", len(pairs) == n_max + 1)
    v.require("zero count differs from index", all(p.zeros == p.n for p in pairs))
    mus = eigenvalues(call, n_max)
    if mus is not None and len(pairs) == n_max + 1:
        got = np.array([p.mu for p in pairs])
        exact = ref.QModel.from_spec(call["potential"]).piecewise_constant
        v.add("mu", np.max(np.abs(got - mus) / np.maximum(1.0, np.abs(mus))),
              MU_EXACT_TOL if exact else MU_MESH_TOL)
    return v


def check_norming(call, pairs, records) -> Verdict:
    v = Verdict()
    v.require("wrong number of records", len(records) == len(pairs))
    model = ref.QModel.from_spec(call["potential"])
    sa, ca = math.sin(call["bc"][0]), math.cos(call["bc"][0])
    sb, cb = math.sin(call["bc"][1]), math.cos(call["bc"][1])
    for p, r in zip(pairs, records):
        v.require("record index differs from pair index", r.n == p.n)
        if model.piecewise_constant:
            a_ref = ref.norm_squared(model, p.mu, sa, -ca, True)
            b_ref = ref.norm_squared(model, p.mu, sb, -cb, False)
            v.add("a_n", abs(r.a_n / a_ref - 1.0), NORM_REL_TOL)
            v.add("b_n", abs(r.b_n / b_ref - 1.0), NORM_REL_TOL)
        if p.n >= 2:
            ae_ref = ref.ae(model, p.n + p.delta.value)
            v.add("ae_n", abs(r.ae_n - ae_ref) / max(1.0, abs(ae_ref)), AE_ABS_TOL)
    return v


def check_kseries(call, result, report) -> Verdict:
    v = Verdict()
    N = call["N"]
    ladder = tuple(sorted({max(2, N // 4), max(2, N // 2), N}))
    v.require("truncation ladder differs", tuple(result.N_list) == ladder)
    if tuple(result.N_list) != ladder:
        return v
    model = ref.QModel.from_spec(call["potential"])
    alpha, beta = call["bc"]
    nus, k, k1, k2 = ref.series_coefficients(model, alpha, beta, N)
    for label, coefs, got in (("k", k, result.k_partial), ("k1", k1, result.k1_partial),
                              ("k2", k2, result.k2_partial)):
        want = ref.partial_sum_rows(nus, coefs, result.grid, ladder)
        v.add(label, np.max(np.abs(got - want)), SERIES_TOL * (N - 1))
    dd = _archetype(call["bc"]) == "DD"
    v.require("closed form present exactly in the Dirichlet-Dirichlet case",
              (result.closed_form is not None) == dd)
    if dd and result.closed_form is not None:
        want = ref.k2_closed_form_dd(model, result.grid)
        v.add("k2 closed form", np.max(np.abs(result.closed_form - want)), CLOSED_FORM_TOL)
    a, b = call["segment"]
    mask = (result.grid >= a) & (result.grid <= b)
    tv = [float(np.sum(np.abs(np.diff(row[mask])))) for row in result.k_partial]
    v.require("variation report does not match the partial sums",
              len(report.variations) == len(tv)
              and all(abs(x - y) <= TV_REL_TOL * max(1.0, abs(y))
                      for x, y in zip(report.variations, tv)))
    return v
