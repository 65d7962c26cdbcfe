"""The sweeps' one input rule, entry by entry.

A non-finite mu, y0 or yp0 raises ValueError with one message, naming the
first non-finite mu and each non-finite start value, before any block of
step coefficients is formed (see the odesolve module docstring).
"""

import dataclasses
import math
from types import SimpleNamespace

import pytest

from slspectra import odesolve, spectrum
from slspectra.norming import norming_a_batch, norming_b_batch, norming_records
from slspectra.odesolve import (
    _nodes,
    build_mesh,
    count_product,
    endpoint_values,
    norm_end,
    norm_product,
    propagate_with_norm,
    solve_ivp,
    y_values_batch,
)
from slspectra.spectrum import char_function, char_function_right

FINITE = [4.0, 1.0, 9.0]

# case: (mu, y0, yp0, the offending values as the message names them); the
# mu goes in the middle of a batch, or alone to the scalar entries
CASES = {
    "nan-mu": (math.nan, 1.0, 0.0, "mu = nan"),
    "inf-mu": (math.inf, 1.0, 0.0, "mu = inf"),
    "-inf-mu": (-math.inf, 1.0, 0.0, "mu = -inf"),
    "nan-y0": (1.0, math.nan, 0.0, "y0 = nan"),
    "inf-yp0": (1.0, 1.0, math.inf, "yp0 = inf"),
}

# entry: (call(env, mus, y0, yp0), what it takes: "mu", "start" or both);
# env holds the step potential's mesh and boundary data, the norm product
# at FINITE and three eigenpairs
ENTRIES = {
    "endpoint_values-forward": (
        lambda env, mus, y0, yp0: endpoint_values(env.mesh, mus, y0, yp0), "mu start"),
    "endpoint_values-backward": (
        lambda env, mus, y0, yp0: endpoint_values(env.mesh, mus, y0, yp0, forward=False),
        "mu start"),
    "norm_product": (lambda env, mus, y0, yp0: norm_product(env.mesh, mus), "mu"),
    "propagate_with_norm-forward": (
        lambda env, mus, y0, yp0: propagate_with_norm(env.mesh, mus, y0, yp0), "mu start"),
    "propagate_with_norm-backward": (
        lambda env, mus, y0, yp0: propagate_with_norm(env.mesh, mus, y0, yp0, forward=False),
        "mu start"),
    "norm_end": (lambda env, mus, y0, yp0: norm_end(env.product, y0, yp0), "start"),
    "count_product": (lambda env, mus, y0, yp0: count_product(env.mesh, mus), "mu"),
    "_counts": (lambda env, mus, y0, yp0: spectrum._counts(env.mesh, env.bc, mus), "mu"),
    "_nodes-forward": (lambda env, mus, y0, yp0: _nodes(env.mesh, mus, y0, yp0, True), "mu start"),
    "_nodes-backward": (
        lambda env, mus, y0, yp0: _nodes(env.mesh, mus, y0, yp0, False), "mu start"),
    "y_values_batch": (
        lambda env, mus, y0, yp0: y_values_batch(env.mesh, mus, y0, yp0), "mu start"),
    "solve_ivp": (lambda env, mus, y0, yp0: solve_ivp(env.q, mus[1], True, y0, yp0), "mu start"),
    "char_function": (lambda env, mus, y0, yp0: char_function(env.q, env.bc, mus[1]), "mu"),
    "char_function_right": (
        lambda env, mus, y0, yp0: char_function_right(env.q, env.bc, mus[1]), "mu"),
    "norming_a_batch": (lambda env, mus, y0, yp0: norming_a_batch(env.q, env.bc, mus), "mu"),
    "norming_b_batch": (lambda env, mus, y0, yp0: norming_b_batch(env.q, env.bc, mus), "mu"),
    "norming_records": (
        lambda env, mus, y0, yp0: norming_records(
            env.q, env.bc, [dataclasses.replace(p, mu=mu) for p, mu in zip(env.pairs, mus)]),
        "mu"),
}


@pytest.fixture(scope="module")
def env(q_step, bc_nn, step_nn_spectrum60):
    mesh = build_mesh(q_step)
    return SimpleNamespace(q=q_step, bc=bc_nn, mesh=mesh, product=norm_product(mesh, FINITE),
                           pairs=step_nn_spectrum60.pairs[:3])


@pytest.mark.parametrize("entry, case", [
    (entry, case) for entry, (_, takes) in ENTRIES.items() for case in CASES
    if ("mu" if case.endswith("-mu") else "start") in takes.split()])
def test_non_finite_input_forms_no_block(env, monkeypatch, entry, case):
    call, _ = ENTRIES[entry]
    mu, y0, yp0, shown = CASES[case]
    blocks = []

    def counted(h, *args):
        blocks.append(h.shape[0])
        return coeffs(h, *args)

    coeffs = odesolve._coeffs
    monkeypatch.setattr(odesolve, "_coeffs", counted)
    with pytest.raises(ValueError) as err:
        call(env, [4.0, mu, 9.0], y0, yp0)
    assert str(err.value) == f"mu, y0 and yp0 must be finite, got {shown}"
    assert blocks == []
    # the count sees every block: the same entry at finite input forms some
    call(env, FINITE, 1.0, 0.0)
    assert blocks or entry == "norm_end"
