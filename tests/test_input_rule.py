"""The library's two input rules, entry by entry.

The sweeps' rule: a non-finite mu, y0 or yp0 raises ValueError with one
message, naming the first non-finite mu and each non-finite start value,
before any block of step coefficients is formed (see the odesolve module
docstring).

The integer rule: every integer argument goes through potential._whole at
its public entry, so a non-integer raises "... must be an integer, got ..."
and a value outside the entry's range "... must lie in [lo, hi], got n" or
"... must be >= lo, got n"; numpy integers are integers.
"""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from slspectra import odesolve, spectrum
from slspectra.delta import delta_asymptotic, delta_for_index, solve_delta
from slspectra.kseries import TRUNCATION_CAP, k_partial_sum, series_coefficients
from slspectra.norming import (
    ae_n,
    extract_remainders,
    model_a,
    model_b,
    norming_a_batch,
    norming_b_batch,
    norming_records,
)
from slspectra.odesolve import (
    _nodes,
    build_mesh,
    count_product,
    endpoint_values,
    norm_end,
    norm_product,
    picard_y2,
    propagate_with_norm,
    solve_ivp,
    y_values_batch,
)
from slspectra.spectrum import (
    MAX_INDEX,
    char_function,
    char_function_right,
    find_eigenvalue,
    find_spectrum,
)

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


# entry: (call(env, value), what the message calls the value, lo, hi or None
# where the range is open above); env is as above, with the zero potential
# in q0 and Dirichlet conditions in dd
INTEGER_ENTRIES = {
    "find_eigenvalue": (lambda env, n: find_eigenvalue(env.q0, env.bc, n), "index", 0, MAX_INDEX),
    "find_spectrum": (lambda env, n: find_spectrum(env.q0, env.bc, n), "n_max", 0, MAX_INDEX),
    "solve_delta": (lambda env, n: solve_delta(n, env.bc), "index", 2, None),
    "delta_for_index": (lambda env, n: delta_for_index(n, env.bc), "index", 0, None),
    "delta_asymptotic": (lambda env, n: delta_asymptotic(n, env.bc), "index", 1, None),
    "model_a": (lambda env, n: model_a(env.bc, 0.1, 0.0, n), "index", 2, None),
    "model_b": (lambda env, n: model_b(env.bc, 0.1, 0.0, n), "index", 2, None),
    "extract_remainders": (
        lambda env, n: extract_remainders(1.6, 0.0, 0.1, env.bc, n), "index", 2, None),
    "ae_n": (lambda env, n: ae_n(env.q, 0.1, n), "index", 2, None),
    # an array entry: the value first, then a valid index
    "ae_n-array": (lambda env, n: ae_n(env.q, [0.1, 0.2], [n, 3]), "index", 2, None),
    "Spectrum.pair": (lambda env, n: env.spectrum.pair(n), "index", 0, 60),
    "build_mesh": (lambda env, n: build_mesh(env.q, n), "grid_size", 64, None),
    "picard_y2-grid_size": (lambda env, n: picard_y2(env.q, 5.0, 2, n), "grid_size", 64, None),
    "picard_y2-K": (lambda env, n: picard_y2(env.q, 5.0, n, 64), "K", 1, None),
    "k_partial_sum-points": (
        lambda env, n: k_partial_sum(env.q, env.dd, 10, points=n), "points", 2, None),
    "k_partial_sum-N": (
        lambda env, n: k_partial_sum(env.q, env.dd, n), "truncation", 2, TRUNCATION_CAP),
    "series_coefficients": (
        lambda env, n: series_coefficients(env.q, env.dd, n), "truncation", 2, TRUNCATION_CAP),
    "k_partial_sum-truncations": (
        lambda env, n: k_partial_sum(env.q, env.dd, 20, truncations=(n, 20)),
        "each truncation", 2, 20),
}

# case: (the value passed, given the entry's lo and hi, and the message's
# tail, or None where the value is accepted)
INTEGER_CASES = {
    "fraction": (lambda lo, hi: 2.5, lambda lo, hi: "must be an integer, got 2.5"),
    "string": (lambda lo, hi: "3", lambda lo, hi: "must be an integer, got '3'"),
    "below": (lambda lo, hi: lo - 1, lambda lo, hi: (
        f"must be >= {lo}, got {lo - 1}" if hi is None else
        f"must lie in [{lo}, {hi}], got {lo - 1}")),
    "above": (lambda lo, hi: hi + 1, lambda lo, hi: f"must lie in [{lo}, {hi}], got {hi + 1}"),
    "numpy": (lambda lo, hi: np.int64(lo), lambda lo, hi: None),
}


@pytest.fixture(scope="module")
def integer_env(q_zero, q_step, bc_nn, bc_dd, step_nn_spectrum60):
    return SimpleNamespace(q=q_step, q0=q_zero, bc=bc_nn, dd=bc_dd, spectrum=step_nn_spectrum60)


@pytest.mark.parametrize("entry, case", [
    (entry, case) for entry, (*_, hi) in INTEGER_ENTRIES.items() for case in INTEGER_CASES
    if case != "above" or hi is not None])
def test_integer_rule(integer_env, entry, case):
    call, what, lo, hi = INTEGER_ENTRIES[entry]
    value, message = (f(lo, hi) for f in INTEGER_CASES[case])
    if message is None:
        call(integer_env, value)
        return
    with pytest.raises(ValueError) as err:
        call(integer_env, value)
    assert str(err.value) == f"{what} {message}"
