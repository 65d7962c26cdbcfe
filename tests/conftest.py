import math

import numpy as np
import pytest

from slspectra import BoundaryParams, Potential, find_spectrum

PI = math.pi


@pytest.fixture(scope="session")
def q_zero():
    return Potential.zero()


@pytest.fixture(scope="session")
def q_one():
    return Potential.constant(1.0)


@pytest.fixture(scope="session")
def q_step():
    return Potential.step(2.0, PI / 2)


@pytest.fixture(scope="session")
def q_cos():
    return Potential.smooth_test([1.0])


@pytest.fixture(scope="session")
def bc_dd():
    return BoundaryParams(PI, 0.0)


@pytest.fixture(scope="session")
def bc_nn():
    return BoundaryParams(PI / 2, PI / 2)


@pytest.fixture(scope="session")
def step_nn_spectrum60(q_step, bc_nn):
    """Shared heavy fixture: step-potential spectrum through index 60."""
    return find_spectrum(q_step, bc_nn, 60)


def pool_potentials():
    """Small pool used by property tests."""
    xs = np.linspace(0.0, PI, 9)
    qs = np.array([0.5, -1.0, 2.0, 0.0, 1.5, -0.5, 1.0, 0.3, -2.0])
    return [
        Potential.zero(),
        Potential.constant(1.0),
        Potential.constant(-2.5),
        Potential.step(2.0, PI / 2),
        Potential.step(-1.5, 1.0),
        Potential.smooth_test([1.0, -0.5]),
        Potential.from_grid(xs, qs),
    ]


def uneven_grid(seed):
    """64 pieces of 1 to 108 panels each on 2048 panels (seeds 5 and 8)."""
    rng = np.random.default_rng(seed)
    widths = rng.uniform(0.1, 1.0, 64) ** 2
    xs = np.concatenate([[0.0], np.cumsum(widths / widths.sum() * PI)])
    xs[-1] = PI
    return xs, rng.normal(size=xs.size)
