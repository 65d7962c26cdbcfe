"""Seeded call schedules for the three workloads.

A workload is an endless sequence of *cycles*.  Every cycle has the same
slots (call kind, size, potential family and boundary class, in the same
order); the seed only draws the continuous inputs inside each slot
(heights, jump positions, amplitudes, angles), so two seeds ask for the
same mix of work.  Cycle ``i`` of seed ``s`` is drawn
from its own generator, so the inputs depend on nothing but ``(s, i)``.

This module imports neither numpy nor the library: the set-up probe
generates its inputs with it before it starts timing the library import.
Specs are plain JSON-able dicts; ``build`` turns one into library objects.
"""

from __future__ import annotations

import math
import random

PI = math.pi

ARCHETYPES = {
    "DD": (PI, 0.0),
    "NN": (PI / 2, PI / 2),
    "DN": (PI, PI / 2),
    "ND": (PI / 2, 0.0),
}


def defect_probes(seed: int) -> list[dict]:
    """Valid inputs that fail today, run untimed after the measured loop.

    Two fixed ones (a tall barrier, a zero potential on a mesh too coarse to
    count 100 zeros) and three seeded ones: a wide or tall barrier, angles
    with a boundary-localised state, a mesh too coarse for its index range.
    """
    rng = _rng(seed, "probe", 0)
    grid_size = rng.choice([64, 128, 256])
    calls = [
        {"id": "probe-blowup", "potential": {"family": "step", "params": [500.0, 1.0]},
         "bc": list(ARCHETYPES["NN"]), "n_max": 5},
        {"id": "probe-coarse", "potential": {"family": "zero"}, "bc": list(ARCHETYPES["DD"]),
         "n_max": 100, "grid_size": 64},
        {"potential": {"family": "step", "params": [rng.uniform(20.0, 600.0),
                                                    rng.uniform(1.0, 2.8)]},
         "bc": _bc(rng), "n_max": 5},
        {"potential": _flat(rng), "bc": _robin_bc(rng), "n_max": 5},
        {"potential": {"family": "zero"}, "bc": _bc(rng), "grid_size": grid_size,
         "n_max": rng.randint(grid_size // 2 + 1, min(grid_size, 300))},
    ]
    for i, call in enumerate(calls):
        call.setdefault("id", f"probe-{seed}-{i - 2}")
        call.setdefault("grid_size", None)
        call["kind"] = "spectrum"
    return calls


def _rng(seed: int, workload: str, cycle: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{cycle}")


def _bc(rng: random.Random, allow=("DD", "NN", "DN", "ND", "generic")):
    """An archetype, or generic angles that hold no boundary-localised state."""
    pick = rng.choice(allow)
    if pick == "generic":
        return [rng.uniform(1.7, 3.0), rng.uniform(0.15, 1.45)]
    return list(ARCHETYPES[pick])


def _robin_bc(rng):
    """Angles whose boundary-localised states sit below the library's scan floor."""
    return [rng.uniform(0.2, 1.2), rng.uniform(2.0, 2.9)]


def _step(rng, lo, hi, mass=6.0):
    """Step of height in [lo, hi] and width x0, with |height| x0 <= mass."""
    h = rng.uniform(lo, hi)
    widest = mass / max(abs(h), 1e-9)
    return {"family": "step", "params": [h, rng.uniform(min(0.3, widest), min(2.8, widest))]}


def _cos(rng):
    return {"family": "smooth", "params": [rng.uniform(0.5, 1.5)]}


def _flat(rng):
    if rng.random() < 0.3:
        return {"family": "zero"}
    return {"family": "constant", "params": [rng.uniform(-3.0, 3.0)]}


def _smooth_sum(rng):
    terms = rng.randint(2, 3)
    return {"family": "smooth", "params": [rng.uniform(-1.0, 1.0) for _ in range(terms)]}


def _grid(rng):
    m = rng.randint(9, 65)
    xs = [PI * i / (m - 1) for i in range(m)]
    xs[-1] = PI
    amps = [rng.uniform(-1.5, 1.5) for _ in range(3)]
    qs = [amps[0] * math.cos(x) + amps[1] * math.sin(2 * x) + amps[2] * math.cos(3 * x)
          + rng.uniform(-0.3, 0.3) for x in xs]
    return {"family": "grid", "xs": xs, "qs": qs}


def _spectrum_cycle(rng):
    # Sizes and families are fixed per slot, so seeds differ only in heights,
    # jump positions, amplitudes and angles: one index range of 300 on a
    # 1024-interval mesh, eight ranges of 10-25 on the default mesh, two
    # coarse meshes well inside their counting limit.
    # The boundary class is fixed per slot as well: angles decide how many
    # brackets need the slow index-counting recovery.
    slots = [{"potential": _step(rng, -5.0, 10.0), "bc": _bc(rng, ("generic",)), "n_max": 300,
              "grid_size": 1024},
             {"potential": _cos(rng), "bc": _bc(rng, ("DD", "NN")), "n_max": 20}]
    for n_max, make, bcs in ((10, lambda: _step(rng, -5.0, 10.0), ("ND", "DN")),
                             (12, lambda: _step(rng, 20.0, 60.0), ("NN",)),
                             (14, lambda: _flat(rng), ("generic",)),
                             (16, lambda: _smooth_sum(rng), ("DD",)),
                             (18, lambda: _grid(rng), ("NN",)),
                             (20, lambda: _step(rng, -5.0, 10.0), ("generic",)),
                             (25, lambda: _flat(rng), ("DD", "ND"))):
        slots.append({"potential": make(), "bc": _bc(rng, bcs), "n_max": n_max})
    for grid_size, bcs in ((64, ("DD", "NN")), (256, ("generic",))):
        pot = rng.choice([_step(rng, -5.0, 10.0), {"family": "zero"}])
        slots.append({"potential": pot, "bc": _bc(rng, bcs), "grid_size": grid_size,
                      "n_max": grid_size // 4})
    for s in slots:
        s.setdefault("grid_size", None)
        s["kind"] = "spectrum"
    return slots


def _norming_cycle(rng):
    # Batch sizes, families and boundary classes are fixed per slot, as in
    # _spectrum_cycle: ae_n costs far more on a step (a breakpoint) than on a
    # flat potential.  Three large batches (61, 150 and 300 pairs) and eight
    # small ones per cycle keep both the median and the eleventh-slowest call
    # inside the class of small batches.  The 300-pair batch is on the zero
    # potential, where ae_n is cheap: the same size on a step costs 6.7 s,
    # two thirds of a cycle.
    slots = [{"kind": "norming_records", "potential": {"family": "step", "params": [2.0, PI / 2]},
              "bc": list(ARCHETYPES["NN"]), "n_first": 0, "count": 61}]
    # amplitudes stay in narrow bands: adaptive ae_n work grows with |q|,
    # and a zero potential would make it vanish
    def step():
        return {"family": "step", "params": [rng.uniform(1.5, 4.0), rng.uniform(0.8, 2.4)]}

    def flat():
        return {"family": "constant", "params": [rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 3.0)]}

    def cos():
        return {"family": "smooth", "params": [rng.uniform(0.8, 1.2)]}

    for kind, count, make, bcs in (
            ("norming_records", 150, step, ("generic",)),
            ("norming_records", 25, cos, ("NN",)), ("norming_records", 20, flat, ("generic",)),
            ("norming_records", 30, step, ("DD",)), ("norming_records", 25, cos, ("DD",)),
            ("norming_records", 20, step, ("ND", "DN")), ("norming_record", 1, cos, ("NN",)),
            ("norming_record", 1, step, ("generic",)),
            ("norming_records", 300, lambda: {"family": "zero"}, ("DD", "NN"))):
        slots.append({"kind": kind, "potential": make(), "bc": _bc(rng, bcs),
                      "n_first": rng.randint(0, 20), "count": count})
    return slots


def _kseries_cycle(rng):
    # families fixed per slot too: how often the shared Gauss grid falls back
    # to adaptive quadrature depends on the potential
    slots = [{"potential": {"family": "constant", "params": [1.0]},
              "bc": list(ARCHETYPES["DD"]), "N": 400}]
    makers = {"constant": lambda: {"family": "constant", "params": [rng.uniform(-3.0, 3.0)]},
              "step": lambda: _step(rng, -5.0, 20.0, mass=60.0),
              "smooth": lambda: _smooth_sum(rng), "grid": lambda: _grid(rng)}
    # per cycle one call at N=400, two at 200, four at 100, three at 50: over
    # seven cycles the median falls in the middle of the N=100 class and the
    # eleventh-slowest call inside the N=200 class, never on a class boundary
    # (the DD case adds the closed form, so the boundary case is fixed per slot)
    for N, family, dd in ((200, "smooth", True), (200, "step", True), (100, "step", True),
                          (100, "smooth", False), (100, "grid", True), (100, "constant", False),
                          (50, "constant", True), (50, "grid", False), (50, "step", True)):
        bc = list(ARCHETYPES["DD"]) if dd else [rng.uniform(0.3, 2.9), rng.uniform(0.2, 2.9)]
        slots.append({"potential": makers[family](), "bc": bc, "N": N})
    for s in slots:
        s["kind"] = "kseries"
        s["segment"] = [rng.uniform(0.2, 1.5), 2.0 * PI - rng.uniform(0.2, 1.5)]
    return slots


_CYCLES = {"spectrum": _spectrum_cycle, "norming": _norming_cycle, "kseries": _kseries_cycle}


def cycle(workload: str, seed: int, index: int) -> list[dict]:
    """The calls of one cycle, each tagged with a stable id."""
    calls = _CYCLES[workload](_rng(seed, workload, index))
    for j, call in enumerate(calls):
        call["id"] = f"{workload}-{seed}-{index}-{j}"
    return calls


def potential(lib, spec: dict):
    fam, p = spec["family"], spec.get("params", [])
    if fam == "zero":
        return lib.Potential.zero()
    if fam == "constant":
        return lib.Potential.constant(p[0])
    if fam == "step":
        return lib.Potential.step(p[0], p[1])
    if fam == "smooth":
        return lib.Potential.smooth_test(p)
    return lib.Potential.from_grid(spec["xs"], spec["qs"])


def build(lib, call: dict) -> dict:
    """Library inputs of one call: its Potential and BoundaryParams."""
    return {"q": potential(lib, call["potential"]), "bc": lib.BoundaryParams(*call["bc"])}
