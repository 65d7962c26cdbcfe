"""Known-defect probe: outcome, smallest norm and node certificate per call.

Runs the benchmark's defect_probes(seed) (from perfbench/workloads.py of this
checkout) for each of --seeds, then three barriers of height 330-586 on the
right, and prints one row per find_spectrum call:

- the outcome, "solved" or the name of the exception the call raised;
- min(a_n, b_n) over the spectrum, from norming_records;
- the node-sign certificate, every eigenfunction traced towards the end
  where it is large (as criterion 12 does): "ok", or the first index whose count
  is not n; the grid column is the mesh size in intervals.

A line totals the calls.  Three more rows follow, the zero potential at
(alpha, pi - alpha) for alpha = 0.1, 0.2 and 0.3, whose mu_0 and mu_1 are
-s^2 of the even and odd states, s tanh(s pi/2) = cot alpha and
s coth(s pi/2) = cot alpha (these agree with a 60-digit mpmath solve to
2e-14): each prints find_spectrum's mu_0 and mu_1 and their errors against
that closed form.  Both states are localised at both ends, and a sweep
from one end loses them: the errors reach a few 1e-6 at alpha = 0.1.

    PYTHONPATH=src python scripts/known_defects.py --seeds 9001 9002
"""

import argparse
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np

import slspectra
from slspectra import find_spectrum, norming_records
from slspectra.odesolve import DEFAULT_GRID_SIZE, build_mesh
from slspectra.verification import _eigen_zero_counts

PI = math.pi
ROOT = Path(__file__).resolve().parent.parent

# step(-h, pi - x0) shifted by h: the barrier h on [pi - x0, pi], the
# reflections of three probe barriers on the left, with reflected angles
MIRRORS = [
    {"id": "mirror-440", "mirror": (440.0, 2.0), "bc": [PI, PI / 2]},
    {"id": "mirror-330", "mirror": (330.0, 1.7), "bc": [PI / 2, PI / 2]},
    {"id": "mirror-586", "mirror": (586.0, 2.5), "bc": [PI - 0.64, PI - 2.47]},
]


# zero potential at (alpha, pi - alpha): states localised at both ends
SYMMETRIC = [0.1, 0.2, 0.3]


def symmetric_pair(alpha):
    """mu_0 and mu_1 of the zero potential at (alpha, pi - alpha), from the closed form.

    With h = cot alpha, s = h / tanh(s pi/2) (even state) and
    s = h tanh(s pi/2) (odd state) are contractions with factor about
    2 pi h e^(-pi h), so the fixed-point iterations converge to rounding.
    """
    h = 1.0 / math.tan(alpha)
    even = odd = h
    for _ in range(60):
        even, odd = h / math.tanh(even * PI / 2.0), h * math.tanh(odd * PI / 2.0)
    return -even * even, -odd * odd


def _inputs(workloads, call):
    """(potential, boundary data, label) of one call."""
    bc = slspectra.BoundaryParams(*call["bc"])
    if "mirror" in call:
        height, x0 = call["mirror"]
        q = slspectra.Potential.step(-height, PI - x0).shifted(height)
        return q, bc, f"step({-height:g}, pi - {x0:g}) + {height:g}"
    spec = call["potential"]
    params = ", ".join(f"{p:.4g}" for p in spec.get("params", []))
    return workloads.potential(slspectra, spec), bc, f"{spec['family']}({params})"


def probe(q, bc, n_max, grid_size):
    """(outcome, smallest norm, certificate) of one call.

    A stage that raises gives the name of its exception in its cell, and a
    call that raises leaves the other two empty.
    """
    try:
        s = find_spectrum(q, bc, n_max, grid_size=grid_size)
    except Exception as exc:  # the row reports it and the run goes on
        return type(exc).__name__, "", ""
    try:
        smallest = min(min(r.a_n, r.b_n) for r in norming_records(q, bc, s, grid_size=grid_size))
    except Exception as exc:
        smallest = type(exc).__name__
    try:
        counts = _eigen_zero_counts(build_mesh(q, grid_size), s)
        wrong = np.flatnonzero(counts != np.arange(counts.size))
        certificate = "ok" if wrong.size == 0 else f"miss n={wrong[0]}"
    except Exception as exc:
        certificate = type(exc).__name__
    return "solved", smallest, certificate


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(9001, 9011)),
                        help="seeds of defect_probes (default 9001-9010)")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    calls = [call for seed in args.seeds for call in workloads.defect_probes(seed)] + MIRRORS
    print(f"{'call':16s} {'potential':28s} {'alpha':>6s} {'beta':>6s} {'n_max':>5s} {'grid':>5s}"
          f"  {'outcome':22s} {'min norm':>10s}  certificate")
    tally = Counter()
    for call in calls:
        q, bc, label = _inputs(workloads, call)
        n_max, grid_size = call.get("n_max", 5), call.get("grid_size") or DEFAULT_GRID_SIZE
        outcome, smallest, certificate = probe(q, bc, n_max, grid_size)
        cell = smallest if isinstance(smallest, str) else f"{smallest:.3e}"
        print(f"{call['id']:16s} {label:28s} {bc.alpha:6.3f} {bc.beta:6.3f} {n_max:5d} "
              f"{len(build_mesh(q, grid_size).h):5d}  {outcome:22s} {cell:>10s}  {certificate}")
        tally[outcome] += 1
        tally["positive"] += not isinstance(smallest, str) and smallest > 0.0
        tally["certified"] += certificate == "ok"
    solved, positive, certified = (tally.pop(k) for k in ("solved", "positive", "certified"))
    raised = "".join(f", {n} {name}" for name, n in sorted(tally.items()))
    print(f"{len(calls)} calls: {solved} solved, {positive} with every norm positive, "
          f"{certified} certified{raised}")
    print(f"\n{'call':16s} {'alpha':>6s} {'beta':>6s}  {'mu_0':>16s} {'mu_1':>16s}"
          f"  {'err mu_0':>9s} {'err mu_1':>9s}")
    for alpha in SYMMETRIC:
        bc = slspectra.BoundaryParams(alpha, PI - alpha)
        mus = find_spectrum(slspectra.Potential.zero(), bc, 5).mus[:2]
        errors = mus - np.array(symmetric_pair(alpha))
        print(f"{'robin-pair-' + str(alpha):16s} {bc.alpha:6.3f} {bc.beta:6.3f}  {mus[0]:16.9f} "
              f"{mus[1]:16.9f}  {errors[0]:9.1e} {errors[1]:9.1e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
