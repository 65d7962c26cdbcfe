"""Sweep budget of find_spectrum: count points, Phi sweeps, Phi points and count rounds per call.

Wraps spectrum._counts and spectrum.endpoint_values, the two sweeps the
eigenvalue search calls, and prints one row per find_spectrum call.  The
rows are the ROADMAP's find_spectrum rows, then the calls of cycle 0 of
the benchmark's `spectrum` workload for --seed (from perfbench/workloads.py
of this checkout), then the cycle's totals.  The column rounds counts the
_counts batches, one per round of spectrum._brackets and one more where
the regime rule counts at 0 alone (spectrum._check_regime): 1 where the
first batch brackets every index and decides the regime.  The last
column, tail, lists the indices that the Phi sweeps of at most two
columns refine (or "-"), read from spectrum._gaps, which makes every
refinement sweep.  The counts do not depend on the machine.

    PYTHONPATH=src python scripts/search_budget.py --seed 9001
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

import slspectra
from slspectra import BoundaryParams, Potential, spectrum

PI = math.pi
ROOT = Path(__file__).resolve().parent.parent

ROWS = [
    ("step(2, pi/2) NN", Potential.step(2.0, PI / 2), BoundaryParams(PI / 2, PI / 2), 60, None),
    ("step(2, pi/2) NN", Potential.step(2.0, PI / 2), BoundaryParams(PI / 2, PI / 2), 300, None),
    ("smooth_test([1, -0.5]) (pi, 0.7)", Potential.smooth_test([1.0, -0.5]),
     BoundaryParams(PI, 0.7), 60, None),
    ("smooth_test([1, -0.5]) (pi, 0.7)", Potential.smooth_test([1.0, -0.5]),
     BoundaryParams(PI, 0.7), 300, None),
]


class Budget:
    """Batch sizes of every count and every Phi sweep, and the refined points, while installed."""

    def __init__(self):
        self.counts, self.phi, self.refined = [], [], []
        count, sweep, gaps = spectrum._counts, spectrum.endpoint_values, spectrum._gaps

        def counting(mesh, bc, mus):
            self.counts.append(int(np.size(mus)))
            return count(mesh, bc, mus)

        def sweeping(mesh, mus, *args, **kwargs):
            self.phi.append(int(np.size(mus)))
            return sweep(mesh, mus, *args, **kwargs)

        def refining(mesh, bc, mus, sign):
            self.refined.append((np.atleast_1d(mus), np.atleast_1d(sign)))
            return gaps(mesh, bc, mus, sign)

        spectrum._counts, spectrum.endpoint_values = counting, sweeping
        spectrum._gaps = refining

    def measure(self, q, bc, n_max, grid_size):
        """(count points, Phi sweeps, Phi points, count rounds, tail) of one call, or its error."""
        self.counts.clear()
        self.phi.clear()
        self.refined.clear()
        kw = {} if grid_size is None else {"grid_size": grid_size}
        try:
            mus = spectrum.find_spectrum(q, bc, n_max, **kw).mus
        except Exception as exc:  # the row reports it and the run goes on
            return type(exc).__name__
        return (sum(self.counts), len(self.phi), sum(self.phi), len(self.counts),
                self._tail(mus))

    def _tail(self, mus):
        """Indices refined by the sweeps of at most two columns, matched to the eigenvalues mus.

        A point of index n lies inside n's counted bracket, so between
        mu_{n-1} and mu_{n+1}: with k of mus below it, n is k - 1 or k,
        the one whose parity the sweep's sign (-1)^(n + 1) gives.
        """
        tail = set()
        for x, sign in self.refined:
            if x.size <= 2:
                k = np.searchsorted(mus, x)
                tail.update(np.where(k % 2 == (sign > 0.0), k, k - 1).tolist())
        return ",".join(map(str, sorted(tail))) or "-"


def _print_row(label, n_max, grid_size, result):
    grid = "default" if grid_size is None else str(grid_size)
    cells = result if isinstance(result, str) else "  ".join(
        f"{v:6d}" for v in result[:4]) + f"  {result[4]}"
    print(f"{label:44s} {n_max:5d} {grid:>7s}  {cells}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=9001,
                        help="seed of the spectrum workload cycle")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    budget = Budget()
    print(f"{'call':44s} {'n_max':>5s} {'grid':>7s}  {'count':>6s}  {'sweeps':>6s}  {'points':>6s}"
          f"  {'rounds':>6s}  tail")
    for label, q, bc, n_max, grid_size in ROWS:
        _print_row(label, n_max, grid_size, budget.measure(q, bc, n_max, grid_size))
    totals = np.zeros(4, dtype=int)
    for call in workloads.cycle("spectrum", args.seed, 0):
        spec = workloads.build(slspectra, call)
        result = budget.measure(spec["q"], spec["bc"], call["n_max"], call["grid_size"])
        pot = call["potential"]
        label = f"{call['id']} {pot['family']} {tuple(round(a, 3) for a in call['bc'])}"
        _print_row(label, call["n_max"], call["grid_size"], result)
        if not isinstance(result, str):
            totals += result[:4]
    print(f"{'cycle 0 total, seed ' + str(args.seed):58s}  "
          + "  ".join(f"{v:6d}" for v in totals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
