"""The benchmark's own test: exact counts repeat, metric names do not depend on the seed.

    python3 perfbench/selfcheck.py

For each workload it runs ``run.py --trace 1`` twice with seed 1 and once
with seed 2, then requires

* bit-identical values for every count-like per-layer metric and err_max;
* the same set of failed calls (measured and probe) for the same seed;
* the same metric names for both seeds.

It also traces ``find_spectrum(step(2, pi/2), NN, n_max=60)`` on its own and
prints Phi evaluations per eigenpair for that reference problem.  Exits 1
on any mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

EXACT = (
    "spectrum.phi_evals_per_pair", "spectrum.phi_batches_per_call", "spectrum.certified_frac",
    "odesolve.endpoint_values.mu_evals", "odesolve.endpoint_values.bytes_computed",
    "odesolve.propagate_with_norm.mu_evals", "odesolve.build_mesh.calls",
    "odesolve.mesh_intervals", "potential.q_points", "potential.integrate.calls",
    "norming.ae_n.calls", "norming.q_points_per_ae", "delta.solve_delta.calls",
    "kseries.series_coefficients.fallback_frac", "err_max", "failed_frac",
    "spectrum.probe_failed_frac",
)


def traced(workload: str, seed: int):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    failed = sorted(line.strip() for line in lines if " raised " in line)
    return json.loads(lines[-1]), failed


def anchor_phi_evals() -> float:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import math

    import slspectra
    import tracing

    q = slspectra.Potential.step(2.0, math.pi / 2)
    bc = slspectra.BoundaryParams(math.pi / 2, math.pi / 2)
    tracer = tracing.Tracer()
    tracer.install(slspectra)
    try:
        spec = tracer.call("anchor", lambda: slspectra.spectrum.find_spectrum(q, bc, 60))
    finally:
        tracer.uninstall()
    rows = tracing.summarize(tracer.spans, tracer.self_times())
    return rows["odesolve.endpoint_values"]["mu_evals"] / len(spec.pairs)


def main() -> int:
    problems = []
    for workload in run.WORKLOADS:
        first, failed_first = traced(workload, 1)
        second, failed_second = traced(workload, 1)
        other, _ = traced(workload, 2)
        for name in EXACT:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            if a != b:
                problems.append(f"{workload}: {name} differs between runs: {a!r} != {b!r}")
        if failed_first != failed_second:
            problems.append(f"{workload}: failed calls differ: {failed_first} != {failed_second}")
        if set(first["metrics"]) != set(other["metrics"]):
            problems.append(f"{workload}: metric names depend on the seed")
        for result in (first, second, other):
            if not result["correct"]:
                problems.append(f"{workload}: a traced run failed its correctness gate")
        print(f"{workload}: {len(EXACT)} exact counts compared, "
              f"{len(failed_first)} failed call(s) on record")
    print(f"find_spectrum(step(2, pi/2), NN, 60): {anchor_phi_evals():.2f} "
          "Phi evaluations per pair")
    for line in problems:
        print("MISMATCH " + line)
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
