"""slspectra benchmark: one workload, one process, one closed-loop caller.

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The library is imported from ``src/`` of
that checkout and nowhere else.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` replays the first cycle of calls
untraced and traced in turn and reports the per-layer metrics.  Both print
a human-readable report and, as the last line, one JSON object.  See
``perfbench/README.md`` for the workloads, metrics and seeds.
"""

from __future__ import annotations

import os

# pinned before numpy loads: one BLAS/OpenMP thread, below nproc
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 16

WORKLOADS = ("spectrum", "norming", "kseries")
ITEM_UNIT = {"spectrum": "certified eigenpair", "norming": "norming record",
             "kseries": "series term"}


def import_library():
    """slspectra from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import slspectra
    except ImportError as exc:
        sys.exit(f"cannot import slspectra from {src}: {exc}")
    if Path(slspectra.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"slspectra resolved to {slspectra.__file__}, not to {src}")
    return slspectra


def setup_seconds(workload: str, seed: int, probes: int) -> list[float]:
    """Import plus input construction, each probe in a fresh interpreter."""
    times = []
    for _ in range(probes):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                              cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


# ---------------------------------------------------------------------------
# calls
# ---------------------------------------------------------------------------


def prepare(lib, checks, workloads, call):
    args = workloads.build(lib, call)
    if call["kind"].startswith("norming"):
        args["pairs"] = checks.norming_pairs(lib, call, args["bc"])
    return args


def fresh(lib, workloads, call, args):
    """``args`` with new Potential and BoundaryParams objects.

    A Potential caches its |q|_1 on first use, so a call that reuses one
    would skip work its first use paid for.
    """
    return dict(args, **workloads.build(lib, call))


def invoke(lib, call, args):
    kind = call["kind"]
    if kind == "spectrum":
        kw = {} if call["grid_size"] is None else {"grid_size": call["grid_size"]}
        return lib.spectrum.find_spectrum(args["q"], args["bc"], call["n_max"], **kw)
    if kind == "norming_records":
        return lib.norming.norming_records(args["q"], args["bc"], args["pairs"])
    if kind == "norming_record":
        return [lib.norming.norming_record(args["q"], args["bc"], args["pairs"][0])]
    result = lib.kseries.k_partial_sum(args["q"], args["bc"], call["N"])
    report = lib.kseries.ac_diagnostic(result.grid, result.k_partial, result.N_list,
                                       *call["segment"])
    return result, report


def items(call, output) -> int:
    if call["kind"] == "spectrum":
        return sum(1 for p in output.pairs if p.zeros == p.n)
    if call["kind"] == "kseries":
        return call["N"] - 1
    return len(output)


def verdict(checks, call, args, output):
    if call["kind"] == "spectrum":
        return checks.check_spectrum(call, output)
    if call["kind"] == "kseries":
        return checks.check_kseries(call, *output)
    return checks.check_norming(call, args["pairs"], output)


class Outcome:
    __slots__ = ("call", "args", "seconds", "wall", "output", "error")

    def __init__(self, call, args, seconds, wall, output, error):
        self.call, self.args, self.seconds, self.wall = call, args, seconds, wall
        self.output, self.error = output, error


def timed(lib, call, args, wrap=None) -> Outcome:
    """Run one call; ``seconds`` is its CPU time, ``wall`` its wall time."""
    thunk = (lambda: invoke(lib, call, args))
    c0, t0 = process_time(), perf_counter()
    try:
        output = wrap(call["id"], thunk) if wrap else thunk()
        error = None
    except Exception as exc:  # a failed call is counted, never fatal
        output, error = None, f"{type(exc).__name__}: {exc}"
    return Outcome(call, args, process_time() - c0, perf_counter() - t0, output, error)


WARM_UP_SLOT = {"spectrum": -1, "norming": 2, "kseries": 1}


def warm_up(lib, checks, workloads, workload):
    """One cheap untimed call, so lazy numpy set-up is not measured."""
    call = workloads.cycle(workload, 0, 0)[WARM_UP_SLOT[workload]]
    timed(lib, call, prepare(lib, checks, workloads, call))


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


# nominal library seconds of one cycle on the reference machine (README.md);
# at --seconds 30 they give 3, 3 and 7 cycles
CYCLE_SECONDS = {"spectrum": 10.0, "norming": 10.5, "kseries": 4.5}


def measured_run(lib, checks, workloads, workload, seed, seconds):
    """A closed loop over whole cycles, enough to fill ``seconds`` on the reference machine.

    The cycle count depends only on ``seconds``, so every run of a workload
    does the same work and the tail percentile always has the same rank.
    The set-up probes run before the first cycle and after each one, so
    their median spans the whole run, not the host's load of one moment.
    """
    cycles = max(1, math.ceil(seconds / CYCLE_SECONDS[workload]))
    per_gap = math.ceil(SETUP_PROBES / (cycles + 1))
    setup = setup_seconds(workload, seed, per_gap)
    outcomes = []
    for index in range(cycles):
        for call in workloads.cycle(workload, seed, index):
            outcomes.append(timed(lib, call, prepare(lib, checks, workloads, call)))
        setup += setup_seconds(workload, seed, per_gap)
    return outcomes, sum(o.seconds for o in outcomes), cycles, setup


def traced_run(lib, checks, workloads, tracing, workload, seed, seconds):
    """Cycle 0, each call untraced and traced in turn on fresh inputs.

    Within a pass the order of the two alternates from call to call, so
    drift of the host's load falls on both sides alike.  Returns the tracer,
    the traced passes and the overhead: traced over untraced wall time - 1.
    """
    calls = workloads.cycle(workload, seed, 0)
    prepared = [(c, prepare(lib, checks, workloads, c)) for c in calls]
    tracer = tracing.Tracer()
    plain_s = traced_s = 0.0
    passes = []
    # another pass only if it still ends within ``seconds``
    while not passes or (plain_s + traced_s) * (len(passes) + 1) / len(passes) <= seconds:
        start = len(tracer.spans)
        outs = []
        for j, (c, a) in enumerate(prepared):
            traced_call = dict(c, id=f"{c['id']}/pass{len(passes)}")
            for traced in ((False, True) if (j + len(passes)) % 2 == 0 else (True, False)):
                if not traced:
                    plain_s += timed(lib, c, fresh(lib, workloads, c, a)).wall
                    continue
                args = fresh(lib, workloads, c, a)
                tracer.install(lib)
                try:
                    outs.append(timed(lib, traced_call, args, tracer.call))
                finally:
                    tracer.uninstall()
                traced_s += outs[-1].wall
        passes.append((start, len(tracer.spans), outs))
    return tracer, passes, traced_s / plain_s - 1.0


def probe_defects(lib, checks, workloads, workload, seed):
    """Known-failing valid inputs, outside every timed region."""
    if workload != "spectrum":
        return []
    return [timed(lib, c, prepare(lib, checks, workloads, c))
            for c in workloads.defect_probes(seed)]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(durations):
    """Highest percentile with at least ten samples above it, and its label."""
    s = sorted(durations)
    n = len(s)
    if n < 11:
        return s[-1], 100.0
    k = n - 10
    return s[k - 1], 100.0 * k / n


def grade(checks, outcomes):
    """(all correct, worst error, failure counts by type, failing details)."""
    worst = 0.0
    ok = True
    notes = []
    failures: dict = {}
    for o in outcomes:
        if o.error is not None:
            kind = o.error.split(":", 1)[0]
            failures[kind] = failures.get(kind, 0) + 1
            notes.append(f"{o.call['id']} raised {o.error}")
            continue
        v = verdict(checks, o.call, o.args, o.output)
        worst = max(worst, v.err)
        if not v.ok:
            ok = False
            notes.append(f"{o.call['id']}: " + "; ".join(v.notes))
    return ok, worst, failures, notes


def layer_metrics(tracer, tracing, passes, overhead, graded, probes):
    """Per-layer metrics: counts from the first traced pass, times averaged."""
    self_s = tracer.self_times()
    first_start, first_end, first_outs = passes[0]
    counts = tracing.summarize(tracer.spans[first_start:first_end],
                               self_s[first_start:first_end])
    timing = tracing.summarize(tracer.spans, self_s)
    n_calls = len(first_outs)
    n_passes = len(passes)

    def c(name, key):
        return counts[name][key] if name in counts else 0.0

    def per_call_s(name):
        return (timing[name]["self_s"] if name in timing else 0.0) / (n_calls * n_passes)

    def ns_per_step(name):
        steps = timing[name]["steps"] if name in timing else 0.0
        return 1e9 * timing[name]["self_s"] / steps if steps else 0.0

    spans = tracer.spans[first_start:first_end]
    coefs = sum(o.call["N"] - 1 for o in first_outs if o.call["kind"] == "kseries")
    fallbacks = sum(1 for s in spans if s["name"] == "potential.integrate" and s["parent"] >= 0
                    and spans[s["parent"] - first_start]["name"] == "kseries.series_coefficients")
    requested = sum(o.call["n_max"] + 1 for o in first_outs if o.call["kind"] == "spectrum")
    certified = sum(items(o.call, o.output) for o in first_outs
                    if o.call["kind"] == "spectrum" and o.error is None)
    find_calls = c("spectrum.find_spectrum", "calls")
    _, worst, failures, _ = graded
    attempted = len(first_outs)
    q_total = sum(s["q_points"] for s in spans)
    ae_calls = c("norming.ae_n", "calls")
    return {
        "odesolve.endpoint_values.self_s": per_call_s("odesolve.endpoint_values"),
        "odesolve.endpoint_values.mu_evals": c("odesolve.endpoint_values", "mu_evals") / n_calls,
        "odesolve.endpoint_values.ns_per_step": ns_per_step("odesolve.endpoint_values"),
        # w, C, S and the four transfer-matrix entries per (interval, mu), plus
        # as many again across the pairwise-product levels: 11 doubles
        "odesolve.endpoint_values.bytes_computed":
            88.0 * c("odesolve.endpoint_values", "steps") / n_calls,
        "odesolve.y_values_batch.self_s": per_call_s("odesolve.y_values_batch"),
        "odesolve.propagate_with_norm.self_s": per_call_s("odesolve.propagate_with_norm"),
        "odesolve.propagate_with_norm.mu_evals":
            c("odesolve.propagate_with_norm", "mu_evals") / n_calls,
        "odesolve.propagate_with_norm.ns_per_step": ns_per_step("odesolve.propagate_with_norm"),
        "odesolve.build_mesh.calls": c("odesolve.build_mesh", "calls") / n_calls,
        "odesolve.mesh_intervals": (c("odesolve.build_mesh", "intervals")
                                    / max(1.0, c("odesolve.build_mesh", "calls"))),
        "spectrum.find_spectrum.self_s": per_call_s("spectrum.find_spectrum"),
        "spectrum.phi_evals_per_pair": (c("odesolve.endpoint_values", "mu_evals")
                                        / certified if certified else 0.0),
        "spectrum.phi_batches_per_call": (c("odesolve.endpoint_values", "calls")
                                          / find_calls if find_calls else 0.0),
        "spectrum.certified_frac": certified / requested if requested else 1.0,
        "norming.norming_records.self_s": per_call_s("norming.norming_records"),
        "norming.ae_n.self_s": per_call_s("norming.ae_n"),
        "norming.ae_n.calls": ae_calls / n_calls,
        "potential.integrate.self_s": per_call_s("potential.integrate"),
        "potential.integrate.calls": c("potential.integrate", "calls") / n_calls,
        "potential.q_points": q_total / n_calls,
        "norming.q_points_per_ae": (c("potential.integrate", "q_points") / ae_calls
                                    if ae_calls else 0.0),
        "potential.mean_q.self_s": per_call_s("potential.mean_q"),
        "potential.sigma_functions.self_s": per_call_s("potential.sigma_functions"),
        "kseries.series_coefficients.self_s": per_call_s("kseries.series_coefficients"),
        "kseries.series_coefficients.fallback_frac": fallbacks / coefs if coefs else 0.0,
        "kseries.k_partial_sum.self_s": per_call_s("kseries.k_partial_sum"),
        "kseries.k2_closed_form_dd.self_s": per_call_s("kseries.k2_closed_form_dd"),
        "kseries.ac_diagnostic.self_s": per_call_s("kseries.ac_diagnostic"),
        "delta.solve_delta.calls": c("delta.solve_delta", "calls") / n_calls,
        "delta.solve_delta.self_s": per_call_s("delta.solve_delta"),
        "trace.overhead_frac": overhead,
        "err_max": worst,
        "failed_frac": sum(failures.values()) / attempted,
        "spectrum.probe_failed_frac": (sum(1 for p in probes if p.error) / len(probes)
                                       if probes else 0.0),
    }


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def machine_note(np_version: str) -> dict:
    def first(path, prefix=""):
        try:
            with open(path) as fh:
                for line in fh:
                    if line.startswith(prefix):
                        return line.split(":", 1)[-1].strip() if prefix else line.strip()
        except OSError:
            return "unknown"
        return "unknown"

    from importlib.metadata import PackageNotFoundError, version

    try:
        scipy_version = version("scipy")  # metadata only; scipy is never imported
    except PackageNotFoundError:
        scipy_version = "absent"
    llc = "unknown"
    try:
        levels = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"),
                        key=lambda p: int(first(p / "level")))
        if levels:
            llc = f"L{first(levels[-1] / 'level')} {first(levels[-1] / 'size')}"
    except (OSError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": first("/proc/cpuinfo", "model name"),
        "llc": llc,
        "python": platform.python_version(),
        "numpy": np_version,
        "scipy": scipy_version,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def print_failures(title, failures, notes):
    print(f"{title}: " + (", ".join(f"{k} x{v}" for k, v in sorted(failures.items()))
                          or "none"))
    for line in notes[:20]:
        print(f"  {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    lib = import_library()
    import numpy as np

    import checks
    import tracing
    import workloads

    note = machine_note(np.__version__)
    print("machine: " + json.dumps(note))
    warm_up(lib, checks, workloads, args.workload)

    if args.trace:
        tracer, passes, overhead = traced_run(lib, checks, workloads, tracing,
                                              args.workload, args.seed, args.seconds)
        outcomes = [o for _, _, outs in passes for o in outs]
        graded = grade(checks, passes[0][2])
        attempted = len(outcomes)
        failed = sum(1 for o in outcomes if o.error)
        probes = probe_defects(lib, checks, workloads, args.workload, args.seed)
        values = layer_metrics(tracer, tracing, passes, overhead, graded, probes)
        units = declared_units("per_layer")
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        print(f"traced {len(passes)} pass(es) of {len(passes[0][2])} calls (cycle 0), each "
              f"call beside an untraced replay on fresh inputs; spans in perfbench/out/")
    else:
        outcomes, busy, cycles, setup = measured_run(lib, checks, workloads, args.workload,
                                                     args.seed, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        graded = grade(checks, outcomes)
        attempted = len(outcomes)
        failed = sum(1 for o in outcomes if o.error)
        probes = probe_defects(lib, checks, workloads, args.workload, args.seed)
        done = [o for o in outcomes if o.error is None]
        durations = [o.seconds for o in outcomes]
        tail_s, tail_pct = tail(durations)
        values = {
            "setup_s": statistics.median(setup),
            "items_per_s": sum(items(o.call, o.output) for o in done) / busy,
            "call_p50_s": statistics.median(durations),
            "call_tail_s": tail_s,
            "peak_rss_mb": rss_mb,
        }
        units = declared_units("end_to_end")
        print(f"{attempted} calls in {cycles} cycle(s), {busy:.2f} s inside the library; "
              f"item = {ITEM_UNIT[args.workload]}")
        print(f"setup_s: median of {len(setup)} fresh interpreters "
              + ", ".join(f"{t:.4f}" for t in setup))
        print(f"call_p50_s: median of {attempted} calls; call_tail_s: "
              f"p{tail_pct:.1f} of {attempted} calls")
        walls = [o.wall for o in outcomes]
        print(f"wall clock for comparison: p50 {statistics.median(walls):.4f} s, "
              f"tail {tail(walls)[0]:.4f} s, {sum(walls):.2f} s in total")
        print(f"err_max {graded[1]:.3e} (rel); failed_frac {failed / attempted:.4f}")

    ok, worst, failures, notes = graded
    print_failures("failed calls by type", failures, notes)
    probe_fail: dict = {}
    for p in probes:
        if p.error:
            kind = p.error.split(":", 1)[0]
            probe_fail[kind] = probe_fail.get(kind, 0) + 1
    if probes:
        print_failures(f"known-defect probe ({len(probes)} calls, not timed)", probe_fail,
                       [f"{p.call['id']} raised {p.error}" for p in probes if p.error])
    for name, value in values.items():
        print(f"  {name:45s} {value:.6g} {units[name]}")
    result = {
        "correct": bool(ok),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


def declared_units(section: str) -> dict:
    """Metric names and units as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


if __name__ == "__main__":
    sys.exit(main())
