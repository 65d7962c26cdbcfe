"""Write every output of the benchmark's workload calls, one file per workload and seed.

For each workload and seed the script runs the calls of cycles 0-2 of
perfbench/workloads.py, as perfbench/run.py makes them, and writes
OUT/<workload>.<seed>.txt: each call's id, then its outputs, floats as
repr, so that equal files mean equal bits.

- spectrum: every Eigenpair field of each pair, its DeltaValue's too;
- norming: every field of the input pairs (checks.norming_pairs, built
  from reference eigenvalues with delta_for_index) and of each
  NormingRecord;
- kseries: the case tag, N_list, a SHA-256 of the grid, of each k, k1
  and k2 row and of the closed form, and every field of the ac_diagnostic
  report.

A call that raises is written as its exception type and message.  The
script reads perfbench/ and changes nothing there.  A change that should
leave the workload outputs alone writes the set on both checkouts and
diffs them:

    PYTHONPATH=src python scripts/workload_outputs.py /tmp/after
    PYTHONPATH=path/to/parent/src python scripts/workload_outputs.py /tmp/before
    python scripts/cli_audit.py diff /tmp/before /tmp/after
"""

import argparse
import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np

import slspectra

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("spectrum", "norming", "kseries")
CYCLES = 3


def _fields(record) -> str:
    """Every field of a dataclass record as name=repr, nested records in braces."""
    values = ((f.name, getattr(record, f.name)) for f in dataclasses.fields(record))
    return " ".join(f"{name}={{{_fields(v)}}}" if dataclasses.is_dataclass(v) else f"{name}={v!r}"
                    for name, v in values)


def _sha(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=float).tobytes()).hexdigest()


def outputs(checks, workloads, call) -> list[str]:
    """The output lines of one workload call."""
    args = workloads.build(slspectra, call)
    q, bc = args["q"], args["bc"]
    kind = call["kind"]
    if kind == "spectrum":
        kw = {} if call["grid_size"] is None else {"grid_size": call["grid_size"]}
        return [_fields(p) for p in slspectra.find_spectrum(q, bc, call["n_max"], **kw).pairs]
    if kind.startswith("norming"):
        pairs = checks.norming_pairs(slspectra, call, bc)
        if kind == "norming_record":
            records = [slspectra.norming_record(q, bc, pairs[0])]
        else:
            records = slspectra.norming_records(q, bc, pairs)
        return [f"pair {_fields(p)}" for p in pairs] + [_fields(r) for r in records]
    result = slspectra.k_partial_sum(q, bc, call["N"])
    report = slspectra.ac_diagnostic(result.grid, result.k_partial, result.N_list,
                                     *call["segment"])
    lines = [f"case_tag={result.case_tag!r} N_list={result.N_list!r} grid {_sha(result.grid)}"]
    for name in ("k_partial", "k1_partial", "k2_partial"):
        lines += [f"{name}[{N}] {_sha(row)}"
                  for N, row in zip(result.N_list, getattr(result, name))]
    closed = result.closed_form
    lines.append(f"closed_form {None if closed is None else _sha(closed)}")
    return lines + [_fields(report)]


def write(out: Path, seeds) -> None:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import checks
    import workloads

    out.mkdir(parents=True, exist_ok=True)
    for workload in WORKLOADS:
        for seed in seeds:
            lines = []
            for index in range(CYCLES):
                for call in workloads.cycle(workload, seed, index):
                    try:
                        body = outputs(checks, workloads, call)
                    except Exception as exc:  # the file records it and the run goes on
                        body = [f"raised {type(exc).__name__}: {exc}"]
                    lines += [call["id"], *(f"  {line}" for line in body)]
            (out / f"{workload}.{seed}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="directory for the output files")
    parser.add_argument("--seeds", type=int, nargs="+", default=[9001, 9002, 9003],
                        help="workload seeds (default: 9001 9002 9003)")
    args = parser.parse_args()
    write(args.out, args.seeds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
