"""Write the CLI audit tables, or name the files that differ between two sets.

The audit set runs `spectrum` and `norming` at n_max 120 and `kseries` at
N 400, in CSV and JSON, on 7 potentials at NN, DD, (2.3, 0.6) and
(0.7, 2.9): 168 tables.  `write` runs them in-process through
slspectra.cli.main and keeps each run's stdout as one file, and its exit
code and stderr as one line of status.txt.  It also runs the CLI's 8
error paths (an index of `spectrum` or `delta`, a grid size, truncation
or index range out of range, a bad --segment, a repeated verify
criterion and an unwritable --out) and
keeps each run's exit code, stdout and stderr, or the exception that
escaped main, as one error.*.txt file.  `diff` names every file that
differs between two such directories or is missing from one, and exits 1
if there is one.  A change that should leave the CLI output alone writes
the set on both checkouts and diffs them:

    PYTHONPATH=src python scripts/cli_audit.py write /tmp/after
    PYTHONPATH=path/to/parent/src python scripts/cli_audit.py write /tmp/before
    python scripts/cli_audit.py diff /tmp/before /tmp/after
"""

import argparse
import contextlib
import io
import json
import math
import sys
from pathlib import Path

PI = math.pi
XS = [PI * i / 12 for i in range(13)]
# the CLI's JSON potential specs
POTENTIALS = {
    "zero": {"kind": "named", "name": "zero"},
    "constant": {"kind": "named", "name": "constant", "params": [1.7]},
    "step": {"kind": "named", "name": "step", "params": [2.0, PI / 2]},
    "step-negative": {"kind": "named", "name": "step", "params": [-1.5, 1.3]},
    "step-offset": {"kind": "named", "name": "step", "params": [2.0, 1.0], "offset": 0.5},
    "smooth": {"kind": "named", "name": "smooth-test", "params": [1.0, -0.5]},
    "grid": {"kind": "grid", "xs": XS, "qs": [math.sin(2.0 * x) + x / 3.0 for x in XS]},
}
ANGLES = {"nn": ("pi/2", "pi/2"), "dd": ("pi", "0"), "robin": ("2.3", "0.6"),
          "mixed": ("0.7", "2.9")}
COMMANDS = {"spectrum": ["--n-max", "120"], "norming": ["--n-max", "120"],
            "kseries": ["--N", "400"]}
STATUS = "status.txt"
ZERO = json.dumps(POTENTIALS["zero"])
# file name: argv of each error-path run; "--out ." names a directory
ERROR_RUNS = {
    "error.n-max-301.txt": ["spectrum", "--potential", ZERO, "--alpha", "pi/2", "--beta", "pi/2",
                            "--n-max", "301"],
    "error.grid-size-32.txt": ["spectrum", "--potential", ZERO, "--alpha", "pi/2",
                               "--beta", "pi/2", "--grid-size", "32"],
    "error.N-1.txt": ["kseries", "--potential", ZERO, "--alpha", "pi", "--beta", "0", "--N", "1"],
    "error.n-min-above-n-max.txt": ["spectrum", "--potential", ZERO, "--alpha", "pi/2",
                                    "--beta", "pi/2", "--n-min", "5", "--n-max", "3"],
    "error.segment.txt": ["kseries", "--potential", ZERO, "--alpha", "pi", "--beta", "0",
                          "--segment", "1"],
    "error.criteria-7-7.txt": ["verify", "--criteria", "7,7"],
    "error.out-unwritable.txt": ["delta", "--alpha", "pi/2", "--beta", "pi/2", "--out", "."],
    "error.delta-n-max-301.txt": ["delta", "--alpha", "pi/2", "--beta", "pi/3", "--n-max", "301"],
}


def runs(names):
    """(file name, argv) of every audit run on the named potentials."""
    for name in names:
        spec = json.dumps(POTENTIALS[name])
        for angles, (alpha, beta) in ANGLES.items():
            for command, extra in COMMANDS.items():
                for fmt in ("csv", "json"):
                    yield (f"{name}.{angles}.{command}.{fmt}",
                           [command, "--potential", spec, "--alpha", alpha, "--beta", beta,
                            *extra, "--format", fmt])


def run(argv):
    """Exit code, stdout and stderr of one in-process CLI run.

    An exception that escapes main is recorded as the exit code, by its
    type and message, so that the other runs still go ahead.
    """
    from slspectra import cli  # only writing needs the library

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except Exception as exc:
            code = f"raised {type(exc).__name__}: {exc}"
    return code, stdout.getvalue(), stderr.getvalue()


def write(out: Path, names) -> int:
    out.mkdir(parents=True, exist_ok=True)
    status = []
    for filename, argv in runs(names):
        code, stdout, stderr = run(argv)
        (out / filename).write_text(stdout, encoding="utf-8")
        status.append(f"{filename} exit={code} stderr={stderr!r}\n")
    (out / STATUS).write_text("".join(status), encoding="utf-8")
    for filename, argv in ERROR_RUNS.items():
        code, stdout, stderr = run(argv)
        (out / filename).write_text(f"exit={code}\nstdout={stdout!r}\nstderr={stderr!r}\n",
                                    encoding="utf-8")
    return 0


def diff(a: Path, b: Path) -> int:
    names = sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()})
    differ = 0
    for name in names:
        left, right = a / name, b / name
        if not left.exists() or not right.exists():
            print(f"{name}: missing from {b if left.exists() else a}")
        elif left.read_bytes() != right.read_bytes():
            print(f"{name}: differs")
        else:
            continue
        differ += 1
    print(f"{differ} of {len(names)} files differ or are missing")
    return 1 if differ else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("write", help="write the audit tables and status.txt into OUT")
    p.add_argument("out", type=Path)
    p.add_argument("--potential", action="append", choices=sorted(POTENTIALS),
                   help="only this potential (repeatable; default: all 7)")
    p = sub.add_parser("diff", help="name the files that differ between A and B")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    args = parser.parse_args()
    if args.command == "write":
        return write(args.out, args.potential or list(POTENTIALS))
    return diff(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
