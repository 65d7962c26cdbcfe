"""Summarise paired benchmark runs: parent against change, per workload and metric.

A BENCH file holds a list `runs`, one entry per perfbench run, with its
`workload`, `pair` number, `side` ("parent" or "change"), an optional
`set` (1 when absent), and the `correct`, `failed` and `metrics` of
perfbench/run.py's last line (the layout of BENCH_one_owner.json).  For
each set, workload and end-to-end metric of BENCHMARK.json, which it only
reads, the script prints the parent's median with its quartiles, the
change's median, the pairs the change won, and a status:

- "unresolved": the parent's interquartile range exceeds the metric's
  bound, relative to the parent's median, so the runs cannot resolve a
  change of that size;
- "worse than bound": the change's median is worse than the parent's by
  more than the bound;
- "within bound" otherwise.

A last line per set and workload counts the pairs, failed calls and
incorrect runs of each side.

    python scripts/bench_pairs.py BENCH_one_owner.json
"""

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values):
    """(q1, median, q3) by linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summary(runs, metric, bound, lower):
    """(parent q1, median, q3, change median, pairs won, pairs, status) of one metric."""
    parent = {r["pair"]: r["metrics"][metric] for r in runs if r["side"] == "parent"}
    change = {r["pair"]: r["metrics"][metric] for r in runs if r["side"] == "change"}
    q1, median, q3 = quartiles(sorted(parent.values()))
    change_median = statistics.median(change.values())
    pairs = sorted(parent.keys() & change.keys())
    won = sum((change[p] < parent[p]) if lower else (change[p] > parent[p]) for p in pairs)
    worse = (change_median / median - 1.0) if lower else (1.0 - change_median / median)
    if q3 - q1 > bound * abs(median):
        status = "unresolved"
    else:
        status = "worse than bound" if worse > bound else "within bound"
    return q1, median, q3, change_median, won, len(pairs), status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("file", type=Path, help="a BENCH_*.json file with a runs list")
    args = parser.parse_args(argv)
    runs = json.loads(args.file.read_text())["runs"]
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    groups = {}
    for run in runs:
        groups.setdefault((run.get("set", 1), run["workload"]), []).append(run)
    print(f"{'set':>3s} {'workload':10s} {'metric':12s} {'parent median [q1, q3]':>34s} "
          f"{'change':>10s} {'won':>6s}  status")
    for (number, workload), group in groups.items():
        for m in metrics:
            q1, median, q3, changed, won, pairs, status = summary(
                group, m["name"], m["bound"], m["better"] == "lower")
            parent = f"{median:.5g} [{q1:.5g}, {q3:.5g}]"
            print(f"{number:3d} {workload:10s} {m['name']:12s} {parent:>34s} {changed:10.5g} "
                  f"{f'{won}/{pairs}':>6s}  {status}")
    for (number, workload), group in groups.items():
        sides = [[r for r in group if r["side"] == side] for side in ("parent", "change")]
        failed = ", ".join(str(sum(r["failed"] for r in side)) for side in sides)
        wrong = ", ".join(str(sum(not r["correct"] for r in side)) for side in sides)
        print(f"set {number} {workload}: {len(sides[0])} parent and {len(sides[1])} change "
              f"runs; failed calls {failed}; incorrect runs {wrong}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
