"""The experiment scripts under scripts/ run to completion on small inputs."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# explicit ids, so that a change to a script's output does not rename its test
@pytest.mark.parametrize("script,args,first_line", [
    pytest.param("norming_decay.py", ["--n-max", "20", "--grid-size", "256"],
                 "smooth q = cos x", id="norming_decay"),
    pytest.param("kseries_closed_form.py", ["--N", "40"],
                 "q = constant(1.0), boundary case dirichlet-dirichlet", id="kseries_closed_form"),
    pytest.param("search_budget.py", ["--seed", "9001"],
                 f"{'call':44s} n_max    grid   count  sweeps  points  rounds  tail",
                 id="search_budget"),
    pytest.param("known_defects.py", ["--seeds", "9001"],
                 f"{'call':16s} {'potential':28s}  alpha   beta n_max  grid  {'outcome':22s}"
                 "   min norm  certificate", id="known_defects"),
    pytest.param("code_lines.py", [], f"{'module':16s} {'lines':>6s} {'code':>6s}",
                 id="code_lines"),
])
def test_script_runs(script, args, first_line):
    proc = _run(script, *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.lstrip("\n").splitlines()[0] == first_line


def test_search_budget_counts_rounds():
    # rounds: the _counts batches of each call, at least the first; the
    # total sums those of the workload rows
    lines = _run("search_budget.py", "--seed", "9001").stdout.splitlines()
    rows = [line[58:].split() for line in lines[1:-1]]
    rounds = [int(cells[3]) for cells in rows]
    assert min(rounds) >= 1 and rounds[0] == 1
    assert int(lines[-1].split()[-1]) == sum(rounds[4:])


def test_cli_audit_names_a_changed_table(tmp_path):
    before, after = tmp_path / "before", tmp_path / "after"
    proc = _run("cli_audit.py", "write", str(before), "--potential", "zero")
    assert proc.returncode == 0, proc.stderr
    tables = sorted(p.name for p in before.iterdir())
    # 4 angle pairs x spectrum, norming and kseries x CSV and JSON, status.txt
    # and the 8 error-path files
    assert len(tables) == 33 and "zero.robin.norming.json" in tables
    assert (before / "error.delta-n-max-301.txt").read_text() == (
        "exit=2\nstdout=''\nstderr='configuration error: n_max must lie in [0, 300], "
        "got 301\\n'\n")
    assert (before / "error.out-unwritable.txt").read_text() == (
        "exit=2\nstdout=''\nstderr=\"configuration error: [Errno 21] Is a directory: '.'\\n\"\n")
    assert _run("cli_audit.py", "diff", str(before), str(before)).returncode == 0
    shutil.copytree(before, after)
    changed = after / "zero.dd.spectrum.csv"
    text = changed.read_bytes()
    changed.write_bytes(text[:-2] + bytes([text[-2] ^ 1]) + text[-1:])
    proc = _run("cli_audit.py", "diff", str(before), str(after))
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[0] == "zero.dd.spectrum.csv: differs"


def test_workload_outputs_names_a_changed_file(tmp_path):
    # one seed: two runs of one tree write the same bytes, and cli_audit.py
    # diff names a file changed by one character
    first, second = tmp_path / "first", tmp_path / "second"
    for out in (first, second):
        proc = _run("workload_outputs.py", str(out), "--seeds", "9001")
        assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in first.iterdir()) == [
        "kseries.9001.txt", "norming.9001.txt", "spectrum.9001.txt"]
    # cycles 0-2: 11 spectrum calls per cycle, 10 norming and 10 kseries calls
    for name, calls in (("spectrum", 33), ("norming", 30), ("kseries", 30)):
        lines = (first / f"{name}.9001.txt").read_text().splitlines()
        ids = [line for line in lines if not line.startswith(" ")]
        assert ids[0] == f"{name}-9001-0-0" and len(ids) == calls
        assert not any("raised" in line for line in lines)
    assert _run("cli_audit.py", "diff", str(first), str(second)).returncode == 0
    changed = second / "norming.9001.txt"
    changed.write_text(changed.read_text().replace(" a_n=", " a_n=-", 1))
    proc = _run("cli_audit.py", "diff", str(first), str(second))
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[0] == "norming.9001.txt: differs"


def test_bench_pairs_statuses(tmp_path):
    # three pairs of one workload; each metric shows one status
    parent = {"setup_s": [1.0, 1.0, 1.0], "items_per_s": [100.0, 100.0, 100.0],
              "call_p50_s": [1.0, 2.0, 3.0], "call_tail_s": [1.0, 1.0, 1.0],
              "peak_rss_mb": [10.0, 10.0, 10.0]}
    change = {"setup_s": [1.0, 1.0, 1.0], "items_per_s": [50.0, 50.0, 50.0],
              "call_p50_s": [2.0, 2.0, 2.0], "call_tail_s": [0.9, 0.9, 1.1],
              "peak_rss_mb": [10.5, 10.5, 10.5]}
    runs = [{"workload": "spectrum", "pair": i + 1, "side": side, "correct": True,
             "failed": int(side == "change" and i == 0),
             "metrics": {name: values[i] for name, values in metrics.items()}}
            for i in range(3) for side, metrics in (("parent", parent), ("change", change))]
    bench = tmp_path / "BENCH_synthetic.json"
    bench.write_text(json.dumps({"runs": runs}))
    proc = _run("bench_pairs.py", str(bench))
    assert proc.returncode == 0, proc.stderr
    # set, workload, metric, parent median [q1, q3], change median, won, status
    rows = [line.split(None, 8) for line in proc.stdout.splitlines()[1:6]]
    assert [(row[2], row[7], row[8]) for row in rows] == [
        ("setup_s", "0/3", "within bound"), ("items_per_s", "0/3", "worse than bound"),
        ("call_p50_s", "1/3", "unresolved"), ("call_tail_s", "2/3", "within bound"),
        ("peak_rss_mb", "0/3", "within bound")]
    assert rows[2][3:7] == ["2", "[1.5,", "2.5]", "2"]
    assert proc.stdout.splitlines()[-1] == (
        "set 1 spectrum: 3 parent and 3 change runs; failed calls 0, 1; incorrect runs 0, 0")


def test_bench_pairs_gain(tmp_path):
    # ten pairs: a gain needs 9 wins, ties counting for neither, and a median
    # better than the parent's by more than the parent's interquartile range
    ten = [float(i) for i in range(10)]
    parent = {"setup_s": [1.0 + 0.1 * i for i in ten], "items_per_s": [100.0 + i for i in ten],
              "call_p50_s": [1.0] * 10, "call_tail_s": [1.0] * 10, "peak_rss_mb": [10.0] * 10}
    change = {"setup_s": [0.99 + 0.1 * i for i in ten],  # 10 wins, inside the IQR
              "items_per_s": [100.0] + [110.0 + i for i in ten[1:]],  # 9 wins and a tie
              "call_p50_s": [1.0] * 10,
              "call_tail_s": [0.5] * 8 + [1.0] * 2,  # 8 wins and two ties
              "peak_rss_mb": [10.0] * 10}
    runs = [{"workload": "norming", "pair": i + 1, "side": side, "correct": True, "failed": 0,
             "metrics": {name: values[i] for name, values in metrics.items()}}
            for i in range(10) for side, metrics in (("parent", parent), ("change", change))]
    bench = tmp_path / "BENCH_synthetic.json"
    bench.write_text(json.dumps({"runs": runs}))
    proc = _run("bench_pairs.py", str(bench))
    assert proc.returncode == 0, proc.stderr
    rows = [line.split(None, 8) for line in proc.stdout.splitlines()[1:6]]
    assert [(row[2], row[7], row[8]) for row in rows] == [
        ("setup_s", "10/10", "unresolved"), ("items_per_s", "9/10", "gain"),
        ("call_p50_s", "0/10", "within bound"), ("call_tail_s", "8/10", "within bound"),
        ("peak_rss_mb", "0/10", "within bound")]


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env)
