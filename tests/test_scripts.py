"""The experiment scripts under scripts/ run to completion on small inputs."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script,args,first_line", [
    ("norming_decay.py", ["--n-max", "20", "--grid-size", "256"], "smooth q = cos x"),
    ("kseries_closed_form.py", ["--N", "40"],
     "q = constant(1.0), boundary case dirichlet-dirichlet"),
    ("search_budget.py", ["--seed", "9001"],
     f"{'call':44s} n_max    grid   count  sweeps  points  tail"),
    ("known_defects.py", ["--seeds", "9001"],
     f"{'call':16s} {'potential':28s}  alpha   beta n_max  grid  {'outcome':22s}   min norm"
     "  certificate"),
    ("code_lines.py", [], f"{'module':16s} {'lines':>6s} {'code':>6s}"),
])
def test_script_runs(script, args, first_line):
    proc = _run(script, *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.lstrip("\n").splitlines()[0] == first_line


def test_cli_audit_names_a_changed_table(tmp_path):
    before, after = tmp_path / "before", tmp_path / "after"
    proc = _run("cli_audit.py", "write", str(before), "--potential", "zero")
    assert proc.returncode == 0, proc.stderr
    tables = sorted(p.name for p in before.iterdir())
    # 4 angle pairs x spectrum, norming and kseries x CSV and JSON, and status.txt
    assert len(tables) == 25 and "zero.robin.norming.json" in tables
    assert _run("cli_audit.py", "diff", str(before), str(before)).returncode == 0
    shutil.copytree(before, after)
    changed = after / "zero.dd.spectrum.csv"
    text = changed.read_bytes()
    changed.write_bytes(text[:-2] + bytes([text[-2] ^ 1]) + text[-1:])
    proc = _run("cli_audit.py", "diff", str(before), str(after))
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[0] == "zero.dd.spectrum.csv: differs"


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env)
