"""The experiment scripts under scripts/ run to completion on small inputs."""

import os
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
     f"{'call':44s} n_max    grid   count  sweeps  points"),
    ("known_defects.py", ["--seeds", "9001"],
     f"{'call':16s} {'potential':28s}  alpha   beta n_max  grid  {'outcome':22s}   min norm"
     "  certificate"),
    ("code_lines.py", [], f"{'module':16s} {'lines':>6s} {'code':>6s}"),
])
def test_script_runs(script, args, first_line):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.lstrip("\n").splitlines()[0] == first_line
