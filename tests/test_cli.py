import argparse
import csv
import io
import json
import math
import subprocess
import sys

import pytest

import slspectra
from slspectra import ae_n, verification
from slspectra.cli import build_parser, main, parse_angle
from slspectra.odesolve import DEFAULT_GRID_SIZE
from slspectra.spectrum import DEFAULT_ROOT_TOL

PI = math.pi

CONST_ONE = '{"kind":"named","name":"constant","params":[1.0]}'
ZERO = '{"kind":"named","name":"zero","params":[]}'
STEP = '{"kind":"named","name":"step","params":[2.0,1.5707963267948966]}'


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    return rows


class TestAngleParsing:
    @pytest.mark.parametrize("text,value", [
        ("pi", PI), ("pi/2", PI / 2), ("pi/3", PI / 3), ("pi/4", PI / 4),
        ("3pi/4", 3 * PI / 4), ("2pi/3", 2 * PI / 3), ("1.25", 1.25), ("0", 0.0),
    ])
    def test_literals(self, text, value):
        assert parse_angle(text) == pytest.approx(value, abs=0.0)

    def test_invalid(self, capsys):
        code, _, err = run_cli(["delta", "--alpha", "pie", "--beta", "0"], capsys)
        assert code == 2
        assert "configuration error" in err

    @pytest.mark.parametrize("alpha,message", [
        ("pi/0", "invalid angle 'pi/0'"), ("4", "alpha must lie in (0, pi], got 4.0"),
    ])
    def test_rejected_angles(self, capsys, alpha, message):
        code, _, err = run_cli(["delta", "--alpha", alpha, "--beta", "0"], capsys)
        assert code == 2
        assert err == f"configuration error: {message}\n"


class TestSpectrumCommand:
    def test_free_dirichlet_table(self, capsys):
        code, out, _ = run_cli([
            "spectrum", "--potential", ZERO, "--alpha", "pi", "--beta", "0",
            "--n-min", "0", "--n-max", "5", "--grid-size", "1024"], capsys)
        assert code == 0
        rows = parse_csv(out)
        assert [r["n"] for r in rows] == ["0", "1", "2", "3", "4", "5"]
        for r in rows:
            n = int(r["n"])
            assert float(r["mu_n"]) == pytest.approx((n + 1) ** 2, abs=1e-8)
            assert float(r["lambda_n"]) == pytest.approx(n + 1, abs=1e-9)

    def test_determinism(self, capsys):
        args = ["spectrum", "--potential", CONST_ONE, "--alpha", "pi/2",
                "--beta", "pi/2", "--n-max", "4", "--grid-size", "512"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

    def test_file_output(self, capsys, tmp_path):
        out_path = tmp_path / "spec.csv"
        code, out, _ = run_cli([
            "spectrum", "--potential", ZERO, "--alpha", "pi", "--beta", "0",
            "--n-max", "2", "--grid-size", "512", "--out", str(out_path)], capsys)
        assert code == 0 and out == ""
        rows = parse_csv(out_path.read_text())
        assert len(rows) == 3

    def test_bad_range(self, capsys):
        code, _, err = run_cli([
            "spectrum", "--potential", ZERO, "--alpha", "pi", "--beta", "0",
            "--n-min", "5", "--n-max", "2"], capsys)
        assert code == 2

    def test_index_range_is_a_configuration_error(self, capsys):
        # the library's ValueError reaches main, which exits 2
        code, out, err = run_cli([
            "spectrum", "--potential", ZERO, "--alpha", "pi", "--beta", "0",
            "--n-max", "301"], capsys)
        assert (code, out) == (2, "")
        assert err == "configuration error: n_max must lie in [0, 300], got 301\n"

    @pytest.mark.parametrize("command", ["spectrum", "norming"])
    def test_non_finite_tol_rejected(self, capsys, command):
        code, out, err = run_cli([
            command, "--potential", STEP, "--alpha", "pi/2", "--beta", "pi/2",
            "--tol", "inf"], capsys)
        assert (code, out) == (2, "")
        assert err == "configuration error: tol must be finite and positive\n"

    def test_computational_error_exit_code(self, capsys):
        code, _, err = run_cli([
            "spectrum", "--potential", '{"kind":"named","name":"constant","params":[-30.0]}',
            "--alpha", "pi/2", "--beta", "pi/2", "--n-max", "3",
            "--grid-size", "512"], capsys)
        assert code == 1
        assert "error in spectrum" in err


class TestNormingCommand:
    def test_correction_column_oracle(self, capsys):
        code, out, _ = run_cli([
            "norming", "--potential", CONST_ONE, "--alpha", "pi/2", "--beta", "pi/2",
            "--n-min", "2", "--n-max", "12", "--grid-size", "1024"], capsys)
        assert code == 0
        for r in parse_csv(out):
            n = int(r["n"])
            assert float(r["ae_n"]) == pytest.approx(-PI / (4 * n), abs=1e-8)

    def test_model_cells_are_nan_below_index_two(self, capsys):
        code, out, _ = run_cli([
            "norming", "--potential", CONST_ONE, "--alpha", "pi/2", "--beta", "pi/2",
            "--n-max", "2"], capsys)
        assert code == 0
        rows = parse_csv(out)
        for r in rows[:2]:
            assert [r[c] for c in ("ae_n", "model_a", "defect", "n2_defect")] == ["nan"] * 4
            assert float(r["a_n"]) > 0.0
        assert "nan" not in rows[2].values()


class TestDeltaCommand:
    def test_dirichlet_column_is_one(self, capsys):
        code, out, _ = run_cli([
            "delta", "--alpha", "pi", "--beta", "0", "--n-min", "2", "--n-max", "40"],
            capsys)
        assert code == 0
        for r in parse_csv(out):
            assert float(r["delta_fixed_point"]) == 1.0
            assert float(r["difference"]) == 0.0

    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_unwritable_out_is_a_configuration_error(self, capsys, tmp_path, target):
        # open's OSError used to escape main as a traceback with exit 1
        path = tmp_path / "missing" / "x.csv" if target == "missing-dir" else tmp_path
        code, out, err = run_cli([
            "delta", "--alpha", "pi/2", "--beta", "pi/2", "--n-max", "3", "--out", str(path)],
            capsys)
        assert (code, out) == (2, "")
        assert err.startswith("configuration error: [Errno ") and err.endswith(f"'{path}'\n")
        assert err.count("\n") == 1

    def test_index_range_is_a_configuration_error(self, capsys):
        code, out, err = run_cli(["delta", "--alpha", "pi/2", "--beta", "pi/3",
                                  "--n-max", "301"], capsys)
        assert code == 2 and out == ""
        assert err == "configuration error: n_max must lie in [0, 300], got 301\n"
        code, out, _ = run_cli(["delta", "--alpha", "pi/2", "--beta", "pi/3",
                                "--n-min", "300", "--n-max", "300"], capsys)
        assert code == 0 and out.splitlines()[1].startswith("300,")

    def test_needs_no_potential(self, capsys):
        code, out, _ = run_cli(["delta", "--alpha", "pi/4", "--beta", "pi/2",
                                "--n-min", "5", "--n-max", "5"], capsys)
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["delta_fixed_point"]) == pytest.approx(-1 / (5 * PI), abs=1e-3)


    @pytest.mark.parametrize("alpha,beta", [("pi/3", "pi/4"), ("0.3", "2.9")])
    def test_fixed_point_column_equals_spectrum_shift(self, capsys, alpha, beta):
        angles = ["--alpha", alpha, "--beta", beta, "--n-min", "0", "--n-max", "40"]
        code, out, _ = run_cli(["delta", *angles], capsys)
        assert code == 0
        shifts = [r["delta_fixed_point"] for r in parse_csv(out)]
        code, out, _ = run_cli(["spectrum", "--potential", ZERO, *angles], capsys)
        assert code == 0
        assert shifts == [r["delta_n"] for r in parse_csv(out)]


class TestKseriesCommand:
    def test_json_split_identity(self, capsys):
        code, out, _ = run_cli([
            "kseries", "--potential", CONST_ONE, "--alpha", "pi", "--beta", "0",
            "--N", "12", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["columns"] == ["x", "k", "k1", "k2", "closed_form"]
        assert payload["case"] == "dirichlet-dirichlet"
        for row in payload["rows"][::97]:
            x, k, k1, k2, _ = row
            assert k == pytest.approx(k1 + k2, abs=1e-8)
        assert payload["tv_stability"] >= 0.0

    def test_csv_report_on_stderr(self, capsys):
        code, out, err = run_cli([
            "kseries", "--potential", CONST_ONE, "--alpha", "pi", "--beta", "0",
            "--N", "8"], capsys)
        assert code == 0
        assert out.startswith("x,k,k1,k2,closed_form\n")
        report = dict(line.split(": ", 1) for line in err.splitlines())
        assert list(report) == ["case", "truncations", "segment", "total_variation",
                                "tv_stability", "max_jump"]
        assert report["case"] == "dirichlet-dirichlet"
        assert report["truncations"] == "[2, 4, 8]"

    def test_json_round_trip_exact(self, capsys):
        args = ["kseries", "--potential", CONST_ONE, "--alpha", "pi", "--beta", "0",
                "--N", "8", "--format", "json"]
        _, out1, _ = run_cli(args, capsys)
        payload = json.loads(out1)
        assert json.dumps(payload) + "\n" == out1

    def test_invalid_case_exit(self, capsys):
        code, _, err = run_cli([
            "kseries", "--potential", CONST_ONE, "--alpha", "pi", "--beta", "pi/3",
            "--N", "8"], capsys)
        assert code == 1
        assert "error in kseries" in err

    def test_no_tolerance_flag(self, capsys):
        # the series coefficients come from an exact moment rule and the index
        # shift from a fixed point solved to its own tolerance: neither reads a
        # root tolerance or a mesh; spectrum keeps --tol and --grid-size
        angles = ["--alpha", "pi", "--beta", "0"]
        for args, flag in ((["kseries", "--potential", CONST_ONE, "--N", "8"], "--tol"),
                           (["kseries", "--potential", CONST_ONE, "--N", "8"], "--grid-size"),
                           (["delta", "--n-max", "3"], "--tol"),
                           (["delta", "--n-max", "3"], "--grid-size")):
            code, _, err = run_cli([*args, *angles, flag, "7"], capsys)
            assert code == 2
            assert f"unrecognized arguments: {flag}" in err
        code, _, _ = run_cli(["spectrum", "--potential", CONST_ONE, *angles, "--n-max", "2",
                              "--tol", "1e-8", "--grid-size", "256"], capsys)
        assert code == 0

    def test_bad_segment(self, capsys):
        code, _, _ = run_cli([
            "kseries", "--potential", CONST_ONE, "--alpha", "pi", "--beta", "0",
            "--N", "8", "--segment", "5,1"], capsys)
        assert code == 2

    def test_segment_needs_two_ends(self, capsys):
        code, _, err = run_cli([
            "kseries", "--potential", CONST_ONE, "--alpha", "pi", "--beta", "0",
            "--N", "8", "--segment", "1"], capsys)
        assert code == 2
        assert err == "configuration error: --segment expects 'a,b'\n"


class TestVerifyCommand:
    def test_single_criterion(self, capsys):
        code, out, _ = run_cli(["verify", "--criteria", "7"], capsys)
        assert code == 0
        assert "PASS criterion 07" in out

    def test_repeated_criterion_runs_once(self, capsys):
        # a repeated number used to run its criterion again and count twice
        code, out, _ = run_cli(["verify", "--criteria", "7,4,7"], capsys)
        assert code == 0
        assert [line[:19] for line in out.splitlines()] == [
            "PASS criterion 07 c", "PASS criterion 04 i", "done: 2 criteria, 0"]

    def test_unknown_criterion(self, capsys):
        code, _, err = run_cli(["verify", "--criteria", "99"], capsys)
        assert code == 2

    def test_criteria_must_be_integers(self, capsys):
        code, out, err = run_cli(["verify", "--criteria", "7,x"], capsys)
        assert (code, out) == (2, "")
        assert err == "configuration error: criteria must be integers, got 'x'\n"

    @pytest.mark.parametrize("criteria", ["", ","], ids=["empty", "comma"])
    def test_empty_criteria_refused(self, capsys, criteria):
        # an empty list is not an absent flag: it used to run all 13 criteria
        code, out, err = run_cli(["verify", "--criteria", criteria], capsys)
        assert (code, out) == (2, "")
        assert err == "configuration error: criteria must be integers, got ''\n"

    def test_perturbed_correction_fails_criterion_07(self, capsys, monkeypatch):
        # criterion 07 holds ae_n to 1e-8 of its closed form: an error of
        # 1e-7 in the correction integral must turn it red
        monkeypatch.setattr(verification, "ae_n",
                            lambda q, deltas, ns: ae_n(q, deltas, ns) + 1e-7)
        code, out, _ = run_cli(["verify", "--criteria", "7"], capsys)
        assert code == 1
        assert out.startswith("FAIL criterion 07 correction-integral-oracle: max defect ")

    @pytest.mark.parametrize("flag", [["--override", "c6_window_factor=1.0"],
                                      ["--tol", "1e-6"], ["--grid-size", "64"]],
                             ids=["override", "tol", "grid-size"])
    def test_bounds_and_mesh_are_not_settable(self, capsys, flag):
        code, out, err = run_cli(["verify", "--criteria", "6", *flag], capsys)
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {flag[0]}" in err


def test_verify_states_one_known_failure():
    # the whole suite at its fixed bounds: only criterion 06 fails (README)
    proc = subprocess.run([sys.executable, "-m", "slspectra", "verify"],
                          capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    assert proc.returncode == 1
    fails = [line for line in lines if line.startswith("FAIL ")]
    assert len(fails) == 1 and fails[0].startswith("FAIL criterion 06 rough-potential-model: ")
    assert lines[-1] == "done: 13 criteria, 1 failures"


class TestPotentialLoading:
    def test_from_file(self, capsys, tmp_path):
        path = tmp_path / "q.json"
        path.write_text(CONST_ONE)
        code, out, _ = run_cli([
            "spectrum", "--potential", str(path), "--alpha", "pi", "--beta", "0",
            "--n-max", "1", "--grid-size", "512"], capsys)
        assert code == 0

    def test_missing_file(self, capsys):
        code, _, err = run_cli([
            "spectrum", "--potential", "/nonexistent.json", "--alpha", "pi",
            "--beta", "0"], capsys)
        assert code == 2

    def test_bad_json(self, capsys):
        code, _, err = run_cli([
            "spectrum", "--potential", '{"kind":"named","name":"wat"}',
            "--alpha", "pi", "--beta", "0"], capsys)
        assert code == 2

    @pytest.mark.parametrize("params", ['"12"', "5"])
    def test_params_must_be_an_array(self, capsys, params):
        code, _, err = run_cli([
            "spectrum", "--potential", f'{{"kind":"named","name":"step","params":{params}}}',
            "--alpha", "pi", "--beta", "0", "--n-max", "1", "--grid-size", "256"], capsys)
        assert code == 2
        assert "'params' must be an array" in err

    @pytest.mark.parametrize("spec", [
        '"name":"constant","params":[[1]]', '"name":"constant","params":["1"]',
        '"name":"constant","params":[true]', '"name":"constant","params":[1],"offset":[1]',
        '"name":"constant","params":[1],"offset":"1"',
        '"name":"constant","params":[1' + 400 * '0' + ']',
    ], ids=["nested", "string", "bool", "offset-array", "offset-string", "overflow"])
    def test_entries_must_be_numbers(self, capsys, spec):
        code, _, err = run_cli([
            "spectrum", "--potential", f'{{"kind":"named",{spec}}}',
            "--alpha", "pi", "--beta", "0", "--n-max", "1", "--grid-size", "256"], capsys)
        assert code == 2
        assert "must be a number" in err or "out of range" in err


def test_option_surface():
    # every flag a command accepts is one it reads
    solver = {"--potential", "--tol", "--grid-size"}
    table = {"-h", "--help", "--alpha", "--beta", "--out", "--format"}
    expected = {
        "spectrum": table | solver | {"--n-min", "--n-max"},
        "norming": table | solver | {"--n-min", "--n-max"},
        "delta": table | {"--n-min", "--n-max"},
        "kseries": table | {"--potential", "--N", "--segment"},
        "verify": {"-h", "--help", "--criteria"},
    }
    parser = build_parser()
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {name: {opt for a in sub._actions for opt in a.option_strings}
             for name, sub in commands.choices.items()}
    assert flags == expected
    # the solver flags default to the library's own defaults
    for name in ("spectrum", "norming"):
        args = commands.choices[name]
        assert args.get_default("tol") == DEFAULT_ROOT_TOL
        assert args.get_default("grid_size") == DEFAULT_GRID_SIZE


def test_public_surface():
    expected = [
        "ACReport", "BlowUpError", "BoundaryParams", "BracketError", "CaseError",
        "ConvergenceError", "CumulativeIntegrals", "DeltaValue", "Eigenpair",
        "KSeriesResult", "NormingRecord", "PicardResult", "Potential", "QuadratureError",
        "SolutionTrace", "SpectralError", "Spectrum", "UnsupportedRegimeError",
        "ac_diagnostic", "ae_n", "ae_tilde_n", "case_tag", "char_function",
        "char_function_right", "delta_asymptotic", "delta_for_index",
        "extract_remainders", "find_eigenvalue", "find_spectrum", "integrate",
        "k2_closed_form_dd", "k_partial_sum", "kernel_A", "mean_q", "model_a", "model_b",
        "norming_record", "norming_records", "phi", "picard_y2", "psi",
        "series_coefficients", "sigma_functions", "sin_two_pi", "solve_delta", "solve_ivp",
    ]
    assert sorted(slspectra.__all__) == expected
    assert all(hasattr(slspectra, name) for name in expected)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "slspectra", "delta", "--alpha", "pi", "--beta", "0",
         "--n-min", "2", "--n-max", "3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("n,delta_fixed_point")


def test_no_numpy_ma_import():
    # np.unique and np.setdiff1d import numpy.ma on their first call (about
    # 15 ms per process); no library path or CLI command may need it
    script = "\n".join([
        "import contextlib, io, math, sys",
        "from slspectra import (BoundaryParams, Potential, find_spectrum, k_partial_sum,",
        "                       norming_records)",
        "from slspectra.cli import main",
        "q, bc = Potential.step(2.0, 1.0), BoundaryParams(2.3, 0.6)",
        "norming_records(q, bc, find_spectrum(q, bc, n_max=20))",
        "k_partial_sum(q, BoundaryParams(math.pi, 0.0), 50)",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert main(['spectrum', '--potential', '{\"kind\": \"named\", \"name\": \"step\","
        " \"params\": [2, 1]}', '--alpha', 'pi/2', '--beta', 'pi/2', '--n-max', '10']) == 0",
        "print('numpy.ma' in sys.modules)",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
