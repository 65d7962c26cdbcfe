"""Command-line front end: batch computations emitting CSV or JSON tables.

Commands
    spectrum   per-index eigendata rows
    norming    measured and modelled norming constants
    delta      index shift, fixed point versus closed form
    kseries    series partial sums on a grid plus the stability report
    verify     the named acceptance checks, one PASS/FAIL line each

Angles accept decimals or the literals "pi", "pi/2", "pi/3", "pi/4",
"3pi/4" (any "Kpi/M" form parses), since the boundary archetypes are
sensitive to exact multiples of pi.  Potentials are inline JSON or a path
to a JSON file.  CSV floats carry 15 significant digits and rows are
emitted in index order, so identical configurations produce byte-identical
output; JSON output round-trips exactly.

Exit codes: 0 success, 1 computational failure (one diagnostic line naming
the failing operation), 2 configuration errors, an invalid value or an
--out path that cannot be written among them.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

from .delta import _shifts, delta_asymptotic
from .errors import SpectralError
from .kseries import ac_diagnostic, k_partial_sum
from .norming import norming_records
from .odesolve import DEFAULT_GRID_SIZE
from .potential import BoundaryParams, Potential, _whole, mean_q
from .spectrum import DEFAULT_ROOT_TOL, MAX_INDEX, find_spectrum
from .verification import CRITERIA, run_verification

_PI_LITERAL = re.compile(r"^(\d*)\s*pi\s*(?:/\s*(\d+))?$")


class ConfigError(Exception):
    """Invalid command-line configuration."""


def parse_angle(text: str) -> float:
    """A decimal angle or an exact multiple of pi like 'pi/2' or '3pi/4'."""
    s = text.strip().lower()
    m = _PI_LITERAL.match(s)
    if m:
        num = int(m.group(1)) if m.group(1) else 1
        den = int(m.group(2)) if m.group(2) else 1
        if den == 0:
            raise ConfigError(f"invalid angle {text!r}")
        return num * math.pi / den
    try:
        return float(s)
    except ValueError as exc:
        raise ConfigError(f"invalid angle {text!r}") from exc


def load_potential(spec: str) -> Potential:
    """Inline JSON or a path to a JSON file."""
    text = spec.strip()
    if not text.startswith("{"):
        try:
            with open(text, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read potential file {spec!r}: {exc}") from exc
    try:
        return Potential.from_json(text)
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        raise ConfigError(f"invalid potential spec: {exc}") from exc


def _boundary(args) -> BoundaryParams:
    return BoundaryParams(parse_angle(args.alpha), parse_angle(args.beta))


def _fmt(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return f"{value:.15g}"
    return str(value)


def _emit_table(columns, rows, args, extra: dict | None = None):
    if args.format == "csv":
        lines = [",".join(columns)]
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
        if extra:
            for key, val in extra.items():
                print(f"{key}: {val}", file=sys.stderr)
    else:
        payload = {"columns": list(columns),
                   "rows": [list(row) for row in rows]}
        if extra:
            payload.update(extra)
        text = json.dumps(payload) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_spectrum(args) -> int:
    bc = _boundary(args)
    q = load_potential(args.potential)
    _check_range(args)
    spec = find_spectrum(q, bc, args.n_max, tol=args.tol, grid_size=args.grid_size)
    mq = mean_q(q)
    columns = ["n", "delta_n", "mu_n", "lambda_n", "residual", "mu_negative",
               "delta_extrapolated"]
    rows = []
    for p in spec.pairs[args.n_min:]:
        nu = p.n + p.delta.value
        residual = p.mu - nu * nu - mq
        lam = p.lam if not p.mu_negative else -p.lam
        rows.append((p.n, p.delta.value, p.mu, lam, residual,
                     int(p.mu_negative), int(p.delta.extrapolated)))
    _emit_table(columns, rows, args)
    return 0


def _cmd_norming(args) -> int:
    bc = _boundary(args)
    q = load_potential(args.potential)
    _check_range(args)
    spec = find_spectrum(q, bc, args.n_max, tol=args.tol, grid_size=args.grid_size)
    records = norming_records(q, bc, spec, grid_size=args.grid_size)
    columns = ["n", "a_n", "b_n", "ae_n", "model_a", "defect", "n2_defect"]
    rows = []
    for rec in records[args.n_min:]:
        defect = rec.a_n - rec.model_a
        rows.append((rec.n, rec.a_n, rec.b_n, rec.ae_n, rec.model_a,
                     defect, rec.n * rec.n * defect))
    _emit_table(columns, rows, args)
    return 0


def _cmd_delta(args) -> int:
    bc = _boundary(args)
    _check_range(args)
    columns = ["n", "delta_fixed_point", "delta_asymptotic", "difference"]
    ns = range(args.n_min, _whole(args.n_max, "n_max", 0, MAX_INDEX) + 1)
    rows = []
    for n, value in zip(ns, _shifts(ns, bc)[0].tolist()):
        asym = delta_asymptotic(max(n, 1), bc)
        rows.append((n, value, asym, value - asym))
    _emit_table(columns, rows, args)
    return 0


def _cmd_kseries(args) -> int:
    bc = _boundary(args)
    q = load_potential(args.potential)
    seg = args.segment.split(",")
    if len(seg) != 2:
        raise ConfigError("--segment expects 'a,b'")
    a, b = (float(seg[0]), float(seg[1]))
    if not (0.0 < a < b < 2.0 * math.pi):
        raise ConfigError(f"segment must satisfy 0 < a < b < 2 pi, got [{a}, {b}]")
    res = k_partial_sum(q, bc, args.N)
    report = ac_diagnostic(res.grid, res.k_partial, res.N_list, a, b)
    columns = ["x", "k", "k1", "k2"]
    cols = [res.grid, res.k_partial[-1], res.k1_partial[-1], res.k2_partial[-1]]
    if res.closed_form is not None:
        columns.append("closed_form")
        cols.append(res.closed_form)
    rows = [tuple(float(c[i]) for c in cols) for i in range(res.grid.size)]
    extra = {
        "case": res.case_tag,
        "truncations": list(res.N_list),
        "segment": [a, b],
        "total_variation": list(report.variations),
        "tv_stability": report.tv_stability,
        "max_jump": report.max_jump,
    }
    _emit_table(columns, rows, args, extra=extra)
    return 0


def _cmd_verify(args) -> int:
    numbers = None
    if args.criteria is not None:
        known = {num for num, _, _ in CRITERIA}
        numbers = []
        for tok in args.criteria.split(","):
            try:
                n = int(tok)
            except ValueError as exc:
                raise ConfigError(f"criteria must be integers, got {tok!r}") from exc
            if n not in known:
                raise ConfigError(f"no criterion numbered {n}")
            if n not in numbers:
                numbers.append(n)
    results = run_verification(numbers=numbers)
    return 0 if all(r.passed for r in results) else 1


def _check_range(args) -> None:
    if args.n_min < 0 or args.n_max < args.n_min:
        raise ConfigError(f"need 0 <= n-min <= n-max, got [{args.n_min}, {args.n_max}]")


def _add_common(parser, potential=True, solver=True):
    """Angles and output flags; --potential and the solver's --tol and --grid-size."""
    if potential:
        parser.add_argument("--potential", required=True,
                            help="inline JSON or path to a JSON potential spec")
    parser.add_argument("--alpha", required=True, help="left boundary angle, (0, pi]")
    parser.add_argument("--beta", required=True, help="right boundary angle, [0, pi)")
    if solver:
        parser.add_argument("--tol", type=float, default=DEFAULT_ROOT_TOL)
        parser.add_argument("--grid-size", type=int, default=DEFAULT_GRID_SIZE)
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slspectra",
        description="Eigenvalues, norming constants, and series diagnostics "
                    "for -y'' + q y = mu y on [0, pi].")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenvalues and index shifts")
    _add_common(p)
    p.add_argument("--n-min", type=int, default=0)
    p.add_argument("--n-max", type=int, default=30)
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("norming", help="norming constants and model defects")
    _add_common(p)
    p.add_argument("--n-min", type=int, default=0)
    p.add_argument("--n-max", type=int, default=30)
    p.set_defaults(fn=_cmd_norming)

    p = sub.add_parser("delta", help="index shift table")
    _add_common(p, potential=False, solver=False)
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=50)
    p.set_defaults(fn=_cmd_delta)

    p = sub.add_parser("kseries", help="series partial sums and stability report")
    _add_common(p, solver=False)
    p.add_argument("--N", type=int, default=100, help="largest truncation order")
    p.add_argument("--segment", default="0.5,5.783185307179586",
                   help="'a,b' segment for the variation report")
    p.set_defaults(fn=_cmd_kseries)

    p = sub.add_parser("verify", help="run the acceptance checks")
    p.add_argument("--criteria", default=None,
                   help="comma-separated criterion numbers, each run once (default: all)")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        return args.fn(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SpectralError as exc:
        print(f"error in {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
