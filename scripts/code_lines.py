"""Count the physical and code lines of each module of src/slspectra.

A code line is a line that is not blank, not a comment alone, and not part
of a module, class or function docstring.  Prints one row per module and a
total row, so that a change can report its net line change by running this
on both trees:

    python scripts/code_lines.py --root path/to/other/checkout
"""

import argparse
import ast
from pathlib import Path


def count_lines(source: str) -> tuple[int, int]:
    """(physical lines, code lines) of one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = source.splitlines()
    code = sum(1 for number, line in enumerate(lines, start=1)
               if line.strip() and not line.lstrip().startswith("#") and number not in docstrings)
    return len(lines), code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/slspectra is counted (default: this one)")
    args = parser.parse_args()
    modules = sorted((args.root / "src" / "slspectra").glob("*.py"))
    if not modules:
        parser.error(f"no modules under {args.root / 'src' / 'slspectra'}")
    print(f"{'module':16s} {'lines':>6s} {'code':>6s}")
    total_lines = total_code = 0
    for path in modules:
        lines, code = count_lines(path.read_text())
        total_lines += lines
        total_code += code
        print(f"{path.name:16s} {lines:6d} {code:6d}")
    print(f"{'total':16s} {total_lines:6d} {total_code:6d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
