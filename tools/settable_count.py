"""Count the settable values of the ``tailbayes`` package, and its lines.

    python tools/settable_count.py [--src path/to/src]

A settable value is a function parameter with a default, or a field with
a default in a ``@dataclass`` class, found by walking the AST of every
module under ``src/tailbayes``.  The script prints each one as
``module:line  name``, then the total, then ``wc -l`` of ``src/tailbayes``
and ``tests/`` next to it.  A change that deletes a knob shows as a lower
total; one that adds an option, flag or field as a higher one.
"""

from __future__ import annotations

import argparse
import ast
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if (isinstance(target, ast.Name) and target.id == "dataclass") or (
            isinstance(target, ast.Attribute) and target.attr == "dataclass"
        ):
            return True
    return False


def settable_values(path: Path) -> list[tuple[int, str]]:
    """(line, name) of every defaulted parameter and defaulted dataclass field in one module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            for arg in positional[len(positional) - len(args.defaults) :]:
                found.append((arg.lineno, arg.arg))
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    found.append((arg.lineno, arg.arg))
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and stmt.value is not None and isinstance(stmt.target, ast.Name):
                    found.append((stmt.lineno, f"{node.name}.{stmt.target.id}"))
    return sorted(found)


def _wc(directory: Path) -> str:
    files = sorted(str(p) for p in directory.glob("*.py"))
    return subprocess.run(["wc", "-l", *files], capture_output=True, text=True, check=True).stdout.splitlines()[-1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the directory that holds tailbayes/")
    args = parser.parse_args()
    package = args.src / "tailbayes"
    total = 0
    for path in sorted(package.glob("*.py")):
        for line, name in settable_values(path):
            print(f"{path.name}:{line}  {name}")
            total += 1
    print(f"settable values: {total}")
    print(f"src/tailbayes: {_wc(package).strip()}")
    tests = args.src.parent / "tests"
    if tests.is_dir():
        print(f"tests: {_wc(tests).strip()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
