"""Source-level checks on the linnik package."""

import ast
from pathlib import Path

import linnik

PACKAGE = Path(linnik.__file__).resolve().parent


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so no check may rely on one
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in linnik: {found}"
