"""Source-level checks on the linnik package."""

import ast
import os
import subprocess
import sys
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


def test_cli_imports_without_scipy():
    # the runtime depends on numpy alone; scipy is a test dependency
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, linnik.cli; "
                               "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert loaded.strip() == "[]"
