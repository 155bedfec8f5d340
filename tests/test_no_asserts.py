"""The package checks its invariants with exceptions, never with ``assert``.

``python -O`` strips assert statements, so a check written as one silently
disappears from optimised runs.
"""

import ast
import pathlib

import lgmf

SRC = pathlib.Path(lgmf.__file__).parent


def test_no_assert_statements_in_the_package():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
