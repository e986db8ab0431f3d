"""Rules on the source of the ccplan package itself."""

import ast
from pathlib import Path

import ccplan


def test_no_assert_statements():
    # Invariants raise typed errors that map to CLI exit codes; an assert
    # would vanish under ``python -O``.
    package = Path(ccplan.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in ccplan: {found}"
