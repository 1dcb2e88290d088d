"""Rules checked on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "quandles"


def _tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text(), filename=str(path))


def test_no_assert_statements_in_package():
    # python -O strips asserts, so no check may ride on one.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_cover_makes_no_permutation_products():
    # The cover reads D's composition table; it composes no permutations.
    called = {
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        for node in ast.walk(_tree(SRC / "cover.py"))
        if isinstance(node, ast.Call)
        and isinstance(node.func, (ast.Name, ast.Attribute))
    }
    assert not called & {"compose", "inverse"}
