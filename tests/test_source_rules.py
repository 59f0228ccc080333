"""Source rules of the package, checked on its syntax trees.

Runtime checks raise, never ``assert`` (which ``python -O`` strips), and the
solve path computes in exact integers and Fractions only: no float literal,
no ``float`` name, no ``math`` logarithm, square root or exponential.
``cli`` times its eval runs in float seconds and is left out of the second
rule, as is ``reference``, which the solver never runs.
"""

import ast
from pathlib import Path

import pytest

import incknap

PACKAGE = Path(incknap.__file__).resolve().parent
SOLVE_PATH = ("model", "classes", "statespace", "bounded", "general", "oracle")
FLOAT_MATH = ("sqrt", "exp")


def assert_statements(tree: ast.AST) -> list[int]:
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def float_uses(tree: ast.AST) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            lines.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id == "float":
            lines.append(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "math"
            and (node.func.attr.startswith("log") or node.func.attr in FLOAT_MATH)
        ):
            lines.append(node.lineno)
    return lines


def parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert assert_statements(parse(path)) == []


@pytest.mark.parametrize("module", SOLVE_PATH)
def test_solve_path_uses_no_floats(module):
    assert float_uses(parse(PACKAGE / f"{module}.py")) == []


def test_rules_detect_what_they_forbid():
    tree = ast.parse("assert x\ny = 0.5\nz = float(y)\nw = math.log2(8) + math.sqrt(4) + math.ceil(2)")
    assert assert_statements(tree) == [1]
    assert sorted(float_uses(tree)) == [2, 3, 4, 4]
