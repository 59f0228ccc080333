"""Source rules of the package, checked on its syntax trees.

Runtime checks raise, never ``assert`` (which ``python -O`` strips), and the
solve path computes in exact integers and Fractions only: no float literal,
no ``float`` name, no ``math`` logarithm, square root or exponential.
``cli`` times its eval runs in float seconds and is left out of the second
rule.

The benchmark's layer tracer patches module-global names where they are
called, so each traced name must stay bound at module level in its module
and every call to it on the solve path must go through that binding.
"""

import ast
from pathlib import Path

import pytest

import incknap

PACKAGE = Path(incknap.__file__).resolve().parent
SOLVE_PATH = ("model", "classes", "statespace", "bounded", "general", "oracle")
FLOAT_MATH = ("sqrt", "exp")
# module -> the names ``perfbench/tracer.py`` patches in it
TRACED = {
    "cli": ("main",),
    "bounded": (
        "build_classes",
        "candidate_intervals",
        "enumerate_family",
        "dp_solve",
        "InverseFrontier",
        "solve_bounded",
    ),
    "statespace": ("heavy_configurations",),
    "general": ("build_classes", "build_plan", "build_grid", "cluster_dp", "glue", "solve_detailed", "InverseFrontier"),
    "oracle": ("exact_opt",),
}
# positional arguments the tracer's observers read
POSITIONAL = {"dp_solve": 4, "glue": 1}


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


def module_bindings(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def traced_call_faults(trees: dict[str, ast.Module], traced: dict[str, tuple[str, ...]]) -> list[str]:
    """Ways the solve path gets round a traced binding; empty when it does not.

    A traced name must be bound at module level in its module and called at
    least once through that binding: by bare name in the module, or as
    ``module.name`` elsewhere.  Any other call of the name bypasses it.
    """
    faults = []
    calls = {(module, name): 0 for module, names in traced.items() for name in names}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                owner, name = module, func.id
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                owner, name = func.value.id, func.attr
            else:
                continue
            if not any(name in names for names in traced.values()):
                continue
            if (owner, name) not in calls:
                faults.append(f"{module}:{node.lineno} calls {name} around the traced binding")
                continue
            calls[owner, name] += 1
            if len(node.args) < POSITIONAL.get(name, 0):
                faults.append(f"{module}:{node.lineno} passes {name} too few positional arguments")
    for (module, name), count in calls.items():
        if name not in module_bindings(trees[module]):
            faults.append(f"{module} does not bind {name} at module level")
        elif count == 0:
            faults.append(f"no call goes through {module}.{name}")
    return faults


def test_traced_names_are_called_through_their_bindings():
    trees = {module: parse(PACKAGE / f"{module}.py") for module in (*SOLVE_PATH, "cli")}
    assert traced_call_faults(trees, TRACED) == []
    frontier = next(n for n in trees["bounded"].body if isinstance(n, ast.ClassDef) and n.name == "InverseFrontier")
    assert "query" in {n.name for n in frontier.body if isinstance(n, ast.FunctionDef)}


def test_traced_call_rule_detects_a_bypass():
    traced = {"a": ("f", "dp_solve"), "b": ("g",)}
    good = {
        "a": ast.parse("from b import f\ndef dp_solve(): pass\nf()\ndp_solve(1, 2, 3, 4)"),
        "b": ast.parse("import a\ndef g(): pass\na.dp_solve(1, 2, 3, 4)\ng()"),
    }
    assert traced_call_faults(good, traced) == []
    bad = {
        "a": ast.parse("import b\ndef dp_solve(): pass\nb.f()\ndp_solve(1, 2, 3)"),
        "b": ast.parse("def f(): pass\nf()"),
    }
    assert traced_call_faults(bad, traced) == [
        "a:3 calls f around the traced binding",
        "a:4 passes dp_solve too few positional arguments",
        "b:2 calls f around the traced binding",
        "a does not bind f at module level",
        "b does not bind g at module level",
    ]


def package_imports(tree: ast.AST) -> set[str]:
    """Modules of the package that a module imports, relatively or by name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "incknap":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                names.add(parts[0])
            else:
                names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name.split(".")[1] for alias in node.names if alias.name.startswith("incknap."))
    return names


def test_the_oracle_stays_off_the_solve_path():
    # ground truth must not feed what it checks: no solve-path module but the
    # oracle itself imports it
    importers = [m for m in SOLVE_PATH if m != "oracle" and "oracle" in package_imports(parse(PACKAGE / f"{m}.py"))]
    assert importers == []


def test_import_rule_detects_every_form():
    forms = (
        "from . import oracle",
        "from .oracle import exact_opt",
        "from incknap.oracle import x",
        "from incknap import general, oracle",
        "import incknap.oracle",
    )
    for source in forms:
        assert "oracle" in package_imports(ast.parse(source)), source
    assert package_imports(ast.parse("from .model import BudgetExceeded\nimport oracle\nfrom x.oracle import y")) == {"model"}
