"""Source hygiene of the library modules."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "symsum"

# __init__.py imports only to re-export, so it is left out.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_the_package_and_the_standard_library(path):
    # pyproject.toml declares no dependencies, and the test oracles stay out
    # of the library: no conftest, tests, numpy, pytest or hypothesis
    outside = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        for module in modules:
            if module.split(".")[0] not in sys.stdlib_module_names:
                outside[module] = node.lineno
    assert not outside, f"{path.name}: imports outside the package and stdlib (module: line) {outside}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported.items() if name not in used}
    assert not unused, f"{path.name}: unused imports (name: line) {unused}"


def test_every_private_function_is_referenced():
    trees = [ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    defined = {
        node.name for node in nodes
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_") and not node.name.endswith("__")
    }
    used = {node.id for node in nodes if isinstance(node, ast.Name)}
    used |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    assert defined, "no private functions found"
    assert not defined - used, f"private functions never referenced: {sorted(defined - used)}"


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _locals(scope) -> set[str]:
    """The names a function binds in its own scope: its parameters and what
    it stores or defines, outside the scopes nested in it, less its globals."""
    args = scope.args
    bound = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                             args.vararg, args.kwarg) if a}
    declared_global = set()
    todo = [*scope.body] if isinstance(scope.body, list) else [scope.body]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, ast.Global):
            declared_global.update(node.names)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif not isinstance(node, ast.Lambda):
            todo.extend(ast.iter_child_nodes(node))
    return bound - declared_global


def _names(path: Path) -> set[str]:
    """Every name a file reads as a global, reads as an attribute or imports.
    A definition does not name itself, and a local variable that shares a
    definition's name, such as a ``total`` in some function, does not name
    it either."""
    names = set()

    def visit(node, local: frozenset) -> None:
        if isinstance(node, SCOPES):
            local = local | _locals(node)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in local:
                names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child, local)

    visit(ast.parse(path.read_text()), frozenset())
    return names


def _public_definitions(body, prefix: str = ""):
    """(qualified name, name) of every public function, class and method,
    walking into class bodies."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield prefix + node.name, node.name
            if isinstance(node, ast.ClassDef):
                yield from _public_definitions(node.body, f"{prefix}{node.name}.")


# Public definitions that no library module and no benchmark names, each kept
# because an independent test route or the README needs it.
TEST_ONLY = {
    "balance.py:BalanceVerdict.raw_witness": "the acceptance tests read witnesses at raw scale",
    "balance.py:balance_window_report": "README example of the eventual-balance window",
    "boolean_core.py:BooleanFunction.bits": "the truth table bit by bit, which the brute-force oracles read",
    "boolean_core.py:all_profiles": "every profile on j variables, for exhaustive profile sweeps",
    "boolean_core.py:WeightProfile.total": "the perturbation's own sign sum, which the degree-shift gap at n = 0 and the balanced-profile generators read",
    "diophantine.py:GammaAlphabet.members": "the level-j alphabet Gamma_j, which the enumeration oracles and class tests sweep",
    "expsum.py:SymmetricSpec.of": "the README's and acceptance tests' spelling of a degree set",
    "expsum.py:exp_sum_symmetric": "the README's unperturbed sign sum, and the decomposition oracle's inner sums",
    "expsum.py:shifted_identity_gap": "the degree-shift identity of an acceptance criterion",
    "recurrence.py:RecurrencePoly.divides": "README and acceptance test of minimality",
    "recurrence.py:master_recurrence": "the period recurrence of an acceptance criterion",
    "recurrence.py:d0": "closed-form growth constant, an oracle for d_coefficients",
}


def test_every_public_definition_is_named_somewhere():
    # A public function, class or method must be named in a library module or
    # in the benchmark, or be listed in TEST_ONLY; a test naming it is not
    # use, and neither is re-exporting it from __init__.
    root = PACKAGE.parent.parent
    named = set().union(*(_names(path) for path in MODULES + sorted(root.glob("perfbench/*.py"))))
    defined = {
        f"{path.name}:{qualified}": name for path in MODULES
        for qualified, name in _public_definitions(ast.parse(path.read_text()).body)
    }
    assert any("." in qualified for qualified in defined), "no public methods found"
    assert not TEST_ONLY.keys() - defined, f"stale entries: {sorted(TEST_ONLY.keys() - defined)}"
    unnamed = sorted(q for q, name in defined.items() if name not in named and q not in TEST_ONLY)
    assert not unnamed, f"public definitions named only by tests, or never: {unnamed}"


def test_a_local_variable_names_no_definition(tmp_path):
    # a local that shares a method's name, loaded or stored, is not a use of
    # it; a global read, an attribute read and an import are
    path = tmp_path / "m.py"
    path.write_text(
        "from a import imported\n"
        "def f(arg, total=0):\n"
        "    count = [x for x in arg]\n"
        "    g = lambda size: size\n"
        "    def inner():\n"
        "        nonlocal count\n"
        "        return count, total, arg.attr\n"
        "    return count, g, inner, helper\n"
        "def h():\n"
        "    global state\n"
        "    state = 1\n"
        "    return state\n"
    )
    assert _names(path) == {"imported", "attr", "helper", "state"}


def test_every_mutant_still_applies():
    # tests/mutants.py is run by hand; a refactor that moves a mutated line
    # must update its entry there rather than silently drop the mutant
    from mutants import MUTANTS, ROOT

    assert len({m.name for m in MUTANTS}) == len(MUTANTS) >= 10
    counts = {m.name: (ROOT / m.path).read_text().count(m.old) for m in MUTANTS}
    assert all(count == 1 for count in counts.values()), counts
    missing = [t for m in MUTANTS for t in m.tests if not (ROOT / t.split("::")[0]).is_file()]
    assert not missing, missing
