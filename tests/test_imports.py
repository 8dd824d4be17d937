"""Every import in the package and its tests resolves to the allowed set,
and the package's modules import one another one way.

The package and its tests run on the standard library, numpy, scipy and
pytest alone (no `mpmath` reference in tests); imports inside functions
count as much as those at the top of a module.  Within the package every
import sits at the top of its module, and the graph of relative imports
is acyclic: grids -> volterra -> lq -> {adjoint, fredholm} -> causal ->
scenarios -> cli.
"""

import ast
import graphlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy", "pytest", "volterra_lq", "conftest"}
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


def imported_modules(path):
    """Top-level names of the absolute imports in one file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_imports_stay_in_the_allowed_set():
    outside = {
        str(path.relative_to(ROOT)): sorted(set(imported_modules(path)) - ALLOWED)
        for path in SOURCES
    }
    assert {path: names for path, names in outside.items() if names} == {}


PACKAGE = ROOT / "src" / "volterra_lq"
MODULES = {
    path.stem: ast.parse(path.read_text(), filename=str(path)) for path in PACKAGE.glob("*.py")
}


def package_imports(tree):
    """(module, names) of each relative import in a module; `__init__` for the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module is not None:
                yield node.module.split(".")[0], [alias.name for alias in node.names]
            else:
                for alias in node.names:
                    yield (alias.name if alias.name in MODULES else "__init__"), [alias.name]


def test_no_import_inside_a_function_or_class():
    nested = [
        f"{stem}.{scope.name}"
        for stem, tree in MODULES.items()
        for scope in ast.walk(tree)
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        for stmt in ast.walk(scope)
        if isinstance(stmt, (ast.Import, ast.ImportFrom))
    ]
    assert nested == []


def test_the_package_itself_lends_only_its_version():
    # `__init__` re-exports every layer, so reading anything else from it
    # would close a cycle through the facade
    borrowed = {
        stem: names
        for stem, tree in MODULES.items()
        if stem != "__init__"
        for target, names in package_imports(tree)
        if target == "__init__" and names != ["__version__"]
    }
    assert borrowed == {}


def test_layers_import_one_way():
    # the modules each module imports, the package facade left out
    graph = {
        stem: {target for target, _ in package_imports(tree) if target != "__init__"}
        for stem, tree in MODULES.items()
        if stem != "__init__"
    }
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on a cycle
    assert graph["lq"].isdisjoint({"causal", "fredholm"})
    assert "causal" not in graph["fredholm"]
