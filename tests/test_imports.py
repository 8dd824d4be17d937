"""Every import in the package and its tests resolves to the allowed set.

The package and its tests run on the standard library, numpy, scipy and
pytest alone (no `mpmath` reference in tests); imports inside functions
count as much as those at the top of a module.
"""

import ast
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
