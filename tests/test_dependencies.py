"""The package imports exactly the third-party modules that pyproject.toml
declares, so no dependency comes back undeclared."""
import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def third_party_imports() -> list[str]:
    """Top-level names of every module imported anywhere in src/oscym,
    function bodies included, less the standard library and oscym."""
    found = set()
    for path in (ROOT / "src" / "oscym").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return sorted(found - set(sys.stdlib_module_names) - {"oscym"})


def test_imports_match_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    declared = sorted(re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower() for d in deps)
    assert third_party_imports() == declared


def unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads: module-level and local
    imports alike, less `from __future__` ones."""
    tree = ast.parse(path.read_text(), str(path))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - used)


@pytest.mark.parametrize(
    "module", sorted(p.name for p in (ROOT / "src" / "oscym").glob("*.py")
                     if p.name != "__init__.py"))
def test_every_import_is_used(module):
    # __init__.py imports in order to re-export, so it is not scanned
    assert unused_imports(ROOT / "src" / "oscym" / module) == []
