"""The package imports exactly the third-party modules that pyproject.toml
declares, so no dependency comes back undeclared."""
import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def imported_modules() -> set[str]:
    """Top-level names of every module imported anywhere in src/oscym,
    function bodies included, less its relative imports."""
    found = set()
    for path in (ROOT / "src" / "oscym").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found


def third_party_imports() -> list[str]:
    """`imported_modules`, less the standard library and oscym."""
    return sorted(imported_modules() - set(sys.stdlib_module_names) - {"oscym"})


def test_imports_match_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    declared = sorted(re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower() for d in deps)
    assert third_party_imports() == declared


def test_no_module_imports_dataclasses():
    # a dataclass decorator generates and execs its methods at import time,
    # and dataclasses imports inspect and copy: start-up paid by every call
    assert "dataclasses" not in imported_modules()


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


def assigned_names(body) -> list[str]:
    """The names a module or class body binds by assignment."""
    targets = []
    for node in body:
        if isinstance(node, ast.Assign):
            targets += node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets.append(node.target)
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def dead_helpers() -> list[str]:
    """Private functions, classes and module-level names, and class
    attributes, defined in src/oscym that no module of it reads, by name or
    as an attribute; dunder names are read by Python itself and are not
    counted."""
    defined, read = set(), set()
    for path in (ROOT / "src" / "oscym").glob("*.py"):
        tree = ast.parse(path.read_text(), str(path))
        names = [n for n in assigned_names(tree.body) if n.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_"):
                    names.append(node.name)
                if isinstance(node, ast.ClassDef):
                    names += assigned_names(node.body)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
        defined.update(f"{path.name}:{n}" for n in names if not n.endswith("__"))
    return sorted(d for d in defined if d.split(":")[1] not in read)


def test_every_private_helper_is_read():
    assert dead_helpers() == []
