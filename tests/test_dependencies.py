"""The package imports exactly the third-party modules that pyproject.toml
declares, so no dependency comes back undeclared."""
import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

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
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    declared = sorted(re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower() for d in deps)
    assert third_party_imports() == declared
