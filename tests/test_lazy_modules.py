"""`convergence`, `relaxation` and `sampling` load on first use: present in
sys.modules from `import oscym`, executed only when read, and every name
the package exports resolves to the object its module defines."""
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oscym

ROOT = Path(__file__).resolve().parent.parent
LAZY = ("oscym.convergence", "oscym.relaxation", "oscym.sampling")


def test_a_density_call_executes_no_module_it_does_not_use(tmp_path):
    code = f"""
import sys, types
import oscym.cli
assert oscym.cli.main(["density", "--input", sys.argv[1], "--grid", "5",
                       "--out", sys.argv[2]]) == 0
for name in {LAZY!r}:
    print(name, name in sys.modules, type(sys.modules[name]) is types.ModuleType)
"""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))
    r = subprocess.run([sys.executable, "-c", code, str(ROOT / "tests" / "data" / "sine.json"),
                        str(tmp_path / "out.csv")], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split("\n")[:-1] == [f"{name} True False" for name in LAZY]


DATA = ROOT / "tests" / "data"
# one short call per subcommand, each in a fresh interpreter
COMMANDS = {
    "validate": ["--input", DATA / "expr.json"],
    "density": ["--input", DATA / "sine.json", "--grid", "9"],
    "slope": ["--input", DATA / "power.json", "--grid", "9"],
    "measure": ["--input", DATA / "atoms.json", "--grid", "9"],
    "verify": ["--input", DATA / "tent.json", "--samples", "1000"],
    "converge": ["--input", DATA / "amplitude_tent.json", "--window", "8,16", "--depth", "2"],
    "bolza": ["--n-list", "1,2"],
    "homog": [],
    "weak-cont": ["--n-stop", "8", "--depth", "2"],
}


@pytest.mark.parametrize("command", COMMANDS)
def test_a_cold_call_imports_no_module_it_does_not_use(command):
    # numpy.ma, which np.unique imports, would be start-up cost for nothing;
    # numpy.random is the oracle's, and scipy no command's
    code = """
import sys
import oscym.cli
rc = oscym.cli.main(sys.argv[1:])
print(rc, sorted(name for name in sys.modules
                 if name in ("numpy.ma", "numpy.random") or name.split(".")[0] == "scipy"))
"""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))
    r = subprocess.run([sys.executable, "-c", code, command, *map(str, COMMANDS[command])],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    rc, loaded = r.stdout.splitlines()[-1].split(" ", 1)
    assert rc in ("0", "1"), r.stdout
    assert loaded == str(["numpy.random"] if command == "verify" else [])


def test_every_exported_name_resolves_to_its_module_object():
    for name in oscym.__all__:
        value = getattr(oscym, name)
        assert getattr(importlib.import_module(value.__module__), name) is value, name
        assert name in dir(oscym), name
