"""The six modules behind the package's exported names, and `quadrature`,
load on first use: each of the seven is in sys.modules from `import oscym`,
which executes none of them and imports no numpy, and runs only when read;
every exported name resolves to the object its module defines, and a CLI
call executes only the modules its command reads."""
import importlib
from pathlib import Path

import pytest

import oscym
from conftest import fresh_python

ROOT = Path(__file__).resolve().parent.parent
LAZY = ("oscym.convergence", "oscym.quadrature", "oscym.relaxation", "oscym.sampling")


def test_a_density_call_executes_no_module_it_does_not_use(tmp_path):
    code = f"""
import sys, types
import oscym.cli
assert oscym.cli.main(["density", "--input", sys.argv[1], "--grid", "5",
                       "--out", sys.argv[2]]) == 0
for name in {LAZY!r}:
    print(name, name in sys.modules, type(sys.modules[name]) is types.ModuleType)
"""
    r = fresh_python("-c", code, ROOT / "tests" / "data" / "sine.json", tmp_path / "out.csv")
    assert r.returncode == 0, r.stderr
    assert r.stdout.split("\n")[:-1] == [f"{name} True False" for name in LAZY]


def test_importing_the_package_executes_no_module_and_loads_no_numpy():
    # every submodule is registered, none is executed: `import oscym` in a
    # program that only reads `__version__` costs no numpy
    code = """
import sys, types
import oscym
print("numpy" in sys.modules, sorted(name for name in sys.modules if name.startswith("oscym.")),
      [name for name, module in sys.modules.items()
       if name.startswith("oscym.") and type(module) is types.ModuleType])
"""
    r = fresh_python("-c", code)
    assert r.returncode == 0, r.stderr
    registered = sorted(LAZY + ("oscym.domain", "oscym.funcspec", "oscym.measures"))
    assert r.stdout.splitlines()[-1] == f"False {registered} []"


def test_importing_the_cli_loads_neither_dataclasses_nor_heapq():
    # both are start-up cost for every call: oscym defines no dataclass, and
    # only `quadrature.integrate` needs heapq, which the quadrature module
    # imports when it is executed, and it stays unexecuted
    code = """
import sys, types
import oscym.cli
print(sorted(name for name in ("dataclasses", "heapq") if name in sys.modules),
      type(sys.modules["oscym.quadrature"]) is types.ModuleType)
"""
    r = fresh_python("-c", code)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "[] False"


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
    # numpy.ma, which np.unique imports, would be start-up cost for nothing,
    # and scipy is no command's; the oracle draws from its own SplitMix64
    # stream, so no command loads numpy.random or, through its seeding,
    # secrets and OpenSSL's _hashlib either
    code = """
import sys
import oscym.cli
rc = oscym.cli.main(sys.argv[1:])
print(rc, sorted(name for name in sys.modules
                 if name in ("numpy.ma", "numpy.random", "secrets", "_hashlib")
                 or name.split(".")[0] == "scipy"))
"""
    r = fresh_python("-c", code, command, *COMMANDS[command])
    assert r.returncode == 0, r.stderr
    rc, loaded = r.stdout.splitlines()[-1].split(" ", 1)
    assert rc in ("0", "1"), r.stdout
    assert loaded == "[]"


# Set masses are differences of exact distribution functions, the
# triangular and uniform families' included, so only `bolza` (its
# functional in x) executes the quadrature module.
# name: (argv, whether the call integrates)
INTEGRATES = {
    **{name: ([name, *map(str, argv)], name == "bolza") for name, argv in COMMANDS.items()},
    "weak-cont-uniform": (["weak-cont", *map(str, COMMANDS["weak-cont"]), "--family", "uniform"],
                          False),
}


@pytest.mark.parametrize("name", INTEGRATES)
def test_only_homog_and_bolza_call_quadrature_or_load_heapq(name):
    argv, integrates = INTEGRATES[name]
    code = """
import sys, types
import oscym.cli
rc = oscym.cli.main(sys.argv[1:])
print(rc, type(sys.modules["oscym.quadrature"]) is types.ModuleType, "heapq" in sys.modules)
"""
    r = fresh_python("-c", code, *argv)
    assert r.returncode == 0, r.stderr
    rc, executed, heapq = r.stdout.splitlines()[-1].split()
    assert rc in ("0", "1"), r.stdout
    assert (executed, heapq) == (str(integrates),) * 2


def test_every_exported_name_resolves_to_its_module_object():
    for name in oscym.__all__:
        value = getattr(oscym, name)
        assert getattr(importlib.import_module(value.__module__), name) is value, name
        assert name in dir(oscym), name


SIN_FAMILY = "sin-family.json"  # written by the test: the sin family at indices 1..64
# every closed-form kind, each through every command that reads it
CLOSED_FORM_CALLS = {
    "converge-roubicek": ["converge", "--input", DATA / "roubicek8.json", "--window", "8,64",
                          "--depth", "6"],
    "density-affine": ["density", "--input", DATA / "tent.json", "--grid", "101"],
    "validate-affine": ["validate", "--input", DATA / "tent.json"],
    **{f"{command}-{name}": [command, "--input", DATA / f"{name}.json"]
       + (["--grid", "101"] if command != "validate" else [])
       for name in ("sine", "power") for command in ("density", "slope", "measure", "validate")},
    **{f"verify-{name}": ["verify", "--input", DATA / f"{name}.json"]
       for name in ("tent", "sine", "power", "atoms")},
    "converge-sin": ["converge", "--input", SIN_FAMILY, "--window", "8,64", "--depth", "6"],
}


@pytest.mark.parametrize("name", CLOSED_FORM_CALLS)
def test_a_cold_closed_form_call_builds_no_piece_object(name, tmp_path):
    # affine, sin, power and constant pieces live in the columns of the piece
    # table; a Piece object is made only when a caller reads `pieces`
    code = """
import sys
import oscym.cli
from oscym.domain import Piece
made = []
init = Piece.__init__
Piece.__init__ = lambda self, *args, **kwargs: (made.append(self), init(self, *args, **kwargs))[1]
rc = oscym.cli.main(sys.argv[1:])
print(rc, len(made), sorted(name for name in sys.modules
                            if name == "numpy.ma" or name.split(".")[0] == "scipy"))
"""
    family = tmp_path / SIN_FAMILY
    family.write_text('{"family": "sin", "params": {}, "indices": [1, 64]}')
    argv = [family if a == SIN_FAMILY else a for a in CLOSED_FORM_CALLS[name]]
    r = fresh_python("-c", code, *argv, "--out", tmp_path / "out")
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "0 0 []"
