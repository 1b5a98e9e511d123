"""`import oscym.cli` runs with the garbage collector off, freezes what it
made once, and registers the freeze for interpreter exit; `main` freezes
nothing, and a library import freezes nothing.

The import makes objects that live as long as the process, so collecting
them is wasted work; freezing them means the collections a call triggers
scan only the call's objects, and freezing again at exit lets finalization
skip a full collection and the teardown of every object still tracked.
Each case runs in a fresh interpreter: an `atexit` handler registered
before the import runs after the CLI's (handlers run last in, first out)
and reports the freeze count that finalization sees.
"""
import compileall
import json
import shutil

import pytest

from conftest import SRC, fresh_python
from test_lazy_modules import COMMANDS, DATA

REPORT_AT_EXIT = """
import atexit, gc
atexit.register(lambda: print("freeze count at exit:", gc.get_freeze_count()))
"""


def python(code, *argv):
    r = fresh_python("-c", code, *argv)
    assert r.stderr == "", r.stderr
    return r


def count_at_exit(r) -> int:
    label, count = r.stdout.splitlines()[-1].rsplit(":", 1)
    assert label == "freeze count at exit"
    return int(count)


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_freezes_the_gc_at_exit(command):
    r = python(REPORT_AT_EXIT + """
import sys
import oscym.cli
sys.exit(oscym.cli.main(sys.argv[1:]))
""", command, *COMMANDS[command])
    assert r.returncode in (0, 1)
    assert count_at_exit(r) > 0


@pytest.mark.parametrize("module", ["oscym", "oscym.convergence"])
def test_an_import_alone_does_not_freeze(module):
    # a library import, even one that loads numpy, leaves the heap alone
    r = python(REPORT_AT_EXIT + f"import {module}\n")
    assert r.returncode == 0
    assert count_at_exit(r) == 0


def test_the_cli_import_freezes_the_gc_once_per_process(tmp_path):
    # gc.freeze is read when the CLI is imported, so a counting stand-in
    # shows that the import froze once and registered it as the exit
    # handler, and that no call froze again
    r = python("""
import atexit, gc, sys
freeze, calls = gc.freeze, []
gc.freeze = lambda: (calls.append(1), freeze())[1]
atexit.register(lambda: print("freeze calls at exit:", len(calls), gc.get_freeze_count() > 0))
import oscym.cli
print(len(calls), gc.get_freeze_count() > 0)
for _ in range(2):
    assert oscym.cli.main(["density", "--input", sys.argv[1], "--grid", "5",
                           "--out", sys.argv[2]]) == 0
    print(len(calls), gc.get_freeze_count() > 0)
""", DATA / "sine.json", tmp_path / "out.csv")
    assert r.stdout.splitlines() == ["1 True"] * 3 + ["freeze calls at exit: 2 True"]


def test_importing_the_cli_runs_no_collection(tmp_path):
    # the objects the import makes live as long as the process: the
    # collector is off while it runs, then freezes them once.  The package
    # is compiled first, as an installed one is: compiling cli.py from
    # source allocates enough to collect before its first line runs.  The
    # child empties generation 0 first, so what start-up left there cannot
    # tip a collection while cli.pyc is loaded
    shutil.copytree(SRC / "oscym", tmp_path / "oscym")
    assert compileall.compile_dir(tmp_path / "oscym", quiet=1)
    r = fresh_python("-c", """
import gc
gc.collect()
before = [stats["collections"] for stats in gc.get_stats()]
import oscym.cli
print([stats["collections"] for stats in gc.get_stats()] == before, gc.isenabled())
""", env_extra={"PYTHONPATH": str(tmp_path)})
    assert r.stderr == "", r.stderr
    assert r.stdout == "True True\n"


def test_importing_the_cli_leaves_a_disabled_collector_disabled():
    r = python("""
import gc
gc.disable()
import oscym.cli
print(gc.isenabled())
""")
    assert r.stdout == "False\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_an_out_file_is_complete_after_exit(fmt, tmp_path):
    argv = ["verify", "--input", DATA / "tent.json", "--samples", "1000", "--format", fmt]
    printed = python("import sys, oscym.cli; sys.exit(oscym.cli.main(sys.argv[1:]))", *argv)
    out = tmp_path / f"verify.{fmt}"
    written = python("import sys, oscym.cli; sys.exit(oscym.cli.main(sys.argv[1:]))",
                     *argv, "--out", out)
    assert written.returncode == printed.returncode == 0
    assert written.stdout == ""
    if fmt == "json":
        written_obj = json.loads(out.read_text())
        assert written_obj["config"].pop("out") == str(out)
        assert written_obj == json.loads(printed.stdout)
    else:
        assert out.read_text() == printed.stdout
    assert sorted(p.name for p in tmp_path.iterdir()) == [out.name]
