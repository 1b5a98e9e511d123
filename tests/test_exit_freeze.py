"""`cli.main` freezes the garbage collector on its first call and at
interpreter exit, and an import alone does not.

The first `main` freezes what the imports left, so the collections a call
triggers scan only the call's objects, and registers `gc.freeze` with
`atexit`, so finalization skips a full collection and the teardown of every
object still tracked.  Each case runs in a fresh interpreter: an `atexit`
handler registered before `main` runs after the CLI's (handlers run last
in, first out) and reports the freeze count that finalization sees.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_lazy_modules import COMMANDS, DATA

ROOT = Path(__file__).resolve().parent.parent
REPORT_AT_EXIT = """
import atexit, gc
atexit.register(lambda: print("freeze count at exit:", gc.get_freeze_count()))
"""


def python(code, *argv):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))
    r = subprocess.run([sys.executable, "-c", code, *map(str, argv)],
                       capture_output=True, text=True, env=env)
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


@pytest.mark.parametrize("module", ["oscym", "oscym.cli"])
def test_an_import_alone_does_not_freeze(module):
    r = python(REPORT_AT_EXIT + f"import {module}\n")
    assert r.returncode == 0
    assert count_at_exit(r) == 0


def test_main_freezes_the_gc_once_per_process(tmp_path):
    # gc.freeze is read at each call, so a counting stand-in shows that the
    # second call neither froze again nor added a second exit handler
    r = python("""
import atexit, gc, sys
freeze, calls = gc.freeze, []
gc.freeze = lambda: (calls.append(1), freeze())[1]
atexit.register(lambda: print("freeze calls at exit:", len(calls), gc.get_freeze_count() > 0))
import oscym.cli
for _ in range(2):
    assert oscym.cli.main(["density", "--input", sys.argv[1], "--grid", "5",
                           "--out", sys.argv[2]]) == 0
    print(len(calls), gc.get_freeze_count() > 0)
""", DATA / "sine.json", tmp_path / "out.csv")
    assert r.stdout.splitlines() == ["1 True", "1 True", "freeze calls at exit: 2 True"]


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
