import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from conftest import SRC, fresh_python


def run_cli(*argv, env_extra=None):
    return fresh_python("-m", "oscym", *argv, env_extra=env_extra)


@pytest.fixture(scope="module")
def sin_spec(tmp_path_factory):
    path = tmp_path_factory.mktemp("specs") / "sin.json"
    path.write_text(json.dumps({
        "family": "sin", "params": {}, "indices": [1, 4]}))
    return str(path)


@pytest.fixture(scope="module")
def tent_spec(tmp_path_factory):
    path = tmp_path_factory.mktemp("specs") / "tent.json"
    path.write_text(json.dumps({
        "domain": [0.0, 1.0],
        "pieces": [
            {"interval": [0.0, 0.5], "kind": "affine",
             "params": {"slope": 2.0, "intercept": 0.0}},
            {"interval": [0.5, 1.0], "kind": "affine",
             "params": {"slope": -2.0, "intercept": 2.0}},
        ],
    }))
    return str(path)


@pytest.fixture(scope="module")
def amp_spec(tmp_path_factory):
    path = tmp_path_factory.mktemp("specs") / "amp.json"
    path.write_text(json.dumps({
        "family": "amplitude_tent", "params": {}, "indices": [1, 64]}))
    return str(path)


@pytest.fixture(scope="module")
def sine_function_spec(tmp_path_factory):
    # sin(2 pi x) on (0, 1), cut at its extrema; density singular at +-1
    w = 2.0 * math.pi
    cuts = [0.0, 0.25, 0.75, 1.0]
    path = tmp_path_factory.mktemp("specs") / "sine_wave.json"
    path.write_text(json.dumps({
        "domain": [0.0, 1.0],
        "pieces": [
            {"interval": [lo, hi], "kind": "sin",
             "params": {"amplitude": 1.0, "frequency": w, "phase": 0.0}}
            for lo, hi in zip(cuts[:-1], cuts[1:])],
    }))
    return str(path)


@pytest.fixture(scope="module")
def square_spec(tmp_path_factory):
    path = tmp_path_factory.mktemp("specs") / "square.json"
    path.write_text(json.dumps({
        "domain": [0.0, 1.0],
        "pieces": [{"interval": [0.0, 1.0], "kind": "power",
                    "params": {"exponent": 2.0}}],
    }))
    return str(path)


def test_help_exits_zero():
    r = run_cli("--help")
    assert r.returncode == 0
    assert "density" in r.stdout
    assert "verify" in r.stdout


HELP = json.loads((Path(__file__).resolve().parent / "data" / "help.json").read_text())


@pytest.mark.parametrize("columns", sorted(HELP))
@pytest.mark.parametrize("command", sorted(HELP["60"]))
def test_help_text_is_pinned(columns, command, monkeypatch, capsys):
    # argparse wraps help to the terminal width, read from COLUMNS
    from oscym import cli
    monkeypatch.setenv("COLUMNS", columns)
    with pytest.raises(SystemExit) as exit_:
        cli.main([command, "--help"] if command else ["--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out == HELP[columns][command]


def test_the_cli_import_registers_one_exit_handler_and_main_none(tmp_path):
    # on Python 3.11 atexit.unregister empties a slot without freeing it, so
    # unregistering and registering again at every call would leave one
    # more slot per call
    code = """
import atexit, sys
before = atexit._ncallbacks()
import oscym.cli
imported = atexit._ncallbacks()
for _ in range(3):
    assert oscym.cli.main(["validate", "--input", sys.argv[1], "--out", sys.argv[2]]) == 0
print(imported - before, atexit._ncallbacks() - imported)
"""
    data = Path(__file__).resolve().parent / "data"
    r = fresh_python("-c", code, data / "tent.json", tmp_path / "out.csv")
    assert r.returncode == 0, r.stderr
    assert r.stdout == "1 0\n"


def test_missing_subcommand_is_usage_error():
    r = run_cli()
    assert r.returncode == 2


def test_validate_tent(tent_spec):
    r = run_cli("validate", "--input", tent_spec)
    assert r.returncode == 0


def test_density_values(tent_spec):
    r = run_cli("density", "--input", tent_spec, "--grid", "11")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "y,g"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 11
    # tent over (0,1): density 1 on (0,1)
    assert float(rows[5][1]) == pytest.approx(1.0, abs=1e-12)


def test_density_json_format(tent_spec):
    r = run_cli("density", "--input", tent_spec, "--format", "json", "--grid", "5")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["command"] == "density"
    assert len(payload["result"]["grid"]) == 5


def test_verify_tent_agrees_with_sampler(tent_spec):
    r = run_cli("verify", "--input", tent_spec, "--samples", "200000",
                "--format", "json")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["result"]["within_threshold"] is True
    assert payload["result"]["discrepancy"] < 0.01


def test_verify_deterministic_output(tent_spec):
    a = run_cli("verify", "--input", tent_spec, "--samples", "50000")
    b = run_cli("verify", "--input", tent_spec, "--samples", "50000")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_seed_env_override(tent_spec):
    base = run_cli("verify", "--input", tent_spec, "--samples", "50000")
    same = run_cli("verify", "--input", tent_spec, "--samples", "50000",
                   env_extra={"YM_SEED": "42"})
    other = run_cli("verify", "--input", tent_spec, "--samples", "50000",
                    env_extra={"YM_SEED": "7"})
    assert base.stdout == same.stdout
    assert base.stdout != other.stdout


def test_converge_amplitude_tent(amp_spec):
    r = run_cli("converge", "--input", amp_spec, "--window", "8,64",
                "--format", "json")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["result"]["converged"] is True
    assert payload["result"]["worst_residual"] < 1e-2


def test_converge_negative_verdict(amp_spec):
    # an impossibly tight tolerance yields a negative verdict, exit code 1
    r = run_cli("converge", "--input", amp_spec, "--window", "8,64",
                "--tol", "1e-12")
    assert r.returncode == 1


def test_weak_cont_triangular():
    r = run_cli("weak-cont", "--family", "triangular", "--n-stop", "128",
                "--depth", "4", "--format", "json")
    assert r.returncode == 0
    assert json.loads(r.stdout)["result"]["converged"] is True


def test_homog_exit_codes():
    assert run_cli("homog", "--family", "uniform").returncode == 0
    assert run_cli("homog", "--family", "triangular").returncode == 1


def test_bolza_csv_values():
    r = run_cli("bolza", "--n-list", "1,2,4")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "n,J_value,predicted,abs_error"
    for line, n in zip(lines[1:], (1, 2, 4)):
        cells = line.split(",")
        assert int(float(cells[0])) == n
        assert float(cells[1]) == pytest.approx(1.0 / (48 * n * n), rel=1e-8)
        assert float(cells[3]) < 1e-10


def test_bolza_gradient_measure():
    r = run_cli("bolza", "--gradient-ym", "--n", "4", "--format", "json")
    assert r.returncode == 0
    atoms = sorted(json.loads(r.stdout)["result"]["atoms"])
    assert atoms[0][0] == pytest.approx(-1.0)
    assert atoms[1][0] == pytest.approx(1.0)
    assert atoms[0][1] == pytest.approx(0.5, abs=1e-12)


def test_atomic_out_file(tent_spec, tmp_path):
    out = tmp_path / "density.csv"
    r = run_cli("density", "--input", tent_spec, "--grid", "5",
                "--out", str(out))
    assert r.returncode == 0
    assert r.stdout == ""
    assert out.read_text().startswith("y,g")
    leftovers = [p for p in tmp_path.iterdir() if p != out]
    assert leftovers == []


def test_measure_export_roundtrip(tent_spec, tmp_path):
    out = tmp_path / "measure.json"
    r = run_cli("measure", "--input", tent_spec, "--format", "json",
                "--out", str(out), "--grid", "257")
    assert r.returncode == 0
    payload = json.loads(out.read_text())
    ys, gs = np.asarray(payload["result"]["density_grid"], dtype=float).T
    finite = np.isfinite(gs)
    assert (ys[0], ys[-1]) == tuple(payload["result"]["range"])
    for y in np.linspace(0.05, 0.95, 10):
        assert np.interp(y, ys[finite], gs[finite]) == pytest.approx(1.0, abs=1e-6)


def test_csv_floats_roundtrip_exactly(tent_spec):
    r = run_cli("slope", "--input", tent_spec, "--grid", "7")
    vals = [float(line.split(",")[0]) for line in r.stdout.strip().splitlines()[1:]]
    expect = np.linspace(0.0, 1.0, 7)
    assert vals == [float(v) for v in expect]


def test_exit_2_on_missing_file():
    r = run_cli("density", "--input", "/nonexistent/spec.json")
    assert r.returncode == 2
    assert "input error" in r.stderr


def one_input_error(capsys, path) -> str:
    """The one line on stderr, an input error that names path."""
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and len(err.splitlines()) == 1, err
    assert str(path) in err, err
    return err


def test_an_input_that_is_a_directory_is_an_input_error(tmp_path, capsys):
    from oscym.cli import main

    assert main(["validate", "--input", str(tmp_path)]) == 2
    one_input_error(capsys, tmp_path)


def test_an_input_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    from oscym.cli import main

    path = tmp_path / "latin1.json"
    path.write_bytes('{"domain": [0, 1], "pieces": [], "note": "\u00e9"}'.encode("latin-1"))
    assert main(["validate", "--input", str(path)]) == 2
    one_input_error(capsys, path)


@pytest.mark.parametrize("out", ["some_dir", "./", "."])
def test_an_out_that_is_a_directory_is_an_input_error(out, tent_spec, tmp_path, capsys,
                                                      monkeypatch):
    from oscym.cli import main

    monkeypatch.chdir(tmp_path)
    (tmp_path / "some_dir").mkdir()
    assert main(["validate", "--input", tent_spec, "--out", out]) == 2
    one_input_error(capsys, repr(out))
    # no temp file is left, next to the directory or in it
    assert [p.name for p in tmp_path.rglob("*")] == ["some_dir"]


def test_an_out_in_a_missing_directory_names_that_path(tent_spec, tmp_path, capsys):
    from oscym.cli import main

    out = tmp_path / "missing" / "x.csv"
    assert main(["validate", "--input", tent_spec, "--out", str(out)]) == 2
    one_input_error(capsys, repr(str(out)))
    assert list(tmp_path.iterdir()) == []


def test_exit_2_on_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    r = run_cli("density", "--input", str(bad))
    assert r.returncode == 2


def test_exit_2_on_unknown_key(tmp_path):
    bad = tmp_path / "extra.json"
    bad.write_text(json.dumps({
        "domain": [0, 1],
        "pieces": [{"interval": [0, 1], "kind": "affine",
                    "params": {"slope": 1, "intercept": 0}}],
        "comment": "not allowed",
    }))
    r = run_cli("density", "--input", str(bad))
    assert r.returncode == 2


def test_exit_2_on_sequence_where_function_expected(sin_spec):
    r = run_cli("density", "--input", sin_spec)
    assert r.returncode == 2


@pytest.mark.parametrize("expr", ["(x - 2)^0.5", "log(x - 2)", "1/x", "2^(2000*x)"],
                         ids=["complex", "nan", "division-by-zero", "overflow"])
def test_exit_2_on_expr_without_real_values(tmp_path, expr):
    # a square root or logarithm of a negative number has no real value, and
    # 1/x at 0 or 2^2000 no finite one
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"domain": [0.0, 1.0], "pieces": [
        {"interval": [0.0, 1.0], "kind": "expr", "params": {"expr": expr}}]}))
    r = run_cli("validate", "--input", str(spec))
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1
    assert "[0.0, 1.0]" in r.stderr


def test_measure_json_is_strict(sine_function_spec):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    r = run_cli("measure", "--input", sine_function_spec, "--format", "json",
                "--grid", "5")
    assert r.returncode == 0
    payload = json.loads(r.stdout, parse_constant=reject)
    grid = payload["result"]["density_grid"]
    assert grid[0] == [-1.0, "inf"]
    assert grid[-1] == [1.0, "inf"]


def test_power_piece_from_zero(square_spec):
    # x^2 on (0, 1): density 1/(2 sqrt(y)), singular at the grid point y = 0
    r = run_cli("density", "--input", square_spec, "--grid", "5")
    assert r.returncode == 0
    rows = [line.split(",") for line in r.stdout.strip().splitlines()[1:]]
    assert float(rows[0][1]) == math.inf
    assert float(rows[1][1]) == pytest.approx(1.0, rel=1e-12)
    r = run_cli("verify", "--input", square_spec, "--samples", "200000")
    assert r.returncode == 0


def test_verify_keeps_atoms_apart_as_the_model_does(tmp_path):
    # two constant pieces 1e-10 apart are two atoms of weight 1/4 in the
    # model; the oracle must not fold them into one
    path = tmp_path / "two_plateaus.json"
    path.write_text(json.dumps({"domain": [0.0, 1.0], "pieces": [
        {"interval": [0.0, 0.5], "kind": "affine",
         "params": {"slope": 1.0, "intercept": 0.0}},
        {"interval": [0.5, 0.75], "kind": "constant", "params": {"value": 0.3}},
        {"interval": [0.75, 1.0], "kind": "constant",
         "params": {"value": 0.3000000001}},
    ]}))
    r = run_cli("verify", "--input", str(path), "--seed", "7",
                "--samples", "200000", "--format", "json")
    assert r.returncode == 0, r.stdout
    atoms = json.loads(r.stdout)["result"]["atoms"]
    assert [a["model_weight"] for a in atoms] == [0.25, 0.25]
    assert all(abs(a["empirical_mass"] - 0.25) <= a["threshold"] for a in atoms)


@pytest.mark.skipif(not Path("/proc/self/task").is_dir() or len(os.sched_getaffinity(0)) < 2,
                    reason="counts threads in /proc, on a process free to use two CPUs")
def test_importing_the_cli_starts_no_blas_thread(monkeypatch):
    # left to itself, OpenBLAS starts a worker thread per extra CPU at
    # numpy's import, and the worker spins; a value the user set is kept
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    code = ("import os, oscym.cli; "
            "print(os.environ.get('OPENBLAS_NUM_THREADS'), len(os.listdir('/proc/self/task')))")
    r = fresh_python("-c", code)
    assert r.stdout.split() == ["1", "1"], r.stderr
    r = fresh_python("-c", code, env_extra={"OPENBLAS_NUM_THREADS": "2"})
    assert r.stdout.split()[0] == "2", r.stderr


def test_constant_values_1e_15_apart_are_two_atoms(tmp_path):
    # an atom is one constant value: halves at 1e-15 and 2e-15 weigh 1/2
    # each, however close the values lie in absolute terms
    path = tmp_path / "two_halves.json"
    path.write_text(json.dumps({"domain": [0.0, 1.0], "pieces": [
        {"interval": [0.0, 0.5], "kind": "constant", "params": {"value": 1e-15}},
        {"interval": [0.5, 1.0], "kind": "constant", "params": {"value": 2e-15}},
    ]}))
    r = run_cli("measure", "--input", str(path), "--format", "json")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["result"]["atoms"] == [[1e-15, 0.5], [2e-15, 0.5]]
    r = run_cli("verify", "--input", str(path))
    assert r.returncode == 0, r.stdout
    atoms = [line.split(",") for line in r.stdout.splitlines() if line.startswith("atom,")]
    assert [(float(a[1]), float(a[2])) for a in atoms] == [(1e-15, 0.5), (2e-15, 0.5)]


@pytest.mark.parametrize("seed", ["2", "10"])
def test_verify_passes_a_model_atom_too_light_to_sample(tmp_path, seed):
    # the plateau's expected count is 1 of 1M draws: the oracle counts the
    # draws that take its value, one for seed 2 and none for seed 10, and
    # the model weight 1e-6 is within 3 sigma of either
    path = tmp_path / "light_atom.json"
    path.write_text(json.dumps({"domain": [0.0, 1.0], "pieces": [
        {"interval": [0.0, 0.999999], "kind": "affine",
         "params": {"slope": 1.0, "intercept": 0.0}},
        {"interval": [0.999999, 1.0], "kind": "constant", "params": {"value": 0.5}},
    ]}))
    r = run_cli("verify", "--input", str(path), "--seed", seed,
                "--samples", "1000000", "--format", "json")
    assert r.returncode == 0, r.stdout
    [atom] = json.loads(r.stdout)["result"]["atoms"]
    assert (atom["location"], atom["empirical_mass"]) == (0.5, {"2": 1e-6, "10": 0.0}[seed])
    assert atom["threshold"] == pytest.approx(3e-6)


@pytest.mark.parametrize("seed", ["1", "2", "3"])
@pytest.mark.parametrize("piece", [
    # 1 + 1e-9 x takes about 4.5M doubles, so 1M draws repeat some of them
    {"kind": "affine", "params": {"slope": 1e-9, "intercept": 1.0}},
    # x^200 underflows to 0.0 below x = 0.024, on 2.4% of the draws
    {"kind": "power", "params": {"exponent": 200}},
], ids=["flat_affine", "power_200"])
def test_verify_takes_no_atom_from_repeated_values(tmp_path, piece, seed):
    # only a constant piece makes an atom, in the model and in the oracle:
    # values repeated by rounding are binned, not compared at threshold 0
    path = tmp_path / "diffuse.json"
    path.write_text(json.dumps({"domain": [0.0, 1.0],
                                "pieces": [{"interval": [0.0, 1.0], **piece}]}))
    r = run_cli("verify", "--input", str(path), "--seed", seed, "--format", "json")
    assert r.returncode == 0, r.stdout
    assert json.loads(r.stdout)["result"]["atoms"] == []


HIGH_WATER = """
import sys
import oscym.cli
if sys.argv[1:]:
    assert oscym.cli.main(sys.argv[1:]) == 0
print(next(int(line.split()[1]) for line in open("/proc/self/status")
           if line.startswith("VmHWM:")))
"""


def test_verify_memory_does_not_hold_the_samples(tmp_path):
    # the peak RSS of a child that runs `verify` at 1M samples, less that of
    # one that only imports the CLI: 8 MB of samples held at once would show
    status = Path("/proc/self/status")
    if not status.exists() or "VmHWM:" not in status.read_text():
        pytest.skip("no VmHWM in /proc/self/status")
    tent = Path(__file__).resolve().parent / "data" / "tent.json"
    peaks = []
    for argv in ([], ["verify", "--input", tent, "--samples", "1000000",
                      "--out", tmp_path / "verify.csv"]):
        r = fresh_python("-c", HIGH_WATER, *argv)
        assert r.returncode == 0, r.stderr
        peaks.append(int(r.stdout))  # kB
    assert peaks[1] - peaks[0] <= 6 * 1024


def test_verify_an_all_constant_function(tmp_path):
    # no density: every bin's model mass is 0, and both atoms are matched
    path = tmp_path / "two_plateaus.json"
    path.write_text(json.dumps({"domain": [0.0, 1.0], "pieces": [
        {"interval": [0.0, 0.5], "kind": "constant", "params": {"value": 0.25}},
        {"interval": [0.5, 1.0], "kind": "constant", "params": {"value": 0.75}},
    ]}))
    r = run_cli("verify", "--input", str(path), "--format", "json")
    assert r.returncode == 0, r.stdout
    result = json.loads(r.stdout)["result"]
    assert {b["model_mass"] for b in result["bins"]} == {0.0}
    assert [a["model_weight"] for a in result["atoms"]] == [0.5, 0.5]


OPTIONS = {
    "validate": set(),
    "density": {"--grid"},
    "slope": {"--grid"},
    "measure": {"--grid"},
    "verify": {"--seed", "--samples", "--bins"},
    "converge": {"--tol", "--window", "--depth"},
    "weak-cont": {"--tol", "--family", "--x0", "--n-start", "--n-stop", "--depth"},
    "homog": {"--tol", "--family", "--x-samples"},
    "bolza": {"--n-list", "--gradient-ym", "--n"},
}
SPEC_FREE = {"weak-cont", "homog", "bolza"}


def test_each_subcommand_declares_only_the_options_it_reads():
    import argparse

    from oscym.cli import build_parser

    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    declared = {
        name: {s for a in p._actions if not isinstance(a, argparse._HelpAction)
               for s in a.option_strings}
        for name, p in sub.choices.items()
    }
    expected = {
        name: opts | {"--out", "--format"} | (set() if name in SPEC_FREE else {"--input"})
        for name, opts in OPTIONS.items()
    }
    assert declared == expected
    assert sum(len(v) for v in declared.values()) == 45


def test_named_subcommand_alone_gets_its_options():
    import argparse

    from oscym.cli import build_parser

    def declared(argv):
        (sub,) = [a for a in build_parser(argv)._actions
                  if isinstance(a, argparse._SubParsersAction)]
        return {name: {s for a in p._actions if not isinstance(a, argparse._HelpAction)
                       for s in a.option_strings}
                for name, p in sub.choices.items()}

    every = declared(None)
    for argv in ([], ["--help"], ["nosuch", "--input", "x"], ["--input", "verify"]):
        assert declared(argv) == every
    for name in every:
        assert declared([name, "--help"]) == {name: every[name]}


@pytest.mark.parametrize("argv", [["verify", "--input", "x.json", "--nosuch"],
                                  ["bolza", "extra"]])
def test_named_subcommand_errors_show_every_subcommand(argv, monkeypatch, capsys):
    # argparse reports an unread argument with the top-level usage line,
    # which names every subcommand though only argv[0]'s parser is built
    from oscym.cli import main

    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert capsys.readouterr().err == (
        "usage: oscym [-h] {validate,density,slope,measure,verify,converge,weak-cont,"
        "homog,bolza} ...\n"
        f"oscym: error: unrecognized arguments: {argv[-1]}\n")


def test_readme_option_table_matches_the_parser():
    import argparse
    import re

    from oscym.cli import build_parser

    readme = (SRC.parent / "README.md").read_text()
    table = readme.split("| subcommand | options |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    documented = {}
    for row in table.splitlines():
        names, options = row.strip("|").split("|")
        for name in re.findall(r"`([\w-]+)`", names):
            documented[name] = set(re.findall(r"`(--[\w-]+)`", options)) | {"--out", "--format"}
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert documented == {
        name: {s for a in p._actions if not isinstance(a, argparse._HelpAction)
               for s in a.option_strings}
        for name, p in sub.choices.items()
    }


def test_readme_range_table_covers_every_option_that_takes_a_value():
    import argparse
    import re

    from oscym.cli import build_parser

    readme = (SRC.parent / "README.md").read_text()
    table = readme.split("| option | range |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    documented = {name for row in table.splitlines()
                  for name in re.findall(r"`(--[\w-]+)`", row.strip("|").split("|")[0])}
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    valued = {s for p in sub.choices.values() for a in p._actions if a.nargs != 0
              for s in a.option_strings} - {"--input", "--out", "--format"}
    assert documented == valued


def test_unread_option_is_rejected(amp_spec):
    from oscym.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["converge", "--input", amp_spec, "--seed", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["weak-cont", "homog", "bolza"])
def test_set_mass_commands_take_no_quad_tol(command, capsys):
    from oscym.cli import main

    # set masses are exact, and the sawtooth's Bolza integrands are exact in
    # one quadrature panel: no command has a tolerance of quadrature to set
    with pytest.raises(SystemExit) as exc:
        main([command, "--quad-tol", "1e-7"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --quad-tol 1e-7" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["weak-cont", "homog"])
def test_a_non_finite_set_mass_is_a_numeric_error(command, monkeypatch, capsys):
    from oscym import cli
    from oscym.convergence import NonhomogeneousDensityFamily
    from oscym.domain import Domain1D

    from conftest import flat_density

    # every set mass of the density NaN is NaN: no verdict can be read from it
    nan_density = flat_density(math.nan)
    family = NonhomogeneousDensityFamily(
        domain=Domain1D(0.0, 1.0), evaluator=lambda x: nan_density, range_K=(0.0, 1.0))
    monkeypatch.setattr(cli, "_builtin_family", lambda name: family)
    assert cli.main([command]) == cli.EXIT_NUMERIC
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "numeric error: mass nan of the dyadic set [0.0, 0.015625] is not finite\n"


def custom_sequence(path, functions):
    """Write a custom sequence spec over the given function specs, with
    indices [1, len(functions)]."""
    path.write_text(json.dumps({
        "family": "custom", "params": {"functions": functions},
        "indices": [1, len(functions)]}))
    return str(path)


def ramp_and_plateau(value):
    # 2x on (0, 0.5), then the constant value on (0.5, 1): density 1/2 on
    # (0, 1) plus an atom of weight 1/2 at value
    return {"domain": [0.0, 1.0], "pieces": [
        {"interval": [0.0, 0.5], "kind": "affine",
         "params": {"slope": 2.0, "intercept": 0.0}},
        {"interval": [0.5, 1.0], "kind": "constant", "params": {"value": value}},
    ]}


def converge_json(capsys, spec, *extra):
    from oscym.cli import main

    rc = main(["converge", "--input", spec, "--format", "json", *extra])
    return rc, json.loads(capsys.readouterr().out)["result"]


def test_converge_counts_atoms(tmp_path, capsys):
    # the densities agree for every n; only the atom jumps between 0.2 and 0.8
    spec = custom_sequence(tmp_path / "jumping.json",
                           [ramp_and_plateau(0.2 if n % 2 else 0.8)
                            for n in range(1, 17)])
    rc, result = converge_json(capsys, spec, "--window", "4,16", "--depth", "3")
    assert rc == 1
    assert result["converged"] is False
    assert result["worst_residual"] == 0.5
    assert "limit_atoms" not in result


def test_converge_on_constant_functions(tmp_path, capsys):
    constant = {"domain": [0.0, 1.0], "pieces": [
        {"interval": [0.0, 1.0], "kind": "constant", "params": {"value": 0.5}}]}
    spec = custom_sequence(tmp_path / "constant.json", [constant] * 8)
    rc, result = converge_json(capsys, spec, "--window", "2,8", "--depth", "2")
    assert rc == 0
    assert result["converged"] is True
    assert result["worst_residual"] == 0.0
    assert result["limit_atoms"] == [[0.5, 1.0]]


@pytest.mark.parametrize("family, indices, window", [
    ("custom", [1, 16], None),
    ("amplitude_tent", [1, 16], "8,64"),
    ("amplitude_tent", [10, 64], "8,64"),
])
def test_converge_window_outside_indices_is_input_error(tmp_path, capsys,
                                                        family, indices, window):
    from oscym.cli import main

    path = tmp_path / "seq.json"
    if family == "custom":
        custom_sequence(path, [ramp_and_plateau(0.5)] * indices[1])
    else:
        path.write_text(json.dumps(
            {"family": family, "params": {}, "indices": indices}))
    rc = main(["converge", "--input", str(path),
               *(("--window", window) if window else ())])
    assert rc == 2
    assert "indices" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["bolza", "--n-list", "1,,2"],
    ["bolza", "--n-list", "2.5"],
    ["bolza", "--n-list", "0"],
    ["bolza", "--gradient-ym", "--n", "0"],
    ["weak-cont", "--n-start", "0"],
    ["weak-cont", "--n-start", "5", "--n-stop", "3"],
    ["weak-cont", "--depth", "-1"],
    ["converge", "--input", "amp", "--depth", "-1"],
    ["density", "--input", "tent", "--grid", "-3"],
    ["homog", "--tol", "nan"],
    ["converge", "--input", "amp", "--tol", "-1"],
    ["weak-cont", "--tol", "inf"],
    ["verify", "--input", "tent", "--seed", "-1"],
    ["verify", "--input", "tent", "--seed", str(2 ** 128)],
    ["YM_SEED=abc", "verify", "--input", "tent"],
    ["YM_SEED=-5", "verify", "--input", "tent"],
    ["homog", "--family", "triangle"],
    ["converge", "--input", "amp", "--window", "8"],
    ["converge", "--input", "amp", "--window", "9,8"],
    ["weak-cont", "--x0", "0.9", "--n-start", "3"],
    ["homog", "--x-samples", "1"],
], ids=["n-list-empty-item", "n-list-fraction", "n-list-zero", "gradient-n-zero",
        "n-start-zero", "n-start-past-n-stop", "weak-cont-depth-negative",
        "converge-depth-negative", "grid-negative", "tol-nan", "tol-negative",
        "tol-infinite", "seed-negative", "seed-past-128-bits", "seed-env-not-a-number",
        "seed-env-negative", "family-unknown", "window-one-number", "window-decreasing",
        "x-outside-family-domain", "x-samples-one"])
def test_out_of_range_option_is_an_input_error(argv, amp_spec, tent_spec, capsys,
                                               monkeypatch):
    from oscym.cli import main

    # a leading NAME=value sets an environment variable, as in a shell
    while "=" in argv[0]:
        name, value = argv[0].split("=")
        monkeypatch.setenv(name, value)
        argv = argv[1:]
    argv = [{"amp": amp_spec, "tent": tent_spec}.get(a, a) for a in argv]
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    assert rc == 2
    err = capsys.readouterr().err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1, err
    assert "Traceback" not in err


def test_density_on_an_empty_grid_prints_the_header(tent_spec, capsys):
    from oscym.cli import main

    assert main(["density", "--input", tent_spec, "--grid", "0"]) == 0
    assert capsys.readouterr().out == "y,g\n"


def test_seed_range_ends_are_accepted(tent_spec, capsys):
    from oscym.cli import main

    for seed in ("0", str(2 ** 128 - 1)):
        assert main(["verify", "--input", tent_spec, "--samples", "1000",
                     "--seed", seed]) == 0
    capsys.readouterr()


AFFINE = {"interval": [0.0, 1.0], "kind": "affine",
          "params": {"slope": 1.0, "intercept": 0.0}}


def one_piece(kind, **params):
    return {"domain": [0.0, 1.0],
            "pieces": [{"interval": [0.0, 1.0], "kind": kind, "params": params}]}


@pytest.mark.parametrize("spec", [
    {"domain": [0.0, 1.0], "pieces": [5]},
    {"family": "custom", "params": {"functions": [1, 2]}, "indices": [1, 2]},
    one_piece("affine", slope=None, intercept=0.0),
    one_piece("power", exponent="x"),
    {"family": "roubicek", "params": {"teeth": "x"}, "indices": [1, 64]},
    {"family": "sin", "params": {}, "indices": ["a", 4]},
    {"domain": [0, "b"], "pieces": [AFFINE]},
    one_piece("affine", slope=0, intercept=0.5),
    one_piece("sin", amplitude=0.0, frequency=3.0, phase=0.0),
    one_piece("sin", amplitude=1.0, frequency=0.0, phase=0.5),
    {"family": "roubicek", "params": {"teeth": -2}, "indices": [1, 64]},
    {"family": "roubicek", "params": {"teeth": -1}, "indices": [1, 64]},
    one_piece("sin", amplitude=1.0, frequency=math.nan, phase=0.0),
    one_piece("sin", amplitude=1.0, frequency=math.inf, phase=0.0),
    one_piece("constant", value=math.nan),
    one_piece("affine", slope=math.nan, intercept=0.0),
    {"domain": [0.0, math.inf], "pieces": [
        {"interval": [0.0, math.inf], "kind": "constant", "params": {"value": 1.0}}]},
    {"domain": [-math.inf, 1.0], "pieces": [AFFINE]},
    {"domain": [0.0, 1.0], "pieces": [
        {"interval": [0.0, math.inf], "kind": "constant", "params": {"value": 1.0}}]},
    {"domain": [0.0, 1.0], "pieces": [
        {"interval": [-math.inf, 1.0], "kind": "constant", "params": {"value": 1.0}}]},
    {"domain": [0.0, 1.0], "pieces": [dict(AFFINE, interval=[0.0, 0.5, 1.0])]},
    {"domain": [0.0, 1.0], "pieces": [dict(AFFINE, params=[1.0, 0.0])]},
    one_piece("power", exponent=0.0),
    {"domain": [-1.0, 1.0], "pieces": [
        {"interval": [-1.0, 1.0], "kind": "power", "params": {"exponent": 2.0}}]},
    {"domain": [0.0, 1.0], "pieces": []},
    [one_piece("affine", slope=1.0, intercept=0.0)],
    {"family": "roubicek", "params": [8], "indices": [1, 64]},
    {"family": "roubicek", "params": {}, "indices": [1, 8, 64]},
    {"family": "roubicek", "params": {}, "indices": [64, 1]},
    one_piece("expr", expr="-" * 400 + "x"),
    {"family": "roubicek", "params": {"teeth": 10 ** 15}, "indices": [1, 64]},
    {"family": "roubicek", "params": {"teeth": 10 ** 20}, "indices": [1, 64]},
], ids=["piece-not-an-object", "function-not-an-object", "slope-null",
        "exponent-not-a-number", "teeth-not-a-number", "index-not-a-number",
        "domain-end-not-a-number", "slope-zero", "sin-amplitude-zero",
        "sin-frequency-zero", "teeth-negative", "teeth-minus-one",
        "sin-frequency-nan", "sin-frequency-infinity", "constant-value-nan", "affine-slope-nan",
        "domain-end-infinity", "domain-end-minus-infinity", "piece-end-infinity",
        "piece-end-minus-infinity", "interval-three-ends", "params-not-an-object",
        "power-exponent-zero", "power-interval-below-zero", "pieces-empty",
        "spec-a-list", "sequence-params-not-an-object", "indices-three-long",
        "indices-decreasing", "expr-nested-too-deep", "teeth-past-exact-quotients",
        "teeth-past-array-size"])
def test_malformed_spec_value_is_an_input_error(spec, tmp_path, capsys):
    from oscym.cli import main

    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    command = "converge" if "family" in spec else "validate"
    assert main([command, "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: "), err
    assert len(err.splitlines()) == 1, err


def test_validate_rejects_a_flat_diffeomorphic_piece(tmp_path, capsys):
    from oscym.cli import main

    # 0*x + 1 is constant: no forward difference is positive or negative
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(one_piece("expr", expr="0*x + 1")))
    assert main(["validate", "--input", str(path)]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        "non_monotone,0,non-monotone piece 0: forward differences are all zero,0"]


@pytest.mark.parametrize("command", ["density", "slope", "measure", "verify"])
def test_every_spec_reader_rejects_an_invalid_function_alike(command, tmp_path, capsys):
    from oscym.cli import main

    path = tmp_path / "flat.json"
    path.write_text(json.dumps(one_piece("expr", expr="0*x + 1")))
    assert main([command, "--input", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: function failed validation: "
                   "non-monotone piece 0: forward differences are all zero\n")


def affine_pieces(*pieces):
    """A function spec on (0, 1) from (lo, hi, slope, intercept) tuples."""
    return {"domain": [0.0, 1.0], "pieces": [
        {"interval": [lo, hi], "kind": "affine",
         "params": {"slope": slope, "intercept": intercept}}
        for lo, hi, slope, intercept in pieces]}


def test_converge_reads_every_slope_cell(tmp_path, capsys):
    from oscym.cli import main

    # the identity, alternating with a function of four affine pieces whose
    # total slope is 2 on [0.5001, 0.5002) and 0 on (0.7001, 0.7002):
    # neither cell holds a point of the evenly spaced slope grid
    identity = affine_pieces((0.0, 1.0, 1.0, 0.0))
    bumpy = affine_pieces((0.0, 0.5002, 1.0, 0.0),
                          (0.5002, 0.5003, -1.0, 1.0004),
                          (0.5003, 0.7002, 1.0, -0.0001),
                          (0.7002, 1.0, 1.0, 0.0))
    spec = custom_sequence(tmp_path / "alternating.json",
                           [bumpy if n % 2 else identity for n in range(16)])
    assert main(["converge", "--input", spec, "--window", "2,16"]) == 2
    assert "monotone" in capsys.readouterr().err


def rising_halves(length, cut):
    """Two rising affine pieces on (0, length) that meet at 1/2 at x = cut:
    (0, cut) onto [0, 1/2] and (cut, length) onto [1/2, 1]."""
    s1, s2 = 0.5 / cut, 0.5 / (length - cut)
    return {"domain": [0.0, length], "pieces": [
        {"interval": [0.0, cut], "kind": "affine", "params": {"slope": s1, "intercept": 0.0}},
        {"interval": [cut, length], "kind": "affine",
         "params": {"slope": s2, "intercept": 0.5 - s2 * cut}}]}


@pytest.mark.parametrize("length", [1.0, 1e-10, 2.0 ** -40])
def test_converge_slope_check_is_free_of_the_scale_of_x(tmp_path, capsys, length):
    from oscym.cli import main

    # densities 1 for the cut at length/2; 1/2 below y = 1/2 and 3/2 above
    # it for the cut at length/4: one falls and one rises at every length
    spec = custom_sequence(tmp_path / "halves.json", [rising_halves(length, length / 2),
                                                      rising_halves(length, length / 4)])
    assert main(["converge", "--input", spec, "--window", "1,2", "--depth", "2",
                 "--tol", "1"]) == 2
    assert "monotone" in capsys.readouterr().err


def halves_and_steep_tail(cut, slope):
    """`rising_halves(1, cut)` on (0, 1), then a rising piece of the given
    slope on (1, 2) onto [1/4, 1/4 + slope]."""
    spec = rising_halves(1.0, cut)
    spec["domain"] = [0.0, 2.0]
    spec["pieces"].append({"interval": [1.0, 2.0], "kind": "affine",
                           "params": {"slope": slope, "intercept": 0.25 - slope}})
    return spec


@pytest.mark.parametrize("slope", [1e-8, 1e-9, 1e-11])
def test_a_steep_density_hides_no_other_slope_step(tmp_path, capsys, slope):
    from oscym.cli import main

    # densities 1/2 for the cut at 1/2; 1/4 below y = 1/2 and 3/4 above it
    # for the cut at 1/4: one falls and one rises.  Both add 1 / (2 slope) on
    # [1/4, 1/4 + slope], a density that must not widen the tol elsewhere
    spec = custom_sequence(tmp_path / "steep.json", [halves_and_steep_tail(0.5, slope),
                                                     halves_and_steep_tail(0.25, slope)])
    assert main(["converge", "--input", spec, "--window", "1,2", "--depth", "2",
                 "--tol", "1"]) == 2
    assert "monotone" in capsys.readouterr().err


@pytest.mark.parametrize("spec, density", [
    (rising_halves(2.0 ** 40, 2.0 ** 39), "1"),
    (affine_pieces((0.0, 0.5, 2e-13, 0.0), (0.5, 1.0, -2e-13, 2e-13)), "10000000000000"),
], ids=["x-over-2**40", "tent-1e-13-high"])
def test_density_is_finite_at_a_small_slope(tmp_path, capsys, spec, density):
    from oscym.cli import main

    # x / 2**40 on (0, 2**40) is the uniform law on [0, 1], whatever the
    # unit of x; a tent of height 1e-13 has density 1 / 1e-13 on its range
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["density", "--input", str(path), "--grid", "5"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "y,g"
    assert [row.split(",")[1] for row in rows[1:]] == [density] * 5


def test_converge_takes_equal_infinite_densities_as_a_flat_step(tmp_path):
    # x^2 on (0, 1), then 3 - 2x on (1, 2), twice: the common range is
    # [-1, 1], and at its interior grid point y = 0 the inverse slope of x^2
    # is inf, so inf - inf must count as no step, not as NaN
    g = {"domain": [0.0, 2.0], "pieces": [
        {"interval": [0.0, 1.0], "kind": "power", "params": {"exponent": 2.0}},
        {"interval": [1.0, 2.0], "kind": "affine", "params": {"slope": -2.0, "intercept": 3.0}}]}
    spec = custom_sequence(tmp_path / "square-and-line.json", [g, g])
    r = run_cli("converge", "--input", spec, "--window", "1,2", "--depth", "2", "--tol", "1")
    assert (r.returncode, r.stderr) == (0, "")
