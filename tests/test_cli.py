import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oscym.measures import DensityFunction

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*argv, env_extra=None):
    # the child imports oscym from this checkout, as the tests do
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "oscym", *argv],
        capture_output=True, text=True, env=env)


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
    grid = np.asarray(payload["result"]["density_grid"], dtype=float)
    rebuilt = DensityFunction.from_grid(grid[:, 0], grid[:, 1])
    assert rebuilt.support == tuple(payload["result"]["range"])
    for y in np.linspace(0.05, 0.95, 10):
        assert rebuilt(float(y)) == pytest.approx(1.0, abs=1e-6)


def test_csv_floats_roundtrip_exactly(tent_spec):
    r = run_cli("slope", "--input", tent_spec, "--grid", "7")
    vals = [float(line.split(",")[0]) for line in r.stdout.strip().splitlines()[1:]]
    expect = np.linspace(0.0, 1.0, 7)
    assert vals == [float(v) for v in expect]


def test_exit_2_on_missing_file():
    r = run_cli("density", "--input", "/nonexistent/spec.json")
    assert r.returncode == 2
    assert "input error" in r.stderr


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
    # model (MERGE_SNAP is 1e-12); the oracle must not fold them into one
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


OPTIONS = {
    "validate": set(),
    "density": {"--grid"},
    "slope": {"--grid"},
    "measure": {"--grid"},
    "verify": {"--seed", "--samples", "--bins"},
    "converge": {"--tol", "--window", "--depth"},
    "weak-cont": {"--tol", "--quad-tol", "--family", "--x0", "--n-start",
                  "--n-stop", "--depth"},
    "homog": {"--tol", "--quad-tol", "--family", "--x-samples"},
    "bolza": {"--quad-tol", "--n-list", "--gradient-ym", "--n"},
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
    assert sum(len(v) for v in declared.values()) == 48


def test_unread_option_is_rejected(amp_spec):
    from oscym.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["converge", "--input", amp_spec, "--seed", "1"])
    assert exc.value.code == 2


def test_homog_passes_quad_tol(monkeypatch, tmp_path):
    from oscym import cli, convergence

    seen = {}

    def fake(fam, x_samples=5, tol=1e-6, quad_tol=None):
        seen["quad_tol"] = quad_tol
        return True

    monkeypatch.setattr(convergence, "homogeneity_check", fake)
    out = tmp_path / "homog.csv"
    rc = cli.main(["homog", "--family", "uniform", "--quad-tol", "1e-7",
                   "--out", str(out)])
    assert rc == 0
    assert seen["quad_tol"] == 1e-7


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
    ["bolza", "--quad-tol", "-1", "--n-list", "1"],
    ["weak-cont", "--quad-tol", "0", "--n-stop", "8", "--depth", "2"],
    ["homog", "--quad-tol", "nan"],
    ["verify", "--input", "tent", "--seed", "-1"],
    ["verify", "--input", "tent", "--seed", str(2 ** 128)],
    ["YM_SEED=abc", "verify", "--input", "tent"],
    ["YM_SEED=-5", "verify", "--input", "tent"],
], ids=["n-list-empty-item", "n-list-fraction", "n-list-zero", "gradient-n-zero",
        "n-start-zero", "n-start-past-n-stop", "weak-cont-depth-negative",
        "converge-depth-negative", "grid-negative", "tol-nan", "tol-negative",
        "tol-infinite", "quad-tol-negative", "quad-tol-zero", "quad-tol-nan",
        "seed-negative", "seed-past-128-bits", "seed-env-not-a-number",
        "seed-env-negative"])
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
], ids=["piece-not-an-object", "function-not-an-object", "slope-null",
        "exponent-not-a-number", "teeth-not-a-number", "index-not-a-number",
        "domain-end-not-a-number", "slope-zero", "sin-amplitude-zero",
        "sin-frequency-zero", "teeth-negative", "teeth-minus-one"])
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
