"""Golden CLI output: each case's output must match its file byte for byte.

The files under tests/data were written by the commit that added each
case.  A change that moves any printed digit fails here; one that fixes a
wrong value regenerates the affected file in the same change and says why.
Each case runs from a fresh directory with a relative spec path and output
path, so the `config` block of JSON output holds no machine path.
"""
import shutil
from pathlib import Path

import pytest

from oscym import cli

DATA = Path(__file__).resolve().parent / "data"
README_WINDOW = ("--window", "8,64", "--depth", "6")
ORACLE = ("--seed", "7", "--samples", "200000")

# name -> (command, spec file, extra options), golden output in name.csv
CSV_CASES = {
    "converge_roubicek8": ("converge", "roubicek8.json", *README_WINDOW),
    "converge_amplitude_tent": ("converge", "amplitude_tent.json", *README_WINDOW),
    **{f"{command}_{spec}": (command, f"{spec}.json", "--grid", "101")
       for command in ("density", "slope", "measure")
       for spec in ("tent", "sine", "power")},
    **{f"{command}_expr": (command, "expr.json", "--grid", "101")
       for command in ("density", "slope")},
    **{f"verify_{spec}": ("verify", f"{spec}.json", *ORACLE)
       for spec in ("tent", "sine", "power", "atoms", "expr")},
}

# the same form, golden output in name.json
JSON_CASES = {
    "density_sine": ("density", "sine.json", "--grid", "101"),
    "measure_atoms": ("measure", "atoms.json", "--grid", "101"),
    "validate_expr": ("validate", "expr.json"),
    "converge_amplitude_tent": ("converge", "amplitude_tent.json", *README_WINDOW),
    "verify_atoms": ("verify", "atoms.json", *ORACLE),
}

# commands that read no spec, run in both formats
SPEC_FREE_CASES = {
    "weak-cont": ("weak-cont",),
    "homog": ("homog",),
    "bolza": ("bolza",),
    "bolza_gradient_ym": ("bolza", "--gradient-ym"),
}

# case id -> (golden file, argv without --out)
CASES = {
    **{name: (f"{name}.csv", (command, "--input", spec, *extra))
       for name, (command, spec, *extra) in CSV_CASES.items()},
    **{f"{name}_json": (f"{name}.json",
                        (command, "--input", spec, *extra, "--format", "json"))
       for name, (command, spec, *extra) in JSON_CASES.items()},
    **{f"{name}{suffix}": (f"{name}.{fmt}", (*argv, "--format", fmt))
       for name, argv in SPEC_FREE_CASES.items()
       for fmt, suffix in (("csv", ""), ("json", "_json"))},
}

# the triangular family is not homogeneous: a negative verdict
EXIT_CODES = {"homog": 1, "homog_json": 1}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_file(name, tmp_path, monkeypatch):
    golden, argv = CASES[name]
    if "--input" in argv:
        spec = argv[argv.index("--input") + 1]
        shutil.copy(DATA / spec, tmp_path / spec)
    monkeypatch.chdir(tmp_path)
    rc = cli.main([*argv, "--out", golden])
    assert rc == EXIT_CODES.get(name, 0)
    assert (tmp_path / golden).read_bytes() == (DATA / golden).read_bytes()
