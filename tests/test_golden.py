"""Golden CLI output: each case's CSV must match its file byte for byte.

The files under tests/data were written by the commit that added this test.
A change that moves any printed digit fails here; one that fixes a wrong
value regenerates the affected file in the same change and says why.
"""
from pathlib import Path

import pytest

from oscym import cli

DATA = Path(__file__).resolve().parent / "data"
README_WINDOW = ("--window", "8,64", "--depth", "6")
ORACLE = ("--seed", "7", "--samples", "200000")

CASES = {
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_file(name, tmp_path):
    command, spec, *extra = CASES[name]
    out = tmp_path / f"{name}.csv"
    rc = cli.main([command, "--input", str(DATA / spec), *extra, "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == (DATA / f"{name}.csv").read_bytes()
