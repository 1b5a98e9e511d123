"""Exact set masses from preimage lengths.

The Young density of a function carries its distribution function, and
every set mass is a difference of it.  Adaptive quadrature of the same
density, reached by dropping the distribution function, is the reference.
"""
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from hypothesis import given, settings, strategies as st

from oscym import integrate_density, integrate_test, tv_norm, young_measure
from oscym.funcspec import build_function

SRC = Path(__file__).resolve().parent.parent / "src"


@st.composite
def affine_or_sine_specs(draw):
    """Function specs of 1-6 affine or sine pieces over a random domain.

    A sine piece runs over part of one monotone branch of A sin(w x + phase),
    rising or falling; it may reach the extremum, where its density is
    singular.  Amplitudes sit on a 1e-3 grid: two extrema one ulp apart
    hold a mass of order sqrt(ulp) between them, which the quadrature
    reference cannot resolve (it returns inf there; the exact masses do not).
    """
    n = draw(st.integers(1, 6))
    lower = draw(st.floats(-2.0, 2.0))
    widths = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    cuts = [lower]
    for w in widths:
        cuts.append(cuts[-1] + w)
    pieces = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        if draw(st.booleans()):
            slope = draw(st.floats(0.2, 5.0)) * draw(st.sampled_from((-1.0, 1.0)))
            pieces.append({"interval": [a, b], "kind": "affine",
                           "params": {"slope": slope,
                                      "intercept": draw(st.floats(-3.0, 3.0))}})
        else:
            u0 = draw(st.one_of(st.just(0.0), st.floats(0.05, 0.45)))
            u1 = draw(st.one_of(st.just(1.0), st.floats(0.55, 0.95)))
            branch = draw(st.sampled_from((0.0, math.pi)))
            t0 = branch - math.pi / 2 + math.pi * u0
            t1 = branch - math.pi / 2 + math.pi * u1
            freq = (t1 - t0) / (b - a)
            pieces.append({"interval": [a, b], "kind": "sin",
                           "params": {"amplitude": draw(st.integers(500, 2000)) / 1000,
                                      "frequency": freq,
                                      "phase": t0 - freq * a}})
    return {"domain": [cuts[0], cuts[-1]], "pieces": pieces}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(spec=affine_or_sine_specs(), data=st.data())
def test_exact_masses_match_quadrature(spec, data):
    f = build_function(spec)
    m = young_measure(f)
    assert abs(tv_norm(m) - 1.0) <= 1e-9
    g = m.density
    by_quadrature = replace(g, cdf=None)
    lo, hi = f.range_K
    for _ in range(4):
        a, b = sorted(data.draw(st.floats(lo - 0.5, hi + 0.5)) for _ in range(2))
        exact = integrate_density(g, (a, b))
        assert abs(exact - integrate_density(by_quadrature, (a, b))) <= 1e-9


def test_mass_commands_do_not_import_scipy(tmp_path):
    spec = tmp_path / "roubicek.json"
    spec.write_text(json.dumps(
        {"family": "roubicek", "params": {"teeth": 8}, "indices": [1, 16]}))
    probe = (
        "import sys\n"
        "import oscym.cli\n"
        "assert 'scipy.integrate' not in sys.modules, 'loaded by import'\n"
        f"rc = oscym.cli.main(['converge', '--input', {str(spec)!r},\n"
        "                      '--window', '4,16', '--depth', '4'])\n"
        "assert rc == 0, rc\n"
        "assert 'scipy.integrate' not in sys.modules, 'loaded by converge'\n"
    )
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                       text=True, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert r.returncode == 0, r.stderr


def test_integrate_test_with_extrema_one_ulp_apart():
    # two full sine branches whose maxima, 0.5 and 0.5000000000000001, sit
    # one ulp apart: the density in y is infinite at both, but phi(f(x))
    # is bounded in x
    w = math.pi / 2.5
    f = build_function({"domain": [0.0, 5.0], "pieces": [
        {"interval": [0.0, 2.5], "kind": "sin",
         "params": {"amplitude": 0.5, "frequency": w, "phase": -math.pi / 2}},
        {"interval": [2.5, 5.0], "kind": "sin",
         "params": {"amplitude": 0.5000000000000001, "frequency": w,
                    "phase": -math.pi / 2}},
    ]})
    m = young_measure(f)
    for phi, expected in ((lambda y: 1.0, 1.0), (lambda y: y * y, 0.125),
                          (abs, 1.0 / math.pi)):
        assert abs(integrate_test(m, phi) - expected) <= 1e-9
