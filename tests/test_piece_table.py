"""Total slopes and Young densities on whole arrays of y.

The array path must give, at every point, the value the same function
gives for that point alone: the same pieces hit under the half-open image
rule, the same inverse slopes, added in the same order.
"""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscym import cli, convergence, measures
from oscym.domain import DIFFEOMORPHIC, Domain1D, MOscillatingFunction, inverse_slope
from oscym.errors import ConstructionError, SingularSlopeError
from oscym.families import affine_piece, roubicek
from oscym.funcspec import build_function
from oscym.measures import total_slope, young_density

from test_exact_masses import affine_or_sine_specs


@st.composite
def power_specs(draw):
    """Function specs of 1-4 power pieces x^p on consecutive intervals of
    [0, 4]; a negative exponent never starts at 0."""
    n = draw(st.integers(1, 4))
    lower = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
    cuts = [lower]
    for _ in range(n):
        cuts.append(cuts[-1] + draw(st.floats(0.1, 0.75)))
    pieces = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        sign = draw(st.sampled_from((-1.0, 1.0))) if a > 0 else 1.0
        exponent = sign * draw(st.floats(0.25, 3.0))
        pieces.append({"interval": [a, b], "kind": "power",
                       "params": {"exponent": exponent}})
    return {"domain": [cuts[0], cuts[-1]], "pieces": pieces}


def y_grid(f, interior):
    """Every piece-image endpoint and its neighbouring doubles, the top of
    range_K, points outside the range, and the given interior fractions."""
    lo, hi = f.range_K
    ends = [v for p in f.pieces for v in p.image]
    near = [np.nextafter(v, s) for v in ends for s in (-math.inf, math.inf)]
    inside = [lo + u * (hi - lo) for u in interior]
    outside = [lo - 1.0, hi + 1.0, hi + 1e-9]
    return np.array(ends + near + [hi] + inside + outside)


def loop_slope_sum(f, y):
    """The pointwise loop the array path replaced, kept as its reference."""
    top = f.range_K[1]
    slack = 1e-12 * max(1.0, abs(f.range_K[0]), abs(top))
    total = 0.0
    for p in f.pieces:
        if p.kind != DIFFEOMORPHIC:
            continue
        lo, hi = p.image
        on_top = hi >= top - slack and abs(y - hi) <= slack
        if not (lo - slack <= y < hi - slack or on_top):
            continue
        try:
            total += inverse_slope(p, y)
        except SingularSlopeError:
            return math.inf
    return total


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(spec=st.one_of(affine_or_sine_specs(), power_specs()),
       interior=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
def test_array_path_equals_scalar_path(spec, interior):
    f = build_function(spec)
    ys = y_grid(f, interior)
    slopes = total_slope(f, ys)
    assert np.array_equal(slopes, [total_slope(f, float(y)) for y in ys])
    assert np.array_equal(slopes, [loop_slope_sum(f, float(y)) for y in ys])
    assert np.array_equal(young_density(f, ys),
                          [young_density(f, float(y)) for y in ys])


def test_scalar_in_scalar_out():
    f = roubicek(3)
    assert type(total_slope(f, 0.5)) is float
    assert type(young_density(f, 0.5)) is float
    assert total_slope(f, np.array([0.25, 0.5])).shape == (2,)


def test_many_pieces_add_in_piece_order():
    # 65 pieces: numpy's pairwise summation of one column would reorder them
    f = roubicek(3)
    ys = np.concatenate([np.linspace(0.0, 1.0, 257), y_grid(f, [])])
    want = [loop_slope_sum(f, float(y)) for y in ys]
    assert np.array_equal(total_slope(f, ys), want)
    assert [total_slope(f, float(y)) for y in ys] == want
    assert [total_slope(f, np.array([y]))[0] for y in ys] == want


def test_flat_affine_piece_has_its_finite_slope_on_both_paths():
    # a closed-form slope is exact: 1e-11 is a slope, not a singularity
    f = MOscillatingFunction(
        domain=Domain1D(0.0, 2.0),
        pieces=(affine_piece(0.0, 1.0, 1e-11, 0.0),
                affine_piece(1.0, 2.0, 1.0, -1.0)))
    assert inverse_slope(f.pieces[0], 5e-12) == 1e11
    ys = np.array([0.0, 5e-12, 0.5, 1.0, 2.0])
    want = [1e11 + 1.0, 1e11 + 1.0, 1.0, 1.0, 0.0]
    assert total_slope(f, ys).tolist() == want
    assert [total_slope(f, float(y)) for y in ys] == want


def test_monotone_slope_check_makes_one_call_per_function(monkeypatch):
    calls = []
    real = convergence.total_slope
    monkeypatch.setattr(convergence, "total_slope",
                        lambda f, y: calls.append(f) or real(f, y))
    fs = [roubicek(n, teeth=8) for n in range(1, 6)]
    assert convergence.monotone_slope_check(fs, np.linspace(0.0, 1.0, 33))
    assert len(calls) == len(fs)


def test_density_command_makes_one_density_call(monkeypatch, tmp_path):
    calls = []
    real = measures.young_density
    monkeypatch.setattr(measures, "young_density",
                        lambda f, y: calls.append(y) or real(f, y))
    spec = tmp_path / "tent.json"
    spec.write_text(json.dumps({"domain": [0.0, 1.0], "pieces": [
        {"interval": [0.0, 0.5], "kind": "affine",
         "params": {"slope": 2.0, "intercept": 0.0}},
        {"interval": [0.5, 1.0], "kind": "affine",
         "params": {"slope": -2.0, "intercept": 2.0}}]}))
    rc = cli.main(["density", "--input", str(spec), "--grid", "101",
                   "--out", str(tmp_path / "g.csv")])
    assert rc == 0
    assert len(calls) == 1


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(ends=st.lists(st.one_of(FINITE, st.integers(-10 ** 6, 10 ** 6)),
                     min_size=2, max_size=2, unique=True),
       slope=FINITE.filter(bool), intercept=st.one_of(FINITE, st.integers(-9, 9)))
def test_affine_image_is_bitwise_numpy_arithmetic(ends, slope, intercept):
    lo, hi = sorted(ends)
    with np.errstate(all="ignore"):  # numpy on 0-d arrays, as the forward map was
        ys = [float(slope * np.asarray(x, dtype=float) + intercept) for x in (lo, hi)]
    p = affine_piece(lo, hi, slope, intercept)
    if not all(map(math.isfinite, ys)):
        with pytest.raises(ConstructionError, match="no finite real value"):
            p.image
        return
    assert np.array(p.image).tobytes() == np.array([min(ys), max(ys)]).tobytes()
