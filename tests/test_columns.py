"""The per-kind columns of the piece table against the per-Piece forms.

A function reads its affine, sin, power and constant pieces from the
columns of its piece table, each kind's maps one array kernel.  The
reference is the same function with every piece handed over as a Piece of
closures (`conftest.closure_function`): the closed forms as they were
before the columns, kept with the Pieces of maps given as callables, so
the image, inverse and validation of each run piece by piece.  Every value
must agree bitwise, at image ends and one ulp on either side of them.
"""
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oscym.domain import (CONSTANT, Domain1D, MOscillatingFunction, Piece, affine_table,
                          evaluate_many, table_of_rows, validate)
from oscym.errors import ConstructionError
from oscym.families import (affine_piece, constant_piece, half_plateau, roubicek,
                            roubicek_family, tent_map)
from oscym.funcspec import build_function
from oscym.measures import (merge_atoms, total_slope, unvalidated_young_measure,
                            young_density_function)

from conftest import (affine_closures, closure_function, closure_piece, rising_sawtooth,
                      sine_closures)
from test_exact_masses import affine_or_sine_specs
from test_piece_table import power_specs, y_grid

DATA = Path(__file__).resolve().parent / "data"
FINITE = st.floats(allow_nan=False, allow_infinity=False)
SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def outcome(build):
    """build(), or the text of the ConstructionError it raises."""
    try:
        return build()
    except ConstructionError as exc:
        return f"error: {exc}"


def report(f):
    return [(v.code, v.piece_index, v.message, repr(v.measured))
            for v in validate(f).violations]


@SETTINGS
@given(ends=st.lists(st.one_of(FINITE, st.integers(-10, 10)), min_size=2, max_size=2,
                     unique=True),
       slope=FINITE.filter(bool), intercept=FINITE)
# end values 0.0 and -0.0: Python's min and max keep the first of equal values
@example(ends=[-1e-300, 1e-300], slope=-1e-300, intercept=-0.0)
@example(ends=[-1e-300, 1e-300], slope=1e-300, intercept=-0.0)
def test_affine_columns_image_as_the_piece_does(ends, slope, intercept):
    lo, hi = sorted(map(float, ends))
    want = outcome(lambda: bits(affine_closures(lo, hi, slope, intercept).image))
    by_rows = outcome(lambda: table_of_rows([(lo, hi, "affine", (slope, intercept))]))
    by_columns = outcome(lambda: affine_table([lo], [hi], [slope], [intercept]))
    for got in (by_rows, by_columns):
        assert got == want if isinstance(want, str) else bits([got.lo[0], got.hi[0]]) == want


@SETTINGS
@given(rows=st.lists(st.tuples(st.sampled_from(["affine", "expr", "constant"]),
                               st.sampled_from([1.0, 1e300, 1e308]),
                               st.sampled_from([1.0, -1.0])),
                     min_size=1, max_size=6),
       order=st.randoms(use_true_random=False))
@example(rows=[("constant", 1.0, 1.0), ("affine", 1e308, 1.0), ("expr", 1.0, 1.0)],
         order=random.Random(0))
def test_the_first_piece_without_a_finite_end_raises_in_any_order(rows, order):
    # affine pieces that overflow on (i, i + 1) for i > 0 and expr pieces with
    # no finite value, mixed, listed in any order
    pieces, closures = [], []
    for i, (kind, slope, sign) in enumerate(rows):
        lo, hi = float(i), i + 1.0
        if kind == "affine":
            pieces.append(affine_piece(lo, hi, sign * slope, 0.0))
            closures.append(affine_closures(lo, hi, sign * slope, 0.0))
        elif kind == "expr":
            pieces.append(Piece(lo, hi, forward=lambda x: np.log(np.asarray(x, float) - 99.0)))
            closures.append(pieces[-1])
        else:
            pieces.append(constant_piece(lo, hi, sign))
            closures.append(pieces[-1])
    shuffled = list(range(len(rows)))
    order.shuffle(shuffled)
    domain = Domain1D(0.0, float(len(rows)))
    want = outcome(lambda: MOscillatingFunction(
        domain, tuple(closures[i] for i in shuffled)).range_K)
    assert outcome(lambda: MOscillatingFunction(
        domain, tuple(pieces[i] for i in shuffled)).range_K) == want


@st.composite
def mixed_specs(draw):
    """Affine, sine and constant pieces partitioning a domain, listed in any
    order."""
    spec = draw(affine_or_sine_specs())
    pieces = [dict(p) for p in spec["pieces"]]
    for p in pieces:
        if draw(st.integers(0, 3)) == 0:
            p["kind"], p["params"] = "constant", {"value": draw(st.floats(-3.0, 3.0))}
    return {"domain": spec["domain"], "pieces": draw(st.permutations(pieces))}


def old_atoms(f):
    """The atoms as a loop over the pieces made them."""
    return merge_atoms([(float(p.constant_value), p.length / f.measure_M)
                        for p in f.pieces if p.kind == CONSTANT])


@SETTINGS
@given(spec=mixed_specs(), interior=st.lists(st.floats(0.0, 1.0), max_size=10))
def test_mixed_functions_equal_their_per_piece_forms(spec, interior):
    f = build_function(spec)
    g = closure_function(spec)
    assert bits(f.range_K) == bits(g.range_K) == bits(
        (min(p.image[0] for p in g.pieces), max(p.image[1] for p in g.pieces)))
    ys = y_grid(f, interior)
    assert bits(total_slope(f, ys)) == bits(total_slope(g, ys))
    mf, mg = unvalidated_young_measure(f), unvalidated_young_measure(g)
    assert mf.atoms == mg.atoms == old_atoms(g)
    assert (mf.density is None) == (mg.density is None)
    if mf.density is not None:
        assert bits(mf.density.cdf(ys)) == bits(mg.density.cdf(ys))
        for depth in (0, 3, 6):
            edges = np.linspace(*f.range_K, 2 ** depth + 1)
            assert bits(mf.set_masses(edges)) == bits(mg.set_masses(edges))
    assert report(f) == report(g)


@st.composite
def sin_or_power_specs(draw):
    """Function specs of 1-4 sin and power pieces on consecutive intervals
    of [0, 5]: a sin piece runs over part of one monotone branch, reaching
    its extremum or not, and a power piece has an exponent of either sign
    (negative only away from 0)."""
    n = draw(st.integers(1, 4))
    cuts = [draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0)))]
    for _ in range(n):
        cuts.append(cuts[-1] + draw(st.floats(0.1, 1.0)))
    pieces = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        if draw(st.booleans()):
            u0 = draw(st.one_of(st.just(0.0), st.floats(0.05, 0.45)))
            u1 = draw(st.one_of(st.just(1.0), st.floats(0.55, 0.95)))
            branch = draw(st.sampled_from((0.0, math.pi, -2 * math.pi)))
            t0 = branch - math.pi / 2 + math.pi * u0
            t1 = branch - math.pi / 2 + math.pi * u1
            freq = (t1 - t0) / (b - a)
            params = {"amplitude": draw(st.floats(0.2, 3.0)) * draw(st.sampled_from((-1, 1))),
                      "frequency": freq, "phase": t0 - freq * a}
            pieces.append({"interval": [a, b], "kind": "sin", "params": params})
        else:
            sign = draw(st.sampled_from((-1.0, 1.0))) if a >= 0.1 else 1.0
            exponent = sign * draw(st.one_of(st.floats(0.05, 4.0), st.sampled_from(
                [0.5, 1.0, 2.0, 3.0])))
            pieces.append({"interval": [a, b], "kind": "power",
                           "params": {"exponent": exponent}})
    return {"domain": [cuts[0], cuts[-1]], "pieces": pieces}


@SETTINGS
@given(spec=st.one_of(sin_or_power_specs(), power_specs()),
       interior=st.lists(st.floats(0.0, 1.0), max_size=10))
def test_sin_and_power_columns_equal_their_closures(spec, interior):
    # the image ends, one ulp on either side of each, and interior values:
    # the kernels at the columns against the closures piece by piece
    f = build_function(spec)
    g = closure_function(spec)
    assert bits(f.piece_table.lo) == bits([p.image[0] for p in g.pieces])
    assert bits(f.piece_table.hi) == bits([p.image[1] for p in g.pieces])
    assert bits(f.range_K) == bits(g.range_K)
    ys = y_grid(f, interior)
    with np.errstate(all="ignore"):  # values outside a power piece's image
        for p, q in zip(f.pieces, g.pieces):
            xs = np.linspace(p.sub_lower, p.sub_upper, 9)
            assert bits(p.forward(xs)) == bits(q.forward(xs))
            assert bits(p.image) == bits(q.image)
            inside = np.clip(ys, *q.image)
            assert bits(p.invert(ys)) == bits(q.invert(ys))
            assert bits(p.inverse_slopes(inside)) == bits(q.inverse_slopes(inside))
    xs = np.linspace(*spec["domain"], 33)
    assert bits(evaluate_many(f, xs)) == bits(evaluate_many(g, xs))
    assert bits(total_slope(f, ys)) == bits(total_slope(g, ys))
    assert bits(young_density_function(f).cdf(ys)) == bits(young_density_function(g).cdf(ys))


@st.composite
def wild_rows(draw):
    """Rows of affine, sine and constant pieces on intervals that may
    overlap, leave gaps or leave the domain, with slopes and intercepts
    that make flat pieces and pieces whose inverse misses.  A sine piece
    stays inside one monotone branch: its extremum check is the columns'
    own (`test_a_sin_piece_is_monotone_iff_dense_samples_say_so`)."""
    rows = []
    for _ in range(draw(st.integers(1, 7))):
        lo = draw(st.floats(-2.0, 2.0))
        hi = lo + draw(st.sampled_from([1e-12, 1e-6, 0.25, 1.0]))
        kind = draw(st.sampled_from(["affine", "affine", "sin", "constant"]))
        if kind == "affine":
            slope = draw(st.sampled_from([1e-20, 1e-9, 1.0, 1e12])) * draw(
                st.sampled_from([1.0, -1.0])) * draw(st.floats(0.5, 2.0))
            intercept = draw(st.one_of(st.sampled_from([0.0, -0.0, 1.0, 1e12, -1e12]),
                                       st.floats(-1e12, 1e12)))
            rows.append((lo, hi, kind, (slope, intercept)))
        elif kind == "sin":
            # w x + phase runs over [t0, t1] inside ((k - 1/2) pi, (k + 1/2) pi)
            k = draw(st.integers(-3, 3))
            t0, t1 = sorted((k - 0.5 + draw(st.floats(0.01, 0.99))) * math.pi for _ in "ab")
            assume(t0 < t1)
            w = (t1 - t0) / (hi - lo)
            rows.append((lo, hi, kind, (draw(st.floats(0.5, 2.0)), w, t0 - w * lo)))
        else:
            rows.append((lo, hi, kind, draw(st.floats(-3.0, 3.0))))
    return rows


@SETTINGS
@given(rows=wild_rows(), domain=st.tuples(st.floats(-3.0, 0.0), st.floats(0.5, 4.0)),
       range_K=st.one_of(st.none(), st.tuples(st.floats(-2.0, 0.0), st.floats(0.0, 2.0))))
# a width whose sampling step underflows to zero, and an inverse that misses
# by 2.8e-6 on an image [-0.76, 22.3]: within the tolerance its top end sets
@example(rows=[(0.0, 5e-323, "affine", (1.0, 0.0)),
               (1.209060244672734, 1.209060247064072, "affine",
                (9647774049.511053, -11664740053.61325))],
         domain=(-1.0, 2.0), range_K=None)
# an inverse that misses by 1.3e-4 on a piece 1e-12 wide
@example(rows=[(0.0, 1.0, "affine", (1.0, 0.0)), (1.0, 1.0 + 1e-12, "affine", (1e12, -1e12))],
         domain=(0.0, 1.0), range_K=None)
def test_validate_reports_as_the_per_piece_checks(rows, domain, range_K):
    f = MOscillatingFunction.from_table(Domain1D(*domain), table_of_rows(rows), range_K)
    g = MOscillatingFunction(Domain1D(*domain), tuple(closure_piece(*r) for r in rows),
                             range_K)
    assert bits(f.range_K) == bits(g.range_K)
    # the closures finite-difference a sin inverse derivative, which the
    # rounding of w x + phase fails on a short piece of high frequency; the
    # columns' closed form is exact, and not checked that way
    kinds = [r[2] for r in sorted(rows, key=lambda r: r[0])]
    with np.errstate(all="ignore"):  # sine pieces probed outside their branch
        assert report(f) == [v for v in report(g) if not (
            v[0] == "inverse_derivative_mismatch" and kinds[v[1]] == "sin")]
    ys = y_grid(f, [0.25, 0.5])
    with np.errstate(all="ignore"):
        assert bits(total_slope(f, ys)) == bits(total_slope(g, ys))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(A=st.floats(0.2, 3.0), w=st.floats(0.5, 20.0), phase=st.floats(-3.0, 3.0),
       lo=st.floats(-2.0, 2.0), width=st.floats(0.01, 2.0))
def test_a_sin_piece_is_monotone_iff_dense_samples_say_so(A, w, phase, lo, width):
    hi = lo + width
    xs = np.linspace(lo, hi, 200_001)
    # away from ties: no extremum within 100 sample steps of an end
    m = np.arange(math.floor((w * lo + phase) / math.pi) - 1,
                  math.ceil((w * hi + phase) / math.pi) + 1)
    turns = ((m + 0.5) * math.pi - phase) / w
    assume(np.min(np.abs(np.subtract.outer(turns, [lo, hi]))) > 100 * (xs[1] - xs[0]))
    d = np.diff(A * np.sin(w * xs + phase))
    f = build_function({"domain": [lo, hi], "pieces": [
        {"interval": [lo, hi], "kind": "sin",
         "params": {"amplitude": A, "frequency": w, "phase": phase}}]})
    with np.errstate(all="ignore"):  # a branch probed past its extremum
        codes = validate(f).codes()
    assert ("non_monotone" not in codes) == bool((d > 0).all() or (d < 0).all())


def test_an_affine_end_that_is_not_finite_names_its_piece():
    # slope 2e308 overflows to inf, and inf * 0.0 is nan
    with pytest.raises(ConstructionError) as exc:
        tent_map(1e308)
    assert str(exc.value) == "piece on [0.0, 0.5] has no finite real value at x=0.0: nan"


def old_roubicek(n, teeth):
    """The per-tooth loop that built `roubicek(n, teeth)` before the columns."""
    if teeth % 2:
        teeth += 1
    pieces = []
    for k in range(1, teeth + 1):
        lo, hi = (k - 1) / (n + k - 1), k / (n + k)
        if k % 2:
            slope, intercept = (n + k - 1) * (n + k) / n, (1 - k) * (n + k) / n
        else:
            slope, intercept = -(n + k - 1) * (n + k) / n, k * (n + k - 1) / n
        pieces.append(affine_closures(lo, hi, slope, intercept))
    t = teeth / (n + teeth)
    pieces.append(affine_closures(t, 1.0, 1.0 / (1.0 - t), -t / (1.0 - t)))
    return pieces


def assert_same_piece(p, q):
    for name in ("sub_lower", "sub_upper", "kind", "constant_value", "affine_slope"):
        a, b = getattr(p, name), getattr(q, name)
        assert type(a) is type(b) and (a == b if isinstance(a, str) or a is None
                                       else bits(a) == bits(b)), name
    assert bits(p.image) == bits(q.image)
    xs = np.linspace(p.sub_lower, p.sub_upper, 9)
    ys = np.linspace(*p.image, 9)
    assert bits(p.forward(xs)) == bits(q.forward(xs))
    assert bits(p.forward(float(xs[3]))) == bits(q.forward(float(xs[3])))
    if p.kind != CONSTANT:
        assert bits(p.inverse(ys)) == bits(q.inverse(ys))
        assert bits(p.inverse_derivative(ys)) == bits(q.inverse_derivative(ys))


def assert_same_pieces(f, old):
    assert len(f.pieces) == len(old)
    for p, q in zip(f.pieces, sorted(old, key=lambda p: p.sub_lower)):
        assert_same_piece(p, q)


@SETTINGS
@given(n=st.integers(1, 400), teeth=st.integers(0, 70))
def test_roubicek_pieces_are_the_per_tooth_pieces(n, teeth):
    assert_same_pieces(roubicek(n, teeth), old_roubicek(n, teeth))
    assert roubicek_family([n, n + 1], teeth)[1].piece_table.lo.tobytes() == (
        roubicek(n + 1, teeth).piece_table.lo.tobytes())


@SETTINGS
@given(teeth=st.integers(1, 40), amplitude=st.floats(-1e3, 1e3).filter(bool))
def test_sawtooth_and_tent_pieces_are_the_old_pieces(teeth, amplitude):
    assert_same_pieces(rising_sawtooth(teeth), [
        affine_closures(j / teeth, (j + 1) / teeth, float(teeth), -float(j))
        for j in range(teeth)])
    A = float(amplitude)
    assert_same_pieces(tent_map(A), [affine_closures(0.0, 0.5, 2.0 * A, 0.0),
                                     affine_closures(0.5, 1.0, -2.0 * A, 2.0 * A)])
    assert_same_pieces(half_plateau(), [affine_closures(0.0, 0.5, 2.0, 0.0),
                                        constant_piece(0.5, 1.0, 0.5)])


@SETTINGS
@given(spec=mixed_specs())
def test_spec_pieces_are_the_old_spec_pieces(spec):
    old = []
    for raw in spec["pieces"]:
        lo, hi = raw["interval"]
        params = raw["params"]
        if raw["kind"] == "affine":
            old.append(affine_closures(lo, hi, params["slope"], params["intercept"]))
        elif raw["kind"] == "constant":
            old.append(constant_piece(lo, hi, params["value"]))
        else:
            old.append(sine_closures(lo, hi, params["amplitude"], params["frequency"],
                                     params["phase"]))
    assert_same_pieces(build_function(spec), old)


def test_a_zero_slope_is_refused_by_the_columns_too():
    with pytest.raises(ValueError, match="constant piece"):
        affine_table([0.0], [1.0], [0.0], [1.0])
    with pytest.raises(ValueError, match="constant piece"):
        tent_map(0.0)
    with pytest.raises(ConstructionError, match="need at least one piece"):
        rising_sawtooth(0)


def test_views_read_back_into_their_kind_and_a_forward_alone_stays_a_piece(bisected_sine):
    f = build_function(json.loads((DATA / "sine.json").read_text()))
    g = MOscillatingFunction(f.domain, f.pieces)
    assert [type(k).__name__ for k in g.piece_table.kinds] == ["_Sin"]
    assert bits(g.piece_table.kinds[0].cols) == bits(f.piece_table.kinds[0].cols)
    h = MOscillatingFunction(f.domain, tuple(bisected_sine(p.sub_lower, p.sub_upper)
                                             for p in f.pieces))
    assert [type(k).__name__ for k in h.piece_table.kinds] == ["_Callables"]


def test_pieces_are_made_once_on_first_read():
    f = roubicek(3, 8)
    assert "pieces" not in vars(f)
    pieces = f.pieces
    assert f.pieces is pieces
    assert all(math.isfinite(v) for p in pieces for v in p.image)
