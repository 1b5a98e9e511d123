import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from oscym import cli
from oscym import (
    Domain1D,
    MOscillatingFunction,
    Piece,
    evaluate,
    evaluate_many,
    inverse_slope,
    invert_piece,
    validate,
)
from oscym.domain import CONSTANT, DIFFEOMORPHIC, forward_derivative, table_of_rows
from oscym.errors import (
    ConstructionError,
    DomainError,
    PieceKindError,
    RangeError,
    SingularSlopeError,
)
from oscym.families import affine_piece, constant_piece, sine_piece, sine_wave, tent_map
from oscym.funcspec import build_function
from oscym.relaxation import sawtooth

TWO_PI = 2.0 * math.pi
DATA = Path(__file__).resolve().parent / "data"


def test_single_affine_piece_is_valid():
    f = MOscillatingFunction(
        domain=Domain1D(0.0, 1.0),
        pieces=(affine_piece(0.0, 1.0, 2.0, 0.0),),
    )
    report = validate(f)
    assert report.valid
    assert report.violations == ()


def test_overlapping_subintervals_flagged():
    f = MOscillatingFunction(
        domain=Domain1D(0.0, 1.0),
        pieces=(
            affine_piece(0.0, 0.6, 1.0, 0.0),
            affine_piece(0.4, 1.0, 1.0, 0.0),
        ),
    )
    report = validate(f)
    assert not report.valid
    assert "overlap" in report.codes()


def test_non_monotone_piece_flagged():
    # sin(2 pi x) changes direction at x = 0.25
    p = Piece(sub_lower=0.0, sub_upper=0.5, forward=lambda x: np.sin(TWO_PI * x))
    f = MOscillatingFunction(domain=Domain1D(0.0, 0.5), pieces=(p,))
    report = validate(f)
    assert "non_monotone" in report.codes()


def test_gap_in_partition_flagged():
    f = MOscillatingFunction(
        domain=Domain1D(0.0, 1.0),
        pieces=(affine_piece(0.0, 0.4, 1.0, 0.0),),
    )
    assert "gap_total" in validate(f).codes()


def test_range_mismatch_flagged():
    f = MOscillatingFunction(
        domain=Domain1D(0.0, 1.0),
        pieces=(affine_piece(0.0, 1.0, 1.0, 0.0),),
        range_K=(0.0, 2.0),
    )
    assert "range_mismatch" in validate(f).codes()


def test_bad_closed_form_inverse_flagged():
    p = Piece(
        sub_lower=0.0, sub_upper=1.0,
        forward=lambda x: 2.0 * x,
        inverse=lambda y: y,  # wrong: should be y/2
    )
    f = MOscillatingFunction(domain=Domain1D(0.0, 1.0), pieces=(p,))
    assert "inverse_mismatch" in validate(f).codes()


def test_empty_interval_rejected_at_construction():
    with pytest.raises(ConstructionError):
        Piece(sub_lower=0.5, sub_upper=0.2, forward=lambda x: x)


@pytest.mark.parametrize("make, message", [
    (lambda: Domain1D(1.0, 1.0), "domain requires lower < upper, got [1.0, 1.0]"),
    (lambda: Domain1D(lower=2.0, upper=1.0), "domain requires lower < upper, got [2.0, 1.0]"),
    (lambda: Piece(0.5, 0.2, forward=abs), "empty piece interval [0.5, 0.2]"),
    (lambda: Piece(0.0, 1.0, "linear", abs), "unknown piece kind 'linear'"),
    (lambda: Piece(0.0, 1.0, kind=CONSTANT), "constant piece needs constant_value"),
    (lambda: Piece(0.0, 1.0), "diffeomorphic piece needs a forward map"),
    (lambda: MOscillatingFunction(Domain1D(0.0, 1.0), ()), "need at least one piece"),
], ids=["domain-empty", "domain-reversed", "piece-empty", "piece-kind",
        "constant-without-value", "piece-without-forward", "function-without-pieces"])
def test_constructors_raise_their_messages(make, message):
    with pytest.raises(ConstructionError) as exc:
        make()
    assert str(exc.value) == message


def test_constructors_take_positional_and_keyword_fields():
    def forward(x):
        return 2.0 * x

    def inverse(y):
        return y / 2.0

    def slope(y):
        return np.full(np.shape(y), 0.5)

    assert vars(Domain1D(0.0, 2.0)) == vars(Domain1D(lower=0.0, upper=2.0)) == {
        "lower": 0.0, "upper": 2.0}
    by_position = Piece(0.0, 1.0, DIFFEOMORPHIC, forward, inverse, slope, None, 2.0, None)
    by_name = Piece(sub_lower=0.0, sub_upper=1.0, kind=DIFFEOMORPHIC, forward=forward,
                    inverse=inverse, inverse_derivative=slope, constant_value=None,
                    affine_slope=2.0, affine_intercept=None)
    assert vars(by_position) == vars(by_name)
    assert vars(Piece(0.0, 1.0, forward=forward)) == {
        "sub_lower": 0.0, "sub_upper": 1.0, "kind": DIFFEOMORPHIC, "forward": forward,
        "inverse": None, "inverse_derivative": None, "constant_value": None,
        "affine_slope": None, "affine_intercept": None}
    # an affine or constant piece makes its maps from its numbers
    affine = Piece(0.0, 1.0, affine_slope=2.0, affine_intercept=1.0)
    assert affine.forward(0.5) == 2.0 and affine.inverse(2.0) == 0.5
    constant = Piece(0.0, 1.0, CONSTANT, constant_value=3.0)
    assert constant.forward(0.5) == 3.0 and constant.affine_slope == 0.0

    domain, pieces = Domain1D(0.0, 2.0), (Piece(1.0, 2.0, forward=forward), by_position)
    for f in (MOscillatingFunction(domain, pieces, (0.0, 4.0)),
              MOscillatingFunction(domain=domain, pieces=pieces, range_K=(0, 4))):
        assert f.domain is domain
        assert f.pieces == pieces[::-1]  # sorted by left end
        assert f.range_K == (0.0, 4.0)
    assert MOscillatingFunction(domain, pieces).range_K == (0.0, 4.0)  # the hull


@pytest.mark.parametrize("obj, field", [
    (Domain1D(0.0, 1.0), "lower"),
    (affine_piece(0.0, 1.0, 2.0, 0.0), "forward"),
    (affine_piece(0.0, 1.0, 2.0, 0.0), "image"),
    (sawtooth(2), "pieces"),
    (tent_map(1.0), "pieces"),  # built from a table: pieces not made yet
    (tent_map(1.0), "range_K"),
    (tent_map(1.0), "piece_table"),
], ids=["domain", "piece", "piece-image", "function", "table-function-pieces",
        "table-function-range", "table-function-table"])
def test_fields_are_read_only(obj, field):
    with pytest.raises(AttributeError):
        setattr(obj, field, None)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert getattr(obj, field) is not None


def test_evaluate_tent():
    f = tent_map()
    assert evaluate(f, 0.25) == pytest.approx(0.5)
    assert evaluate(f, 0.75) == pytest.approx(0.5)


def test_evaluate_sawtooth_reference_values():
    u = sawtooth(1)
    assert evaluate(u, 0.25) == pytest.approx(0.25)
    assert evaluate(u, 0.5) == pytest.approx(0.0)


def test_evaluate_outside_domain():
    with pytest.raises(DomainError):
        evaluate(tent_map(), 1.5)


def test_evaluate_boundary_goes_to_left_piece():
    # at the tent's peak both pieces agree by continuity
    assert evaluate(tent_map(), 0.5) == pytest.approx(1.0)


def test_evaluate_boundary_of_a_jump_goes_to_left_piece():
    f = MOscillatingFunction(
        domain=Domain1D(0.0, 1.0),
        pieces=(affine_piece(0.0, 0.5, 1.0, 0.0), constant_piece(0.5, 1.0, 5.0)),
    )
    assert evaluate(f, 0.5) == 0.5
    assert evaluate_many(f, np.array([0.75, 0.5, 0.25])).tolist() == [5.0, 0.5, 0.25]


def test_evaluate_many_matches_scalar():
    f = sawtooth(3)
    xs = np.linspace(0.01, 0.99, 57)
    vect = evaluate_many(f, xs)
    scal = np.array([evaluate(f, x) for x in xs])
    np.testing.assert_allclose(vect, scal, atol=1e-15)


def test_validate_samples_a_monotone_piece_in_one_call():
    calls = []

    def cube(x):
        calls.append(np.shape(x))
        return np.asarray(x, dtype=float) ** 3

    f = MOscillatingFunction(
        domain=Domain1D(0.0, 1.0),
        pieces=(Piece(sub_lower=0.0, sub_upper=1.0, forward=cube),),
    )
    calls.clear()  # the image ends are read at construction
    assert validate(f).valid
    assert calls == [(64,)]


def test_invert_affine():
    p = affine_piece(0.0, 0.5, 2.0, 0.0)
    assert invert_piece(p, 0.7) == pytest.approx(0.35)


def test_invert_sine_closed_form():
    # sin(2 pi /12) = sin(pi/6) = 1/2, so the preimage of 0.5 is 1/12
    p = sine_piece(0.0, 0.25)
    assert invert_piece(p, 0.5) == pytest.approx(1.0 / 12.0, abs=1e-12)


def test_invert_sine_bisection(bisected_sine):
    p = bisected_sine(0.0, 0.25)
    x = invert_piece(p, 0.5)
    assert x == pytest.approx(1.0 / 12.0, abs=1e-10)
    assert float(p.forward(x)) == pytest.approx(0.5, abs=1e-10)


def test_invert_outside_image():
    p = affine_piece(0.0, 0.5, 2.0, 0.0)
    with pytest.raises(RangeError):
        invert_piece(p, 1.5)


def test_invert_constant_piece_rejected():
    with pytest.raises(PieceKindError):
        invert_piece(constant_piece(0.0, 1.0, 0.5), 0.5)


def test_inverse_slope_affine():
    p = affine_piece(0.0, 0.5, 2.0, 0.0)
    assert inverse_slope(p, 0.3) == pytest.approx(0.5)


@pytest.mark.parametrize("closed_form", [True, False])
def test_inverse_slope_sine(closed_form, bisected_sine):
    p = (sine_piece if closed_form else bisected_sine)(0.0, 0.25)
    assert inverse_slope(p, 0.0) == pytest.approx(1.0 / TWO_PI, rel=1e-8)


@pytest.mark.parametrize("closed_form", [True, False])
def test_inverse_slope_singular_at_extremum(closed_form, bisected_sine):
    p = (sine_piece if closed_form else bisected_sine)(0.0, 0.25)
    with pytest.raises(SingularSlopeError):
        inverse_slope(p, 1.0)


def test_round_trip_property(bisected_sine):
    pieces = [
        affine_piece(0.0, 0.5, 2.0, 0.0),
        sine_piece(0.25, 0.75),
        bisected_sine(0.0, 0.25),
    ]
    for p in pieces:
        lo, hi = p.image
        for y in lo + (hi - lo) * np.linspace(0.05, 0.95, 19):
            x = invert_piece(p, float(y))
            assert float(p.forward(x)) == pytest.approx(float(y), abs=1e-9)


def test_derivative_consistency_property():
    # inverse_slope agrees with a central difference of the inverse itself
    for p in (affine_piece(0.0, 0.5, 2.0, 0.0), sine_piece(0.25, 0.75)):
        lo, hi = p.image
        for y in lo + (hi - lo) * np.linspace(0.2, 0.8, 13):
            h = 1e-6 * (hi - lo)
            fd = abs(invert_piece(p, float(y) + h) - invert_piece(p, float(y) - h)) / (2 * h)
            assert inverse_slope(p, float(y)) == pytest.approx(fd, rel=1e-6)


def test_partition_lengths_sum_to_measure():
    for f in (tent_map(), sawtooth(5)):
        assert validate(f).valid
        total = sum(p.length for p in f.pieces)
        assert total == pytest.approx(f.measure_M, abs=1e-12)


def test_forward_derivative_one_sided_at_boundary():
    p = sine_piece(0.0, 0.25)
    assert forward_derivative(p, 0.0) == pytest.approx(TWO_PI, rel=1e-6)
    assert abs(forward_derivative(p, 0.25)) < 1e-4


def spec_of(kind, params, interval=(0.0, 1.0)):
    return {"domain": list(interval), "pieces": [
        {"interval": list(interval), "kind": kind, "params": params}]}


def exit_code(tmp_path, command, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return cli.main([command, "--input", str(path), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("exponent", [0.3, 0.2, 0.1, 0.02, 0.005])
def test_validate_accepts_power_pieces_with_small_exponents(exponent, tmp_path):
    # y^(1/p) at the probes lies far below the finite-difference step, so a
    # difference quotient there is no derivative; the closed form is exact
    spec = spec_of("power", {"exponent": exponent})
    assert validate(build_function(spec)).violations == ()
    assert exit_code(tmp_path, "density", spec) == 0


def test_validate_still_rejects_a_power_inverse_that_underflows():
    # y^1000 underflows at the lower probes, so forward(inverse(y)) misses y
    report = validate(build_function(spec_of("power", {"exponent": 0.001})))
    assert report.codes() == {"inverse_mismatch"}


def test_validate_flags_a_sin_piece_with_an_extremum_inside(tmp_path):
    # the maximum of sin(1.5713 x) lies at x = 0.99968, inside (0, 1); no
    # sampled forward difference changes sign
    spec = spec_of("sin", {"amplitude": 1.0, "frequency": 1.5713, "phase": 0.0})
    (v,) = validate(build_function(spec)).violations
    assert (v.code, v.piece_index) == ("non_monotone", 0)
    assert v.measured == pytest.approx(math.pi / (2 * 1.5713), rel=1e-12)
    assert exit_code(tmp_path, "validate", spec) == 1
    assert exit_code(tmp_path, "measure", spec) == 2


@pytest.mark.parametrize("interval", [(0.1, 0.1000001), (6283.285, 6283.2851)])
def test_validate_accepts_short_sin_pieces(interval, tmp_path):
    # a finite difference over 1e-6 of the length of a piece this short is
    # rounding noise; the closed-form inverse derivative is exact
    spec = spec_of("sin", {"amplitude": 1.0, "frequency": 1.0, "phase": 0.0}, interval)
    assert validate(build_function(spec)).violations == ()
    assert exit_code(tmp_path, "validate", spec) == 0
    assert exit_code(tmp_path, "density", spec) == 0


def test_validate_flags_an_inverse_derivative_twice_the_true_one():
    p = Piece(0.0, 1.0, forward=lambda u: np.asarray(u, dtype=float) ** 3, inverse=np.cbrt,
              inverse_derivative=lambda y: 2.0 / (3.0 * np.cbrt(y) ** 2))
    (v,) = validate(MOscillatingFunction(Domain1D(0.0, 1.0), (p,))).violations
    assert (v.code, v.piece_index) == ("inverse_derivative_mismatch", 0)
    assert v.measured == pytest.approx(1.0, rel=1e-6)


@pytest.mark.parametrize("lo, hi, exponent", [(-1.0, 2.0, 2.0), (-1.0, 1.0, 3.0)])
def test_a_power_row_below_zero_is_refused(lo, hi, exponent):
    with pytest.raises(ConstructionError) as exc:
        table_of_rows([(lo, hi, "power", (exponent,))])
    assert str(exc.value) == f"power piece on [{lo}, {hi}] needs a nonnegative interval"


def test_sin_pieces_cut_at_their_extrema_validate():
    for n in range(1, 65):
        assert validate(sine_wave(n)).valid, n
    assert validate(build_function(json.loads((DATA / "sine.json").read_text()))).valid
    # A sin(2 pi n x / L) over n whole periods, cut at its extrema
    rng = random.Random(2018)
    for _ in range(200):
        length, amp = round(rng.uniform(0.5, 2.0), 4), round(rng.uniform(0.5, 2.0), 4)
        n = rng.randint(1, 8)
        freq = 2.0 * math.pi * n / length
        xs = [0.0] + [(2 * k + 1) * length / (4.0 * n) for k in range(2 * n)] + [length]
        f = build_function({"domain": [0.0, length], "pieces": [
            {"interval": [a, b], "kind": "sin",
             "params": {"amplitude": amp, "frequency": freq, "phase": 0.0}}
            for a, b in zip(xs[:-1], xs[1:])]})
        assert validate(f).valid, (length, amp, n)
