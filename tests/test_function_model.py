import math

import numpy as np
import pytest

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
from oscym.domain import forward_derivative
from oscym.errors import (
    ConstructionError,
    DomainError,
    PieceKindError,
    RangeError,
    SingularSlopeError,
)
from oscym.families import affine_piece, constant_piece, sine_piece, tent_map
from oscym.relaxation import sawtooth

TWO_PI = 2.0 * math.pi


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
