import numpy as np
import pytest

from oscym.domain import Domain1D, MOscillatingFunction, Piece, affine_table, table_of_rows
from oscym.families import sine_piece


def constant_map(value: float = 0.0) -> MOscillatingFunction:
    return MOscillatingFunction.from_table(Domain1D(0.0, 1.0),
                                           table_of_rows([(0.0, 1.0, float(value))]))


def rising_sawtooth(teeth: int = 2) -> MOscillatingFunction:
    """`teeth` rising ramps, each spanning [0, 1]; same total slope as the
    tent map, hence the same Young measure."""
    j = np.arange(teeth)
    return MOscillatingFunction.from_table(
        Domain1D(0.0, 1.0),
        affine_table(j / teeth, (j + 1) / teeth, np.full(j.size, float(teeth)), -j.astype(float)))


@pytest.fixture
def bisected_sine():
    """Builder of a branch of sin(2 pi x) on (lo, hi) given by its forward
    map alone: inverted by bisection and differentiated by finite
    differences, where `sine_piece` has closed forms."""
    def build(lo: float, hi: float) -> Piece:
        return Piece(lo, hi, forward=sine_piece(lo, hi).forward)
    return build
