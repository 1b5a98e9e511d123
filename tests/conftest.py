import pytest

from oscym.domain import Piece
from oscym.families import sine_piece


@pytest.fixture
def bisected_sine():
    """Builder of a branch of sin(2 pi x) on (lo, hi) given by its forward
    map alone: inverted by bisection and differentiated by finite
    differences, where `sine_piece` has closed forms."""
    def build(lo: float, hi: float) -> Piece:
        return Piece(lo, hi, forward=sine_piece(lo, hi).forward)
    return build
