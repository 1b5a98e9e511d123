import numpy as np
import pytest

from oscym import quadrature
from oscym.domain import Domain1D, MOscillatingFunction, Piece, affine_table, table_of_rows
from oscym.families import sine_piece
from oscym.measures import DensityFunction, young_density_function


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


def ramp_density(hi: float) -> DensityFunction:
    """The uniform density 1/hi on [0, hi]: the Young density of the ramp
    u -> hi u on (0, 1)."""
    return young_density_function(MOscillatingFunction.from_table(
        Domain1D(0.0, 1.0), affine_table([0.0], [1.0], [float(hi)], [0.0])))


def flat_density(c: float, lo: float = 0.0, hi: float = 1.0) -> DensityFunction:
    """The constant density c on [lo, hi], of mass c (hi - lo), with its
    exact distribution function and its expectation, c times the integral
    of phi over [lo, hi].  A Young density has mass 1; a test of another
    mass builds its density here."""
    return DensityFunction(
        support=(lo, hi), evaluator=lambda y: np.full(np.shape(y), float(c)),
        cdf=lambda ys: c * (np.asarray(ys, dtype=float) - lo),
        expectation=lambda phi: c * quadrature.integrate(phi, lo, hi))


def triangular_density(x: float):
    """The closed form of the triangular slice h_x on K = [0, 2], at a
    scalar or at each value of an array: rises like 2y/x on [0, x), falls
    like 2(1-y)/(1-x) on [x, 1), and vanishes on [1, 2].  Integrates to 1
    for every x in (0, 1); the Young density of
    `families.triangular_quantile(x)`."""
    if not 0.0 < x < 1.0:
        raise ValueError("x must lie in (0, 1)")

    def h(y, _x=float(x)):
        y = np.asarray(y, dtype=float)
        return np.where((0.0 <= y) & (y < _x), 2.0 * y / _x,
                        np.where((_x <= y) & (y < 1.0), 2.0 * (1.0 - y) / (1.0 - _x), 0.0))

    return h


@pytest.fixture
def bisected_sine():
    """Builder of a branch of sin(2 pi x) on (lo, hi) given by its forward
    map alone: inverted by bisection and differentiated by finite
    differences, where `sine_piece` has closed forms."""
    def build(lo: float, hi: float) -> Piece:
        return Piece(lo, hi, forward=sine_piece(lo, hi).forward)
    return build
