"""The Bolza functional and its minimizing sawtooth sequence.

The integrand is hard-coded to W(u, p) = u^2 + (p^2 - 1)^2: nonnegative,
vanishing only where u = 0 and u' = +-1 simultaneously, which no function
can do.  Equal-slope sawteeth drive the value to zero like 1/(48 n^2) while
their derivatives oscillate between +-1 on sets of equal length, so the
derivative pushforward is the two-atom measure (delta_{-1} + delta_{+1})/2
for every index.  The functional is integrated piece by piece, one array
call of W per quadrature panel, with u' exact on affine pieces and a
finite difference elsewhere (`domain.forward_derivative`).
"""
from __future__ import annotations

from typing import Callable, Union

from . import quadrature
from .domain import Domain1D, MOscillatingFunction, forward_derivative
from .errors import UnsupportedError
from .families import affine_piece, constant_piece
from .measures import ScalarMeasureRCA, integrate_test, unvalidated_young_measure


def sawtooth(n: int) -> MOscillatingFunction:
    """Rescaled sawtooth u_n(x) = u(nx)/n on (0, 1), built from 3n exact
    affine pieces with slopes +-1; max |u_n| = 1/(4n), zero at both ends."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    pieces = []
    for j in range(n):
        o = j / n
        q = 1.0 / (4.0 * n)
        # up from 0, down through 0, back up to 0
        pieces.append(affine_piece(o, o + q, 1.0, -o))
        pieces.append(affine_piece(o + q, o + 3 * q, -1.0, (0.5 + j) / n))
        pieces.append(affine_piece(o + 3 * q, o + 4 * q, 1.0, -(j + 1.0) / n))
    return MOscillatingFunction(domain=Domain1D(0.0, 1.0), pieces=tuple(pieces))


def bolza_functional(u: MOscillatingFunction, quad_tol: float = quadrature.QUAD_TOL) -> float:
    """Value of the functional: integral of u^2 + ((u')^2 - 1)^2 over the
    domain, piece by piece, with u' from `forward_derivative`: exact on
    affine pieces, a finite difference on the others."""
    total = 0.0
    for p in u.pieces:
        total += quadrature.integrate(
            lambda x, _p=p: _p.forward(x) ** 2 + (forward_derivative(_p, x) ** 2 - 1.0) ** 2,
            p.sub_lower, p.sub_upper, tol=quad_tol,
        )
    return total


def gradient_young_measure(u: MOscillatingFunction) -> ScalarMeasureRCA:
    """Young measure of the piecewise-constant derivative u': the Young
    measure of the function that is constant at each piece's slope, one
    atom per distinct slope weighted by the share of the domain carrying
    it."""
    if any(p.affine_slope is None for p in u.pieces):
        raise UnsupportedError("derivative pushforward needs piecewise-affine input")
    du = MOscillatingFunction(domain=u.domain, pieces=tuple(
        constant_piece(p.sub_lower, p.sub_upper, p.affine_slope) for p in u.pieces))
    return unvalidated_young_measure(du)


def relaxed_value(
    nu: ScalarMeasureRCA,
    phi: Callable[[float], float],
    w: Union[Callable[[float], float], float],
    domain: Domain1D = Domain1D(0.0, 1.0),
) -> float:
    """Limit value of the oscillating integrals: for a homogeneous measure
    the double integral factorizes into (integral of phi against nu) times
    (integral of the weight over the domain)."""
    phi_bar = integrate_test(nu, phi)
    if callable(w):
        w_int = quadrature.integrate(w, domain.lower, domain.upper)
    else:
        w_int = float(w) * domain.measure_M
    return phi_bar * w_int
