"""Built-in oscillating functions and density families used across the
package: canonical sine waves, tent maps, the nonperiodic sawtooth family
with unit total slope, the half-plateau function whose Young measure has an
atom, and the quantile maps whose Young densities form the triangular
nonhomogeneous density family.

Everything here is constructed from closed forms so the numeric layers can
be tested against exact values.
"""
from __future__ import annotations

import math
import numpy as np

from .domain import (CONSTANT, Domain1D, MOscillatingFunction, Piece, affine_table,
                     affine_tables, table_of_rows)

TWO_PI = 2.0 * math.pi


def affine_piece(lo: float, hi: float, slope: float, intercept: float) -> Piece:
    """Monotone affine branch with exact closed-form inverse."""
    if slope == 0:
        raise ValueError("use a constant piece for zero slope")
    return Piece(sub_lower=lo, sub_upper=hi, affine_slope=float(slope),
                 affine_intercept=float(intercept))


def constant_piece(lo: float, hi: float, value: float) -> Piece:
    return Piece(sub_lower=lo, sub_upper=hi, kind=CONSTANT, constant_value=float(value))


def sine_piece(lo: float, hi: float, amplitude: float = 1.0, frequency: float = TWO_PI,
               phase: float = 0.0) -> Piece:
    """Branch of A*sin(w*x + phase), monotone on (lo, hi): the sin kind's
    kernels at its columns, whose inverse picks the arcsine branch holding
    the subinterval's midpoint."""
    return table_of_rows([(lo, hi, "sin", (amplitude, frequency, phase))]).pieces()[0]


def identity_map() -> MOscillatingFunction:
    return MOscillatingFunction.from_table(Domain1D(0.0, 1.0),
                                           affine_table([0.0], [1.0], [1.0], [0.0]))


def tent_map(amplitude: float = 1.0) -> MOscillatingFunction:
    """Tent of height `amplitude` on (0, 1): up with slope 2A, down with -2A."""
    A = float(amplitude)
    return MOscillatingFunction.from_table(
        Domain1D(0.0, 1.0), affine_table([0.0, 0.5], [0.5, 1.0], [2.0 * A, -2.0 * A],
                                         [0.0, 2.0 * A]))


def amplitude_tent(n: int) -> MOscillatingFunction:
    """Tent with height 1 + 1/n; its Young density is n/(n+1) on [0, 1+1/n]."""
    return tent_map(1.0 + 1.0 / n)


def sine_wave(n: int = 1) -> MOscillatingFunction:
    """sin(2*pi*n*x) on (0, 1), split into its maximal monotone branches.

    The branch cuts sit at the extrema (2k+1)/(4n); every interior branch
    covers the full range [-1, 1], the two end branches cover half of it.
    The Young density is the arcsine law 1/(pi*sqrt(1-y^2)) for every n.
    """
    w = TWO_PI * n
    cuts = [0.0] + [(2 * k + 1) / (4.0 * n) for k in range(2 * n)] + [1.0]
    return MOscillatingFunction.from_table(
        Domain1D(0.0, 1.0),
        table_of_rows((lo, hi, "sin", (1.0, w, 0.0)) for lo, hi in zip(cuts[:-1], cuts[1:])),
        range_K=(-1.0, 1.0))


def roubicek(n: int, teeth: int = 64) -> MOscillatingFunction:
    """Nonperiodic sawtooth family with total slope exactly 1.

    Tooth k runs between (k-1)/(n+k-1) and k/(n+k), alternately rising from
    0 to 1 and falling back, with inverse slope n/((n+k-1)(n+k)).  The
    infinitely many remaining teeth are replaced by a single affine closure
    ramp over the leftover interval; its inverse slope equals the tail sum
    exactly, so the truncation is measure-preserving.
    """
    return roubicek_family([n], teeth)[0]


def roubicek_family(ns, teeth: int = 64) -> list[MOscillatingFunction]:
    """`roubicek(n, teeth)` at each n of ns, all from one array computation
    over (n, tooth).  Every quotient is of two integers, each exact as a
    float while (n + teeth)^2 < 2^53, so it is the correctly rounded one; a
    zero denominator raises FloatingPointError."""
    if teeth % 2:
        teeth += 1  # keep the closure ramp rising for definiteness
    n = np.asarray(ns).reshape(-1, 1)
    k = np.arange(1, teeth + 1)
    a, b = n + k - 1, n + k
    rising = k % 2 == 1  # rising 0 -> 1, else falling 1 -> 0
    # per function: sub_lower, sub_upper, slope, intercept; the last piece is the closure
    cols = np.empty((4, n.shape[0], k.size + 1))
    with np.errstate(divide="raise", invalid="raise"):
        cols[:, :, :-1] = ((k - 1) / a, k / b, np.where(rising, a * b, -a * b) / n,
                           np.where(rising, (1 - k) * b, k * a) / n)
        t = teeth / (n[:, 0] + teeth)
        cols[0, :, -1], cols[1, :, -1] = t, 1.0
        cols[2, :, -1], cols[3, :, -1] = 1.0 / (1.0 - t), -t / (1.0 - t)
    domain = Domain1D(0.0, 1.0)
    return [MOscillatingFunction.from_table(domain, table, range_K=(0.0, 1.0))
            for table in affine_tables(*cols)]


def half_plateau() -> MOscillatingFunction:
    """2x on (0, 1/2) followed by the constant 1/2: a Young measure with a
    uniform density part of mass 1/2 and an atom of weight 1/2 at 1/2."""
    return MOscillatingFunction.from_table(
        Domain1D(0.0, 1.0),
        table_of_rows([(0.0, 0.5, "affine", (2.0, 0.0)), (0.5, 1.0, CONSTANT, 0.5)]),
        range_K=(0.0, 1.0))


def triangular_quantile(x: float) -> MOscillatingFunction:
    """Quantile map Q_x on (0, 1) of the triangular law with mode x on
    [0, 1], whose Young density is h_x: 2y/x on [0, x), 2(1-y)/(1-x) on
    [x, 1).  Its two monotone pieces invert in closed form: sqrt(x u) on
    (0, x) by y^2/x, and 1 - sqrt((1-x)(1-u)) on (x, 1) by
    1 - (1-y)^2/(1-x)."""
    if not 0.0 < x < 1.0:
        raise ValueError("x must lie in (0, 1)")
    x = float(x)
    s = 1.0 - x
    rising = Piece(0.0, x, forward=lambda u: np.sqrt(x * np.asarray(u, dtype=float)),
                   inverse=lambda y: y * y / x, inverse_derivative=lambda y: 2.0 * y / x)
    falling = Piece(x, 1.0, forward=lambda u: 1.0 - np.sqrt(s * (1.0 - np.asarray(u, float))),
                    inverse=lambda y: 1.0 - (1.0 - y) * (1.0 - y) / s,
                    inverse_derivative=lambda y: 2.0 * (1.0 - y) / s)
    return MOscillatingFunction(Domain1D(0.0, 1.0), (rising, falling))
