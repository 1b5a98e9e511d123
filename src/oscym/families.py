"""Built-in oscillating functions and density families used across the
package: canonical sine waves, tent maps, the nonperiodic sawtooth family
with unit total slope, the half-plateau function whose Young measure has an
atom, and the triangular nonhomogeneous density family.

Everything here is constructed from closed forms so the numeric layers can
be tested against exact values.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .domain import (CONSTANT, DIFFEOMORPHIC, Domain1D, MOscillatingFunction, Piece,
                     per_value)

TWO_PI = 2.0 * math.pi


def affine_piece(lo: float, hi: float, slope: float, intercept: float) -> Piece:
    """Monotone affine branch with exact closed-form inverse.  A Python float
    maps in Python arithmetic, numpy's IEEE multiply and add without its cost
    per call: `Piece.image` reads every piece's ends that way."""
    if slope == 0:
        raise ValueError("use a constant piece for zero slope")
    slope, intercept = float(slope), float(intercept)
    return Piece(
        sub_lower=lo,
        sub_upper=hi,
        kind=DIFFEOMORPHIC,
        forward=lambda x: slope * (x if type(x) is float else np.asarray(x, float)) + intercept,
        inverse=lambda y: (y - intercept) / slope,
        inverse_derivative=lambda y: np.full(np.shape(y), 1.0 / slope),
        affine_slope=slope,
    )


def constant_piece(lo: float, hi: float, value: float) -> Piece:
    return Piece(sub_lower=lo, sub_upper=hi, kind=CONSTANT, constant_value=float(value))


def sine_piece(
    lo: float,
    hi: float,
    amplitude: float = 1.0,
    frequency: float = TWO_PI,
    phase: float = 0.0,
) -> Piece:
    """Branch of A*sin(w*x + phase), monotone on (lo, hi).

    The closed-form inverse picks the arcsine branch containing the
    subinterval's midpoint.  The closed forms take arrays; the arcsine is
    math.asin at each value and the rest is IEEE arithmetic and sqrt, so
    each value is bitwise that of the same formula in Python floats.
    """
    A, w, ph = float(amplitude), float(frequency), float(phase)

    def fwd(x):
        return A * np.sin(w * np.asarray(x, dtype=float) + ph)

    t_mid = w * 0.5 * (lo + hi) + ph
    k = round(t_mid / math.pi)
    sign = -1.0 if k % 2 else 1.0

    def inv(y):
        r = np.clip(np.asarray(y, dtype=float) / A, -1.0, 1.0)
        return (k * math.pi + sign * per_value(math.asin, r) - ph) / w

    def inv_d(y):
        r = np.clip(np.asarray(y, dtype=float) / A, -1.0, 1.0)
        with np.errstate(divide="ignore"):
            v = 1.0 / (abs(A * w) * np.sqrt(np.maximum(1.0 - r * r, 0.0)))
        return np.where(np.abs(r) < 1.0, v, math.inf)

    return Piece(sub_lower=lo, sub_upper=hi, kind=DIFFEOMORPHIC,
                 forward=fwd, inverse=inv, inverse_derivative=inv_d)


def identity_map() -> MOscillatingFunction:
    return MOscillatingFunction(
        domain=Domain1D(0.0, 1.0),
        pieces=(affine_piece(0.0, 1.0, 1.0, 0.0),),
    )


def constant_map(value: float = 0.0) -> MOscillatingFunction:
    return MOscillatingFunction(
        domain=Domain1D(0.0, 1.0),
        pieces=(constant_piece(0.0, 1.0, value),),
    )


def tent_map(amplitude: float = 1.0) -> MOscillatingFunction:
    """Tent of height `amplitude` on (0, 1): up with slope 2A, down with -2A."""
    A = float(amplitude)
    return MOscillatingFunction(
        domain=Domain1D(0.0, 1.0),
        pieces=(
            affine_piece(0.0, 0.5, 2.0 * A, 0.0),
            affine_piece(0.5, 1.0, -2.0 * A, 2.0 * A),
        ),
    )


def amplitude_tent(n: int) -> MOscillatingFunction:
    """Tent with height 1 + 1/n; its Young density is n/(n+1) on [0, 1+1/n]."""
    return tent_map(1.0 + 1.0 / n)


def rising_sawtooth(teeth: int = 2) -> MOscillatingFunction:
    """`teeth` rising ramps, each spanning [0, 1]; same total slope as the
    tent map, hence the same Young measure."""
    pieces = []
    for j in range(teeth):
        lo, hi = j / teeth, (j + 1) / teeth
        pieces.append(affine_piece(lo, hi, float(teeth), -float(j)))
    return MOscillatingFunction(domain=Domain1D(0.0, 1.0), pieces=tuple(pieces))


def sine_wave(n: int = 1) -> MOscillatingFunction:
    """sin(2*pi*n*x) on (0, 1), split into its maximal monotone branches.

    The branch cuts sit at the extrema (2k+1)/(4n); every interior branch
    covers the full range [-1, 1], the two end branches cover half of it.
    The Young density is the arcsine law 1/(pi*sqrt(1-y^2)) for every n.
    """
    w = TWO_PI * n
    cuts = [0.0] + [(2 * k + 1) / (4.0 * n) for k in range(2 * n)] + [1.0]
    pieces = tuple(
        sine_piece(lo, hi, amplitude=1.0, frequency=w, phase=0.0)
        for lo, hi in zip(cuts[:-1], cuts[1:])
    )
    return MOscillatingFunction(domain=Domain1D(0.0, 1.0), pieces=pieces,
                                range_K=(-1.0, 1.0))


def roubicek(n: int, teeth: int = 64) -> MOscillatingFunction:
    """Nonperiodic sawtooth family with total slope exactly 1.

    Tooth k runs between (k-1)/(n+k-1) and k/(n+k), alternately rising from
    0 to 1 and falling back, with inverse slope n/((n+k-1)(n+k)).  The
    infinitely many remaining teeth are replaced by a single affine closure
    ramp over the leftover interval; its inverse slope equals the tail sum
    exactly, so the truncation is measure-preserving.
    """
    if teeth % 2:
        teeth += 1  # keep the closure ramp rising for definiteness
    pieces = []
    for k in range(1, teeth + 1):
        lo = (k - 1) / (n + k - 1)
        hi = k / (n + k)
        if k % 2:  # rising 0 -> 1
            slope = (n + k - 1) * (n + k) / n
            intercept = (1 - k) * (n + k) / n
        else:      # falling 1 -> 0
            slope = -(n + k - 1) * (n + k) / n
            intercept = k * (n + k - 1) / n
        pieces.append(affine_piece(lo, hi, slope, intercept))
    t = teeth / (n + teeth)
    pieces.append(affine_piece(t, 1.0, 1.0 / (1.0 - t), -t / (1.0 - t)))
    return MOscillatingFunction(domain=Domain1D(0.0, 1.0), pieces=tuple(pieces),
                                range_K=(0.0, 1.0))


def half_plateau() -> MOscillatingFunction:
    """2x on (0, 1/2) followed by the constant 1/2: a Young measure with a
    uniform density part of mass 1/2 and an atom of weight 1/2 at 1/2."""
    return MOscillatingFunction(
        domain=Domain1D(0.0, 1.0),
        pieces=(
            affine_piece(0.0, 0.5, 2.0, 0.0),
            constant_piece(0.5, 1.0, 0.5),
        ),
        range_K=(0.0, 1.0),
    )


def triangular_density(x: float) -> Callable:
    """Density 2*h_x on K = [0, 2], at a scalar or at each value of an
    array: rises like 2y/x on [0, x), falls like 2(1-y)/(1-x) on [x, 1),
    and vanishes on [1, 2].  Integrates to 1 for every x in (0, 1)."""
    if not 0.0 < x < 1.0:
        raise ValueError("x must lie in (0, 1)")

    def h(y, _x=float(x)):
        y = np.asarray(y, dtype=float)
        return np.where((0.0 <= y) & (y < _x), 2.0 * y / _x,
                        np.where((_x <= y) & (y < 1.0), 2.0 * (1.0 - y) / (1.0 - _x), 0.0))

    return h
