import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oscym import quadrature
from oscym.domain import (Domain1D, MOscillatingFunction, Piece, affine_table, per_value,
                          table_of_rows)
from oscym.families import constant_piece, sine_piece
from oscym.measures import DensityFunction, young_density_function


SRC = Path(__file__).resolve().parent.parent / "src"


def fresh_python(*args, env_extra=None) -> subprocess.CompletedProcess:
    """`python *args` in a fresh interpreter that imports oscym from this
    checkout, as the tests do, with its output captured as text."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    env.update(env_extra or {})
    return subprocess.run([sys.executable, *map(str, args)], capture_output=True, text=True,
                          env=env)


def constant_map(value: float = 0.0) -> MOscillatingFunction:
    return MOscillatingFunction.from_table(
        Domain1D(0.0, 1.0), table_of_rows([(0.0, 1.0, "constant", float(value))]))


# -- the closed forms as per-piece closures, as they were before the kind
# columns: the reference that every column kernel must equal bitwise ------

def affine_closures(lo, hi, slope, intercept) -> Piece:
    """`families.affine_piece` as closures, before the affine columns."""
    slope, intercept = float(slope), float(intercept)
    return Piece(
        sub_lower=lo, sub_upper=hi,
        forward=lambda x: slope * (x if type(x) is float else np.asarray(x, float)) + intercept,
        inverse=lambda y: (y - intercept) / slope,
        inverse_derivative=lambda y: np.full(np.shape(y), 1.0 / slope),
        affine_slope=slope,
    )


def sine_closures(lo, hi, amplitude=1.0, frequency=2.0 * math.pi, phase=0.0) -> Piece:
    """`families.sine_piece` as closures, before the sin columns: the
    arcsine branch holding the interval's midpoint, math.asin at each value."""
    A, w, ph = float(amplitude), float(frequency), float(phase)
    k = round((w * 0.5 * (lo + hi) + ph) / math.pi)
    sign = -1.0 if k % 2 else 1.0

    def inv(y):
        r = np.clip(np.asarray(y, dtype=float) / A, -1.0, 1.0)
        return (k * math.pi + sign * per_value(math.asin, r) - ph) / w

    def inv_d(y):
        r = np.clip(np.asarray(y, dtype=float) / A, -1.0, 1.0)
        with np.errstate(divide="ignore"):
            v = 1.0 / (abs(A * w) * np.sqrt(np.maximum(1.0 - r * r, 0.0)))
        return np.where(np.abs(r) < 1.0, v, math.inf)

    return Piece(lo, hi, forward=lambda x: A * np.sin(w * np.asarray(x, dtype=float) + ph),
                 inverse=inv, inverse_derivative=inv_d)


def power_closures(lo, hi, p) -> Piece:
    """The power piece of a spec as closures, before the power columns:
    Python's float power at each value."""
    def inv_d(y):
        e = 1.0 / p - 1.0
        y = max(y, 0.0)
        return math.inf if y == 0.0 and e < 0 else y ** e / p

    return Piece(lo, hi, forward=lambda x: np.asarray(x, dtype=float) ** p,
                 inverse=lambda y, _e=1.0 / p: per_value(lambda v: v ** _e, y),
                 inverse_derivative=lambda y: per_value(inv_d, y))


def closure_piece(lo, hi, kind, params) -> Piece:
    """The closure Piece of a `table_of_rows` row of a closed-form or
    constant kind."""
    if kind == "constant":
        return constant_piece(lo, hi, params)
    return {"affine": affine_closures, "sin": sine_closures,
            "power": power_closures}[kind](lo, hi, *params)


def closure_function(spec: dict, range_K=None) -> MOscillatingFunction:
    """The function of a spec of affine, sin, power and constant pieces,
    each piece a Piece of closures."""
    keys = {"affine": ("slope", "intercept"), "sin": ("amplitude", "frequency", "phase"),
            "power": ("exponent",)}
    pieces = tuple(
        closure_piece(*p["interval"], p["kind"], p["params"]["value"] if p["kind"] == "constant"
                      else [p["params"][k] for k in keys[p["kind"]]])
        for p in spec["pieces"])
    return MOscillatingFunction(Domain1D(*spec["domain"]), pieces, range_K)


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
