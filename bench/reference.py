"""Seeded input generators and closed-form references for the oscym benchmark.

Nothing here imports oscym.  Every expected value comes from a closed form:
preimage lengths of affine, sine, power and expression branches, atoms from
constant pieces, the arcsine law of a whole-period sine, 1/(48 n^2) for the
Bolza sawtooth and the triangular family's distribution function.

Image endpoints are computed with the same float operations the spec
describes (numpy for sin/exp/log), so the benchmark and the program agree
on which grid points sit on a piece-image boundary.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Relative width of an image boundary: a value within SLACK * scale of a
# branch endpoint is on that endpoint.  The same width the program uses to
# decide that a value lies in a piece image.
SLACK = 1e-12


@dataclass(frozen=True)
class Branch:
    """A strictly monotone piece seen from its image [lo, hi].

    `coord(y)` is the preimage x up to sign and offset, so the preimage of
    [u, v] inside the image has length |coord(v) - coord(u)|; `slope(y)` is
    |dx/dy|, math.inf where it diverges.
    """

    lo: float
    hi: float
    coord: Callable[[float], float]
    slope: Callable[[float], float]


@dataclass(frozen=True)
class FunctionRef:
    """What a function spec must produce, from closed forms."""

    spec: dict
    measure_M: float
    branches: tuple[Branch, ...]
    atoms: tuple[tuple[float, float], ...]  # (location, weight), sorted
    power_singular_at_zero: bool  # a power piece with exponent > 1 starts at 0

    @property
    def range_K(self) -> tuple[float, float]:
        ends = [v for b in self.branches for v in (b.lo, b.hi)]
        ends += [loc for loc, _ in self.atoms]
        return min(ends), max(ends)

    @property
    def support(self) -> tuple[float, float]:
        return (min(b.lo for b in self.branches), max(b.hi for b in self.branches))

    def total_slope(self, y: float, closed: bool = False) -> float:
        """Sum of |dx/dy| over the branches whose image holds y.

        The reference convention is half-open, [lo, hi), closed at the top of
        the range.  `closed=True` counts every branch whose closed image
        touches y instead, which double counts interior image boundaries.
        """
        lo_K, hi_K = self.range_K
        slack = SLACK * max(1.0, abs(lo_K), abs(hi_K))
        total = 0.0
        for b in self.branches:
            if not b.lo - slack <= y <= b.hi + slack:
                continue
            if not closed and y >= b.hi - slack and b.hi < hi_K - slack:
                continue
            s = b.slope(min(max(y, b.lo), b.hi))
            if math.isinf(s):
                return math.inf
            total += s
        return total

    def mass(self, u: float, v: float) -> float:
        """Density mass of [u, v): summed preimage lengths over M."""
        total = 0.0
        for b in self.branches:
            a, c = max(u, b.lo), min(v, b.hi)
            if c > a:
                total += abs(b.coord(c) - b.coord(a))
        return total / self.measure_M


# -- branches --------------------------------------------------------------

def _affine(x0: float, x1: float, slope: float, intercept: float):
    ya = float(slope * np.asarray(x0, dtype=float) + intercept)
    yb = float(slope * np.asarray(x1, dtype=float) + intercept)
    inv = 1.0 / abs(slope)
    piece = {"interval": [x0, x1], "kind": "affine",
             "params": {"slope": slope, "intercept": intercept}}
    return piece, Branch(min(ya, yb), max(ya, yb), lambda y: y * inv, lambda y: inv)


def _sine(x0: float, x1: float, amp: float, freq: float, phase: float):
    ya = float(amp * np.sin(freq * np.asarray(x0, dtype=float) + phase))
    yb = float(amp * np.sin(freq * np.asarray(x1, dtype=float) + phase))
    aw = abs(amp * freq)

    def ratio(y):
        return min(max(y / amp, -1.0), 1.0)

    def slope(y):
        r = ratio(y)
        return 1.0 / (aw * math.sqrt(1.0 - r * r)) if abs(r) < 1.0 else math.inf

    piece = {"interval": [x0, x1], "kind": "sin",
             "params": {"amplitude": amp, "frequency": freq, "phase": phase}}
    return piece, Branch(min(ya, yb), max(ya, yb),
                         lambda y: math.asin(ratio(y)) / abs(freq), slope)


def _power(x0: float, x1: float, p: float):
    ya, yb = float(np.asarray(x0, dtype=float) ** p), float(np.asarray(x1, dtype=float) ** p)

    def slope(y):
        if y <= 0.0:
            return math.inf if p > 1.0 else 0.0
        return y ** (1.0 / p - 1.0) / p

    piece = {"interval": [x0, x1], "kind": "power", "params": {"exponent": p}}
    return piece, Branch(min(ya, yb), max(ya, yb), lambda y: max(y, 0.0) ** (1.0 / p), slope)


def _num(v: float) -> str:
    return f"({v!r})" if v < 0 else repr(v)


def _expr(x0: float, x1: float, text: str, fwd, coord, slope):
    ya, yb = float(fwd(np.asarray(x0, dtype=float))), float(fwd(np.asarray(x1, dtype=float)))
    piece = {"interval": [x0, x1], "kind": "expr", "params": {"expr": text}}
    return piece, Branch(min(ya, yb), max(ya, yb), coord, slope)


def _exp_branch(x0, x1, c, k, r):
    """c + k*exp(r*x): x = log((y - c)/k)/r."""
    return _expr(x0, x1, f"{_num(c)} + {_num(k)}*exp({_num(r)}*x)",
                 lambda x: c + k * np.exp(r * x),
                 lambda y: math.log((y - c) / k) / r,
                 lambda y: abs(1.0 / (r * (y - c))))


def _log_branch(x0, x1, c, k, d):
    """c + k*log(x + d): x = exp((y - c)/k) - d."""
    return _expr(x0, x1, f"{_num(c)} + {_num(k)}*log(x + {_num(d)})",
                 lambda x: c + k * np.log(x + d),
                 lambda y: math.exp((y - c) / k),
                 lambda y: math.exp((y - c) / k) / abs(k))


def _cubic_branch(x0, x1, c, k):
    """c - k*x^3 on x > 0: x = cbrt((c - y)/k)."""
    return _expr(x0, x1, f"{_num(c)} - {_num(k)}*x^3",
                 lambda x: c - k * x ** 3.0,
                 lambda y: math.copysign(abs((c - y) / k) ** (1.0 / 3.0), c - y),
                 lambda y: 1.0 / (3.0 * k * abs((c - y) / k) ** (2.0 / 3.0)))


def _function(length, parts, constants=(), power_singular=False) -> FunctionRef:
    pieces = [p for p, _ in parts] + [
        {"interval": [x0, x1], "kind": "constant", "params": {"value": v}}
        for x0, x1, v in constants]
    pieces.sort(key=lambda p: p["interval"][0])
    atoms = tuple(sorted((v, (x1 - x0) / length) for x0, x1, v in constants))
    return FunctionRef(spec={"domain": [0.0, length], "pieces": pieces},
                       measure_M=length, branches=tuple(b for _, b in parts),
                       atoms=atoms, power_singular_at_zero=power_singular)


def _cuts(rng: random.Random, length: float, n: int) -> list[float]:
    widths = [rng.uniform(0.5, 1.5) for _ in range(n)]
    total = sum(widths)
    xs, acc = [0.0], 0.0
    for w in widths[:-1]:
        acc += w
        xs.append(round(length * acc / total, 12))
    return xs + [length]


def _r(rng: random.Random, lo: float, hi: float, digits: int = 4) -> float:
    return round(rng.uniform(lo, hi), digits)


# -- the five spec kinds -----------------------------------------------------

SAWTOOTH_PIECES = 40
SINE_PERIODS = 3


def sawtooth_spec(rng: random.Random) -> FunctionRef:
    """Many-piece affine sawtooth: alternately rising and falling teeth with
    random widths and random images inside [0, H]."""
    length, height = _r(rng, 0.5, 2.0), _r(rng, 0.5, 3.0)
    xs = _cuts(rng, length, SAWTOOTH_PIECES)
    parts = []
    for i, (x0, x1) in enumerate(zip(xs[:-1], xs[1:])):
        lo, hi = height * rng.uniform(0.0, 0.4), height * rng.uniform(0.6, 1.0)
        if i % 2 == 0:
            s = (hi - lo) / (x1 - x0)
            parts.append(_affine(x0, x1, s, lo - s * x0))
        else:
            s = -(hi - lo) / (x1 - x0)
            parts.append(_affine(x0, x1, s, hi - s * x0))
    return _function(length, parts)


def sine_spec(rng: random.Random) -> FunctionRef:
    """A*sin(2*pi*n*x/L) over n whole periods, cut at its extrema: its Young
    density is the arcsine law 1/(pi*sqrt(A^2 - y^2)), singular at +-A."""
    length, amp = _r(rng, 0.5, 2.0), _r(rng, 0.5, 2.0)
    n = SINE_PERIODS
    freq = 2.0 * math.pi * n / length
    xs = [0.0] + [(2 * k + 1) * length / (4.0 * n) for k in range(2 * n)] + [length]
    parts = [_sine(x0, x1, amp, freq, 0.0) for x0, x1 in zip(xs[:-1], xs[1:])]
    return _function(length, parts)


def power_spec(rng: random.Random, above_one: bool) -> FunctionRef:
    """x^p on [0, c] followed by a falling ramp from c^p to a positive value;
    p is drawn above or below 1."""
    p = _r(rng, 1.5, 3.0) if above_one else _r(rng, 0.4, 0.8)
    c = _r(rng, 0.5, 1.5)
    length = round(c + rng.uniform(0.3, 1.0), 4)
    top = float(np.asarray(c, dtype=float) ** p)
    bottom = top * rng.uniform(0.2, 0.6)
    s = (bottom - top) / (length - c)
    parts = [_power(0.0, c, p), _affine(c, length, s, top - s * c)]
    return _function(length, parts, power_singular=above_one)


def atoms_spec(rng: random.Random) -> FunctionRef:
    """Affine ramps separated by two constant pieces, which give two atoms."""
    length = _r(rng, 1.0, 2.0)
    xs = _cuts(rng, length, 5)
    h = _r(rng, 0.5, 2.0)
    values = sorted(round(h * rng.uniform(0.15, 0.85), 6) for _ in range(2))
    if values[0] == values[1]:
        values[1] = round(values[1] + 0.125 * h, 6)
    ramps = []
    for i, j in enumerate((0, 2, 4)):
        x0, x1 = xs[j], xs[j + 1]
        s = (h if i % 2 == 0 else -h) / (x1 - x0)
        ramps.append(_affine(x0, x1, s, (0.0 if s > 0 else h) - s * x0))
    constants = [(xs[1], xs[2], values[0]), (xs[3], xs[4], values[1])]
    return _function(length, ramps, constants)


def expr_spec(rng: random.Random) -> FunctionRef:
    """Three `expr` branches whose inverses the program finds by bisection:
    an exponential, a logarithm and a cubic, each with a closed-form inverse
    here."""
    length = _r(rng, 1.0, 2.0)
    a = round(_r(rng, 0.25, 0.45) * length, 4)
    b = round(_r(rng, 0.55, 0.75) * length, 4)
    parts = [
        _exp_branch(0.0, a, _r(rng, -0.5, 0.5), _r(rng, 0.3, 1.5),
                    _r(rng, 0.5, 2.0) * rng.choice((-1.0, 1.0))),
        _log_branch(a, b, _r(rng, -0.5, 0.5),
                    _r(rng, 0.5, 1.5) * rng.choice((-1.0, 1.0)), _r(rng, 0.2, 1.0)),
        _cubic_branch(b, length, _r(rng, 0.5, 2.0), _r(rng, 0.2, 1.0)),
    ]
    return _function(length, parts)


# -- references for the commands that take no spec ---------------------------

def bolza_value(n: int) -> float:
    """Bolza functional of the n-tooth sawtooth: the integral of u_n^2."""
    return 1.0 / (48.0 * n * n)


GRADIENT_YM = ((-1.0, 0.5), (1.0, 0.5))


def triangular_cdf(x: float, y: float) -> float:
    """Mass of [0, y) under the triangular density 2*h_x on [0, 2]."""
    if y <= 0.0:
        return 0.0
    if y <= x:
        return y * y / x
    if y <= 1.0:
        return x + (y - x) * (2.0 - y - x) / (1.0 - x)
    return 1.0


def dyadic_sets(lo: float, hi: float, depth: int):
    """(level, k, lo, hi) for the dyadic intervals of [lo, hi], as the
    program's BorelTestFamily lists them."""
    for level in range(depth + 1):
        n = 2 ** level
        width = (hi - lo) / n
        for k in range(n):
            yield level, k, lo + k * width, lo + (k + 1) * width
