"""Array forms of the piece inverse and inverse slope.

`Piece.invert` and `Piece.inverse_slopes` take a whole array of values, and
`invert_piece` and `inverse_slope` are each of them at one value.  At every
value the array forms must give bitwise what the scalar algorithms give for
that value alone: the closed forms of affine, sin and power pieces the
value of their scalar formulas in Python floats, and an `expr` piece the
value of one bisection and one finite difference at that value.  Densities
and distribution functions call them once per piece, not once per value.
"""
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from oscym.domain import (
    BISECT_MAX_ITER,
    BISECT_WIDTH,
    DERIVATIVE_FLOOR,
    H_FD_SCALE,
    Domain1D,
    MOscillatingFunction,
    Piece,
    inverse_slope,
    invert_piece,
)
from oscym.errors import SingularSlopeError
from oscym.exprparse import parse_expression
from oscym.funcspec import build_function
from oscym.measures import young_density, young_density_function

# -- the scalar algorithms the array forms replaced, kept as references ------

def loop_invert(p, y):
    """Bisection of one value, one scalar forward call per halving."""
    lo, hi = p.image
    y = min(max(y, lo), hi)
    a, b = p.sub_lower, p.sub_upper
    fa = float(p.forward(a)) - y
    if fa == 0.0:
        return a
    for _ in range(BISECT_MAX_ITER):
        if b - a <= BISECT_WIDTH:
            break
        mid = 0.5 * (a + b)
        fm = float(p.forward(mid)) - y
        if fm == 0.0:
            return mid
        if (fm > 0) == (fa > 0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


def loop_derivative(p, x):
    h = H_FD_SCALE * p.length
    lo, hi = p.sub_lower, p.sub_upper
    f = lambda t: float(p.forward(t))  # noqa: E731
    if x - h >= lo and x + h <= hi:
        return (f(x + h) - f(x - h)) / (2 * h)
    if x + 2 * h <= hi:
        return (-3 * f(x) + 4 * f(x + h) - f(x + 2 * h)) / (2 * h)
    return (3 * f(x) - 4 * f(x - h) + f(x - 2 * h)) / (2 * h)


def loop_inverse_slope(p, y):
    """One over one finite difference, +inf where singular."""
    x = loop_invert(p, y)
    d = loop_derivative(p, x)
    h = H_FD_SCALE * p.length
    scale = max(1.0, abs(float(p.forward(x))))
    floor = max(DERIVATIVE_FLOOR, 100.0 * 2.2e-16 * scale / h)
    return math.inf if abs(d) < floor else 1.0 / abs(d)


def sine_formulas(A, w, ph, lo, hi):
    """The scalar closed forms of a sine branch, in Python floats."""
    k = round((w * 0.5 * (lo + hi) + ph) / math.pi)
    sign = -1.0 if k % 2 else 1.0

    def inv(y):
        return (k * math.pi + sign * math.asin(min(max(y / A, -1.0), 1.0)) - ph) / w

    def inv_d(y):
        r = min(max(y / A, -1.0), 1.0)
        return 1.0 / (abs(A * w) * math.sqrt(max(1.0 - r * r, 0.0))) \
            if abs(r) < 1.0 else math.inf

    return inv, inv_d


def power_formulas(p):
    def inv_d(y):
        e = 1.0 / p - 1.0
        y = max(y, 0.0)
        return math.inf if y == 0.0 and e < 0 else y ** e / p

    return (lambda y: y ** (1.0 / p)), inv_d


def closed_slope(inv_d, y):
    v = abs(inv_d(y))
    return v if math.isfinite(v) and v <= 1.0 / DERIVATIVE_FLOOR else math.inf


# -- pieces and values ----------------------------------------------------------

@st.composite
def pieces(draw):
    """(piece, scalar inverse, scalar inverse slope) of one kind: the
    scalar forms are the closed formulas, or the loops for expr pieces."""
    kind = draw(st.sampled_from(["affine", "sin", "power", "expr"]))
    if kind == "affine":
        lo = draw(st.floats(-2.0, 2.0))
        interval = [lo, lo + draw(st.floats(0.01, 3.0))]
        slope = draw(st.floats(0.1, 5.0)) * draw(st.sampled_from([-1.0, 1.0]))
        params = {"slope": slope, "intercept": draw(st.floats(-2.0, 2.0))}
    elif kind == "sin":
        A = draw(st.floats(0.2, 3.0))
        w = draw(st.floats(0.5, 20.0))
        ph = draw(st.floats(-1.0, 1.0))
        k = draw(st.integers(-2, 2))
        # a monotone branch: t = w x + ph within [(k - 1/2) pi, (k + 1/2) pi]
        u = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)))
        t = [(k - 0.5 + v) * math.pi for v in u]
        interval = [(t[0] - ph) / w, (t[1] - ph) / w]
        if not interval[0] < interval[1]:
            interval = [((k - 0.5) * math.pi - ph) / w, ((k + 0.5) * math.pi - ph) / w]
        params = {"amplitude": A, "frequency": w, "phase": ph}
    elif kind == "power":
        p = draw(st.one_of(st.floats(0.2, 0.95), st.floats(1.05, 4.0), st.just(1.0)))
        lo = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
        interval = [lo, lo + draw(st.floats(0.05, 2.0))]
        params = {"exponent": p}
    else:
        text = draw(st.sampled_from([
            "0.2 + 0.8*exp(1.2*x)", "0.3 - 0.9*log(x + 0.4)", "1.5 - 0.6*x^3",
            "x^0.5 + x", "2^x - 1", "-x/(1 + x)"]))
        lo = draw(st.floats(0.0, 1.0))
        interval = [lo, lo + draw(st.floats(0.05, 1.5))]
        params = {"expr": text}
    f = build_function({"domain": interval, "pieces": [
        {"interval": interval, "kind": kind, "params": params}]})
    piece = f.pieces[0]
    if kind == "sin":
        inv, inv_d = sine_formulas(A, w, ph, *interval)
        return piece, inv, lambda y: closed_slope(inv_d, y)
    if kind == "power":
        inv, inv_d = power_formulas(params["exponent"])
        return piece, inv, lambda y: closed_slope(inv_d, y)
    if kind == "affine":
        return (piece, lambda y: (y - params["intercept"]) / params["slope"],
                lambda y: closed_slope(lambda _: 1.0 / params["slope"], y))
    return piece, lambda y: loop_invert(piece, y), lambda y: loop_inverse_slope(piece, y)


def values(p, fractions):
    """The image ends (y = 0 for a power piece from 0), one ulp inside
    each, and the given fractions of the image."""
    lo, hi = p.image
    ys = [lo, hi, np.nextafter(lo, hi), np.nextafter(hi, lo)]
    return np.array(ys + [lo + u * (hi - lo) for u in fractions])


def scalar_slope(p, y):
    try:
        return inverse_slope(p, y)
    except SingularSlopeError:
        return math.inf


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(case=pieces(), fractions=st.lists(st.floats(0.0, 1.0), max_size=30))
def test_array_forms_equal_the_scalar_ones_bitwise(case, fractions):
    p, inv, inv_slope = case
    ys = values(p, fractions)
    lo, hi = p.image
    xs = p.invert(ys)
    assert xs.tobytes() == np.array([invert_piece(p, y) for y in ys]).tobytes()
    assert xs.tobytes() == np.array([inv(min(max(y, lo), hi)) for y in ys]).tobytes()
    slopes = p.inverse_slopes(ys)
    assert slopes.tobytes() == np.array([scalar_slope(p, y) for y in ys]).tobytes()
    assert slopes.tobytes() == np.array([inv_slope(y) for y in ys]).tobytes()


def test_power_slopes_at_zero_for_exponents_below_and_above_one():
    for exponent, at_zero in ((0.5, 0.0), (1.0, 1.0), (2.0, math.inf)):
        f = build_function({"domain": [0.0, 1.0], "pieces": [
            {"interval": [0.0, 1.0], "kind": "power", "params": {"exponent": exponent}}]})
        p = f.pieces[0]
        assert p.inverse_slopes(np.array([0.0, 0.25]))[0] == at_zero
        assert invert_piece(p, 0.0) == 0.0


def test_lockstep_bisection_stops_each_value_at_its_own_exact_zero():
    # x on (0, 1) halves at dyadic points: 0.5 is hit first, 0.375 third,
    # 0.3 never; 0 is the lower end itself
    p = build_function({"domain": [0.0, 1.0], "pieces": [
        {"interval": [0.0, 1.0], "kind": "expr", "params": {"expr": "x"}}]}).pieces[0]
    ys = np.array([0.5, 0.3, 0.375, 0.0, 1.0])
    xs = p.invert(ys)
    assert xs.tobytes() == np.array([loop_invert(p, y) for y in ys]).tobytes()
    assert xs[[0, 2, 3]].tolist() == [0.5, 0.375, 0.0]


def counted_piece(text, lo, hi):
    calls = []
    fwd = parse_expression(text)

    def forward(x):
        calls.append(np.size(x))
        return fwd(x)

    return Piece(lo, hi, forward=forward), calls


def test_density_and_distribution_make_forward_calls_per_piece_not_per_value():
    p, calls = counted_piece("0.3 - 0.9*log(x + 0.4)", 0.5, 1.0)
    f = MOscillatingFunction(Domain1D(0.5, 1.0), (p,))
    g = young_density_function(f)
    ys = np.linspace(*f.range_K, 1024)
    bound = BISECT_MAX_ITER + 10  # a bisection, a finite difference, a scale
    calls.clear()
    density = young_density(f, ys)
    assert len(calls) <= bound
    calls.clear()
    cdf = g.cdf(ys)
    assert len(calls) <= bound
    assert np.isfinite(density[1:-1]).all() and np.all(np.diff(cdf) >= 0)
