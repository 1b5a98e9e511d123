"""The in-package adaptive Gauss-Kronrod rule.

One panel is checked against exact polynomial integrals, the adaptive rule
against closed forms with singular ends and with a kink between its cut
points, and the CLI commands that integrate against the claim that they
load no scipy module.  An integrand that takes arrays is called once per
panel, on its 15 nodes, and gives bitwise what a call per node gives; one
that takes only scalars is called once per node with a Python float.
"""
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscym import cli, quadrature
from oscym.convergence import (BorelTestFamily, NonhomogeneousDensityFamily,
                               _leaf_masses, homogeneity_check)
from oscym.domain import DIFFEOMORPHIC, Domain1D, forward_derivative, forward_values
from oscym.errors import QuadratureError
from oscym.families import identity_map, triangular_quantile
from oscym.funcspec import build_function
from oscym.measures import (DEFAULT_TOL, integrate_test, young_density_function,
                            young_measure)
from oscym.relaxation import bolza_functional

from conftest import flat_density, fresh_python, triangular_density

DATA = Path(__file__).resolve().parent / "data"


def per_node(fn):
    """fn called once per node with a Python float, as the rule called every
    integrand before it took arrays: the reference for the array call."""
    return lambda ys: np.array([fn(y) for y in ys.tolist()], dtype=float)


def spec_function(name):
    return build_function(json.loads((DATA / f"{name}.json").read_text()))


def _integral_of_powers(weights, a, b):
    """Exact integral over [a, b] of sum_k weights[k] * x^k."""
    A, B = Fraction(a), Fraction(b)
    return sum(Fraction(c) * (B ** (k + 1) - A ** (k + 1)) / (k + 1)
               for k, c in enumerate(weights))


def _integral_of_abs_powers(weights, a, b):
    """Exact integral over [a, b] of sum_k |weights[k]| * |x|^k: an
    antiderivative of |x|^k is sign(x) |x|^(k+1) / (k+1)."""
    A, B = Fraction(a), Fraction(b)
    return sum(abs(Fraction(c)) * (B * abs(B) ** k - A * abs(A) ** k) / (k + 1)
               for k, c in enumerate(weights))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(coeffs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=22),
       lo=st.floats(-2.0, 2.0), width=st.floats(1e-3, 2.0))
def test_one_panel_is_exact_for_polynomials_up_to_degree_21(coeffs, lo, width):
    hi = lo + width
    h = 0.5 * (hi - lo)
    nodes = (lo + h) + h * quadrature._NODES
    value, _ = quadrature._kronrod(np.polynomial.polynomial.polyval(nodes, coeffs), h)
    exact = _integral_of_powers(coeffs, lo, hi)
    scale = _integral_of_abs_powers(coeffs, lo, hi)
    assert abs(Fraction(value) - exact) <= Fraction(1e-13) * scale


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(a=st.floats(-5.0, 5.0), width=st.floats(0.1, 5.0),
       ends=st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
                      st.one_of(st.just(1.0), st.floats(0.0, 1.0))),
       cuts=st.lists(st.floats(0.01, 0.99), max_size=4))
def test_arcsine_masses_match_their_closed_form(a, width, ends, cuts):
    # the density (y-a)^(-1/2) (b-y)^(-1/2) is infinite at both ends of
    # its support; its mass below y is 2 asin(sqrt((y-a)/(b-a)))
    b = a + width
    u, v = sorted(ends)
    lo, hi = a + u * width, a + v * width
    if u == 0.0:
        lo = a
    if v == 1.0:
        hi = b

    def mass_below(y):
        # from the nearer end, where the argument of asin is well conditioned
        p, q = (y - a) / (b - a), (b - y) / (b - a)
        if p <= 0.5:
            return 2.0 * math.asin(math.sqrt(p))
        return math.pi - 2.0 * math.asin(math.sqrt(q))

    got = quadrature.integrate(lambda y: 1.0 / math.sqrt((y - a) * (b - y)),
                               lo, hi, points=[a + c * width for c in cuts])
    assert abs(got - (mass_below(hi) - mass_below(lo))) <= 1e-9


def _triangular_l1(xi, xj):
    """Closed-form L1 distance between the triangular densities 2 h_xi and
    2 h_xj, xi < xj: they differ in one sign below xi and above xj, and
    cross once between, at y* = xj / (1 - xi + xj)."""
    below = xi - xi * xi / xj
    above = (1.0 - xj) - (1.0 - xj) ** 2 / (1.0 - xi)

    def G(y):  # antiderivative of g_xi - g_xj on [xi, xj]
        return -(1.0 - y) ** 2 / (1.0 - xi) - y * y / xj

    cross = xj / (1.0 - xi + xj)
    return below + above + 2.0 * G(cross) - G(xi) - G(xj)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(xs=st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95))
       .filter(lambda t: abs(t[0] - t[1]) > 1e-3))
def test_homog_distance_with_a_kink_off_the_cut_points(xs):
    # the L1 distance of two slices, which homog's leaf sum bounds from
    # below: the kink where the slices cross is no cut point, so only
    # bisection resolves it
    xi, xj = sorted(xs)
    gi, gj = triangular_density(xi), triangular_density(xj)
    got = quadrature.integrate(lambda y: abs(gi(y) - gj(y)), 0.0, 2.0,
                               points=(xi, 1.0, xj, 1.0))
    assert abs(got - _triangular_l1(xi, xj)) <= 1e-9


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(xs=st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95))
       .filter(lambda t: abs(t[0] - t[1]) > 1e-3))
def test_homog_leaf_sum_is_a_close_lower_bound_of_the_l1_distance(xs):
    # the gaps of exact leaf masses miss only what cancels inside the leaves
    # where the two slices cross
    xi, xj = sorted(xs)
    test = BorelTestFamily((0.0, 2.0))
    gi, gj = (_leaf_masses(young_density_function(triangular_quantile(x)).masses, test)
              for x in (xi, xj))
    l1 = _triangular_l1(xi, xj)
    assert 0.9 * l1 <= float(np.abs(gi - gj).sum()) <= l1


# the maps whose Young densities are the slices of `homog`'s families
SLICES = {"triangular": triangular_quantile, "uniform": lambda x: identity_map()}


def _quadrature_homogeneous(family, x_samples, tol):
    """homog's verdict with each pair's L1 distance integrated in y, cut at
    both slices' piece-image ends, to 1e-3 tol: the reference for the leaf
    sum."""
    fam = cli._builtin_family(family)
    xs = np.linspace(fam.domain.lower, fam.domain.upper, x_samples + 2)[1:-1]
    slices = [(young_density_function(f), (*f.piece_table.lo, *f.piece_table.hi))
              for f in (SLICES[family](float(x)) for x in xs)]
    return all(
        quadrature.integrate(lambda y: np.abs(gi.evaluator(y) - gj.evaluator(y)),
                             *fam.range_K, tol=1e-3 * tol, points=ei + ej)
        <= tol
        for i, (gi, ei) in enumerate(slices) for gj, ej in slices[i + 1:])


@pytest.mark.parametrize("family", ["triangular", "uniform"])
@pytest.mark.parametrize("x_samples", range(2, 10))
def test_homog_verdict_matches_the_quadrature_reference(family, x_samples):
    fam = cli._builtin_family(family)
    want = _quadrature_homogeneous(family, x_samples, DEFAULT_TOL)
    assert want is (family == "uniform")
    assert homogeneity_check(fam, x_samples) is want


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_integral_raises(bad):
    # y = 0.5 is a node of the first panel
    with pytest.raises(QuadratureError):
        quadrature.integrate(lambda y: bad if y == 0.5 else 1.0, 0.0, 1.0)


def test_an_integral_that_does_not_converge_raises():
    # 2e4 / pi sign changes: MAX_SUBDIVISIONS panels cannot reach tol
    with pytest.raises(QuadratureError, match="did not converge"):
        quadrature.integrate(lambda y: np.sign(np.sin(1e4 * y)), 0.0, 1.0, tol=1e-12)


def test_cli_exits_3_on_a_non_finite_integral(monkeypatch, capsys):
    nan_density = flat_density(math.nan)
    family = NonhomogeneousDensityFamily(
        domain=Domain1D(0.0, 1.0), evaluator=lambda x: nan_density,
        range_K=(0.0, 1.0))
    monkeypatch.setattr(cli, "_builtin_family", lambda name: family)
    assert cli.main(["homog"]) == cli.EXIT_NUMERIC
    assert "numeric error" in capsys.readouterr().err


def test_integrating_commands_do_not_import_scipy():
    probe = (
        "import sys\n"
        "import oscym.cli\n"
        "for argv, want in ((['bolza', '--n-list', '1,2'], 0),\n"
        "                   (['bolza', '--gradient-ym'], 0),\n"
        "                   (['homog'], 1),\n"
        "                   (['weak-cont', '--n-stop', '128', '--depth', '4'], 0)):\n"
        "    rc = oscym.cli.main(argv)\n"
        "    assert rc == want, (argv, rc)\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "assert not loaded, loaded\n"
    )
    r = fresh_python("-c", probe)
    assert r.returncode == 0, r.stderr


def test_an_array_integrand_is_called_once_per_panel(monkeypatch):
    panels, shapes = [], []
    kronrod = quadrature._kronrod
    monkeypatch.setattr(quadrature, "_kronrod",
                        lambda values, h: panels.append(h) or kronrod(values, h))

    def fn(y):
        shapes.append(np.shape(y))
        return np.abs(y - 0.3)  # a kink off the cut points: bisection runs

    assert quadrature.integrate(fn, 0.0, 1.0) == pytest.approx(0.29, abs=1e-9)
    assert len(panels) > 2
    assert shapes == [(15,)] * len(panels)


def test_a_scalar_only_integrand_receives_python_floats():
    seen = set()

    def fn(y):
        seen.add(type(y))
        return math.sqrt(abs(y - 0.3))

    quadrature.integrate(fn, 0.0, 1.0, points=(0.3,))
    assert seen == {np.ndarray, float}
    seen.clear()
    assert forward_values(fn, np.array([0.3, 0.55])).tolist() == [0.0, 0.5]
    assert seen == {np.ndarray, float}


@pytest.mark.parametrize("fn, a, b, points", [
    (lambda y: y * y - 3.0 * y, 0.0, 2.0, ()),
    (lambda y: np.abs(y - 0.3), 0.0, 2.0, (0.7,)),
    (triangular_density(0.3), 0.0, 2.0, (0.3, 1.0)),
    (lambda y, _ys=np.linspace(0.0, 2.0, 9): np.interp(y, _ys, _ys ** 2), 0.0, 2.0, ()),
    (young_density_function(spec_function("sine")).evaluator, -1.0, 1.0, (0.0,)),
], ids=["polynomial", "kink", "triangular", "grid", "arcsine"])
def test_array_calls_equal_a_call_per_node_bitwise(fn, a, b, points):
    assert quadrature.integrate(fn, a, b, points) == quadrature.integrate(
        per_node(fn), a, b, points)


@pytest.mark.parametrize("name", ["sine", "power", "expr", "tent", "triangular"])
def test_x_integrals_equal_a_call_per_node_bitwise(name):
    # the triangular slice h_0.3 integrates in x too, over its quantile map
    f = triangular_quantile(0.3) if name == "triangular" else spec_function(name)
    pieces = [p for p in f.pieces if p.kind == DIFFEOMORPHIC]
    for phi in (lambda y: y * y, math.cos):
        loop = math.fsum(quadrature.integrate(
            per_node(lambda x, _p=p: phi(float(_p.forward(x)))), p.sub_lower, p.sub_upper)
            for p in pieces) / f.measure_M
        assert integrate_test(young_measure(f), phi) == loop
    loop = 0.0
    for p in f.pieces:
        loop += quadrature.integrate(
            per_node(lambda x, _p=p: float(_p.forward(x)) ** 2
                     + (forward_derivative(_p, x) ** 2 - 1.0) ** 2),
            p.sub_lower, p.sub_upper)
    assert bolza_functional(f) == loop
