"""An exact rational reference for affine and constant specs.

Every float is a rational number, so `fractions.Fraction` computes what an
affine-and-constant spec's Young measure is, with no rounding: image ends
s a + c, total slopes as sums of 1/|s|, dyadic leaf masses as preimage
lengths |[e_k, e_k+1) ∩ image| / |s| / M plus the atoms in the set, and
atom weights (b - a) / M.  The package's floats must lie within a few ulp
of it, each bound counted from the magnitudes its arithmetic handles:

- an image end fl(fl(s a) + c) is within 1.5 ulp of S, the largest of
  |s a|, |s b|, |c| and the constant values: bound 2 ulp(S)
- a total slope, the sum of k rounded terms 1/|s|, is within k ulp of
  itself
- a leaf mass is a difference of two distribution-function values, each a
  sum over the n pieces of a preimage length formed from values of size
  sigma = max(|domain ends|, S / min|s|): bound 8 n ulp(sigma / M)
- an atom's weight, k lengths b - a over M summed: bound 2 k ulp(X / M),
  X the larger magnitude of the domain's ends
"""
import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from oscym import pushforward_empirical, total_slope, young_density, young_measure
from oscym.funcspec import build_function

from test_columns import bits
from test_piece_table import y_grid

DEPTH = 4


@st.composite
def affine_and_constant_specs(draw):
    """Specs of 1-6 affine or constant pieces over a random domain.  The
    constant values lie on a grid of 1/8, so values that coincide merge
    into one atom and the others stay apart."""
    n = draw(st.integers(1, 6))
    cuts = [draw(st.floats(-2.0, 2.0))]
    for w in draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)):
        cuts.append(cuts[-1] + w)
    pieces = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        if draw(st.booleans()):
            slope = draw(st.floats(0.2, 5.0)) * draw(st.sampled_from((-1.0, 1.0)))
            pieces.append({"interval": [a, b], "kind": "affine",
                           "params": {"slope": slope, "intercept": draw(st.floats(-3.0, 3.0))}})
        else:
            pieces.append({"interval": [a, b], "kind": "constant",
                           "params": {"value": draw(st.integers(-24, 24)) / 8}})
    return {"domain": [cuts[0], cuts[-1]], "pieces": pieces}


class Exact:
    """The Young measure of an affine-and-constant spec, in Fractions."""

    def __init__(self, spec):
        lower, upper = map(Fraction, spec["domain"])
        self.M = upper - lower
        self.X = max(abs(lower), abs(upper))
        self.affine, self.constant = [], []
        for p in spec["pieces"]:
            a, b = map(Fraction, p["interval"])
            if p["kind"] == "affine":
                s, c = Fraction(p["params"]["slope"]), Fraction(p["params"]["intercept"])
                self.affine.append((a, b, s, c, min(s * a + c, s * b + c),
                                    max(s * a + c, s * b + c)))
            else:
                self.constant.append((a, b, Fraction(p["params"]["value"])))
        self.S = max([abs(v) for a, b, s, c, *_ in self.affine for v in (s * a, s * b, c)]
                     + [abs(v) for *_, v in self.constant] + [Fraction(0)])
        self.sigma = max([self.X] + [self.S / abs(s) for _, _, s, *_ in self.affine])

    def atoms(self) -> dict:
        weights = {}
        for a, b, v in self.constant:
            weights[v] = weights.get(v, Fraction(0)) + (b - a) / self.M
        return weights

    def set_mass(self, lo, hi, closed_right) -> Fraction:
        mass = sum((max(Fraction(0), min(top, hi) - max(bottom, lo)) / abs(s)
                    for _, _, s, _, bottom, top in self.affine), Fraction(0)) / self.M
        for a, b, v in self.constant:
            if lo <= v < hi or (closed_right and v == hi):
                mass += (b - a) / self.M
        return mass


def ulp(q: Fraction) -> float:
    return math.ulp(float(q))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(spec=affine_and_constant_specs())
def test_image_ends_and_total_slopes_match_the_rational_reference(spec):
    f = build_function(spec)
    ref = Exact(spec)
    t = f.piece_table
    for (*_, bottom, top), lo, hi in zip(ref.affine, t.lo.tolist(), t.hi.tolist()):
        assert abs(Fraction(lo) - bottom) <= 2 * ulp(ref.S)
        assert abs(Fraction(hi) - top) <= 2 * ulp(ref.S)
    # at the midpoints between image ends more than 1e-9 apart, away from
    # the rounding slack that decides which images hold a value on an end
    ends = sorted({e for *_, bottom, top in ref.affine for e in (bottom, top)})
    for y0, y1 in zip(ends[:-1], ends[1:]):
        if y1 - y0 > Fraction(1, 10 ** 9):
            y = float((y0 + y1) / 2)
            terms = [1 / abs(s) for _, _, s, _, bottom, top in ref.affine
                     if bottom <= Fraction(y) < top]
            exact = sum(terms, Fraction(0))
            assert abs(Fraction(total_slope(f, y)) - exact) <= len(terms) * ulp(exact)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(spec=affine_and_constant_specs())
def test_leaf_masses_and_atoms_match_the_rational_reference(spec):
    f = build_function(spec)
    m = young_measure(f)
    ref = Exact(spec)
    edges = np.linspace(*f.range_K, 2 ** DEPTH + 1)
    masses = m.set_masses(edges)
    bound = 8 * len(spec["pieces"]) * ulp(ref.sigma / ref.M)
    es = [Fraction(e) for e in edges.tolist()]
    for k, mass in enumerate(masses.tolist()):
        exact = ref.set_mass(es[k], es[k + 1], closed_right=k == len(masses) - 1)
        assert abs(Fraction(mass) - exact) <= bound
    weights = ref.atoms()
    assert [Fraction(a.location) for a in m.atoms] == sorted(weights)
    for a in m.atoms:
        k = sum(1 for *_, v in ref.constant if v == a.location)
        exact = weights[Fraction(a.location)]
        assert abs(Fraction(a.weight) - exact) <= 2 * k * ulp(ref.X / ref.M)


def scaled_in_x(spec, k: int) -> dict:
    """The spec of x -> f(x / 2^k): its domain and interval ends times 2^k,
    its slopes times 2^-k."""
    a = 2.0 ** k
    pieces = [dict(p, interval=[v * a for v in p["interval"]]) for p in spec["pieces"]]
    for p in pieces:
        if p["kind"] == "affine":
            p["params"] = dict(p["params"], slope=p["params"]["slope"] / a)
    return {"domain": [v * a for v in spec["domain"]], "pieces": pieces}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(spec=affine_and_constant_specs(), interior=st.lists(st.floats(0.0, 1.0), max_size=5))
def test_scaling_x_by_a_power_of_two_leaves_the_young_measure_bitwise(spec, interior):
    # nu_f does not change under x -> 2^k x, and powers of two scale floats
    # exactly: every slope, length and draw scales, every value stays
    f = build_function(spec)
    ys = y_grid(f, interior)
    m = young_measure(f)
    hist = pushforward_empirical(f, n_samples=2000, seed=7, n_bins=8)
    for k in (-40, -20, 20, 40):
        g = build_function(scaled_in_x(spec, k))
        assert bits(young_density(g, ys)) == bits(young_density(f, ys))
        assert bits(total_slope(g, ys)) == bits(2.0 ** k * total_slope(f, ys))
        mg = young_measure(g)
        assert mg.atoms == m.atoms
        if m.density is not None:
            assert bits(mg.density.cdf(ys)) == bits(m.density.cdf(ys))
        hg = pushforward_empirical(g, n_samples=2000, seed=7, n_bins=8)
        assert bits(hg.edges) == bits(hist.edges)
        assert bits(hg.masses) == bits(hist.masses)
        assert hg.point_masses == hist.point_masses


def scaled_in_y(spec, k: int) -> dict:
    """The spec of 2^k f: its slopes, intercepts and constant values times 2^k."""
    a = 2.0 ** k
    pieces = [dict(p, params={name: v * a for name, v in p["params"].items()})
              for p in spec["pieces"]]
    return dict(spec, pieces=pieces)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(spec=affine_and_constant_specs())
def test_scaling_y_by_a_power_of_two_scales_the_atoms_and_keeps_the_set_masses(spec):
    # nu_(2^k f) is nu_f pushed forward by y -> 2^k y, and powers of two
    # scale floats exactly: every value and atom location scales, every
    # preimage length, weight and count stays.  Densities are left out:
    # they divide by 2^k and read `image_slack`, which is absolute below 1
    f = build_function(spec)
    m = young_measure(f)
    edges = np.linspace(*f.range_K, 2 ** DEPTH + 1)
    masses = m.set_masses(edges)
    hist = pushforward_empirical(f, n_samples=2000, seed=7, n_bins=8)
    for k in (-40, -20, 20, 40):
        a = 2.0 ** k
        g = build_function(scaled_in_y(spec, k))
        mg = young_measure(g)
        assert bits([x.location for x in mg.atoms]) == bits([x.location * a for x in m.atoms])
        assert bits([x.weight for x in mg.atoms]) == bits([x.weight for x in m.atoms])
        assert bits(mg.set_masses(edges * a)) == bits(masses)
        hg = pushforward_empirical(g, n_samples=2000, seed=7, n_bins=8)
        assert bits(hg.masses) == bits(hist.masses)
        assert bits([p.location for p in hg.point_masses]) == bits(
            [p.location * a for p in hist.point_masses])
        assert bits([p.mass for p in hg.point_masses]) == bits(
            [p.mass for p in hist.point_masses])
