"""Young measures of oscillating functions: densities, atoms, integration.

The Young measure of f gives a set A the mass |f^-1(A)|/M, the length of
its preimage over the domain measure.  Its density part is exact twice
over: pointwise, as the sum over the pieces whose image holds y of the
absolute inverse slopes, divided by M; and as a distribution function, the
summed preimage lengths |inv(y) - inv(lo)| over M, from which every set
mass is a difference.  A test function integrates against it in x, by
the identity integral of phi dnu_f = (1/M) integral of phi(f(x)) dx, whose
integrand is bounded; the in-package adaptive Gauss-Kronrod rule
(`quadrature`, which loads on the first such integral) integrates them
piece by piece.  Every density the package makes is the density of a
Young measure, so nothing in the package integrates in y: set masses,
and the L1 gaps `homog` sums from them, are differences of the
distribution function.  Constant pieces carry no
density; each of their values is an atom weighted by its share of the domain.
Nothing is tabulated up front: a density is sampled only when output asks
for it, and the distribution function inverts each piece, its preimage
start included, only when a set mass is asked for.
`young_density` and `total_slope` take a scalar or an array of y and
evaluate a whole array at once, from the function's piece table.
"""
from __future__ import annotations

import math
import operator
from functools import reduce
from itertools import groupby
from typing import Callable, Iterable, NamedTuple, Optional

import numpy as np

from . import quadrature
from .domain import CONSTANT, MOscillatingFunction, forward_values, image_slack, validate
from .errors import ConstructionError

PROB_TOL = 1e-6
GRID_SIZE = 1024
# defaults of the set-wise checks in `convergence`, defined here so that the
# CLI reads its option defaults without loading that module
DEFAULT_DEPTH = 6
DEFAULT_WINDOW = (8, 64)
DEFAULT_TOL = 1e-2


class Atom(NamedTuple):
    location: float
    weight: float


class DensityFunction(NamedTuple):
    """Nonnegative density on a closed support interval, with its exact
    distribution function and expectation.

    `evaluator` takes an array of y and returns the density at each, an
    array of the same shape; one that accepts only a scalar still works,
    called once per value with a Python float.  `cdf` is the distribution
    function y -> integral of the density below y, taking and returning
    arrays; set masses are its differences.  `expectation` maps a test
    function phi to the integral of phi against the density.  A Young
    density (`young_density_function`) sets them all: its cdf sums
    preimage lengths, and its expectation integrates in x.
    """

    support: tuple[float, float]
    evaluator: Callable
    cdf: Callable[[np.ndarray], np.ndarray]
    expectation: Callable[[Callable[[float], float]], float]

    def __call__(self, y: float) -> float:
        return float(self.evaluator(y))

    def masses(self, edges) -> np.ndarray:
        """Integrals of the density over the consecutive intervals of the
        nondecreasing `edges`, each clipped to the support."""
        return np.diff(self.cdf(np.clip(np.asarray(edges, dtype=float), *self.support)))


class ScalarMeasureRCA(NamedTuple):
    """Element of the regular measures on range_K: density part plus atoms."""

    range_K: tuple[float, float]
    density: Optional[DensityFunction] = None
    atoms: tuple[Atom, ...] = ()

    def set_mass(self, lo: float, hi: float, closed_right: bool = False) -> float:
        """Measure of the interval [lo, hi) (closed on the right on demand), 0
        if lo > hi: the first of `set_masses`, whose last interval holds hi."""
        if lo > hi:
            return 0.0
        return float(self.set_masses([lo, hi] if closed_right else [lo, hi, hi])[0])

    def set_masses(self, edges) -> np.ndarray:
        """Measures of the consecutive intervals [e_i, e_i+1) of the
        nondecreasing `edges`, the last one closed on the right."""
        edges = np.asarray(edges, dtype=float)
        if self.density is not None:
            masses = self.density.masses(edges)
        else:
            masses = np.zeros(len(edges) - 1)
        for a in self.atoms:
            i = int(np.searchsorted(edges, a.location, side="right")) - 1
            if a.location == edges[-1]:
                i -= 1
            if 0 <= i < len(masses):
                masses[i] += a.weight
        return masses


def merge_atoms(atoms: Iterable[tuple[float, float]]) -> tuple[Atom, ...]:
    """One atom per value: the weights at equal locations (0.0 and -0.0
    too) summed in sorted order, at the first of them.  Distinct values
    stay apart, whatever the unit of y."""
    return tuple(Atom(loc, reduce(operator.add, [w for _, w in run]))
                 for loc, run in groupby(sorted(atoms), key=operator.itemgetter(0)))


def _slope_sum(f: MOscillatingFunction, y):
    """Sum of absolute inverse slopes over pieces whose image holds y, at a
    scalar y (returning a float) or at each value of an array.

    Images count as half-open, [lo, hi), except that an image reaching the
    top of range_K is closed there: the convention of `set_mass`, so a value
    on the boundary between two touching images counts once.  A value
    within rounding slack of an image end counts as on it.  The sum is +inf
    where any contributing slope is singular.  Each kind of piece gives its
    terms in one call of its array form (`slope_terms`), and pieces are
    added in order, one row at a time (`_sum_rows`).
    """
    t = f.piece_table
    ys = np.asarray(y, dtype=float)
    row = ys.reshape(1, -1)
    top = f.range_K[1]
    slack = image_slack(f.range_K[0], top)
    hit = (t.lo[:, None] - slack <= row) & (row < t.hi[:, None] - slack)
    # an image reaching the top is closed there; only values within a few
    # slacks of the top can sit on such an image end
    near = np.flatnonzero(row[0] >= top - 4 * slack)
    if near.size:
        tops = np.flatnonzero(t.hi >= top - slack)
        hit[np.ix_(tops, near)] |= np.abs(row[0, near] - t.hi[tops, None]) <= slack
    terms = np.empty(hit.shape)
    for g in t.kinds:
        terms[g.at] = g.slope_terms(hit[g.at], row[0])
    total = _sum_rows(terms)
    return float(total[0]) if ys.ndim == 0 else total.reshape(ys.shape)


def _sum_rows(terms: np.ndarray) -> np.ndarray:
    """Column sums of a (pieces x values) array, adding the rows in piece
    order: a sum along axis 0 adds two or more columns row after row, but
    a lone column pairwise."""
    if terms.shape[1] == 1:
        return np.array([reduce(operator.add, terms[:, 0].tolist(), 0.0)])
    return terms.sum(axis=0)


def young_density(f: MOscillatingFunction, y):
    """Density of the Young measure of f at y, a scalar or an array (zero
    off the piece images)."""
    return _slope_sum(f, y) / f.measure_M


def total_slope(f: MOscillatingFunction, y):
    """Sum of absolute inverse-slope contributions at y, a scalar or an
    array; equals the Young density scaled by the domain measure."""
    return _slope_sum(f, y)


def young_density_function(f: MOscillatingFunction) -> Optional[DensityFunction]:
    """Density part of the Young measure of f, with its exact distribution
    function and expectation; None when f has no monotone piece.

    F(y) = sum over the monotone pieces of |inv(clip(y)) - inv(lo)| / M,
    with clip(y) clamped to the piece image [lo, hi]: the preimage length
    of [lo, y] under each piece.  Each kind of piece inverts the values and
    each image's lo for all its pieces in one call of its array form, and
    the rows are added in piece order.  The expectation of phi is the sum
    over the monotone pieces of the integral of phi(f(x)) over the piece,
    over M: the paper's identity, integrated in x where the integrand is
    bounded, with f and then phi called once on each panel's nodes.
    """
    t = f.piece_table
    if not t.lo.size:
        return None
    support = (min(t.lo.tolist()), max(t.hi.tolist()))
    M = f.measure_M

    def expectation(phi):
        return math.fsum(
            quadrature.integrate(
                lambda x, _p=p: forward_values(phi, forward_values(_p.forward, x)),
                p.sub_lower, p.sub_upper)
            for p in f.pieces if p.kind != CONSTANT) / M

    def cdf(ys):
        ys = np.asarray(ys, dtype=float)
        # column 0, -inf clipped to lo, is each piece's preimage start
        flat = np.r_[-np.inf, ys.reshape(-1)]
        lengths = np.empty((t.lo.size, ys.size))
        for g in t.kinds:
            lo, hi = t.lo[g.at, None], t.hi[g.at, None]
            x = g.invert(np.arange(g.at.size)[:, None], np.clip(flat, lo, hi))
            lengths[g.at] = np.abs(x[:, 1:] - x[:, :1])
        return (_sum_rows(lengths) / M).reshape(ys.shape)

    return DensityFunction(
        support=support,
        evaluator=lambda y: young_density(f, y),
        cdf=cdf,
        expectation=expectation,
    )


def validated(f: MOscillatingFunction) -> MOscillatingFunction:
    """f, if it passes `validate`; else a ConstructionError naming every violation."""
    report = validate(f)
    if not report.valid:
        raise ConstructionError(
            "function failed validation: "
            + "; ".join(v.message for v in report.violations)
        )
    return f


def young_measure(f: MOscillatingFunction) -> ScalarMeasureRCA:
    """Build the Young measure of a validated oscillating function."""
    return unvalidated_young_measure(validated(f))


def unvalidated_young_measure(f: MOscillatingFunction) -> ScalarMeasureRCA:
    """The Young measure of f, density and atoms, built without validating
    f; `young_measure` validates first."""
    t = f.piece_table
    lengths = t.sub_upper[t.constant] - t.sub_lower[t.constant]
    atoms = merge_atoms(zip(t.value.tolist(), (lengths / f.measure_M).tolist()))
    return ScalarMeasureRCA(range_K=f.range_K, density=young_density_function(f),
                            atoms=atoms)


def integrate_density(g: DensityFunction, A: tuple[float, float]) -> float:
    """Integral of g over the interval A, clipped to the support."""
    if A[1] <= A[0]:
        return 0.0
    return float(g.masses(A)[0])


def integrate_test(m: ScalarMeasureRCA, phi: Callable[[float], float]) -> float:
    """Integral of a bounded test function against the measure: the
    density's `expectation`, in x for a Young density, plus the atoms."""
    total = 0.0
    if m.density is not None:
        total += m.density.expectation(phi)
    for a in m.atoms:
        total += a.weight * phi(a.location)
    return total


def tv_norm(m: ScalarMeasureRCA) -> float:
    """Total variation: the absolute atom weights plus the density's mass,
    which is its integral of |g|, as a density is nonnegative."""
    total = sum(abs(a.weight) for a in m.atoms)
    if m.density is not None:
        total += integrate_density(m.density, m.density.support)
    return total


def is_probability(m: ScalarMeasureRCA, prob_tol: float = PROB_TOL) -> bool:
    """True iff the density is nonnegative (sampled), atom weights are
    positive, and the total mass is 1 within prob_tol."""
    if any(a.weight <= 0 for a in m.atoms):
        return False
    if m.density is not None:
        g = m.density
        ys = np.linspace(*g.support, 257)[1:-1]
        vs = forward_values(g.evaluator, ys)
        if (np.isfinite(vs) & (vs < -prob_tol)).any():
            return False
    return abs(tv_norm(m) - 1.0) <= prob_tol
