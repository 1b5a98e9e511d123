"""Young measures of oscillating functions: densities, atoms, integration.

The Young measure of f gives a set A the mass |f^-1(A)|/M, the length of
its preimage over the domain measure.  Its density part is exact twice
over: pointwise, as the sum over the pieces whose image holds y of the
absolute inverse slopes, divided by M; and as a distribution function, the
summed preimage lengths |inv(y) - inv(lo)| over M, from which every set
mass is a difference.  A test function integrates against it in x, by
the identity integral of phi dnu_f = (1/M) integral of phi(f(x)) dx, whose
integrand is bounded.  The in-package adaptive Gauss-Kronrod rule
(`quadrature`) runs those x-integrals piece by piece, and integrates in y
only densities that have no function behind them (user-supplied, grid or
family densities): it cuts at their singular points and breakpoints, maps
each cut interval so that inverse-square-root singularities at its ends
become bounded, and bisects until its error estimate is at most
max(tol, tol |integral|).  Constant pieces carry no density; they
appear as atoms weighted by their share of the domain.  Nothing is
tabulated up front: a density is sampled only when output asks for it.
`young_density` and `total_slope` take a scalar or an array of y and
evaluate a whole array at once, from the function's piece table.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import quadrature
from .domain import (
    CONSTANT,
    MOscillatingFunction,
    forward_values,
    invert_piece,
    validate,
)
from .errors import ConstructionError

PROB_TOL = 1e-6
GRID_SIZE = 1024
# defaults of the set-wise checks in `convergence`, defined here so that the
# CLI reads its option defaults without loading that module
DEFAULT_DEPTH = 6
DEFAULT_WINDOW = (8, 64)
DEFAULT_TOL = 1e-2
MERGE_SNAP = 1e-12  # atoms this close share one location


class Atom(NamedTuple):
    location: float
    weight: float


@dataclass(frozen=True)
class DensityFunction:
    """Nonnegative density on a closed support interval.

    `evaluator` takes an array of y and returns the density at each, an
    array of the same shape; quadrature calls it once per panel.  One that
    accepts only a scalar still works, called once per value with a Python
    float.  It may return +inf exactly at the listed singular points;
    quadrature cuts there and never evaluates the cut points themselves.
    `breakpoints` mark mere kinks, cut points too (`cut_points` lists both).
    The rule maps each cut interval [lo, hi] by y = lo + w t^2 (3 - 2t),
    w = hi - lo, so an integrable inverse-square-root singularity at a cut
    point leaves a bounded integrand in t; a non-integrable singularity,
    or a non-finite value at a node, raises QuadratureError.  `cdf`, when
    set, is the exact distribution function y -> integral of the density
    below y, taking and returning arrays; set masses are then its
    differences and no quadrature runs.  `expectation`, when set, maps a
    test function phi to the integral of phi against the density without
    integrating in y.  A Young density sets both, and lists no singular
    points: its infinite values sit at piece-image endpoints, which are
    its breakpoints or the ends of its support.
    """

    support: tuple[float, float]
    evaluator: Callable
    singular_points: tuple[float, ...] = ()
    breakpoints: tuple[float, ...] = ()
    cdf: Optional[Callable[[np.ndarray], np.ndarray]] = None
    expectation: Optional[Callable[[Callable[[float], float]], float]] = None

    @classmethod
    def from_grid(cls, ys: np.ndarray, values: np.ndarray) -> "DensityFunction":
        ys = np.asarray(ys, dtype=float)
        values = np.asarray(values, dtype=float)
        finite = np.isfinite(values)
        yf, vf = ys[finite], values[finite]

        def ev(y, _ys=yf, _vs=vf):
            return np.interp(y, _ys, _vs)

        return cls(
            support=(float(ys[0]), float(ys[-1])),
            evaluator=ev,
            singular_points=tuple(ys[~finite]),
        )

    def __call__(self, y: float) -> float:
        return float(self.evaluator(y))

    @property
    def cut_points(self) -> tuple[float, ...]:
        """Where quadrature in y cuts: the singular points and breakpoints."""
        return (*self.singular_points, *self.breakpoints)

    def masses(self, edges, quad_tol: float = quadrature.QUAD_TOL) -> np.ndarray:
        """Integrals of the density over the consecutive intervals of the
        nondecreasing `edges`, each clipped to the support."""
        edges = np.clip(np.asarray(edges, dtype=float), *self.support)
        if self.cdf is not None:
            return np.diff(self.cdf(edges))
        return np.array([
            quadrature.integrate(self.evaluator, a, b, points=self.cut_points, tol=quad_tol)
            for a, b in zip(edges[:-1], edges[1:])
        ])


@dataclass(frozen=True)
class ScalarMeasureRCA:
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


def merge_atoms(atoms: Sequence[tuple[float, float]]) -> tuple[Atom, ...]:
    """Sum weights of atoms whose locations coincide within MERGE_SNAP."""
    merged: list[Atom] = []
    for loc, w in sorted(atoms):
        if merged and abs(loc - merged[-1].location) <= MERGE_SNAP:
            merged[-1] = Atom(merged[-1].location, merged[-1].weight + w)
        else:
            merged.append(Atom(loc, w))
    return tuple(merged)


def _slope_sum(f: MOscillatingFunction, y):
    """Sum of absolute inverse slopes over pieces whose image holds y, at a
    scalar y (returning a float) or at each value of an array.

    Images count as half-open, [lo, hi), except that an image reaching the
    top of range_K is closed there: the convention of `set_mass`, so a value
    on the boundary between two touching images counts once.  A value
    within rounding slack of an image end counts as on it.  The sum is +inf
    where any contributing slope is singular.  Affine pieces read their
    slope from the piece table; every other piece makes one call of its
    array form `Piece.inverse_slopes` on all the values it holds.  Pieces
    are added in order, one row at a time.
    """
    t = f.piece_table
    ys = np.asarray(y, dtype=float)
    row = ys.reshape(1, -1)
    top = f.range_K[1]
    slack = 1e-12 * max(1.0, abs(f.range_K[0]), abs(top))
    hit = (t.lo[:, None] - slack <= row) & (row < t.hi[:, None] - slack)
    # an image reaching the top is closed there; only values within a few
    # slacks of the top can sit on such an image end
    near = np.flatnonzero(row[0] >= top - 4 * slack)
    if near.size:
        tops = np.flatnonzero(t.hi >= top - slack)
        hit[np.ix_(tops, near)] |= np.abs(row[0, near] - t.hi[tops, None]) <= slack
    terms = np.where(hit, t.inv_slope[:, None], 0.0)
    for i in np.flatnonzero(np.isnan(t.inv_slope)).tolist():
        held = hit[i]
        if held.any():
            terms[i, held] = t.monotone[i].inverse_slopes(row[0, held])
    if terms.shape[1] == 1:
        # piece after piece, as a sum along axis 0 adds two or more
        # columns; it would add a lone column pairwise
        total = np.array([reduce(operator.add, terms[:, 0].tolist(), 0.0)])
    else:
        total = terms.sum(axis=0)
    return float(total[0]) if ys.ndim == 0 else total.reshape(ys.shape)


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
    of [lo, y] under each piece, from one call of the array form
    `Piece.invert` per piece.  The expectation of phi is the sum over
    the monotone pieces of the integral of phi(f(x)) over the piece, over
    M: the paper's identity, integrated in x where the integrand is
    bounded, with f and then phi called once on each panel's nodes.
    """
    t = f.piece_table
    if not t.monotone:
        return None
    los, his = t.lo.tolist(), t.hi.tolist()
    support = (min(los), max(his))
    breakpoints = tuple(sorted({v for v in los + his if support[0] < v < support[1]}))
    starts = [invert_piece(p, lo) for p, lo in zip(t.monotone, los)]
    M = f.measure_M

    def expectation(phi):
        return math.fsum(
            quadrature.integrate(
                lambda x, _p=p: forward_values(phi, forward_values(_p.forward, x)),
                p.sub_lower, p.sub_upper)
            for p in t.monotone) / M

    def cdf(ys):
        ys = np.asarray(ys, dtype=float)
        flat = ys.reshape(-1)
        total = np.zeros(flat.shape)
        for p, x0 in zip(t.monotone, starts):
            total += np.abs(p.invert(flat) - x0)
        return (total / M).reshape(ys.shape)

    return DensityFunction(
        support=support,
        evaluator=lambda y: young_density(f, y),
        breakpoints=breakpoints,
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
    M = f.measure_M
    atoms = merge_atoms([
        (float(p.constant_value), p.length / M)
        for p in f.pieces
        if p.kind == CONSTANT
    ])
    return ScalarMeasureRCA(range_K=f.range_K, density=young_density_function(f),
                            atoms=atoms)


def integrate_density(g: DensityFunction, A: tuple[float, float]) -> float:
    """Integral of g over the interval A, clipped to the support."""
    if A[1] <= A[0]:
        return 0.0
    return float(g.masses(A)[0])


def integrate_test(m: ScalarMeasureRCA, phi: Callable[[float], float]) -> float:
    """Integral of a bounded test function against the measure: in x when
    the density carries an `expectation` (Young measures), in y otherwise."""
    total = 0.0
    g = m.density
    if g is not None and g.expectation is not None:
        total += g.expectation(phi)
    elif g is not None:
        total += quadrature.integrate(
            lambda y: phi(y) * g.evaluator(y),
            g.support[0], g.support[1], points=g.cut_points,
        )
    for a in m.atoms:
        total += a.weight * phi(a.location)
    return total


def tv_norm(m: ScalarMeasureRCA) -> float:
    """Total variation: integral of |density| plus the absolute atom weights."""
    total = sum(abs(a.weight) for a in m.atoms)
    if m.density is not None and m.density.cdf is not None:
        # F is nondecreasing: |density| integrates to F(hi) - F(lo)
        total += integrate_density(m.density, m.density.support)
    elif m.density is not None:
        g = m.density
        total += quadrature.integrate(
            lambda y: np.abs(g.evaluator(y)),
            g.support[0], g.support[1], points=g.cut_points,
        )
    return total


def is_probability(m: ScalarMeasureRCA, prob_tol: float = PROB_TOL) -> bool:
    """True iff the density is nonnegative (sampled), atom weights are
    positive, and the total mass is 1 within prob_tol."""
    if any(a.weight <= 0 for a in m.atoms):
        return False
    if m.density is not None:
        g = m.density
        ys = np.linspace(*g.support, 257)[1:-1]
        if g.singular_points:
            ys = ys[np.abs(ys[:, None] - np.array(g.singular_points)).min(axis=1) >= 1e-9]
        vs = forward_values(g.evaluator, ys)
        if (np.isfinite(vs) & (vs < -prob_tol)).any():
            return False
    return abs(tv_norm(m) - 1.0) <= prob_tol
