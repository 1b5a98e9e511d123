"""Young measures of oscillating functions: densities, atoms, integration.

The Young measure of f gives a set A the mass |f^-1(A)|/M, the length of
its preimage over the domain measure.  Its density part is exact twice
over: pointwise, as the sum over the pieces whose image holds y of the
absolute inverse slopes, divided by M; and as a distribution function, the
summed preimage lengths |inv(y) - inv(lo)| over M, from which every set
mass is a difference.  Adaptive quadrature serves only densities that have
no function behind them (user-supplied, grid or family densities) and the
integrals of test functions.  Constant pieces carry no density; they
appear as atoms weighted by their share of the domain.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import quadrature
from .domain import (
    CONSTANT,
    DIFFEOMORPHIC,
    MOscillatingFunction,
    inverse_slope,
    invert_piece,
    singular_points_of,
    validate,
)
from .errors import ConstructionError, SingularSlopeError

PROB_TOL = 1e-6
ATOM_SNAP = 1e-9
GRID_SIZE = 1024


class Atom(NamedTuple):
    location: float
    weight: float


@dataclass(frozen=True)
class DensityFunction:
    """Nonnegative density on a closed support interval.

    `evaluator` must accept a scalar and may return +inf exactly at the
    listed singular points; quadrature splits there and never evaluates the
    singular points themselves.  `breakpoints` mark mere kinks, passed to
    the integrator for accuracy.  `grid` optionally carries a tabulation
    (ys, values) for export or when only sampled data exists.  `cdf`, when
    set, is the exact distribution function y -> integral of the density
    below y, taking and returning arrays; set masses are then its
    differences and no quadrature runs.
    """

    support: tuple[float, float]
    evaluator: Callable[[float], float]
    singular_points: tuple[float, ...] = ()
    breakpoints: tuple[float, ...] = ()
    grid: Optional[tuple[np.ndarray, np.ndarray]] = None
    cdf: Optional[Callable[[np.ndarray], np.ndarray]] = None

    @classmethod
    def from_grid(cls, ys: np.ndarray, values: np.ndarray) -> "DensityFunction":
        ys = np.asarray(ys, dtype=float)
        values = np.asarray(values, dtype=float)
        finite = np.isfinite(values)
        yf, vf = ys[finite], values[finite]

        def ev(y, _ys=yf, _vs=vf):
            return float(np.interp(y, _ys, _vs))

        return cls(
            support=(float(ys[0]), float(ys[-1])),
            evaluator=ev,
            singular_points=tuple(ys[~finite]),
            grid=(ys, values),
        )

    def __call__(self, y: float) -> float:
        return float(self.evaluator(y))

    def tabulate(self, grid_size: int = GRID_SIZE) -> tuple[np.ndarray, np.ndarray]:
        ys = np.linspace(self.support[0], self.support[1], grid_size)
        return ys, np.array([self.evaluator(y) for y in ys])

    def masses(self, edges, quad_tol: float = quadrature.QUAD_TOL) -> np.ndarray:
        """Integrals of the density over the consecutive intervals of the
        nondecreasing `edges`, each clipped to the support."""
        edges = np.clip(np.asarray(edges, dtype=float), *self.support)
        if self.cdf is not None:
            return np.diff(self.cdf(edges))
        pts = [*self.singular_points, *self.breakpoints]
        return np.array([
            quadrature.integrate(self.evaluator, a, b, points=pts, tol=quad_tol)
            for a, b in zip(edges[:-1], edges[1:])
        ])


@dataclass(frozen=True)
class ScalarMeasureRCA:
    """Element of the regular measures on range_K: density part plus atoms."""

    range_K: tuple[float, float]
    density: Optional[DensityFunction] = None
    atoms: tuple[Atom, ...] = ()
    is_young: bool = False

    def set_mass(self, lo: float, hi: float, closed_right: bool = False,
                 quad_tol: float = quadrature.QUAD_TOL) -> float:
        """Measure of the interval [lo, hi) (closed on the right on demand)."""
        total = 0.0
        if self.density is not None:
            total += integrate_density(self.density, (lo, hi), quad_tol=quad_tol)
        for a in self.atoms:
            if lo <= a.location < hi or (closed_right and a.location == hi):
                total += a.weight
        return total

    def set_masses(self, edges, quad_tol: float = quadrature.QUAD_TOL) -> np.ndarray:
        """Measures of the consecutive intervals [e_i, e_i+1) of the
        increasing `edges`, the last one closed on the right."""
        edges = np.asarray(edges, dtype=float)
        if self.density is not None:
            masses = self.density.masses(edges, quad_tol=quad_tol)
        else:
            masses = np.zeros(len(edges) - 1)
        for a in self.atoms:
            i = int(np.searchsorted(edges, a.location, side="right")) - 1
            if a.location == edges[-1]:
                i -= 1
            if 0 <= i < len(masses):
                masses[i] += a.weight
        return masses


def merge_atoms(atoms: Sequence[tuple[float, float]], snap: float = 1e-12) -> tuple[Atom, ...]:
    """Sum weights of atoms whose locations coincide within snap."""
    merged: list[Atom] = []
    for loc, w in sorted(atoms):
        if merged and abs(loc - merged[-1].location) <= snap:
            merged[-1] = Atom(merged[-1].location, merged[-1].weight + w)
        else:
            merged.append(Atom(loc, w))
    return tuple(merged)


def _slope_sum(f: MOscillatingFunction, y: float) -> float:
    """Sum of absolute inverse slopes over pieces whose image holds y.

    Images count as half-open, [lo, hi), except that an image reaching the
    top of range_K is closed there: the convention of `set_mass`, so a value
    on the boundary between two touching images counts once.  A value
    within rounding slack of an image end counts as on it.  Returns +inf
    when any contributing slope is singular.
    """
    top = f.range_K[1]
    slack = 1e-12 * max(1.0, abs(f.range_K[0]), abs(top))
    total = 0.0
    for p in f.pieces:
        if p.kind != DIFFEOMORPHIC:
            continue
        lo, hi = p.image
        on_top = hi >= top - slack and abs(y - hi) <= slack
        if not (lo - slack <= y < hi - slack or on_top):
            continue
        try:
            total += inverse_slope(p, y)
        except SingularSlopeError:
            return math.inf
    return total


def young_density(f: MOscillatingFunction, y: float) -> float:
    """Density of the Young measure of f at y (zero off the piece images)."""
    return _slope_sum(f, y) / f.measure_M


def total_slope(f: MOscillatingFunction, y: float) -> float:
    """Sum of absolute inverse-slope contributions at y; equals the Young
    density scaled by the domain measure."""
    return _slope_sum(f, y)


def young_density_function(f: MOscillatingFunction) -> Optional[DensityFunction]:
    """Density part of the Young measure of f, with its exact distribution
    function; None when f has no monotone piece.

    F(y) = sum over the monotone pieces of |inv(clip(y)) - inv(lo)| / M,
    with clip(y) clamped to the piece image [lo, hi]: the preimage length
    of [lo, y] under each piece.
    """
    diffeo = [p for p in f.pieces if p.kind == DIFFEOMORPHIC]
    if not diffeo:
        return None
    images = [p.image for p in diffeo]
    support = (min(lo for lo, _ in images), max(hi for _, hi in images))
    breakpoints = tuple(
        sorted({v for im in images for v in im if support[0] < v < support[1]})
    )
    starts = [invert_piece(p, lo) for p, (lo, _) in zip(diffeo, images)]
    M = f.measure_M

    def cdf(ys):
        ys = np.asarray(ys, dtype=float)
        total = np.zeros(ys.shape)
        for p, (lo, hi), x0 in zip(diffeo, images, starts):
            xs = np.array([invert_piece(p, y) for y in np.clip(ys, lo, hi)])
            total += np.abs(xs - x0)
        return total / M

    return DensityFunction(
        support=support,
        evaluator=lambda y: young_density(f, y),
        singular_points=tuple(singular_points_of(f)),
        breakpoints=breakpoints,
        cdf=cdf,
    )


def young_measure(
    f: MOscillatingFunction,
    grid_size: int = GRID_SIZE,
    validate_first: bool = True,
) -> ScalarMeasureRCA:
    """Build the Young measure of a validated oscillating function."""
    if validate_first:
        report = validate(f)
        if not report.valid:
            raise ConstructionError(
                "function failed validation: "
                + "; ".join(v.message for v in report.violations)
            )
    M = f.measure_M
    atoms = merge_atoms([
        (float(p.constant_value), p.length / M)
        for p in f.pieces
        if p.kind == CONSTANT
    ])
    density = young_density_function(f)
    if density is not None:
        density = replace(density, grid=density.tabulate(grid_size))
    return ScalarMeasureRCA(range_K=f.range_K, density=density, atoms=atoms,
                            is_young=True)


def integrate_density(
    g: DensityFunction,
    A: tuple[float, float],
    quad_tol: float = quadrature.QUAD_TOL,
) -> float:
    """Integral of g over the interval A, clipped to the support."""
    if A[1] <= A[0]:
        return 0.0
    return float(g.masses(A, quad_tol=quad_tol)[0])


def integrate_test(
    m: ScalarMeasureRCA,
    phi: Callable[[float], float],
    quad_tol: float = quadrature.QUAD_TOL,
) -> float:
    """Integral of a bounded test function against the measure."""
    total = 0.0
    if m.density is not None:
        g = m.density
        pts = list(g.singular_points) + list(g.breakpoints)
        total += quadrature.integrate(
            lambda y: phi(y) * g.evaluator(y),
            g.support[0], g.support[1], points=pts, tol=quad_tol,
        )
    for a in m.atoms:
        total += a.weight * phi(a.location)
    return total


def tv_norm(m: ScalarMeasureRCA, quad_tol: float = quadrature.QUAD_TOL) -> float:
    """Total variation: integral of |density| plus the absolute atom weights."""
    total = sum(abs(a.weight) for a in m.atoms)
    if m.density is not None and m.density.cdf is not None:
        # F is nondecreasing: |density| integrates to F(hi) - F(lo)
        total += integrate_density(m.density, m.density.support)
    elif m.density is not None:
        g = m.density
        pts = list(g.singular_points) + list(g.breakpoints)
        total += quadrature.integrate(
            lambda y: abs(g.evaluator(y)),
            g.support[0], g.support[1], points=pts, tol=quad_tol,
        )
    return total


def is_probability(m: ScalarMeasureRCA, prob_tol: float = PROB_TOL) -> bool:
    """True iff the density is nonnegative (sampled), atom weights are
    positive, and the total mass is 1 within prob_tol."""
    if any(a.weight <= 0 for a in m.atoms):
        return False
    if m.density is not None:
        g = m.density
        lo, hi = g.support
        for y in np.linspace(lo, hi, 257)[1:-1]:
            if g.singular_points and min(abs(y - s) for s in g.singular_points) < 1e-9:
                continue
            v = g.evaluator(y)
            if math.isfinite(v) and v < -prob_tol:
                return False
    return abs(tv_norm(m) - 1.0) <= prob_tol
