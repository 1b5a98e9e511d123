"""Empirical pushforward oracle.

Draws uniform samples from the domain with a counter-based Philox
generator (bit-for-bit reproducible for a fixed seed), evaluates the
function, and bins the values.  Exactly repeated values - the signature of
constant pieces - are split out as point masses before binning.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .domain import MOscillatingFunction, evaluate_many
from .errors import PreconditionError
from .measures import ScalarMeasureRCA

ATOM_SNAP = 1e-9
# minimum multiplicity before an exactly repeated value counts as an atom;
# continuous sampling essentially never repeats a 53-bit double
MIN_ATOM_COUNT = 5


class PointMass(NamedTuple):
    location: float
    mass: float


@dataclass(frozen=True)
class Histogram:
    range: tuple[float, float]
    edges: np.ndarray
    masses: np.ndarray
    point_masses: tuple[PointMass, ...]
    sample_count: int
    seed: int

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum() + sum(p.mass for p in self.point_masses))


def pushforward_empirical(
    f: MOscillatingFunction,
    n_samples: int = 1_000_000,
    seed: int = 42,
    n_bins: int = 16,
) -> Histogram:
    """Histogram of f under uniform sampling of the domain.

    The draws are sorted before evaluation, so `evaluate_many` takes each
    piece's points as one contiguous run and needs no permutation; the
    histogram and the atoms count values and do not depend on their order.
    A draw on a shared endpoint takes the value of the piece on its left.
    """
    if n_samples < 1000:
        raise PreconditionError("n_samples must be at least 1000")
    if n_bins < 8:
        raise PreconditionError("n_bins must be at least 8")
    rng = np.random.Generator(np.random.Philox(key=seed))
    xs = rng.uniform(f.domain.lower, f.domain.upper, n_samples)
    xs.sort()
    values = evaluate_many(f, xs)
    del xs

    uniq, counts = np.unique(values, return_counts=True)
    atom_idx = counts >= MIN_ATOM_COUNT
    point_masses: list[PointMass] = []
    for loc, cnt in zip(uniq[atom_idx], counts[atom_idx]):
        if point_masses and abs(loc - point_masses[-1].location) <= ATOM_SNAP:
            prev = point_masses[-1]
            point_masses[-1] = PointMass(prev.location, prev.mass + cnt / n_samples)
        else:
            point_masses.append(PointMass(float(loc), cnt / n_samples))

    if point_masses:
        atom_values = uniq[atom_idx]
        keep = ~np.isin(values, atom_values)
        rest = values[keep]
    else:
        rest = values
    counts_b, edges = np.histogram(rest, bins=n_bins, range=f.range_K)
    # samples that stray outside range_K by rounding get clipped into it
    stray = rest[(rest < f.range_K[0]) | (rest > f.range_K[1])]
    if stray.size:
        counts_b[0] += np.count_nonzero(stray < f.range_K[0])
        counts_b[-1] += np.count_nonzero(stray > f.range_K[1])
    return Histogram(
        range=tuple(f.range_K),
        edges=edges,
        masses=counts_b / n_samples,
        point_masses=tuple(point_masses),
        sample_count=n_samples,
        seed=seed,
    )


class BinComparison(NamedTuple):
    lo: float
    hi: float
    model_mass: float
    empirical_mass: float
    threshold: float


class AtomComparison(NamedTuple):
    location: float
    model_weight: float
    empirical_mass: float
    threshold: float


@dataclass(frozen=True)
class OracleReport:
    bins: tuple[BinComparison, ...]
    atoms: tuple[AtomComparison, ...]
    discrepancy: float
    n_sigma: float

    @property
    def within_threshold(self) -> bool:
        return all(
            abs(b.model_mass - b.empirical_mass) <= b.threshold for b in self.bins
        ) and all(
            abs(a.model_weight - a.empirical_mass) <= a.threshold for a in self.atoms
        )


def oracle_report(
    m: ScalarMeasureRCA,
    h: Histogram,
    n_sigma: float = 3.0,
) -> OracleReport:
    """Per-bin and per-atom comparison of a model measure against its
    empirical histogram, with binomial standard-error thresholds."""
    n = h.sample_count
    if m.density is not None:
        models = m.density.masses(h.edges)
    else:
        models = np.zeros(len(h.masses))
    bins = []
    for lo, hi, model, empirical in zip(h.edges[:-1], h.edges[1:], models, h.masses):
        p = min(max(model, 0.0), 1.0)
        thresh = n_sigma * float(np.sqrt(p * (1.0 - p) / n))
        bins.append(BinComparison(float(lo), float(hi), float(model),
                                  float(empirical), thresh))

    atoms = []
    matched_model = set()
    for pm in h.point_masses:
        match = None
        for j, a in enumerate(m.atoms):
            if abs(a.location - pm.location) <= ATOM_SNAP:
                match = j
                break
        if match is None:
            # empirical atom with no model counterpart: full-mass discrepancy
            atoms.append(AtomComparison(pm.location, 0.0, pm.mass, 0.0))
        else:
            matched_model.add(match)
            w = m.atoms[match].weight
            thresh = n_sigma * float(np.sqrt(w * (1.0 - w) / n))
            atoms.append(AtomComparison(pm.location, w, pm.mass, thresh))
    for j, a in enumerate(m.atoms):
        if j not in matched_model:
            atoms.append(AtomComparison(a.location, a.weight, 0.0, 0.0))

    disc = 0.0
    for b in bins:
        disc = max(disc, abs(b.model_mass - b.empirical_mass))
    for a in atoms:
        disc = max(disc, abs(a.model_weight - a.empirical_mass))
    return OracleReport(bins=tuple(bins), atoms=tuple(atoms),
                        discrepancy=disc, n_sigma=n_sigma)


def compare_histogram(m: ScalarMeasureRCA, h: Histogram) -> float:
    """Sup-discrepancy between the model measure and the empirical
    histogram: the worst bin or atom mass mismatch."""
    return oracle_report(m, h).discrepancy
