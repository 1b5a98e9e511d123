"""Empirical pushforward oracle.

Draws uniform samples from the domain with a counter-based Philox
generator (bit-for-bit reproducible for a fixed seed), evaluates the
function and reads atoms and bins off one sorted pass over the values.
Repeated values - the signature of constant pieces - are atoms, merged by
the model's rule, `measures.merge_atoms`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .domain import MOscillatingFunction, evaluate_many
from .errors import PreconditionError
from .measures import MERGE_SNAP, ScalarMeasureRCA, merge_atoms

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
    piece's points as one contiguous run; a draw on a shared endpoint takes
    the value of the piece on its left.  The values are written over the
    draws and then sorted in place, so the call holds one n-sized float
    array, plus temporaries of O(`domain.EVAL_BLOCK`) floats and the atom
    scan's n-sized boolean arrays.
    A run of at least MIN_ATOM_COUNT equal values is an atom; atoms within
    `measures.MERGE_SNAP` merge, as the model's do.  Bin k holds
    edges[k] <= v < edges[k+1], the last bin closed; values that stray
    outside range_K by rounding fall into the end bins, and atom runs are
    left out.  Edges are `np.histogram_bin_edges`, so a one-value range
    widens to +-0.5.
    """
    if n_samples < 1000:
        raise PreconditionError("n_samples must be at least 1000")
    if n_bins < 8:
        raise PreconditionError("n_bins must be at least 8")
    rng = np.random.Generator(np.random.Philox(key=seed))
    xs = rng.uniform(f.domain.lower, f.domain.upper, n_samples)
    xs.sort()
    values = evaluate_many(f, xs, out=xs)  # the sorted draws become the values
    values.sort()

    # run[i]: values[i:i + MIN_ATOM_COUNT] are equal; each stretch of True
    # is one atom run and starts where that run starts
    k = MIN_ATOM_COUNT - 1
    run = values[k:] == values[:-k]
    starts = np.flatnonzero(np.diff(run, prepend=False))[::2]
    locations = values[starts]
    run_counts = np.searchsorted(values, locations, side="right") - starts
    point_masses = tuple(
        PointMass(*a) for a in merge_atoms(zip(locations.tolist(),
                                               (run_counts / n_samples).tolist())))

    edges = np.histogram_bin_edges(values, n_bins, f.range_K)
    inner = edges[1:-1]
    counts = np.diff(np.searchsorted(values, inner, side="left"),
                     prepend=0, append=n_samples)
    np.subtract.at(counts, np.searchsorted(inner, locations, side="right"), run_counts)
    return Histogram(
        range=tuple(f.range_K),
        edges=edges,
        masses=counts / n_samples,
        point_masses=point_masses,
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
        match = next((j for j, a in enumerate(m.atoms)
                      if abs(a.location - pm.location) <= MERGE_SNAP), None)
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
