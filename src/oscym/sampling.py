"""Empirical pushforward oracle.

Draws uniform samples from the domain with a counter-based SplitMix64
stream (Steele, Lea & Flood, OOPSLA 2014), made of numpy integer
arithmetic alone, so a fixed seed gives the same draws bit for bit on every
numpy version.  The draws stream through one block at a time: each block
is sorted, its values are written over it piece by piece
(`domain.write_runs`), and its bin and per-piece counts are added to
running totals, so memory does not grow with the sample count.  A
monotone piece's values on sorted draws come out in order and need no
second sort.  A draw in a constant piece counts for that piece's atom, as
in the model, and pieces of one value share one atom (`measures.merge_atoms`).
"""
from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np

from .domain import EVAL_BLOCK, MOscillatingFunction, write_runs
from .errors import PreconditionError
from .measures import ScalarMeasureRCA, merge_atoms

_DRAW_BLOCK = 4 * EVAL_BLOCK  # draws per block of the stream, 512 KiB of float64


class PointMass(NamedTuple):
    location: float
    mass: float


class Histogram(NamedTuple):
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

    The draws are `_uniform`'s stream of seed, an integer in [0, 2**128),
    taken one block of `_DRAW_BLOCK` draws at a time.  Each block is sorted
    and its values are written over it, each piece's on its run
    (`domain.write_runs`; a draw on a shared endpoint takes the value of
    the piece on its left).  A monotone piece's run is binned: a falling
    run is read reversed, a run that is still not ascending (rounding,
    NaN, a piece that is not monotone) is sorted as a copy, and its count
    of values below each inner bin edge is read off by binary search.  The
    counts add up to running totals, so the call holds no array of the
    sample count, only temporaries of O(`_DRAW_BLOCK`) values.  A draw in
    a constant piece counts for that piece's atom, as in the model: the
    atoms are the constant pieces' values that at least one draw takes,
    an atom's mass is its exact count of draws, and the counts of pieces
    of one value add up to one atom, as in the model.  Bin k holds the
    monotone pieces' values edges[k] <= v < edges[k+1], the last bin
    closed; values that stray outside range_K by rounding fall into the
    end bins.  Edges are `np.histogram_bin_edges` of range_K, so a
    one-value range widens to +-0.5.
    """
    if n_samples < 1000:
        raise PreconditionError("n_samples must be at least 1000")
    if n_bins < 8:
        raise PreconditionError("n_bins must be at least 8")
    if not 0 <= seed < 1 << 128:
        raise PreconditionError("seed must be an integer in [0, 2**128)")
    edges = np.histogram_bin_edges(f.range_K, n_bins, f.range_K)
    inner = edges[1:-1]
    t = f.piece_table
    constant = t.constant.tolist()
    below = np.zeros(inner.size, np.intp)  # monotone values below each inner edge
    drawn = np.zeros(len(constant), np.intp)  # draws per piece
    for values in _uniform(f.domain.lower, f.domain.upper, n_samples, seed):
        values.sort()
        runs = write_runs(f, values)  # the sorted draws become the values
        drawn += [b - a for a, b in runs]
        for (a, b), c in zip(runs, constant):
            if c:
                continue
            run = values[a:b]
            if run.size and run[0] > run[-1]:  # a falling piece
                run = run[::-1]
            if not np.all(run[1:] >= run[:-1]):  # rounding, NaN or a non-monotone piece
                run = np.sort(run)
            below += np.searchsorted(run, inner)
    counts = np.diff(below, prepend=0, append=drawn[~t.constant].sum())
    atoms = merge_atoms([(v, k) for v, k in zip(t.value.tolist(), drawn[t.constant].tolist())
                         if k])
    point_masses = tuple(PointMass(v, k / n_samples) for v, k in atoms)
    return Histogram(
        range=tuple(f.range_K),
        edges=edges,
        masses=counts / n_samples,
        point_masses=point_masses,
        sample_count=n_samples,
        seed=seed,
    )


_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's increment, 2**64 over the golden ratio
_MASK64 = (1 << 64) - 1


def _mix(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer, in place on the uint64 array z, with t as
    scratch of z's shape.  It is a bijection of the 64-bit words, and
    mix(0) = 0; the multiplies wrap mod 2**64."""
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        np.right_shift(z, shift, out=t)
        z ^= t
        z *= np.uint64(factor)
    np.right_shift(z, 31, out=t)
    z ^= t
    return z


def _uniform(lo: float, hi: float, n: int, seed: int) -> Iterator[np.ndarray]:
    """n draws uniform on [lo, hi] from the SplitMix64 stream of seed, in
    blocks of `_DRAW_BLOCK` draws, the last one shorter.

    With lo64, hi64 the low and high 64 bits of seed, the state is
    mix(lo64 ^ mix(hi64 + GAMMA)), one-to-one on seeds below 2**64; draw i
    is lo + (hi - lo) * u with u = (mix(state + (i + 1) * GAMMA) >> 11) / 2**53,
    all integer sums and products mod 2**64.  Each block is a view of one
    float buffer, which the next block overwrites; beside it only
    block-sized uint64 buffers are held.
    """
    word = np.array([((seed >> 64) + _GAMMA) & _MASK64], np.uint64)
    scratch = np.empty_like(word)
    _mix(word, scratch)
    word ^= np.uint64(seed & _MASK64)
    state = _mix(word, scratch)
    block = min(n, _DRAW_BLOCK)
    counters = np.arange(1, block + 1, dtype=np.uint64)
    counters *= np.uint64(_GAMMA)
    counters += state  # state + (i + 1) * GAMMA, i counted from the block's start
    z, t, out = np.empty_like(counters), np.empty_like(counters), np.empty(block)
    for s in range(0, n, block):
        m = min(block, n - s)
        zb = np.add(counters[:m], np.uint64(s * _GAMMA & _MASK64), out=z[:m])
        _mix(zb, t[:m])
        zb >>= np.uint64(11)
        ob = np.multiply(zb, 2.0 ** -53, out=out[:m])
        ob *= hi - lo
        ob += lo
        yield ob


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


class OracleReport(NamedTuple):
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
    empirical histogram, with binomial standard-error thresholds.  Atoms
    pair at exactly equal locations.  Each atom, paired or on one side only
    (mass 0 on the other, as for a model atom no draw took), takes the
    threshold of its model weight: 0 for an empirical atom the model lacks."""
    n = h.sample_count
    models = ScalarMeasureRCA(m.range_K, m.density).set_masses(h.edges)
    bins = []
    for lo, hi, model, empirical in zip(h.edges[:-1], h.edges[1:], models, h.masses):
        p = min(max(model, 0.0), 1.0)
        thresh = n_sigma * float(np.sqrt(p * (1.0 - p) / n))
        bins.append(BinComparison(float(lo), float(hi), float(model),
                                  float(empirical), thresh))

    # (location, model weight, empirical mass)
    triples, matched = [], set()
    for pm in h.point_masses:
        j = next((j for j, a in enumerate(m.atoms) if a.location == pm.location), None)
        matched.add(j)
        triples.append((pm.location, 0.0 if j is None else m.atoms[j].weight, pm.mass))
    triples += [(a.location, a.weight, 0.0)
                for j, a in enumerate(m.atoms) if j not in matched]
    atoms = [AtomComparison(loc, w, mass, n_sigma * float(np.sqrt(w * (1.0 - w) / n)))
             for loc, w, mass in triples]

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
