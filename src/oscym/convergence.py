"""Set-wise weak-convergence checks for density sequences and measures.

"For every Borel set" is replaced by the dyadic subintervals of the common
range down to a fixed depth: intervals generate the Borel sets, and the
graded family makes verdicts reproducible.  A verdict is a finite-sample
surrogate - evidence at the tested resolution, not a proof.
"""
from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .domain import Domain1D, MOscillatingFunction, image_slack
from .errors import PreconditionError
from .measures import (
    DEFAULT_DEPTH,
    DEFAULT_TOL,
    DEFAULT_WINDOW,
    DensityFunction,
    ScalarMeasureRCA,
    total_slope,
    unvalidated_young_measure,
    young_measure,
)

SLOPE_GRID_POINTS = 33  # interior points of range_K where converge_young compares slopes


class DyadicSet(NamedTuple):
    level: int
    index: int
    lo: float
    hi: float


class BorelTestFamily(NamedTuple):
    """All dyadic subintervals of range_K at levels 0..depth.  `len` counts
    them, not the two fields, so `_make` and `_replace` refuse it."""

    range_K: tuple[float, float]
    depth: int = DEFAULT_DEPTH

    @property
    def edges(self) -> np.ndarray:
        """The 2^depth + 1 edges of the finest sets, range_K's ends included."""
        return np.linspace(*self.range_K, 2 ** self.depth + 1)

    @property
    def sets(self) -> list[DyadicSet]:
        """Every set, bounded by the `edges` between which its mass is measured."""
        edges, out = self.edges.tolist(), []
        for level in range(self.depth + 1):
            ends = edges[::2 ** (self.depth - level)]
            out += [DyadicSet(level, k, *b) for k, b in enumerate(zip(ends[:-1], ends[1:]))]
        return out

    def __len__(self) -> int:
        return 2 ** (self.depth + 1) - 1


class SetRecord(NamedTuple):
    level: int
    index: int
    lo: float
    hi: float
    limit: float
    residual: float


class ConvergenceVerdict(NamedTuple):
    converged: bool
    per_set: tuple[SetRecord, ...]
    worst_residual: float
    tail_window: tuple[int, int]
    tol: float


class DensitySequence(NamedTuple):
    """Lazy family n -> density on a common range."""

    generator: Callable[[int], DensityFunction]
    range_K: tuple[float, float]
    max_index: int


class NonhomogeneousDensityFamily(NamedTuple):
    """Family x -> density on a fixed range, indexed by the spatial point;
    the CLI's families give the Young density of a monotone map at each x."""

    domain: Domain1D
    evaluator: Callable[[float], DensityFunction]
    range_K: tuple[float, float]


def _leaf_masses(
    set_masses: Callable[[np.ndarray], np.ndarray], family: BorelTestFamily
) -> np.ndarray:
    """Masses of the 2^depth finest dyadic sets, from one call of
    `set_masses` over their edges.  A mass that is not finite is a
    FloatingPointError naming the first such set: no verdict is read from it."""
    edges = family.edges
    masses = set_masses(edges)
    k = int(np.argmin(np.isfinite(masses)))  # the first mass not finite, if any
    if not np.isfinite(masses[k]):
        raise FloatingPointError(f"mass {masses[k]} of the dyadic set "
                                 f"[{edges[k]}, {edges[k + 1]}] is not finite")
    return masses


def _tail_indices(ns: Sequence[int]) -> list[int]:
    """Final quarter of the window (at least two points): the stretch over
    which the Cauchy residual is measured."""
    count = max(2, len(ns) // 4)
    return list(ns[-count:])


def _setwise_verdict(
    tail_leaves: Sequence[np.ndarray],
    family: BorelTestFamily,
    tail_window: tuple[int, int],
    tol: float,
) -> ConvergenceVerdict:
    """Per-set records from leaf masses: a set's residual is the spread of
    its mass over `tail_leaves`, its limit the mass in the last of them."""
    # per level, the masses of its sets in each leaf vector: sums of
    # consecutive blocks of 2^(depth - level) leaves
    leaves = np.array(tail_leaves)
    by_level = [leaves.reshape(len(leaves), 2 ** level, -1).sum(axis=2).T.tolist()
                for level in range(family.depth + 1)]
    records = []
    for s in family.sets:
        vals = by_level[s.level][s.index]
        records.append(SetRecord(s.level, s.index, s.lo, s.hi, vals[-1],
                                 max(vals) - min(vals)))
    worst = max(r.residual for r in records)
    return ConvergenceVerdict(
        converged=worst <= tol,
        per_set=tuple(records),
        worst_residual=worst,
        tail_window=tail_window,
        tol=tol,
    )


def dieudonne_check_measures(
    measures: Callable[[int], ScalarMeasureRCA],
    family: BorelTestFamily,
    n_min: int = DEFAULT_WINDOW[0],
    n_max: int = DEFAULT_WINDOW[1],
    tol: float = DEFAULT_TOL,
    max_index: Optional[int] = None,
) -> ConvergenceVerdict:
    """Set-wise convergence check for a sequence of measures.

    For every test set A the masses m_n(A), density part and atoms, are
    taken over the window [n_min, n_max]; the Cauchy residual is the spread
    of m_n(A) over the window's final quarter, and the limit estimate is
    m_{n_max}(A).  Only the tail's measures enter, so only they are built.
    """
    if not n_min < n_max or (max_index is not None and n_max > max_index):
        raise PreconditionError(
            f"need n_min < n_max <= max_index, got [{n_min}, {n_max}] "
            f"with max_index {max_index}")
    tail = _tail_indices(range(n_min, n_max + 1))
    leaves = [_leaf_masses(measures(n).set_masses, family) for n in tail]
    return _setwise_verdict(leaves, family, (n_min, n_max), tol)


def dieudonne_check(
    seq: DensitySequence,
    family: BorelTestFamily,
    n_min: int = DEFAULT_WINDOW[0],
    n_max: int = DEFAULT_WINDOW[1],
    tol: float = DEFAULT_TOL,
) -> ConvergenceVerdict:
    """Set-wise convergence check for a density sequence: the measure check
    over the measures with densities u_n, whose set masses are the
    integrals of u_n."""
    return dieudonne_check_measures(
        lambda n: ScalarMeasureRCA(seq.range_K, seq.generator(n)),
        family, n_min, n_max, tol, max_index=seq.max_index)


def weak_limit_estimate(
    seq: DensitySequence,
    n_ref: int,
    verdict: ConvergenceVerdict,
) -> DensityFunction:
    """Limit representative: the last tail element of the sequence, u_{n_ref}.

    The verdict is the convergence evidence; the representative keeps the
    exact evaluator of u_{n_ref}.
    """
    if not verdict.converged or verdict.tail_window[1] != n_ref:
        raise PreconditionError(
            "weak_limit_estimate requires a passing verdict ending at n_ref"
        )
    return seq.generator(n_ref)


def monotone_slope_check(
    fs: Sequence[MOscillatingFunction],
    y_grid: Sequence[float],
    tol: float = 1e-9,
) -> bool:
    """True iff the Young densities T_n/M_n, the total slopes over the domain
    measures, are monotone in n in one common direction at every grid point:
    all steps are >= -tol * s, or all are <= tol * s, where s is the larger
    finite density of the two compared at that point, so a steep density
    elsewhere hides no step.  Steps within that, as at a point outside every
    image, fit either direction; a step between equal densities, inf to inf
    included, is 0.  Densities and a tol relative to them carry no unit of
    x, so scaling x leaves the verdict as it is."""
    ys = np.asarray(y_grid, dtype=float)
    densities = np.array([total_slope(f, ys) / f.measure_M for f in fs])
    finite = np.where(np.isfinite(densities), densities, 0.0)
    tols = tol * np.maximum(finite[:-1], finite[1:])
    a, b = densities[:-1], densities[1:]
    diffs = np.subtract(b, a, out=np.zeros_like(a), where=b != a)
    return bool((diffs >= -tols).all() or (diffs <= tols).all())


def converge_young(
    fs: Sequence[MOscillatingFunction],
    family: BorelTestFamily,
    tol: float = DEFAULT_TOL,
    n_min: int = DEFAULT_WINDOW[0],
    n_max: int = DEFAULT_WINDOW[1],
) -> tuple[ConvergenceVerdict, Optional[ScalarMeasureRCA]]:
    """Monotone-total-slope convergence: check monotonicity, run the
    set-wise test on the Young measures of fs, density and atoms, and
    return the limit measure.  Young set masses are exact preimage lengths,
    so no quadrature tolerance applies.

    A failing monotonicity hypothesis, or a window that ends past the last
    of fs, is a precondition error; a failing set-wise test returns the
    verdict without a measure.
    """
    lo = max(f.range_K[0] for f in fs)
    hi = min(f.range_K[1] for f in fs)
    # affine total slopes change only at image ends: besides the even grid, test
    # inside each cell between them wider than twice the slack of an image end,
    # which drops the empty cells between equal ends
    ends = np.concatenate([[lo, hi], *(e for f in fs
                                       for e in (f.piece_table.lo, f.piece_table.hi))])
    ends = np.sort(np.clip(ends, lo, hi))
    slack = image_slack(*(v for f in fs for v in f.range_K))
    mids = ((ends[:-1] + ends[1:]) / 2)[np.diff(ends) > 2 * slack]
    if not monotone_slope_check(fs, np.r_[np.linspace(lo, hi, SLOPE_GRID_POINTS + 2)[1:-1], mids]):
        raise PreconditionError("total slopes do not form a monotone sequence")
    verdict = dieudonne_check_measures(
        lambda n: unvalidated_young_measure(fs[n - 1]), family, n_min, n_max, tol,
        max_index=len(fs))
    if not verdict.converged:
        return verdict, None
    # the limit representative is the last tail element, as in
    # weak_limit_estimate; it is the one measure returned, so the one validated
    limit = young_measure(fs[n_max - 1])
    return verdict, limit._replace(range_K=family.range_K)


def weak_continuity_check(
    fam: NonhomogeneousDensityFamily,
    xs: Sequence[float],
    x0: float,
    family: BorelTestFamily,
    tol: float = DEFAULT_TOL,
) -> ConvergenceVerdict:
    """Check that the set integrals of h_{x_n} approach those of h_{x_0}.

    The residual per set is the gap at the last element of xs; the limit
    column reports the target integral at x_0.  Set masses are differences
    of each density's exact `cdf`, so no quadrature tolerance applies."""
    if len(xs) == 0:
        raise PreconditionError("xs must hold at least one point")
    for x in list(xs) + [x0]:
        if not fam.domain.contains(x):
            raise PreconditionError(f"x={x} outside the family domain")
    leaves = [_leaf_masses(fam.evaluator(x).masses, family) for x in (xs[-1], x0)]
    return _setwise_verdict(leaves, family, (0, len(xs) - 1), tol)


def homogeneity_check(
    fam: NonhomogeneousDensityFamily,
    x_samples: int = 5,
    tol: float = DEFAULT_TOL,
) -> bool:
    """Finite-sample surrogate for the singleton-family characterization:
    the family is homogeneous iff all sampled slices agree in L1.  Each
    slice is read as its exact masses on the finest dyadic sets of range_K
    at DEFAULT_DEPTH, and two slices agree when the sum of their mass gaps
    is at most tol.  That sum is a lower bound of the L1 distance between
    the two densities, exact on every set where they do not cross."""
    if x_samples < 2:
        raise PreconditionError("x_samples must be at least 2")
    test = BorelTestFamily(fam.range_K)
    xs = np.linspace(fam.domain.lower, fam.domain.upper, x_samples + 2)[1:-1]
    leaves = np.array([_leaf_masses(fam.evaluator(float(x)).masses, test) for x in xs])
    return all((np.abs(leaves[i + 1:] - leaves[i]).sum(axis=1) <= tol).all()
               for i in range(len(leaves) - 1))
