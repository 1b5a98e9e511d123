"""Piecewise-monotone oscillating functions on a one-dimensional domain.

A function is assembled from finitely many pieces, each either strictly
monotone (invertible in closed form or by bisection) or constant on its
open subinterval.  The pieces partition the domain up to a null set;
boundary points belong to the left-adjacent piece by convention.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import (
    ConstructionError,
    DomainError,
    PieceKindError,
    PreconditionError,
    RangeError,
    SingularSlopeError,
)

# Numeric-path defaults.  Bisection stops at this bracket width or after
# BISECT_MAX_ITER halvings, whichever comes first; monotonicity guarantees
# a unique root inside the bracket.
BISECT_WIDTH = 1e-12
BISECT_MAX_ITER = 200
H_FD_SCALE = 1e-6          # finite-difference step, scaled by piece length
DERIVATIVE_FLOOR = 1e-10   # below this the inverse slope counts as singular

DIFFEOMORPHIC = "diffeomorphic"
CONSTANT = "constant"


@dataclass(frozen=True)
class Domain1D:
    """Open interval (lower, upper) carrying the Lebesgue measure."""

    lower: float
    upper: float

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ConstructionError(
                f"domain requires lower < upper, got [{self.lower}, {self.upper}]"
            )

    @property
    def measure_M(self) -> float:
        return self.upper - self.lower

    def contains(self, x: float) -> bool:
        return self.lower < x < self.upper


@dataclass(frozen=True)
class Piece:
    """One branch of an oscillating function on the open subinterval
    (sub_lower, sub_upper).

    Diffeomorphic pieces are strictly monotone; `inverse` and
    `inverse_derivative` are optional closed forms, with bisection and
    finite differences as the fallback.  `affine_slope` is set by builders
    when the forward map is affine, enabling exact derivative pushforwards.
    """

    sub_lower: float
    sub_upper: float
    kind: str = DIFFEOMORPHIC
    forward: Optional[Callable] = None
    inverse: Optional[Callable] = None
    inverse_derivative: Optional[Callable] = None
    constant_value: Optional[float] = None
    affine_slope: Optional[float] = None

    def __post_init__(self):
        if not self.sub_lower < self.sub_upper:
            raise ConstructionError(
                f"empty piece interval [{self.sub_lower}, {self.sub_upper}]"
            )
        if self.kind not in (DIFFEOMORPHIC, CONSTANT):
            raise ConstructionError(f"unknown piece kind {self.kind!r}")
        if self.kind == CONSTANT:
            if self.constant_value is None:
                raise ConstructionError("constant piece needs constant_value")
            c = float(self.constant_value)
            object.__setattr__(self, "forward", lambda x, _c=c: np.full_like(
                np.asarray(x, dtype=float), _c) if np.ndim(x) else _c)
            object.__setattr__(self, "affine_slope", 0.0)
        elif self.forward is None:
            raise ConstructionError("diffeomorphic piece needs a forward map")

    @property
    def length(self) -> float:
        return self.sub_upper - self.sub_lower

    @cached_property
    def image(self) -> tuple[float, float]:
        """Closed image [min, max] of the piece (endpoints of a monotone map),
        computed once: every inversion and density scan reads it."""
        if self.kind == CONSTANT:
            c = float(self.constant_value)
            return (c, c)
        ya = float(self.forward(self.sub_lower))
        yb = float(self.forward(self.sub_upper))
        return (min(ya, yb), max(ya, yb))


@dataclass(frozen=True)
class Violation:
    code: str
    piece_index: Optional[int]
    message: str
    measured: float


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: tuple[Violation, ...]

    def codes(self) -> set[str]:
        return {v.code for v in self.violations}


class PieceTable(NamedTuple):
    """A function's pieces frozen into arrays, for evaluation on arrays.

    `sub_lower` holds the left endpoint of every piece; `lo`, `hi` and
    `inv_slope` are parallel to `monotone`, the diffeomorphic pieces.
    `inv_slope` is |1/slope| for an affine piece (inf where it exceeds
    1/DERIVATIVE_FLOOR, where `inverse_slope` raises SingularSlopeError)
    and nan for a piece whose inverse slope varies.
    """

    sub_lower: np.ndarray
    monotone: tuple[Piece, ...]
    lo: np.ndarray
    hi: np.ndarray
    inv_slope: np.ndarray


@dataclass(frozen=True)
class MOscillatingFunction:
    """Sum of monotone/constant branches over a partition of the domain.

    Pieces are kept sorted by their left endpoint; `range_K` is the closed
    hull of the piece images unless supplied explicitly.
    """

    domain: Domain1D
    pieces: tuple[Piece, ...]
    range_K: tuple[float, float] = None

    def __post_init__(self):
        pieces = tuple(sorted(self.pieces, key=lambda p: p.sub_lower))
        if not pieces:
            raise ConstructionError("need at least one piece")
        object.__setattr__(self, "pieces", pieces)
        if self.range_K is None:
            images = [p.image for p in pieces]
            object.__setattr__(
                self,
                "range_K",
                (min(im[0] for im in images), max(im[1] for im in images)),
            )
        else:
            object.__setattr__(self, "range_K", tuple(float(v) for v in self.range_K))

    @property
    def measure_M(self) -> float:
        return self.domain.measure_M

    @cached_property
    def piece_table(self) -> PieceTable:
        """The pieces as arrays, built once: `evaluate_many`, total slopes
        and distribution functions read it."""
        monotone = tuple(p for p in self.pieces if p.kind == DIFFEOMORPHIC)
        images = np.array([p.image for p in monotone]).reshape(-1, 2)
        slopes = np.array([math.nan if p.affine_slope is None else p.affine_slope
                           for p in monotone])
        with np.errstate(divide="ignore"):
            inv_slope = np.abs(1.0 / slopes)
        inv_slope[inv_slope > 1.0 / DERIVATIVE_FLOOR] = math.inf
        return PieceTable(
            sub_lower=np.array([p.sub_lower for p in self.pieces]),
            monotone=monotone,
            lo=images[:, 0],
            hi=images[:, 1],
            inv_slope=inv_slope,
        )


def evaluate(f: MOscillatingFunction, x: float) -> float:
    """Evaluate f at an interior point; boundary points take the value of the
    left-adjacent piece extended by continuity."""
    if not f.domain.contains(x):
        raise DomainError(f"x={x} outside domain ({f.domain.lower}, {f.domain.upper})")
    return float(evaluate_many(f, np.array([x]))[0])


def evaluate_many(f: MOscillatingFunction, xs: np.ndarray) -> np.ndarray:
    """Vectorized evaluate over an array of points, of any shape and order.

    The points are sorted (input that is already sorted is used as it is),
    and each piece is evaluated once, on the contiguous run of points that
    falls to it.  A shared endpoint and a gap point go to the piece on their
    left, clipped into its interval; points outside the domain go to the
    first or last piece.
    """
    xs = np.asarray(xs, dtype=float)
    flat = xs.ravel()
    order = None
    if not np.all(flat[1:] >= flat[:-1]):
        order = np.argsort(flat)
        flat = flat[order]
    cuts = np.searchsorted(flat, f.piece_table.sub_lower[1:], side="right").tolist()
    out = np.empty_like(flat)
    for p, a, b in zip(f.pieces, [0, *cuts], [*cuts, flat.size]):
        if a < b:
            out[a:b] = forward_values(p, np.clip(flat[a:b], p.sub_lower, p.sub_upper))
    if order is not None:
        flat[order] = out  # flat is a sorted copy, free to take the values back
        out = flat
    return out.reshape(xs.shape)


def forward_values(p: Piece, xs: np.ndarray) -> np.ndarray:
    """p.forward on a 1-D array in one call; a forward map that rejects
    arrays, or returns another shape, is called once per value instead."""
    try:
        vals = np.asarray(p.forward(xs), dtype=float)
        if vals.shape == xs.shape:
            return vals
    except (TypeError, ValueError):
        pass
    return np.array([float(p.forward(v)) for v in xs])


def invert_piece(p: Piece, y: float) -> float:
    """Preimage of y under a monotone piece.

    Uses the closed-form inverse when present, otherwise bisection on the
    piece interval (monotonicity gives a guaranteed bracket).
    """
    if p.kind != DIFFEOMORPHIC:
        raise PieceKindError("cannot invert a constant piece")
    lo, hi = p.image
    slack = 1e-12 * max(1.0, abs(lo), abs(hi))
    if not (lo - slack <= y <= hi + slack):
        raise RangeError(f"y={y} outside piece image [{lo}, {hi}]")
    y = min(max(y, lo), hi)
    if p.inverse is not None:
        return float(p.inverse(y))
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


def forward_derivative(p: Piece, x: float) -> float:
    """Derivative of the forward map, exact for affine pieces, otherwise a
    second-order finite difference kept inside the piece interval."""
    if p.affine_slope is not None:
        return p.affine_slope
    h = H_FD_SCALE * p.length
    lo, hi = p.sub_lower, p.sub_upper
    if x - h >= lo and x + h <= hi:
        return (float(p.forward(x + h)) - float(p.forward(x - h))) / (2 * h)
    if x + 2 * h <= hi:  # left boundary: one-sided, second order
        return (
            -3 * float(p.forward(x)) + 4 * float(p.forward(x + h)) - float(p.forward(x + 2 * h))
        ) / (2 * h)
    return (
        3 * float(p.forward(x)) - 4 * float(p.forward(x - h)) + float(p.forward(x - 2 * h))
    ) / (2 * h)


def inverse_slope(p: Piece, y: float) -> float:
    """Absolute derivative of the piece inverse at y (the 1-D Jacobian of
    the inverse).  Raises SingularSlopeError where the forward derivative
    vanishes, e.g. at the extrema of a sine branch."""
    if p.kind != DIFFEOMORPHIC:
        raise PieceKindError("constant pieces have no inverse slope")
    if p.inverse_derivative is not None:
        v = abs(float(p.inverse_derivative(y)))
        if not math.isfinite(v) or v > 1.0 / DERIVATIVE_FLOOR:
            raise SingularSlopeError(y)
        return v
    x = invert_piece(p, y)
    d = forward_derivative(p, x)
    # rounding noise in the finite difference is of order eps/h; below that
    # the derivative is indistinguishable from zero
    h = H_FD_SCALE * p.length
    scale = max(1.0, abs(float(p.forward(x))))
    floor = max(DERIVATIVE_FLOOR, 100.0 * 2.2e-16 * scale / h)
    if abs(d) < floor:
        raise SingularSlopeError(y)
    return 1.0 / abs(d)


def validate(
    f: MOscillatingFunction,
    samples_per_piece: int = 64,
    tol: float = 1e-6,
) -> ValidationReport:
    """Check the structural invariants of an oscillating function.

    All problems are reported, never thrown.  Monotonicity is checked by the
    sign of forward differences over a sample grid, so the answer is only as
    good as the sampling resolution.
    """
    if samples_per_piece < 3:
        raise PreconditionError(f"samples_per_piece must be >= 3, got {samples_per_piece}")
    violations: list[Violation] = []
    pieces = f.pieces
    dom = f.domain

    # disjointness / containment / gap accounting
    gap_total = max(0.0, pieces[0].sub_lower - dom.lower)
    for i, p in enumerate(pieces):
        if p.sub_lower < dom.lower - tol or p.sub_upper > dom.upper + tol:
            violations.append(
                Violation(
                    "outside_domain", i,
                    f"piece {i} [{p.sub_lower}, {p.sub_upper}] leaves the domain",
                    max(dom.lower - p.sub_lower, p.sub_upper - dom.upper),
                )
            )
        if i + 1 < len(pieces):
            nxt = pieces[i + 1]
            overlap = p.sub_upper - nxt.sub_lower
            if overlap > tol:
                violations.append(
                    Violation(
                        "overlap", i,
                        f"overlapping subintervals: pieces {i} and {i + 1}",
                        overlap,
                    )
                )
            else:
                gap_total += max(0.0, nxt.sub_lower - p.sub_upper)
    gap_total += max(0.0, dom.upper - pieces[-1].sub_upper)
    if gap_total > tol:
        violations.append(
            Violation("gap_total", None,
                      "piece closures do not cover the domain closure",
                      gap_total)
        )

    # declared range vs union of images
    images = [p.image for p in pieces]
    hull = (min(im[0] for im in images), max(im[1] for im in images))
    range_err = max(abs(hull[0] - f.range_K[0]), abs(hull[1] - f.range_K[1]))
    if range_err > tol:
        violations.append(
            Violation("range_mismatch", None,
                      f"range_K {f.range_K} vs piece image hull {hull}",
                      range_err)
        )

    for i, p in enumerate(pieces):
        if p.kind != DIFFEOMORPHIC:
            continue
        xs = np.linspace(p.sub_lower, p.sub_upper, samples_per_piece)
        ys = forward_values(p, xs)
        d = np.diff(ys)
        if (d > 0).any() and (d < 0).any():
            violations.append(
                Violation("non_monotone", i,
                          f"non-monotone piece {i}: forward differences change sign",
                          float(np.min(d) if d[0] > 0 else np.max(d)))
            )
            continue
        lo, hi = p.image
        # probe strictly inside the image; derivative may vanish at the rim
        probes = lo + (hi - lo) * np.linspace(0.08, 0.92, max(3, samples_per_piece // 8))
        if p.inverse is not None:
            worst = 0.0
            for y in probes:
                worst = max(worst, abs(float(p.forward(float(p.inverse(y)))) - y))
            if worst > tol * max(1.0, abs(lo), abs(hi)):
                violations.append(
                    Violation("inverse_mismatch", i,
                              f"forward(inverse(y)) != y on piece {i}", worst)
                )
        if p.inverse_derivative is not None:
            worst = 0.0
            for y in probes:
                try:
                    x = invert_piece(p, float(y))
                    d_fd = forward_derivative(p, x)
                    if abs(d_fd) < DERIVATIVE_FLOOR:
                        continue
                    claimed = abs(float(p.inverse_derivative(float(y))))
                    worst = max(worst, abs(claimed - 1.0 / abs(d_fd)) / (1.0 / abs(d_fd)))
                except (RangeError, SingularSlopeError):
                    continue
            if worst > max(tol, 1e-6):
                violations.append(
                    Violation("inverse_derivative_mismatch", i,
                              f"inverse_derivative inconsistent with 1/|forward'| on piece {i}",
                              worst)
                )

    return ValidationReport(valid=not violations, violations=tuple(violations))
