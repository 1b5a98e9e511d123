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
VALIDATE_SAMPLES = 64      # grid points per monotone piece in `validate`
VALIDATE_TOL = 1e-6        # slack of `validate`'s structural and inverse checks
EVAL_BLOCK = 1 << 16       # points per forward call in `evaluate_many` (512 KiB of float64)

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
    `inverse_derivative` are optional closed forms, taking and returning
    arrays, with bisection and finite differences as the fallback (see
    `invert` and `inverse_slopes`).  `affine_slope` is set by builders
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
        computed once: every inversion and density scan reads it.  An
        endpoint value that is not a finite real number, as sqrt or log of
        a negative number gives, raises ConstructionError.  An affine map
        takes the ends as Python floats, whose arithmetic does not warn."""
        if self.kind == CONSTANT:
            c = float(self.constant_value)
            return (c, c)
        ends = (self.sub_lower, self.sub_upper)
        if self.affine_slope is not None:
            ys = [self.forward(float(x)) for x in ends]
        else:
            with np.errstate(all="ignore"):  # a value that is not finite raises below
                ys = [self.forward(x) for x in ends]
        for x, y in zip(ends, ys):
            if isinstance(y, complex) or not math.isfinite(y):
                raise ConstructionError(
                    f"piece on [{self.sub_lower}, {self.sub_upper}] has no finite real "
                    f"value at x={x}: {y}")
        ya, yb = float(ys[0]), float(ys[1])
        return (min(ya, yb), max(ya, yb))

    def invert(self, ys: np.ndarray) -> np.ndarray:
        """Preimages of a 1-D array of values under a monotone piece, each
        first clamped into the image: the closed-form `inverse` in one call,
        or else lockstep bisection, one bracket per value and one forward
        call per halving for all of them.  Each value follows the rule of a
        scalar bisection from the whole interval: halve at mid = (a + b)/2,
        keep the half where forward - y changes sign, and stop at an exact
        zero (returning it) or once the bracket is BISECT_WIDTH wide or has
        been halved BISECT_MAX_ITER times (returning its midpoint)."""
        lo, hi = self.image
        ys = np.clip(ys, lo, hi)
        if self.inverse is not None:
            return forward_values(self.inverse, ys)
        a = np.full(ys.shape, self.sub_lower)
        fa = forward_values(self.forward, a[:1]) - ys
        # a value stops with its bracket's midpoint, which at an exact zero
        # is that zero: an empty bracket [a, a] at the lower end
        b = np.where(fa == 0.0, a, self.sub_upper)
        live = np.ones(ys.shape, dtype=bool)
        for _ in range(BISECT_MAX_ITER):
            live &= ~(b - a <= BISECT_WIDTH)
            if not live.any():
                break
            mid = 0.5 * (a + b)
            fm = forward_values(self.forward, mid) - ys
            live &= fm != 0.0
            up = live & ((fm > 0) == (fa > 0))
            a = np.where(up, mid, a)
            fa = np.where(up, fm, fa)
            b = np.where(live & ~up, mid, b)
        return 0.5 * (a + b)

    def inverse_slopes(self, ys: np.ndarray) -> np.ndarray:
        """Absolute derivative of the inverse at each value of a 1-D array,
        +inf where it is singular: the closed-form `inverse_derivative` in
        one call (singular where not finite or above 1/DERIVATIVE_FLOOR), or
        else one over the forward derivative at the preimages from `invert`
        (singular where that is below DERIVATIVE_FLOOR, or below the
        rounding noise of its finite difference)."""
        if self.inverse_derivative is not None:
            v = np.abs(forward_values(self.inverse_derivative, ys))
            return np.where(np.isfinite(v) & ~(v > 1.0 / DERIVATIVE_FLOOR), v, math.inf)
        xs = self.invert(ys)
        d = np.abs(forward_derivative(self, xs))
        # rounding noise in the finite difference is of order eps/h; below
        # that the derivative is indistinguishable from zero
        h = H_FD_SCALE * self.length
        scale = np.maximum(1.0, np.abs(forward_values(self.forward, xs)))
        floor = np.maximum(DERIVATIVE_FLOOR, 100.0 * 2.2e-16 * scale / h)
        with np.errstate(divide="ignore"):
            return np.where(d < floor, math.inf, 1.0 / d)


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


def evaluate_many(f: MOscillatingFunction, xs: np.ndarray,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
    """Vectorized evaluate over an array of points, of any shape and order.

    The points are sorted (input that is already sorted is used as it is),
    and each piece is evaluated on the contiguous run of points that falls
    to it, in blocks of at most EVAL_BLOCK points: a run no longer than a
    block is one forward call.  On sorted input no temporary holds more
    than a block; other input costs a sorted copy and its permutation.
    A shared endpoint and a gap point go to the piece on their left,
    clipped into its interval; points outside the domain go to the first
    or last piece.

    `out`, a float64 array of the shape of `xs` (1-D or C-contiguous),
    receives the values and is returned.  It may be `xs` itself, as each
    block is read into its clipped copy before its values are written.
    Without `out` the values go to a fresh array and `xs` is left as it was.
    """
    xs = np.asarray(xs, dtype=float)
    if out is None:
        out = np.empty(xs.shape)
    elif (out.shape != xs.shape or out.dtype != np.float64
          or (out.ndim > 1 and not out.flags.c_contiguous)):
        raise ValueError("out must be a float64 array of the shape of xs, "
                         "1-D or C-contiguous")
    flat = xs.ravel()
    order = None
    if not np.all(flat[1:] >= flat[:-1]):
        order = np.argsort(flat)
        flat = flat[order]
    # the values in sorted order: straight into out, or over the sorted copy
    values = out.reshape(-1) if order is None else flat
    cuts = np.searchsorted(flat, f.piece_table.sub_lower[1:], side="right").tolist()
    for p, a, b in zip(f.pieces, [0, *cuts], [*cuts, flat.size]):
        for s in range(a, b, EVAL_BLOCK):
            e = min(s + EVAL_BLOCK, b)
            values[s:e] = forward_values(p.forward,
                                         np.clip(flat[s:e], p.sub_lower, p.sub_upper))
    if order is not None:
        out.reshape(-1)[order] = values
    return out


def forward_values(fn: Callable, xs: np.ndarray) -> np.ndarray:
    """fn on a 1-D array in one call; a function that rejects arrays, or
    returns another shape, is called once per value instead (`per_value`)."""
    try:
        vals = np.asarray(fn(xs), dtype=float)
        if vals.shape == xs.shape:
            return vals
    except (TypeError, ValueError):
        pass
    return per_value(fn, xs)


def per_value(fn: Callable[[float], float], y) -> np.ndarray:
    """fn at each value of the array y, called with a Python float: for
    scalar functions, and for closed forms that must be bitwise the scalar
    formula, where numpy's arcsin or power can differ in the last bit."""
    y = np.asarray(y, dtype=float)
    return np.fromiter(map(fn, y.ravel().tolist()), float, y.size).reshape(y.shape)


def _require_in_image(p: Piece, y: float) -> None:
    lo, hi = p.image
    slack = 1e-12 * max(1.0, abs(lo), abs(hi))
    if not (lo - slack <= y <= hi + slack):
        raise RangeError(f"y={y} outside piece image [{lo}, {hi}]")


def invert_piece(p: Piece, y: float) -> float:
    """Preimage of y under a monotone piece: `Piece.invert` at one value,
    after checking that y lies in the image up to rounding slack (else
    RangeError).  Uses the closed-form inverse when present, otherwise
    bisection on the piece interval (monotonicity gives a guaranteed
    bracket)."""
    if p.kind != DIFFEOMORPHIC:
        raise PieceKindError("cannot invert a constant piece")
    _require_in_image(p, y)
    return float(p.invert(np.array([y], dtype=float))[0])


def forward_derivative(p: Piece, x):
    """Derivative of the forward map at x, a scalar or an array: exact for
    affine pieces, otherwise a second-order finite difference kept inside
    the piece interval, central or, within h of an end, one-sided."""
    if p.affine_slope is not None:
        return p.affine_slope if np.ndim(x) == 0 else np.full(np.shape(x), p.affine_slope)
    xs = np.asarray(x, dtype=float)
    flat = xs.reshape(-1)
    h = H_FD_SCALE * p.length
    inner = (flat - h >= p.sub_lower) & (flat + h <= p.sub_upper)
    d = np.empty(flat.shape)
    c = flat[inner]
    d[inner] = (forward_values(p.forward, c + h) - forward_values(p.forward, c - h)) / (2 * h)
    if not inner.all():
        e = flat[~inner]
        # one-sided, second order, stepping inward: s = -h at the right end
        # gives the mirrored stencil with every rounding mirrored exactly
        s = np.where(e + 2 * h <= p.sub_upper, h, -h)
        d[~inner] = (-3 * forward_values(p.forward, e)
                     + 4 * forward_values(p.forward, e + s)
                     - forward_values(p.forward, e + 2 * s)) / (2 * s)
    return float(d[0]) if xs.ndim == 0 else d.reshape(xs.shape)


def inverse_slope(p: Piece, y: float) -> float:
    """Absolute derivative of the piece inverse at y (the 1-D Jacobian of
    the inverse): `Piece.inverse_slopes` at one value.  Raises
    SingularSlopeError where the forward derivative vanishes, e.g. at the
    extrema of a sine branch, and RangeError for a y outside the image of
    a piece without a closed-form inverse derivative."""
    if p.kind != DIFFEOMORPHIC:
        raise PieceKindError("constant pieces have no inverse slope")
    if p.inverse_derivative is None:
        _require_in_image(p, y)
    v = float(p.inverse_slopes(np.array([y], dtype=float))[0])
    if v == math.inf:
        raise SingularSlopeError(y)
    return v


def validate(f: MOscillatingFunction) -> ValidationReport:
    """Check the structural invariants of an oscillating function.

    All problems are reported, never thrown.  Monotonicity is checked by the
    sign of forward differences over VALIDATE_SAMPLES points per piece, so
    the answer is only as good as that resolution.
    """
    violations: list[Violation] = []
    pieces = f.pieces
    dom = f.domain

    # disjointness / containment / gap accounting
    gap_total = max(0.0, pieces[0].sub_lower - dom.lower)
    for i, p in enumerate(pieces):
        if p.sub_lower < dom.lower - VALIDATE_TOL or p.sub_upper > dom.upper + VALIDATE_TOL:
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
            if overlap > VALIDATE_TOL:
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
    if gap_total > VALIDATE_TOL:
        violations.append(
            Violation("gap_total", None,
                      "piece closures do not cover the domain closure",
                      gap_total)
        )

    # declared range vs union of images
    images = [p.image for p in pieces]
    hull = (min(im[0] for im in images), max(im[1] for im in images))
    range_err = max(abs(hull[0] - f.range_K[0]), abs(hull[1] - f.range_K[1]))
    if range_err > VALIDATE_TOL:
        violations.append(
            Violation("range_mismatch", None,
                      f"range_K {f.range_K} vs piece image hull {hull}",
                      range_err)
        )

    for i, p in enumerate(pieces):
        if p.kind != DIFFEOMORPHIC:
            continue
        xs = np.linspace(p.sub_lower, p.sub_upper, VALIDATE_SAMPLES)
        ys = forward_values(p.forward, xs)
        d = np.diff(ys)
        flat = not (d != 0).any()
        if flat or ((d > 0).any() and (d < 0).any()):
            violations.append(
                Violation("non_monotone", i,
                          f"non-monotone piece {i}: forward differences "
                          + ("are all zero" if flat else "change sign"),
                          float(np.min(d) if d[0] > 0 else np.max(d)))
            )
            continue
        lo, hi = p.image
        # probe strictly inside the image; derivative may vanish at the rim
        probes = lo + (hi - lo) * np.linspace(0.08, 0.92, VALIDATE_SAMPLES // 8)
        if p.inverse is not None:
            miss = np.abs(forward_values(p.forward, p.invert(probes)) - probes)
            worst = float(np.fmax.reduce(miss, initial=0.0))  # fmax skips nan
            if worst > VALIDATE_TOL * max(1.0, abs(lo), abs(hi)):
                violations.append(
                    Violation("inverse_mismatch", i,
                              f"forward(inverse(y)) != y on piece {i}", worst)
                )
        if p.inverse_derivative is not None:
            d_fd = np.abs(forward_derivative(p, p.invert(probes)))
            keep = ~(d_fd < DERIVATIVE_FLOOR)
            claimed = np.abs(forward_values(p.inverse_derivative, probes[keep]))
            rel = np.abs(claimed - 1.0 / d_fd[keep]) / (1.0 / d_fd[keep])
            worst = float(np.fmax.reduce(rel, initial=0.0))
            if worst > VALIDATE_TOL:
                violations.append(
                    Violation("inverse_derivative_mismatch", i,
                              f"inverse_derivative inconsistent with 1/|forward'| on piece {i}",
                              worst)
                )

    return ValidationReport(valid=not violations, violations=tuple(violations))
