"""Piecewise-monotone oscillating functions on a one-dimensional domain.

A function is assembled from finitely many pieces, each either strictly
monotone (invertible in closed form or by bisection) or constant on its
open subinterval.  The pieces partition the domain up to a null set;
boundary points belong to the left-adjacent piece by convention.
"""
from __future__ import annotations

import math
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

DIFFEOMORPHIC = "diffeomorphic"
CONSTANT = "constant"


class _ReadOnly:
    """Fields set once, by the constructor writing to `__dict__`: assigning
    or deleting an attribute afterwards raises AttributeError."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Domain1D(_ReadOnly):
    """Open interval (lower, upper) carrying the Lebesgue measure."""

    def __init__(self, lower: float, upper: float):
        if not lower < upper:
            raise ConstructionError(
                f"domain requires lower < upper, got [{lower}, {upper}]"
            )
        vars(self).update(lower=lower, upper=upper)

    @property
    def measure_M(self) -> float:
        return self.upper - self.lower

    def contains(self, x: float) -> bool:
        return self.lower < x < self.upper


class Piece(_ReadOnly):
    """One branch of an oscillating function on the open subinterval
    (sub_lower, sub_upper).

    Diffeomorphic pieces are strictly monotone; `inverse` and
    `inverse_derivative` are optional closed forms, taking and returning
    arrays, with bisection and finite differences as the fallback (see
    `invert` and `inverse_slopes`).  `affine_slope` is set by builders
    when the forward map is affine, enabling exact derivative pushforwards.
    A piece with `affine_intercept` set too is affine: its three maps are
    made from the two numbers, and a function reads it into the affine
    columns of its `PieceTable`.  A constant piece makes its forward map
    from `constant_value`.
    """

    def __init__(self, sub_lower: float, sub_upper: float, kind: str = DIFFEOMORPHIC,
                 forward: Optional[Callable] = None, inverse: Optional[Callable] = None,
                 inverse_derivative: Optional[Callable] = None,
                 constant_value: Optional[float] = None,
                 affine_slope: Optional[float] = None,
                 affine_intercept: Optional[float] = None):
        if not sub_lower < sub_upper:
            raise ConstructionError(
                f"empty piece interval [{sub_lower}, {sub_upper}]"
            )
        if kind not in (DIFFEOMORPHIC, CONSTANT):
            raise ConstructionError(f"unknown piece kind {kind!r}")
        if kind == CONSTANT:
            if constant_value is None:
                raise ConstructionError("constant piece needs constant_value")
            c = float(constant_value)
            forward = (lambda x, _c=c: np.full_like(np.asarray(x, dtype=float), _c)
                       if np.ndim(x) else _c)
            affine_slope = 0.0
        elif affine_intercept is not None:
            s, c = float(affine_slope), float(affine_intercept)
            forward = lambda x: s * np.asarray(x, float) + c
            inverse = lambda y: (y - c) / s
            inverse_derivative = lambda y: np.full(np.shape(y), 1.0 / s)
        elif forward is None:
            raise ConstructionError("diffeomorphic piece needs a forward map")
        vars(self).update(sub_lower=sub_lower, sub_upper=sub_upper, kind=kind,
                          forward=forward, inverse=inverse,
                          inverse_derivative=inverse_derivative,
                          constant_value=constant_value, affine_slope=affine_slope,
                          affine_intercept=affine_intercept)

    @property
    def length(self) -> float:
        return self.sub_upper - self.sub_lower

    @cached_property
    def image(self) -> tuple[float, float]:
        """Closed image [min, max] of the piece (endpoints of a monotone map),
        computed once: every inversion reads it.  An endpoint value that is
        not a finite real number, as sqrt or log of a negative number gives,
        raises ConstructionError.  The pieces a `PieceTable` makes carry
        their image from its columns."""
        if self.kind == CONSTANT:
            c = float(self.constant_value)
            return (c, c)
        ends = (self.sub_lower, self.sub_upper)
        with np.errstate(all="ignore"):  # a value that is not finite raises below
            ys = [self.forward(x) for x in ends]
        for x, y in zip(ends, ys):
            if isinstance(y, complex) or not math.isfinite(y):
                raise _no_finite_value(self.sub_lower, self.sub_upper, x, y)
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


class Violation(NamedTuple):
    code: str
    piece_index: Optional[int]
    message: str
    measured: float


class ValidationReport(NamedTuple):
    valid: bool
    violations: tuple[Violation, ...]

    def codes(self) -> set[str]:
        return {v.code for v in self.violations}


class PieceTable(NamedTuple):
    """A function's pieces as per-kind columns, in the order of their left
    ends: images, total slopes, distribution functions, atoms and `validate`
    run on them, once per kind over all the pieces of that kind.

    `sub_lower` and `sub_upper` hold every piece's interval, and the masks
    `affine` and `constant` its kind.  An affine piece keeps its `slope` and
    `intercept`, a constant piece its `value`, and every other piece (sine,
    power, expr, a custom map) its Piece object in `others`; each of these
    runs over the pieces of its kind, in order.  `lo`, `hi` and `inv_slope`
    run over the monotone pieces, affine and other, in order: the image
    ends, and |1/slope| of a piece with an affine slope (inf where it
    exceeds 1/DERIVATIVE_FLOOR, where `inverse_slope` raises
    SingularSlopeError) or nan for a piece whose inverse slope varies.
    """

    sub_lower: np.ndarray
    sub_upper: np.ndarray
    affine: np.ndarray
    constant: np.ndarray
    slope: np.ndarray
    intercept: np.ndarray
    value: np.ndarray
    others: tuple[Piece, ...]
    lo: np.ndarray
    hi: np.ndarray
    inv_slope: np.ndarray

    def affine_rows(self) -> np.ndarray:
        """Which monotone pieces are affine: a mask parallel to `lo`."""
        return self.affine[~self.constant]

    def hull(self) -> tuple[float, float]:
        """The least and the greatest image end, taken over the pieces in
        order by Python's min and max (which pick between 0.0 and -0.0)."""
        lows, highs = np.empty(self.sub_lower.size), np.empty(self.sub_lower.size)
        lows[~self.constant], highs[~self.constant] = self.lo, self.hi
        lows[self.constant] = highs[self.constant] = self.value
        return min(lows.tolist()), max(highs.tolist())

    def pieces(self) -> tuple[Piece, ...]:
        """The Piece objects of the table, in order; an affine piece carries
        its image from the columns."""
        params = iter(zip(self.slope.tolist(), self.intercept.tolist()))
        values, others = iter(self.value.tolist()), iter(self.others)
        images = iter(zip(self.lo.tolist(), self.hi.tolist()))
        out = []
        for a, c, lo, hi in zip(self.affine.tolist(), self.constant.tolist(),
                                self.sub_lower.tolist(), self.sub_upper.tolist()):
            if c:
                out.append(Piece(lo, hi, kind=CONSTANT, constant_value=next(values)))
                continue
            image = next(images)
            if a:
                slope, intercept = next(params)
                p = Piece(lo, hi, affine_slope=slope, affine_intercept=intercept)
                p.__dict__["image"] = image  # the cached_property's slot
            else:
                p = next(others)
            out.append(p)
        return tuple(out)


def affine_tables(sub_lower, sub_upper, slope, intercept) -> list[PieceTable]:
    """The tables of affine functions given as 2-D columns, one row per
    function with its pieces in the order of their left ends: every image
    and inverse slope of them all in one array operation.  A zero slope is
    a ValueError, as in `families.affine_piece`; the first piece, in order,
    with an image end that is not finite raises ConstructionError."""
    sl, su, slope, intercept = (np.asarray(v, dtype=float)
                                for v in (sub_lower, sub_upper, slope, intercept))
    if not slope.all():
        raise ValueError("use a constant piece for zero slope")
    if not sl.shape[1]:
        raise ConstructionError("need at least one piece")
    ya, yb, lo, hi, inv_slope = _affine_images(sl, su, slope, intercept)
    bad = np.flatnonzero(~(np.isfinite(ya) & np.isfinite(yb)))
    if bad.size:
        i = bad[0]
        raise _affine_end_error(sl.flat[i], su.flat[i], ya.flat[i], yb.flat[i])
    # every row's masks and empty columns alike, shared: no table is written to
    affine, constant, none = np.ones(sl.shape[1], bool), np.zeros(sl.shape[1], bool), np.empty(0)
    return [PieceTable(*cols[:2], affine, constant, *cols[2:4], none, (), *cols[4:])
            for cols in zip(sl, su, slope, intercept, lo, hi, inv_slope)]


def affine_table(sub_lower, sub_upper, slope, intercept) -> PieceTable:
    """The table of one affine function given as columns: `affine_tables`."""
    return affine_tables(*(np.asarray(v, dtype=float)[None]
                           for v in (sub_lower, sub_upper, slope, intercept)))[0]


def _affine_images(sl, su, slope, intercept):
    """The values ya, yb at both ends of affine pieces, arrays of any shape,
    in numpy's IEEE arithmetic; their image ends lo, hi; and |1/slope|, inf
    past 1/DERIVATIVE_FLOOR, where `inverse_slope` raises SingularSlopeError."""
    with np.errstate(all="ignore"):  # an end value that is not finite is the caller's error
        ya, yb = slope * sl + intercept, slope * su + intercept
        inv_slope = np.abs(1.0 / slope)
    inv_slope[inv_slope > 1.0 / DERIVATIVE_FLOOR] = math.inf
    # the lesser and the greater end as Python's min and max pick them
    return ya, yb, np.where(yb < ya, yb, ya), np.where(yb > ya, yb, ya), inv_slope


def _no_finite_value(a, b, x, y) -> ConstructionError:
    return ConstructionError(f"piece on [{a}, {b}] has no finite real value at x={x}: {y}")


def _affine_end_error(a, b, ya, yb) -> ConstructionError:
    """The error of the affine piece on [a, b] whose end values ya, yb are
    not both finite, naming the first end that is not."""
    a, b = float(a), float(b)
    x, y = (a, ya) if not math.isfinite(ya) else (b, yb)
    return _no_finite_value(a, b, x, float(y))


def table_of_rows(rows) -> PieceTable:
    """The table of pieces given as (sub_lower, sub_upper, param) rows in any
    order: param is (slope, intercept) for an affine piece, the Piece itself
    for a piece of another map, and the value for a constant piece.  The
    affine images come from `_affine_images`, the others from their
    `Piece.image`; the first piece, in order, with an image end that is not
    a finite real number raises ConstructionError."""
    rows = sorted(rows, key=lambda r: r[0])
    if not rows:
        raise ConstructionError("need at least one piece")
    params = [r[2] for r in rows]
    pairs = [q for q in params if isinstance(q, tuple)]
    others = tuple(q for q in params if isinstance(q, Piece))
    sl, su = (np.array([r[i] for r in rows], dtype=float) for i in (0, 1))
    affine = np.array([isinstance(q, tuple) for q in params])
    constant = np.array([not isinstance(q, (tuple, Piece)) for q in params])
    slope, intercept = np.array(pairs, dtype=float).reshape(-1, 2).T
    ya, yb, affine_lo, affine_hi, affine_inv = _affine_images(sl[affine], su[affine],
                                                               slope, intercept)
    bad = np.flatnonzero(~(np.isfinite(ya) & np.isfinite(yb)))
    first_bad = int(np.flatnonzero(affine)[bad[0]]) if bad.size else sl.size
    other_at = np.flatnonzero(~affine & ~constant).tolist()
    images = [p.image for p, i in zip(others, other_at) if i < first_bad]
    if bad.size:
        j = bad[0]
        raise _affine_end_error(sl[first_bad], su[first_bad], ya[j], yb[j])
    mono_affine = affine[~constant]  # which monotone pieces are affine
    lo, hi, inv_slope = (np.empty(mono_affine.size) for _ in range(3))
    lo[mono_affine], hi[mono_affine], inv_slope[mono_affine] = affine_lo, affine_hi, affine_inv
    lo[~mono_affine], hi[~mono_affine] = np.reshape(images, (-1, 2)).T
    with np.errstate(divide="ignore"):
        inv_slope[~mono_affine] = np.abs(1.0 / np.array(
            [math.nan if p.affine_slope is None else p.affine_slope for p in others]))
    inv_slope[inv_slope > 1.0 / DERIVATIVE_FLOOR] = math.inf
    value = np.array([q for q in params if not isinstance(q, (tuple, Piece))], dtype=float)
    return PieceTable(sl, su, affine, constant, slope, intercept, value, others,
                      lo, hi, inv_slope)


def _row(p: Piece) -> tuple:
    """The `table_of_rows` row of a piece."""
    if p.kind == CONSTANT:
        return p.sub_lower, p.sub_upper, p.constant_value
    if p.affine_intercept is not None:
        return p.sub_lower, p.sub_upper, (p.affine_slope, p.affine_intercept)
    return p.sub_lower, p.sub_upper, p


class MOscillatingFunction(_ReadOnly):
    """Sum of monotone/constant branches over a partition of the domain.

    Its pieces are kept sorted by their left endpoint, and as the per-kind
    columns of `piece_table`, which every computation over the whole
    function reads.  A function built from Piece objects derives its table
    from them; one built by `from_table` holds only the table and makes its
    `pieces` on first read.  `range_K` is the closed hull of the piece
    images unless supplied explicitly.
    """

    def __init__(self, domain: Domain1D, pieces: tuple[Piece, ...],
                 range_K: Optional[tuple[float, float]] = None):
        pieces = tuple(sorted(pieces, key=lambda p: p.sub_lower))
        if not pieces:
            raise ConstructionError("need at least one piece")
        vars(self).update(domain=domain, pieces=pieces)  # `pieces`: the cached_property's slot
        self._set_range(range_K)

    @classmethod
    def from_table(cls, domain: Domain1D, table: PieceTable,
                   range_K: Optional[tuple[float, float]] = None) -> "MOscillatingFunction":
        """The function of a table, such as `affine_table` or `table_of_rows` give."""
        f = object.__new__(cls)
        vars(f).update(domain=domain, piece_table=table)  # the cached_property's slot
        f._set_range(range_K)
        return f

    def _set_range(self, range_K):
        vars(self)["range_K"] = (self.piece_table.hull() if range_K is None
                                 else tuple(float(v) for v in range_K))

    @cached_property
    def pieces(self) -> tuple[Piece, ...]:
        """The Piece objects, made on first read for a function built from a table."""
        return self.piece_table.pieces()

    @property
    def measure_M(self) -> float:
        return self.domain.measure_M

    @cached_property
    def piece_table(self) -> PieceTable:
        """The pieces as per-kind columns, built once from the pieces."""
        return table_of_rows(map(_row, self.pieces))


def evaluate(f: MOscillatingFunction, x: float) -> float:
    """Evaluate f at an interior point; boundary points take the value of the
    left-adjacent piece extended by continuity."""
    if not f.domain.contains(x):
        raise DomainError(f"x={x} outside domain ({f.domain.lower}, {f.domain.upper})")
    return float(evaluate_many(f, np.array([x]))[0])


def piece_runs(f: MOscillatingFunction, xs: np.ndarray):
    """(piece, start, stop) of each piece's run in the sorted 1-D points xs,
    all cut before the first is read, so a run may be written over.  A
    shared endpoint and a gap point go to the piece on their left; points
    outside the domain, and NaN, go to the first or last piece."""
    cuts = np.searchsorted(xs, f.piece_table.sub_lower[1:], side="right").tolist()
    return zip(f.pieces, [0, *cuts], [*cuts, xs.size])


def evaluate_many(f: MOscillatingFunction, xs: np.ndarray) -> np.ndarray:
    """Vectorized evaluate over an array of points, of any shape and order,
    into a fresh array.  The points are sorted, each piece is called once on
    its run (`piece_runs`), clipped into its interval, and the values go
    back to the points' places."""
    xs = np.asarray(xs, dtype=float)
    order = np.argsort(xs, axis=None)
    flat = xs.ravel()[order]
    for p, a, b in piece_runs(f, flat):
        flat[a:b] = forward_values(p.forward, np.clip(flat[a:b], p.sub_lower, p.sub_upper))
    out = np.empty(xs.shape)
    out.reshape(-1)[order] = flat
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


def image_slack(*bounds: float) -> float:
    """Rounding slack of a value against image ends bounded by these values:
    1e-12 relative to the largest magnitude, absolute below 1."""
    return 1e-12 * max(1.0, *map(abs, bounds))


def _require_in_image(p: Piece, y: float) -> None:
    lo, hi = p.image
    slack = image_slack(lo, hi)
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
    the answer is only as good as that resolution.  The affine pieces are
    checked together, from the columns of the piece table.
    """
    violations: list[Violation] = []
    t = f.piece_table
    lows, highs = t.sub_lower.tolist(), t.sub_upper.tolist()
    dom = f.domain

    # disjointness / containment / gap accounting
    gap_total = max(0.0, lows[0] - dom.lower)
    for i, (a, b) in enumerate(zip(lows, highs)):
        if a < dom.lower - VALIDATE_TOL or b > dom.upper + VALIDATE_TOL:
            violations.append(
                Violation(
                    "outside_domain", i,
                    f"piece {i} [{a}, {b}] leaves the domain",
                    max(dom.lower - a, b - dom.upper),
                )
            )
        if i + 1 < len(lows):
            overlap = b - lows[i + 1]
            if overlap > VALIDATE_TOL:
                violations.append(
                    Violation(
                        "overlap", i,
                        f"overlapping subintervals: pieces {i} and {i + 1}",
                        overlap,
                    )
                )
            else:
                gap_total += max(0.0, lows[i + 1] - b)
    gap_total += max(0.0, dom.upper - highs[-1])
    if gap_total > VALIDATE_TOL:
        violations.append(
            Violation("gap_total", None,
                      "piece closures do not cover the domain closure",
                      gap_total)
        )

    # declared range vs union of images
    hull = t.hull()
    range_err = max(abs(hull[0] - f.range_K[0]), abs(hull[1] - f.range_K[1]))
    if range_err > VALIDATE_TOL:
        violations.append(
            Violation("range_mismatch", None,
                      f"range_K {f.range_K} vs piece image hull {hull}",
                      range_err)
        )

    # the pieces' own checks, in piece order
    found = _affine_violations(t)
    for i, p in zip(np.flatnonzero(~t.affine & ~t.constant).tolist(), t.others):
        found += [(i, v) for v in _piece_violations(i, p)]
    violations += [v for _, v in sorted(found, key=lambda iv: iv[0])]
    return ValidationReport(valid=not violations, violations=tuple(violations))


def _non_monotone(i: int, d: np.ndarray) -> Optional[Violation]:
    """The violation of piece i if its forward differences d are all zero
    or change sign."""
    flat = not (d != 0).any()
    if flat or ((d > 0).any() and (d < 0).any()):
        return Violation("non_monotone", i,
                         f"non-monotone piece {i}: forward differences "
                         + ("are all zero" if flat else "change sign"),
                         float(np.min(d) if d[0] > 0 else np.max(d)))
    return None


def _inverse_mismatch(i: int, miss: np.ndarray, lo: float, hi: float) -> Optional[Violation]:
    """The violation of piece i if |forward(inverse(y)) - y| at its probes
    exceeds the tolerance scaled to its image."""
    worst = float(np.fmax.reduce(miss, initial=0.0))  # fmax skips nan
    if worst > VALIDATE_TOL * max(1.0, abs(lo), abs(hi)):
        return Violation("inverse_mismatch", i, f"forward(inverse(y)) != y on piece {i}", worst)
    return None


def _probes(lo, hi):
    """Values strictly inside an image; the derivative may vanish at its rim."""
    return lo + (hi - lo) * np.linspace(0.08, 0.92, VALIDATE_SAMPLES // 8)


def _linspace_rows(start: np.ndarray, stop: np.ndarray, num: int) -> np.ndarray:
    """np.linspace(start[i], stop[i], num) in row i, bitwise: each row takes
    its own step, where one call of np.linspace on arrays would switch every
    row to its formula for a step that underflows to zero once one row
    needs it."""
    delta = (stop - start)[:, None]
    step = delta / (num - 1)
    ks = np.arange(num, dtype=float)
    xs = np.where(step == 0, ks / (num - 1) * delta, ks * step) + start[:, None]
    xs[:, -1] = stop
    return xs


def _affine_violations(t: PieceTable) -> list[tuple[int, Violation]]:
    """(piece index, violation) of the affine pieces.  Each check is one
    array operation over all of them, and a piece it flags gets its
    violation from the per-piece code, so every value is the one that code
    gives.  Their inverse derivative 1/slope is |1/slope| = 1/|slope|
    exactly, so its check cannot fail and is not run."""
    at = np.flatnonzero(t.affine)
    rows = t.affine_rows()
    s, c = t.slope[:, None], t.intercept[:, None]
    d = np.diff(s * _linspace_rows(t.sub_lower[at], t.sub_upper[at], VALIDATE_SAMPLES) + c,
                axis=1)
    non_monotone = ~(d != 0).any(axis=1) | ((d > 0).any(axis=1) & (d < 0).any(axis=1))
    lo, hi = t.lo[rows], t.hi[rows]
    probes = _probes(lo[:, None], hi[:, None])
    miss = np.abs(s * ((np.clip(probes, lo[:, None], hi[:, None]) - c) / s) + c - probes)
    tol = VALIDATE_TOL * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    flagged = non_monotone | (np.fmax.reduce(miss, axis=1, initial=0.0) > tol)
    return [(int(at[j]), _non_monotone(int(at[j]), d[j])
             or _inverse_mismatch(int(at[j]), miss[j], float(lo[j]), float(hi[j])))
            for j in np.flatnonzero(flagged).tolist()]


def _piece_violations(i: int, p: Piece) -> list[Violation]:
    """The violations of one monotone piece, its own maps called on arrays."""
    xs = np.linspace(p.sub_lower, p.sub_upper, VALIDATE_SAMPLES)
    v = _non_monotone(i, np.diff(forward_values(p.forward, xs)))
    if v is not None:
        return [v]
    found = []
    lo, hi = p.image
    probes = _probes(lo, hi)
    if p.inverse is not None:
        v = _inverse_mismatch(
            i, np.abs(forward_values(p.forward, p.invert(probes)) - probes), lo, hi)
        if v is not None:
            found.append(v)
    if p.inverse_derivative is not None:
        d_fd = np.abs(forward_derivative(p, p.invert(probes)))
        keep = ~(d_fd < DERIVATIVE_FLOOR)
        claimed = np.abs(forward_values(p.inverse_derivative, probes[keep]))
        rel = np.abs(claimed - 1.0 / d_fd[keep]) / (1.0 / d_fd[keep])
        worst = float(np.fmax.reduce(rel, initial=0.0))
        if worst > VALIDATE_TOL:
            found.append(
                Violation("inverse_derivative_mismatch", i,
                          f"inverse_derivative inconsistent with 1/|forward'| on piece {i}",
                          worst)
            )
    return found
