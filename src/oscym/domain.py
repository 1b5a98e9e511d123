"""Piecewise-monotone oscillating functions on a one-dimensional domain.

A function is assembled from finitely many pieces, each either strictly
monotone (invertible in closed form or by bisection) or constant on its
open subinterval.  The pieces partition the domain up to a null set;
boundary points belong to the left-adjacent piece by convention.
"""
from __future__ import annotations

import math
from functools import cached_property, partial
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
VALIDATE_SAMPLES = 64      # grid points per Piece of callables in `validate`
VALIDATE_TOL = 1e-6        # slack of `validate`'s structural and inverse checks
EVAL_BLOCK = 1 << 14       # values per forward call of `write_runs`, 128 KiB of float64

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
    (sub_lower, sub_upper): a map given as callables, or the view of a
    constant or closed-form piece that `PieceTable.pieces` makes, whose
    maps are its kind's kernels at its row.  Evaluation and sampling read
    the kind columns, not these views (`write_runs`).

    Diffeomorphic pieces are strictly monotone; `inverse` and
    `inverse_derivative` are optional closed forms, taking and returning
    arrays, with bisection and finite differences as the fallback (see
    `invert` and `inverse_slopes`).  `affine_slope` is set by builders
    when the forward map is affine, enabling exact derivative pushforwards.
    A piece with `affine_intercept` set too is affine; a constant piece
    makes its forward map from `constant_value`.
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
            forward = partial(_constant, float(constant_value))
            affine_slope = 0.0
        elif affine_intercept is not None:
            forward, inverse, inverse_derivative = _Affine.kernels(
                (float(affine_slope), float(affine_intercept)))
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
        raises ConstructionError."""
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
        one call (singular only where not finite: a closed form is exact),
        or else one over the forward derivative at the preimages from
        `invert` (singular only below its finite difference's rounding
        noise, which scales with the piece length, free of the unit of x)."""
        if self.inverse_derivative is not None:
            return _magnitude(forward_values(self.inverse_derivative, ys))
        d, noise = _fd_slopes(self, self.invert(ys))
        # below its rounding noise the derivative is indistinguishable from zero
        with np.errstate(divide="ignore"):
            return np.where(d < noise, math.inf, 1.0 / d)


def _fd_slopes(p: Piece, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|forward'| of a Piece at the points xs (`forward_derivative`), and
    the rounding noise of that finite difference, of order eps/h:
    100 eps max(1, |forward|)/h."""
    scale = np.maximum(1.0, np.abs(forward_values(p.forward, xs)))
    return (np.abs(forward_derivative(p, xs)),
            100.0 * 2.2e-16 * scale / (H_FD_SCALE * p.length))


def _constant(c: float, x):
    return np.full_like(np.asarray(x, dtype=float), c) if np.ndim(x) else c


def _magnitude(v: np.ndarray) -> np.ndarray:
    """|v|, and +inf (singular) where it is not finite."""
    v = np.abs(v)
    return np.where(np.isfinite(v), v, math.inf)


def _per_distinct(fn: Callable[[float], float], y) -> np.ndarray:
    """`per_value`, with one call per distinct bit pattern of y."""
    flat = np.ravel(np.asarray(y, dtype=float))
    order = np.argsort(flat.view(np.int64))
    bits = flat.view(np.int64)[order]
    first = np.concatenate([bits[:1] == bits[:1], bits[1:] != bits[:-1]])
    out = np.empty(flat.size)
    out[order] = per_value(fn, flat[order[first]])[np.cumsum(first) - 1]
    return out.reshape(np.shape(y))


def _by_row(j, y, fn) -> np.ndarray:
    """fn(r, values) called once on the values of y at rows j == r, j
    broadcast against y; a scalar row j is the one call fn(j, y)."""
    if np.ndim(j) == 0:
        return fn(j, y)
    j, y = np.broadcast_arrays(j, y)
    out = np.empty(y.shape)
    for r in range(int(j.max()) + 1 if j.size else 0):
        held = j == r
        if held.any():
            out[held] = fn(r, y[held])
    return out


class _Kind:
    """The pieces of one kind in a table, in order: `at` indexes them among
    its monotone pieces, and `cols` holds its columns.  The kernels of a
    closed-form kind, `forward`, `inverse` and `inverse_derivative`, take
    a tuple of column values broadcast against the values; `values` and
    `invert` are them at rows j, an index or integer array broadcast
    against the values (`write_runs` calls `values` at one row per piece),
    and `slope_terms` the |inverse slopes| (+inf where singular) where a
    (rows x values) mask holds, 0 elsewhere.  `validate`
    decides a closed-form kind's monotonicity from its columns: it flags
    the `turns`, the x of an extremum inside a row's interval (nan if
    none), and equal image ends.  `of` makes the columns from the
    `table_of_rows` params; a view's row (`_row`) passes every column
    value its kernels hold, of which `sin` reads the first three."""

    def __init__(self, at: np.ndarray, cols: tuple):
        self.at, self.cols = at, cols

    @classmethod
    def of(cls, at, sl, su, params) -> "_Kind":
        return cls(at, tuple(np.array(params, dtype=float).reshape(len(at), -1).T))

    @classmethod
    def kernels(cls, c: tuple) -> list[Callable]:
        return [partial(k, c) for k in (cls.forward, cls.inverse, cls.inverse_derivative)]

    def values(self, j, x):
        return self.forward(tuple(c[j] for c in self.cols), x)

    def invert(self, j, y):
        return self.inverse(tuple(c[j] for c in self.cols), y)

    def slope_terms(self, held, y) -> np.ndarray:
        # the kernel sees 1.0 off the held values, where y ** e could overflow
        c = tuple(c[:, None] for c in self.cols)
        return np.where(held, _magnitude(self.inverse_derivative(c, np.where(held, y, 1.0))), 0.0)

    def turns(self, sl, su) -> np.ndarray:
        return np.full(sl.size, math.nan)


class _Affine(_Kind):
    """u -> slope u + intercept: columns slope and intercept."""

    forward = staticmethod(lambda c, x: c[0] * np.asarray(x, dtype=float) + c[1])
    inverse = staticmethod(lambda c, y: (y - c[1]) / c[0])
    inverse_derivative = staticmethod(lambda c, y: np.full(np.shape(y), 1.0 / c[0]))


class _Sin(_Kind):
    """u -> A sin(w u + phase) where it is monotone: columns A, w, phase,
    and the arcsine branch k (the multiple of pi nearest w u + phase at the
    interval's midpoint) with its sign, -1 for odd k.  The inverse is
    (k pi + sign asin(y/A) - phase)/w, with math.asin once per distinct
    y/A, where numpy's arcsin can differ in the last bit."""

    forward = staticmethod(lambda c, x: c[0] * np.sin(c[1] * np.asarray(x, dtype=float) + c[2]))

    @classmethod
    def of(cls, at, sl, su, params):
        A, w, ph = np.array(params, dtype=float).reshape(len(at), -1).T[:3]
        # Python's round, half to even, which refuses nan and inf
        k = np.array([round(t / math.pi) for t in (w * 0.5 * (sl + su) + ph).tolist()], float)
        return cls(at, (A, w, ph, k, np.where(k % 2, -1.0, 1.0)))

    @staticmethod
    def inverse(c, y):
        r = np.clip(np.asarray(y, dtype=float) / c[0], -1.0, 1.0)
        return (c[3] * math.pi + c[4] * _per_distinct(math.asin, r) - c[2]) / c[1]

    @staticmethod
    def inverse_derivative(c, y):
        r = np.clip(np.asarray(y, dtype=float) / c[0], -1.0, 1.0)
        with np.errstate(divide="ignore"):  # 1/0 = inf at |r| = 1, a singular slope
            return 1.0 / (np.abs(c[0] * c[1]) * np.sqrt(np.maximum(1.0 - r * r, 0.0)))

    def turns(self, sl, su):
        # an odd multiple of pi/2 inside the range of w x + phase by more
        # than its rounding, 16 ulps of its terms
        w, ph = self.cols[1:3]
        ta, tb = w * sl + ph, w * su + ph
        slack = 16 * np.finfo(float).eps * (np.abs(w) * np.maximum(np.abs(sl), np.abs(su))
                                            + np.abs(ph))
        t = (np.ceil((np.minimum(ta, tb) + slack) / math.pi - 0.5) + 0.5) * math.pi
        return np.where(t < np.maximum(ta, tb) - slack, (t - ph) / w, math.nan)


_pow = np.frompyfunc(pow, 2, 1)  # Python's float power, where numpy's can differ in the last bit


class _Power(_Kind):
    """u -> u^p on an interval in [0, inf): column exponent p.  The forward
    map is numpy's power at one exponent at a time (with an array of
    exponents it can differ in the last bit); the inverse y^(1/p) and its
    derivative y^(1/p - 1)/p are Python's float power, +inf at y = 0 where
    1/p < 1 (a singular slope, as at the extrema of sin).  A row that
    starts below 0 raises ConstructionError."""

    forward = staticmethod(lambda c, x: np.asarray(x, dtype=float) ** c[0])
    inverse = staticmethod(lambda c, y: np.asarray(_pow(y, 1.0 / c[0]), dtype=float))

    @staticmethod
    def inverse_derivative(c, y):
        e = 1.0 / c[0] - 1.0
        y = np.where(0.0 > y, 0.0, y)  # Python's max(y, 0.0)
        singular = (y == 0.0) & (e < 0)
        v = np.asarray(_pow(np.where(singular, 1.0, y), e), dtype=float) / c[0]
        return np.where(singular, math.inf, v)

    @classmethod
    def of(cls, at, sl, su, params):
        for a, b in zip(sl.tolist(), su.tolist()):
            if a < 0:
                raise ConstructionError(f"power piece on [{a}, {b}] needs a nonnegative interval")
        return super().of(at, sl, su, params)

    def values(self, j, x):
        return _by_row(j, x, lambda r, v: self.forward((float(self.cols[0][r]),), v))


class _Callables(_Kind):
    """Pieces of maps given as callables: `cols` holds the Piece objects,
    and each map is one call of the Piece's own per row."""

    @classmethod
    def of(cls, at, sl, su, params):
        return cls(at, tuple(params))

    def values(self, j, x):
        return _by_row(j, x, lambda r, v: forward_values(self.cols[r].forward, v))

    def invert(self, j, y):
        return _by_row(j, y, lambda r, v: self.cols[r].invert(v))

    def slope_terms(self, held, y):
        out = np.zeros(held.shape)
        for i, p in enumerate(self.cols):
            if held[i].any():
                out[i, held[i]] = p.inverse_slopes(y[held[i]])
        return out


# the monotone kinds of `table_of_rows`, in the order of their groups
_KINDS = {"affine": _Affine, "sin": _Sin, "power": _Power, "piece": _Callables}
# a Piece whose forward map is a kernel views a row of that kind
_VIEWS = {cls.forward: name for name, cls in _KINDS.items() if cls is not _Callables}


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
    ends: images, total slopes, distribution functions, atoms, evaluation
    and sampling (`write_runs`) and `validate` run on them, in one loop
    over the kinds; `pieces` makes the public Piece views from them.

    `sub_lower` and `sub_upper` hold every piece's interval, and the mask
    `constant` its kind; a constant piece keeps its `value`.  `lo` and `hi`
    are the image ends of the monotone pieces, in order.  `kinds` holds a
    group per kind among them: the affine columns slope and intercept, the
    sin columns amplitude, frequency, phase, branch and sign, the power
    column exponent, and the Piece objects of maps given as callables
    (`expr` pieces and custom maps).
    """

    sub_lower: np.ndarray
    sub_upper: np.ndarray
    constant: np.ndarray
    value: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    kinds: tuple[_Kind, ...]

    def hull(self) -> tuple[float, float]:
        """The least and the greatest image end, taken over the pieces in
        order by Python's min and max (which pick between 0.0 and -0.0)."""
        lows, highs = np.empty(self.sub_lower.size), np.empty(self.sub_lower.size)
        lows[~self.constant], highs[~self.constant] = self.lo, self.hi
        lows[self.constant] = highs[self.constant] = self.value
        return min(lows.tolist()), max(highs.tolist())

    def pieces(self) -> tuple[Piece, ...]:
        """The Piece of each piece, in order: a constant piece's, the view
        of a closed-form row, whose maps are its kind's kernels at the row,
        or the Piece of callables itself."""
        sl, su = self.sub_lower.tolist(), self.sub_upper.tolist()
        out = [None] * len(sl)
        for i, v in zip(np.flatnonzero(self.constant).tolist(), self.value.tolist()):
            out[i] = Piece(sl[i], su[i], CONSTANT, constant_value=v)
        mono = np.flatnonzero(~self.constant)
        for g in self.kinds:
            index = mono[g.at].tolist()
            views = g.cols if isinstance(g, _Callables) else (
                Piece(sl[i], su[i], DIFFEOMORPHIC, *g.kernels(c),
                      affine_slope=c[0] if isinstance(g, _Affine) else None)
                for i, c in zip(index, zip(*(c.tolist() for c in g.cols))))
            for i, p in zip(index, views):
                out[i] = p
        return tuple(out)


def _images(g: _Kind, sl, su):
    """The image ends of the pieces of a kind on (sl, su), as Python's min
    and max pick them, and the first row with an end that is not finite,
    with its end values (or [])."""
    with np.errstate(all="ignore"):  # an end value that is not finite is the caller's error
        ya, yb = g.values(np.arange(sl.size)[:, None], np.stack([sl, su], 1)).T
    bad = np.flatnonzero(~(np.isfinite(ya) & np.isfinite(yb)))[:1].tolist()
    return (np.where(yb < ya, yb, ya), np.where(yb > ya, yb, ya),
            bad and (bad[0], ya[bad[0]], yb[bad[0]]))


def affine_tables(sub_lower, sub_upper, slope, intercept) -> list[PieceTable]:
    """The tables of affine functions given as 2-D columns, one row per
    function with its pieces in the order of their left ends: every image
    of them all in one array operation.  A zero slope is a ValueError, as
    in `families.affine_piece`; the first piece, in order, with an image
    end that is not finite raises ConstructionError."""
    sl, su, slope, intercept = (np.asarray(v, dtype=float)
                                for v in (sub_lower, sub_upper, slope, intercept))
    if not slope.all():
        raise ValueError("use a constant piece for zero slope")
    if not sl.shape[1]:
        raise ConstructionError("need at least one piece")
    lo, hi, bad = _images(_Affine(None, (slope.ravel(), intercept.ravel())),
                          sl.ravel(), su.ravel())
    if bad:
        raise _end_error(sl.flat[bad[0]], su.flat[bad[0]], *bad[1:])
    # every row's mask, rows and empty column alike, shared: no table is written to
    n = sl.shape[1]
    at, constant, none = np.arange(n), np.zeros(n, bool), np.empty(0)
    return [PieceTable(*cols[:2], constant, none, *cols[4:], (_Affine(at, cols[2:4]),))
            for cols in zip(sl, su, slope, intercept, lo.reshape(sl.shape), hi.reshape(sl.shape))]


def affine_table(sub_lower, sub_upper, slope, intercept) -> PieceTable:
    """The table of one affine function given as columns: `affine_tables`."""
    return affine_tables(*(np.asarray(v, dtype=float)[None]
                           for v in (sub_lower, sub_upper, slope, intercept)))[0]


def _no_finite_value(a, b, x, y) -> ConstructionError:
    return ConstructionError(f"piece on [{a}, {b}] has no finite real value at x={x}: {y}")


def _end_error(a, b, ya, yb) -> ConstructionError:
    """The error of the piece on [a, b] whose end values ya, yb are not
    both finite, naming the first end that is not."""
    a, b = float(a), float(b)
    x, y = (a, ya) if not math.isfinite(ya) else (b, yb)
    return _no_finite_value(a, b, x, float(y))


def table_of_rows(rows) -> PieceTable:
    """The table of pieces given as (sub_lower, sub_upper, kind, param)
    rows in any order: kind "constant" with the value, "affine" with
    (slope, intercept), "sin" with (amplitude, frequency, phase), "power"
    with (exponent,), or "piece" with the Piece of a map given as
    callables.  The image ends of a closed-form kind are one call of its
    forward kernel, a Piece's its `Piece.image`; the first piece, in order,
    with an image end that is not a finite real number raises
    ConstructionError."""
    rows = sorted(rows, key=lambda r: r[0])
    if not rows:
        raise ConstructionError("need at least one piece")
    sl, su = (np.array([r[i] for r in rows], dtype=float) for i in (0, 1))
    constant = np.array([r[2] == CONSTANT for r in rows])
    mono = [r for r in rows if r[2] != CONSTANT]
    names = np.array([r[2] for r in mono], dtype=str)
    msl, msu = sl[~constant], su[~constant]
    lo, hi, kinds, bad = np.empty(len(mono)), np.empty(len(mono)), [], (len(mono),)
    for name, cls in _KINDS.items():
        at = np.flatnonzero(names == name)
        if at.size:
            kinds.append(cls.of(at, msl[at], msu[at], [mono[i][3] for i in at.tolist()]))
        if at.size and cls is not _Callables:
            lo[at], hi[at], first = _images(kinds[-1], msl[at], msu[at])
            if first and at[first[0]] < bad[0]:
                bad = (at[first[0]], *first[1:])
    # a Piece's image raises its own error: read those before the first bad end
    for i in np.flatnonzero(names == "piece").tolist():
        if i < bad[0]:
            lo[i], hi[i] = mono[i][3].image
    if bad[0] < len(mono):
        raise _end_error(msl[bad[0]], msu[bad[0]], *bad[1:])
    value = np.array([r[3] for r in rows if r[2] == CONSTANT], dtype=float)
    return PieceTable(sl, su, constant, value, lo, hi, tuple(kinds))


def _row(p: Piece) -> tuple:
    """The `table_of_rows` row of a piece; a Piece whose forward map and
    inverse are a closed-form kind's kernels is a row of that kind."""
    if p.kind == CONSTANT:
        return p.sub_lower, p.sub_upper, CONSTANT, p.constant_value
    kind = _VIEWS.get(getattr(p.forward, "func", None))
    if kind is None or getattr(p.inverse, "func", None) is not _KINDS[kind].inverse:
        return p.sub_lower, p.sub_upper, "piece", p
    return p.sub_lower, p.sub_upper, kind, p.forward.args[0]


class MOscillatingFunction(_ReadOnly):
    """Sum of monotone/constant branches over a partition of the domain.

    Its pieces are kept sorted by their left endpoint, as the per-kind
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


def write_runs(f: MOscillatingFunction, xs: np.ndarray) -> list[tuple[int, int]]:
    """Write f's values over the sorted 1-D points xs, and return (start,
    stop) of each piece's run in them, in piece order.  The runs are all cut
    before the first is written.  A shared endpoint and a gap point go to
    the piece on their left; points outside the domain, and NaN, go to the
    first or last piece.  A constant piece's run is filled with its value;
    a monotone piece's is its kind's `values` at its row, on the points
    clipped into its interval, at most EVAL_BLOCK points per call."""
    t = f.piece_table
    cuts = np.searchsorted(xs, t.sub_lower[1:], side="right").tolist()
    runs = list(zip([0, *cuts], [*cuts, xs.size]))
    sl, su = t.sub_lower.tolist(), t.sub_upper.tolist()
    for i, v in zip(np.flatnonzero(t.constant).tolist(), t.value.tolist()):
        xs[slice(*runs[i])] = v
    mono = np.flatnonzero(~t.constant)
    for g in t.kinds:
        for r, i in enumerate(mono[g.at].tolist()):
            a, b = runs[i]
            for s in range(a, b, EVAL_BLOCK):
                e = min(s + EVAL_BLOCK, b)
                xs[s:e] = g.values(r, np.clip(xs[s:e], sl[i], su[i]))
    return runs


def evaluate_many(f: MOscillatingFunction, xs: np.ndarray) -> np.ndarray:
    """Vectorized evaluate over an array of points, of any shape and order,
    into a fresh array: the points sorted, their values written over them
    (`write_runs`), and put back in the points' places."""
    xs = np.asarray(xs, dtype=float)
    order = np.argsort(xs, axis=None)
    flat = xs.ravel()[order]
    write_runs(f, flat)
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
    """Derivative of the forward map of a Piece p at x, a scalar or an
    array: exact for affine and constant pieces, otherwise a second-order
    finite difference kept inside the piece interval, central or, within h
    of an end, one-sided."""
    if p.affine_slope is not None:
        return p.affine_slope if np.ndim(x) == 0 else np.full(np.shape(x), p.affine_slope)
    xs = np.asarray(x, dtype=float)
    flat = xs.reshape(-1)
    h = H_FD_SCALE * (p.sub_upper - p.sub_lower)
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
    SingularSlopeError where that is +inf, e.g. at the extrema of a sine
    branch, and RangeError for a y outside the image of a piece without
    a closed-form inverse derivative."""
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

    All problems are reported, never thrown.  The pieces of each kind are
    checked together, from the columns of the piece table.  The parameters
    of an affine, sin or power piece decide its monotonicity; a Piece of
    callables is checked by the sign of its forward differences over
    VALIDATE_SAMPLES points, so that answer is only as good as their
    resolution.
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
    found, mono = [], np.flatnonzero(~t.constant)
    for g in t.kinds:
        index = mono[g.at]
        found += _kind_violations(g, index, t.sub_lower[index], t.sub_upper[index],
                                  t.lo[g.at], t.hi[g.at])
    violations += sorted(found, key=lambda v: v.piece_index)
    return ValidationReport(valid=not violations, violations=tuple(violations))


def _sampled_bend(p: Piece) -> Optional[tuple[str, float]]:
    """How the Piece p bends, and the difference that shows it, if its
    forward differences over VALIDATE_SAMPLES points are all zero or
    change sign."""
    d = np.diff(forward_values(p.forward, np.linspace(p.sub_lower, p.sub_upper,
                                                       VALIDATE_SAMPLES)))
    flat = not (d != 0).any()
    if flat or ((d > 0).any() and (d < 0).any()):
        return ("forward differences " + ("are all zero" if flat else "change sign"),
                float(np.min(d) if d[0] > 0 else np.max(d)))
    return None


def _kind_violations(g: _Kind, index, sl, su, lo, hi) -> list[Violation]:
    """The violations of the pieces of one kind, at `index` among all
    pieces.  A closed-form piece with an extremum inside (`turns`) or equal
    image ends, or a Piece of callables that `_sampled_bend` flags, is
    non-monotone and gets only that violation.  Otherwise each closed-form
    inverse is checked by a round trip at probes inside the image, one
    call of the kind's maps on all of them, and a Piece's own inverse
    derivative against one over a finite difference where that exceeds
    its rounding noise, up to that noise."""
    if isinstance(g, _Callables):
        bends = [_sampled_bend(p) for p in g.cols]
        inverse, derivative = (np.array([getattr(p, name) is not None for p in g.cols], bool)
                               for name in ("inverse", "inverse_derivative"))
    else:
        bends = [(f"an extremum at x={x} lies inside", x) if not math.isnan(x)
                 else ("forward differences are all zero", 0.0) if a == b else None
                 for x, a, b in zip(g.turns(sl, su).tolist(), lo.tolist(), hi.tolist())]
        inverse, derivative = np.ones(index.size, bool), np.zeros(index.size, bool)
    found = [Violation("non_monotone", i, f"non-monotone piece {i}: {b[0]}", b[1])
             for i, b in zip(index.tolist(), bends) if b]
    rows = np.flatnonzero(np.array([b is None for b in bends], bool) & (inverse | derivative))
    k = rows[:, None]
    # strictly inside each image: the derivative may vanish at its rim
    probes = lo[k] + (hi[k] - lo[k]) * np.linspace(0.08, 0.92, VALIDATE_SAMPLES // 8)
    xs = g.invert(k, np.clip(probes, lo[k], hi[k]))
    # |forward(inverse(y)) - y| at the probes, within the tolerance scaled to the image
    miss = np.fmax.reduce(np.abs(g.values(k, xs) - probes), axis=1, initial=0.0)  # skips nan
    tol = VALIDATE_TOL * np.maximum(1.0, np.maximum(np.abs(lo[rows]), np.abs(hi[rows])))
    for n in np.flatnonzero(inverse[rows] & (miss > tol)).tolist():
        i = int(index[rows[n]])
        found.append(Violation("inverse_mismatch", i, f"forward(inverse(y)) != y on piece {i}",
                               float(miss[n])))
    for n in np.flatnonzero(derivative[rows]).tolist():
        p, i = g.cols[rows[n]], int(index[rows[n]])
        d, noise = _fd_slopes(p, xs[n])
        keep = ~(d < noise)
        # |claimed / (1/|forward'|) - 1|, less the difference's relative noise
        claimed = np.abs(forward_values(p.inverse_derivative, probes[n][keep]))
        off = np.fmax.reduce(np.abs(claimed * d[keep] - 1.0) - noise[keep] / d[keep], initial=0.0)
        if off > VALIDATE_TOL:
            found.append(Violation(
                "inverse_derivative_mismatch", i,
                f"inverse_derivative inconsistent with 1/|forward'| on piece {i}", float(off)))
    return found
