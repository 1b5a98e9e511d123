"""`evaluate_many` on sorted runs against the per-piece mask loop.

Each piece is evaluated in one call on the contiguous run of sorted points
that falls to it.  The values must be bitwise those of the mask loop it
replaced, in any input order and shape, with the input left as it was and
a shared endpoint given to the left piece.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscym.domain import Domain1D, MOscillatingFunction, Piece, evaluate_many
from oscym.families import affine_piece, constant_piece, sine_piece
from oscym.funcspec import build_function

EXPRESSIONS = ("x^3 - x", "exp(x) / 2", "log(x + 1)", "sin(3*x) + x", "2", "pi")

PARAMS = {
    "affine": st.fixed_dictionaries({
        "slope": st.one_of(st.floats(0.2, 5.0), st.floats(-5.0, -0.2)),
        "intercept": st.floats(-3.0, 3.0)}),
    "sin": st.fixed_dictionaries({
        "amplitude": st.floats(0.5, 2.0),
        "frequency": st.floats(0.5, 10.0),
        "phase": st.floats(-3.0, 3.0)}),
    "power": st.fixed_dictionaries({"exponent": st.floats(0.25, 3.0)}),
    "expr": st.fixed_dictionaries({"expr": st.sampled_from(EXPRESSIONS)}),
    "constant": st.fixed_dictionaries({"value": st.floats(-2.0, 2.0)}),
}


@st.composite
def mixed_specs(draw):
    """Function specs of 1-6 pieces of any kind on consecutive intervals of
    [0, 5.5]; forward maps need not be monotone to be evaluated."""
    n = draw(st.integers(1, 6))
    cuts = [draw(st.floats(0.0, 1.0))]
    for _ in range(n):
        cuts.append(cuts[-1] + draw(st.floats(0.05, 0.75)))
    pieces = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        kind = draw(st.sampled_from(sorted(PARAMS)))
        pieces.append({"interval": [a, b], "kind": kind,
                       "params": draw(PARAMS[kind])})
    return {"domain": [cuts[0], cuts[-1]], "pieces": pieces}


def mask_loop(f, xs):
    """The per-piece mask loop `evaluate_many` replaced, kept as its
    reference, with a shared endpoint given to the left piece."""
    xs = np.asarray(xs, dtype=float)
    idx = np.searchsorted(f.piece_table.sub_lower, xs, side="left") - 1
    idx = np.clip(idx, 0, len(f.pieces) - 1)
    out = np.empty_like(xs)
    for i, p in enumerate(f.pieces):
        mask = idx == i
        if not mask.any():
            continue
        sub = np.clip(xs[mask], p.sub_lower, p.sub_upper)
        try:
            vals = np.asarray(p.forward(sub), dtype=float)
            if vals.shape != sub.shape:
                raise ValueError
        except (TypeError, ValueError):
            vals = np.array([float(p.forward(v)) for v in sub])
        out[mask] = vals
    return out


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


POINTS = dict(spec=mixed_specs(),
              fractions=st.lists(st.floats(0.0, 1.0), min_size=0, max_size=40),
              order=st.sampled_from(("shuffled", "sorted", "reversed")),
              repeats=st.integers(1, 3),
              with_nan=st.booleans(),
              seed=st.integers(0, 2**32 - 1))


def arrange(xs, order, seed):
    if order == "sorted":
        return np.sort(xs)
    if order == "reversed":
        return np.sort(xs)[::-1]
    xs = xs.copy()
    np.random.default_rng(seed).shuffle(xs)
    return xs


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(**POINTS)
def test_sorted_runs_equal_mask_loop(spec, fractions, order, repeats, with_nan, seed):
    assert_matches_mask_loop(spec, fractions, order, repeats, with_nan, seed)


def assert_matches_mask_loop(spec, fractions, order, repeats, with_nan, seed):
    f = build_function(spec)
    lo, hi = f.domain.lower, f.domain.upper
    ends = [v for p in f.pieces for v in (p.sub_lower, p.sub_upper)]
    xs = np.array([lo + u * (hi - lo) for u in fractions] + ends)
    xs = np.repeat(xs, repeats)
    if with_nan:
        xs = np.append(xs, math.nan)
    xs = arrange(xs, order, seed)
    before = xs.copy()
    got = evaluate_many(f, xs)
    assert np.array_equal(xs, before, equal_nan=True)  # input left as it was
    assert_same_bits(got, mask_loop(f, xs))

    # every interior boundary takes the value of the piece on its left
    for left, right in zip(f.pieces[:-1], f.pieces[1:]):
        b = np.array([right.sub_lower])
        want = np.broadcast_to(np.asarray(left.forward(b), dtype=float), (1,))
        assert_same_bits(evaluate_many(f, b), want)


def two_jumps():
    return MOscillatingFunction(
        domain=Domain1D(0.0, 1.5),
        pieces=(affine_piece(0.0, 0.5, 1.0, 0.0), constant_piece(0.5, 1.0, 5.0),
                sine_piece(1.0, 1.5, 2.0, 3.0, 0.1)))


@pytest.mark.parametrize("xs", [
    np.array(0.75),
    np.array(0.5),
    np.empty(0),
    np.empty((0, 3)),
    np.array([[1.25, 0.5, 0.1], [1.0, 0.7, 1.49]]),
    np.array([[0.1, 0.2], [0.5, 1.0], [1.1, 1.4]]),
    np.array([1.0, 0.5, 0.5, 1.0]),
    np.array([-1.0, 0.25, 2.0]),
])
def test_shapes_and_orders(xs):
    f = two_jumps()
    got = evaluate_many(f, xs)
    assert got.shape == xs.shape
    assert_same_bits(got, mask_loop(f, xs))


def test_forward_that_rejects_arrays_is_called_per_value():
    def scalar_only(x):
        if np.ndim(x):
            raise TypeError("scalar forward")
        return math.sin(x)

    f = MOscillatingFunction(
        domain=Domain1D(0.0, 1.0),
        pieces=(Piece(sub_lower=0.0, sub_upper=0.5, forward=scalar_only),
                affine_piece(0.5, 1.0, 2.0, 0.0)))
    xs = np.array([0.4, 0.9, 0.1, 0.5, 0.3])
    assert evaluate_many(f, xs).tolist() == [
        math.sin(0.4), 1.8, math.sin(0.1), math.sin(0.5), math.sin(0.3)]

