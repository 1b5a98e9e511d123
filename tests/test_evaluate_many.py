"""`evaluate_many` on sorted runs against the per-piece mask loop.

Each piece is evaluated on one contiguous run of sorted points, in blocks
of at most `domain.EVAL_BLOCK` points.  The values must be bitwise those
of the mask loop it replaced, in any input order and shape, for any block
size, written to a fresh array or back into the input, with a shared
endpoint given to the left piece.
"""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscym import domain
from oscym.domain import Domain1D, MOscillatingFunction, Piece, evaluate_many
from oscym.families import affine_piece, constant_piece, sine_piece, sine_wave, tent_map
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


@pytest.mark.parametrize("block", [1, 7, 64])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(**POINTS)
def test_blocked_runs_equal_mask_loop(block, spec, fractions, order, repeats, with_nan,
                                      seed):
    # blocks this small cut nearly every piece's run, most at many places
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(domain, "EVAL_BLOCK", block)
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


def all_kinds():
    return build_function({"domain": [0.0, 3.0], "pieces": [
        {"interval": [0.0, 0.5], "kind": "power", "params": {"exponent": 0.5}},
        {"interval": [0.5, 1.0], "kind": "affine", "params": {"slope": -2.0, "intercept": 3.0}},
        {"interval": [1.0, 1.5], "kind": "constant", "params": {"value": 0.25}},
        {"interval": [1.5, 2.0], "kind": "sin",
         "params": {"amplitude": 1.0, "frequency": 3.0, "phase": 0.1}},
        {"interval": [2.0, 3.0], "kind": "expr", "params": {"expr": "exp(x) / 2"}}]})


@pytest.mark.parametrize("block", [7, None], ids=["block7", "default"])
@pytest.mark.parametrize("order", ["sorted", "reversed", "shuffled"])
def test_out_may_be_the_input(monkeypatch, block, order):
    if block:
        monkeypatch.setattr(domain, "EVAL_BLOCK", block)
    f = all_kinds()
    xs = arrange(np.linspace(-0.5, 3.5, 1001), order, seed=3)
    fresh = evaluate_many(f, xs)
    assert evaluate_many(f, xs, out=xs) is xs
    assert_same_bits(xs, fresh)

    grid = arrange(np.linspace(0.0, 3.0, 24), order, seed=5).reshape(4, 6)
    out = np.empty((4, 6))
    assert evaluate_many(f, grid, out=out) is out
    assert_same_bits(out, evaluate_many(f, grid))


@pytest.mark.parametrize("make", [tent_map, lambda: sine_wave(3), all_kinds],
                         ids=["affine", "sine", "all_kinds"])
def test_sorted_input_written_over_holds_under_a_mib(make):
    # 1M sorted points take 7.63 MiB; the sortedness test and each forward
    # call work on blocks of EVAL_BLOCK points, so nothing point-sized is made
    f = make()
    lo, hi = f.domain.lower, f.domain.upper
    evaluate_many(f, np.linspace(lo, hi, 100))  # build the table and pieces first
    xs = np.linspace(lo, hi, 1_000_000)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        evaluate_many(f, xs, out=xs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("out", [np.empty((3, 2)), np.empty((2, 3), dtype=np.float32),
                                 np.empty((2, 6))[:, ::2]],
                         ids=["shape", "dtype", "strided_2d"])
def test_out_must_match_the_input(out):
    with pytest.raises(ValueError):
        evaluate_many(two_jumps(), np.linspace(0.1, 1.4, 6).reshape(2, 3), out=out)


def test_run_is_cut_into_blocks(monkeypatch):
    sizes = []

    def ramp(x):
        sizes.append(np.size(x))
        return 2.0 * x

    f = MOscillatingFunction(domain=Domain1D(0.0, 1.0),
                             pieces=(Piece(sub_lower=0.0, sub_upper=1.0, forward=ramp),))
    xs = np.linspace(0.05, 0.95, 10)
    f.piece_table  # the image calls ramp at both ends
    sizes.clear()
    evaluate_many(f, xs)
    assert sizes == [10]  # a run no longer than a block is one call
    monkeypatch.setattr(domain, "EVAL_BLOCK", 4)
    sizes.clear()
    assert_same_bits(evaluate_many(f, xs), 2.0 * xs)
    assert sizes == [4, 4, 2]
