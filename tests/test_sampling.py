import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscym import (compare_histogram, oracle_report, pushforward_empirical, sampling,
                   young_measure)
from oscym.domain import Domain1D, MOscillatingFunction, evaluate_many, table_of_rows
from oscym.errors import PreconditionError
from oscym.families import (affine_piece, constant_piece, half_plateau, identity_map,
                            sine_piece, sine_wave, tent_map)
from oscym.funcspec import build_function
from oscym.measures import Atom, ScalarMeasureRCA
from oscym.sampling import Histogram, PointMass, _uniform
from test_evaluate_many import assert_same_bits, mixed_specs

SEED = 42
N = 200_000


def stderr(p, n):
    return math.sqrt(p * (1.0 - p) / n)


def test_identity_histogram_uniform():
    h = pushforward_empirical(identity_map(), N, SEED, 16)
    assert h.sample_count == N
    assert h.total_mass == pytest.approx(1.0, abs=1e-12)
    for mass in h.masses:
        assert abs(mass - 0.0625) <= 3 * stderr(0.0625, N)


def test_tent_histogram_uniform():
    h = pushforward_empirical(tent_map(), N, SEED, 16)
    for mass in h.masses:
        assert abs(mass - 0.0625) <= 3 * stderr(0.0625, N)


def test_plateau_point_mass_detected():
    h = pushforward_empirical(half_plateau(), N, SEED, 16)
    assert len(h.point_masses) == 1
    pm = h.point_masses[0]
    assert pm.location == pytest.approx(0.5, abs=1e-12)
    assert abs(pm.mass - 0.5) <= 3 * stderr(0.5, N)


def test_diffuse_functions_have_no_point_masses():
    h = pushforward_empirical(tent_map(), N, SEED, 16)
    assert h.point_masses == ()


def test_determinism_for_fixed_seed():
    h1 = pushforward_empirical(tent_map(), 10_000, 7, 16)
    h2 = pushforward_empirical(tent_map(), 10_000, 7, 16)
    np.testing.assert_array_equal(h1.masses, h2.masses)
    h3 = pushforward_empirical(tent_map(), 10_000, 8, 16)
    assert (h1.masses != h3.masses).any()


def test_precondition_errors():
    with pytest.raises(PreconditionError):
        pushforward_empirical(tent_map(), 10, SEED, 16)
    with pytest.raises(PreconditionError):
        pushforward_empirical(tent_map(), 10_000, SEED, 4)
    for seed in (-1, 2**128):
        with pytest.raises(PreconditionError):
            pushforward_empirical(tent_map(), 10_000, seed, 16)


MASK64, GAMMA = 2**64 - 1, 0x9E3779B97F4A7C15


def splitmix64_mix(z):
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & MASK64
    z = (z ^ z >> 27) * 0x94D049BB133111EB & MASK64
    return z ^ z >> 31


def splitmix64_words(n, seed):
    """The first n 53-bit words of seed's stream, in Python integers."""
    state = splitmix64_mix(seed & MASK64 ^ splitmix64_mix((seed >> 64) + GAMMA & MASK64))
    return [splitmix64_mix(state + (i + 1) * GAMMA & MASK64) >> 11 for i in range(n)]


BLOCK = sampling._DRAW_BLOCK


def draws(lo, hi, n, seed):
    """The stream's n draws as one array; each block is copied, as the
    stream writes the next block over it."""
    return np.concatenate([block.copy() for block in _uniform(lo, hi, n, seed)])


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, 2**64, 2**128 - 1])
@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5],
                         ids=["1", "block-1", "block", "block+1", "3block+5"])
def test_draws_equal_a_python_int_splitmix64(n, seed):
    words = splitmix64_words(n, seed)
    for lo, hi in [(0.0, 1.0), (-0.3, 2.7)]:
        want = np.array([lo + (hi - lo) * (k * 2.0**-53) for k in words])
        assert_same_bits(draws(lo, hi, n, seed), want)


@pytest.mark.parametrize("block", [1, 3, 1000, BLOCK])
def test_draw_blocks_joined_equal_a_python_int_splitmix64(block, monkeypatch):
    # two whole blocks and a short one: the counter runs on across blocks
    n = 2 * block + 5
    monkeypatch.setattr(sampling, "_DRAW_BLOCK", block)
    blocks = [b.copy() for b in _uniform(-0.3, 2.7, n, 2**64 + 1)]
    assert {b.size for b in blocks[:-1]} == {block} and 0 < blocks[-1].size <= block
    want = np.array([-0.3 + 3.0 * (k * 2.0**-53) for k in splitmix64_words(n, 2**64 + 1)])
    assert_same_bits(np.concatenate(blocks), want)


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-0.1, 0.3), (1.0, 1.0 + 2**-40),
                                    (-1e300, 1e300), (5.0, 5.5)])
def test_every_draw_lies_in_the_domain(lo, hi):
    xs = draws(lo, hi, 3 * BLOCK + 5, SEED)
    assert lo <= xs.min() and xs.max() <= hi


def chi_square_z(cells, n_cells):
    """(chi-square - df) / sqrt(2 df) of cell counts against a flat law."""
    expected = cells.size / n_cells
    stat = ((np.bincount(cells, minlength=n_cells) - expected) ** 2 / expected).sum()
    return (stat - (n_cells - 1)) / math.sqrt(2 * (n_cells - 1))


def test_draws_and_successive_pairs_are_flat_by_chi_square():
    # two-sided: a lattice-like stream is too flat, a biased one too rough;
    # a sound stream leaves the 5 sigma band for under one seed in 10**6
    xs = draws(0.0, 1.0, 1_000_000, SEED)
    assert abs(chi_square_z((xs * 1024).astype(np.intp), 1024)) < 5
    pairs = (xs[0::2] * 32).astype(np.intp) * 32 + (xs[1::2] * 32).astype(np.intp)
    assert abs(chi_square_z(pairs, 1024)) < 5


@pytest.mark.parametrize("block", [1 << 10, 1 << 14, BLOCK])
def test_the_draws_hold_block_sized_buffers_beside_their_output(block):
    # the output block and three block-sized uint64 buffers (counters,
    # words, scratch), and the ufunc's cast buffer of at most 8192 values:
    # nothing grows with the number of draws
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampling, "_DRAW_BLOCK", block)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            n = sum(xs.size for xs in _uniform(0.0, 1.0, 1_000_000, SEED))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert n == 1_000_000
    assert peak <= 4 * 8 * block + 8 * 8192 + 16384


def test_compare_histogram_tent():
    m = young_measure(tent_map())
    h = pushforward_empirical(tent_map(), N, SEED, 16)
    disc = compare_histogram(m, h)
    assert disc <= 3 * stderr(0.0625, N)


def test_compare_histogram_arcsine():
    f = sine_wave(1)
    rep = oracle_report(young_measure(f), pushforward_empirical(f, N, SEED, 16))
    assert rep.within_threshold


def test_compare_histogram_flags_missing_atom():
    # model without the plateau atom must disagree by the full atom mass
    m = young_measure(tent_map())
    h = pushforward_empirical(half_plateau(), N, SEED, 16)
    rep = oracle_report(m, h)
    assert not rep.within_threshold
    assert rep.discrepancy >= 0.49


def test_oracle_report_atom_matching():
    f = half_plateau()
    rep = oracle_report(young_measure(f), pushforward_empirical(f, N, SEED, 16))
    assert rep.within_threshold
    assert len(rep.atoms) == 1
    atom = rep.atoms[0]
    assert atom.model_weight == pytest.approx(0.5)
    assert abs(atom.empirical_mass - 0.5) <= atom.threshold


def test_oracle_report_pairs_atoms_at_exactly_their_location():
    # an atom is one value: an empirical atom 1e-13 off a model atom is an
    # atom the model lacks, a model atom no draw took keeps its row, and
    # the atoms at 0.0 and -0.0 are one
    m = ScalarMeasureRCA((0.0, 1.0), atoms=(
        Atom(-0.0, 0.25), Atom(0.5, 0.5), Atom(0.75, 1e-4)))
    h = Histogram((0.0, 1.0), np.linspace(0.0, 1.0, 9), np.zeros(8),
                  (PointMass(0.0, 0.25), PointMass(0.5 + 1e-13, 0.5)), 1000, 0)
    rep = oracle_report(m, h)
    assert [(a.location, a.model_weight, a.empirical_mass) for a in rep.atoms] == [
        (0.0, 0.25, 0.25), (0.5 + 1e-13, 0.0, 0.5), (0.5, 0.5, 0.0), (0.75, 1e-4, 0.0)]
    fails = [abs(a.model_weight - a.empirical_mass) > a.threshold for a in rep.atoms]
    assert fails == [False, True, True, False]
    assert rep.atoms[1].threshold == 0.0
    assert not rep.within_threshold


@pytest.mark.parametrize("seed", [32, 77, 147])
def test_a_light_atom_counts_every_draw(seed):
    # expected count 10 of 100k draws: seeds where 1 to 4 draws fall on the
    # plateau, fewer than the 5 equal values that once made a run an atom;
    # its mass is its exact count, where mass 0 would be 10 draws off,
    # outside 3 sigma (9.5 draws)
    n, w = 100_000, 1e-4
    f = MOscillatingFunction(domain=Domain1D(0.0, 1.0), pieces=(
        affine_piece(0.0, 1.0 - w, 1.0, 0.0), constant_piece(1.0 - w, 1.0, 0.5)))
    drawn = np.count_nonzero(draws(0.0, 1.0, n, seed) > 1.0 - w)
    assert 0 < drawn < 5
    rep = oracle_report(young_measure(f), pushforward_empirical(f, n, seed, 16))
    [atom] = rep.atoms
    assert (atom.location, atom.empirical_mass) == (0.5, drawn / n)
    assert rep.within_threshold


def test_a_draw_in_a_constant_piece_counts_for_its_atom():
    # every value of the affine piece rounds to exactly 0.5, the plateau's
    # value: the atom is the constant piece's share of the draws, as the
    # model's weight 0.5 predicts, and the affine piece's draws go to the
    # bin that holds 0.5
    n, seed = 100_000, 3
    f = MOscillatingFunction.from_table(Domain1D(0.0, 1.0), table_of_rows(
        [(0.0, 0.5, "affine", (1e-17, 0.5)), (0.5, 1.0, "constant", 0.5)]))
    assert (evaluate_many(f, np.linspace(0.0, 0.5, 101)) == 0.5).all()
    on_plateau = np.count_nonzero(draws(0.0, 1.0, n, seed) > 0.5)
    h = pushforward_empirical(f, n, seed, 16)
    assert h.point_masses == (PointMass(0.5, on_plateau / n),)
    bins = np.zeros(16)
    bins[np.searchsorted(h.edges, 0.5, side="right") - 1] = (n - on_plateau) / n
    assert_same_bits(h.masses, bins)


def unique_histogram(f, n_samples, seed, n_bins):
    """The `np.unique` pipeline `pushforward_empirical` replaced, kept as its
    reference, over all the draws at once: atoms from `np.unique` counts of
    the constant pieces' values, the rest of the values binned by
    `np.histogram`, strays added to the end bins."""
    xs = draws(f.domain.lower, f.domain.upper, n_samples, seed)
    xs.sort()
    values = evaluate_many(f, xs)
    uniq, counts = np.unique(values, return_counts=True)
    atom_idx = np.isin(uniq, f.piece_table.value)
    point_masses = [PointMass(float(loc), cnt / n_samples)
                    for loc, cnt in zip(uniq[atom_idx], counts[atom_idx])]
    rest = values[~np.isin(values, uniq[atom_idx])]
    counts_b, edges = np.histogram(rest, bins=n_bins, range=f.range_K)
    counts_b[0] += np.count_nonzero(rest < f.range_K[0])
    counts_b[-1] += np.count_nonzero(rest > f.range_K[1])
    return edges, counts_b / n_samples, tuple(point_masses)


def assert_matches_unique_histogram(f, n_samples, seed, n_bins):
    h = pushforward_empirical(f, n_samples, seed, n_bins)
    edges, masses, point_masses = unique_histogram(f, n_samples, seed, n_bins)
    assert_same_bits(h.edges, edges)
    assert_same_bits(h.masses, masses)
    assert_same_bits(np.array(h.point_masses, dtype=float).reshape(-1, 2),
                     np.array(point_masses, dtype=float).reshape(-1, 2))
    return h


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(spec=mixed_specs(),
       n_samples=st.integers(1000, 20_000),
       seed=st.integers(0, 2**32 - 1),
       n_bins=st.integers(8, 40))
def test_sorted_pass_equals_unique_histogram(spec, n_samples, seed, n_bins):
    assert_matches_unique_histogram(build_function(spec), n_samples, seed, n_bins)


def ramp_with(*constants, range_K=None):
    """2x on (0, 0.5), then each constant on an equal share of (0.5, 1)."""
    cuts = np.linspace(0.5, 1.0, len(constants) + 1)
    pieces = [affine_piece(0.0, 0.5, 2.0, 0.0)]
    pieces += [constant_piece(a, b, c) for a, b, c in zip(cuts[:-1], cuts[1:], constants)]
    return MOscillatingFunction(domain=Domain1D(0.0, 1.0), pieces=tuple(pieces),
                                range_K=range_K)


@pytest.mark.parametrize("f", [
    # atoms at both ends of the range and on the inner edge 0.5
    ramp_with(0.0, 0.5, 1.0),
    # one value only: the range widens to +-0.5 around it
    MOscillatingFunction(domain=Domain1D(0.0, 1.0),
                         pieces=(constant_piece(0.0, 1.0, 0.3),)),
    # a range narrower than the images: the ramp and the atom at 0.9 stray
    ramp_with(0.9, 0.4, range_K=(0.25, 0.75)),
    # a plateau that 1 draw takes
    MOscillatingFunction(domain=Domain1D(0.0, 1.0), pieces=(
        affine_piece(0.0, 1.0 - 5e-5, 1.0, 0.0), constant_piece(1.0 - 5e-5, 1.0, 0.5))),
    # a falling run, counted reversed, with an atom on the inner edge 0.5
    MOscillatingFunction(domain=Domain1D(0.0, 1.0), pieces=(
        affine_piece(0.0, 0.5, -2.0, 1.0), constant_piece(0.5, 1.0, 0.5))),
    # sin over 3/4 of a period rises, then falls: a run counted from a sorted copy
    MOscillatingFunction(domain=Domain1D(0.0, 1.0), pieces=(
        sine_piece(0.0, 0.75), constant_piece(0.75, 1.0, 0.25))),
], ids=["end_and_edge_atoms", "one_value", "narrow_range", "light_atom", "falling_edge_atom",
        "not_monotone"])
def test_edge_cases_equal_unique_histogram(f):
    h = assert_matches_unique_histogram(f, 20_000, SEED, 16)
    assert h.point_masses


@pytest.mark.parametrize("block", [1, 7, 1000, BLOCK])
def test_blocked_pass_equals_unique_histogram_at_any_stream_block(block, monkeypatch):
    # the plateau at 0.4 takes a quarter of the draws, so it is hit in many
    # blocks; the ramp and the atom at 0.9 stray outside range_K
    f = ramp_with(0.9, 0.4, range_K=(0.25, 0.75))
    monkeypatch.setattr(sampling, "_DRAW_BLOCK", block)
    h = assert_matches_unique_histogram(f, 3001, SEED, 16)
    assert [p.location for p in h.point_masses] == [0.4, 0.9]


def power_then_ramp(exponent):
    return build_function({"domain": [0.0, 1.5], "pieces": [
        {"interval": [0.0, 1.0], "kind": "power", "params": {"exponent": exponent}},
        {"interval": [1.0, 1.5], "kind": "affine",
         "params": {"slope": -1.2, "intercept": 2.2}}]})


def expr_spec():
    path = Path(__file__).resolve().parent / "data" / "expr.json"
    return build_function(json.loads(path.read_text()))


@pytest.mark.parametrize("f", [tent_map, lambda: sine_wave(3), lambda: power_then_ramp(0.5),
                               lambda: power_then_ramp(2.5), half_plateau, expr_spec],
                         ids=["affine", "sine", "power_below_1", "power_above_1", "atom",
                              "expr"])
def test_pushforward_holds_no_sample_sized_array(f):
    # 1M float64 values would take 7.63 MiB; the draws stream through in
    # blocks of 64K (four 512 KiB buffers), evaluated over themselves, each
    # forward call's temporaries hold at most 16K values, and a run's
    # fallback sort copies at most one block
    f = f()
    pushforward_empirical(f, 1000, SEED, 16)  # build the piece table first
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        pushforward_empirical(f, 1_000_000, SEED, 16)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


@st.composite
def affine_and_sine_specs(draw):
    """Function specs of 1-6 affine or sine pieces on consecutive intervals
    of [0, 5.5]; a sine piece covers at most 95% of one monotone half-period,
    kept 1% of it clear of each extremum."""
    n = draw(st.integers(1, 6))
    cuts = [draw(st.floats(0.0, 1.0))]
    for _ in range(n):
        cuts.append(cuts[-1] + draw(st.floats(0.05, 0.75)))
    pieces = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        if draw(st.booleans()):
            slope = draw(st.one_of(st.floats(0.2, 5.0), st.floats(-5.0, -0.2)))
            pieces.append({"interval": [a, b], "kind": "affine",
                           "params": {"slope": slope, "intercept": draw(st.floats(-3.0, 3.0))}})
            continue
        w = draw(st.floats(0.05, 0.95)) * math.pi / (b - a)
        start = -0.49 * math.pi + draw(st.floats(0.0, 1.0)) * (0.98 * math.pi - w * (b - a))
        phase = start - w * a + math.pi * draw(st.integers(0, 1))
        pieces.append({"interval": [a, b], "kind": "sin",
                       "params": {"amplitude": draw(st.floats(0.5, 2.0)),
                                  "frequency": w, "phase": phase}})
    return {"domain": [cuts[0], cuts[-1]], "pieces": pieces}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(spec=affine_and_sine_specs())
def test_oracle_agrees_with_the_young_measure_at_5_sigma(spec):
    # each of 16 bins misses a 3-sigma threshold by chance about 0.27% of the
    # time, a 16-bin histogram about 4% of the time, so over dozens of
    # specs a 3-sigma assertion would fail by design; 5 sigma would not
    f = build_function(spec)
    h = pushforward_empirical(f, N, SEED)
    assert h.total_mass == pytest.approx(1.0, abs=1e-12)
    rep = oracle_report(young_measure(f), h, n_sigma=5.0)
    assert rep.within_threshold, rep
