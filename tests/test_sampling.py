import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscym import compare_histogram, oracle_report, pushforward_empirical, young_measure
from oscym.domain import Domain1D, MOscillatingFunction, evaluate_many
from oscym.errors import PreconditionError
from oscym.families import (affine_piece, constant_piece, half_plateau, identity_map,
                            sine_wave, tent_map)
from oscym.funcspec import build_function
from oscym.measures import MERGE_SNAP
from oscym.sampling import MIN_ATOM_COUNT, PointMass
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


def unique_histogram(f, n_samples, seed, n_bins):
    """The `np.unique` pipeline `pushforward_empirical` replaced, kept as its
    reference: atoms from `np.unique` counts merged at MERGE_SNAP, the rest
    of the values binned by `np.histogram`, strays added to the end bins."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    xs = rng.uniform(f.domain.lower, f.domain.upper, n_samples)
    xs.sort()
    values = evaluate_many(f, xs)
    uniq, counts = np.unique(values, return_counts=True)
    atom_idx = counts >= MIN_ATOM_COUNT
    point_masses = []
    for loc, cnt in zip(uniq[atom_idx], counts[atom_idx]):
        if point_masses and abs(loc - point_masses[-1].location) <= MERGE_SNAP:
            prev = point_masses[-1]
            point_masses[-1] = PointMass(prev.location, prev.mass + cnt / n_samples)
        else:
            point_masses.append(PointMass(float(loc), cnt / n_samples))
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
], ids=["end_and_edge_atoms", "one_value", "narrow_range"])
def test_edge_cases_equal_unique_histogram(f):
    h = assert_matches_unique_histogram(f, 20_000, SEED, 16)
    assert h.point_masses


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
def test_pushforward_holds_one_sample_array(f):
    # 1M float64 values take 7.63 MiB; evaluation writes them over the
    # sorted draws, so only block-sized temporaries and the atom scan's
    # three 1 MB boolean arrays come on top
    f = f()
    pushforward_empirical(f, 1000, SEED, 16)  # build the piece table first
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        pushforward_empirical(f, 1_000_000, SEED, 16)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20


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
