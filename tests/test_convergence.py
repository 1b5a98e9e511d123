import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oscym import (
    BorelTestFamily,
    DensitySequence,
    NonhomogeneousDensityFamily,
    converge_young,
    convergence,
    dieudonne_check,
    dieudonne_check_measures,
    homogeneity_check,
    is_probability,
    monotone_slope_check,
    weak_continuity_check,
    weak_limit_estimate,
)
from oscym.domain import Domain1D, MOscillatingFunction, affine_table, image_slack
from oscym.errors import PreconditionError
from oscym.families import (
    affine_piece,
    amplitude_tent,
    roubicek,
    sine_wave,
    tent_map,
    triangular_quantile,
)
from oscym.measures import ScalarMeasureRCA, young_density, young_density_function

from conftest import flat_density, ramp_density

# the arcsine law 1/(pi sqrt(1 - y^2)) on [-1, 1]
ARCSINE = young_density_function(sine_wave(1))


def alternating_sequence(max_index=64) -> DensitySequence:
    def gen(n):
        return ramp_density(1.0) if n % 2 else ramp_density(2.0)

    return DensitySequence(generator=gen, range_K=(0.0, 2.0), max_index=max_index)


def amplitude_tent_density_sequence(max_index=64) -> DensitySequence:
    # closed form: density 1/A_n on [0, A_n] with A_n = 1 + 1/n
    def gen(n):
        return ramp_density(1.0 + 1.0 / n)

    return DensitySequence(generator=gen, range_K=(0.0, 2.0), max_index=max_index)


def triple_tent(amplitude: float) -> MOscillatingFunction:
    pieces = []
    for j in range(3):
        lo = j / 3.0
        mid = lo + 1.0 / 6.0
        hi = (j + 1) / 3.0
        s = 6.0 * amplitude
        pieces.append(affine_piece(lo, mid, s, -s * lo))
        pieces.append(affine_piece(mid, hi, -s, s * hi))
    return MOscillatingFunction(domain=Domain1D(0.0, 1.0), pieces=tuple(pieces))


def test_borel_family_counts():
    fam = BorelTestFamily((0.0, 1.0), 3)
    assert len(fam) == 15
    sets = fam.sets
    assert len(sets) == 15
    level2 = [s for s in sets if s.level == 2]
    assert [s.lo for s in level2] == pytest.approx([0.0, 0.25, 0.5, 0.75])


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(lo=st.floats(-1e3, 1e3), hi=st.floats(-1e3, 1e3), depth=st.integers(0, 8))
@example(lo=-2.054223192281552, hi=2.9983681174953696, depth=0)
def test_dyadic_sets_are_bounded_by_the_leaf_edges_their_masses_are_measured_on(lo, hi, depth):
    # a set's mass is a sum of leaf masses, so its printed bounds must be
    # the leaf edges those masses were measured between, bitwise
    assume(lo < hi)
    fam = BorelTestFamily((lo, hi), depth)
    measured = []

    def set_masses(edges):
        measured.append(np.asarray(edges))
        return np.full(len(edges) - 1, 1.0 / (len(edges) - 1))

    verdict = dieudonne_check_measures(lambda n: SimpleNamespace(set_masses=set_masses),
                                       fam, 1, 2)
    edges = measured[0].tolist()
    assert len(edges) == 2 ** depth + 1 and (edges[0], edges[-1]) == (lo, hi)
    for sets in (fam.sets, verdict.per_set):
        assert len(sets) == len(fam)
        for s in sets:
            step = 2 ** (depth - s.level)
            assert (s.lo, s.hi) == (edges[s.index * step], edges[(s.index + 1) * step]), s


def test_dieudonne_constant_sequence():
    seq = DensitySequence(generator=lambda n: ARCSINE, range_K=(-1.0, 1.0),
                          max_index=64)
    fam = BorelTestFamily((-1.0, 1.0), 4)
    verdict = dieudonne_check(seq, fam, 8, 32, tol=1e-2)
    assert verdict.converged
    assert verdict.worst_residual <= 1e-8


def test_dieudonne_amplitude_tent_converges():
    seq = amplitude_tent_density_sequence()
    fam = BorelTestFamily((0.0, 2.0), 6)
    verdict = dieudonne_check(seq, fam, 8, 64, tol=1e-2)
    assert verdict.converged
    rec = next(r for r in verdict.per_set if r.level == 1 and r.index == 0)
    # closed form: the limit estimate on [0, 1] is n_max/(n_max + 1)
    assert rec.limit == pytest.approx(64.0 / 65.0, abs=1e-9)


def test_dieudonne_alternating_fails():
    seq = alternating_sequence()
    fam = BorelTestFamily((0.0, 2.0), 6)
    verdict = dieudonne_check(seq, fam, 8, 64, tol=1e-2)
    assert not verdict.converged
    rec = next(r for r in verdict.per_set if r.level == 1 and r.index == 0)
    assert rec.residual == pytest.approx(0.5, abs=1e-9)


def test_dieudonne_window_validation():
    seq = alternating_sequence(max_index=10)
    fam = BorelTestFamily((0.0, 2.0), 2)
    with pytest.raises(PreconditionError):
        dieudonne_check(seq, fam, 8, 64)


def test_dieudonne_raises_on_a_set_mass_that_is_not_finite():
    # the density NaN at the last index: the first leaf is named, and no
    # verdict is made
    seq = DensitySequence(generator=lambda n: flat_density(math.nan if n == 16 else 1.0),
                          range_K=(0.0, 1.0), max_index=16)
    with pytest.raises(FloatingPointError, match=r"mass nan of the dyadic set \[0\.0, 0\.25\]"):
        dieudonne_check(seq, BorelTestFamily((0.0, 1.0), 2), 8, 16)


def test_verdict_monotone_in_depth():
    # finer dyadic sets only add constraints: a failing verdict stays failing
    seq = alternating_sequence()
    for depth in (1, 3, 5):
        fam = BorelTestFamily((0.0, 2.0), depth)
        assert not dieudonne_check(seq, fam, 8, 64, tol=1e-2).converged


def test_weak_limit_estimate_requires_passing_verdict():
    seq = alternating_sequence()
    fam = BorelTestFamily((0.0, 2.0), 4)
    verdict = dieudonne_check(seq, fam, 8, 64, tol=1e-2)
    with pytest.raises(PreconditionError):
        weak_limit_estimate(seq, 64, verdict)


def test_weak_limit_estimate_returns_tail_element():
    seq = amplitude_tent_density_sequence()
    fam = BorelTestFamily((0.0, 2.0), 6)
    verdict = dieudonne_check(seq, fam, 8, 64, tol=1e-2)
    limit = weak_limit_estimate(seq, 64, verdict)
    assert limit(0.5) == pytest.approx(64.0 / 65.0)
    for y in np.linspace(0.01, 0.99, 17):
        assert abs(limit(float(y)) - 1.0) <= 0.02


def test_monotone_slope_check_amplitude_tent():
    fs = [amplitude_tent(n) for n in range(1, 17)]
    y_grid = np.linspace(0.05, 0.95, 19)
    assert monotone_slope_check(fs, y_grid, tol=1e-9)


def test_monotone_slope_check_roubicek_constant():
    fs = [roubicek(n) for n in range(1, 6)]
    y_grid = np.linspace(0.05, 0.95, 19)
    assert monotone_slope_check(fs, y_grid, tol=1e-9)


def test_monotone_slope_check_alternating_fails():
    fs = [tent_map(1.0), triple_tent(2.0), tent_map(1.0), triple_tent(2.0)]
    assert not monotone_slope_check(fs, [0.5], tol=1e-9)


def test_monotone_slope_check_direction_over_all_points():
    # y = -0.5 lies outside every image: its slopes are all 0, a flat trend
    # that must not fix the direction for the points that do rise
    y_grid = [-0.5, 0.25, 0.5]
    rising = [tent_map(a) for a in (1.0, 1.5, 2.0)]
    assert monotone_slope_check(rising, y_grid, tol=1e-9)
    mixed = [tent_map(a) for a in (1.0, 1.5, 1.2)]
    assert not monotone_slope_check(mixed, y_grid, tol=1e-9)


def scaled_in_x(f: MOscillatingFunction, k: int) -> MOscillatingFunction:
    """x -> f(x / 2^k) on the domain scaled by 2^k, for an affine f: powers
    of two scale exactly, so its densities are bitwise those of f."""
    t, d, a = f.piece_table, f.domain, 2.0 ** k
    (affine,) = t.kinds
    slope, intercept = affine.cols
    return MOscillatingFunction.from_table(
        Domain1D(d.lower * a, d.upper * a),
        affine_table(t.sub_lower * a, t.sub_upper * a, slope / a, intercept))


@pytest.mark.parametrize("k", [-40, -20, 20, 40])
@pytest.mark.parametrize("fs, monotone", [
    ([amplitude_tent(n) for n in range(1, 9)], True),
    ([tent_map(1.0), triple_tent(2.0), tent_map(1.0), triple_tent(2.0)], False),
], ids=["amplitude-tent", "alternating"])
def test_monotone_slope_check_is_unchanged_by_scaling_x(fs, monotone, k):
    y_grid = np.linspace(0.05, 0.95, 19)
    scaled = [scaled_in_x(f, k) for f in fs]
    for f, g in zip(fs, scaled):
        assert (young_density(g, y_grid) == young_density(f, y_grid)).all()
    assert monotone_slope_check(fs, y_grid) is monotone
    assert monotone_slope_check(scaled, y_grid) is monotone


def test_converge_young_amplitude_tent():
    fs = [amplitude_tent(n) for n in range(1, 65)]
    fam = BorelTestFamily((0.0, 2.0), 6)
    verdict, limit = converge_young(fs, fam, tol=1e-2, n_min=8, n_max=64)
    assert verdict.converged
    assert limit is not None
    assert is_probability(limit, prob_tol=1e-4)
    for y in np.linspace(0.05, 0.95, 10):
        assert abs(limit.density(float(y)) - 1.0) <= 0.02


def test_converge_young_sine_family_constant():
    fs = [sine_wave(n) for n in range(1, 13)]
    fam = BorelTestFamily((-1.0, 1.0), 4)
    verdict, limit = converge_young(fs, fam, tol=1e-2, n_min=4, n_max=12)
    assert verdict.converged
    assert verdict.worst_residual <= 1e-7
    assert limit.density(0.5) == pytest.approx(
        1.0 / (math.pi * math.sqrt(0.75)), rel=1e-9
    )


def test_converge_young_roubicek_uniform_limit():
    fs = [roubicek(n) for n in range(1, 13)]
    fam = BorelTestFamily((0.0, 1.0), 4)
    verdict, limit = converge_young(fs, fam, tol=1e-2, n_min=4, n_max=12)
    assert verdict.converged
    assert limit.density(0.37) == pytest.approx(1.0, abs=1e-9)


def test_converge_young_rejects_nonmonotone():
    fs = [tent_map(1.0), triple_tent(2.0), tent_map(1.0), triple_tent(2.0),
          tent_map(1.0), triple_tent(2.0)]
    fam = BorelTestFamily((0.0, 2.0), 3)
    with pytest.raises(PreconditionError):
        converge_young(fs, fam, tol=1e-2, n_min=2, n_max=6)


def test_converge_young_window_past_the_functions_is_precondition_error():
    # the default window (8, 64) needs 64 functions; 16 must not be read as
    # the window (8, 16)
    fs = [amplitude_tent(n) for n in range(1, 17)]
    with pytest.raises(PreconditionError):
        converge_young(fs, BorelTestFamily((0.0, 2.0), 3))


@st.composite
def affine_sequences(draw):
    """Two to five affine functions whose image ends repeat: each piece on
    [j, j + 1] runs between two ends drawn from -3..3, and a zero
    intercept has either sign, so a falling piece can start at -0.0.  One
    function, at a drawn place, has both zeros as ends: -x - 0.0 is -0.0
    at 0, and x - 1 is 0.0 at 1."""
    fs = []
    for _ in range(draw(st.integers(1, 4))):
        rows = []
        for j in range(draw(st.integers(1, 4))):
            y0, y1 = draw(st.lists(st.integers(-3, 3), min_size=2, max_size=2, unique=True))
            slope = float(y1 - y0)
            intercept = y0 - slope * j
            if intercept == 0 and draw(st.booleans()):
                intercept = -0.0
            rows.append((float(j), j + 1.0, slope, intercept))
        fs.append(MOscillatingFunction.from_table(Domain1D(0.0, float(len(rows))),
                                                  affine_table(*zip(*rows))))
    both_zeros = MOscillatingFunction.from_table(
        Domain1D(0.0, 2.0), affine_table([0.0, 1.0], [1.0, 2.0], [-1.0, 1.0], [-0.0, -1.0]))
    fs.insert(draw(st.integers(0, len(fs))), both_zeros)
    return fs


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(fs=affine_sequences())
def test_converge_young_checks_slopes_inside_each_cell_between_distinct_ends(fs):
    # equal ends, 0.0 and -0.0 among them, bound no cell of their own: the
    # points are the even grid and the midpoints of np.unique's cells
    seen = []

    def recorder(fs, y_grid, tol=1e-9):
        seen.append(np.array(y_grid))
        return real(fs, y_grid, tol)

    real = convergence.monotone_slope_check
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(convergence, "monotone_slope_check", recorder)
        try:
            converge_young(fs, BorelTestFamily((-3.0, 3.0), 1), n_min=1, n_max=len(fs))
        except PreconditionError:
            pass
    lo = max(f.range_K[0] for f in fs)
    hi = min(f.range_K[1] for f in fs)
    ends = np.concatenate([[lo, hi], *(e for f in fs
                                       for e in (f.piece_table.lo, f.piece_table.hi))])
    ends = np.unique(np.clip(ends, lo, hi))
    slack = image_slack(*(v for f in fs for v in f.range_K))
    mids = ((ends[:-1] + ends[1:]) / 2)[np.diff(ends) > 2 * slack]
    grid = np.linspace(lo, hi, convergence.SLOPE_GRID_POINTS + 2)[1:-1]
    assert len(seen) == 1
    assert seen[0].tobytes() == np.r_[grid, mids].tobytes()


def test_monotone_bound_property():
    # nondecreasing slopes: set masses inside the limit support never decrease
    fs = [amplitude_tent(n) for n in range(1, 17)]
    seq = DensitySequence(lambda n: young_density_function(fs[n - 1]), (0.0, 2.0), len(fs))
    fam = BorelTestFamily((0.0, 2.0), 3)
    from oscym.convergence import _leaf_masses

    leaves = [_leaf_masses(seq.generator(n).masses, fam)
              for n in (2, 4, 8, 16)]
    # leaves 0..3 cover [0, 1], which lies inside every support in the family
    for earlier, later in zip(leaves[:-1], leaves[1:]):
        assert (earlier[:4] <= later[:4] + 1e-9).all()


def test_density_measure_verdict_equivalence():
    fs = [amplitude_tent(n) for n in range(1, 33)]
    seq = DensitySequence(lambda n: young_density_function(fs[n - 1]), (0.0, 2.0), len(fs))
    fam = BorelTestFamily((0.0, 2.0), 4)
    v_density = dieudonne_check(seq, fam, 8, 32, tol=1e-2)
    v_measure = dieudonne_check_measures(
        lambda n: ScalarMeasureRCA(range_K=(0.0, 2.0), density=seq.generator(n)),
        fam, 8, 32, tol=1e-2)
    assert v_density.converged == v_measure.converged
    for a, b in zip(v_density.per_set, v_measure.per_set):
        assert abs(a.residual - b.residual) <= 1e-8
        assert abs(a.limit - b.limit) <= 1e-8


def triangular_family() -> NonhomogeneousDensityFamily:
    return NonhomogeneousDensityFamily(
        domain=Domain1D(0.0, 1.0),
        evaluator=lambda x: young_density_function(triangular_quantile(x)),
        range_K=(0.0, 2.0),
    )


def test_triangular_family_normalized():
    fam = triangular_family()
    from oscym import integrate_density

    for x in np.linspace(0.1, 0.9, 9):
        g = fam.evaluator(float(x))
        assert integrate_density(g, (0.0, 2.0)) == pytest.approx(1.0, abs=1e-10)


def test_weak_continuity_triangular():
    fam = triangular_family()
    test_sets = BorelTestFamily((0.0, 2.0), 6)
    xs = [0.5 + 1.0 / n for n in range(3, 257)]
    verdict = weak_continuity_check(fam, xs, 0.5, test_sets, tol=1e-2)
    assert verdict.converged
    # the half-line integral of the target density: int_0^0.5 2y/0.5 dy = 0.5
    rec = next(r for r in verdict.per_set if r.level == 2 and r.index == 0)
    assert rec.limit == pytest.approx(0.5, abs=1e-9)


def test_weak_continuity_constant_family():
    u = ramp_density(2.0)
    fam = NonhomogeneousDensityFamily(
        domain=Domain1D(0.0, 1.0), evaluator=lambda x: u, range_K=(0.0, 2.0))
    test_sets = BorelTestFamily((0.0, 2.0), 4)
    verdict = weak_continuity_check(fam, [0.4, 0.45, 0.49], 0.5, test_sets, tol=1e-6)
    assert verdict.converged
    assert verdict.worst_residual <= 1e-10


def test_weak_continuity_discontinuous_family_fails():
    # uniform on [0, 1] below x = 1/2, uniform on [0, 2] from x = 1/2 on
    def ev(x):
        return ramp_density(1.0 if x < 0.5 else 2.0)

    fam = NonhomogeneousDensityFamily(
        domain=Domain1D(0.0, 1.0), evaluator=ev, range_K=(0.0, 2.0))
    test_sets = BorelTestFamily((0.0, 2.0), 3)
    xs = [0.5 - 1.0 / n for n in range(4, 64)]
    verdict = weak_continuity_check(fam, xs, 0.5, test_sets, tol=1e-3)
    assert not verdict.converged
    rec = next(r for r in verdict.per_set if r.level == 1 and r.index == 0)
    assert rec.residual >= 0.49


def test_homogeneity_constant_family_true():
    fam = NonhomogeneousDensityFamily(
        domain=Domain1D(0.0, 1.0), evaluator=lambda x: ARCSINE,
        range_K=(-1.0, 1.0))
    assert homogeneity_check(fam, 4, 1e-6)


def test_homogeneity_triangular_false():
    assert not homogeneity_check(triangular_family(), 5, 1e-1)


def test_homogeneity_below_tolerance_perturbation():
    # density 1 + 1e-12 x on [0, 1 / (1 + 1e-12 x)]
    def ev(x):
        return ramp_density(1.0 / (1.0 + 1e-12 * x))

    fam = NonhomogeneousDensityFamily(
        domain=Domain1D(0.0, 1.0), evaluator=ev, range_K=(0.0, 1.0))
    assert homogeneity_check(fam, 4, 1e-6)


@pytest.mark.parametrize("n_min", [8, 9])
def test_dieudonne_measures_window_precondition(n_min):
    # an empty or one-point window is no window, with or without max_index
    seq = amplitude_tent_density_sequence()
    fam = BorelTestFamily((0.0, 2.0), 2)
    with pytest.raises(PreconditionError):
        dieudonne_check_measures(
            lambda n: ScalarMeasureRCA(range_K=(0.0, 2.0), density=seq.generator(n)),
            fam, n_min, 8)


def test_weak_continuity_needs_a_point():
    with pytest.raises(PreconditionError):
        weak_continuity_check(triangular_family(), [], 0.5, BorelTestFamily((0.0, 2.0), 2))
