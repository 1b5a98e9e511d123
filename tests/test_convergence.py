import math

import numpy as np
import pytest

from oscym import (
    BorelTestFamily,
    DensityFunction,
    DensitySequence,
    NonhomogeneousDensityFamily,
    converge_young,
    dieudonne_check,
    dieudonne_check_measures,
    homogeneity_check,
    is_probability,
    monotone_slope_check,
    weak_continuity_check,
    weak_limit_estimate,
)
from oscym.domain import Domain1D, MOscillatingFunction
from oscym.errors import PreconditionError
from oscym.families import (
    affine_piece,
    amplitude_tent,
    roubicek,
    sine_wave,
    tent_map,
    triangular_density,
)
from oscym.measures import ScalarMeasureRCA, young_density_function

ARCSINE = DensityFunction(
    support=(-1.0, 1.0),
    evaluator=lambda y: 1.0 / (math.pi * math.sqrt(1.0 - y * y)) if abs(y) < 1 else math.inf,
    singular_points=(-1.0, 1.0),
)


def uniform_density(hi: float) -> DensityFunction:
    return DensityFunction(support=(0.0, hi), evaluator=lambda y, _h=hi: 1.0 / _h)


def alternating_sequence(max_index=64) -> DensitySequence:
    def gen(n):
        return uniform_density(1.0) if n % 2 else uniform_density(2.0)

    return DensitySequence(generator=gen, range_K=(0.0, 2.0), max_index=max_index)


def amplitude_tent_density_sequence(max_index=64) -> DensitySequence:
    # closed form: density 1/A_n on [0, A_n] with A_n = 1 + 1/n
    def gen(n):
        return uniform_density(1.0 + 1.0 / n)

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
        evaluator=lambda x: DensityFunction(
            support=(0.0, 2.0),
            evaluator=triangular_density(x),
            breakpoints=(x, 1.0),
        ),
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
    u = uniform_density(2.0)
    fam = NonhomogeneousDensityFamily(
        domain=Domain1D(0.0, 1.0), evaluator=lambda x: u, range_K=(0.0, 2.0))
    test_sets = BorelTestFamily((0.0, 2.0), 4)
    verdict = weak_continuity_check(fam, [0.4, 0.45, 0.49], 0.5, test_sets, tol=1e-6)
    assert verdict.converged
    assert verdict.worst_residual <= 1e-10


def test_weak_continuity_discontinuous_family_fails():
    # uniform below 1/2, a rescaled arcsine-like ramp at and above 1/2
    def ev(x):
        if x < 0.5:
            return uniform_density(1.0)
        return DensityFunction(support=(0.0, 2.0), evaluator=lambda y: 0.5)

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
    def ev(x):
        return DensityFunction(
            support=(0.0, 1.0),
            evaluator=lambda y, _x=x: 1.0 + 1e-12 * _x,
        )

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
