import math
from dataclasses import replace

import numpy as np
import pytest

from oscym import (
    DensityFunction,
    integrate_density,
    integrate_test,
    is_probability,
    total_slope,
    tv_norm,
    young_density,
    young_measure,
)
from oscym.errors import ConstructionError, QuadratureError
from oscym.families import (
    amplitude_tent,
    constant_map,
    half_plateau,
    identity_map,
    rising_sawtooth,
    roubicek,
    sine_wave,
    tent_map,
)
from oscym.measures import Atom, ScalarMeasureRCA


def arcsine(y: float) -> float:
    return 1.0 / (math.pi * math.sqrt(1.0 - y * y))


ARCSINE_DENSITY = DensityFunction(
    support=(-1.0, 1.0),
    evaluator=lambda y: arcsine(y) if abs(y) < 1 else math.inf,
    singular_points=(-1.0, 1.0),
)
ARCSINE_MEASURE = ScalarMeasureRCA(range_K=(-1.0, 1.0), density=ARCSINE_DENSITY)


def test_young_density_sine_matches_arcsine_law():
    f = sine_wave(1)
    # avoid y = 0 exactly: it lies on all piece-image boundaries (null set)
    for y in np.linspace(-0.97, 0.97, 40):
        assert young_density(f, float(y)) == pytest.approx(arcsine(y), rel=1e-12)


def test_young_density_counts_a_boundary_value_once():
    # images are half-open, [lo, hi): y = 0 ends the image of the last sine
    # branch and starts that of the first, so it counts once (arcsine 1/pi)
    assert young_density(sine_wave(1), 0.0) == pytest.approx(1.0 / math.pi, rel=1e-12)
    from oscym.domain import Domain1D, MOscillatingFunction
    from oscym.families import affine_piece

    split_identity = MOscillatingFunction(
        domain=Domain1D(0.0, 2.0),
        pieces=(affine_piece(0.0, 1.0, 1.0, 0.0), affine_piece(1.0, 2.0, 1.0, 0.0)),
    )
    assert young_density(split_identity, 1.0) == 0.5
    # the top of the range closes the images that reach it
    assert young_density(tent_map(), 1.0) == 1.0


def test_young_density_tent_is_uniform():
    assert young_density(tent_map(), 0.3) == pytest.approx(1.0)


def test_young_density_identity():
    assert young_density(identity_map(), 0.5) == pytest.approx(1.0)


def test_young_density_outside_images_is_zero():
    assert young_density(tent_map(), 1.5) == 0.0


def test_young_density_singular_is_inf():
    assert young_density(sine_wave(1), 1.0) == math.inf


def test_total_slope_roubicek_constant_one():
    f = roubicek(2)
    assert total_slope(f, 0.5) == pytest.approx(1.0, abs=1e-12)


def test_total_slope_sine():
    f = sine_wave(1)
    assert total_slope(f, 0.6) == pytest.approx(arcsine(0.6), rel=1e-12)


def test_total_slope_amplitude_two_tent():
    # slopes +-4, inverse slopes 1/4 each
    assert total_slope(tent_map(2.0), 1.0) == pytest.approx(0.5)


def test_scaling_identity_exact():
    from oscym.domain import Domain1D, MOscillatingFunction
    from oscym.families import affine_piece

    f = MOscillatingFunction(
        domain=Domain1D(0.0, 2.0),
        pieces=(affine_piece(0.0, 1.0, 1.0, 0.0), affine_piece(1.0, 2.0, -1.0, 2.0)),
    )
    for y in (0.1, 0.4, 0.9):
        assert total_slope(f, y) == f.measure_M * young_density(f, y)


def test_young_measure_plateau_example():
    m = young_measure(half_plateau())
    assert m.atoms == (Atom(0.5, 0.5),)
    assert m.density is not None
    assert m.density(0.3) == pytest.approx(0.5)
    assert integrate_density(m.density, (0.0, 1.0)) == pytest.approx(0.5, abs=1e-9)


def test_young_measure_identity():
    m = young_measure(identity_map())
    assert m.atoms == ()
    assert m.density(0.7) == pytest.approx(1.0)


def test_young_measure_constant_function_is_dirac():
    m = young_measure(constant_map(0.25))
    assert m.density is None
    assert m.atoms == (Atom(0.25, 1.0),)
    assert tv_norm(m) == pytest.approx(1.0)


def test_young_measure_evaluates_no_density_point(monkeypatch):
    from oscym import measures

    calls = []
    slope_sum = measures._slope_sum
    monkeypatch.setattr(measures, "_slope_sum",
                        lambda f, y: calls.append(y) or slope_sum(f, y))
    m = young_measure(sine_wave(2))
    assert calls == []
    assert m.set_mass(-1.0, 1.0, closed_right=True) == pytest.approx(1.0, abs=1e-12)


def test_young_measure_requires_valid_function():
    from oscym.domain import Domain1D, MOscillatingFunction
    from oscym.families import affine_piece

    bad = MOscillatingFunction(
        domain=Domain1D(0.0, 1.0),
        pieces=(affine_piece(0.0, 0.4, 1.0, 0.0),),
    )
    with pytest.raises(ConstructionError):
        young_measure(bad)


def test_integrate_arcsine_full():
    assert integrate_density(ARCSINE_DENSITY, (-1.0, 1.0)) == pytest.approx(
        1.0, abs=1e-8
    )


def test_integrate_uniform_half():
    g = DensityFunction(support=(0.0, 1.0), evaluator=lambda y: 1.0)
    assert integrate_density(g, (0.25, 0.75)) == pytest.approx(0.5, abs=1e-12)


def test_integrate_arcsine_partial():
    # closed-form antiderivative asin(y)/pi
    expected = math.asin(0.5) / math.pi
    assert integrate_density(ARCSINE_DENSITY, (0.0, 0.5)) == pytest.approx(
        expected, abs=1e-10
    )


def test_integrate_clips_to_support():
    g = DensityFunction(support=(0.0, 1.0), evaluator=lambda y: 1.0)
    assert integrate_density(g, (-5.0, 5.0)) == pytest.approx(1.0)


def test_integrate_test_two_atoms():
    m = ScalarMeasureRCA(range_K=(-1.0, 1.0),
                         atoms=(Atom(-1.0, 0.5), Atom(1.0, 0.5)))
    assert integrate_test(m, lambda s: (s * s - 1.0) ** 2) == 0.0


def test_integrate_test_arcsine_second_moment():
    # independent oracle: substitute y = sin(t); the second moment is 1/2
    assert integrate_test(ARCSINE_MEASURE, lambda s: s * s) == pytest.approx(
        0.5, abs=1e-8
    )


def test_integrate_test_uniform_mean():
    m = ScalarMeasureRCA(
        range_K=(0.0, 1.0),
        density=DensityFunction(support=(0.0, 1.0), evaluator=lambda y: 1.0),
    )
    assert integrate_test(m, lambda s: s) == pytest.approx(0.5, abs=1e-12)


def test_tv_norm_uniform():
    m = ScalarMeasureRCA(
        range_K=(0.0, 1.0),
        density=DensityFunction(support=(0.0, 1.0), evaluator=lambda y: 1.0),
    )
    assert tv_norm(m) == pytest.approx(1.0, abs=1e-12)


def test_tv_norm_plateau():
    assert tv_norm(young_measure(half_plateau())) == pytest.approx(1.0, abs=1e-9)


def test_tv_norm_mixed():
    m = ScalarMeasureRCA(
        range_K=(0.0, 1.0),
        density=DensityFunction(support=(0.0, 1.0), evaluator=lambda y: 0.5),
        atoms=(Atom(0.0, 0.25), Atom(1.0, 0.25)),
    )
    assert tv_norm(m) == pytest.approx(1.0, abs=1e-12)


def test_is_probability_arcsine():
    assert is_probability(ARCSINE_MEASURE, prob_tol=1e-6)


def test_is_probability_rejects_double_mass():
    m = ScalarMeasureRCA(
        range_K=(0.0, 1.0),
        density=DensityFunction(support=(0.0, 1.0), evaluator=lambda y: 2.0),
    )
    assert not is_probability(m)


def test_is_probability_dirac():
    m = ScalarMeasureRCA(range_K=(0.0, 1.0), atoms=(Atom(0.3, 1.0),))
    assert is_probability(m)


def test_is_probability_samples_a_young_density_in_one_call():
    m = young_measure(roubicek(3))
    calls = []

    def counted(y):
        calls.append(np.shape(y))
        return m.density.evaluator(y)

    assert is_probability(replace(m, density=replace(m.density, evaluator=counted)))
    assert calls == [(255,)]


def test_normalization_across_suite():
    for f in (identity_map(), tent_map(), sine_wave(1), half_plateau(),
              roubicek(3), amplitude_tent(5)):
        assert is_probability(young_measure(f), prob_tol=1e-6)


def test_affine_exactness():
    # densities built purely from affine pieces carry no quadrature error
    f = tent_map()
    assert young_density(f, 0.123456789) == 1.0
    assert total_slope(rising_sawtooth(2), 0.9) == 1.0


def test_equal_total_slopes_same_density():
    tent = tent_map()
    saw = rising_sawtooth(2)
    for y in np.linspace(0.01, 0.99, 33):
        assert abs(young_density(tent, float(y)) - young_density(saw, float(y))) <= 1e-9


def test_quadrature_error_raised_on_nonintegrable_density():
    g = DensityFunction(
        support=(0.0, 1.0),
        evaluator=lambda y: 1.0 / y if y > 0 else math.inf,
        singular_points=(0.0,),
    )
    with pytest.raises(QuadratureError):
        integrate_density(g, (0.0, 1.0))


def test_set_mass_of_an_empty_interval_is_zero():
    m = ScalarMeasureRCA(range_K=(0.0, 1.0), atoms=(Atom(0.5, 1.0),))
    assert m.set_mass(0.7, 0.5, closed_right=True) == 0.0
    assert m.set_mass(0.7, 0.5) == 0.0


@pytest.mark.parametrize("closed_right", [False, True])
@pytest.mark.parametrize("density", ["exact", "quadrature"])
def test_set_mass_adds_the_density_then_the_atoms(density, closed_right):
    # the density mass, then each atom in [lo, hi) (or [lo, hi]) in order
    g = (young_measure(half_plateau()).density if density == "exact"
         else ARCSINE_DENSITY)
    m = ScalarMeasureRCA((-1.0, 1.0), g,
                         atoms=(Atom(0.1, 0.3), Atom(0.25, 0.2), Atom(0.5, 0.5)))
    for lo, hi in [(0.1, 0.5), (0.0, 0.25), (0.25, 0.25), (0.3, 0.7), (0.5, 0.5)]:
        total = integrate_density(m.density, (lo, hi))
        for a in m.atoms:
            if lo <= a.location < hi or (closed_right and a.location == hi):
                total += a.weight
        assert m.set_mass(lo, hi, closed_right) == total
