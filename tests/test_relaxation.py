import json
import math
from pathlib import Path

import numpy as np
import pytest

from oscym import quadrature, relaxation
from oscym import (
    bolza_functional,
    gradient_young_measure,
    integrate_test,
    relaxed_value,
    sawtooth,
)
from oscym.domain import Domain1D, MOscillatingFunction
from oscym.domain import evaluate, evaluate_many
from oscym.errors import UnsupportedError
from oscym.families import constant_piece, sine_wave
from oscym.funcspec import build_function

DATA = Path(__file__).resolve().parent / "data"


def test_sawtooth_structure():
    u = sawtooth(4)
    assert len(u.pieces) == 12
    # slopes alternate +1, -1, +1 within each period
    slopes = [p.affine_slope for p in u.pieces]
    assert slopes == [1.0, -1.0, 1.0] * 4


def test_sawtooth_values_n1():
    u = sawtooth(1)
    assert evaluate(u, 0.25) == pytest.approx(0.25, abs=1e-15)
    assert evaluate(u, 0.5) == pytest.approx(0.0, abs=1e-15)
    assert evaluate(u, 0.75) == pytest.approx(-0.25, abs=1e-15)


def test_sawtooth_amplitude():
    u = sawtooth(4)
    ts = np.linspace(0.0, 1.0, 4001)[1:-1]
    vals = evaluate_many(u, ts)
    assert np.max(np.abs(vals)) == pytest.approx(1.0 / 16.0, abs=1e-12)


def test_sawtooth_boundary_values_shrink():
    eps = 1e-9
    for n in (1, 2, 4, 8):
        u = sawtooth(n)
        assert abs(evaluate(u, eps)) <= 2e-9
        assert abs(evaluate(u, 1.0 - eps)) <= 2e-9


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
def test_bolza_value_exact(n):
    # slope is unit everywhere, so only the squared amplitude term remains
    u = sawtooth(n)
    val = bolza_functional(u)
    assert val == pytest.approx(1.0 / (48.0 * n * n), rel=1e-8)


def test_bolza_infimum_not_attained_at_zero():
    zero = MOscillatingFunction(
        domain=Domain1D(0.0, 1.0),
        pieces=(constant_piece(0.0, 1.0, 0.0),),
    )
    assert bolza_functional(zero) == pytest.approx(1.0, rel=1e-10)


def test_bolza_decreasing_along_sequence():
    vals = [bolza_functional(sawtooth(n)) for n in (1, 2, 4, 8, 16)]
    assert all(a > b for a, b in zip(vals[:-1], vals[1:]))
    assert vals[-1] < 1e-3


def test_bolza_takes_one_derivative_call_per_panel(monkeypatch):
    f = build_function(json.loads((DATA / "sine.json").read_text()))
    panels, shapes = [], []
    kronrod = quadrature._kronrod
    monkeypatch.setattr(quadrature, "_kronrod",
                        lambda values, h: panels.append(h) or kronrod(values, h))
    derivative = relaxation.forward_derivative
    monkeypatch.setattr(relaxation, "forward_derivative",
                        lambda p, x: shapes.append(np.shape(x)) or derivative(p, x))
    bolza_functional(f)
    assert len(panels) >= len(f.pieces)
    assert shapes == [(15,)] * len(panels)


def test_gradient_young_measure_two_atoms():
    nu = gradient_young_measure(sawtooth(4))
    assert nu.density is None or nu.density(0.0) == 0.0
    atoms = sorted(nu.atoms)
    assert len(atoms) == 2
    assert atoms[0][0] == pytest.approx(-1.0, abs=1e-15)
    assert atoms[1][0] == pytest.approx(1.0, abs=1e-15)
    assert atoms[0][1] == pytest.approx(0.5, abs=1e-12)
    assert atoms[1][1] == pytest.approx(0.5, abs=1e-12)


def test_gradient_young_measure_independent_of_n():
    measures = [gradient_young_measure(sawtooth(n)) for n in (1, 2, 4, 8)]
    ref = sorted(measures[0].atoms)
    for nu in measures[1:]:
        got = sorted(nu.atoms)
        for (y0, m0), (y1, m1) in zip(ref, got):
            assert y0 == pytest.approx(y1, abs=1e-12)
            assert m0 == pytest.approx(m1, abs=1e-12)


def test_gradient_young_measure_requires_affine_pieces():
    with pytest.raises(UnsupportedError):
        gradient_young_measure(sine_wave(2))


@pytest.mark.parametrize(
    "phi,expected",
    [
        (lambda s: s, 0.0),
        (lambda s: s * s, 1.0),
        (lambda s: (s * s - 1.0) ** 2, 0.0),
        (lambda s: abs(s), 1.0),
    ],
)
def test_gradient_measure_moments(phi, expected):
    nu = gradient_young_measure(sawtooth(2))
    assert integrate_test(nu, phi) == pytest.approx(expected, abs=1e-9)


def test_relaxed_value_of_bolza_limit():
    # relaxed integrand at the two-atom measure: derivative term vanishes
    nu = gradient_young_measure(sawtooth(4))
    val = relaxed_value(nu, lambda s: (s * s - 1.0) ** 2, lambda t: 1.0)
    assert val == pytest.approx(0.0, abs=1e-12)


def test_relaxed_value_separable_product():
    nu = gradient_young_measure(sawtooth(1))
    val = relaxed_value(nu, lambda s: s * s, lambda t: t)
    assert val == pytest.approx(0.5, abs=1e-10)


def test_relaxed_value_matches_direct_sum():
    nu = gradient_young_measure(sawtooth(3))
    for phi in (lambda s: s ** 4, lambda s: math.cos(s)):
        direct = sum(m * phi(y) for y, m in nu.atoms)
        assert relaxed_value(nu, phi, lambda t: 1.0) == pytest.approx(
            direct, abs=1e-9)


def test_bolza_value_approaches_relaxed_infimum():
    # the relaxed problem has value zero; the sequence realizes it in the limit
    assert bolza_functional(sawtooth(16)) == pytest.approx(
        0.0, abs=1.0 / (48.0 * 16 * 16) * 1.01)
