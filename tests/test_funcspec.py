import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscym.domain import evaluate, evaluate_many
from oscym.errors import SpecError
from oscym.exprparse import parse_expression as compile_expression
from oscym.funcspec import SequenceSpec, build_function, build_sequence, parse_spec
from oscym.measures import young_density

from test_exact_masses import affine_or_sine_specs
from test_piece_table import power_specs


def make_spec(pieces, domain=(0.0, 1.0), range_k=None):
    obj = {"domain": list(domain), "pieces": pieces}
    if range_k is not None:
        obj["range"] = list(range_k)
    return json.dumps(obj)


IDENTITY_SPEC = make_spec(
    [{"interval": [0.0, 1.0], "kind": "affine", "params": {"slope": 1.0, "intercept": 0.0}}]
)

PLATEAU_SPEC = make_spec(
    [
        {"interval": [0.0, 0.5], "kind": "affine", "params": {"slope": 2.0, "intercept": 0.0}},
        {"interval": [0.5, 1.0], "kind": "constant", "params": {"value": 0.5}},
    ]
)


def test_parse_identity():
    f = parse_spec(IDENTITY_SPEC)
    assert len(f.pieces) == 1
    assert evaluate(f, 0.3) == pytest.approx(0.3)


def test_parse_plateau():
    f = parse_spec(PLATEAU_SPEC)
    assert evaluate(f, 0.25) == pytest.approx(0.5)
    assert evaluate(f, 0.75) == pytest.approx(0.5)
    assert f.pieces[1].kind == "constant"


def test_parse_sin_piece():
    spec = make_spec(
        [{"interval": [0.0, 0.25], "kind": "sin",
          "params": {"amplitude": 1.0, "frequency": 2 * math.pi, "phase": 0.0}}],
        domain=(0.0, 0.25),
    )
    f = parse_spec(spec)
    assert evaluate(f, 1.0 / 12.0) == pytest.approx(0.5, abs=1e-12)


def test_parse_expr_piece():
    spec = make_spec(
        [{"interval": [0.0, 1.0], "kind": "expr", "params": {"expr": "x^2 + 1"}}]
    )
    f = parse_spec(spec)
    assert evaluate(f, 0.5) == pytest.approx(1.25)


def test_power_piece_singular_slope_at_zero():
    # x^2 on (0, 1) has density 1/(2 sqrt(y)): singular at y = 0, finite inside
    f = parse_spec(make_spec(
        [{"interval": [0.0, 1.0], "kind": "power", "params": {"exponent": 2.0}}]))
    assert young_density(f, 0.0) == math.inf
    assert young_density(f, 0.25) == pytest.approx(1.0, rel=1e-12)


def test_power_piece_negative_exponent_from_zero_rejected():
    # x^-1 on (0, 1) would take the value inf at the left end
    spec = make_spec(
        [{"interval": [0.0, 1.0], "kind": "power", "params": {"exponent": -1.0}}]
    )
    with pytest.raises(SpecError, match="exponent"):
        parse_spec(spec)


def test_empty_interval_rejected():
    spec = make_spec(
        [{"interval": [0.5, 0.5], "kind": "constant", "params": {"value": 1.0}}]
    )
    with pytest.raises(SpecError, match="empty interval"):
        parse_spec(spec)


def test_unknown_key_rejected():
    obj = json.loads(IDENTITY_SPEC)
    obj["extra"] = 1
    with pytest.raises(SpecError):
        parse_spec(json.dumps(obj))


def test_missing_key_rejected():
    obj = json.loads(IDENTITY_SPEC)
    del obj["pieces"]
    with pytest.raises(SpecError):
        parse_spec(json.dumps(obj))


def test_unknown_piece_kind_rejected():
    spec = make_spec([{"interval": [0.0, 1.0], "kind": "cubic", "params": {}}])
    with pytest.raises(SpecError):
        parse_spec(spec)


def test_unknown_piece_param_rejected():
    spec = make_spec(
        [{"interval": [0.0, 1.0], "kind": "affine",
          "params": {"slope": 1.0, "intercept": 0.0, "offset": 2.0}}]
    )
    with pytest.raises(SpecError):
        parse_spec(spec)


def test_sin_family_takes_no_params():
    spec = {"family": "sin", "params": {"closed_form": False}, "indices": [1, 4]}
    with pytest.raises(SpecError, match="closed_form"):
        parse_spec(json.dumps(spec))


def test_negative_teeth_rejected_by_name():
    spec = {"family": "roubicek", "params": {"teeth": -1}, "indices": [1, 4]}
    with pytest.raises(SpecError, match="param 'teeth' of family 'roubicek'"):
        parse_spec(json.dumps(spec))


def test_malformed_json_reports_position():
    with pytest.raises(SpecError) as exc:
        parse_spec('{"domain": [0, 1],\n "pieces": [,]}')
    assert exc.value.line == 2


@pytest.mark.parametrize(
    "formula,x,expected",
    [
        ("2*x + 1", 0.5, 2.0),
        ("x^2^3", 2.0, 256.0),          # right-associative power
        ("-x^2", 3.0, -9.0),
        ("sin(pi*x)", 0.5, 1.0),
        ("pow(x, 3) / 2", 2.0, 4.0),
        ("exp(log(x))", 5.0, 5.0),
        ("cos(0) + 1 - 2", 0.0, 0.0),
        ("(1 + x) * (1 - x)", 0.5, 0.75),
    ],
)
def test_expression_values(formula, x, expected):
    fn = compile_expression(formula)
    assert fn(x) == pytest.approx(expected, rel=1e-12)


def test_expression_vectorized():
    fn = compile_expression("sin(pi*x)")
    xs = np.linspace(0.0, 1.0, 7)
    assert np.allclose(fn(xs), np.sin(np.pi * xs))


@pytest.mark.parametrize("bad", ["2 +", "foo(x)", "x y", "(1 + 2", "", "1..2"])
def test_expression_errors(bad):
    with pytest.raises(SpecError):
        compile_expression(bad)


def test_builtin_sequence_sin():
    seq = parse_spec(json.dumps({"family": "sin", "params": {}, "indices": [1, 4]}))
    assert isinstance(seq, SequenceSpec)
    f2 = seq.function_for(2)
    assert len(f2.pieces) == 5
    assert f2.range_K == (-1.0, 1.0)


def test_builtin_sequence_amplitude_tent():
    seq = parse_spec(json.dumps({"family": "amplitude_tent", "params": {}, "indices": [1, 3]}))
    f3 = seq.function_for(3)
    assert evaluate(f3, 0.5) == pytest.approx(1.0 + 1.0 / 3.0)


def test_builtin_sequence_roubicek():
    seq = parse_spec(json.dumps({"family": "roubicek", "params": {}, "indices": [1, 2]}))
    f1 = seq.function_for(1)
    assert f1.range_K[0] == pytest.approx(0.0)
    assert f1.range_K[1] == pytest.approx(1.0)


def test_custom_sequence_needs_enough_functions():
    obj = {
        "family": "custom",
        "params": {"functions": [json.loads(IDENTITY_SPEC)]},
        "indices": [1, 2],
    }
    with pytest.raises(SpecError):
        parse_spec(json.dumps(obj))


def test_custom_sequence():
    obj = {
        "family": "custom",
        "params": {"functions": [json.loads(IDENTITY_SPEC), json.loads(PLATEAU_SPEC)]},
        "indices": [1, 2],
    }
    seq = parse_spec(json.dumps(obj))
    assert evaluate(seq.function_for(1), 0.3) == pytest.approx(0.3)
    assert evaluate(seq.function_for(2), 0.75) == pytest.approx(0.5)


def test_unknown_family_rejected():
    with pytest.raises(SpecError):
        parse_spec(json.dumps({"family": "mystery", "params": {}, "indices": [1, 2]}))


def test_build_function_accepts_parsed_object():
    f = build_function(json.loads(PLATEAU_SPEC))
    assert evaluate(f, 0.25) == pytest.approx(0.5)


def test_build_sequence_accepts_parsed_object():
    seq = build_sequence({"family": "sin", "params": {}, "indices": [1, 2]})
    assert seq.indices == (1, 2)


# defined for every real x, so no drawn domain raises a numpy warning
EVERYWHERE_DEFINED = ("x^3 - x", "exp(x) / 2", "sin(3*x) + x", "2", "pi")


@st.composite
def specs_of_every_kind(draw):
    """An affine/sine or power spec, continued past its domain by 0-3
    constant or expr pieces."""
    spec = draw(st.one_of(affine_or_sine_specs(), power_specs()))
    lo, hi = spec["domain"]
    pieces = list(spec["pieces"])
    for _ in range(draw(st.integers(0, 3))):
        width = draw(st.floats(0.05, 1.0))
        if draw(st.booleans()):
            kind, params = "constant", {"value": draw(st.floats(-3.0, 3.0))}
        else:
            kind, params = "expr", {"expr": draw(st.sampled_from(EVERYWHERE_DEFINED))}
        pieces.append({"interval": [hi, hi + width], "kind": kind, "params": params})
        hi += width
    return {"domain": [lo, hi], "pieces": pieces}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(spec=specs_of_every_kind())
def test_spec_round_trips_through_json(spec):
    direct = build_function(spec)
    parsed = parse_spec(json.dumps(spec))
    xs = np.linspace(*spec["domain"], 257)
    assert evaluate_many(parsed, xs).tobytes() == evaluate_many(direct, xs).tobytes()
