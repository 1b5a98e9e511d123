"""JSON specification files for functions and sequences.

Function schema:
    { "domain": [a, b],
      "pieces": [ { "interval": [s, t], "kind": ..., "params": {...} } ] }

kinds and their required params (strict - unknown or missing keys fail):
    affine   {"slope", "intercept"}
    sin      {"amplitude", "frequency", "phase"}
    power    {"exponent"}
    constant {"value"}
    expr     {"expr"}

Sequence schema:
    { "family": "sin"|"roubicek"|"amplitude_tent"|"custom",
      "params": {...}, "indices": [n_min, n_max] }
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from . import families
from .domain import Domain1D, MOscillatingFunction, Piece
from .errors import SpecError
from .exprparse import parse_expression


@dataclass(frozen=True)
class SequenceSpec:
    family: str
    params: dict
    indices: tuple[int, int]
    function_for: Callable[[int], MOscillatingFunction]


def _require_keys(obj: dict, required: set[str], context: str):
    keys = set(obj.keys())
    unknown = keys - required
    missing = required - keys
    if unknown:
        raise SpecError(f"unknown key(s) {sorted(unknown)} in {context}")
    if missing:
        raise SpecError(f"missing key(s) {sorted(missing)} in {context}")


def _interval(raw, context: str) -> tuple[float, float]:
    if not (isinstance(raw, (list, tuple)) and len(raw) == 2):
        raise SpecError(f"{context} must be a two-element interval")
    lo, hi = float(raw[0]), float(raw[1])
    if not lo < hi:
        raise SpecError(f"empty interval [{lo}, {hi}] in {context}")
    return lo, hi


def _power_inverse_slope(y: float, p: float) -> float:
    """Derivative of y -> y^(1/p); +inf at y = 0 when 1/p < 1, where the
    forward slope vanishes (a singular slope, as at the extrema of sin)."""
    e = 1.0 / p - 1.0
    y = max(y, 0.0)
    if y == 0.0 and e < 0:
        return math.inf
    return y ** e / p


def _build_piece(raw: dict, index: int) -> Piece:
    ctx = f"piece {index}"
    _require_keys(raw, {"interval", "kind", "params"}, ctx)
    lo, hi = _interval(raw["interval"], ctx)
    kind = raw["kind"]
    params = raw["params"]
    if not isinstance(params, dict):
        raise SpecError(f"params of {ctx} must be an object")
    if kind == "affine":
        _require_keys(params, {"slope", "intercept"}, ctx)
        return families.affine_piece(lo, hi, float(params["slope"]),
                                     float(params["intercept"]))
    if kind == "sin":
        _require_keys(params, {"amplitude", "frequency", "phase"}, ctx)
        return families.sine_piece(lo, hi, float(params["amplitude"]),
                                   float(params["frequency"]),
                                   float(params["phase"]))
    if kind == "power":
        _require_keys(params, {"exponent"}, ctx)
        p = float(params["exponent"])
        if p == 0:
            raise SpecError(f"power piece needs a nonzero exponent in {ctx}")
        if lo < 0:
            raise SpecError(f"power piece needs a nonnegative interval in {ctx}")
        if p < 0 and lo == 0:
            raise SpecError(
                f"power piece with a negative exponent is infinite at 0 in {ctx}")
        return Piece(
            sub_lower=lo, sub_upper=hi,
            forward=lambda x, _p=p: np.asarray(x, dtype=float) ** _p,
            inverse=lambda y, _e=1.0 / p: families.per_value(lambda v: v ** _e, y),
            inverse_derivative=lambda y, _p=p: families.per_value(
                lambda v: _power_inverse_slope(v, _p), y),
        )
    if kind == "constant":
        _require_keys(params, {"value"}, ctx)
        return families.constant_piece(lo, hi, float(params["value"]))
    if kind == "expr":
        _require_keys(params, {"expr"}, ctx)
        fwd = parse_expression(str(params["expr"]))
        return Piece(sub_lower=lo, sub_upper=hi, forward=fwd)
    raise SpecError(f"unknown piece kind {kind!r} in {ctx}")


def build_function(obj: dict) -> MOscillatingFunction:
    _require_keys(obj, {"domain", "pieces"}, "function spec")
    lo, hi = _interval(obj["domain"], "domain")
    if not isinstance(obj["pieces"], list) or not obj["pieces"]:
        raise SpecError("pieces must be a nonempty list")
    pieces = tuple(_build_piece(p, i) for i, p in enumerate(obj["pieces"]))
    return MOscillatingFunction(domain=Domain1D(lo, hi), pieces=pieces)


_BUILTIN_FAMILIES = {
    "sin": lambda n, params: families.sine_wave(n),
    "roubicek": lambda n, params: families.roubicek(
        n, teeth=int(params.get("teeth", 64))),
    "amplitude_tent": lambda n, params: families.amplitude_tent(n),
}

_FAMILY_PARAM_KEYS = {
    "sin": set(),
    "roubicek": {"teeth"},
    "amplitude_tent": set(),
}


def build_sequence(obj: dict) -> SequenceSpec:
    _require_keys(obj, {"family", "params", "indices"}, "sequence spec")
    name = obj["family"]
    params = obj["params"]
    if not isinstance(params, dict):
        raise SpecError("params must be an object")
    raw = obj["indices"]
    if not (isinstance(raw, list) and len(raw) == 2):
        raise SpecError("indices must be [n_min, n_max]")
    n_min, n_max = int(raw[0]), int(raw[1])
    if not 1 <= n_min < n_max:
        raise SpecError(f"indices must be increasing and positive, got {raw}")

    if name == "custom":
        _require_keys(params, {"functions"}, "custom sequence params")
        specs = params["functions"]
        if not isinstance(specs, list) or len(specs) < n_max:
            raise SpecError("custom sequence needs at least n_max function specs")
        fns = [build_function(s) for s in specs]
        fn_for = lambda n: fns[n - 1]
    elif name in _BUILTIN_FAMILIES:
        extra = set(params) - _FAMILY_PARAM_KEYS[name]
        if extra:
            raise SpecError(f"unknown param(s) {sorted(extra)} for family {name!r}")
        builder = _BUILTIN_FAMILIES[name]
        fn_for = lambda n: builder(n, params)
    else:
        raise SpecError(f"unknown family {name!r}")
    return SequenceSpec(family=name, params=params, indices=(n_min, n_max),
                        function_for=fn_for)


def parse_spec(text: str) -> Union[MOscillatingFunction, SequenceSpec]:
    """Parse a function or sequence specification from JSON text."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    if not isinstance(obj, dict):
        raise SpecError("top-level spec must be an object")
    if "family" in obj:
        return build_sequence(obj)
    return build_function(obj)
