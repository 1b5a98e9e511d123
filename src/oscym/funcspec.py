"""JSON specification files for functions and sequences.

Function schema:
    { "domain": [a, b],
      "pieces": [ { "interval": [s, t], "kind": ..., "params": {...} } ] }

kinds and their params, numbers but expr (strict - unknown or missing keys fail):
    affine   {"slope" (nonzero), "intercept"}
    sin      {"amplitude" (nonzero), "frequency" (nonzero), "phase"}
    power    {"exponent" (nonzero)}
    constant {"value"}
    expr     {"expr"}

Sequence schema:
    { "family": "sin"|"roubicek"|"amplitude_tent"|"custom",
      "params": {...}, "indices": [n_min, n_max] }
    roubicek takes {"teeth" (>= 0, default 64)}; sin and amplitude_tent take none
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from . import families
from .domain import Domain1D, MOscillatingFunction, Piece, per_value
from .errors import SpecError
from .exprparse import parse_expression


@dataclass(frozen=True)
class SequenceSpec:
    family: str
    params: dict
    indices: tuple[int, int]
    function_for: Callable[[int], MOscillatingFunction]


def _require_keys(obj: dict, required: set[str], context: str):
    if not isinstance(obj, dict):
        raise SpecError(f"{context} must be an object")
    keys = set(obj.keys())
    unknown = keys - required
    missing = required - keys
    if unknown:
        raise SpecError(f"unknown key(s) {sorted(unknown)} in {context}")
    if missing:
        raise SpecError(f"missing key(s) {sorted(missing)} in {context}")


def _number(raw, context: str, kind: type = float):
    """raw read as a float (or as `kind`), or a SpecError naming the context."""
    try:
        return kind(raw)
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if kind is int else "a number"
        raise SpecError(f"{context} must be {what}, got {raw!r}") from None


def _number_params(params: dict, keys: tuple[str, ...], context: str) -> list[float]:
    """The values of params, which must hold exactly `keys`, as floats."""
    _require_keys(params, set(keys), context)
    return [_number(params[k], f"{k} in {context}") for k in keys]


def _interval(raw, context: str) -> tuple[float, float]:
    if not (isinstance(raw, (list, tuple)) and len(raw) == 2):
        raise SpecError(f"{context} must be a two-element interval")
    lo, hi = (_number(v, f"interval end in {context}") for v in raw)
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
        slope, intercept = _number_params(params, ("slope", "intercept"), ctx)
        if slope == 0:
            raise SpecError(f"affine piece needs a nonzero slope in {ctx}")
        return families.affine_piece(lo, hi, slope, intercept)
    if kind == "sin":
        amplitude, frequency, phase = _number_params(
            params, ("amplitude", "frequency", "phase"), ctx)
        if amplitude == 0 or frequency == 0:
            raise SpecError(f"sin piece needs a nonzero amplitude and frequency in {ctx}")
        return families.sine_piece(lo, hi, amplitude, frequency, phase)
    if kind == "power":
        (p,) = _number_params(params, ("exponent",), ctx)
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
            inverse=lambda y, _e=1.0 / p: per_value(lambda v: v ** _e, y),
            inverse_derivative=lambda y, _p=p: per_value(
                lambda v: _power_inverse_slope(v, _p), y),
        )
    if kind == "constant":
        (value,) = _number_params(params, ("value",), ctx)
        return families.constant_piece(lo, hi, value)
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


# family name -> (builder of its n-th function, its integer params with defaults)
_BUILTIN_FAMILIES = {
    "sin": (families.sine_wave, {}),
    "roubicek": (families.roubicek, {"teeth": 64}),
    "amplitude_tent": (families.amplitude_tent, {}),
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
    n_min, n_max = (_number(v, "index", int) for v in raw)
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
        builder, defaults = _BUILTIN_FAMILIES[name]
        extra = set(params) - set(defaults)
        if extra:
            raise SpecError(f"unknown param(s) {sorted(extra)} for family {name!r}")
        kwargs = {k: _number(params.get(k, v), f"param {k!r} of family {name!r}", int)
                  for k, v in defaults.items()}
        for k, v in kwargs.items():  # every family param is a count
            if v < 0:
                raise SpecError(f"param {k!r} of family {name!r} must be at least 0, got {v}")
        fn_for = lambda n: builder(n, **kwargs)
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
