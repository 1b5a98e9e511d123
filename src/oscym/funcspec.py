"""JSON specification files for functions and sequences.

Function schema:
    { "domain": [a, b],
      "pieces": [ { "interval": [s, t], "kind": ..., "params": {...} } ] }

Interval ends are finite numbers.
kinds and their params, finite numbers but expr (strict - unknown or missing keys fail):
    affine   {"slope" (nonzero), "intercept"}
    sin      {"amplitude" (nonzero), "frequency" (nonzero), "phase"}
    power    {"exponent" (nonzero)}
    constant {"value"}
    expr     {"expr"}
A function's pieces become the columns of its piece table: the params of
an affine, sin, power or constant piece are its kind's columns, and an
expr piece, a map given by its forward expression alone, is a Piece
inverted by bisection.

Sequence schema:
    { "family": "sin"|"roubicek"|"amplitude_tent"|"custom",
      "params": {...}, "indices": [n_min, n_max] }
    roubicek takes {"teeth" (>= 0, default 64)}, rounded up to even, with
    (n_max + teeth)^2 < 2^53; sin and amplitude_tent take none
"""
from __future__ import annotations

import json
import math
from typing import Callable, NamedTuple, Sequence, Union

from . import families
from .domain import Domain1D, MOscillatingFunction, Piece, table_of_rows
from .errors import SpecError
from .exprparse import parse_expression


class SequenceSpec(NamedTuple):
    """A sequence of functions: `functions(ns)` builds the n-th of each n
    of ns at once, so a built-in family computes them together."""

    family: str
    params: dict
    indices: tuple[int, int]
    functions: Callable[[Sequence[int]], list[MOscillatingFunction]]

    def function_for(self, n: int) -> MOscillatingFunction:
        return self.functions([n])[0]


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
    """The values of params, which must hold exactly `keys`, as finite floats."""
    _require_keys(params, set(keys), context)
    values = [_number(params[k], f"{k} in {context}") for k in keys]
    for k, v in zip(keys, values):
        if not math.isfinite(v):
            raise SpecError(f"{k} in {context} must be finite, got {v}")
    return values


def _interval(raw, context: str) -> tuple[float, float]:
    if not (isinstance(raw, (list, tuple)) and len(raw) == 2):
        raise SpecError(f"{context} must be a two-element interval")
    lo, hi = (_number(v, f"interval end in {context}") for v in raw)
    for v in (lo, hi):
        if not math.isfinite(v):
            raise SpecError(f"interval end in {context} must be finite, got {v}")
    if not lo < hi:
        raise SpecError(f"empty interval [{lo}, {hi}] in {context}")
    return lo, hi


# kind -> its number params, in the order of its `domain.table_of_rows` row
_PARAMS = {"affine": ("slope", "intercept"), "sin": ("amplitude", "frequency", "phase"),
           "power": ("exponent",), "constant": ("value",)}


def _build_piece(raw: dict, index: int) -> tuple:
    """The `domain.table_of_rows` row of a piece spec: the kind and its
    params, or for an expr piece a Piece of the parsed expression."""
    ctx = f"piece {index}"
    _require_keys(raw, {"interval", "kind", "params"}, ctx)
    lo, hi = _interval(raw["interval"], ctx)
    kind, params = raw["kind"], raw["params"]
    if not isinstance(params, dict):
        raise SpecError(f"params of {ctx} must be an object")
    if kind == "expr":
        _require_keys(params, {"expr"}, ctx)
        return lo, hi, "piece", Piece(lo, hi, forward=parse_expression(str(params["expr"])))
    if kind not in list(_PARAMS):
        raise SpecError(f"unknown piece kind {kind!r} in {ctx}")
    values = _number_params(params, _PARAMS[kind], ctx)
    if kind == "affine" and values[0] == 0:
        raise SpecError(f"affine piece needs a nonzero slope in {ctx}")
    if kind == "sin" and (values[0] == 0 or values[1] == 0):
        raise SpecError(f"sin piece needs a nonzero amplitude and frequency in {ctx}")
    if kind == "power" and values[0] == 0:
        raise SpecError(f"power piece needs a nonzero exponent in {ctx}")
    if kind == "power" and lo < 0:
        raise SpecError(f"power piece needs a nonnegative interval in {ctx}")
    if kind == "power" and values[0] < 0 and lo == 0:
        raise SpecError(f"power piece with a negative exponent is infinite at 0 in {ctx}")
    return lo, hi, kind, values[0] if kind == "constant" else tuple(values)


def build_function(obj: dict) -> MOscillatingFunction:
    _require_keys(obj, {"domain", "pieces"}, "function spec")
    lo, hi = _interval(obj["domain"], "domain")
    if not isinstance(obj["pieces"], list) or not obj["pieces"]:
        raise SpecError("pieces must be a nonempty list")
    rows = [_build_piece(p, i) for i, p in enumerate(obj["pieces"])]
    return MOscillatingFunction.from_table(Domain1D(lo, hi), table_of_rows(rows))


def _each(builder: Callable[[int], MOscillatingFunction]):
    """The builder of the functions at several n from one of the n-th."""
    return lambda ns, **params: [builder(n, **params) for n in ns]


# family name -> (builder of its functions at given n, its integer params with defaults)
_BUILTIN_FAMILIES = {
    "sin": (_each(families.sine_wave), {}),
    "roubicek": (families.roubicek_family, {"teeth": 64}),
    "amplitude_tent": (_each(families.amplitude_tent), {}),
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
        functions = lambda ns: [fns[n - 1] for n in ns]
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
        # the family rounds teeth up to even, and is exact while (n + teeth)^2 < 2^53
        if name == "roubicek" and (n_max + kwargs["teeth"] + kwargs["teeth"] % 2) ** 2 >= 2 ** 53:
            raise SpecError(f"param 'teeth' of family 'roubicek' must keep (n_max + teeth)^2 "
                            f"< 2^53, teeth rounded up to even: got {kwargs['teeth']} "
                            f"with n_max {n_max}")
        functions = lambda ns: builder(ns, **kwargs)
    else:
        raise SpecError(f"unknown family {name!r}")
    return SequenceSpec(family=name, params=params, indices=(n_min, n_max),
                        functions=functions)


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
