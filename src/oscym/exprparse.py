"""The arithmetic language of "expr" pieces.

Loosest first: + and - (left associative), * and /, unary -, then ^ (right
associative and above unary minus: -x^2 is -(x^2), 2^-x is 2^(-x)).  Atoms:
parentheses, x, pi, sin, cos, exp and log of one argument, pow(a, b), and
decimal numbers read by float, as 01, .5, 2. and 1E-05.  Any whitespace,
newlines too, may separate tokens.  All else is a SpecError: **, unary +,
hex, octal, binary, imaginary or underscored numbers, other names, keywords,
comparisons, attributes, subscripts, tuples, other arguments, and more than
MAX_DEPTH nodes on a path.  Numbers reach Python's `ast` as placeholder names.

Scalars and arrays share one arithmetic: x is a 1-D float64 array (a
scalar an array of it) and pi and numbers one-value arrays, so each node
is one numpy operation on arrays and a value does not depend on the values
beside it.  Division by zero and overflow give inf, a fractional power of a
negative number nan, under numpy's error state: never a Python exception.
"""
from __future__ import annotations

import ast
import math
import re
from typing import Callable

import numpy as np

from .errors import SpecError

MAX_DEPTH = 200  # evaluation recurses once per node on the deepest path

_ALPHABET = re.compile(r"[\s\dA-Za-z.+\-*/^(),]*")
# read by Python, not by the grammar: **, a trailing comma, a function name without "("
_PYTHON_ONLY = re.compile(r"\*\*|,\s*\)|\b(?:sin|cos|exp|log|pow)\b(?!\s*\()")
_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_BINARY = {
    ast.Add: lambda a, b: lambda x: a(x) + b(x),
    ast.Sub: lambda a, b: lambda x: a(x) - b(x),
    ast.Mult: lambda a, b: lambda x: a(x) * b(x),
    ast.Div: lambda a, b: lambda x: a(x) / b(x),
    ast.Pow: lambda a, b: lambda x: a(x) ** b(x),
}
_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log}


def parse_expression(text: str) -> Callable:
    """Compile the expression to a callable of x: a float at a scalar x,
    an array of the shape of x at an ndarray."""
    if not _ALPHABET.fullmatch(text) or _PYTHON_ONLY.search(text):
        raise SpecError(f"invalid expression {text!r}")
    names = {"x": lambda x: x, "pi": lambda x, _pi=np.array([math.pi]): _pi}

    def number(m):  # the text holds no '_', so none of its names is a placeholder
        v = np.array([float(m.group())])
        names[f"_{len(names)}"] = lambda x: v
        return f"_{len(names) - 1}"

    def build(node, depth):
        if depth > MAX_DEPTH:
            raise SpecError(f"expression nested deeper than {MAX_DEPTH}: {text!r}")
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            return _BINARY[type(node.op)](build(node.left, depth + 1),
                                          build(node.right, depth + 1))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return lambda x, a=build(node.operand, depth + 1): -a(x)
        if isinstance(node, ast.Name) and node.id in names:
            return names[node.id]
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and not node.keywords:
            args = [build(a, depth + 1) for a in node.args]
            if node.func.id in _FUNCS and len(args) == 1:
                return lambda x, f=_FUNCS[node.func.id], a=args[0]: f(a(x))
            if node.func.id == "pow" and len(args) == 2:
                return _BINARY[ast.Pow](*args)
        raise SpecError(f"invalid expression {text!r}")

    source = _NUMBER.sub(number, re.sub(r"\s+", " ", text)).replace("^", "**").strip()
    try:  # no number literal reaches Python's tokenizer, nor any of its warnings
        tree = ast.parse(source, mode="eval")
    except (SyntaxError, MemoryError, RecursionError):
        raise SpecError(f"invalid expression {text!r}") from None
    body = build(tree.body, 1)

    def evaluate(x):
        xs = np.asarray(x, dtype=float)
        flat = xs.reshape(-1)
        # numpy's power takes its fast paths (sqrt, square, reciprocal) for
        # an exponent broadcast from one value only over two or more bases,
        # so a lone value is evaluated as two
        values = body(np.repeat(flat, 2) if flat.size == 1 else flat)[:flat.size]
        if values.size != flat.size:  # an expression without x
            values = np.repeat(values, flat.size)
        return float(values[0]) if xs.ndim == 0 else values.reshape(xs.shape)

    return evaluate
