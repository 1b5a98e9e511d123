"""The arithmetic language of "expr" pieces.

Loosest first: + and - (left associative), * and /, unary -, then ^ (right
associative and above unary minus: -x^2 is -(x^2), 2^-x is 2^(-x)).  Atoms:
parentheses, x, pi, sin, cos, exp and log of one argument, pow(a, b), and
decimal numbers read by float, as 01, .5, 2. and 1E-05.  Any whitespace,
newlines too, may separate tokens.  All else is a SpecError: **, unary +,
hex, octal, binary, imaginary or underscored numbers, other names, keywords,
comparisons, attributes, subscripts, tuples, other arguments, and more than
MAX_DEPTH nodes on a path.  Numbers reach Python's `ast` as placeholder names.
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
    """Compile the expression to a callable of x (scalar or ndarray)."""
    if not _ALPHABET.fullmatch(text) or _PYTHON_ONLY.search(text):
        raise SpecError(f"invalid expression {text!r}")
    names = {"x": lambda x: np.asarray(x, dtype=float) if np.ndim(x) else float(x),
             "pi": lambda x: math.pi}

    def number(m):  # the text holds no '_', so none of its names is a placeholder
        v = float(m.group())
        names[f"_{len(names)}"] = lambda x: v if np.ndim(x) == 0 else np.full_like(
            np.asarray(x, dtype=float), v)
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
    return build(tree.body, 1)
