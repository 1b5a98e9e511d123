"""The `expr` language: the values its callables give, drawn over random
expression trees and number spellings, and the strings it rejects, in the
library and at the command line."""
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscym import cli
from oscym.errors import SpecError
from oscym.exprparse import parse_expression

# binding strength, loosest first: a child weaker than its slot needs parentheses
SUM, TERM, UNARY, POWER, ATOM = range(5)
BINARY_LEVEL = {"+": SUM, "-": SUM, "*": TERM, "/": TERM}
BINARY_OP = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}
FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log}
WHITESPACE = ["", "", "", " ", "  ", "\t", "\n", "\r\n", " \f", "\v"]


@st.composite
def numbers(draw):
    """A decimal literal: digits with an optional point, leading and trailing
    zeros, and an optional exponent; ("num", value, spelling)."""
    digits = str(draw(st.integers(0, 10**6)))
    k = draw(st.integers(-4, 4))  # the value is int(digits) * 10**k
    point = draw(st.none() | st.integers(0, len(digits)))
    if point is None:
        mantissa, exp = digits, k
    else:
        mantissa = (digits[:point] + "." + digits[point:]
                    + "0" * draw(st.integers(0, 2)))
        exp = k + len(digits) - point
    mantissa = "0" * draw(st.integers(0, 2)) + mantissa
    if exp == 0 and draw(st.booleans()):
        spelling = mantissa
    else:
        sign = "-" if exp < 0 else draw(st.sampled_from(["", "+"]))
        spelling = (mantissa + draw(st.sampled_from("eE")) + sign
                    + "0" * draw(st.integers(0, 1)) + str(abs(exp)))
    return ("num", float(f"{digits}e{k}"), spelling)


LEAVES = numbers() | st.just(("x",)) | st.just(("pi",))


def _extend(children):
    return (
        st.tuples(st.just("neg"), children)
        | st.tuples(st.just("bin"), st.sampled_from(sorted(BINARY_OP)), children, children)
        | st.tuples(st.just("pow"), children, children)
        | st.tuples(st.just("call"), st.sampled_from(sorted(FUNCS)), children)
        | st.tuples(st.just("powf"), children, children)
    )


TREES = st.recursive(LEAVES, _extend, max_leaves=10)


def render(tree, draw):
    """Text of the tree with random whitespace between tokens, and
    parentheses where precedence needs them and at random elsewhere."""
    def ws():
        return draw(st.sampled_from(WHITESPACE))

    def wrap(t, need):
        text, level = go(t)
        if level < need or draw(st.integers(0, 5)) == 0:
            return "(" + ws() + text + ws() + ")"
        return text

    def go(t):
        kind = t[0]
        if kind == "num":
            return t[2], ATOM
        if kind in ("x", "pi"):
            return kind, ATOM
        if kind == "neg":
            return "-" + ws() + wrap(t[1], UNARY), UNARY
        if kind == "bin":
            level = BINARY_LEVEL[t[1]]
            return (wrap(t[2], level) + ws() + t[1] + ws()
                    + wrap(t[3], level + 1)), level
        if kind == "pow":  # right associative, and binds tighter than unary minus
            return wrap(t[1], ATOM) + ws() + "^" + ws() + wrap(t[2], UNARY), POWER
        args = [t[2]] if kind == "call" else [t[1], t[2]]
        name = t[1] if kind == "call" else "pow"
        inner = (ws() + "," + ws()).join(go(a)[0] for a in args)
        return name + ws() + "(" + ws() + inner + ws() + ")", ATOM

    return ws() + go(tree)[0] + ws()


def reference(tree, x):
    """The grammar's value at a 1-D array x: one numpy operation per node on
    arrays, in the order of the documented semantics, with pi and every
    number as a one-value array."""
    kind = tree[0]
    if kind == "num":
        return np.array([tree[1]])
    if kind == "x":
        return x
    if kind == "pi":
        return np.array([math.pi])
    if kind == "neg":
        return -reference(tree[1], x)
    if kind == "bin":
        a = reference(tree[2], x)
        return BINARY_OP[tree[1]](a, reference(tree[3], x))
    if kind == "call":
        return FUNCS[tree[1]](reference(tree[2], x))
    base = reference(tree[1], x)  # pow and ^
    return base ** reference(tree[2], x)


def grammar_value(tree, x):
    """`reference` at x, a scalar read as an array of it: a float at a
    scalar, an array of the shape of x at an array.  A lone value is read as
    two, over which numpy's power takes the fast paths it takes over every
    longer array."""
    xs = np.asarray(x, dtype=float)
    flat = np.repeat(xs.reshape(-1), 2 if xs.size == 1 else 1)
    values = np.broadcast_to(reference(tree, flat), flat.shape)[:xs.size]
    return float(values[0]) if xs.ndim == 0 else values.reshape(xs.shape)


def outcome(fn, x):
    """Type, dtype and bytes of fn(x)."""
    with np.errstate(all="ignore"):
        v = fn(x)
    return type(v), np.asarray(v).dtype, np.asarray(v).tobytes()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(tree=TREES, data=st.data(),
       x=st.floats(-3.0, 3.0), more=st.lists(st.floats(-3.0, 3.0), max_size=4))
def test_expressions_evaluate_bitwise_as_the_grammar_says(tree, data, x, more):
    text = render(tree, data.draw)
    fn = parse_expression(text)
    for arg in (x, np.array([x, *more])):
        assert outcome(fn, arg) == outcome(lambda v: grammar_value(tree, v), arg), text
    # one arithmetic: a value at a scalar is bitwise the value in an array
    values = outcome(fn, np.array([x, *more]))[2]
    assert b"".join(outcome(fn, v)[2] for v in [x, *more]) == values, text


REJECTED = [
    "x**2", "+x", "1 + +x", "0x1", "0o7", "0b1", "1_0", "1j", "2.5J", "True",
    "None", "x.real", "1 .real", "x[0]", "x < 1", "x == 1", "x is 1",
    "x in x", "not x", "x and x", "x, 1", "(x, 1)", "lambda: x",
    "x if x else 2", "1if x else 2", "0x1for x in x", "sin(x for x in x)",
    "2 +", "foo(x)", "1..2", "1.2.3", ".", "1e", "1e+", ".e1", "sin(x, 2)",
    "sin(x,)", "pow(x, 2,)", "pow(x)", "pow(x, 2, 3)", "sin(x=1)", "sin(*x)",
    "sin", "(sin)(x)", "(pow)(x, 2)", "sin(x, ^x)", "pow(x, ^x)", "pi(x)", "x(2)", "(1)(2)", "2(3)", "e", "E", "2pi", "x2", "2x",
    "x y", "x // 2", "x % 2", "x @ x", "x ^^ 2", "x * ^ 2", "-", "()", "(x",
    "x)", "", "  ", "__import__('os')", "\N{FULLWIDTH LATIN SMALL LETTER X}",
    "x\N{SUPERSCRIPT TWO}", "1\N{SUPERSCRIPT TWO}",
]


@pytest.mark.parametrize("bad", REJECTED)
def test_rejected_expressions_raise_spec_error(bad):
    with pytest.raises(SpecError):
        parse_expression(bad)


def _validate_expr(tmp_path, capsys, text):
    """Exit code and stderr lines of `oscym validate` on a one-piece expr
    spec, with warnings shown as they would be outside the test run."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"domain": [0.0, 1.0], "pieces": [
        {"interval": [0.0, 1.0], "kind": "expr", "params": {"expr": text}}]}))
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        rc = cli.main(["validate", "--input", str(path)])
    return rc, capsys.readouterr().err.splitlines()


@pytest.mark.parametrize("bad", REJECTED)
def test_cli_reports_a_rejected_expression_on_one_line(tmp_path, capsys, bad):
    rc, err = _validate_expr(tmp_path, capsys, bad)
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("input error:")


@pytest.mark.parametrize("text", [
    "-" * 3000 + "x",
    "(" * 300 + "x" + ")" * 300,
    "x" + "^x" * 3000,
], ids=["3000-unary-minuses", "300-parentheses", "3000-term-power-chain"])
def test_cli_reports_a_deeply_nested_expression_as_an_input_error(tmp_path, capsys, text):
    rc, err = _validate_expr(tmp_path, capsys, text)
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("input error:")
