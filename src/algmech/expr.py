"""Scalar expression language plus the finite-difference helpers used everywhere else.

Expressions are immutable trees over real literals, named variables, the
arithmetic operators ``+ - * / ^`` (with ``^`` right-associative), unary
negation and a fixed catalogue of functions.  Evaluation is pure: given a
binding for every free variable it touches nothing else, so expressions can
be shared freely across threads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Mapping, Union

import numpy as np

__all__ = [
    "Bindings",
    "Expr",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "ExprError",
    "ParseError",
    "EvalError",
    "parse",
    "partial",
    "fd_partial",
    "fd_gradient",
    "fd_directional",
]

Bindings = Mapping[str, float]

# Finite-difference base step, scaled per coordinate by the helpers below.
_DEFAULT_STEP = 1e-6


class ExprError(ValueError):
    """Base class for expression-language failures."""


class ParseError(ExprError):
    """Syntax error with the byte offset and a hint at what was expected."""

    def __init__(self, offset: int, message: str):
        super().__init__(f"syntax error at offset {offset}: {message}")
        self.offset = offset


class EvalError(ExprError):
    """Unbound variable or a real-domain violation during evaluation."""


class Expr:
    """Abstract syntax tree node.  Subclasses are frozen dataclasses."""

    __slots__ = ()

    def eval(self, bindings: Bindings) -> float:
        raise NotImplementedError

    def variables(self) -> frozenset:
        """Free variables of the expression."""
        raise NotImplementedError

    def __str__(self) -> str:
        return _format(self, 0)


@dataclass(frozen=True)
class Num(Expr):
    value: float

    def eval(self, bindings):
        return self.value

    def variables(self):
        return frozenset()


@dataclass(frozen=True)
class Var(Expr):
    name: str

    def eval(self, bindings):
        try:
            return float(bindings[self.name])
        except KeyError:
            raise EvalError(f"unbound variable '{self.name}'") from None

    def variables(self):
        return frozenset((self.name,))


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr

    def eval(self, bindings):
        return -self.arg.eval(bindings)

    def variables(self):
        return self.arg.variables()


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr

    def eval(self, bindings):
        a = self.left.eval(bindings)
        b = self.right.eval(bindings)
        op = self.op
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if b == 0.0:
                raise EvalError("division by zero")
            return a / b
        if op == "^":
            return _power(a, b)
        raise AssertionError(f"unknown operator {op!r}")

    def variables(self):
        return self.left.variables() | self.right.variables()


@dataclass(frozen=True)
class Call(Expr):
    func: str
    args: tuple

    def eval(self, bindings):
        values = [arg.eval(bindings) for arg in self.args]
        return _FUNCTIONS[self.func][1](*values)

    def variables(self):
        out = frozenset()
        for arg in self.args:
            out |= arg.variables()
        return out


def _power(base: float, exponent: float) -> float:
    if base == 0.0 and exponent < 0:
        raise EvalError("zero raised to a negative power")
    if base < 0 and exponent != int(exponent):
        raise EvalError("negative base with non-integer exponent")
    try:
        return math.pow(base, exponent)
    except OverflowError:
        raise EvalError("overflow in power") from None


def _ln(x: float) -> float:
    if x <= 0:
        raise EvalError("ln of a non-positive value")
    return math.log(x)


def _sqrt(x: float) -> float:
    if x < 0:
        raise EvalError("sqrt of a negative value")
    return math.sqrt(x)


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        raise EvalError("overflow in exp") from None


_FUNCTIONS = {
    "sin": (1, math.sin),
    "cos": (1, math.cos),
    "tan": (1, math.tan),
    "exp": (1, _exp),
    "ln": (1, _ln),
    "sqrt": (1, _sqrt),
    "abs": (1, abs),
    "atan2": (2, math.atan2),
}


# --- parsing -----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(source: str):
    tokens = []
    pos = 0
    while pos < len(source):
        if source[pos].isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(source, pos)
        if match is None or match.end() == pos:
            raise ParseError(pos, f"unexpected character {source[pos]!r}")
        if match.group("num") is not None:
            tokens.append(("num", match.group("num"), match.start("num")))
        elif match.group("name") is not None:
            tokens.append(("name", match.group("name"), match.start("name")))
        else:
            tokens.append(("op", match.group("op"), match.start("op")))
        pos = match.end()
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.index = 0

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect_op(self, symbol: str):
        kind, text, offset = self.peek()
        if kind == "op" and text == symbol:
            return self.advance()
        raise ParseError(offset, f"expected '{symbol}'")

    # expr := term (('+'|'-') term)*
    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = BinOp(text, node, self.term())
            else:
                return node

    # term := factor (('*'|'/') factor)*
    def term(self) -> Expr:
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = BinOp(text, node, self.factor())
            else:
                return node

    # factor := '-' factor | power   (unary minus binds looser than '^')
    def factor(self) -> Expr:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    # power := atom ('^' factor)?   (right-associative, exponent may be signed)
    def power(self) -> Expr:
        node = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return BinOp("^", node, self.factor())
        return node

    def atom(self) -> Expr:
        kind, text, offset = self.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "name":
            peek_kind, peek_text, _ = self.peek()
            if peek_kind == "op" and peek_text == "(":
                return self.call(text, offset)
            return Var(text)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(offset, "expected a value")

    def call(self, name: str, offset: int) -> Expr:
        if name not in _FUNCTIONS:
            raise ParseError(offset, f"unknown function '{name}'")
        self.expect_op("(")
        args = [self.expr()]
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text == ",":
                self.advance()
                args.append(self.expr())
            else:
                break
        self.expect_op(")")
        arity = _FUNCTIONS[name][0]
        if len(args) != arity:
            raise ParseError(offset, f"'{name}' takes {arity} argument(s), got {len(args)}")
        return Call(name, tuple(args))


def parse(source: str) -> Expr:
    """Parse ``source`` into an expression tree.

    The grammar has standard precedence (``^`` right-associative above unary
    minus, above ``*``/``/``, above ``+``/``-``), parentheses and identifiers
    matching ``[A-Za-z_][A-Za-z0-9_]*``.  Raises :class:`ParseError` with the
    byte offset on malformed input.
    """
    parser = _Parser(source)
    node = parser.expr()
    kind, text, offset = parser.peek()
    if kind != "end":
        raise ParseError(offset, f"unexpected trailing input {text!r}")
    return node


# --- printing ----------------------------------------------------------------

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _format(expr: Expr, parent: int) -> str:
    if isinstance(expr, Num):
        return repr(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Call):
        return f"{expr.func}({', '.join(_format(a, 0) for a in expr.args)})"
    if isinstance(expr, Neg):
        text = "-" + _format(expr.arg, _PRECEDENCE["neg"])
        return f"({text})" if parent > _PRECEDENCE["neg"] else text
    if isinstance(expr, BinOp):
        prec = _PRECEDENCE[expr.op]
        if expr.op == "^":
            # right-associative; the printed exponent re-parses at factor level
            left = _format(expr.left, prec + 1)
            right = _format(expr.right, prec)
            text = f"{left}{expr.op}{right}"
        else:
            left = _format(expr.left, prec)
            right = _format(expr.right, prec + 1)
            text = f"{left} {expr.op} {right}"
        return f"({text})" if parent > prec else text
    raise AssertionError(f"unknown node {expr!r}")


# --- finite differences -------------------------------------------------------


def partial(expr: Union[Expr, str], var: str, bindings: Bindings, step: float = None) -> float:
    """Central-difference partial derivative of ``expr`` with respect to ``var``.

    With ``step`` omitted the default base step is used, scaled by
    ``max(1, |x|)`` at the expansion point.
    """
    if isinstance(expr, str):
        expr = parse(expr)
    if var not in bindings:
        raise EvalError(f"unbound variable '{var}'")
    x = float(bindings[var])
    if step is None:
        h = _DEFAULT_STEP * max(1.0, abs(x))
    else:
        if step <= 0:
            raise ValueError("step must be positive")
        h = float(step)
    hi = dict(bindings)
    lo = dict(bindings)
    hi[var] = x + h
    lo[var] = x - h
    return (expr.eval(hi) - expr.eval(lo)) / (2.0 * h)


def fd_partial(fn: Callable, x: np.ndarray, index: int, step: float = None):
    """Central difference of ``fn`` along coordinate ``index`` at ``x``."""
    base = _DEFAULT_STEP if step is None else float(step)
    h = base * max(1.0, abs(float(x[index])))
    hi = np.array(x, dtype=float)
    lo = np.array(x, dtype=float)
    hi[index] += h
    lo[index] -= h
    return (np.asarray(fn(hi)) - np.asarray(fn(lo))) / (2.0 * h)


def fd_gradient(fn: Callable, x: np.ndarray, step: float = None) -> np.ndarray:
    """All coordinate partials of a scalar function at ``x``."""
    x = np.asarray(x, dtype=float)
    return np.array([fd_partial(fn, x, i, step) for i in range(x.size)])


def fd_directional(fn: Callable, x: np.ndarray, direction: np.ndarray, step: float = None):
    """Central-difference directional derivative of ``fn`` along ``direction``.

    Equals ``direction . grad fn`` for scalar ``fn`` and the Jacobian-vector
    product for vector-valued ``fn``; only two evaluations either way.
    """
    x = np.asarray(x, dtype=float)
    direction = np.asarray(direction, dtype=float)
    scale = max(1.0, float(np.max(np.abs(direction)))) if direction.size else 1.0
    base = _DEFAULT_STEP if step is None else float(step)
    h = base * max(1.0, float(np.max(np.abs(x))) if x.size else 1.0) / scale
    hi = np.asarray(fn(x + h * direction))
    lo = np.asarray(fn(x - h * direction))
    return (hi - lo) / (2.0 * h)
