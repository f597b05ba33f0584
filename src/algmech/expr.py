"""Scalar expression language, its exact derivatives and compiled tables, and
the finite-difference helpers for everything else.

Expressions are immutable trees over real literals, named variables, the
arithmetic operators ``+ - * / ^`` (with ``^`` right-associative), unary
negation and a fixed catalogue of functions.  Evaluation is pure: given a
binding for every free variable it touches nothing else, so expressions can
be shared freely across threads.  ``Expr.eval`` is the reference semantics.
Every pass over a tree (evaluation, printing, derivatives, compilation) is a
loop over one walk with its own stack, :func:`_postorder`, so no pass depends
on the depth of the tree or of the Python stack.  :func:`parse` climbs the
printer's precedence table, so a printed tree parses back to itself, and as
a policy on documents it rejects a tree of more than ``_MAX_DEPTH`` levels.
:func:`diff` is the one derivative mechanism: it turns a tree into the tree
of its partial derivative.  :func:`_compile_table` turns a table of
expressions into one straight-line Python function with bitwise-equal
results and, on request, a second one that also returns the table's
Jacobian, emitted from the ``diff`` trees by the same code generator.
:func:`_compile_stack` runs the same straight-line code in a loop over a
stack of points; a table compiles that loop only once its stacks have
brought it enough points to pay for the compile.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

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
    "diff",
    "partial",
    "fd_partial",
    "fd_gradient",
    "fd_directional",
]

Bindings = Mapping[str, float]

# Finite-difference base step; fd_directional is the only reader.
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
    """Abstract syntax tree node.  Subclasses are frozen dataclasses.

    ``==`` and ``repr`` are those a dataclass generates, and ``hash`` agrees
    with that ``==``.  They, ``eval``, ``str`` and ``variables`` are loops
    over the tree rather than one Python call per level, so they finish on a
    tree of any depth, called from any depth of the Python stack.
    """

    __slots__ = ()

    def eval(self, bindings: Bindings) -> float:
        """The value with the free variables bound by ``bindings``; raises
        ``EvalError`` at the first node, in post-order, that fails."""
        values = {}  # node -> its value; every node is alive in the tree
        for node in _postorder((self,)):
            values[id(node)] = _evaluate(node, values, bindings)
        return values[id(self)]

    def variables(self) -> frozenset:
        """Free variables of the expression."""
        return frozenset(_free_variables([self]))

    def __str__(self) -> str:
        return _format(self)

    def __eq__(self, other):
        """Structural equality: the same node types, operators, names and
        ``==`` values, compared field by field as a dataclass compares them
        (so ``Num(0.0) == Num(-0.0)``); ``NotImplemented`` against an
        object of another type."""
        if type(other) is not type(self):
            return NotImplemented
        pending, seen = [(self, other)], set()  # every node is alive in the trees
        while pending:
            a, b = pending.pop()
            if a is b or (id(a), id(b)) in seen:
                continue
            seen.add((id(a), id(b)))
            kind = type(a)
            if type(b) is not kind:
                return False
            if kind is Num or kind is Var:
                x, y = (a.value, b.value) if kind is Num else (a.name, b.name)
                if not (x is y or x == y):
                    return False
            elif kind is Neg:
                pending.append((a.arg, b.arg))
            elif kind is BinOp:
                if a.op != b.op:
                    return False
                pending += [(a.right, b.right), (a.left, b.left)]
            elif (a.func != b.func or type(a.args) is not type(b.args)
                  or len(a.args) != len(b.args)):
                return False
            else:
                pending += reversed(list(zip(a.args, b.args)))
        return True

    def __hash__(self) -> int:
        """A hash that agrees with ``==``: of the node types, operators,
        names and values (``hash(0.0) == hash(-0.0)``)."""
        hashes = {}  # node -> its hash; every node is alive in the tree
        for node in _postorder((self,)):
            kind = type(node)
            own = (node.value if kind is Num else node.name if kind is Var
                   else node.op if kind is BinOp else node.func if kind is Call else None)
            below = ((node.left, node.right) if kind is BinOp else (node.arg,) if kind is Neg
                     else node.args if kind is Call else ())
            hashes[id(node)] = hash((kind, own, *[hashes[id(child)] for child in below]))
        return hashes[id(self)]

    def __repr__(self) -> str:
        """The dataclass form, such as ``BinOp(op='+', left=Var(name='x'),
        right=Num(value=1.0))``; a subtree shared by several parents is
        written at each."""
        text = {}  # node -> its repr; every node is alive in the tree
        for node in _postorder((self,)):
            kind = type(node)
            if kind is Num:
                text[id(node)] = f"Num(value={node.value!r})"
            elif kind is Var:
                text[id(node)] = f"Var(name={node.name!r})"
            elif kind is Neg:
                text[id(node)] = f"Neg(arg={text[id(node.arg)]})"
            elif kind is BinOp:
                left, right = text[id(node.left)], text[id(node.right)]
                text[id(node)] = f"BinOp(op={node.op!r}, left={left}, right={right})"
            else:
                args = ", ".join([text[id(arg)] for arg in node.args])
                tail = "," if len(node.args) == 1 else ""
                args = f"[{args}]" if isinstance(node.args, list) else f"({args}{tail})"
                text[id(node)] = f"Call(func={node.func!r}, args={args})"
        return text[id(self)]


def _postorder(roots: Sequence[Expr], operands: Callable = None) -> list:
    """The nodes of the trees under ``roots``, each once (by identity) and
    after its operands, left to right, a shared subtree at its first place:
    the order of a recursive walk, on a stack of its own.  ``operands(node)``
    are the operands walked under a node, all of them where it returns None
    (by default); a node with none is a leaf."""
    order, seen = [], set()  # every node is alive in `roots`
    pending = list(roots)[::-1]
    while pending:
        node = pending.pop()
        if node is None:  # marks that the node below it has its operands done
            order.append(pending.pop())
        elif id(node) not in seen:
            seen.add(id(node))
            kind = type(node)
            below = operands(node) if operands else None
            if below:
                pending += (node, None, *below[::-1])
            elif below is not None or kind is Num or kind is Var:
                order.append(node)
            elif kind is BinOp:
                pending += (node, None, node.right, node.left)
            elif kind is Neg:
                pending += (node, None, node.arg)
            else:
                pending += (node, None, *node.args[::-1])
    return order


# Each node keeps Expr's ==, hash and repr.
@dataclass(frozen=True, eq=False, repr=False)
class Num(Expr):
    value: float


@dataclass(frozen=True, eq=False, repr=False)
class Var(Expr):
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True, eq=False, repr=False)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False, repr=False)
class Call(Expr):
    func: str
    args: tuple


def _free_variables(exprs: Sequence[Expr]) -> set:
    """The free variables of a table of expressions."""
    return {node.name for node in _postorder(exprs) if type(node) is Var}


def _evaluate(node: Expr, values: dict, bindings: Bindings):
    """One step of ``Expr.eval`` and of the compiler's folding: the value of
    ``node`` from its operands' in ``values``, by identity, or ``bindings``."""
    kind = type(node)
    if kind is Num:
        return node.value
    if kind is Var:
        try:
            return float(bindings[node.name])
        except KeyError:
            raise EvalError(f"unbound variable '{node.name}'") from None
    if kind is Neg:
        return -values[id(node.arg)]
    if kind is BinOp:
        return _OPERATORS[node.op][0](values[id(node.left)], values[id(node.right)])
    fn = (_FUNCTIONS.get(node.func) or _DERIVATIVE_FUNCTIONS[node.func])[1]
    return fn(*[values[id(arg)] for arg in node.args])


def _div(a: float, b: float) -> float:
    if b == 0.0:
        raise EvalError("division by zero")
    return a / b


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


# Each binary operator as a function of two values and as code over two names;
# division and powers call the same helpers in both, which raise EvalError.
_OPERATORS = {
    "+": (lambda a, b: a + b, "{} + {}"),
    "-": (lambda a, b: a - b, "{} - {}"),
    "*": (lambda a, b: a * b, "{} * {}"),
    "/": (_div, "_div({}, {})"),
    "^": (_power, "_power({}, {})"),
}

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
    r"(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^(),])"
    r"|(?P<space>\s+)"
    r"|(?P<bad>.)",
    re.DOTALL,
)


def _tokenize(source: str):
    tokens = []
    for match in _TOKEN_RE.finditer(source):
        kind = match.lastgroup
        if kind == "space":
            continue
        if kind == "bad":
            raise ParseError(match.start(), f"unexpected character {match.group()!r}")
        tokens.append((kind, match.group(), match.start()))
    tokens.append(("end", "", len(source)))
    return tokens


# Binding power and associativity of each operator, unary minus as "neg".  The
# parser climbs this table and the printer parenthesizes by it, so a printed
# tree parses back to itself.
_PRECEDENCE = {"+": (1, "left"), "-": (1, "left"), "*": (2, "left"), "/": (2, "left"),
               "neg": (3, "right"), "^": (4, "right")}

# The most levels a parsed tree may have: a bound on the documents the
# loader accepts, not on what the walks of a tree can finish.
_MAX_DEPTH = 300


def _floor(op: str, side: str) -> int:
    """The least binding power of an operand of ``op`` on ``side`` ("left"
    or "right") written without parentheses: the operator's own on its
    associative side, one more on the other."""
    power, assoc = _PRECEDENCE[op]
    return power if side == assoc else power + 1


class _Parser:
    """Precedence climbing over ``_PRECEDENCE``, one Python frame per level
    of nesting: an operator, a call or a pair of parentheses.

    A tree of more than ``_MAX_DEPTH`` levels raises ``ParseError``, and so
    does nesting deeper than ``2 * _MAX_DEPTH``, which a tree within the
    bound reaches only inside more than ``_MAX_DEPTH`` pairs of parentheses.
    """

    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.index = 0

    def expect_op(self, symbol: str):
        kind, text, offset = self.tokens[self.index]
        if kind != "op" or text != symbol:
            raise ParseError(offset, f"expected '{symbol}'")
        self.index += 1

    def binary(self, floor: int, nesting: int):
        """The expression at the cursor whose operators bind at least as
        tightly as ``floor``, and the number of levels of its tree."""
        kind, text, offset = self.tokens[self.index]
        self.index += 1
        if nesting > 2 * _MAX_DEPTH:
            raise ParseError(offset, f"expression nested deeper than {2 * _MAX_DEPTH} levels")
        if kind == "num":
            node, height = Num(float(text)), 1
        elif kind == "name" and self.tokens[self.index][1] != "(":
            node, height = Var(text), 1
        elif kind == "name":
            if text not in _FUNCTIONS:
                raise ParseError(offset, f"unknown function '{text}'")
            self.index += 1
            args = [self.binary(0, nesting + 1)]
            while self.tokens[self.index][1] == ",":
                self.index += 1
                args.append(self.binary(0, nesting + 1))
            self.expect_op(")")
            nodes, heights = zip(*args)
            arity = _FUNCTIONS[text][0]
            if len(nodes) != arity:
                raise ParseError(offset, f"'{text}' takes {arity} argument(s), got {len(nodes)}")
            node, height = Call(text, nodes), max(heights) + 1
        elif text == "-":
            arg, height = self.binary(_floor("neg", "right"), nesting + 1)
            node, height = Neg(arg), height + 1
        elif text == "(":
            node, height = self.binary(0, nesting + 1)
            self.expect_op(")")
        else:
            raise ParseError(offset, "expected a value")
        while True:
            if height > _MAX_DEPTH:
                raise ParseError(offset, f"expression deeper than {_MAX_DEPTH} levels")
            kind, text, offset = self.tokens[self.index]
            if kind != "op" or text not in _PRECEDENCE or _PRECEDENCE[text][0] < floor:
                return node, height
            self.index += 1
            right, right_height = self.binary(_floor(text, "right"), nesting + 1)
            node, height = BinOp(text, node, right), max(height, right_height) + 1


def parse(source: str) -> Expr:
    """Parse ``source`` into an expression tree.

    The grammar has standard precedence (``^`` right-associative above unary
    minus, above ``*``/``/``, above ``+``/``-``), parentheses and identifiers
    matching ``[A-Za-z_][A-Za-z0-9_]*``.  Raises :class:`ParseError` with the
    byte offset on malformed input and on a tree of more than
    ``_MAX_DEPTH`` levels.
    """
    parser = _Parser(source)
    node, _ = parser.binary(0, 0)
    kind, text, offset = parser.tokens[parser.index]
    if kind != "end":
        raise ParseError(offset, f"unexpected trailing input {text!r}")
    return node


# --- printing ----------------------------------------------------------------


def _format(expr: Expr) -> str:
    text = {}  # node -> its text; every node is alive in `expr`
    for node in _postorder((expr,)):
        kind = type(node)
        if kind is Num:
            text[id(node)] = repr(node.value)
        elif kind is Var:
            text[id(node)] = node.name
        elif kind is Call:
            text[id(node)] = f"{node.func}({', '.join([text[id(arg)] for arg in node.args])})"
        elif kind is Neg:
            text[id(node)] = "-" + _operand_text(node.arg, text, _floor("neg", "right"))
        else:
            left = _operand_text(node.left, text, _floor(node.op, "left"))
            right = _operand_text(node.right, text, _floor(node.op, "right"))
            text[id(node)] = f"{left}^{right}" if node.op == "^" else f"{left} {node.op} {right}"
    return text[id(expr)]


def _operand_text(node: Expr, text: dict, floor: int) -> str:
    """The text of an operand, parenthesized where its operator binds less
    tightly than ``floor``."""
    kind = type(node)
    op = node.op if kind is BinOp else "neg" if kind is Neg else None
    return f"({text[id(node)]})" if op and floor > _PRECEDENCE[op][0] else text[id(node)]


# --- derivatives ----------------------------------------------------------------

# The structural zero and one of the derivative rules.  The rules test for them
# by identity, so a literal 0 or 1 written in an expression never counts as one.
_ZERO = Num(0.0)
_ONE = Num(1.0)


def _dabs(x: float) -> float:
    if x == 0.0:
        raise EvalError("abs is not differentiable at 0")
    return 1.0 if x > 0 else -1.0


def _dsqrt(root: float) -> float:
    """Derivative of sqrt from the value of the root."""
    if root == 0.0:
        raise EvalError("sqrt is not differentiable at 0")
    return 0.5 / root


def _sqnorm(y: float, x: float) -> float:
    """``y^2 + x^2``, the denominator of the derivative of ``atan2(y, x)``."""
    out = y * y + x * x
    if out == 0.0:
        raise EvalError("atan2 is not differentiable at the origin")
    return out


# Functions only derivative trees call, which raise at the kinks of abs, sqrt
# and atan2; evaluation and the compiler accept them, the parser does not.
_DERIVATIVE_FUNCTIONS = {
    "_dabs": (1, _dabs),
    "_dsqrt": (1, _dsqrt),
    "_sqnorm": (2, _sqnorm),
}

# d f(u) = f'(u) du, the weight f'(u) built from the argument u and the node f(u).
_WEIGHTS = {
    "sin": lambda u, f: Call("cos", (u,)),
    "cos": lambda u, f: Neg(Call("sin", (u,))),
    "tan": lambda u, f: BinOp("+", Num(1.0), BinOp("*", f, f)),
    "exp": lambda u, f: f,
    "sqrt": lambda u, f: Call("_dsqrt", (f,)),
    "abs": lambda u, f: Call("_dabs", (u,)),
}


def _plus(u: Expr, v: Expr) -> Expr:
    if u is _ZERO or v is _ZERO:
        return v if u is _ZERO else u
    return BinOp("+", u, v)


def _minus(u: Expr, v: Expr) -> Expr:
    if v is _ZERO:
        return u
    return Neg(v) if u is _ZERO else BinOp("-", u, v)


def _times(du: Expr, weight: Expr) -> Expr:
    """A derivative times a weight."""
    if du is _ZERO or du is _ONE:
        return weight if du is _ONE else _ZERO
    return BinOp("*", du, weight)


def _literal(node: Expr):
    return node.value if type(node) is Num else None


def diff(node: Expr, var: str, constant: Callable[[Expr], object] = _literal) -> Expr:
    """The partial derivative of ``node`` with respect to ``var``, as a tree.

    Subtrees free of ``var`` contribute nothing, a derivative of one is not
    multiplied, and subtrees of ``node`` are reused: the quotient in
    ``d(a/b) = (da - (a/b) db) / b``, ``tan`` in ``1 + tan^2``, ``exp``, and
    ``a^b`` in ``(db ln(a) + da b/a) a^b`` when the exponent reads ``var``.
    ``constant(sub)`` is the value of a subtree known to be constant, else
    None (by default a literal's value).  Such a subtree is not walked, and
    as an exponent ``c`` it gives ``c a^(c-1) da``, or ``0``, ``da`` and
    ``2 a da`` for 0, 1 and 2; any other exponent free of ``var`` gives
    ``b a^(b-1) da``.

    Evaluating the tree raises ``EvalError`` at a kink, where the value
    exists but the derivative does not: ``abs`` and ``sqrt`` at 0 and
    ``atan2`` at the origin (tested by the derivative-only functions, which
    have no rule themselves), a constant exponent below one at a zero base,
    and an exponent that reads ``var`` at a base ``<= 0`` (``ln`` of it).
    """
    def operands(sub: Expr):
        # What the rule below reads: no operand of a constant, of a call only
        # its argument, or both of atan2, and all of any other node (None).
        if constant(sub) is not None:
            return ()
        return sub.args[:1] if type(sub) is Call and sub.func != "atan2" else None

    derivatives = {}  # node -> its derivative; every node is alive in `node`
    for sub in _postorder((node,), operands):
        derivatives[id(sub)] = (_ZERO if constant(sub) is not None
                                else _rule(sub, var, constant, derivatives))
    return derivatives[id(node)]


def _rule(sub: Expr, var: str, constant: Callable, derivatives: dict) -> Expr:
    """The derivative of a non-constant node from its operands' (see :func:`diff`)."""
    kind = type(sub)
    if kind is BinOp:
        a, b = sub.left, sub.right
        da, db = derivatives[id(a)], derivatives[id(b)]
        if da is _ZERO and db is _ZERO:
            return _ZERO
        if sub.op == "+":
            return _plus(da, db)
        if sub.op == "-":
            return _minus(da, db)
        if sub.op == "*":
            return _plus(_times(da, b), _times(db, a))
        if sub.op == "/":
            # b != 0 wherever the value exists
            return BinOp("/", _minus(da, _times(db, sub)), b)
        if db is not _ZERO:
            # ln raises for a base <= 0
            return _times(_plus(_times(db, Call("ln", (a,))), _times(da, BinOp("/", b, a))), sub)
        c = constant(b)
        if c is None:
            return _times(da, BinOp("*", b, BinOp("^", a, BinOp("-", b, Num(1.0)))))
        if c == 0.0:
            return _ZERO
        if c == 1.0:
            return da
        if c == 2.0:
            return _times(da, BinOp("*", b, a))
        return _times(da, BinOp("*", b, BinOp("^", a, Num(c - 1.0))))
    if kind is Var:
        return _ONE if sub.name == var else _ZERO
    if kind is Num:
        return _ZERO
    if kind is Neg:
        return _minus(_ZERO, derivatives[id(sub.arg)])
    u, du = sub.args[0], derivatives[id(sub.args[0])]
    if sub.func == "atan2":
        # d atan2(y, x) = (x dy - y dx) / (y^2 + x^2)
        x, dx = sub.args[1], derivatives[id(sub.args[1])]
        if du is _ZERO and dx is _ZERO:
            return _ZERO
        norm = Call("_sqnorm", (u, x))
        return _plus(_times(du, BinOp("/", x, norm)), _times(dx, BinOp("/", Neg(u), norm)))
    if du is _ZERO:
        return _ZERO
    if sub.func == "ln":
        return BinOp("/", du, u)
    if sub.func not in _WEIGHTS:
        raise ExprError(f"no derivative rule for '{sub.func}'")
    return _times(du, _WEIGHTS[sub.func](u, sub))


def partial(expr: Union[Expr, str], var: str, bindings: Bindings) -> float:
    """Exact partial derivative of ``expr`` with respect to ``var`` at ``bindings``.

    The Jacobian entry of a table compiled over the one coordinate ``var``,
    so bitwise the tree-walk of its :func:`diff` tree.  It raises where the
    value fails and, at a kink, ``EvalError``.
    """
    if isinstance(expr, str):
        expr = parse(expr)
    if var not in bindings:
        raise EvalError(f"unbound variable '{var}'")
    value_and_jacobian = _compile_table([expr], (var,), bindings, jacobian=True, shape=())[1]
    return float(value_and_jacobian([float(bindings[var])])[1][0])


# --- compiled tables ----------------------------------------------------------

def _compile_table(exprs: Sequence[Expr], coords: Sequence[str], params: Bindings,
                   jacobian: bool = False, shape: tuple = None):
    """Compile a table of expressions into one function of a point.

    The function takes one value per name in ``coords`` and returns the
    entries, row-major, as a fresh, writable, C-contiguous float64 array of
    the table's ``shape`` (flat when it is omitted), built on their bytes,
    so no caller reshapes it.  The values are bitwise those of
    :meth:`Expr.eval` with the coordinates bound over ``params``, and an
    entry that fails raises what the tree-walk raises, at the same entry.
    The generated code is straight-line, one assignment per distinct node,
    written by one post-order pass over the entries:

    * each subtree free of coordinates is evaluated here, once, by the
      steps of ``Expr.eval``, and named as a constant when a parent or an
      entry first reads it; one that raises stays in the code and raises
      per call;
    * a repeated subtree is computed once;
    * division, ``^`` and the functions call the tree-walk's helpers.

    When every entry folds, no code is generated and the function returns
    a copy of the folded values.  Otherwise each function keeps its code,
    from which :func:`_compile_stack` compiles its stacked form on request.

    With ``jacobian`` a second function is compiled beside the first, and
    the pair ``(values, value_and_jacobian)`` is returned; ``values`` is the
    function above, unchanged.  ``value_and_jacobian`` runs the same value
    code and returns the values with their ``(*shape, len(coords))``
    Jacobian.  Its entries are the :func:`diff` trees of each entry by the
    coordinates it reads, told which subtrees fold to constants here, and
    emitted like the values by one more pass, which stops at the nodes the
    first one handled: each is bitwise its tree's ``Expr.eval``.  A value
    that fails raises as above; otherwise the Jacobian raises ``EvalError``
    at a kink (listed at :func:`diff`), at the first failing entry in
    row-major order.
    """
    coord_names = {name: f"c{i}" for i, name in enumerate(coords)}
    bits = {name: 1 << i for i, name in enumerate(coords)}
    fails = 1 << len(coords)
    size = len(exprs) * len(coords)
    shape = (len(exprs),) if shape is None else tuple(map(int, shape))
    jacobian_shape = (*shape, len(coords))
    env = dict(params)
    namespace = {"_div": _div, "_power": _power, "_params": env, "_zeros": np.zeros,
                 "_ndarray": np.ndarray, "_float": np.dtype(float),
                 "_frombuffer": np.frombuffer,
                 "_pack": struct.Struct(f"{len(exprs)}d").pack}
    namespace.update((f"_f_{name}", fn)
                     for name, (_, fn) in {**_FUNCTIONS, **_DERIVATIVE_FUNCTIONS}.items())
    constants = {}  # exact key of a value -> its name in `namespace`
    temporaries = {}  # right-hand side -> the local assigned it
    lines = []
    # Keyed by node identity; every node is alive in `exprs` or `derivatives`.
    masks = {}  # node -> the bits of the coordinates it reads, and `fails` if it does not fold
    values = {}  # node -> its value, for a node that folds (a mask of 0)
    names = {}  # node -> the name holding its value in the code
    derivatives = {}  # flat index of a Jacobian entry, in row-major order -> its tree

    def constant(value) -> str:
        # Bits, not ==, so that 0.0 and -0.0 stay apart (atan2 tells them apart).
        key = (type(value), struct.pack("<d", value) if isinstance(value, float) else value)
        if key not in constants:
            constants[key] = f"k{len(constants)}"
            namespace[constants[key]] = value
        return constants[key]

    def assign(rhs: str) -> str:
        if rhs not in temporaries:
            temporaries[rhs] = f"t{len(temporaries)}"
            lines.append(f"    {temporaries[rhs]} = {rhs}")
        return temporaries[rhs]

    def named(node) -> str:
        # A node that folds is named as a constant when first needed.
        key = id(node)
        if key not in names:
            names[key] = constant(values[key])
        return names[key]

    def walk(roots, operands=None):
        """One pass over the nodes under ``roots`` not seen before: the mask
        of each, the value of one that reads no coordinate and evaluates
        here, and the line of every other."""
        for node in _postorder(roots, operands):
            key = id(node)
            if key in masks:
                continue
            kind = type(node)
            mask = bits.get(node.name, 0) if kind is Var else 0
            if kind is BinOp:
                mask = masks[id(node.left)] | masks[id(node.right)]
            elif kind is Neg:
                mask = masks[id(node.arg)]
            elif kind is Call:
                for arg in node.args:
                    mask |= masks[id(arg)]
            if not mask:
                try:
                    values[key] = _evaluate(node, values, env)
                except (ArithmeticError, TypeError, ValueError):
                    mask = fails  # raises at call time, as in the tree-walk
            masks[key] = mask
            if not mask:
                continue
            if kind is Var:
                # A coordinate shadows a parameter of the same name; any other
                # is unbound, or a parameter float() rejects: raise per call.
                names[key] = (coord_names[node.name] if node.name in coord_names
                              else assign(f"{constant(node)}.eval(_params)"))
            elif kind is Neg:
                names[key] = assign(f"-{named(node.arg)}")
            elif kind is BinOp:
                names[key] = assign(_OPERATORS[node.op][1].format(named(node.left),
                                                                  named(node.right)))
            else:
                args = ", ".join([named(arg) for arg in node.args])
                names[key] = assign(f"_f_{node.func}({args})")

    walk(exprs)
    if not any([masks[id(e)] for e in exprs]):
        # Copying a stored array is about twice as fast as building one (3
        # entries: 0.20 against 0.44 us, CPython 3.11, numpy 2.4); a battery
        # makes thousands of calls of constant control sections and metrics.
        stored = np.array([values[id(e)] for e in exprs]).reshape(shape)
        if not jacobian:
            return lambda point: stored.copy()
        # No entry reads a coordinate, so every partial vanishes.
        return ((lambda point: stored.copy()),
                (lambda point: (stored.copy(), np.zeros(jacobian_shape))))
    results = [named(e) for e in exprs]
    # The coordinates unpacked from a point: the target of the assignment
    # here and of the loop of the stacked form (_compile_stack).
    targets = f"{', '.join(coord_names.values())}," if coord_names else "_"
    unpack = [f"    {targets} = point"] if coord_names else []
    # The entries packed into the bytes of a fresh array of the table's
    # shape: for the 45-51 of a Koszul table half the cost of an array built
    # from a list; of 1-3 entries, ~0.05-0.1 us more.  Built in its shape,
    # it costs ~0.5 us for 9 entries against ~0.7 us for frombuffer and a
    # reshape (CPython 3.11, numpy 2.4).
    result = f"_ndarray({shape!r}, _float, bytearray(_pack({', '.join(results)})))"
    source = ["def _table(point):", *unpack, *lines, f"    return {result}"]
    kept = (targets, "\n".join(lines), ", ".join(results))  # the Jacobian's lines follow
    if jacobian:
        # diff walks no subtree that folds here; only the entries that are not
        # structurally zero are listed, and the rest of the Jacobian stays zero.
        def folded(node: Expr):
            return values.get(id(node))

        for row, e in enumerate(exprs):
            for i, name in enumerate(coords):
                if masks[id(e)] & bits[name]:
                    tree = diff(e, name, folded)
                    if tree is not _ZERO:
                        derivatives[row * len(coords) + i] = tree
        walk(derivatives.values(), lambda node: () if id(node) in masks else None)
        entries = [named(tree) for tree in derivatives.values()]
        namespace["_nonzero"] = np.array(list(derivatives), dtype=int)
        namespace["_pack_nonzero"] = struct.Struct(f"{len(entries)}d").pack
        source += ["def _table_jacobian(point):", *unpack, *lines,
                   f"    _jacobian = _zeros({jacobian_shape!r})",
                   "    _jacobian.ravel()[_nonzero] = "
                   f"_frombuffer(_pack_nonzero({', '.join(entries)}))",
                   f"    return {result}, _jacobian"]
    # Defined outside their globals, so a function and its namespace form no
    # reference cycle and are freed as soon as the table is dropped.
    scope = {}
    exec(compile("\n".join(source), "<expression table>", "exec"), namespace, scope)
    scope["_table"].kept = kept
    if not jacobian:
        return scope["_table"]
    scope["_table_jacobian"].kept = kept[:1] + ("\n".join(lines), kept[2], ", ".join(entries), size)
    return scope["_table"], scope["_table_jacobian"]


def _compile_stack(table: Callable) -> Callable:
    """The stacked form of a values or ``value_and_jacobian`` function of
    :func:`_compile_table`.

    It takes a list of points, each a list of one value per coordinate, and
    returns the entries at every point in point order as one flat array;
    the stacked ``value_and_jacobian`` returns that array and the
    ``(N, len(exprs) * len(coords))`` Jacobians, one row per point.  It
    runs the function's straight-line code, kept with it, in a loop over
    the points, so each entry is bitwise the function's at that point, and
    the first point where an entry fails raises what the function raises
    there.  ``algebroid._ExprTable`` compiles it once a table's stacks pay
    for it.  A table whose entries all fold has no code, and its stack
    repeats the folded values (and the zero Jacobian), flattened.
    """
    if not hasattr(table, "kept"):
        folded = table(None)
        if isinstance(folded, tuple):
            values, jacobian = folded
            return lambda points: (np.tile(values.ravel(), len(points)),
                                   np.tile(jacobian.ravel(), (len(points), 1)))
        return lambda points: np.tile(folded.ravel(), len(points))
    targets, lines, results, *derivative = table.kept
    # Each point's entries packed into bytes, the rows joined: an array of a
    # few bytes objects costs a fraction of one of as many floats.
    source = ["def _table_stack(points):", "    _out = []", "    _append = _out.append"]
    if derivative:
        entries, size = derivative
        source += ["    _rows = []", "    _append_row = _rows.append"]
    source += [f"    for {targets} in points:", "    " + lines.replace("\n", "\n    "),
               f"        _append(_pack({results}))"]
    values = "_frombuffer(bytearray().join(_out))"
    if not derivative:
        source.append(f"    return {values}")
    else:
        if entries:
            source.append(f"        _append_row(_pack_nonzero({entries}))")
        source += [f"    _jacobian = _zeros((len(points), {size}))"]
        if entries:
            source.append("    _jacobian[:, _nonzero] = "
                          "_frombuffer(b''.join(_rows)).reshape(-1, len(_nonzero))")
        source.append(f"    return {values}, _jacobian")
    scope = {}
    exec(compile("\n".join(source), "<stacked expression table>", "exec"), table.__globals__, scope)
    return scope["_table_stack"]


# --- finite differences -------------------------------------------------------


def _finite(*arrays) -> bool:
    """Whether every entry of the arrays is finite.

    Tested before arithmetic on a value that may not be finite: there the
    result is undefined, and 0 * inf would only warn on its way to NaN.
    """
    # Python floats: at these sizes a fraction of the cost of np.isfinite.
    for a in arrays:
        if not all(map(math.isfinite, a.ravel().tolist())):
            return False
    return True


def fd_partial(fn: Callable, x: np.ndarray, index: int, step: float = None):
    """Central difference of ``fn`` along coordinate ``index`` at ``x``."""
    return fd_directional(fn, x, np.eye(np.size(x))[index], step)


def fd_gradient(fn: Callable, x: np.ndarray, step: float = None) -> np.ndarray:
    """All coordinate partials of a scalar function at ``x``."""
    return np.array([fd_directional(fn, x, unit, step) for unit in np.eye(np.size(x))])


def fd_directional(fn: Callable, x: np.ndarray, direction: np.ndarray, step: float = None):
    """Central-difference directional derivative of ``fn`` along ``direction``.

    Equals ``direction . grad fn`` for scalar ``fn`` and the Jacobian-vector
    product for array-valued ``fn``; only two evaluations either way.  This is
    the one step rule of the package: the base step (``step``, default
    ``1e-6``) is scaled by ``max(1, |x|_inf) / max(1, |direction|_inf)``.
    Where ``x``, ``direction`` or either value is not finite the derivative
    is NaN, shaped as the values, and no difference is taken.
    """
    base = _DEFAULT_STEP if step is None else float(step)
    if not base > 0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=float)
    direction = np.asarray(direction, dtype=float)
    if not _finite(x, direction):
        return np.full(np.shape(fn(x)), np.nan)[()]
    # Python max: at these few coordinates a numpy reduction costs more.
    h = base * max([1.0, *np.abs(x).tolist()]) / max([1.0, *np.abs(direction).tolist()])
    shift = h * direction
    ahead, behind = np.asarray(fn(x + shift)), np.asarray(fn(x - shift))
    if not _finite(ahead, behind):
        return np.full(ahead.shape, np.nan)[()]
    return (ahead - behind) / (2.0 * h)
