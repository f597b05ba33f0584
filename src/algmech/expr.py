"""Scalar expression language, its exact derivatives and compiled tables, and
the finite-difference helpers for everything else.

Expressions are immutable trees over real literals, named variables, the
arithmetic operators ``+ - * / ^`` (with ``^`` right-associative), unary
negation and a fixed catalogue of functions.  Evaluation is pure: given a
binding for every free variable it touches nothing else, so expressions can
be shared freely across threads.  ``Expr.eval`` walks the tree and is the
reference semantics.  :func:`diff` is the one derivative mechanism: it turns
a tree into the tree of its partial derivative.  :func:`_compile_table` turns
a table of expressions into one straight-line Python function with
bitwise-equal results and, on request, a second one that also returns the
table's Jacobian, emitted from the ``diff`` trees by the same code generator.
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
            return _div(a, b)
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
        return (_FUNCTIONS.get(self.func) or _DERIVATIVE_FUNCTIONS[self.func])[1](*values)

    def variables(self):
        out = frozenset()
        for arg in self.args:
            out |= arg.variables()
        return out


def _free_variables(exprs: Sequence[Expr]) -> set:
    """The free variables of a table of expressions, each shared subtree
    walked once (``Expr.variables`` walks it once per parent)."""
    names, seen = set(), set()
    stack = list(exprs)
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Var:
            names.add(node.name)
        elif kind is Num or id(node) in seen:  # every node is alive in `exprs`
            continue
        else:
            seen.add(id(node))
            if kind is BinOp:
                stack += (node.left, node.right)
            elif kind is Neg:
                stack.append(node.arg)
            elif kind is Call:
                stack += node.args
            else:
                names |= node.variables()
    return names


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
    memo = {}  # keyed by node identity; every node is alive in `node`

    def d(sub: Expr) -> Expr:
        key = id(sub)
        if key not in memo:
            memo[key] = _ZERO if constant(sub) is not None else rule(sub)
        return memo[key]

    def rule(sub: Expr) -> Expr:
        kind = type(sub)
        if kind is BinOp:
            a, b = sub.left, sub.right
            da, db = d(a), d(b)
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
            return _minus(_ZERO, d(sub.arg))
        if kind is Call:
            u, du = sub.args[0], d(sub.args[0])
            if sub.func == "atan2":
                # d atan2(y, x) = (x dy - y dx) / (y^2 + x^2)
                x, dx = sub.args[1], d(sub.args[1])
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
        raise AssertionError(f"unknown node {sub!r}")

    return d(node)


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
    value_and_jacobian = _compile_table([expr], (var,), bindings, jacobian=True)[1]
    return float(value_and_jacobian([float(bindings[var])])[1][0])


# --- compiled tables ----------------------------------------------------------

# Binary operators as code over two operand names; division and powers go
# through the tree-walk's helpers, so they raise the same EvalError.
_OPERATOR_CODE = {
    "+": "{} + {}",
    "-": "{} - {}",
    "*": "{} * {}",
    "/": "_div({}, {})",
    "^": "_power({}, {})",
}


def _compile_table(exprs: Sequence[Expr], coords: Sequence[str], params: Bindings,
                   jacobian: bool = False):
    """Compile a table of expressions into one function of a point.

    The function takes one value per name in ``coords`` and returns the
    entries as a flat array.  The values are bitwise those of
    :meth:`Expr.eval` with the coordinates bound over ``params``, and an
    entry that fails raises what the tree-walk raises, at the same entry.
    The generated code is straight-line, one assignment per distinct node:

    * each subtree free of coordinates is evaluated here, once, with
      ``Expr.eval``; one that raises stays in the code and raises per call;
    * a repeated subtree is computed once;
    * division, ``^`` and the functions call the tree-walk's helpers.

    When every entry folds, no code is generated and the function returns
    a copy of the folded values.

    With ``jacobian`` a second function is compiled beside the first, and
    the pair ``(values, value_and_jacobian)`` is returned; ``values`` is the
    function above, unchanged.  ``value_and_jacobian`` runs the same value
    code and returns the values with the flat row-major
    ``(len(exprs), len(coords))`` Jacobian.  Its entries are the :func:`diff`
    trees of each entry by the coordinates it reads, told which subtrees
    fold to constants here, and emitted like the values: each is bitwise its
    tree's ``Expr.eval``.  A value that fails raises as above; otherwise the
    Jacobian raises ``EvalError`` at a kink (listed at :func:`diff`), at the
    first failing entry in row-major order.
    """
    coord_names = {name: f"c{i}" for i, name in enumerate(coords)}
    env = dict(params)
    namespace = {"_div": _div, "_power": _power, "_array": np.array, "_params": env,
                 "_zeros": np.zeros}
    namespace.update((f"_f_{name}", fn)
                     for name, (_, fn) in {**_FUNCTIONS, **_DERIVATIVE_FUNCTIONS}.items())
    constants = {}  # exact key of a value -> its name in `namespace`
    temporaries = {}  # right-hand side -> the local assigned it
    lines = []
    # Keyed by node identity; every node is alive in `exprs` or `derivatives`
    # while this runs.
    reads = {}  # node -> whether it reads a coordinate
    names = {}  # node -> the name holding its value
    derivatives = []

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

    def reads_coords(node: Expr) -> bool:
        key = id(node)
        if key not in reads:
            kind = type(node)
            if kind is Var:
                reads[key] = node.name in coord_names
            elif kind is Num:
                reads[key] = False
            elif kind is BinOp:
                reads[key] = reads_coords(node.left) | reads_coords(node.right)
            elif kind is Neg:
                reads[key] = reads_coords(node.arg)
            else:
                reads[key] = any([reads_coords(arg) for arg in node.args])
        return reads[key]

    def emit(node: Expr) -> str:
        """The name that holds the value of ``node``, emitting code for it."""
        key = id(node)
        if key not in names:
            names[key] = emit_value(node)
        return names[key]

    def emit_value(node: Expr) -> str:
        if not reads_coords(node):
            try:
                return constant(node.eval(env))
            except (ArithmeticError, TypeError, ValueError):
                pass  # raises at call time, as in the tree-walk
        if isinstance(node, Var):
            # A coordinate shadows a parameter of the same name.
            if node.name in coord_names:
                return coord_names[node.name]
            # Unbound, or a parameter float() rejects: raise per call, as the tree-walk does.
            return assign(f"{constant(node)}.eval(_params)")
        if isinstance(node, Neg):
            return assign(f"-{emit(node.arg)}")
        if isinstance(node, BinOp):
            left = emit(node.left)
            return assign(_OPERATOR_CODE[node.op].format(left, emit(node.right)))
        if isinstance(node, Call):
            args = [emit(arg) for arg in node.args]
            return assign(f"_f_{node.func}({', '.join(args)})")
        raise AssertionError(f"unknown node {node!r}")

    results = [emit(e) for e in exprs]
    size = len(exprs) * len(coords)
    if set(results) <= set(constants.values()):
        # Copying a stored array is about twice as fast as building one from
        # the constants, and the snakeboard's structure calls 26 constant
        # tables per spray evaluation.
        stored = np.array([namespace[name] for name in results])
        if not jacobian:
            return lambda point: stored.copy()
        # No entry reads a coordinate, so every partial vanishes.
        return (lambda point: stored.copy()), (lambda point: (stored.copy(), np.zeros(size)))
    unpack = [f"    {', '.join(coord_names.values())}, = point"] if coord_names else []
    source = ["def _table(point):", *unpack, *lines, f"    return _array([{', '.join(results)}])"]
    if jacobian:
        # Only the entries that are not structurally zero are listed; the rest
        # of the Jacobian stays zero.
        nonzero = {}  # flat index, in row-major order -> the name holding the entry

        def folded(node: Expr):
            # diff asks only about nodes emitted with the values, since it
            # walks no folded subtree; a folded node is named by a constant.
            return namespace.get(names[id(node)])

        for row, e in enumerate(exprs):
            free = e.variables()
            for i, name in enumerate(coords):
                if name in free:
                    derivatives.append(diff(e, name, folded))
                    if derivatives[-1] is not _ZERO:
                        nonzero[row * len(coords) + i] = emit(derivatives[-1])
        namespace["_nonzero"] = np.array(list(nonzero), dtype=int)
        source += ["def _table_jacobian(point):", *unpack, *lines,
                   f"    _jacobian = _zeros({size})",
                   f"    _jacobian[_nonzero] = [{', '.join(nonzero.values())}]",
                   f"    return _array([{', '.join(results)}]), _jacobian"]
    exec(compile("\n".join(source), "<expression table>", "exec"), namespace)
    return (namespace["_table"], namespace["_table_jacobian"]) if jacobian else namespace["_table"]


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
