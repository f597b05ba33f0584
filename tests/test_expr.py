import gc
import math
import random
import re
import sys
import threading

import numpy as np
import pytest

from algmech import algebroid
from algmech import expr as ex
from algmech.algebroid import _ExprTable
from algmech.expr import (
    BinOp,
    Call,
    EvalError,
    Expr,
    Neg,
    Num,
    ParseError,
    Var,
    fd_directional,
    fd_gradient,
    fd_partial,
    parse,
    partial,
)

CORPUS = [
    "m*r^2",
    "sin(theta)^2 + cos(theta)^2",
    "J/(h*(J+m*h^2))",
    "-x^2",
    "2^-3",
    "a - b - c",
    "a / b / c",
    "x^y^z",
    "atan2(y, x) + ln(r) - sqrt(abs(u))",
    "1.5e-3 * exp(-t) + .25",
    "-(a + b)*c",
    "tan(x)/(1 + tan(x)^2)",
]


class TestParse:
    def test_arithmetic_expressions_parse(self):
        assert isinstance(parse("m*r^2"), Expr)
        assert isinstance(parse("sin(theta)^2 + cos(theta)^2"), Expr)

    def test_unbalanced_paren_offset(self):
        with pytest.raises(ParseError) as err:
            parse("2*(x +")
        assert err.value.offset == 6

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown function 'sinh'"):
            parse("sinh(x)")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("x + 1 )")

    def test_bad_character(self):
        with pytest.raises(ParseError):
            parse("x % y")

    def test_arity_mismatch(self):
        with pytest.raises(ParseError):
            parse("atan2(x)")

    def test_power_right_associative(self):
        tree = parse("x^y^z")
        assert tree == BinOp("^", Var("x"), BinOp("^", Var("y"), Var("z")))

    def test_unary_minus_below_power(self):
        # -x^2 is -(x^2)
        assert parse("-x^2").eval({"x": 3.0}) == -9.0
        assert parse("2^-3").eval({}) == 0.125

    @pytest.mark.parametrize("source", CORPUS)
    def test_print_parse_roundtrip(self, source):
        tree = parse(source)
        assert parse(str(tree)) == tree

    def test_print_parse_roundtrip_on_random_trees(self):
        """The printer and the parser read one precedence table: every tree
        the parser can build, with nested negations, signed exponents and
        every function, prints to a string that parses back to it."""
        rng = random.Random(20261019)
        printed = []
        for case in range(2000):
            tree = _random_expr(rng, 5, [], lambda rng: rng.choice([0.0, 1e-7, 1e300, rng.uniform(0, 4)]))
            printed.append(str(tree))
            assert parse(printed[-1]) == tree, (case, printed[-1])
        text = "\n".join(printed)
        assert all(part in text for part in ("--", "^(-", ")^", "atan2("))

    @pytest.mark.parametrize("source, offset, message", [
        ("2*(x +", 6, "expected a value"),
        ("(x", 2, "expected ')'"),
        ("atan2(x y)", 8, "expected ')'"),
        ("sin(x,)", 6, "expected a value"),
        ("x**2", 2, "expected a value"),
        ("1e", 1, "unexpected trailing input 'e'"),
        ("sin()", 4, "expected a value"),
        ("((x)", 4, "expected ')'"),
        ("", 0, "expected a value"),
        ("2^", 2, "expected a value"),
        ("x y", 2, "unexpected trailing input 'y'"),
        ("1.5.2", 3, "unexpected trailing input '.2'"),
        ("x (y)", 0, "unknown function 'x'"),
        ("_dabs(x)", 0, "unknown function '_dabs'"),
        ("sin(x, y)", 0, "'sin' takes 1 argument(s), got 2"),
        ("(" * 601 + "x" + ")" * 601, 601, "expression nested deeper than 600 levels"),
    ])
    def test_syntax_errors(self, source, offset, message):
        with pytest.raises(ParseError) as err:
            parse(source)
        assert (err.value.offset, str(err.value)) == (offset, f"syntax error at offset {offset}: {message}")

    @pytest.mark.parametrize("shape", [
        lambda k: " + ".join(["x"] * k),
        lambda k: "^".join(["x"] * k),
        lambda k: "-" * (k - 1) + "x",
        lambda k: "sin(" * (k - 1) + "x" + ")" * (k - 1),
        lambda k: "x*(" * (k - 1) + "x" + ")" * (k - 1),
        lambda k: "(" * 250 + "atan2(" * (k - 1) + "x" + ", y)" * (k - 1) + ")" * 250,
    ], ids=["sum", "powers", "negations", "calls", "products", "parenthesized_calls"])
    def test_trees_deeper_than_the_bound_raise(self, shape):
        """A tree of ``_MAX_DEPTH`` levels parses and prints back to itself,
        one level more raises a ``ParseError``, never a ``RecursionError``;
        parentheses add none."""
        printed = str(parse(shape(ex._MAX_DEPTH)))
        assert str(parse(printed)) == printed
        with pytest.raises(ParseError, match=f"expression deeper than {ex._MAX_DEPTH} levels"):
            parse(shape(ex._MAX_DEPTH + 1))


class TestEval:
    def test_examples(self):
        assert parse("m*r^2").eval({"m": 1, "r": 2}) == 4.0
        assert parse("sin(theta)").eval({"theta": 0.0}) == 0.0
        assert parse("J/(h*(J+m*h^2))").eval({"J": 1, "h": 1, "m": 1}) == 0.5

    def test_unbound_variable(self):
        with pytest.raises(EvalError, match="unbound variable 'r'"):
            parse("m*r^2").eval({"m": 1})

    def test_domain_errors_are_reported(self):
        with pytest.raises(EvalError):
            parse("ln(x)").eval({"x": -1.0})
        with pytest.raises(EvalError):
            parse("1/x").eval({"x": 0.0})
        with pytest.raises(EvalError):
            parse("sqrt(x)").eval({"x": -4.0})
        with pytest.raises(EvalError):
            parse("x^0.5").eval({"x": -4.0})
        with pytest.raises(EvalError):
            parse("0^-1").eval({})

    def test_usual_function_semantics(self):
        assert parse("atan2(1, 1)").eval({}) == pytest.approx(math.pi / 4)
        assert parse("abs(-3)").eval({}) == 3.0
        assert parse("exp(ln(2))").eval({}) == pytest.approx(2.0)

    def test_eval_is_pure(self):
        tree = parse("x + y")
        env = {"x": 1.0, "y": 2.0}
        assert tree.eval(env) == 3.0
        assert env == {"x": 1.0, "y": 2.0}
        assert tree.variables() == frozenset({"x", "y"})


def _tower(levels, wrap):
    """A tree of ``levels`` applications of ``wrap`` around ``x``."""
    tree = Var("x")
    for _ in range(levels):
        tree = wrap(tree)
    return tree


def _frames_down(depth, thunk):
    """``thunk()`` called ``depth`` Python frames below this one."""
    return thunk() if depth == 0 else _frames_down(depth - 1, thunk)


class TestTreeComparison:
    """``==``, ``hash`` and ``repr`` of trees: the dataclass semantics, also
    on trees as deep as the parser admits."""

    WRAPS = {
        "sum": lambda t: BinOp("+", t, Num(1.0)),
        "sin": lambda t: Call("sin", (t,)),
        "neg": lambda t: Neg(t),
    }

    @pytest.mark.parametrize("shape", sorted(WRAPS))
    def test_deep_trees_compare_and_print_from_100_frames_down(self, shape):
        first, second = (_tower(ex._MAX_DEPTH - 1, self.WRAPS[shape]) for _ in range(2))
        other = self.WRAPS[shape](_tower(ex._MAX_DEPTH - 2, self.WRAPS["sum" if shape != "sum" else "neg"]))
        assert _frames_down(100, lambda: first == second)
        assert _frames_down(100, lambda: first != other)
        assert _frames_down(100, lambda: hash(first) == hash(second))
        text = _frames_down(100, lambda: repr(first))
        assert text == _frames_down(100, lambda: repr(second))
        assert text.count("(") == text.count(")")

    def test_dataclass_semantics(self):
        assert Num(0.0) == Num(-0.0) and hash(Num(0.0)) == hash(Num(-0.0))
        assert Num(1.0).__eq__(1.0) is NotImplemented and Num(1.0) != 1.0
        assert Var("x").__eq__(Num(1.0)) is NotImplemented and Var("x") != Num(1.0)
        nan = math.nan
        assert Num(nan) == Num(nan) and Num(nan) != Num(float("nan"))
        assert Call("sin", (Var("x"),)) != Call("sin", [Var("x")])
        assert Call("atan2", (Var("x"), Var("y"))) != Call("atan2", (Var("x"),))
        assert BinOp("+", Var("x"), Num(1.0)) != BinOp("-", Var("x"), Num(1.0))
        for source in CORPUS:
            assert parse(source) == parse(source) and hash(parse(source)) == hash(parse(source))
            assert parse(source) != parse(f"({source}) + 0")
        assert len({parse("x*y"), parse("x*y"), parse("y*x")}) == 2

    def test_repr_is_the_dataclass_form(self):
        tree = parse("-sin(x)^atan2(a, 2) / y")
        assert repr(tree) == (
            "BinOp(op='/', left=Neg(arg=BinOp(op='^', left=Call(func='sin', "
            "args=(Var(name='x'),)), right=Call(func='atan2', args=(Var(name='a'), "
            "Num(value=2.0))))), right=Var(name='y'))")
        shared = Var("u")
        assert repr(BinOp("*", shared, shared)) == (
            "BinOp(op='*', left=Var(name='u'), right=Var(name='u'))")
        assert repr(Call("f", [Num(1.0)])) == "Call(func='f', args=[Num(value=1.0)])"
        assert repr(Call("f", ())) == "Call(func='f', args=())"


class TestDeepTrees:
    """Every pass over a tree, on a tree as deep as the parser admits,
    called from deep in the Python stack."""

    WRAPS = {
        **TestTreeComparison.WRAPS,
        # The derivative tree of a power whose exponent reads x is three
        # levels deeper per level.
        "power": lambda t: BinOp("^", Var("x"), t),
    }

    @pytest.mark.parametrize("shape", sorted(WRAPS))
    def test_every_pass_from_100_frames_down(self, shape):
        tree = _tower(ex._MAX_DEPTH - 1, self.WRAPS[shape])
        value = _frames_down(100, lambda: tree.eval({"x": 0.5}))
        assert parse(_frames_down(100, lambda: str(tree))) == tree
        derivative = _frames_down(100, lambda: ex.diff(tree, "x"))
        slope = _frames_down(100, lambda: derivative.eval({"x": 0.5}))
        values, value_and_jacobian = _frames_down(
            100, lambda: ex._compile_table([tree], ("x",), {}, jacobian=True))
        assert values([0.5]).tobytes() == np.array([value]).tobytes()
        out, jacobian = value_and_jacobian([0.5])
        assert (out.tobytes(), jacobian.tobytes()) == (np.array([value]).tobytes(),
                                                       np.array([slope]).tobytes())

    @pytest.mark.parametrize("frames", [0, 100])
    def test_hash_of_a_deep_derivative(self, frames):
        """The derivative of a power tower, three levels deeper per level,
        hashes by a loop: equal trees built apart hash alike and find each
        other's entries in a dict."""
        first, second = (ex.diff(_tower(ex._MAX_DEPTH - 1, self.WRAPS["power"]), "x")
                         for _ in range(2))
        assert first is not second
        assert _frames_down(frames, lambda: hash(first)) == _frames_down(frames, lambda: hash(second))
        assert _frames_down(frames, lambda: {first: "entry"}[second]) == "entry"

    def test_derivatives_and_tables_leave_no_cyclic_garbage(self):
        """A derivative is built by a loop over the tree, not by nested
        functions that refer to each other, and a compiled table's functions
        are not kept in their own globals, so both are freed when dropped."""
        tree = parse("a*sin(x)^2/(1 + a*sin(x)^y) + atan2(x, y) - sqrt(abs(x))")
        gc.collect()
        gc.disable()
        try:
            for _ in range(10):
                ex.diff(tree, "x")
            assert gc.collect() == 0
            for _ in range(10):
                values, _ = ex._compile_table([tree, parse("x*y")], ("x", "y"), {"a": 2.0},
                                              jacobian=True)
                ex._compile_stack(values)
            del values
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestPartial:
    def test_quadratic(self):
        assert partial(parse("x^2"), "x", {"x": 3.0}) == 6.0

    def test_sine_at_zero(self):
        assert partial(parse("sin(theta)"), "theta", {"theta": 0.0}) == 1.0

    def test_cubic_against_analytic_derivative(self):
        # oracle: d/dr r^3 = 3 r^2, evaluated exactly
        assert partial(parse("r^3"), "r", {"r": 2.0}) == 12.0

    @pytest.mark.parametrize("n, want", [(0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (3.0, 0.0)])
    def test_exponent_bound_to_a_constant(self, n, want):
        """A bound exponent is a constant, as in a compiled table: x^0 has
        the derivative 0 at x = 0, where n x^(n-1) would divide by zero."""
        assert partial(parse("x^n"), "x", {"x": 0.0, "n": n}) == want

    def test_unbound_variable(self):
        with pytest.raises(EvalError, match="unbound variable 'y'"):
            partial(parse("x"), "y", {"x": 1.0})

    def test_step_must_be_positive(self):
        fn, x = (lambda z: z[0] * z[1]), np.array([1.0, 2.0])
        with pytest.raises(ValueError):
            fd_partial(fn, x, 0, step=-1e-6)
        with pytest.raises(ValueError):
            fd_gradient(fn, x, step=-1e-6)
        with pytest.raises(ValueError):
            fd_directional(fn, x, np.array([1.0, 0.0]), step=-1e-6)

    def test_linearity(self, rng):
        e1, e2 = parse("sin(x)*x^2"), parse("cos(x) + x^3")
        for _ in range(20):
            x = rng.uniform(-2, 2)
            a, b = rng.uniform(-3, 3, size=2)
            combo = BinOp("+", BinOp("*", Num(a), e1), BinOp("*", Num(b), e2))
            lhs = partial(combo, "x", {"x": x})
            rhs = a * partial(e1, "x", {"x": x}) + b * partial(e2, "x", {"x": x})
            assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)

    def test_product_rule(self, rng):
        # random cubic polynomial pairs
        for _ in range(20):
            c = [float(v) for v in rng.uniform(-1, 1, size=8)]
            p = parse(f"{c[0]!r} + {c[1]!r}*x + {c[2]!r}*x^2 + {c[3]!r}*x^3")
            q = parse(f"{c[4]!r} + {c[5]!r}*x + {c[6]!r}*x^2 + {c[7]!r}*x^3")
            x = float(rng.uniform(-1.5, 1.5))
            env = {"x": x}
            lhs = partial(BinOp("*", p, q), "x", env)
            rhs = partial(p, "x", env) * q.eval(env) + p.eval(env) * partial(q, "x", env)
            assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)


class TestCallableDifferences:
    def test_gradient(self):
        grad = fd_gradient(lambda x: x[0] ** 2 + 3 * x[1], np.array([2.0, 5.0]))
        assert grad == pytest.approx([4.0, 3.0], abs=1e-7)

    def test_directional_matches_gradient(self):
        fn = lambda x: np.sin(x[0]) * x[1]
        x = np.array([0.4, 1.3])
        v = np.array([0.7, -0.2])
        expected = fd_gradient(fn, x) @ v
        assert fd_directional(fn, x, v) == pytest.approx(expected, abs=1e-8)

    def test_directional_vector_valued(self):
        fn = lambda x: np.array([x[0] * x[1], x[1] ** 2])
        out = fd_directional(fn, np.array([1.0, 2.0]), np.array([1.0, 0.0]))
        assert out == pytest.approx([2.0, 0.0], abs=1e-8)

    def test_directional_of_non_finite_values_is_nan(self):
        """No difference is taken of a value, point or direction that is not
        finite (inf - inf would warn): the derivative is NaN, shaped as the
        values."""
        x, v = np.array([1.0, 2.0]), np.array([1.0, 0.0])
        scalar = fd_directional(lambda x: np.inf, x, v)
        assert np.shape(scalar) == () and np.isnan(scalar)
        vector = fd_directional(lambda x: np.array([x[0], np.inf * x[1]]), x, v)
        assert vector.shape == (2,) and np.isnan(vector).all()
        assert np.isnan(fd_directional(lambda x: x, x, np.array([np.inf, 0.0]))).all()


# --- compiled tables against the tree-walk ------------------------------------

COORDS = ("x", "y", "z")
PARAMS = {"a": 1.5, "b": -0.0, "y": 7.0}  # "y" is shadowed by the coordinate

# Special values (signed zeros, infinities, NaN) exercise every EvalError path.
_SPECIAL = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, math.inf, -math.inf, math.nan]


def _random_value(rng):
    return rng.choice(_SPECIAL) if rng.random() < 0.4 else rng.uniform(-4.0, 4.0)


def _random_expr(rng, depth, shared, value=_random_value):
    """A random tree over the whole grammar; some subtrees are reused from
    ``shared``, and literals are drawn by ``value``."""
    if shared and rng.random() < 0.1:
        return rng.choice(shared)
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.35:
            return Num(value(rng))
        if rng.random() < 0.03:
            return Var("w")  # unbound
        return Var(rng.choice(COORDS + tuple(PARAMS)))
    kind = rng.randrange(3)
    if kind == 0:
        node = Neg(_random_expr(rng, depth - 1, shared, value))
    elif kind == 1:
        node = BinOp(rng.choice("+-*/^"), _random_expr(rng, depth - 1, shared, value),
                     _random_expr(rng, depth - 1, shared, value))
    else:
        name = rng.choice(sorted(ex._FUNCTIONS))
        node = Call(name, tuple(_random_expr(rng, depth - 1, shared, value)
                                for _ in range(ex._FUNCTIONS[name][0])))
    shared.append(node)
    return node


def _finite_value(rng):
    return rng.uniform(-3.0, 3.0)


def _finite_case(rng):
    """A random table over the whole grammar with finite literals, a finite
    point and finite parameters."""
    shared = []
    exprs = [_random_expr(rng, 3, shared, _finite_value) for _ in range(rng.randint(1, 3))]
    return exprs, [_finite_value(rng) for _ in COORDS], {name: _finite_value(rng) for name in PARAMS}


def _outcome(thunk):
    """Bits of the result, or the type and message of what was raised.

    NaNs compare as one value: CPython's float arithmetic does not keep a
    NaN's sign bit stable, even between two tree-walks of one expression.
    """
    try:
        out = thunk()
    except Exception as err:  # the comparison is over every failure
        return type(err), str(err)
    return out.dtype, out.shape, np.where(np.isnan(out), np.nan, out).tobytes()


def _tree_walk(exprs, point, params=PARAMS, coords=COORDS):
    env = dict(params)
    env.update(zip(coords, point))
    return np.array([e.eval(env) for e in exprs])


class TestCompiledTable:
    def test_matches_tree_walk_on_random_tables(self):
        rng = random.Random(20261018)
        raised = 0
        for case in range(2000):
            shared = []
            exprs = [_random_expr(rng, 4, shared) for _ in range(rng.randint(1, 4))]
            point = [_random_value(rng) for _ in COORDS]
            params = {name: _random_value(rng) for name in PARAMS}
            compiled = ex._compile_table(exprs, COORDS, params)
            want = _outcome(lambda: _tree_walk(exprs, point, params))
            assert _outcome(lambda: compiled(point)) == want, (case, exprs, point, params)
            raised += isinstance(want[0], type)
        assert 200 < raised < 1800  # both values and failures are compared

    def test_signed_zero_constants_stay_apart(self):
        # Num(0.0) == Num(-0.0), but atan2(0, 0.0) = 0 and atan2(0, -0.0) = pi.
        pos = Call("atan2", (Var("x"), Num(0.0)))
        neg = Call("atan2", (Var("x"), Num(-0.0)))
        for table in ([pos, neg], [neg, pos]):
            out = ex._compile_table(table, ("x",), {})([0.0])
            assert out.tobytes() == _tree_walk(table, [0.0], {}, ("x",)).tobytes()
        assert ex._compile_table([pos, neg], ("x",), {})([0.0]).tolist() == [0.0, math.pi]

    def test_repeated_subtree_is_computed_once(self, monkeypatch):
        calls = []

        def counted_sin(v):
            calls.append(v)
            return math.sin(v)

        # The compiler walks each root set once, apart from diff's own walks:
        # the entries, then the Jacobian trees.
        walks, in_diff = [], []
        postorder, diff = ex._postorder, ex.diff

        def counted_postorder(roots, *operands):
            if not in_diff:
                walks.append(roots)
            return postorder(roots, *operands)

        def uncounted_diff(*args):
            in_diff.append(True)
            try:
                return diff(*args)
            finally:
                in_diff.pop()

        monkeypatch.setattr(ex, "_postorder", counted_postorder)
        monkeypatch.setattr(ex, "diff", uncounted_diff)
        monkeypatch.setitem(ex._FUNCTIONS, "sin", (1, counted_sin))
        table = [parse("a*sin(x)^2/(1 + a*sin(x)^2)"), parse("cos(x)/(1 + a*sin(x)^2)")]
        compiled = ex._compile_table(table, ("x",), {"a": 2.0})
        assert len(walks) == 1
        out = compiled([0.3])
        assert len(calls) == 1
        assert out.tobytes() == _tree_walk(table, [0.3], {"a": 2.0}, ("x",)).tobytes()
        walks.clear()
        both = ex._compile_table(table, ("x",), {"a": 2.0}, jacobian=True)[1]
        assert len(walks) == 2
        assert both([0.3])[0].tobytes() == out.tobytes()

    def test_coordinate_shadows_parameter(self):
        assert ex._compile_table([parse("x*a")], ("x",), {"x": 5.0, "a": 2.0})([1.0]).tolist() == [2.0]

    @pytest.mark.parametrize("source", [
        " + ".join(["x"] * 300),
        "(" * 150 + "x" + " + x)" * 150,
    ])
    def test_deep_expressions(self, source):
        tree = parse(source)
        out = ex._compile_table([tree], ("x",), {})([1.25])
        assert out.tobytes() == np.array([tree.eval({"x": 1.25})]).tobytes()

    def test_failing_constant_subtree_raises_per_call_in_entry_order(self):
        compiled = ex._compile_table([parse("1/x"), parse("ln(0 - 1)")], ("x",), {})
        with pytest.raises(EvalError, match="division by zero"):
            compiled([0.0])
        with pytest.raises(EvalError, match="ln of a non-positive value"):
            compiled([1.0])

    def test_folded_table_returns_fresh_arrays(self):
        compiled = ex._compile_table([parse("a + 1"), parse("2*a")], ("x",), {"a": 1.0})
        first = compiled([0.0])
        first[:] = -1.0
        assert compiled([0.0]).tolist() == [2.0, 2.0]

    def test_mis_sized_point_raises(self):
        table = _ExprTable([parse("x + y")], (1,), ("x", "y"), {})
        with pytest.raises(ValueError, match=r"2 coordinate.*\(3,\)"):
            table([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match=r"2 coordinate.*\(1,\)"):
            table([1.0])

    def test_stacks_match_the_points_on_random_tables(self):
        """A stack gives each point's values, or raises what the first
        failing point raises."""
        rng = random.Random(20261020)
        for case in range(500):
            shared = []
            exprs = [_random_expr(rng, 4, shared) for _ in range(rng.randint(1, 4))]
            points = [[_random_value(rng) for _ in COORDS] for _ in range(rng.randint(1, 6))]
            params = {name: _random_value(rng) for name in PARAMS}
            values = ex._compile_table(exprs, COORDS, params)
            want = _outcome(lambda: np.concatenate([values(p) for p in points]))
            stacked = ex._compile_stack(values)
            assert _outcome(lambda: stacked(points)) == want, (case, exprs, points, params)

    def test_a_stack_raises_at_its_first_failing_point(self):
        table = _ExprTable([parse("1/x"), parse("sqrt(x)")], (2,), ("x",), {})
        fine = [[1.0], [2.0], [3.0]]
        for failing, message in (([[0.0]], "division by zero"),
                                 ([[-1.0]], "sqrt of a negative value")):
            with pytest.raises(EvalError, match=message):
                table(failing[0])
            for later in ([[0.0]], [[-1.0]]):
                with pytest.raises(EvalError, match=f"^{message}$"):
                    table(np.array(fine + failing + [[4.0]] + later))

    def test_stack_shapes(self):
        table = _ExprTable([parse("x + y"), parse("x*y"), parse("2"), parse("a")], (2, 2),
                           ("x", "y"), {"a": 3.0})
        points = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.25]])
        assert table(points).shape == (3, 2, 2)
        assert table(points).tobytes() == np.array([table(p) for p in points]).tobytes()
        assert table(points[:0]).shape == (0, 2, 2)
        for bad in (np.zeros((3, 3)), np.zeros((3, 1)), np.zeros((2, 3, 2)), np.zeros(())):
            with pytest.raises(ValueError, match=rf"2 coordinate.*{re.escape(str(bad.shape))}"):
                table(bad)
        # Folded entries, and a table over no coordinates.
        folded = _ExprTable([parse("a + 1"), parse("3*a")], (2,), ("x",), {"a": 1.0})
        assert folded(points[:, :1]).tolist() == [[2.0, 3.0]] * 3
        constant = _ExprTable([parse("a + 1"), parse("w")], (2,), (), {"a": 1.0, "w": 2.0})
        assert constant(np.zeros((2, 0))).tolist() == [[2.0, 2.0]] * 2
        failing = _ExprTable([parse("1/a")], (), (), {"a": 0.0})
        with pytest.raises(EvalError, match="division by zero"):
            failing(np.zeros((2, 0)))

    @pytest.mark.parametrize("jacobian", [False, True], ids=["values", "jacobian"])
    def test_a_stacked_loop_compiles_once_its_stacks_pass_the_threshold(self, monkeypatch,
                                                                        jacobian):
        """Stacks of one form bringing a table up to _STACK_COMPILE_POINTS
        points are a call per point and compile no loop; the stack that
        passes it compiles exactly one, and the other form keeps its own
        count.  On both sides each row is bitwise its point's call, a failing
        stack raises its first failing point's error, and an empty stack has
        the stacked shape."""
        compiled = []
        compile_stack = ex._compile_stack
        monkeypatch.setattr(ex, "_compile_stack", lambda f: compiled.append(f) or compile_stack(f))
        table = _ExprTable([parse("sin(x)*y"), parse("1/(x - y)"), parse("sqrt(x)")], (3,),
                           ("x", "y"), {})
        call, other = ((table.value_and_jacobian, table) if jacobian
                       else (table, table.value_and_jacobian))
        limit = algebroid._STACK_COMPILE_POINTS
        points = np.random.default_rng(7).uniform(0.1, 2.0, size=(limit, 2))
        # sqrt fails at the second point, the division at the third.
        failing = np.array([[1.0, 2.0], [-1.0, 2.0], [1.0, 1.0]])

        def check(stack):
            got = call(stack)
            want = [call(p) for p in stack]
            if jacobian:
                assert got[0].tobytes() == np.array([v for v, _ in want]).tobytes()
                assert got[1].tobytes() == np.array([j for _, j in want]).tobytes()
                assert got[1].shape == (len(stack), 3, 2)
            else:
                assert got.tobytes() == np.array(want).tobytes() and got.shape == (len(stack), 3)
            with pytest.raises(EvalError, match="^sqrt of a negative value$"):
                call(failing)
            empty = call(np.zeros((0, 2)))
            assert (empty[1].shape == (0, 3, 2)) if jacobian else (empty.shape == (0, 3))

        check(points[:limit - len(failing)])  # up to the threshold, not past it
        assert not compiled
        other(points)  # the other form's count is its own
        assert not compiled
        check(points[:2])
        assert len(compiled) == 1
        check(points)
        assert len(compiled) == 1

    @pytest.mark.parametrize("which", ["three_entries", "snakeboard_koszul", "zero_jacobian"])
    def test_results_are_fresh_float_arrays_bitwise_the_tree_walk(self, board, which):
        """Values and Jacobians at a point and at stacks of 0, 1, 3 and
        _STACK_COMPILE_POINTS + 1 points, called one at a time and through
        the compiled stacked loop, are fresh, writable, C-contiguous float64
        arrays, bitwise the tree-walk, and writing into one leaves the next
        call's unchanged.  The last table reads its coordinate, but no entry
        of its Jacobian is structurally nonzero."""
        from algmech.geometry import _koszul_table

        if which == "snakeboard_koszul":
            table = _koszul_table(board.structure, board.metric)
            assert len(table.exprs) == 51
            distinct = board.sample(7, seed=3)
        else:
            entries = (["sin(x)*y + a", "x^2 - y/3", "atan2(y, x)"] if which == "three_entries"
                       else ["x^0", "a + 1"])
            coords = ("x", "y") if which == "three_entries" else ("x",)
            table = _ExprTable(entries, (len(entries),), coords, {"a": 0.5})
            distinct = np.random.default_rng(5).uniform(0.1, 2.0, size=(7, len(coords)))
        exprs, coords, params = table.exprs, table.coords, table.params

        def constant(node):
            # What the table folds, as in test_jacobian_is_the_diff_tree_walk.
            if node.variables().isdisjoint(coords):
                try:
                    return node.eval(params)
                except (ArithmeticError, TypeError, ValueError):
                    pass
            return None

        trees = [ex.diff(e, name, constant) for e in exprs for name in coords]
        if which == "zero_jacobian":
            assert all(t is ex._ZERO for t in trees)
        want_values = np.array([_tree_walk(exprs, p, params, coords) for p in distinct])
        want_jacobians = np.array([[t.eval({**params, **dict(zip(coords, p))}) for t in trees]
                                   for p in distinct]).reshape(len(distinct), len(exprs),
                                                               len(coords))

        def fresh(got, previous):
            assert got.dtype == np.float64 and got.flags.writeable and got.flags.c_contiguous
            assert previous is None or not np.shares_memory(got, previous)

        rows = {"point": None, 0: [], 1: [0], 3: [4, 1, 6],
                "past": [k % len(distinct) for k in range(algebroid._STACK_COMPILE_POINTS + 1)]}
        last_values = last_jacobian = None
        for _ in ("one at a time", "through the compiled loop"):
            for rows_of in rows.values():
                x = distinct[2] if rows_of is None else distinct[rows_of].reshape(-1, len(coords))
                expected = (want_values[2], want_jacobians[2]) if rows_of is None else (
                    want_values[rows_of], want_jacobians[rows_of])
                for call in (table, table.value_and_jacobian):
                    got = call(x)
                    values, jacobian = got if call is not table else (got, None)
                    fresh(values, last_values)
                    assert values.tobytes() == expected[0].tobytes()
                    last_values = values
                    if jacobian is not None:
                        fresh(jacobian, last_jacobian)
                        assert jacobian.tobytes() == expected[1].tobytes()
                        assert jacobian.shape == expected[1].shape
                        last_jacobian = jacobian
                        jacobian[...] = np.nan
                    values[...] = np.nan
        assert table._stacked[0] is not None and table._stacked[1] is not None

    def test_first_call_from_many_threads(self):
        """Threads racing on a table's first call, and on its stacks across
        the compile threshold, all get the single-threaded rows, and none
        raises."""
        exprs = [parse("sin(x)*y/(1 + x^2)"), parse("atan2(y, x) - ln(1 + y^2)")]
        points = [np.array([0.1 * k, 1.0 - 0.05 * k]) for k in range(8)]
        expected = [_tree_walk(exprs, p, {}, ("x", "y")) for p in points]
        table = _ExprTable(exprs, (2,), ("x", "y"), {})
        results = [None] * len(points)
        stacks = [[] for _ in points]
        errors = []
        # One thread per point stacks all the points 50 times, so the stacks
        # cross the compile threshold while the threads race.  A lost update
        # of the table's count of stacked points only delays the compile.
        assert 50 * len(points) ** 2 > 10 * algebroid._STACK_COMPILE_POINTS

        def work(k):
            try:
                for _ in range(50):
                    results[k] = table(points[k])
                    stacks[k].append(table(np.roll(points, k, axis=0)))
            except Exception as exc:
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(len(points))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads) and not errors
        for got, want in zip(results, expected):
            assert got.tobytes() == want.tobytes()
        for k, stacked in enumerate(stacks):
            want = np.roll(expected, k, axis=0).tobytes()
            assert len(stacked) == 50 and all(rows.tobytes() == want for rows in stacked)
        assert table._stacked[False] is not None

    def test_first_calls_of_both_kinds_from_many_threads(self):
        """Threads racing on the first values and Jacobian calls of a
        differentiable table all get the single-threaded results."""
        exprs = [parse("sin(x)*y/(1 + x^2)"), parse("atan2(y, x) - ln(1 + y^2)")]
        points = [np.array([0.1 * k + 0.05, 1.0 - 0.05 * k]) for k in range(8)]
        reference = _ExprTable(exprs, (2,), ("x", "y"), {})
        expected = [reference.value_and_jacobian(p) for p in points]
        table = _ExprTable(exprs, (2,), ("x", "y"), {}, differentiable=True)
        results = [None] * len(points)

        def work(k):
            for _ in range(50):
                if k % 2:
                    results[k] = table.value_and_jacobian(points[k])
                else:
                    results[k] = (table(points[k]), expected[k][1])

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(len(points))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        for (values, jac), (want_values, want_jac) in zip(results, expected):
            assert values.tobytes() == want_values.tobytes()
            assert jac.tobytes() == want_jac.tobytes()

    def test_first_stacked_calls_from_many_threads(self):
        """Threads racing on the first calls of a table, half of them with a
        stack, all get the single-threaded results."""
        exprs = [parse("sin(x)*y/(1 + x^2)"), parse("atan2(y, x) - ln(1 + y^2)")]
        stacks = [np.array([[0.1 * k, 1.0 - 0.05 * k], [0.2, 0.1 * k]]) for k in range(8)]
        expected = [np.array([_tree_walk(exprs, p, {}, ("x", "y")) for p in stack])
                    for stack in stacks]
        table = _ExprTable(exprs, (2,), ("x", "y"), {})
        results = [None] * len(stacks)

        def work(k):
            for _ in range(50):
                stack = stacks[k]
                results[k] = table(stack) if k % 2 else np.array([table(p) for p in stack])

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(len(stacks))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        for got, want in zip(results, expected):
            assert got.tobytes() == want.tobytes()

    # --- Jacobians ------------------------------------------------------------

    def test_jacobian_values_are_the_call_values(self):
        """The values half of the Jacobian function is bitwise the values
        function; where the values raise, it raises the same; otherwise it
        raises only EvalError, at a kink."""
        rng = random.Random(20261019)
        kinks = 0
        for case in range(2000):
            shared = []
            exprs = [_random_expr(rng, 4, shared) for _ in range(rng.randint(1, 4))]
            point = [_random_value(rng) for _ in COORDS]
            params = {name: _random_value(rng) for name in PARAMS}
            values, both = ex._compile_table(exprs, COORDS, params, jacobian=True)
            want = _outcome(lambda: ex._compile_table(exprs, COORDS, params)(point))
            assert _outcome(lambda: values(point)) == want, case
            got = _outcome(lambda: both(point)[0])
            if got != want:
                assert not isinstance(want[0], type) and got[0] is EvalError, (case, exprs, point)
                kinks += 1
        assert kinks > 0

    def test_jacobian_is_the_diff_tree_walk(self):
        """Every Jacobian entry of a random table is bitwise the tree-walk of
        its ``diff`` tree, told which subtrees fold to constants; where a
        value or a derivative fails, the Jacobian raises what the values
        raise, else what the first failing entry in row-major order raises."""
        rng = random.Random(20261018)
        raised = 0
        for case in range(2000):
            shared = []
            exprs = [_random_expr(rng, 4, shared) for _ in range(rng.randint(1, 4))]
            point = [_random_value(rng) for _ in COORDS]
            params = {name: _random_value(rng) for name in PARAMS}
            both = ex._compile_table(exprs, COORDS, params, jacobian=True)[1]
            env = dict(params)
            env.update(zip(COORDS, point))

            def constant(node):
                # What the table folds: a subtree that reads no coordinate
                # and evaluates.
                if node.variables().isdisjoint(COORDS):
                    try:
                        return node.eval(params)
                    except (ArithmeticError, TypeError, ValueError):
                        pass
                return None

            def reference():
                _tree_walk(exprs, point, params)
                flat = [ex.diff(e, name, constant).eval(env) for e in exprs for name in COORDS]
                return np.array(flat).reshape(len(exprs), len(COORDS))

            want = _outcome(reference)
            assert _outcome(lambda: both(point)[1]) == want, (case, exprs, point, params)
            raised += isinstance(want[0], type)
        assert 200 < raised < 1800  # both values and failures are compared

    def test_jacobian_matches_central_differences(self):
        """Every partial of a random table at a finite point matches central
        differences where the entry is smooth: where differences at the base
        steps 1e-5 and 1e-6 agree to 1e-6."""
        rng = random.Random(20261020)
        compared = 0
        for case in range(600):
            exprs, point, params = _finite_case(rng)
            values, both = ex._compile_table(exprs, COORDS, params, jacobian=True)
            try:
                value, jac = both(point)
            except (ArithmeticError, ValueError):  # EvalError is a ValueError
                continue
            jac = jac.reshape(len(exprs), len(COORDS))
            for i in range(len(COORDS)):
                def along(t):
                    return values(point[:i] + [t[0]] + point[i + 1:])

                try:
                    coarse, fine = (fd_directional(along, [point[i]], [1.0], h) for h in (1e-5, 1e-6))
                except (ArithmeticError, ValueError):
                    continue
                for k in range(len(exprs)):
                    scale = max(1.0, abs(fine[k]))
                    if np.isfinite(value[k]) and abs(coarse[k] - fine[k]) <= 1e-6 * scale:
                        assert abs(jac[k, i] - fine[k]) <= 1e-5 * scale, (case, exprs[k], point, i)
                        compared += 1
        assert compared > 1000

    def test_jacobian_matches_sympy(self):
        """Every partial of a random table, compiled and as the tree-walk of
        its ``diff`` tree, matches ``sympy.diff`` evaluated in 30 digits,
        where that derivative is real and finite."""
        sympy = pytest.importorskip("sympy")
        symbols = {name: sympy.Symbol(name, real=True) for name in COORDS}
        functions = {"sin": sympy.sin, "cos": sympy.cos, "tan": sympy.tan, "exp": sympy.exp,
                     "ln": sympy.log, "sqrt": sympy.sqrt, "abs": sympy.Abs, "atan2": sympy.atan2}

        def to_sympy(node, params):
            if isinstance(node, Num):
                return sympy.Float(node.value, 30)
            if isinstance(node, Var):
                return symbols.get(node.name, sympy.Float(params.get(node.name, 0.0), 30))
            if isinstance(node, Neg):
                return -to_sympy(node.arg, params)
            if isinstance(node, Call):
                return functions[node.func](*(to_sympy(arg, params) for arg in node.args))
            a, b = to_sympy(node.left, params), to_sympy(node.right, params)
            if node.op == "/":
                return a / b
            if node.op == "^":
                return a ** b
            return {"+": a + b, "-": a - b, "*": a * b}[node.op]

        rng = random.Random(20261021)
        compared = 0
        for case in range(120):
            exprs, point, params = _finite_case(rng)
            try:
                value, jac = ex._compile_table(exprs, COORDS, params, jacobian=True)[1](point)
            except (ArithmeticError, ValueError):
                continue
            jac = jac.reshape(len(exprs), len(COORDS))
            at = {symbols[name]: sympy.Float(x, 30) for name, x in zip(COORDS, point)}
            env = {**params, **dict(zip(COORDS, point))}
            for k, e in enumerate(exprs):
                if not np.isfinite(value[k]):
                    continue
                tree = to_sympy(e, params)
                for i, name in enumerate(COORDS):
                    want = complex(sympy.diff(tree, symbols[name]).evalf(30, subs=at))
                    # 1e-7, not rounding: nested exponentials such as
                    # cos(exp(exp(y))) amplify the rounding of the point.
                    if want.imag == 0.0 and abs(want.real) < 1e12:
                        for got in (jac[k, i], ex.diff(e, name).eval(env)):
                            assert abs(got - want.real) <= 1e-7 * max(1.0, abs(want.real)), \
                                (case, e, point, name)
                        compared += 1
        assert compared > 100

    @pytest.mark.parametrize("source, point, message", [
        ("abs(x)", [0.0, 1.0], "abs is not differentiable at 0"),
        ("abs(x - y)", [1.0, 1.0], "abs is not differentiable at 0"),
        ("sqrt(x)", [0.0, 1.0], "sqrt is not differentiable at 0"),
        ("sqrt(x^2 + y^2)", [0.0, 0.0], "sqrt is not differentiable at 0"),
        ("x^0.5", [0.0, 1.0], "zero raised to a negative power"),
        ("x^y", [-2.0, 2.0], "ln of a non-positive value"),
        ("x^y", [0.0, 2.0], "ln of a non-positive value"),
        ("atan2(y, x)", [0.0, 0.0], "atan2 is not differentiable at the origin"),
    ])
    def test_jacobian_raises_at_kinks(self, source, point, message):
        """The value exists at a kink, the Jacobian does not."""
        table = _ExprTable([parse(source)], (1,), ("x", "y"), {})
        assert np.isfinite(table(point)).all()
        with pytest.raises(EvalError, match=message):
            table.value_and_jacobian(point)

    def test_jacobian_shape_and_folded_tables(self):
        table = _ExprTable(["x*y", "sin(x)", "a", "y^3"], (2, 2), ("x", "y"), {"a": 2.0})
        values, jac = table.value_and_jacobian([0.5, 2.0])
        assert values.tobytes() == table([0.5, 2.0]).tobytes()
        assert jac.shape == (2, 2, 2)
        assert jac.tolist() == [[[2.0, 0.5], [math.cos(0.5), 0.0]], [[0.0, 0.0], [0.0, 12.0]]]
        constant = _ExprTable(["a", "2*a"], (2,), ("x",), {"a": 1.0})
        values, jac = constant.value_and_jacobian([3.0])
        assert values.tolist() == [1.0, 2.0] and jac.tolist() == [[0.0], [0.0]]
