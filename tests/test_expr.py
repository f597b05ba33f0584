import math

import numpy as np
import pytest

from algmech.expr import (
    BinOp,
    EvalError,
    Expr,
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


class TestPartial:
    def test_quadratic(self):
        assert partial(parse("x^2"), "x", {"x": 3.0}, 1e-5) == pytest.approx(6.0, abs=1e-8)

    def test_sine_at_zero(self):
        assert partial(parse("sin(theta)"), "theta", {"theta": 0.0}) == pytest.approx(1.0, abs=1e-8)

    def test_cubic_against_analytic_derivative(self):
        # oracle: d/dr r^3 = 3 r^2, evaluated exactly
        assert partial(parse("r^3"), "r", {"r": 2.0}, 1e-5) == pytest.approx(12.0, abs=1e-6)

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            partial(parse("x"), "x", {"x": 1.0}, step=-1e-6)
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
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_product_rule(self, rng):
        # random cubic polynomial pairs; second-order central differences
        for _ in range(20):
            c = [float(v) for v in rng.uniform(-1, 1, size=8)]
            p = parse(f"{c[0]!r} + {c[1]!r}*x + {c[2]!r}*x^2 + {c[3]!r}*x^3")
            q = parse(f"{c[4]!r} + {c[5]!r}*x + {c[6]!r}*x^2 + {c[7]!r}*x^3")
            x = float(rng.uniform(-1.5, 1.5))
            env = {"x": x}
            lhs = partial(BinOp("*", p, q), "x", env)
            rhs = partial(p, "x", env) * q.eval(env) + p.eval(env) * partial(q, "x", env)
            assert lhs == pytest.approx(rhs, abs=5e-8)


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
