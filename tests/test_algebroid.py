import re

import numpy as np
import pytest
from scipy.stats import qmc

from algmech import (
    AlgebroidStructure,
    BundleMetric,
    ChartDomain,
    Exclusion,
    OneForm,
    Section,
    Trajectory,
    anchor_apply,
    bracket,
    d_function,
    d_oneform,
    jacobiator,
    lie_closure_rank,
    Projector,
    Subbundle,
    dump_spec,
    load_spec,
    parse,
)
from algmech.algebroid import span_rank
from algmech.report import run_battery


def basis(i, m=3):
    return Section.basis(i, m)


class TestStructureConstruction:
    def test_antisymmetry_filled_from_one_triangle(self, planar):
        p = np.array([0.3, -0.2, 0.7])
        C = planar.structure.structure(p)
        assert np.allclose(C + np.transpose(C, (0, 2, 1)), 0.0)

    def test_conflicting_triangles_rejected(self):
        with pytest.raises(ValueError, match="not antisymmetric"):
            AlgebroidStructure.from_exprs(
                ("x",), 2, [["1"], ["0"]],
                {"1,1,2": "x", "1,2,1": "x"})
        with pytest.raises(ValueError, match="not antisymmetric"):
            AlgebroidStructure.from_exprs(
                ("r",), 2, [["1"], ["0"]],
                {"1,1,2": "0.3*r", "1,2,1": "-(0.31*r)"})
        # Both overflow to inf, which agrees with -inf under a relative
        # tolerance; a non-finite pair must not pass.
        with pytest.raises(ValueError, match="not antisymmetric: not finite"):
            AlgebroidStructure.from_exprs(
                ("x",), 2, [["1"], ["0"]],
                {"1,1,2": "1e308*10", "1,2,1": "1e308*10"})

    def test_consistent_double_entry_accepted(self):
        S = AlgebroidStructure.from_exprs(
            ("x",), 2, [["1"], ["0"]],
            {"1,1,2": "x", "1,2,1": "-x"})
        assert S.structure(np.array([2.0]))[0, 0, 1] == 2.0
        # Mirror entries that differ only by rounding are the same function.
        AlgebroidStructure.from_exprs(
            ("r",), 2, [["1"], ["0"]],
            {"1,1,2": "0.1*r*3", "1,2,1": "-(0.3*r)"})

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValueError, match="antisymmetry"):
            AlgebroidStructure.from_exprs(("x",), 2, [["1"], ["0"]], {"1,1,1": "x"})

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError, match="unknown variable"):
            AlgebroidStructure.from_exprs(("x",), 1, [["zz"]], {})


class TestBracket:
    def test_planar_body_bracket_of_first_controls(self, planar):
        """With unit parameters the first two frame fields bracket to
        (0, 1/2, 1/2) in the frame."""
        p = np.array([0.4, 0.1, -0.9])
        out = bracket(planar.structure, basis(0), basis(1), p)
        assert out == pytest.approx([0.0, 0.5, 0.5], abs=1e-6)

    def test_planar_body_bracket_second_third(self, planar):
        p = np.array([-1.2, 0.6, 0.3])
        out = bracket(planar.structure, basis(1), basis(2), p)
        assert out == pytest.approx([2.0, 0.0, 0.0], abs=1e-6)

    def test_bracket_with_itself_vanishes(self, planar, rng):
        X = planar.section_from_exprs(["sin(theta)", "x*y", "1"])
        for _ in range(5):
            p = rng.uniform(-1, 1, size=3)
            assert bracket(planar.structure, X, X, p) == pytest.approx([0, 0, 0], abs=1e-12)

    def test_antisymmetry_at_random_points(self, planar, leg, rng):
        for sysd in (planar, leg):
            X = sysd.section_from_exprs(["sin(theta)", "1", "theta^2"])
            Y = sysd.section_from_exprs(["2", "cos(theta)", "theta"])
            for p in sysd.sample(100, seed=7):
                lhs = bracket(sysd.structure, X, Y, p)
                rhs = bracket(sysd.structure, Y, X, p)
                assert np.max(np.abs(lhs + rhs)) < 1e-12

    def test_leibniz_rule(self, planar, rng):
        S = planar.structure
        f = parse("1 + x*cos(theta)")
        fn = lambda x: f.eval({"x": x[0], "y": x[1], "theta": x[2], **planar.params})
        X = planar.section_from_exprs(["1", "theta", "0"])
        Y = planar.section_from_exprs(["sin(theta)", "0", "x"])
        for _ in range(10):
            p = rng.uniform(-1, 1, size=3)
            fY = Y.scaled_by(fn)
            lhs = bracket(S, X, fY, p)
            rho_X_f = float(anchor_apply(S, X, p) @ np.array(
                [parse_partial(f, i, p, planar.params) for i in range(3)]))
            rhs = fn(p) * bracket(S, X, Y, p) + rho_X_f * Y(p)
            assert np.max(np.abs(lhs - rhs)) < 1e-5


def parse_partial(expr, index, p, params):
    from algmech.expr import partial

    names = ("x", "y", "theta")
    env = {**params, **dict(zip(names, p))}
    return partial(expr, names[index], env)


class TestAnchor:
    def test_identity_anchor(self, flat2):
        out = anchor_apply(flat2.structure, Section.basis(0, 2), np.array([3.0, -1.0]))
        assert out == pytest.approx([1.0, 0.0])

    def test_planar_first_control_at_zero_heading(self, planar):
        # hand-substitution of theta = 0 into the first frame field
        out = anchor_apply(planar.structure, basis(0), np.array([0.5, 1.5, 0.0]))
        assert out == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)

    def test_zero_section(self, planar):
        zero = Section.constant([0.0, 0.0, 0.0])
        out = anchor_apply(planar.structure, zero, np.array([0.1, 0.2, 0.3]))
        assert out == pytest.approx([0.0, 0.0, 0.0])


def _misshapen_fields() -> dict:
    """Per field wrapper over a base of two coordinates: the field around an
    opaque callable whose value has the right size but the wrong shape, a
    projector that reads it (None for the anchor and the structure
    functions, which no projector reads), and the error at a point."""
    bad_section = Section(lambda x: np.array([[1.0, 0.0]]), 2)
    bad_metric = BundleMetric(lambda x: np.eye(2).ravel(), 2)
    good_metric = BundleMetric(lambda x: np.eye(2), 2)
    S = AlgebroidStructure(("x", "y"), 2, lambda x: np.zeros(4), lambda x: np.zeros(8))
    span = Subbundle((Section.basis(1, 2), bad_section))
    section_error = "section returned shape (1, 2), expected (2,)"
    return {
        "section": (bad_section, Projector(Subbundle((bad_section,)), good_metric), section_error),
        "metric": (bad_metric.matrix, Projector(Subbundle((Section.basis(0, 2),)), bad_metric),
                   "metric returned shape (4,), expected (2, 2)"),
        "anchor": (S.anchor, None, "anchor returned shape (4,), expected (2, 2)"),
        "structure": (S.structure, None, "structure returned shape (8,), expected (2, 2, 2)"),
        "subbundle": (span.matrix, Projector(span, good_metric), section_error),
    }


@pytest.mark.parametrize("field, where", [
    (field, where) for field in ("section", "metric", "anchor", "structure", "subbundle")
    for where in ("point", "stack", "p_matrix")
    if where != "p_matrix" or field not in ("anchor", "structure")])
def test_misshapen_values_raise_the_points_error(field, where):
    """Every field is evaluated by one rule (``algebroid._at_points``): an
    opaque callable's value is checked at every point of a stack as at a
    point, and so through ``p_matrix``, which runs a point as a stack of
    one.  Only the point raised before; a stack took the values reshaped."""
    evaluate, projector, error = _misshapen_fields()[field]
    p = np.array([0.3, -0.2])
    call = {"point": lambda: evaluate(p),
            "stack": lambda: evaluate(np.stack([p, 2 * p, -p])),
            "p_matrix": lambda: projector.p_matrix(p)}[where]
    with pytest.raises(ValueError, match=re.escape(error)):
        call()


def _table_fields(kind: str) -> dict:
    """The fields that wrap an expression table of their own shape, over
    ``(x, y)`` with rank 2: each a compiled table, or one whose entries all
    fold.  Maps a field to its evaluation and its shape."""
    coords, params = ("x", "y"), {"a": 2.0}
    if kind == "compiled":
        anchor, structure = [["cos(y)", "x*y"], ["a", "sin(x)"]], {"1,1,2": "x - y", "2,1,2": "a*y"}
        section, metric = ["x*y", "sin(x) + a"], [["1 + x^2", "x*y"], [None, "2 + y^2"]]
    else:
        anchor, structure = [["1", "0"], ["a", "2*a"]], {"1,1,2": "a", "2,1,2": "-3"}
        section, metric = ["a", "a/4"], [["a", "1"], [None, "3"]]
    S = AlgebroidStructure.from_exprs(coords, 2, anchor, structure, params)
    return {"anchor": (S.anchor, (2, 2)), "structure": (S.structure, (2, 2, 2)),
            "section": (Section.from_exprs(section, coords, params), (2,)),
            "metric": (BundleMetric.from_exprs(metric, coords, params).matrix, (2, 2))}


@pytest.mark.parametrize("kind", ["compiled", "folded"])
@pytest.mark.parametrize("field", ["anchor", "structure", "section", "metric"])
class TestTableFieldsAtPoints:
    """``_at_points`` calls a table of the field's own shape directly; what
    its conversions and checks gave before still holds."""

    def test_a_point_given_as_a_list(self, field, kind):
        evaluate, shape = _table_fields(kind)[field]
        want = evaluate(np.array([0.3, -0.2]))
        got = evaluate([0.3, -0.2])
        assert got.shape == shape and got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        assert evaluate([[0.3, -0.2]]).tobytes() == want.tobytes()

    def test_an_empty_stack(self, field, kind):
        evaluate, shape = _table_fields(kind)[field]
        out = evaluate(np.zeros((0, 2)))
        assert out.shape == (0, *shape) and out.dtype == np.float64

    def test_a_point_of_the_wrong_length_raises_the_tables_error(self, field, kind):
        evaluate, _ = _table_fields(kind)[field]
        for point in (np.zeros(3), [0.1], np.zeros((2, 3))):
            error = f"expression table over 2 coordinate(s) got a point of shape {np.shape(point)}"
            with pytest.raises(ValueError, match=re.escape(error)):
                evaluate(point)

    def test_results_are_fresh_writable_arrays_of_the_shape(self, field, kind):
        evaluate, shape = _table_fields(kind)[field]
        p = np.array([0.3, -0.2])
        stack = np.stack([p, -p, 2 * p])
        want = evaluate(p).tobytes(), evaluate(stack).tobytes()
        for x, expected, before in ((p, shape, want[0]), (stack, (3, *shape), want[1])):
            first = evaluate(x)
            assert first.shape == expected and first.dtype == np.float64
            assert first.flags.writeable and first.flags.c_contiguous
            first[...] = np.nan
            second = evaluate(x)
            assert second.tobytes() == before
            assert not np.shares_memory(first, second)


class TestAlmostDifferential:
    def test_identity_anchor_coordinate_function(self, flat2):
        out = d_function(flat2.structure, parse("x1"), np.array([0.7, -0.3]))
        assert out == pytest.approx([1.0, 0.0], abs=1e-9)

    def test_leg_radius_function_pairs_with_second_control(self, leg):
        # the second control is (1/m) d/dr, so df(Y2) = 1/m for f = r
        out = d_function(leg.structure, parse("r"), np.array([1.7, 0.2, -0.4]))
        assert out[1] == pytest.approx(1.0, abs=1e-9)

    def test_constant_function(self, planar):
        out = d_function(planar.structure, parse("42"), np.array([0.1, 0.2, 0.3]))
        assert np.all(out == 0.0)

    def test_point_base_gives_zero(self, top):
        out = d_function(top.structure, parse("1"), np.zeros(0))
        assert out == pytest.approx([0.0, 0.0, 0.0])

    def test_table_is_differentiated_exactly(self, leg):
        """A table carries its Jacobian: one row rho(p) J(p) per frame
        direction, against the anchored differences of the same table."""
        from algmech.algebroid import _ExprTable

        table = _ExprTable(["r^2*sin(theta)", "cos(theta - psi)/r"], (2,), leg.coords, {})
        p = np.array([1.7, 0.2, -0.4])
        exact = d_function(leg.structure, table, p)
        assert exact.shape == (3, 2)
        rows = leg.structure.anchor(p) @ table.value_and_jacobian(p)[1].T
        assert exact == pytest.approx(rows, rel=1e-14, abs=1e-14)
        assert np.max(np.abs(exact - d_function(leg.structure, lambda x: table(x), p))) < 1e-8

    def test_opaque_callable_is_evaluated_only_to_difference(self, planar):
        """Two evaluations per frame direction and none at the point itself."""
        calls = []

        def f(x):
            calls.append(x)
            return float(x[0] * x[1] + np.sin(x[2]))

        p = np.array([0.3, -0.2, 0.4])
        out = d_function(planar.structure, f, p)
        assert len(calls) == 2 * planar.m
        assert not any(np.array_equal(x, p) for x in calls)
        exact = d_function(planar.structure, "x*y + sin(theta)", p)
        assert np.max(np.abs(out - exact)) < 1e-8


class TestDOneForm:
    def test_squared_differential_vanishes_for_lie_algebroid(self, planar, flat2, rng):
        """d^2 = 0 on tangent-bundle structures, up to the nested difference error."""
        for sysd in (flat2, planar):
            names = sysd.coords
            f = parse(" + ".join(f"sin({c})" for c in names) + " + " + "*".join(names))
            kdf = OneForm(lambda x, s=sysd: d_function(s.structure, f, x), sysd.m)
            X = Section.constant(rng.uniform(-1, 1, size=sysd.m))
            Y = Section.constant(rng.uniform(-1, 1, size=sysd.m))
            for p in sysd.sample(5, seed=3):
                assert abs(d_oneform(sysd.structure, kdf, X, Y, p, step=1e-4)) < 1e-5

    def test_antisymmetric_in_arguments(self, board):
        kappa = OneForm.constant([0.3, -1.0, 0.7])
        X = board.section_from_exprs(["1", "psi", "0"])
        Y = board.section_from_exprs(["0", "1", "x"])
        p = np.array([0.2, -0.3, 0.5, 0.1, 0.6])
        forward = d_oneform(board.structure, kappa, X, Y, p)
        backward = d_oneform(board.structure, kappa, Y, X, p)
        assert forward == pytest.approx(-backward, abs=1e-12)

    def test_snakeboard_flat_of_complement_halved_step_agreement(self, board):
        """Same formula at half the difference step agrees to 1e-4."""
        from algmech import flat

        e1, e3 = basis(0), basis(2)
        kappa = OneForm(lambda x: flat(board.metric, e1, x), 3)
        p = np.array([0.2, -0.3, 0.5, 0.1, 0.6])
        coarse = d_oneform(board.structure, kappa, e1, e3, p, step=1e-5)
        fine = d_oneform(board.structure, kappa, e1, e3, p, step=5e-6)
        assert coarse == pytest.approx(fine, abs=1e-4)
        assert abs(coarse) > 0.1  # genuinely nonzero pairing

    def test_snakeboard_squared_differential_does_not_vanish(self, board):
        """The induced bracket is not a Lie algebroid: d^2 psi pairs the first
        and third frame directions to minus the structure function C^2_13."""
        f = parse("psi")
        kdf = OneForm(lambda x: d_function(board.structure, f, x), 3)
        p = np.array([0.2, -0.3, 0.5, 0.1, 0.6])
        value = d_oneform(board.structure, kdf, basis(0), basis(2), p)
        expected = -board.structure.structure(p)[1, 0, 2]
        assert value == pytest.approx(expected, abs=1e-5)
        assert abs(value) > 0.5


class TestJacobiator:
    def test_tangent_bundle_structures_satisfy_jacobi(self, planar, leg, flat2, rng):
        for sysd in (planar, leg, flat2):
            X = Section.constant(rng.uniform(-1, 1, size=sysd.m))
            Y = sysd.basis_sections()[0]
            Z = sysd.basis_sections()[-1]
            for p in sysd.sample(3, seed=5):
                out = jacobiator(sysd.structure, X, Y, Z, p, step=1e-4)
                assert np.max(np.abs(out)) < 1e-4

    def test_constant_structure_algebra_is_exact(self, top):
        e = top.basis_sections()
        out = jacobiator(top.structure, e[0], e[1], e[2], np.zeros(0))
        assert np.max(np.abs(out)) < 1e-10

    def test_snakeboard_regression_value(self, board):
        """Recorded brute-force value at a fixed point and step; the structure
        is not assumed to satisfy Jacobi (its failure shows up through the
        anchor instead, see the d^2 test above)."""
        e = [basis(i) for i in range(3)]
        p = np.array([0.2, -0.3, 0.5, 0.1, 0.6])
        out = jacobiator(board.structure, e[0], e[1], e[2], p, step=1e-2)
        assert np.max(np.abs(out)) < 1e-6  # recorded: ~1e-9 at this step


def _admissibility_residual(S, traj) -> float:
    """Worst mismatch between the base velocity, by central differences over
    the interior samples, and the anchor image of the fiber; an admissible
    sampled curve gives O(step^2)."""
    dt = (traj.times[2:] - traj.times[:-2])[:, None]
    velocity = (traj.base[2:] - traj.base[:-2]) / dt
    anchored = np.array([S.anchor(x).T @ y for x, y in zip(traj.base[1:-1], traj.fiber[1:-1])])
    return float(np.max(np.abs(velocity - anchored)))


class TestAdmissibility:
    def test_lifted_flow_is_admissible(self, planar):
        from algmech import base_flow, lift

        step = 1e-2
        sigma = base_flow(planar.structure, basis(1), [0.1, 0.2, 0.3], 0.0, 1.0, step)
        traj = lift(basis(1), sigma)
        assert _admissibility_residual(planar.structure, traj) <= 10.0 * step ** 2

    def test_lift_of_straight_flow_is_sharply_admissible(self, planar):
        from algmech import base_flow, lift

        sigma = base_flow(planar.structure, basis(0), [0.0, 0.0, 0.0], 0.0, 1.0, 1e-2)
        traj = lift(basis(0), sigma)
        assert _admissibility_residual(planar.structure, traj) <= 1e-4


class TestLieClosure:
    def test_identity_anchor_full_rank_at_depth_one(self, flat2):
        assert lie_closure_rank(flat2.structure, np.zeros(2), 1) == 2

    def test_planar_controls_span_everything_at_depth_two(self, planar):
        p = np.array([0.3, -0.4, 0.8])
        sections = list(planar.controls.sections)
        assert lie_closure_rank(planar.structure, p, 1, sections=sections) == 2
        assert lie_closure_rank(planar.structure, p, 2, sections=sections) == 3

    def test_point_base_rank_zero(self, top):
        assert lie_closure_rank(top.structure, np.zeros(0), 2) == 0

    def test_depth_validation(self, flat2):
        with pytest.raises(ValueError):
            lie_closure_rank(flat2.structure, np.zeros(2), 0)

    def test_span_rank_threshold(self):
        vectors = [[1.0, 0.0], [1.0, 1e-12]]
        assert span_rank(vectors) == 1
        assert span_rank(np.zeros((2, 0))) == 0

    def test_span_rank_of_non_finite_vectors_is_refused(self):
        """An SVD of them would not converge: the reason is given instead."""
        from algmech.algebroid import _span_ranks

        with pytest.raises(ValueError, match="span is not finite"):
            span_rank([[1.0, 0.0], [np.inf, 1.0]])
        stack = np.array([np.eye(2), [[np.nan, 0.0], [0.0, 1.0]]])
        with pytest.raises(ValueError, match=r"span is not finite at \[0\.5\]"):
            _span_ranks(stack, [np.array([0.0]), np.array([0.5])])


class TestChartDomain:
    def test_sampling_respects_box_and_exclusions(self):
        chart = ChartDomain([-1.0, -2.0], [1.0, 2.0],
                            (Exclusion(1, 0.0, margin=0.5),))
        points = chart.sample(64, seed=3)
        assert points.shape == (64, 2)
        assert np.all(points[:, 0] >= -1.0) and np.all(points[:, 0] <= 1.0)
        assert np.all(np.abs(points[:, 1]) >= 0.5)

    def test_sampling_is_deterministic(self):
        chart = ChartDomain([0.0], [1.0])
        assert np.array_equal(chart.sample(10, seed=4), chart.sample(10, seed=4))
        assert not np.array_equal(chart.sample(10, seed=4), chart.sample(10, seed=5))

    @pytest.mark.parametrize("lower", [[0.0], []])
    def test_sample_count_must_be_positive(self, lower):
        chart = ChartDomain(lower, [1.0] if lower else [])
        with pytest.raises(ValueError, match="at least 1"):
            chart.sample(0)
        assert chart.sample(2).shape == (2, len(lower))

    @pytest.mark.parametrize("lower", [[0.0], []])
    def test_sample_count_is_an_integer(self, lower, planar):
        """A count that is not an integer raises rather than draw another
        number of points, and so does a battery given one."""
        chart = ChartDomain(lower, [1.0] if lower else [])
        for count in (2.5, 3.0, "3", None):
            with pytest.raises(TypeError):
                chart.sample(count)
        assert chart.sample(np.int64(3)).shape == (3, len(lower))
        with pytest.raises(TypeError):
            run_battery(planar, samples=2.5)

    @staticmethod
    def _qmc_scale_sample(chart, count, seed):
        """The sampling loop with qmc.scale, and the number of draws it took."""
        sampler = qmc.Halton(d=chart.dim, scramble=True, seed=seed)
        points, draws = [], 0
        while len(points) < count:
            draws += 1
            for row in qmc.scale(sampler.random(max(count, 8)), chart.lower, chart.upper):
                if not any(exc.violated(row) for exc in chart.exclusions) and len(points) < count:
                    points.append(row)
        return np.array(points), draws

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_sample_scales_as_qmc_scale(self, dim):
        rng = np.random.default_rng(dim)
        lower = rng.uniform(-5.0, 1.0, dim)
        chart = ChartDomain(lower, lower + rng.uniform(0.1, 7.0, dim))
        for seed in range(6):
            for count in (1, 5, 8, 20, 33):
                expected, _ = self._qmc_scale_sample(chart, count, seed)
                assert chart.sample(count, seed).tobytes() == expected.tobytes()

    def test_sample_draws_again_as_qmc_scale(self, board):
        """A snakeboard chart whose steering box reaches its exclusions: 2
        of the first 16 points are excluded, so the sample draws again."""
        doc = dump_spec(board)
        doc["chart"]["box"]["phi"] = [-3.0, 3.0]
        chart = load_spec(doc).chart
        expected, draws = self._qmc_scale_sample(chart, 16, 3)
        assert draws == 2
        assert chart.sample(16, 3).tobytes() == expected.tobytes()

    def test_contains(self):
        chart = ChartDomain([0.0], [1.0], (Exclusion(0, 0.5, margin=0.1),))
        assert chart.contains([0.2])
        assert not chart.contains([0.55])
        assert not chart.contains([1.4])
        # NaN compares false against every bound, so it counts as inside.
        assert chart.contains([np.nan]) and chart.contains(np.array([np.nan]))
        # The box is closed and the exclusion band open: a point 0.25 from
        # 0.5 is off a margin of 0.25 (all three values are exact in binary).
        edge = ChartDomain([0.0], [1.0], (Exclusion(0, 0.5, margin=0.25),))
        assert edge.contains([0.75]) and edge.contains([0.25])
        assert not edge.contains([0.7]) and not edge.contains([0.3])
        assert edge.contains([0.0]) and edge.contains([1.0])

    def test_contains_with_pad(self):
        """A positive pad widens the box; a negative one shrinks it."""
        chart = ChartDomain([-1.0, -2.0], [1.0, 2.0])
        point = np.array([0.9, -1.9])
        assert chart.contains(point)
        assert not chart.contains(point, pad=-0.2)
        assert chart.contains(point, pad=-0.1)
        assert chart.contains([1.25, 0.0], pad=0.25) and not chart.contains([1.25, 0.0])
        assert not chart.contains([1.5, 0.0], pad=0.25)

    def test_contains_checks_the_dimension(self):
        chart = ChartDomain([0.0, 0.0], [1.0, 1.0])
        for point in ([0.5], [0.5, 0.5, 0.5], np.array([0.5]), np.zeros(3)):
            with pytest.raises(ValueError, match="dimension"):
                chart.contains(point)
        point_base = ChartDomain([], [])
        assert point_base.contains([]) and point_base.contains(np.zeros(0))
        with pytest.raises(ValueError, match="dimension"):
            point_base.contains([0.0])


class TestTrajectory:
    def test_monotone_times_enforced(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.0]), np.zeros((2, 1)), None, step=0.1)

    def test_csv_round_trip_precision(self, tmp_path):
        times = np.array([0.0, 0.1])
        base = np.array([[1.0 / 3.0], [2.0 / 3.0]])
        fiber = np.array([[np.pi], [np.e]])
        traj = Trajectory(times, base, fiber, step=0.1)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,x1,y1"
        values = [float(v) for v in lines[1].split(",")]
        assert values == [0.0, 1.0 / 3.0, np.pi]
