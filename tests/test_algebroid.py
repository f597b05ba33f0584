import numpy as np
import pytest

from algmech import (
    AlgebroidStructure,
    ChartDomain,
    Exclusion,
    OneForm,
    Section,
    Trajectory,
    admissibility_residual,
    anchor_apply,
    bracket,
    d_function,
    d_oneform,
    jacobiator,
    lie_closure_rank,
    parse,
)
from algmech.algebroid import span_rank


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


class TestAdmissibility:
    def test_constant_base_nonzero_fiber_is_inadmissible(self, planar):
        times = np.linspace(0.0, 1.0, 11)
        base = np.tile([0.0, 0.0, 0.0], (11, 1))
        fiber = np.tile([1.0, 0.0, 0.0], (11, 1))
        traj = Trajectory(times, base, fiber, step=0.1)
        assert admissibility_residual(planar.structure, traj) > 0.5

    def test_zero_fiber_constant_base(self, planar):
        times = np.linspace(0.0, 1.0, 11)
        traj = Trajectory(times, np.zeros((11, 3)), np.zeros((11, 3)), step=0.1)
        assert admissibility_residual(planar.structure, traj) == 0.0

    def test_lifted_flow_is_admissible(self, planar):
        from algmech import base_flow, lift

        step = 1e-2
        sigma = base_flow(planar.structure, basis(1), [0.1, 0.2, 0.3], 0.0, 1.0, step)
        traj = lift(basis(1), sigma)
        assert admissibility_residual(planar.structure, traj) <= 10.0 * step ** 2

    def test_lift_of_straight_flow_is_sharply_admissible(self, planar):
        from algmech import base_flow, lift

        sigma = base_flow(planar.structure, basis(0), [0.0, 0.0, 0.0], 0.0, 1.0, 1e-2)
        traj = lift(basis(0), sigma)
        assert admissibility_residual(planar.structure, traj) <= 1e-4


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
