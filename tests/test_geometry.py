import warnings

import numpy as np
import pytest

from algmech import (
    AlgebroidStructure,
    BundleMetric,
    Potential,
    Section,
    SingularMetricError,
    bracket,
    christoffel,
    christoffel_field,
    covariant_derivative,
    covariant_derivative_along,
    flat,
    gradient,
    integrate,
    sharp,
    spray_field,
    symmetric_product,
    symprod_via_lifts,
    TotalPoint,
)


def basis(i, m=3):
    return Section.basis(i, m)


def planar_gamma_expected(m, J, h):
    """Closed-form nonzero coefficients for the planar body, by (A, B, C)."""
    return {
        (0, 1, 1): h / J,
        (0, 1, 2): m * h / J,
        (0, 2, 1): -1.0 / h,
        (0, 2, 2): -m / h,
        (1, 1, 0): -h / (J + m * h ** 2),
        (1, 2, 0): J / (h * (J + m * h ** 2)),
        (2, 1, 0): -h ** 3 / (J * (J + m * h ** 2)),
        (2, 2, 0): h / (J + m * h ** 2),
    }


def leg_gamma_expected(r, m, J):
    """All twelve nonzero coefficients for the robotic leg at radius r."""
    d = J + m * r ** 2
    return {
        (1, 0, 0): -1.0 / (m * r ** 3),
        (0, 0, 1): J / (m * r * d),
        (2, 0, 1): 1.0 / (m * r * d),
        (1, 0, 2): -1.0 / r,
        (0, 1, 0): -J / (m * r * d),
        (2, 1, 0): -1.0 / (m * r * d),
        (0, 1, 2): J * r / d,
        (2, 1, 2): r / d,
        (1, 2, 0): -1.0 / r,
        (0, 2, 1): J * r / d,
        (2, 2, 1): r / d,
        (1, 2, 2): -r * m,
    }


class TestMetricOps:
    def test_flat_on_flat_space(self, flat2):
        p = np.array([0.2, 0.4])
        assert flat(flat2.metric, Section.basis(0, 2), p) == pytest.approx([1.0, 0.0])

    def test_planar_first_control_has_unit_length(self, planar):
        # m(cos^2 + sin^2)/m^2 = 1/m = 1 at the default parameters
        for theta in (0.0, 0.7, -2.1):
            p = np.array([0.0, 0.0, theta])
            assert planar.metric.matrix(p)[0, 0] == pytest.approx(1.0)

    def test_planar_frame_orthogonality(self, planar):
        p = np.array([1.0, -1.0, 0.3])
        assert planar.metric.matrix(p)[1, 2] == pytest.approx(0.0, abs=1e-14)

    def test_sharp_inverts_flat(self, planar, board, rng):
        for sysd in (planar, board):
            for p in sysd.sample(10, seed=11):
                v = rng.uniform(-2, 2, size=sysd.m)
                back = sharp(sysd.metric, flat(sysd.metric, v, p), p)
                assert np.max(np.abs(back - v)) < 1e-10

    def test_mirror_entries_compared_up_to_rounding(self):
        Gm = BundleMetric.from_exprs([["2", "0.1*r*3"], ["0.3*r", "2"]], ("r",))
        assert Gm.matrix([1.0])[1, 0] == pytest.approx(0.3)
        with pytest.raises(ValueError, match="differ"):
            BundleMetric.from_exprs([["2", "0.3*r"], ["0.31*r", "2"]], ("r",))
        # inf and -inf agree under a relative tolerance; a non-finite pair must not pass.
        with pytest.raises(ValueError, match="differ: not finite"):
            BundleMetric.from_exprs([["1", "1e308*10"], ["-(1e308*10)", "1"]], ("r",))

    def test_singular_metric_raises(self):
        Gm = BundleMetric(lambda x: np.zeros((2, 2)), 2)
        with pytest.raises(SingularMetricError):
            sharp(Gm, np.array([1.0, 0.0]), np.zeros(1))
        S = AlgebroidStructure.from_exprs(("x",), 2, [["1"], ["0"]], {})
        with pytest.raises(SingularMetricError, match=r"^metric is singular at \[0\.\]$"):
            christoffel(S, Gm, np.zeros(1))

    def test_stacked_sharp_is_the_per_point_one(self, planar, board):
        """At a stack, each row is bitwise its point's, and a metric that is
        singular or not finite at a point of the stack raises naming the
        first such point."""
        for sysd in (planar, board):
            points = sysd.sample(12, seed=11)
            kappa = np.linspace(-1.0, 1.0, 12 * sysd.m).reshape(12, sysd.m)
            stacked = sharp(sysd.metric, kappa, points)
            for p, k, row in zip(points, kappa, stacked):
                assert row.tobytes() == sharp(sysd.metric, k, p).tobytes()
        bad = np.array([[0.5], [0.0], [-1.0], [0.0]])
        Gm = BundleMetric(lambda x: np.eye(2) * x[0] if x[0] > -0.5 else np.full((2, 2), np.inf), 2)
        with pytest.raises(SingularMetricError, match=r"^metric is singular at \[0\.\]$"):
            Gm.inverse(bad)
        with pytest.raises(SingularMetricError, match=r"^metric is not finite at \[-1\.\]$"):
            Gm.inverse(bad[2:])

    def test_christoffel_evaluates_the_metric_once_at_the_point(self, planar):
        """One evaluation at p, plus two per anchored frame direction for rho(e_A)(G)."""
        points = []

        def counted(x):
            points.append(x)
            return planar.metric.matrix(x)

        p = np.array([0.2, -0.1, 0.4])
        gamma = christoffel(planar.structure, BundleMetric(counted, 3), p).gamma
        assert len(points) == 1 + 2 * planar.m
        assert np.array_equal(gamma, christoffel(planar.structure, planar.metric, p).gamma)


class TestChristoffel:
    def test_planar_body_table(self, planar):
        """Eight nonzero coefficients at unit parameters."""
        gamma = christoffel(planar.structure, planar.metric, np.array([0.5, -0.5, 1.1])).gamma
        expected = planar_gamma_expected(1.0, 1.0, 1.0)
        for (a, b, c), value in np.ndenumerate(gamma):
            assert value == pytest.approx(expected.get((a, b, c), 0.0), abs=1e-5)

    def test_planar_body_table_offdefault_parameters(self):
        from algmech import planar_body

        sysd = planar_body(m=2.0, J=0.5, h=1.5)
        gamma = christoffel(sysd.structure, sysd.metric, np.array([0.1, 0.2, -0.4])).gamma
        expected = planar_gamma_expected(2.0, 0.5, 1.5)
        for (a, b, c), value in np.ndenumerate(gamma):
            assert value == pytest.approx(expected.get((a, b, c), 0.0), abs=1e-5)

    def test_leg_entry_at_radius_two(self, leg):
        gamma = christoffel(leg.structure, leg.metric, np.array([2.0, 0.3, 0.1])).gamma
        assert gamma[1, 0, 0] == pytest.approx(-1.0 / 8.0, abs=1e-6)

    def test_leg_full_table_at_random_radii(self, leg, rng):
        for r in rng.uniform(0.5, 3.0, size=10):
            p = np.array([r, float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))])
            gamma = christoffel(leg.structure, leg.metric, p).gamma
            expected = leg_gamma_expected(r, 1.0, 1.0)
            for (a, b, c), value in np.ndenumerate(gamma):
                assert value == pytest.approx(expected.get((a, b, c), 0.0), abs=1e-5)

    def test_leg_golden_residual_is_rounding(self, leg):
        """Acceptance criterion 2's points and closed forms: with the exact
        metric Jacobian the worst entry error is at rounding level (finite
        differences left 1.3e-10)."""
        rng = np.random.default_rng(2)
        worst = 0.0
        for r in rng.uniform(0.5, 3.0, size=10):
            p = np.array([r, float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))])
            gamma = christoffel(leg.structure, leg.metric, p).gamma
            expected = leg_gamma_expected(r, 1.0, 1.0)
            for index, value in np.ndenumerate(gamma):
                worst = max(worst, abs(value - expected.get(index, 0.0)))
        assert worst <= 1e-12

    def test_exact_and_difference_paths_agree(self, leg, board):
        """The same data behind opaque callables takes the finite-difference
        path (anchored differences of the metric, frame differences for the
        induced brackets); both connections agree."""
        from algmech.systems import induced_algebroid

        frame, ambient = board.embedded["distribution"], board.document["ambient"]["metric"]
        ambient = BundleMetric.from_exprs(ambient, board.coords, board.params)
        structure_fn, gram_fn = induced_algebroid(lambda x: ambient.matrix(x), lambda x: frame(x))
        opaque_board = (AlgebroidStructure(board.coords, board.m, lambda x: frame(x), structure_fn),
                        BundleMetric(gram_fn, board.m))
        opaque_leg = (leg.structure, BundleMetric(lambda x: leg.metric.matrix(x), leg.m))
        for sysd, (S, Gm) in ((leg, opaque_leg), (board, opaque_board)):
            assert hasattr(sysd.metric, "value_and_jacobian")
            assert not hasattr(Gm, "value_and_jacobian")
            for p in sysd.sample(5, seed=3):
                exact = christoffel(sysd.structure, sysd.metric, p).gamma
                differenced = christoffel(S, Gm, p).gamma
                assert np.max(np.abs(exact - differenced)) <= 1e-7 * max(1.0, np.max(np.abs(exact)))

    def test_leg_full_table_offdefault_parameters(self):
        from algmech import robotic_leg

        sysd = robotic_leg(m=2.0, J=3.0)
        rng = np.random.default_rng(4)
        for r in rng.uniform(0.5, 3.0, size=5):
            p = np.array([r, float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))])
            gamma = christoffel(sysd.structure, sysd.metric, p).gamma
            expected = leg_gamma_expected(r, 2.0, 3.0)
            for (a, b, c), value in np.ndenumerate(gamma):
                assert value == pytest.approx(expected.get((a, b, c), 0.0), abs=1e-5)

    def test_leg_frame_data_against_embedded_construction(self):
        """The typed-in structure functions and metric agree with the ones
        induced from the ambient metric and the frame fields, at non-unit
        parameters."""
        from algmech import BundleMetric, robotic_leg
        from algmech.systems import induced_algebroid

        params = {"m": 1.7, "J": 2.3}
        sysd = robotic_leg(**params)
        coords = ("r", "theta", "psi")
        ambient = BundleMetric.from_exprs(
            [["m", "0", "0"], ["0", "m*r^2", "0"], ["0", "0", "J"]], coords, params)
        rows = [["0", "1/(m*r^2)", "-1/J"], ["1/m", "0", "0"], ["0", "1", "1"]]
        fields = [Section.from_exprs(row, coords, params) for row in rows]
        structure_fn, gram_fn = induced_algebroid(
            lambda x: ambient.matrix(x), lambda x: np.array([f(x) for f in fields]))
        for p in sysd.sample(5, seed=31):
            assert np.max(np.abs(structure_fn(p) - sysd.structure.structure(p))) < 1e-6
            assert np.max(np.abs(gram_fn(p) - sysd.metric.matrix(p))) < 1e-10

    def test_constant_data_gives_zero_connection(self):
        from algmech import AlgebroidStructure

        S = AlgebroidStructure.from_exprs(("x", "y"), 2, [["1", "0"], ["0", "1"]], {})
        Gm = BundleMetric.from_exprs([["2", "0"], ["0", "3"]], ("x", "y"))
        gamma = christoffel(S, Gm, np.array([0.3, 0.4])).gamma
        assert np.max(np.abs(gamma)) < 1e-12

    def test_koszul_solve_is_exact(self, leg):
        """Contracting the coefficients back with the metric reproduces the
        assembled right-hand side to linear-algebra precision."""
        p = np.array([1.3, 0.2, -0.5])
        S, Gm = leg.structure, leg.metric
        gamma = christoffel(S, Gm, p).gamma
        G, K = koszul_terms(S, Gm, p)
        reconstructed = 2.0 * np.einsum("ae,abc->bce", G, gamma)
        scale = max(1.0, np.max(np.abs(K)))
        assert np.max(np.abs(reconstructed - K)) / scale < 1e-9

    def test_antisymmetric_part_equals_structure_functions(self, planar, leg, board):
        for sysd in (planar, leg, board):
            for p in sysd.sample(5, seed=2):
                tensor = christoffel(sysd.structure, sysd.metric, p)
                assert np.max(np.abs(tensor.antisymmetric_part()
                                     - sysd.structure.structure(p))) < 1e-4

    def test_stacked_evaluator_is_the_per_point_one(self, all_builtins, unicycle):
        """A stack of points gives the evaluator's per-point tensors bitwise:
        one stacked inversion and contraction of the Koszul values.  Those
        come from the compiled Koszul table, so they agree with the numeric
        assembly of ``christoffel`` to rounding."""
        from algmech import load_spec
        from test_dynamics import BOARD_INTRINSIC, LEG_EMBEDDED

        systems = all_builtins + [unicycle, load_spec(LEG_EMBEDDED), load_spec(BOARD_INTRINSIC)]
        for sysd in systems:
            S, Gm = sysd.structure, sysd.metric
            at = christoffel_field(S, Gm)
            points = sysd.sample(200, seed=6)
            stacked = at(points)
            assert stacked.shape == (200,) + (sysd.m,) * 3
            for p, gamma in zip(points, stacked):
                assert np.array_equal(gamma, at(p)), sysd.name
                expected = christoffel(S, Gm, p).gamma
                scale = max(np.max(np.abs(expected)), np.finfo(float).tiny)
                assert np.max(np.abs(gamma - expected)) <= 1e-14 * scale, sysd.name

    def test_table_pairs_never_take_the_numeric_assembly(self, leg, board, unicycle, monkeypatch):
        """The evaluator of a pair of expression tables reads its compiled
        Koszul table, at a point and at a stack; a pair with an opaque
        callable assembles the Koszul terms numerically at every point."""
        from algmech import geometry
        from test_dynamics import opaque_frame_system

        calls = []
        original = geometry._koszul
        monkeypatch.setattr(geometry, "_koszul", lambda *args: calls.append(1) or original(*args))
        opaque_leg = AlgebroidStructure(leg.coords, 3, leg.structure.anchor,
                                        lambda x: leg.structure.structure(x))
        pairs = [(leg.structure, leg.metric, leg, 0), (board.structure, board.metric, board, 0),
                 (opaque_leg, leg.metric, leg, 1), (*opaque_frame_system(unicycle), unicycle, 1)]
        for S, Gm, sysd, per_point in pairs:
            at = christoffel_field(S, Gm)
            points = sysd.sample(4, seed=9)
            calls.clear()
            at(points[0])
            at(points)
            assert len(calls) == 5 * per_point, sysd.name

    def test_one_point_stack_is_the_pointwise_contraction(self, all_builtins, unicycle):
        """``christoffel`` is the one-point stack: bitwise the Koszul tensor
        of one point contracted with that point's inverse metric."""
        from algmech.geometry import _koszul

        for sysd in all_builtins + [unicycle]:
            S, Gm, m = sysd.structure, sysd.metric, sysd.m
            for p in sysd.sample(20, seed=5):
                _, G, K = _koszul(S, Gm, p)
                expected = (0.5 * (K.reshape(m * m, m) @ np.linalg.inv(G).T)).reshape(m, m, m)
                assert np.array_equal(christoffel(S, Gm, p).gamma,
                                      expected.transpose(2, 0, 1)), sysd.name

    def test_stacked_evaluator_raises_at_the_first_failing_point(self):
        """The metric is singular at x = 0 and x = 2: a stack fails as the
        per-point calls do, at the first of them in the stack."""
        S = AlgebroidStructure.from_exprs(("x",), 2, [["1"], ["0"]], {})
        Gm = BundleMetric.from_exprs([["1", "0"], ["0", "x*(x - 2)"]], ("x",))
        at = christoffel_field(S, Gm)
        assert at(np.array([[1.0], [-1.0]])).shape == (2, 2, 2, 2)
        with pytest.raises(SingularMetricError, match=r"metric is singular at \[2\.\]"):
            at(np.array([[1.0], [2.0], [-1.0], [0.0]]))
        with pytest.raises(SingularMetricError, match=r"metric is singular at \[0\.\]"):
            at(np.array([[0.0], [2.0]]))

    def test_constant_field_shortcut_matches_direct(self, planar):
        at = christoffel_field(planar.structure, planar.metric)
        p = np.array([2.0, -3.0, 0.9])
        direct = christoffel(planar.structure, planar.metric, p).gamma
        assert np.allclose(at(p), direct, atol=1e-12)


def koszul_terms(S, Gm, p):
    """``(G, K)`` with ``K[B, C, E] = 2 G(nabla_{e_B} e_C, e_E)`` written out
    as the six Koszul terms, one contraction each."""
    from algmech.algebroid import _differential

    if Gm.is_constant:
        G, rhoG = Gm.matrix(p), np.zeros((S.m,) * 3)
    else:
        G, dG = _differential(Gm, p)
        rhoG = dG(S.anchor(p))
    C = S.structure(p)
    K = (rhoG
         + np.einsum("cbe->bce", rhoG)                      # rho(e_C)(G_BE)
         - np.einsum("ebc->bce", rhoG)                      # rho(e_E)(G_BC)
         + np.einsum("bf,fec->bce", G, C)                   # G(e_B, [e_E, e_C])
         + np.einsum("cf,feb->bce", G, C)                   # G(e_C, [e_E, e_B])
         - np.einsum("ef,fcb->bce", G, C))                  # G(e_E, [e_C, e_B])
    return G, K


class TestKoszulKernel:
    def test_matches_the_six_term_reference(self, all_builtins):
        """The product-and-transpose assembly equals the term-by-term formula
        to rounding at 20 chart samples of every builtin."""
        for sysd in all_builtins:
            for p in sysd.sample(20, seed=17):
                gamma = christoffel(sysd.structure, sysd.metric, p).gamma
                G, K = koszul_terms(sysd.structure, sysd.metric, p)
                expected = 0.5 * np.einsum("ae,bce->abc", np.linalg.inv(G), K)
                assert gamma.shape == expected.shape
                assert (np.max(np.abs(gamma - expected))
                        <= 1e-15 * np.max(np.abs(expected))), (sysd.name, p)

    def test_non_finite_structure_is_rejected(self, planar):
        """One finiteness check on gamma catches a NaN from the structure functions."""
        S = AlgebroidStructure(planar.coords, planar.m, planar.structure.anchor,
                               lambda x: np.full((3, 3, 3), np.nan))
        with pytest.raises(ValueError, match="non-finite Christoffel entries"):
            christoffel(S, planar.metric, np.array([0.2, -0.1, 0.4]))


class TestCovariantDerivative:
    def test_symmetry_identity(self, planar, leg, rng):
        """nabla_X Y - nabla_Y X equals the bracket."""
        for sysd in (planar, leg):
            X = sysd.section_from_exprs(["sin(theta)", "1", "0"])
            Y = sysd.section_from_exprs(["0", "theta", "2"])
            for p in sysd.sample(5, seed=8):
                lhs = (covariant_derivative(sysd.structure, sysd.metric, X, Y, p)
                       - covariant_derivative(sysd.structure, sysd.metric, Y, X, p))
                rhs = bracket(sysd.structure, X, Y, p)
                assert np.max(np.abs(lhs - rhs)) < 1e-4

    def test_metricity_identity(self, planar, leg, board, rng):
        """rho(X)(G(Y, Z)) = G(nabla_X Y, Z) + G(Y, nabla_X Z); the snakeboard
        (n > m) has a configuration-dependent metric on its induced frame."""
        from algmech.expr import fd_directional

        cases = [
            (leg, ["1", "r", "0"], ["0", "1", "theta"], ["r", "0", "1"]),
            (planar, ["1", "x", "0"], ["0", "1", "theta"], ["y", "0", "1"]),
            (board, ["1", "phi", "0"], ["0", "1", "psi"], ["sin(phi)", "0", "1"]),
        ]
        for sysd, x_row, y_row, z_row in cases:
            S, Gm = sysd.structure, sysd.metric
            X, Y, Z = (sysd.section_from_exprs(row) for row in (x_row, y_row, z_row))
            for p in sysd.sample(5, seed=9):
                g_YZ = lambda x: float(Y(x) @ Gm.matrix(x) @ Z(x))
                lhs = fd_directional(g_YZ, p, S.anchor(p).T @ X(p))
                rhs = (float(covariant_derivative(S, Gm, X, Y, p) @ Gm.matrix(p) @ Z(p))
                       + float(Y(p) @ Gm.matrix(p) @ covariant_derivative(S, Gm, X, Z, p)))
                assert abs(lhs - rhs) < 1e-4

    def test_stacked_directions_match_one_call_per_row(self, planar, board):
        """A (k, m) stack of direction rows gives one nabla per row, from one
        derivative of the target; a coefficient vector acts as a constant section."""
        for sysd, row in ((planar, ["sin(theta)*x", "y^2", "cos(theta)"]),
                          (board, ["psi", "cos(phi)", "x"])):
            S, Gm, m = sysd.structure, sysd.metric, sysd.m
            Y = sysd.section_from_exprs(row)
            for p in sysd.sample(4, seed=23):
                gamma = christoffel(S, Gm, p).gamma
                stacked = covariant_derivative(S, Gm, np.eye(m), Y, p, gamma=gamma)
                assert stacked.shape == (m, m)
                for a in range(m):
                    single = covariant_derivative(S, Gm, basis(a, m), Y, p, gamma=gamma)
                    assert np.allclose(stacked[a], single, rtol=1e-14, atol=1e-14)
                    assert np.array_equal(
                        covariant_derivative(S, Gm, np.eye(m)[a], Y, p, gamma=gamma), single)

    def test_leg_self_derivative_of_first_control(self, leg):
        p = np.array([1.0, 0.4, -0.2])
        out = covariant_derivative(leg.structure, leg.metric, basis(0), basis(0), p)
        assert out == pytest.approx([0.0, -1.0, 0.0], abs=1e-5)


class TestCovariantDerivativeAlong:
    def test_geodesic_self_derivative_vanishes(self, planar):
        field = spray_field(planar.structure, planar.metric)
        traj = integrate(field, TotalPoint([0.1, 0.0, 0.2], [0.3, -0.2, 0.1]), 0.0, 1.0, 1e-3)
        for k in (len(traj) // 3, len(traj) // 2):
            out = covariant_derivative_along(planar.structure, planar.metric, traj,
                                             traj.fiber, traj.times[k])
            assert np.max(np.abs(out)) < 1e-6

    def test_constant_section_along_straight_line(self, flat2):
        field = spray_field(flat2.structure, flat2.metric)
        traj = integrate(field, TotalPoint([0.0, 0.0], [1.0, 0.5]), 0.0, 1.0, 1e-2)
        W = np.tile([0.7, -0.4], (len(traj), 1))
        out = covariant_derivative_along(flat2.structure, flat2.metric, traj, W,
                                         traj.times[len(traj) // 2])
        assert np.max(np.abs(out)) < 1e-12

    def test_controlled_planar_residual_stays_in_controls(self, planar):
        """Accelerating along the first control keeps the forced residual inside
        the control span."""
        from algmech import ControlSignal, Projector

        S, Gm = planar.structure, planar.metric
        u = ControlSignal(["1", "0"], planar.coords, planar.params)
        field = spray_field(S, Gm, inputs=planar.controls.sections, signal=u)
        traj = integrate(field, TotalPoint([0.0, 0.0, 0.0], [0.05, 0.1, 0.0]), 0.0, 1.0, 1e-3)
        P = Projector(planar.controls, Gm)
        for k in range(1, len(traj) - 1, 101):
            value = covariant_derivative_along(S, Gm, traj, traj.fiber, traj.times[k])
            assert np.max(np.abs(P.q_matrix(traj.base[k]) @ value)) < 1e-3

    def test_array_of_times_stacks_the_per_time_values(self, planar, leg):
        """An array of sample times gives the ``(N, m)`` stack of the values
        at each time, bitwise, with the Christoffel tensors passed or not."""
        for sysd in (planar, leg):
            S, Gm = sysd.structure, sysd.metric
            traj = integrate(spray_field(S, Gm), TotalPoint(sysd.sample(1, seed=3)[0],
                                                            [0.3, -0.2, 0.1]), 0.0, 0.5, 1e-2)
            times = traj.times[1:-1]
            out = covariant_derivative_along(S, Gm, traj, traj.fiber, times)
            assert out.shape == (len(times), S.m)
            gammas = christoffel_field(S, Gm)(traj.base[1:-1])
            assert np.array_equal(
                covariant_derivative_along(S, Gm, traj, traj.fiber, times, gamma=gammas), out)
            for t, row in zip(times, out):
                assert np.array_equal(covariant_derivative_along(S, Gm, traj, traj.fiber, t), row)

    def test_non_finite_neighbourhood_is_nan_without_a_warning(self, flat2):
        field = spray_field(flat2.structure, flat2.metric)
        traj = integrate(field, TotalPoint([0.0, 0.0], [1.0, 0.5]), 0.0, 0.1, 1e-2)
        W = np.tile([0.7, -0.4], (len(traj), 1))
        W[4] = [np.inf, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = covariant_derivative_along(flat2.structure, flat2.metric, traj, W,
                                             traj.times[1:-1])
        assert np.isnan(out[2:5]).all()
        assert np.isfinite(np.delete(out, [2, 3, 4], axis=0)).all()

    def test_sample_index_of_an_array_of_times(self, flat2):
        field = spray_field(flat2.structure, flat2.metric)
        traj = integrate(field, TotalPoint([0.0, 0.0], [1.0, 0.0]), 0.0, 0.1, 1e-2)
        assert traj.index_of(traj.times[3]) == 3
        assert traj.index_of(traj.times[-1] + 1e-12) == len(traj) - 1
        assert traj.index_of(traj.times[[5, 0, 2]]).tolist() == [5, 0, 2]
        with pytest.raises(ValueError, match="not a trajectory sample"):
            traj.index_of([traj.times[1], 0.015])

    def test_interior_time_required(self, flat2):
        field = spray_field(flat2.structure, flat2.metric)
        traj = integrate(field, TotalPoint([0.0, 0.0], [1.0, 0.0]), 0.0, 0.1, 1e-2)
        with pytest.raises(ValueError):
            covariant_derivative_along(flat2.structure, flat2.metric, traj,
                                       traj.fiber, traj.times[0])


class TestSymmetricProduct:
    def test_leg_products(self, leg):
        """First control squares to -2/(m r^3) times the second; the other
        pairings vanish."""
        for r in (1.0, 1.7, 2.5):
            p = np.array([r, 0.2, -0.1])
            s11 = symmetric_product(leg.structure, leg.metric, basis(0), basis(0), p)
            assert s11 == pytest.approx([0.0, -2.0 / r ** 3, 0.0], abs=1e-5)
            s12 = symmetric_product(leg.structure, leg.metric, basis(0), basis(1), p)
            s22 = symmetric_product(leg.structure, leg.metric, basis(1), basis(1), p)
            assert np.max(np.abs(s12)) < 1e-5
            assert np.max(np.abs(s22)) < 1e-5

    def test_planar_second_control_squares_to_first(self, planar):
        p = np.array([0.3, 0.1, -0.7])
        out = symmetric_product(planar.structure, planar.metric, basis(1), basis(1), p)
        assert out == pytest.approx([2.0, 0.0, 0.0], abs=1e-5)

    def test_commutative_by_construction(self, board, rng):
        X = board.section_from_exprs(["psi", "1", "x"])
        Y = board.section_from_exprs(["1", "phi", "0"])
        p = np.array([0.2, -0.3, 0.5, 0.1, 0.6])
        lhs = symmetric_product(board.structure, board.metric, X, Y, p)
        rhs = symmetric_product(board.structure, board.metric, Y, X, p)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestVerticalLiftOracle:
    def test_agrees_with_direct_path_on_all_builtins(self, all_builtins, rng):
        """Nested spray brackets against the Koszul path, twenty points each."""
        for sysd in all_builtins:
            X = sysd.basis_sections()[0]
            Y = sysd.basis_sections()[-1]
            points = sysd.sample(20, seed=21)
            for p in points:
                y0 = rng.uniform(-0.8, 0.8, size=sysd.m)
                direct = symmetric_product(sysd.structure, sysd.metric, X, Y, p)
                lifted = symprod_via_lifts(sysd.structure, sysd.metric, X, Y, p, y0)
                assert np.max(np.abs(direct - lifted)) < 1e-3

    def test_flat_constant_sections_give_zero(self, flat2):
        out = symprod_via_lifts(flat2.structure, flat2.metric,
                                Section.constant([1.0, 2.0]), Section.constant([0.5, -1.0]),
                                np.array([0.3, 0.4]), np.array([0.2, 0.2]))
        assert np.max(np.abs(out)) < 1e-9

    def test_planar_second_control_square_via_lifts(self, planar, rng):
        p = np.array([-0.2, 0.5, 0.9])
        out = symprod_via_lifts(planar.structure, planar.metric, basis(1), basis(1),
                                p, rng.uniform(-1, 1, size=3))
        assert out == pytest.approx([2.0, 0.0, 0.0], abs=1e-3)

    def test_independent_of_fiber_seed(self, leg, rng):
        p = np.array([1.4, 0.1, 0.6])
        values = [symprod_via_lifts(leg.structure, leg.metric, basis(0), basis(0), p,
                                    rng.uniform(-2, 2, size=3)) for _ in range(4)]
        for v in values[1:]:
            assert np.max(np.abs(v - values[0])) < 1e-6


class TestGradient:
    def test_flat_quadratic(self, flat2):
        V = Potential.from_expr("x1^2", flat2.coords)
        out = gradient(flat2.structure, flat2.metric, V, np.array([1.0, 0.5]))
        assert out == pytest.approx([2.0, 0.0], abs=1e-8)

    def test_callable_potential(self, flat2):
        """A plain callable is differenced along the anchored frame, both
        pointwise and as a section."""
        from algmech import gradient_section

        V, p = (lambda x: float(x[0] ** 2)), np.array([1.0, 0.5])
        for out in (gradient(flat2.structure, flat2.metric, V, p),
                    gradient_section(flat2.structure, flat2.metric, V)(p)):
            assert out == pytest.approx([2.0, 0.0], abs=1e-8)

    def test_constant_potential(self, planar):
        V = Potential.from_expr("7", planar.coords, planar.params)
        out = gradient(planar.structure, planar.metric, V, np.array([0.1, 0.2, 0.3]))
        assert np.max(np.abs(out)) < 1e-12

    def test_defining_identity(self, leg, rng):
        """G(grad V, X) equals the anchored derivative of V along X."""
        from algmech.expr import fd_directional

        S, Gm = leg.structure, leg.metric
        V = Potential.from_expr("r^2 + cos(theta)*sin(psi)", leg.coords, leg.params)
        X = leg.section_from_exprs(["1", "r", "theta"])
        for p in leg.sample(5, seed=13):
            lhs = float(gradient(S, Gm, V, p) @ Gm.matrix(p) @ X(p))
            rhs = float(fd_directional(V, p, S.anchor(p).T @ X(p)))
            assert abs(lhs - rhs) < 1e-5


class TestDerivativePaths:
    """Table sections are differentiated exactly, the same sections behind
    lambdas by central differences; the two paths agree."""

    CASES = (
        ("planar", ["sin(theta)*x", "y^2", "cos(theta)"], ["1", "x*y", "theta"],
         ["y", "cos(x)", "x*theta"]),
        ("leg", ["r^2", "sin(theta - psi)", "1/r"], ["cos(psi)", "r*theta", "2"],
         ["theta", "r", "psi^2"]),
        ("board", ["psi", "cos(phi)", "x"], ["1", "phi*y", "sin(theta)"],
         ["x*y", "1", "phi"]),
    )

    @staticmethod
    def _close(exact, differenced):
        scale = max(1.0, float(np.max(np.abs(exact))))
        return float(np.max(np.abs(exact - differenced))) <= 1e-7 * scale

    def test_table_and_lambda_sections_agree(self, request):
        from algmech import OneForm, d_oneform

        for fixture, x_row, y_row, k_row in self.CASES:
            sysd = request.getfixturevalue(fixture)
            S, Gm = sysd.structure, sysd.metric
            X, Y = sysd.section_from_exprs(x_row), sysd.section_from_exprs(y_row)
            kappa = OneForm.from_exprs(k_row, sysd.coords, sysd.params)
            assert all(hasattr(f, "value_and_jacobian") for f in (X, Y, kappa))
            oX, oY = (Section(lambda x, f=f: f(x), sysd.m) for f in (X, Y))
            okappa = OneForm(lambda x: kappa(x), sysd.m)
            for p in sysd.sample(4, seed=41):
                gamma = christoffel(S, Gm, p).gamma
                assert self._close(covariant_derivative(S, Gm, X, Y, p, gamma=gamma),
                                   covariant_derivative(S, Gm, oX, oY, p, gamma=gamma))
                assert self._close(symmetric_product(S, Gm, X, Y, p, gamma=gamma),
                                   symmetric_product(S, Gm, oX, oY, p, gamma=gamma))
                assert self._close(bracket(S, X, Y, p), bracket(S, oX, oY, p))
                assert self._close(np.array(d_oneform(S, kappa, X, Y, p)),
                                   np.array(d_oneform(S, okappa, oX, oY, p)))

    def test_fields_carry_the_tables_jacobian(self, leg):
        """A potential from an expression is a shape-() table; metric and
        section expose their tables' Jacobians, bitwise beside the values."""
        p = np.array([1.3, 0.2, -0.5])
        V = Potential.from_expr("r^2*cos(theta)", leg.coords, leg.params)
        value, dV = V.value_and_jacobian(p)
        assert value.shape == () and float(value) == V(p)
        assert dV == pytest.approx([2 * 1.3 * np.cos(0.2), -1.3 ** 2 * np.sin(0.2), 0.0],
                                   rel=1e-14)
        G, dG = leg.metric.value_and_jacobian(p)
        assert np.array_equal(G, leg.metric.matrix(p)) and dG.shape == (3, 3, 3)
        X = leg.section_from_exprs(["r", "theta", "1"])
        assert np.array_equal(X.value_and_jacobian(p)[0], X(p))
        assert not hasattr(Section.constant([1.0, 0.0, 0.0]), "value_and_jacobian")
