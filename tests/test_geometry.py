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
    metric_eval,
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
            assert metric_eval(planar.metric, basis(0), basis(0), p) == pytest.approx(1.0)

    def test_planar_frame_orthogonality(self, planar):
        p = np.array([1.0, -1.0, 0.3])
        assert metric_eval(planar.metric, basis(1), basis(2), p) == pytest.approx(0.0, abs=1e-14)

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
        G = Gm.matrix(p)
        C = S.structure(p)
        from algmech.expr import fd_partial

        dG = np.array([fd_partial(Gm.matrix, p, i) for i in range(3)])
        rhoG = np.einsum("ai,icd->acd", S.anchor(p), dG)
        K = (rhoG + np.einsum("cbe->bce", rhoG) - np.einsum("ebc->bce", rhoG)
             + np.einsum("bf,fec->bce", G, C) + np.einsum("cf,feb->bce", G, C)
             - np.einsum("ef,fcb->bce", G, C))
        reconstructed = 2.0 * np.einsum("ae,abc->bce", G, gamma)
        scale = max(1.0, np.max(np.abs(K)))
        assert np.max(np.abs(reconstructed - K)) / scale < 1e-9

    def test_antisymmetric_part_equals_structure_functions(self, planar, leg, board):
        for sysd in (planar, leg, board):
            for p in sysd.sample(5, seed=2):
                tensor = christoffel(sysd.structure, sysd.metric, p)
                assert np.max(np.abs(tensor.antisymmetric_part()
                                     - sysd.structure.structure(p))) < 1e-4

    def test_constant_field_shortcut_matches_direct(self, planar):
        at = christoffel_field(planar.structure, planar.metric)
        p = np.array([2.0, -3.0, 0.9])
        direct = christoffel(planar.structure, planar.metric, p).gamma
        assert np.allclose(at(p), direct, atol=1e-12)


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
