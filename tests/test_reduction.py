import numpy as np
import pytest

from algmech import (
    ForceField,
    Projector,
    Section,
    Subbundle,
    VerificationReport,
    geodesic_invariance_check,
    hj_residual,
    hj_trajectory_equivalence,
    is_decoupling,
    kinematic_reduction_check,
    maximal_reducibility_check,
    project,
    recover_controls,
    reparam_admissible,
    symmetric_closure,
)
from algmech.report import hj_algebraic_check


def basis(i, m=3):
    return Section.basis(i, m)


def hj_reference(S, Gm, V, Dc, X, p):
    """``hj_residual`` term by term: one covariant derivative per complement
    row, and the energy differential by the product rule."""
    from algmech import christoffel, covariant_derivative, d_function
    from algmech.algebroid import _differential
    from algmech.reduction import _orthonormal_complement

    (Xp, dX), (G, dG) = _differential(X, p), _differential(Gm, p)
    rows = _orthonormal_complement(G, np.zeros((0, S.m)) if Dc is None else Dc.matrix(p), p)
    gamma = christoffel(S, Gm, p).gamma
    nablaXX = covariant_derivative(S, Gm, X, X, p, gamma=gamma)
    R = S.anchor(p)
    rho_E = dX(R) @ G @ Xp + 0.5 * np.einsum("b,abc,c->a", Xp, dG(R), Xp)
    if V is not None:
        rho_E = rho_E + d_function(S, V, p)
    closedness = hj = 0.0
    for y in rows:
        nablaYX = covariant_derivative(S, Gm, Section.constant(y), X, p, gamma=gamma)
        closedness = max(closedness, abs(float(nablaXX @ G @ y) - float(nablaYX @ G @ Xp)))
        hj = max(hj, abs(float(y @ rho_E)))
    return closedness, hj


class TestProjector:
    def test_algebra_identities(self, planar, leg, board, rng):
        """Idempotence, complementarity and metric orthogonality at random points."""
        for sysd in (planar, leg, board):
            P = Projector(sysd.controls, sysd.metric)
            for p in sysd.sample(200, seed=17):
                Pm, Qm = P.p_matrix(p), P.q_matrix(p)
                G = sysd.metric.matrix(p)
                assert np.max(np.abs(Pm @ Pm - Pm)) < 1e-9
                assert np.max(np.abs(Pm + Qm - np.eye(sysd.m))) < 1e-12
                u, v = rng.uniform(-1, 1, size=(2, sysd.m))
                assert abs((Pm @ u) @ G @ (Qm @ v)) < 1e-9

    def test_projection_fixes_members(self, planar, rng):
        P = Projector(planar.controls, planar.metric)
        p = np.array([0.4, -0.3, 1.0])
        X = basis(0).plus(basis(1))
        assert np.max(np.abs(project(P, X, p) - X(p))) < 1e-9

    def test_reconstruction_on_random_vectors(self, board, rng):
        P = Projector(board.controls, board.metric)
        p = board.sample(1, seed=8)[0]
        for _ in range(10):
            v = rng.uniform(-2, 2, size=3)
            assert np.max(np.abs(P.p_matrix(p) @ v + P.q_matrix(p) @ v - v)) < 1e-12

    def test_planar_complement_is_fixed_by_q(self, planar):
        P = Projector(planar.controls, planar.metric)
        p = np.array([0.0, 0.0, 0.4])
        e3 = basis(2)
        assert np.max(np.abs(P.q_matrix(p) @ e3(p) - e3(p))) < 1e-9

    def test_declared_complements_match_computed(self, planar, leg, board):
        for sysd in (planar, leg, board):
            P = Projector(sysd.controls, sysd.metric)
            residual = P.declared_complement_residual(sysd.declared_complement,
                                                      sysd.sample(20, seed=19))
            assert residual < 1e-8

    def test_complement_basis_is_orthonormal(self, board):
        P = Projector(board.controls, board.metric)
        p = board.sample(1, seed=23)[0]
        rows = P.complement_basis(p)
        G = board.metric.matrix(p)
        assert rows.shape == (1, 3)
        assert rows[0] @ G @ rows[0] == pytest.approx(1.0, abs=1e-12)


class TestVerificationReport:
    def test_pass_requires_residual_below_tolerance(self):
        with pytest.raises(ValueError):
            VerificationReport("x", "pass", 1.0, None, 5, 1e-3)

    def test_fail_requires_witness(self):
        with pytest.raises(ValueError):
            VerificationReport("x", "fail", 1.0, None, 5, 1e-3)

    def test_pass_requires_a_finite_residual(self):
        with pytest.raises(ValueError, match="not finite"):
            VerificationReport("x", "pass", float("nan"), None, 5, 1e-3)

    def test_serialization_keys(self):
        rep = VerificationReport("x", "fail", 1.0, np.array([0.0, 1.0]), 5, 1e-3)
        doc = rep.to_dict()
        assert set(doc) >= {"predicate", "verdict", "worst_residual",
                            "witness_point", "samples", "tolerance"}
        assert doc["witness_point"] == [0.0, 1.0]


NAN_SECTION = Section(lambda x: np.full(3, np.nan), 3, label="nan")


def only_at(points, row):
    """A section equal to ``row`` at the given points and NaN elsewhere, so
    its value is finite at the samples and every difference of it is NaN."""
    return Section(lambda x: np.array(row, dtype=float)
                   if any(np.array_equal(x, q) for q in points) else np.full(len(row), np.nan),
                   len(row))


def assert_non_finite(rep, point):
    assert rep.verdict == "inconclusive", rep
    assert rep.details["inconclusive_reason"].startswith("non-finite residual")
    assert np.array_equal(rep.details["non_finite_point"], point)


class TestNonFiniteResiduals:
    """A residual that is not finite never passes: the report is inconclusive
    and names the reason and the first such point."""

    def test_nan_section_sweeps(self, planar):
        S, Gm, Dc = planar.structure, planar.metric, planar.controls
        points = planar.sample(4, seed=0)
        assert_non_finite(is_decoupling(S, Gm, Dc, NAN_SECTION, points), points[0])
        assert_non_finite(hj_algebraic_check(planar, NAN_SECTION, points), points[0])
        nan_factor = lambda x: float("nan")
        assert_non_finite(reparam_admissible(S, Gm, Dc, nan_factor, points), points[0])

    def test_nan_force(self, planar):
        points = planar.sample(3, seed=2)
        F = ForceField(lambda x, y: np.full(3, np.nan), 3)
        rep = is_decoupling(planar.structure, planar.metric, planar.controls, basis(0),
                            points, force=F)
        assert_non_finite(rep, points[0])

    def test_nan_symmetric_product(self, planar):
        """The spans are finite at the samples; their symmetric products,
        which difference them, are not."""
        points = planar.sample(3, seed=1)
        candidate = Subbundle((only_at(points, [1.0, 0.0, 0.0]),))
        rep = kinematic_reduction_check(planar.structure, planar.metric, planar.controls,
                                        candidate, points)
        assert_non_finite(rep, points[0])

    def test_nan_along_invariance_trajectory(self, planar):
        """The candidate turns NaN once the geodesic leaves |x| < 0.05."""
        X = Section(lambda x: np.array([1.0, 0.0, 0.0]) if abs(x[0]) < 0.05
                    else np.full(3, np.nan), 3)
        rep = geodesic_invariance_check(planar.structure, planar.metric, Subbundle((X,)),
                                        np.zeros((1, 3)), horizon=1.0, step=1e-2)
        assert rep.verdict == "inconclusive"
        assert np.isfinite(rep.details["algebraic_residual"])
        assert abs(rep.details["non_finite_point"][0]) >= 0.05

    def test_nan_generator_in_maximal_reducibility(self, leg):
        candidate = Subbundle(leg.controls.sections + (NAN_SECTION,))
        points = leg.sample(3, seed=0)
        rep = maximal_reducibility_check(leg.structure, leg.metric, leg.controls, candidate,
                                         points)
        assert_non_finite(rep, points[0])

    def test_nan_hj_closedness(self, planar):
        p0 = planar.sample(1, seed=0)[0]
        rep = hj_trajectory_equivalence(planar.structure, planar.metric, None,
                                        planar.controls, NAN_SECTION, p0, 1.0, 1e-2)
        assert_non_finite(rep, p0)

    def test_non_finite_reports_are_strict_json(self, planar):
        """A non-finite residual is written as null, and the reason names it."""
        import json

        points = planar.sample(4, seed=0)
        rep = is_decoupling(planar.structure, planar.metric, planar.controls, NAN_SECTION, points)
        doc = json.loads(json.dumps(rep.to_dict(), allow_nan=False))
        assert doc["verdict"] == "inconclusive" and doc["worst_residual"] is None
        assert doc["details"]["inconclusive_reason"] == "non-finite residual (nan)"
        assert doc["details"]["non_finite_point"] == points[0].tolist()

    def test_energy_spread_keeps_a_later_nan(self, flat2):
        """The candidate's energy is NaN from the second sample on; the
        spread says so, and the report still serializes strictly."""
        import json

        points = flat2.sample(6, seed=0)
        first = points[0]
        X = Section(lambda x: np.array([0.6, -0.8]) if np.array_equal(x, first)
                    else np.full(2, np.nan), 2)
        rep = hj_algebraic_check(flat2, X, points, 1e-5)
        assert rep.verdict == "inconclusive"
        assert np.isnan(rep.details["energy_spread"])
        doc = json.loads(json.dumps(rep.to_dict(), allow_nan=False))
        assert doc["details"]["energy_spread"] is None

    def test_nan_declared_complement(self, planar):
        residual = Projector(planar.controls, planar.metric).declared_complement_residual(
            [NAN_SECTION], planar.sample(2, seed=0))
        assert np.isnan(residual)


class TestDecoupling:
    def test_planar_controls_are_decoupling(self, planar):
        points = planar.sample(20, seed=0)
        for X in planar.controls.sections:
            rep = is_decoupling(planar.structure, planar.metric, planar.controls, X, points)
            assert rep.verdict == "pass"

    def test_planar_complement_is_not(self, planar):
        points = planar.sample(20, seed=0)
        rep = is_decoupling(planar.structure, planar.metric, planar.controls,
                            basis(2), points)
        assert rep.verdict == "fail"
        assert rep.witness_point is not None
        assert rep.worst_residual > 0.5

    def test_snakeboard_controls_are_decoupling(self, board):
        points = board.sample(20, seed=0)
        for X in board.controls.sections:
            rep = is_decoupling(board.structure, board.metric, board.controls, X, points)
            assert rep.verdict == "pass"

    def test_snakeboard_complement_fails(self, board):
        points = board.sample(10, seed=0)
        rep = is_decoupling(board.structure, board.metric, board.controls, basis(0), points)
        assert rep.verdict == "fail"

    def test_scaling_preserves_verdicts(self, planar):
        points = planar.sample(10, seed=1)
        for c in (2.0, -3.0, 0.25):
            good = is_decoupling(planar.structure, planar.metric, planar.controls,
                                 basis(0).scaled_by(c), points)
            bad = is_decoupling(planar.structure, planar.metric, planar.controls,
                                basis(2).scaled_by(c), points)
            assert good.verdict == "pass"
            assert bad.verdict == "fail"

    def test_force_outside_controls_is_inconclusive(self, planar):
        points = planar.sample(5, seed=2)
        F = ForceField.from_section(basis(2))  # pushes along the complement
        rep = is_decoupling(planar.structure, planar.metric, planar.controls,
                            basis(0), points, force=F)
        assert rep.verdict == "inconclusive"

    def test_compatible_force_keeps_verdict(self, planar):
        points = planar.sample(5, seed=2)
        F = ForceField.from_section(basis(0).scaled_by(0.3))
        rep = is_decoupling(planar.structure, planar.metric, planar.controls,
                            basis(0), points, force=F)
        assert rep.verdict == "pass"


class TestKinematicReduction:
    def test_leg_controls_form_a_reduction(self, leg):
        rep = kinematic_reduction_check(leg.structure, leg.metric, leg.controls,
                                        leg.controls, leg.sample(20, seed=0))
        assert rep.verdict == "pass"

    def test_planar_controls_do_not(self, planar):
        rep = kinematic_reduction_check(planar.structure, planar.metric, planar.controls,
                                        planar.controls, planar.sample(20, seed=0))
        assert rep.verdict == "fail"
        assert rep.worst_residual > 0.4  # the cross product leaks onto the complement

    def test_rank_one_span_agrees_with_decoupling(self, planar):
        points = planar.sample(15, seed=4)
        for X, expected in ((basis(0), "pass"), (basis(1), "pass"), (basis(2), "fail")):
            single = Subbundle((X,), label="single")
            rep = kinematic_reduction_check(planar.structure, planar.metric,
                                            planar.controls, single, points)
            assert rep.verdict == expected
            assert is_decoupling(planar.structure, planar.metric, planar.controls,
                                 X, points).verdict == expected


class TestSymmetricClosure:
    def test_planar_controls_fill_the_fiber_in_one_step(self, planar):
        p = np.array([0.5, -0.5, 0.3])
        rank, generators = symmetric_closure(planar.structure, planar.metric,
                                             planar.controls, 3, p)
        assert rank == 3
        assert len(generators) > 2

    def test_leg_controls_are_a_fixpoint(self, leg):
        p = np.array([1.5, 0.2, -0.6])
        rank, generators = symmetric_closure(leg.structure, leg.metric,
                                             leg.controls, 4, p)
        assert rank == 2

    def test_full_bundle_is_immediate(self, planar):
        full = Subbundle(tuple(planar.basis_sections()), label="full")
        rank, generators = symmetric_closure(planar.structure, planar.metric, full, 3,
                                             np.array([0.1, 0.1, 0.1]))
        assert rank == 3
        assert len(generators) == 3

    def test_rank_is_monotone_in_depth(self, planar, board):
        for sysd in (planar, board):
            p = sysd.sample(1, seed=6)[0]
            ranks = [symmetric_closure(sysd.structure, sysd.metric, sysd.controls,
                                       d, p)[0] for d in (0, 1, 2, 3)]
            assert all(a <= b for a, b in zip(ranks, ranks[1:]))


class TestGeodesicInvariance:
    def test_leg_controls_pass_both_routes(self, leg):
        rep = geodesic_invariance_check(leg.structure, leg.metric, leg.controls,
                                        leg.sample(8, seed=0), horizon=1.0, step=1e-2)
        assert rep.verdict == "pass"
        assert rep.details["algebraic_residual"] < 1e-5
        assert rep.details["trajectory_residual"] < 1e-3

    def test_planar_controls_fail_both_routes(self, planar):
        rep = geodesic_invariance_check(planar.structure, planar.metric, planar.controls,
                                        planar.sample(8, seed=0), horizon=1.0, step=1e-2)
        assert rep.verdict == "fail"
        assert rep.details["algebraic_residual"] > 1e-2
        assert rep.details["trajectory_residual"] > 1e-2

    def test_whole_bundle_is_invariant(self, planar):
        full = Subbundle(tuple(planar.basis_sections()), label="full")
        rep = geodesic_invariance_check(planar.structure, planar.metric, full,
                                        planar.sample(5, seed=0), horizon=0.5, step=1e-2)
        assert rep.verdict == "pass"


class TestMaximalReducibility:
    def test_verdict_vector(self, planar, leg, board):
        outcomes = {}
        for sysd in (planar, leg, board):
            rep = maximal_reducibility_check(sysd.structure, sysd.metric, sysd.controls,
                                             sysd.controls, sysd.sample(15, seed=0))
            outcomes[sysd.name] = rep.verdict
        assert outcomes == {"planar_body": "fail", "robotic_leg": "pass",
                            "snakeboard": "fail"}

    def test_forced_systems_rejected(self, planar):
        F = ForceField.from_section(basis(0))
        with pytest.raises(ValueError, match="force-free"):
            maximal_reducibility_check(planar.structure, planar.metric, planar.controls,
                                       planar.controls, planar.sample(3, seed=0), force=F)


class TestHamiltonJacobi:
    def test_planar_family_passes(self, planar):
        points = planar.sample(20, seed=0)
        rep = hj_algebraic_check(planar, planar.candidates["gY1"], points, 1e-4)
        assert rep.verdict == "pass"
        assert rep.details["closedness_residual"] < 1e-4

    def test_leg_family_passes(self, leg):
        points = leg.sample(20, seed=0)
        rep = hj_algebraic_check(leg, leg.candidates["fY1"], points, 1e-4)
        assert rep.verdict == "pass"

    def test_planar_perturbed_candidate_fails_with_witness(self, planar):
        points = planar.sample(20, seed=0)
        rep = hj_algebraic_check(planar, planar.candidates["xY1"], points, 1e-4)
        assert rep.verdict == "fail"
        assert rep.witness_point is not None
        assert rep.worst_residual > 0.1

    def test_pointwise_residual_pair(self, planar):
        closed, hj = hj_residual(planar.structure, planar.metric, planar.potential,
                                 planar.controls, planar.candidates["xY1"],
                                 np.array([1.0, 0.5, 1.2]))
        assert hj > 0.1
        assert closed > 0.1

    def test_unconstrained_variant_uses_all_directions(self, planar):
        # the family solves the constrained equation only: unconstrained residual
        # along control directions is generically nonzero
        closed, hj = hj_residual(planar.structure, planar.metric, planar.potential,
                                 None, planar.candidates["gY1"], np.array([0.7, 0.4, 0.2]))
        assert hj > 1e-3

    def test_unconstrained_check_reports_energy_spread(self, flat2):
        points = flat2.sample(10, seed=0)
        constant = Section.constant([0.6, -0.8])
        rep = hj_algebraic_check(flat2, constant, points, 1e-5)
        assert rep.verdict == "pass"
        assert rep.details["energy_spread"] < 1e-12
        linear = flat2.section_from_exprs(["x1", "0"], label="linear")
        rep = hj_algebraic_check(flat2, linear, points, 1e-5)
        assert rep.verdict == "fail"
        assert rep.details["energy_spread"] > 0.1

    def test_residuals_match_the_term_by_term_formula(self, planar, leg, board):
        """The rows nabla_{e_A} X and metric compatibility give the residuals
        of one covariant derivative per row and the product rule, passing
        and failing candidates, with controls and without."""
        cases = [(sysd, name, Dc) for sysd in (planar, leg, board)
                 for name in sysd.candidates for Dc in (sysd.controls, None)]
        for sysd, name, Dc in cases:
            X = sysd.candidates[name]
            for p in sysd.sample(4, seed=13):
                got = hj_residual(sysd.structure, sysd.metric, sysd.potential, Dc, X, p)
                expected = hj_reference(sysd.structure, sysd.metric, sysd.potential, Dc, X, p)
                for value, reference in zip(got, expected):
                    assert abs(value - reference) <= 1e-12 * max(1.0, reference), (sysd.name, name)

    def test_one_candidate_derivative_per_point(self, planar, board, monkeypatch):
        """hj_residual takes the candidate's value and Jacobian once per point,
        with controls and without."""
        from algmech import load_spec

        skew = load_spec({
            "name": "skew_metric", "base": ["x", "y"], "fiber": 2, "mode": "intrinsic",
            "anchor": [["1", "0"], ["0", "1"]], "structure": {},
            "metric": [["2", "1"], ["1", "2"]],
            "chart": {"box": {"x": [-1.0, 1.0], "y": [-1.0, 1.0]}},
        })
        cases = ((planar, planar.candidates["gY1"], planar.controls),
                 (board, board.candidates["psiX3"], board.controls),
                 (skew, skew.section_from_exprs(["y", "0"]), None))
        for sysd, X, Dc in cases:
            calls = []
            original = X.value_and_jacobian

            def counted(x, original=original, calls=calls):
                calls.append(1)
                return original(x)

            monkeypatch.setattr(X, "value_and_jacobian", counted)
            for p in sysd.sample(3, seed=6):
                before = len(calls)
                hj_residual(sysd.structure, sysd.metric, sysd.potential, Dc, X, p)
                assert len(calls) - before == 1, sysd.name
            monkeypatch.undo()

    def test_trajectory_equivalence_for_families(self, planar, leg):
        for sysd, name in ((planar, "gY1"), (leg, "fY1")):
            p0 = sysd.sample(4, seed=0)[0]
            rep = hj_trajectory_equivalence(sysd.structure, sysd.metric, sysd.potential,
                                            sysd.controls, sysd.candidates[name],
                                            p0, 2.0, 1e-3)
            assert rep.verdict == "pass"
            assert rep.worst_residual <= 1e-3

    def test_trajectory_inconclusive_when_closedness_fails(self, planar):
        """The perturbed candidate violates the closedness hypothesis, so the
        trajectory criterion cannot certify or refute the equation."""
        p0 = planar.sample(4, seed=0)[0]
        rep = hj_trajectory_equivalence(planar.structure, planar.metric, planar.potential,
                                        planar.controls, planar.candidates["xY1"],
                                        p0, 1.0, 1e-3)
        assert rep.verdict == "inconclusive"
        assert rep.details["closedness_residual"] > 1e-3

    def test_unconstrained_equivalence_with_potential(self):
        """A gradient section balancing an inverted quadratic well solves the
        unconstrained equation exactly: the lifted flow satisfies the forced
        geodesic equation with the potential gradient."""
        from algmech import Potential, euclidean

        line = euclidean(1)
        X = line.section_from_exprs(["x1"], label="X")
        V = Potential.from_expr("-0.5*x1^2", line.coords)
        closed, hj = hj_residual(line.structure, line.metric, V, None, X,
                                 np.array([0.7]))
        assert closed < 1e-8 and hj < 1e-8
        rep = hj_trajectory_equivalence(line.structure, line.metric, V, None, X,
                                        np.array([0.3]), 1.0, 1e-3)
        assert rep.verdict == "pass"
        assert rep.worst_residual < 1e-6

        quartic = Potential.from_expr("-x1^4", line.coords)
        _, hj_bad = hj_residual(line.structure, line.metric, quartic, None, X,
                                np.array([0.7]))
        assert hj_bad > 0.1
        bad = hj_trajectory_equivalence(line.structure, line.metric, quartic, None, X,
                                        np.array([0.5]), 1.0, 1e-3)
        assert bad.verdict == "fail"
        assert bad.worst_residual > 1e-2

    def test_zero_section_trajectory_residual_vanishes(self, planar):
        zero = Section.constant([0.0, 0.0, 0.0])
        rep = hj_trajectory_equivalence(planar.structure, planar.metric, None,
                                        planar.controls, zero,
                                        np.array([0.1, 0.2, 0.3]), 0.5, 1e-2)
        assert rep.verdict == "pass"
        assert rep.worst_residual == 0.0

    def test_theorem_equivalence_property(self, planar, leg):
        """Sections passing the differential test at tolerance tau also pass the
        trajectory test at 10 tau plus the integrator allowance."""
        tau = 1e-4
        for sysd, name in ((planar, "gY1"), (planar, "gY2"), (leg, "fY1")):
            points = sysd.sample(10, seed=0)
            alg = hj_algebraic_check(sysd, sysd.candidates[name], points, tau)
            assert alg.verdict == "pass"
            rep = hj_trajectory_equivalence(sysd.structure, sysd.metric, sysd.potential,
                                            sysd.controls, sysd.candidates[name],
                                            points[0], 2.0, 1e-3, tol=10 * tau + 1e-4)
            assert rep.verdict == "pass"


class TestReparametrization:
    def test_planar_family_function_passes(self, planar):
        rep = reparam_admissible(planar.structure, planar.metric, planar.controls,
                                 planar.reparam_candidates["g"], planar.sample(20, seed=0))
        assert rep.verdict == "pass"

    def test_coordinate_function_fails(self, planar):
        rep = reparam_admissible(planar.structure, planar.metric, planar.controls,
                                 planar.reparam_candidates["coord_x"],
                                 planar.sample(20, seed=0))
        assert rep.verdict == "fail"
        assert rep.witness_point is not None

    def test_constant_passes(self, planar, board):
        for sysd in (planar, board):
            rep = reparam_admissible(sysd.structure, sysd.metric, sysd.controls,
                                     "3.5", sysd.sample(10, seed=0))
            assert rep.verdict == "pass"

    def test_snakeboard_candidates(self, board):
        points = board.sample(10, seed=0)
        good = reparam_admissible(board.structure, board.metric, board.controls,
                                  board.reparam_candidates["psi_fun"], points)
        bad = reparam_admissible(board.structure, board.metric, board.controls,
                                 board.reparam_candidates["coord_x"], points)
        assert good.verdict == "pass"
        assert bad.verdict == "fail"


class TestControlRecovery:
    def test_recovers_driftless_coefficients(self, planar):
        from algmech import base_flow, lift

        X = basis(0).scaled_by(0.7).plus(basis(1).scaled_by(-0.4))
        sigma = base_flow(planar.structure, X, [0.1, 0.0, 0.2], 0.0, 1.0, 1e-2)
        traj = lift(X, sigma)
        coeffs, residuals = recover_controls(planar.structure, planar.controls, traj)
        assert np.max(np.abs(coeffs - [0.7, -0.4])) < 1e-12
        assert np.max(residuals) < 1e-12

    def test_reports_residual_outside_span(self, planar):
        from algmech import base_flow, lift

        X = basis(2)
        sigma = base_flow(planar.structure, X, [0.1, 0.0, 0.2], 0.0, 0.5, 1e-2)
        traj = lift(X, sigma)
        coeffs, residuals = recover_controls(planar.structure, planar.controls, traj)
        assert np.max(residuals) > 0.5


@pytest.fixture(scope="module")
def traced_batteries(planar, leg, board):
    """``run_battery`` at seed 0 on each builtin, with the name of the function
    that called ``fd_directional`` recorded at every call."""
    import sys

    from algmech import expr
    from algmech.report import run_battery

    original = expr.fd_directional
    out = {}
    with pytest.MonkeyPatch.context() as patch:
        for sysd in (planar, leg, board):
            callers = []

            def recording(*args, callers=callers, **kwargs):
                callers.append(sys._getframe(1).f_code.co_name)
                return original(*args, **kwargs)

            # Every algmech namespace that binds the function, wherever it is called from.
            for name, module in list(sys.modules.items()):
                if (name.split(".")[0] == "algmech"
                        and getattr(module, "fd_directional", None) is original):
                    patch.setattr(module, "fd_directional", recording)
            out[sysd.name] = (run_battery(sysd, seed=0), callers)
            patch.undo()
    return out


class TestOneDerivativePath:
    def test_battery_differences_only_anchored_vector_fields(self, traced_batteries):
        """Every table-backed field is differentiated exactly; only the Lie
        brackets of anchored vector fields (closure ranks) take differences."""
        for name, (_, callers) in traced_batteries.items():
            assert callers, name
            assert set(callers) == {"vector_field_bracket"}, (name, set(callers))

    def test_exact_hj_and_reparam_residuals(self, traced_batteries):
        """Candidates that solve the equations exactly leave no difference error."""
        expected = {"planar_body": ("hj:gY1", "hj:gY2", "reparam:g"),
                    "robotic_leg": ("hj:fY1", "reparam:f")}
        for name, labels in expected.items():
            checks = {c["label"]: c for c in traced_batteries[name][0]["checks"]}
            for label in labels:
                assert checks[label]["verdict"] == "pass"
                assert checks[label]["worst_residual"] <= 1e-14, (name, label)

    def test_unconstrained_hj_uses_a_metric_orthonormal_basis(self):
        """Without controls the equation is tested along a G-orthonormal basis
        of the fiber: with G = [[2, 1], [1, 2]], Gram-Schmidt from e1 gives
        e1/sqrt(2) and (e2 - e1/2)/sqrt(3/2)."""
        from algmech import load_spec

        sysd = load_spec({
            "name": "skew_metric", "base": ["x", "y"], "fiber": 2, "mode": "intrinsic",
            "anchor": [["1", "0"], ["0", "1"]], "structure": {},
            "metric": [["2", "1"], ["1", "2"]],
            "chart": {"box": {"x": [-1.0, 1.0], "y": [-1.0, 1.0]}},
        })
        X = sysd.section_from_exprs(["y", "0"])
        for y in (0.3, -0.7):
            # G(X, X)/2 = y^2, so its differential is (0, 2y)
            _, hj = hj_residual(sysd.structure, sysd.metric, None, None, X,
                                np.array([0.1, y]))
            assert hj == pytest.approx(2 * abs(y) / np.sqrt(1.5), rel=1e-12)
