import math

import numpy as np
import pytest

from algmech import (
    ForceField,
    Projector,
    Section,
    Subbundle,
    VerificationReport,
    christoffel,
    christoffel_field,
    covariant_derivative,
    dump_spec,
    geodesic_invariance_check,
    hj_residual,
    hj_trajectory_equivalence,
    is_decoupling,
    kinematic_reduction_check,
    load_spec,
    maximal_reducibility_check,
    reparam_admissible,
    symmetric_closure,
    symmetric_product,
)
from algmech.reduction import _orthonormal_complement
from algmech.report import hj_algebraic_check, run_battery


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
        X = Section.constant([1.0, 1.0, 0.0])
        assert np.max(np.abs(P.p_matrix(p) @ X(p) - X(p))) < 1e-9

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


def pointwise_worst(residuals, points):
    """The worst residual and its witness of a per-point pass, which stops at
    its first non-finite residual."""
    worst, witness = -1.0, None
    for value, p in zip(residuals, points):
        if not np.isfinite(value):
            return value, p
        if value > worst:
            worst, witness = value, p
    return worst, witness


def outside(Q, v):
    return float(np.max(np.abs(Q @ v))) if np.isfinite(v).all() else np.nan


class TestStackedPasses:
    """A stack ``(N, n)`` of points gives the per-point projectors, and the
    passes that read them give the per-point residuals, bitwise; a stack
    fails where the per-point calls fail, and a sweep only at a point that
    the per-point sweep reaches."""

    def test_stacked_projectors_are_the_per_point_ones(self, all_builtins, unicycle):
        for sysd in all_builtins + [unicycle]:
            span = sysd.controls or Subbundle((Section.basis(0, sysd.m),))
            P = Projector(span, sysd.metric)
            points = sysd.sample(200, seed=4)
            Q, Pm = P.q_matrix(points), P.p_matrix(points)
            assert Q.shape == Pm.shape == (200, sysd.m, sysd.m)
            for p, Qp, Pp in zip(points, Q, Pm):
                assert np.array_equal(Qp, P.q_matrix(p)), sysd.name
                assert np.array_equal(Pp, P.p_matrix(p)), sysd.name

    def test_one_point_projector_is_the_gram_solve(self, all_builtins, unicycle):
        """A point is a stack of one: its projector is bitwise the Gram solve
        ``B^T (B G B^T)^-1 B G`` at that point."""
        for sysd in all_builtins + [unicycle]:
            span = sysd.controls or Subbundle((Section.basis(0, sysd.m),))
            P = Projector(span, sysd.metric)
            for p in sysd.sample(200, seed=4):
                B, G = span.matrix(p), sysd.metric.matrix(p)
                expected = B.T @ np.linalg.solve(B @ G @ B.T, B @ G)
                assert np.array_equal(P.p_matrix(p), expected), sysd.name

    def test_empty_stack(self, planar):
        P = Projector(planar.controls, planar.metric)
        assert P.q_matrix(np.zeros((0, 3))).shape == (0, 3, 3)

    def test_non_finite_points_give_nan_rows_without_a_warning(self, planar):
        import warnings

        X = Section(lambda x: np.full(3, np.inf) if x[0] > 0 else np.array([1.0, 0.0, 0.0]), 3)
        P = Projector(Subbundle((X, basis(1))), planar.metric)
        points = planar.sample(8, seed=0)
        assert (points[:, 0] > 0).any() and (points[:, 0] <= 0).any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Q = P.q_matrix(points)
        for p, Qp in zip(points, Q):
            if p[0] > 0:
                assert np.isnan(Qp).all()
            else:
                assert np.array_equal(Qp, P.q_matrix(p))

    @staticmethod
    def degenerate_span(points, k, nan_at=None):
        """A one-section span that is zero at ``points[k]``, NaN at
        ``points[nan_at]`` and ``e1`` elsewhere."""
        def value(x):
            if np.array_equal(x, points[k]):
                return np.zeros(3)
            if nan_at is not None and np.array_equal(x, points[nan_at]):
                return np.full(3, np.nan)
            return np.array([1.0, 0.0, 0.0])

        return Subbundle((Section(value, 3),))

    def test_degenerate_span_raises_at_its_point(self, planar):
        import re

        points = planar.sample(6, seed=3)
        message = re.escape(f"subbundle span is degenerate at {points[3]}")
        P = Projector(self.degenerate_span(points, 3, nan_at=1), planar.metric)
        with pytest.raises(ValueError, match=message):
            P.q_matrix(points)
        # The per-point sweep reaches the degenerate point and raises there.
        Dc = self.degenerate_span(points, 3)
        with pytest.raises(ValueError, match=message):
            is_decoupling(planar.structure, planar.metric, Dc, basis(0), points)

    def test_earlier_nan_stops_the_sweep_first(self, planar):
        """The per-point sweep stops at the NaN point and never reaches the
        degenerate one; so does the stacked sweep."""
        points = planar.sample(6, seed=3)
        Dc = self.degenerate_span(points, 3, nan_at=1)
        assert_non_finite(is_decoupling(planar.structure, planar.metric, Dc, basis(0), points),
                          points[1])
        assert_non_finite(kinematic_reduction_check(planar.structure, planar.metric, Dc,
                                                    Subbundle((basis(0),)), points), points[1])
        rep = geodesic_invariance_check(planar.structure, planar.metric, Dc, points)
        assert_non_finite(rep, points[1])
        assert "trajectories" not in rep.details

    def test_geodesic_route_is_the_per_point_one(self, planar, leg, board):
        """The trajectory route integrates its geodesics, with the seeded
        draws in trajectory order, and projects all their samples at once:
        its residual and witness are those of the per-point pass."""
        from algmech import TotalPoint, integrate, spray_field

        for sysd in (planar, leg, board):
            S, Gm, span = sysd.structure, sysd.metric, sysd.controls
            points = sysd.sample(5, seed=2)
            rep = geodesic_invariance_check(S, Gm, span, points, seed=7)
            rng, P = np.random.default_rng(7), Projector(span, Gm)
            residuals, where = [], []
            for p in points[:3]:
                y0 = span.matrix(p).T @ rng.uniform(-1.0, 1.0, size=span.rank)
                y0 = y0 / max(1.0, float(np.max(np.abs(y0))))
                traj = integrate(spray_field(S, Gm), TotalPoint(p, y0), 0.0, 1.0, 1e-2)
                residuals += [outside(P.q_matrix(x), y) for x, y in zip(traj.base, traj.fiber)]
                where += list(traj.base)
            worst, _ = pointwise_worst(residuals, where)
            assert rep.details["trajectory_residual"] == worst, sysd.name
            assert rep.details["trajectories"] == 3

    def test_hj_route_is_the_per_point_one(self, planar, leg, board):
        """The stacked covariant derivative along the curve and projection
        give the per-point residuals, with a potential too."""
        from algmech import base_flow, covariant_derivative_along, gradient, lift

        doc = dump_spec(planar)
        doc["potential"] = "0.1*x^2 + cos(theta)"
        with_potential = load_spec(doc)
        cases = [(planar, "gY1"), (planar, "xY1"), (with_potential, "gY2"), (leg, "fY1"),
                 (board, "psiX3"), (board, "xX2")]
        for sysd, name in cases:
            S, Gm, V, Dc, X = (sysd.structure, sysd.metric, sysd.potential, sysd.controls,
                               sysd.candidates[name])
            p0 = sysd.sample(3, seed=5)[1]
            rep = hj_trajectory_equivalence(S, Gm, V, Dc, X, p0, 1.0, 1e-2)
            traj = lift(X, base_flow(S, X, p0, 0.0, 1.0, 1e-2))
            P = Projector(Dc, Gm)
            residuals = []
            for k in range(1, len(traj) - 1):
                x = traj.base[k]
                value = covariant_derivative_along(S, Gm, traj, traj.fiber, traj.times[k])
                if V is not None:
                    value = value + gradient(S, Gm, V, x)
                residuals.append(outside(P.q_matrix(x), value))
            worst, _ = pointwise_worst(residuals, traj.base[1:-1])
            assert rep.worst_residual == worst, (sysd.name, name)


    def test_hj_sweep_is_the_per_point_one(self, planar, leg, board, monkeypatch):
        """The algebraic HJ sweep reads the Christoffel tensors of one
        stack: its residuals are those of ``hj_residual`` point by point,
        and it computes no tensor of its own at any sample."""
        import dataclasses

        from algmech import reduction

        unconstrained = dataclasses.replace(planar, controls=None)
        cases = [(planar, "gY1"), (planar, "xY1"), (leg, "fY1"), (board, "psiX3"),
                 (unconstrained, "gY1")]
        expected = []
        for sysd, name in cases:
            S, Gm, V, Dc, X = (sysd.structure, sysd.metric, sysd.potential, sysd.controls,
                               sysd.candidates[name])
            points = sysd.sample(12, seed=6)
            pairs = [hj_residual(S, Gm, V, Dc, X, p) for p in points]
            expected.append((pointwise_worst([hj for _, hj in pairs], points),
                             max(closed for closed, _ in pairs)))
        calls = []
        original = reduction.christoffel
        monkeypatch.setattr(reduction, "christoffel", lambda *a: calls.append(1) or original(*a))
        for (sysd, name), ((worst, witness), closedness) in zip(cases, expected):
            rep = hj_algebraic_check(sysd, sysd.candidates[name], sysd.sample(12, seed=6))
            assert rep.worst_residual == worst, (sysd.name, name)
            assert rep.details["closedness_residual"] == closedness, (sysd.name, name)
            assert rep.verdict == "pass" or np.array_equal(rep.witness_point, witness)
        assert calls == []

    def test_hj_sweep_under_spanning_controls_takes_no_tensor(self, planar, monkeypatch):
        """Controls that span the fiber leave no complement, where
        ``hj_residual`` needs no tensor: the sweep then evaluates none."""
        import dataclasses

        from algmech import reduction

        def refuse(S, Gm):
            raise AssertionError("a Christoffel evaluator was built")

        spanning = dataclasses.replace(planar, controls=Subbundle((basis(0), basis(1), basis(2))))
        monkeypatch.setattr(reduction, "christoffel_field", refuse)
        rep = hj_algebraic_check(spanning, planar.candidates["gY1"], planar.sample(6, seed=1))
        assert rep.verdict == "pass" and rep.worst_residual == 0.0


BUILTIN_FIXTURES = ["planar", "leg", "board", "flat2", "top"]


def hj_sections(sysd):
    """The candidate sections of a builtin, or one section over its coordinates."""
    if sysd.candidates:
        return list(sysd.candidates.values())
    coords = sysd.coords or ("1",)
    return [sysd.section_from_exprs([f"{k + 1}*{coords[k % len(coords)]}^2 + 0.5"
                                     for k in range(sysd.m)], label="quadratic")]


def gram_schmidt(G, span):
    """The complement rows of one point, one vector at a time: the
    arithmetic that the stacked Gram-Schmidt must reproduce bit for bit."""
    from algmech.reduction import _RANK_EPS

    m = len(G)
    if not (np.isfinite(G).all() and np.isfinite(span).all()):
        return np.full((max(m - len(span), 0), m), np.nan)
    basis = []

    def push(v):
        v = v.astype(float).copy()
        for b in basis:
            v -= (b @ G @ v) * b
        norm_sq = float(v @ G @ v)
        if norm_sq > _RANK_EPS ** 2:
            basis.append(v / np.sqrt(norm_sq))
            return True
        return False

    for row in span:
        push(row)
    assert len(basis) == len(span)
    complement = [basis[-1] for unit in np.eye(m) if push(unit)]
    return np.array(complement) if complement else np.zeros((0, m))


def hj_pointwise(S, Gm, V, Dc, X, p, gamma):
    """The residual pair of ``hj_residual`` at one point, by the per-point
    products: one covariant derivative call, then matrix-vector products."""
    from algmech import d_function

    G = Gm.matrix(p)
    rows = gram_schmidt(G, np.zeros((0, S.m)) if Dc is None else Dc.matrix(p))
    if rows.size == 0:
        return 0.0, 0.0
    N = covariant_derivative(S, Gm, np.eye(S.m), X, p, gamma=gamma)
    Xp = X(p)
    pairing = N @ G @ Xp
    rho_E = pairing if V is None else pairing + d_function(S, V, p)
    return (float(np.max(np.abs(rows @ G @ (Xp @ N) - rows @ pairing))),
            float(np.max(np.abs(rows @ rho_E))))


def equal_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def zero_at(section, point):
    """``section`` with the value zero at ``point``."""
    return Section(lambda x: np.zeros(section.rank) if np.array_equal(x, point) else section(x),
                   section.rank)


class TestStackedRows:
    """Each row of a stacked derivative, complement or Hamilton-Jacobi pair
    is bitwise its point's, on every builtin; a stacked sweep reports what
    the per-point sweep reports, witness, reason and closedness included,
    and raises the error of the first failing point it reaches."""

    @pytest.mark.parametrize("fixture", BUILTIN_FIXTURES)
    def test_value_and_jacobian(self, fixture, request):
        from algmech import Potential, d_function
        from algmech.algebroid import _ExprTable

        sysd = request.getfixturevalue(fixture)
        S, Gm = sysd.structure, sysd.metric
        sections = (sysd.controls.sections if sysd.controls else ()) + tuple(hj_sections(sysd))
        fields = [S._anchor_fn, S._structure_fn, Gm._fn, *getattr(Gm._fn, "induced", ()),
                  *(X._fn for X in sections)]
        tables = [f for f in fields if isinstance(f, _ExprTable)]
        assert tables
        points = sysd.sample(12, seed=9)
        for table in tables:
            values, jacobians = table.value_and_jacobian(points)
            for p, value, jacobian in zip(points, values, jacobians):
                expected = table.value_and_jacobian(p)
                assert equal_bits(value, expected[0]) and equal_bits(jacobian, expected[1])
        # d_function at a stack: exact for a table, a difference per row of
        # an opaque callable.
        scalar = "*".join(f"cos({c})" for c in sysd.coords) or "2"
        V = Potential.from_expr(scalar, sysd.coords, sysd.params)
        for f in (V, lambda x: V(x)):
            stacked = d_function(S, f, points)
            assert stacked.shape == (12, sysd.m)
            for p, row in zip(points, stacked):
                assert equal_bits(row, d_function(S, f, p)), sysd.name

    def test_stacked_jacobian_on_both_sides_of_the_compile_threshold(self, monkeypatch):
        """The stacked value_and_jacobian, a call per point up to
        _STACK_COMPILE_POINTS stacked points and one compiled loop after:
        the same rows, structurally zero columns, folded tables and empty
        stacks on both sides."""
        from algmech import algebroid
        from algmech import expr as ex
        from algmech.algebroid import _ExprTable

        compiled = []
        compile_stack = ex._compile_stack
        monkeypatch.setattr(ex, "_compile_stack", lambda f: compiled.append(f) or compile_stack(f))
        table = _ExprTable(["x*y", "sin(x)", "3"], (3,), ("x", "y"), {})
        folded = _ExprTable(["2", "k"], (2,), ("x",), {"k": 3.0})
        limit = algebroid._STACK_COMPILE_POINTS
        points = np.random.default_rng(404).uniform(-1.0, 1.0, size=(limit, 2))
        for stack, compiles in ((points[:2], 0), (points[2:], 0), (points[:3], 2), (points, 2)):
            values, jacobians = table.value_and_jacobian(stack)
            assert jacobians.shape == (len(stack), 3, 2) and not jacobians[:, 2].any()
            for p, value, jacobian in zip(stack, values, jacobians):
                expected = table.value_and_jacobian(p)
                assert equal_bits(value, expected[0]) and equal_bits(jacobian, expected[1])
            values, jacobians = folded.value_and_jacobian(np.zeros((len(stack), 1)))
            assert equal_bits(values, np.tile([2.0, 3.0], (len(stack), 1)))
            assert equal_bits(jacobians, np.zeros((len(stack), 2, 1)))
            assert table.value_and_jacobian(np.zeros((0, 2)))[1].shape == (0, 3, 2)
            assert len(compiled) == compiles

    @pytest.mark.parametrize("fixture", BUILTIN_FIXTURES)
    def test_complement_basis(self, fixture, request):
        """With controls, and without: all directions, as ``hj_residual``
        takes them when ``Dc`` is None."""
        sysd = request.getfixturevalue(fixture)
        span = sysd.controls or Subbundle((Section.basis(0, sysd.m),))
        points = sysd.sample(12, seed=9)
        G = sysd.metric.matrix(points)
        stacks = [(Projector(span, sysd.metric).complement_basis(points), span.matrix(points)),
                  (_orthonormal_complement(G, np.zeros((12, 0, sysd.m)), points),
                   np.zeros((12, 0, sysd.m)))]
        for (rows, counts), spans in stacks:
            for Gp, spanp, row, count in zip(G, spans, rows, counts):
                expected = gram_schmidt(Gp, spanp)
                assert equal_bits(row[:count], expected) and not row[count:].any(), sysd.name

    def test_complement_of_random_metrics(self, rng):
        """Dense random metrics and spans, where any other order of the sums
        would round differently: every row is the per-point Gram-Schmidt's."""
        for m, r in ((2, 1), (3, 1), (3, 2), (4, 2), (5, 3), (5, 0)):
            A = rng.uniform(-1.0, 1.0, size=(40, m, m))
            G = A @ A.transpose(0, 2, 1) + m * np.eye(m)
            if r == 0:
                # A direction of negligible length at every third point: its
                # push is rejected there, so the complements differ in size.
                G[::3, 1] *= 1e-10
                G[::3, :, 1] *= 1e-10
            span = rng.uniform(-1.0, 1.0, size=(40, r, m))
            rows, counts = _orthonormal_complement(G, span, np.zeros((40, 1)))
            assert len(set(counts)) == (2 if r == 0 else 1)
            for Gp, spanp, row, count in zip(G, span, rows, counts):
                assert equal_bits(row[:count], gram_schmidt(Gp, spanp)), (m, r)

    def test_hj_pair_of_complements_of_different_sizes(self):
        """Points whose complements differ in size are multiplied apart, each
        with its own row count, as at the point: a single row takes another
        BLAS routine than several, which rounds differently at m = 4."""
        sysd = load_spec({
            "name": "thin", "base": ["x", "y"], "fiber": 4, "mode": "intrinsic",
            "anchor": [["1", "0"], ["0", "1"], ["x", "y"], ["y", "1"]], "structure": {},
            # The last direction has negligible length where x = 0.
            "metric": [["3 + x", "0.5*sin(x)", "0.3*cos(y)", "0.1*x*sin(y)"],
                       ["", "3 + y", "0.2*x*y", "0.2*x"],
                       ["", "", "2 + x*y", "0.1*x*cos(y)"],
                       ["", "", "", "1e-18 + x^2"]],
            "chart": {"box": {"x": [-1.0, 1.0], "y": [-1.0, 1.0]}},
        })
        S, Gm = sysd.structure, sysd.metric
        Dc = Subbundle((Section.basis(0, 4), Section.basis(1, 4)))
        X = sysd.section_from_exprs(["x*y + 1", "sin(y)", "x - y^2", "cos(x*y)"])
        points = np.array([[0.5, 0.1], [0.0, 0.3], [0.7, -0.2], [0.0, -0.9], [-0.6, 0.4],
                           [0.3, 0.8], [0.0, 0.5]])
        assert Projector(Dc, Gm).complement_basis(points)[1].tolist() == [2, 1, 2, 1, 2, 2, 1]
        gammas = christoffel_field(S, Gm)(points)
        closed, hj = hj_residual(S, Gm, None, Dc, X, points, gamma=gammas)
        pairs = [hj_pointwise(S, Gm, None, Dc, X, p, g) for p, g in zip(points, gammas)]
        assert equal_bits(closed, [c for c, _ in pairs]) and equal_bits(hj, [h for _, h in pairs])

    @pytest.mark.parametrize("fixture", BUILTIN_FIXTURES)
    def test_hj_residual_pair(self, fixture, request):
        """Candidates with controls and without, each also as an opaque
        callable, whose derivative takes the difference path."""
        sysd = request.getfixturevalue(fixture)
        S, Gm, V = sysd.structure, sysd.metric, sysd.potential
        points = sysd.sample(12, seed=9)
        gammas = christoffel_field(S, Gm)(points)
        for X in hj_sections(sysd):
            opaque = Section(lambda x, X=X: X(x), X.rank, label="opaque")
            for Y in (X, opaque):
                for Dc in (sysd.controls, None):
                    closed, hj = hj_residual(S, Gm, V, Dc, Y, points, gamma=gammas)
                    pairs = [hj_pointwise(S, Gm, V, Dc, Y, p, g) for p, g in zip(points, gammas)]
                    assert equal_bits(closed, [c for c, _ in pairs]), (sysd.name, Y.label)
                    assert equal_bits(hj, [h for _, h in pairs]), (sysd.name, Y.label)
                    # Without a tensor: christoffel's at each point.
                    for p, c, h in zip(points[:3], *hj_residual(S, Gm, V, Dc, Y, points[:3])):
                        assert hj_residual(S, Gm, V, Dc, Y, p) == (c, h)
                        assert (c, h) == hj_pointwise(S, Gm, V, Dc, Y, p, christoffel(S, Gm, p).gamma)

    @pytest.mark.parametrize("fixture", BUILTIN_FIXTURES)
    def test_covariant_derivative(self, fixture, request):
        """Rows, a vector and a section as ``X``, against a table section,
        an opaque one and one that is not finite at one point."""
        sysd = request.getfixturevalue(fixture)
        S, Gm, m = sysd.structure, sysd.metric, sysd.m
        points = sysd.sample(12, seed=9)
        gammas = christoffel_field(S, Gm)(points)
        X = hj_sections(sysd)[0]
        opaque = Section(lambda x: X(x), m)
        nan_at_4 = Section(lambda x: np.full(m, np.nan) if np.array_equal(x, points[4]) else X(x), m)
        for Y in (X, opaque, nan_at_4):
            for Z in (np.eye(m), np.eye(m)[-1], X, Y):
                stacked = covariant_derivative(S, Gm, Z, Y, points, gamma=gammas)
                singles = [covariant_derivative(S, Gm, Z, Y, p, gamma=g)
                           for p, g in zip(points, gammas)]
                assert stacked.shape == (12, *np.shape(singles[0]))
                assert equal_bits(stacked, singles), sysd.name
        # Without tensors: christoffel's at each point.
        assert equal_bits(covariant_derivative(S, Gm, np.eye(m), X, points[:3]),
                          [covariant_derivative(S, Gm, np.eye(m), X, p) for p in points[:3]])

    @pytest.mark.parametrize("fixture", BUILTIN_FIXTURES)
    def test_jacobian_that_takes_only_a_point(self, fixture, request):
        """A field whose ``value_and_jacobian`` takes only a point, as the
        induced Gram matrix of an embedded metric (the snakeboard's) does,
        is read once per point of a stack: the rows are its points'."""
        from algmech import Potential, d_function
        from algmech.algebroid import _differential

        class PointOnly:
            def __init__(self, fn):
                self.fn = fn

            def __call__(self, x):
                return self.fn(x)

            def value_and_jacobian(self, x):
                assert np.ndim(x) == 1
                return self.fn.value_and_jacobian(x)

        sysd = request.getfixturevalue(fixture)
        S, Gm, m = sysd.structure, sysd.metric, sysd.m
        points = sysd.sample(12, seed=9)
        directions = np.broadcast_to(S.anchor(points[0]), (12, m, sysd.n))
        values, along = _differential(Gm, points)
        for p, value, row in zip(points, values, along(directions)):
            single, along_at = _differential(Gm, p)
            assert equal_bits(value, single) and equal_bits(row, along_at(directions[0]))
        scalar = "*".join(f"cos({c})" for c in sysd.coords) or "2"
        V = Potential(PointOnly(Potential.from_expr(scalar, sysd.coords, sysd.params)._fn))
        assert equal_bits(d_function(S, V, points), [d_function(S, V, p) for p in points])
        X = hj_sections(sysd)[0]
        Y = Section(PointOnly(X._fn), m)
        gammas = christoffel_field(S, Gm)(points)
        closed, hj = hj_residual(S, Gm, V, sysd.controls, Y, points, gamma=gammas)
        pairs = [hj_residual(S, Gm, V, sysd.controls, X, p, gamma=g)
                 for p, g in zip(points, gammas)]
        assert equal_bits(closed, [c for c, _ in pairs]) and equal_bits(hj, [h for _, h in pairs])

    @pytest.mark.parametrize("fixture", ["planar", "leg", "board", "flat2"])
    def test_non_finite_at_one_point_of_twelve(self, fixture, request):
        """A section that is NaN at one point of 12, and a potential that is
        infinite around it (the difference of its derivative reads it
        there): the sweep stops at that point, with the witness, the reason
        and the closedness of the points it visited, as the per-point sweep.
        The closedness is NaN with the section and finite with the
        potential, which it does not read."""
        import dataclasses
        from functools import reduce

        from algmech import Potential
        from algmech.reduction import _max

        sysd = request.getfixturevalue(fixture)
        S, Gm, m = sysd.structure, sysd.metric, sysd.m
        points = sysd.sample(12, seed=9)
        bad = points[4]
        X = hj_sections(sysd)[-1]
        nan_section = Section(lambda x: np.full(m, np.nan) if np.array_equal(x, bad) else X(x), m)
        infinite = Potential(lambda x: np.inf if np.max(np.abs(x - bad)) < 1e-3 else float(x @ x))
        gammas = christoffel_field(S, Gm)(points)
        for Y, V in ((nan_section, None), (X, infinite)):
            rep = hj_algebraic_check(dataclasses.replace(sysd, potential=V), Y, points)
            pairs = [hj_pointwise(S, Gm, V, sysd.controls, Y, p, g) for p, g in zip(points, gammas)]
            worst, witness = pointwise_worst([h for _, h in pairs], points)
            assert not np.isfinite(worst) and np.array_equal(witness, bad)
            assert_non_finite(rep, bad)
            assert np.array_equal(rep.witness_point, bad)
            assert rep.details["inconclusive_reason"] == f"non-finite residual ({worst})"
            closedness = reduce(_max, [c for c, _ in pairs[:5]], 0.0)
            assert math.isfinite(closedness) == (V is not None)
            got = rep.details["closedness_residual"]
            assert got == closedness or math.isnan(got) and math.isnan(closedness), sysd.name

    @pytest.mark.parametrize("fixture", ["planar", "leg", "board", "flat2"])
    def test_degenerate_span_at_one_point(self, fixture, request):
        """A span that drops rank at points 6 and 9 of 12 raises at point 6,
        in the complement, the Hamilton-Jacobi sweep and the
        reparametrization sweep; a non-finite residual at point 2 stops the
        sweep before it gets there."""
        import dataclasses
        import re

        sysd = request.getfixturevalue(fixture)
        S, Gm, m = sysd.structure, sysd.metric, sysd.m
        points = sysd.sample(12, seed=9)
        span = sysd.controls or Subbundle((Section.basis(0, m),))
        first = zero_at(zero_at(span.sections[0], points[9]), points[6])
        Dc = Subbundle((first, *span.sections[1:]))
        message = re.escape(f"subbundle span is degenerate at {points[6]}")
        X = hj_sections(sysd)[0]
        with pytest.raises(ValueError, match=message):
            Projector(Dc, Gm).complement_basis(points)
        with pytest.raises(ValueError, match=message):
            hj_algebraic_check(dataclasses.replace(sysd, controls=Dc), X, points)
        with pytest.raises(ValueError, match=message):
            reparam_admissible(S, Gm, Dc, "1", points)
        nan_at_2 = Section(lambda x: np.full(m, np.nan) if np.array_equal(x, points[2]) else X(x), m)
        assert_non_finite(hj_algebraic_check(dataclasses.replace(sysd, controls=Dc), nan_at_2,
                                             points), points[2])

    def test_one_candidate_jacobian_per_stack(self, planar, board, flat2, monkeypatch):
        """A stack reads the candidate's value and Jacobian in one call, and
        so does a sweep of the algebraic check."""
        for sysd in (planar, board, flat2):
            X = hj_sections(sysd)[0]
            calls = []
            original = X.value_and_jacobian

            def counted(x, original=original):
                calls.append(np.shape(x))
                return original(x)

            counted.stacks = original.stacks  # it takes a stack, as the table's does
            monkeypatch.setattr(X, "value_and_jacobian", counted)
            points = sysd.sample(12, seed=6)
            hj_residual(sysd.structure, sysd.metric, sysd.potential, sysd.controls, X, points)
            hj_algebraic_check(sysd, X, points)
            monkeypatch.undo()
            assert calls == [(12, sysd.n)] * 2, sysd.name

    def test_potential_gradient_along_the_flow(self, planar):
        """A document with a potential: the stacked gradient and the
        closedness scan of the trajectory check are the per-point ones."""
        from algmech import base_flow, gradient, lift, sharp
        from algmech.algebroid import d_function

        doc = dump_spec(planar)
        doc["potential"] = "0.1*x^2 + cos(theta)"
        sysd = load_spec(doc)
        S, Gm, V, Dc = sysd.structure, sysd.metric, sysd.potential, sysd.controls
        points = sysd.sample(12, seed=9)
        kappa = d_function(S, V, points)
        for p, row, k, up in zip(points, gradient(S, Gm, V, points), kappa, sharp(Gm, kappa, points)):
            assert equal_bits(row, gradient(S, Gm, V, p)) and equal_bits(up, sharp(Gm, k, p))
        for name in ("gY2", "xY1"):
            X = sysd.candidates[name]
            p0 = points[1]
            rep = hj_trajectory_equivalence(S, Gm, V, Dc, X, p0, 1.0, 1e-2)
            base = lift(X, base_flow(S, X, p0, 0.0, 1.0, 1e-2)).base
            scanned = base[::max(1, len(base) // 16)]
            gammas = christoffel_field(S, Gm)(scanned)
            closed = [hj_pointwise(S, Gm, V, Dc, X, x, g)[0] for x, g in zip(scanned, gammas)]
            assert rep.details["closedness_residual"] == pointwise_worst(closed, scanned)[0], name


class TestTruncationDetails:
    """Trajectory checks say how many trajectories they integrated and why
    any was cut short; the verdict rule does not read it."""

    def test_geodesic_invariance_counts_truncations(self):
        from algmech import AlgebroidStructure, BundleMetric

        S = AlgebroidStructure.from_exprs(("x",), 1, [["1"]], {})
        # The metric turns NaN once a geodesic leaves |x| < 0.25.
        Gm = BundleMetric(lambda x: np.array([[1.0 if abs(x[0]) < 0.25 else np.nan]]), 1)
        rep = geodesic_invariance_check(S, Gm, Subbundle((Section.basis(0, 1),)),
                                        np.zeros((2, 1)), horizon=5.0, step=0.05)
        assert rep.details["trajectories"] == 2
        assert rep.details["truncated"] == 2
        reasons = rep.details["truncation_reasons"]
        assert len(reasons) == 2 and all(reasons)
        assert rep.verdict == "pass"

    def test_complete_geodesics_report_none(self, leg):
        rep = geodesic_invariance_check(leg.structure, leg.metric, leg.controls,
                                        leg.sample(4, seed=0))
        assert (rep.details["trajectories"], rep.details["truncated"]) == (3, 0)
        assert rep.details["truncation_reasons"] == []

    def test_hj_trajectory_names_its_truncation(self, planar):
        from algmech import ChartDomain

        chart = ChartDomain(np.full(3, -0.1), np.full(3, 0.1))
        args = (planar.structure, planar.metric, None, planar.controls, basis(0), np.zeros(3),
                1.0, 1e-2)
        rep = hj_trajectory_equivalence(*args, chart=chart)
        assert rep.details["truncated"]
        assert rep.details["truncation_reason"] == "left the chart domain"
        rep = hj_trajectory_equivalence(*args)
        assert not rep.details["truncated"] and "truncation_reason" not in rep.details


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

    @pytest.mark.parametrize("value", [math.inf, -1.0, math.nan], ids=["inf", "-1", "nan"])
    @pytest.mark.parametrize("check", [
        "is_decoupling", "kinematic_reduction", "geodesic_invariance",
        "geodesic_invariance:traj_tol", "maximal_reducibility", "hj_residual",
        "hj_trajectory_equivalence", "reparam_admissible", "run_battery",
        "run_battery:traj_tol"])
    def test_a_tolerance_no_verdict_can_be_judged_by_raises(self, planar, check, value):
        """An infinite tolerance passed any finite residual, -1 failed a zero
        residual and NaN raised the report's own invariant: each now raises
        ValueError naming the argument, before any sweep."""
        S, Gm, Dc, X = planar.structure, planar.metric, planar.controls, basis(0)
        points = planar.sample(4, seed=0)
        calls = {
            "is_decoupling": lambda tol: is_decoupling(S, Gm, Dc, X, points, tol),
            "kinematic_reduction": lambda tol: kinematic_reduction_check(S, Gm, Dc, Dc, points, tol),
            "geodesic_invariance": lambda tol: geodesic_invariance_check(S, Gm, Dc, points, tol),
            "geodesic_invariance:traj_tol":
                lambda tol: geodesic_invariance_check(S, Gm, Dc, points, traj_tol=tol),
            "maximal_reducibility": lambda tol: maximal_reducibility_check(S, Gm, Dc, Dc, points, tol),
            "hj_residual": lambda tol: hj_algebraic_check(planar, X, points, tol),
            "hj_trajectory_equivalence": lambda tol: hj_trajectory_equivalence(
                S, Gm, None, Dc, X, points[0], 0.5, 0.05, tol),
            "reparam_admissible": lambda tol: reparam_admissible(S, Gm, Dc, "x", points, tol),
            "run_battery": lambda tol: run_battery(planar, tol=tol, samples=2),
            "run_battery:traj_tol": lambda tol: run_battery(planar, traj_tol=tol, samples=2),
        }
        name = check.split(":")[1] if ":" in check else "tol"
        with pytest.raises(ValueError, match=f"^{name} must be finite and non-negative"):
            calls[check](value)

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

    def test_infinite_section_raises_no_warning(self, planar):
        """An infinite section value is tested before the arithmetic, where
        0 * inf would warn: the covariant derivatives are NaN, the verdict
        inconclusive."""
        import warnings

        S, Gm, Dc = planar.structure, planar.metric, planar.controls
        X = Section(lambda x: np.full(3, np.inf), 3)
        points = planar.sample(4, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_non_finite(is_decoupling(S, Gm, Dc, X, points), points[0])
            assert np.isnan(covariant_derivative(S, Gm, X, X, points[0])).all()
            assert np.isnan(covariant_derivative(S, Gm, np.eye(3), X, points[0])).all()

    @pytest.mark.parametrize("check", [
        lambda S, Gm, Dc, X, points: kinematic_reduction_check(S, Gm, Dc, Subbundle((X,)), points),
        lambda S, Gm, Dc, X, points: maximal_reducibility_check(S, Gm, Dc, Subbundle((X,)), points),
        lambda S, Gm, Dc, X, points: geodesic_invariance_check(S, Gm, Subbundle((X,)), points),
        lambda S, Gm, Dc, X, points: symmetric_product(S, Gm, X, X, points[0]),
    ], ids=["kinematic_reduction", "maximal_reducibility", "geodesic_invariance",
            "symmetric_product"])
    def test_infinite_span_raises_no_warning(self, planar, check):
        """A span whose value is infinite is tested before any projector or
        product touches it: the product is NaN, the verdict inconclusive."""
        import warnings

        X = Section(lambda x: np.full(3, np.inf), 3)
        points = planar.sample(4, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = check(planar.structure, planar.metric, planar.controls, X, points)
        if isinstance(result, VerificationReport):
            assert_non_finite(result, points[0])
        else:
            assert np.isnan(result).all()

    def test_infinite_section_hj_trajectory(self, planar):
        """The anchored field of an infinite section is NaN, tested before
        ``anchor.T @ X``: the base flow truncates at once and the
        equivalence check is inconclusive, without a warning."""
        X = Section(lambda x: np.full(3, np.inf), 3)
        p0 = planar.sample(1, seed=0)[0]
        assert np.isnan(planar.structure.anchored_field(X)(p0)).all()
        rep = hj_trajectory_equivalence(planar.structure, planar.metric, None,
                                        planar.controls, X, p0, 0.5, 0.05)
        assert_non_finite(rep, p0)
        assert rep.details["truncated"]

    def test_infinite_reparametrization_factor(self, planar):
        """The difference of an infinite factor is NaN, tested before inf -
        inf is taken: inconclusive, without a warning."""
        points = planar.sample(4, seed=0)
        rep = reparam_admissible(planar.structure, planar.metric, planar.controls,
                                 lambda x: np.inf, points)
        assert_non_finite(rep, points[0])

    def test_infinite_span_of_the_complement_checks(self, planar):
        """A control span whose value is infinite is tested before the
        Gram-Schmidt of its complement, where it would warn and then read as
        degenerate: the complement rows are NaN and every check that reads
        them is inconclusive."""
        import warnings
        from dataclasses import replace

        S, Gm = planar.structure, planar.metric
        Dc = Subbundle((Section(lambda x: np.array([np.inf, 0.0, 0.0]), 3),
                        planar.controls.sections[1]))
        X = next(iter(planar.candidates.values()))
        points = planar.sample(4, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(Projector(Dc, Gm).complement_basis(points[0])).all()
            assert np.isnan(hj_residual(S, Gm, None, Dc, X, points[0])).all()
            assert_non_finite(reparam_admissible(S, Gm, Dc, "x", points), points[0])
            assert_non_finite(hj_algebraic_check(replace(planar, controls=Dc), X, points), points[0])
            rep = hj_trajectory_equivalence(S, Gm, None, Dc, X, points[0], 0.5, 0.05)
            assert rep.verdict == "inconclusive"
            assert rep.details["inconclusive_reason"].startswith("non-finite residual")

    def test_overflowing_reparametrization_factor(self, planar):
        """A factor whose derivative overflows to inf is tested before its
        products with the complement rows, where 0 * inf would warn."""
        import warnings

        points = planar.sample(4, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = reparam_admissible(planar.structure, planar.metric, planar.controls,
                                     "1e308*10*x", points)
        assert_non_finite(rep, points[0])

    def test_infinite_declared_complement(self, planar):
        """An infinite declared complement section gives a NaN residual,
        tested before ``P @ w``, without a warning."""
        X = Section(lambda x: np.full(3, np.inf), 3)
        P = Projector(planar.controls, planar.metric)
        assert np.isnan(P.declared_complement_residual((X,), planar.sample(4, seed=0)))

    def test_huge_declared_complement_is_normalised(self, leg):
        """A finite huge value gives the residual of its unit-scale copy,
        without overflowing its norm: the residual is scale invariant."""
        P = Projector(leg.controls, leg.metric)
        points = leg.sample(6, seed=1)
        for row in (["0", "0", "1"], ["1", "0", "0"], ["0.3", "-2", "0.7"]):
            unit = leg.section_from_exprs(row)
            huge = Section(lambda x, unit=unit: unit(x) / np.max(np.abs(unit(x))) * 1e308, 3)
            scaled = Section(lambda x, unit=unit: 0.5 * unit(x) / np.max(np.abs(unit(x))), 3)
            expected = P.declared_complement_residual((scaled,), points)
            for section in (huge, unit):
                residual = P.declared_complement_residual((section,), points)
                assert residual == pytest.approx(expected, rel=1e-12, abs=1e-300)

    def test_infinite_span_closure_names_the_reason(self, planar):
        """A span that is not finite has no rank: the symmetric closure says
        so and names the point, where the SVD would not converge."""
        X = Section(lambda x: np.full(3, np.inf), 3)
        with pytest.raises(ValueError, match=r"span is not finite at \[0\. 0\. 0\.\]"):
            symmetric_closure(planar.structure, planar.metric, Subbundle((X,)), 2, np.zeros(3))

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

    def test_non_finite_christoffel_is_rejected_without_a_tensor(self, planar):
        """Given no tensor, the residual takes ``christoffel``'s, which
        rejects a non-finite one, at a point and at a stack."""
        from algmech import AlgebroidStructure

        S = AlgebroidStructure(planar.coords, planar.m, planar.structure.anchor,
                               lambda x: np.full((3, 3, 3), np.nan))
        X = planar.candidates["gY1"]
        for p in (np.array([0.2, -0.1, 0.4]), planar.sample(3, seed=1)):
            with pytest.raises(ValueError, match="non-finite Christoffel entries"):
                hj_residual(S, planar.metric, planar.potential, planar.controls, X, p)
            with pytest.raises(ValueError, match="non-finite Christoffel entries"):
                covariant_derivative(S, planar.metric, np.eye(3), X, p)

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

    def test_loaded_factors_compile_once(self, monkeypatch):
        """The loader keeps each factor's table, so a second battery compiles
        no factor again."""
        from algmech import expr as ex
        from algmech.report import run_battery
        from algmech.systems import planar_body

        sysdef = planar_body()
        run_battery(sysdef)
        compiles = []
        compile_table = ex._compile_table

        def counted(*args, **kwargs):
            compiles.append(args)
            return compile_table(*args, **kwargs)

        monkeypatch.setattr(ex, "_compile_table", counted)
        run_battery(sysdef)
        assert compiles == []

    def test_snakeboard_candidates(self, board):
        points = board.sample(10, seed=0)
        good = reparam_admissible(board.structure, board.metric, board.controls,
                                  board.reparam_candidates["psi_fun"], points)
        bad = reparam_admissible(board.structure, board.metric, board.controls,
                                 board.reparam_candidates["coord_x"], points)
        assert good.verdict == "pass"
        assert bad.verdict == "fail"


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
