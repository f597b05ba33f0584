import json

import numpy as np
import pytest

from algmech import (
    BundleMetric,
    Section,
    SingularMetricError,
    SpecError,
    builtin,
    dump_spec,
    load_spec,
    load_spec_file,
    planar_body,
    suslov,
)
from algmech.report import run_battery
from algmech.systems import induced_algebroid


class TestBuiltins:
    def test_every_builtin_loads_and_validates(self, all_builtins):
        for sysd in all_builtins:
            assert sysd.structure.m == sysd.m
            assert sysd.metric.positive_definite_on(sysd.sample(8, seed=1))

    def test_builtin_registry(self):
        sysd = builtin("planar_body", m=2.0)
        assert sysd.params["m"] == 2.0
        with pytest.raises(SpecError):
            builtin("no_such_system")

    def test_parameter_defaults_make_small_rationals(self, planar):
        assert planar.params == {"m": 1.0, "J": 1.0, "h": 1.0}

    def test_suslov_point_base(self, top):
        assert top.n == 0
        assert top.m == 3
        assert top.sample(4).shape == (4, 0)

    def test_suslov_principal_axis_constraint_is_flat(self):
        sysd = suslov((1.0, 2.0, 3.0), (0, 1))
        C = sysd.structure.structure(np.zeros(0))
        assert np.max(np.abs(C)) == 0.0

    def test_snakeboard_sampling_avoids_singular_steering(self, board):
        points = board.sample(128, seed=0)
        phi = points[:, 4]
        assert np.all(np.abs(np.abs(phi) - np.pi / 2) >= 0.1)


class TestParameterRobustness:
    """The qualitative verdicts do not depend on the physical constants."""

    @pytest.mark.parametrize("params", [dict(m=2.0, J=0.5, h=1.5),
                                        dict(m=0.7, J=3.0, h=0.4)])
    def test_planar_verdicts_offdefault(self, params):
        from algmech.reduction import (
            is_decoupling, kinematic_reduction_check, maximal_reducibility_check)

        sysd = planar_body(**params)
        points = sysd.sample(10, seed=0)
        S, Gm, Dc = sysd.structure, sysd.metric, sysd.controls
        assert all(is_decoupling(S, Gm, Dc, X, points).verdict == "pass"
                   for X in Dc.sections)
        assert kinematic_reduction_check(S, Gm, Dc, Dc, points).verdict == "fail"
        assert maximal_reducibility_check(S, Gm, Dc, Dc, points).verdict == "fail"

    def test_leg_and_snakeboard_verdicts_offdefault(self):
        from algmech import robotic_leg, snakeboard
        from algmech.reduction import is_decoupling, maximal_reducibility_check

        leg = robotic_leg(m=2.2, J=0.6)
        points = leg.sample(10, seed=0)
        assert maximal_reducibility_check(leg.structure, leg.metric, leg.controls,
                                          leg.controls, points).verdict == "pass"
        board = snakeboard(mc=2.0, mr=0.5, mw=0.8, Jc=1.5, Jr=2.0, Jw=0.7, l=0.8)
        points = board.sample(8, seed=0)
        S, Gm, Dc = board.structure, board.metric, board.controls
        assert all(is_decoupling(S, Gm, Dc, X, points).verdict == "pass"
                   for X in Dc.sections)
        assert maximal_reducibility_check(S, Gm, Dc, Dc, points).verdict == "fail"


class TestLoader:
    def test_round_trip_preserves_verdicts_and_connection(self, planar):
        from algmech import christoffel

        reloaded = load_spec(dump_spec(planar))
        p = np.array([0.4, -0.6, 1.0])
        a = christoffel(planar.structure, planar.metric, p).gamma
        b = christoffel(reloaded.structure, reloaded.metric, p).gamma
        assert np.max(np.abs(a - b)) < 1e-12
        left = run_battery(planar, samples=6)
        right = run_battery(reloaded, samples=6)
        assert left["verdicts"] == right["verdicts"]

    def test_round_trip_is_idempotent(self, leg):
        doc1 = dump_spec(leg)
        doc2 = dump_spec(load_spec(doc1))
        assert doc1 == doc2

    def test_load_from_file(self, tmp_path, planar):
        path = tmp_path / "system.json"
        path.write_text(json.dumps(dump_spec(planar)))
        sysd = load_spec_file(path)
        assert sysd.name == "planar_body"

    def test_conflicting_structure_triangles_rejected(self, planar):
        doc = dump_spec(planar)
        doc["structure"]["2,2,1"] = doc["structure"]["2,1,2"]  # should be negated
        with pytest.raises(SpecError, match="antisymmetric"):
            load_spec(doc)

    def test_metric_mirror_probes_stay_in_the_chart(self, leg):
        """sqrt(r) is real on the chart box r in [0.5, 3], not on [-1, 1]."""
        doc = dump_spec(leg)
        doc["metric"][0][1] = doc["metric"][1][0] = "0*sqrt(r)"
        sysd = load_spec(doc)
        p = np.array([1.3, 0.2, -0.5])
        assert sysd.metric.matrix(p) == pytest.approx(leg.metric.matrix(p), abs=0.0)

    def test_structure_mirror_probes_stay_in_the_chart(self, leg):
        from algmech import christoffel

        doc = dump_spec(leg)
        doc["structure"]["1,1,2"] = "2*J*sqrt(r)/(m*r*sqrt(r)*(J+m*r^2))"
        doc["structure"]["1,2,1"] = "-2*J*sqrt(r)/(m*r*sqrt(r)*(J+m*r^2))"
        sysd = load_spec(doc)
        p = np.array([1.3, 0.2, -0.5])
        a = christoffel(leg.structure, leg.metric, p).gamma
        b = christoffel(sysd.structure, sysd.metric, p).gamma
        assert np.max(np.abs(a - b)) < 1e-12

    def test_missing_fields_are_path_addressed(self):
        with pytest.raises(SpecError, match=r"\$\.fiber"):
            load_spec({"name": "x", "base": ["x"], "mode": "intrinsic"})

    def test_bad_expression_is_path_addressed(self, planar):
        doc = dump_spec(planar)
        doc["metric"][0][0] = "1/("
        with pytest.raises(SpecError, match=r"\$\.metric"):
            load_spec(doc)

    def test_dimension_mismatch_rejected(self, planar):
        doc = dump_spec(planar)
        doc["anchor"] = doc["anchor"][:2]
        with pytest.raises(SpecError, match="expected 3 rows"):
            load_spec(doc)

    def test_chart_must_cover_every_coordinate(self, planar):
        doc = dump_spec(planar)
        del doc["chart"]["box"]["theta"]
        with pytest.raises(SpecError, match="theta"):
            load_spec(doc)

    def test_orthogonality_claim_checked_at_load(self, planar):
        doc = dump_spec(planar)
        doc["complement"] = [["1", "0", "1"]]  # not orthogonal to the controls
        with pytest.raises(SpecError, match="complement"):
            load_spec(doc)

    def test_codistribution_controls_are_sharped(self, planar):
        doc = dump_spec(planar)
        # covectors dual to the first two frame directions: sharp rescales them
        doc["controls"] = {"codistribution": [["1", "0", "0"], ["0", "1", "0"]]}
        sysd = load_spec(doc)
        p = np.array([0.2, 0.1, -0.3])
        first = sysd.controls.sections[0](p)
        assert first == pytest.approx([1.0, 0.0, 0.0])  # metric is diagonal 1/m = 1
        battery = run_battery(sysd, samples=6)
        assert battery["verdicts"]["decoupling:Y1"] == "pass"

    def test_unknown_mode_rejected(self, planar):
        doc = dump_spec(planar)
        doc["mode"] = "sideways"
        with pytest.raises(SpecError, match="mode"):
            load_spec(doc)

    def test_force_components_load_and_drive_dynamics(self, planar):
        from algmech import TotalPoint, spray_field

        doc = dump_spec(planar)
        doc["force"] = ["-y1", "0", "0"]
        sysd = load_spec(doc)
        field = spray_field(sysd.structure, sysd.metric, force=sysd.force)
        out = field(0.0, TotalPoint([0.0, 0.0, 0.0], [2.0, 0.0, 0.0]).packed())
        assert out[3] == pytest.approx(-2.0)

    def test_force_dimension_checked(self, planar):
        doc = dump_spec(planar)
        doc["force"] = ["-y1", "0"]
        with pytest.raises(SpecError, match="force"):
            load_spec(doc)

    def test_potential_feeds_the_force_hypothesis_checks(self, planar):
        """A potential whose gradient leaves the control span makes the
        decoupling predicate inconclusive; one inside the span keeps verdicts."""
        doc = dump_spec(planar)
        doc["potential"] = "x"  # gradient has a complement component
        outside = load_spec(doc)
        battery = run_battery(outside, samples=6)
        assert battery["verdicts"]["decoupling:Y1"] == "inconclusive"
        doc["potential"] = "(x - h*cos(theta)) + (y - h*sin(theta))"
        inside = load_spec(doc)
        battery = run_battery(inside, samples=6)
        assert battery["verdicts"]["decoupling:Y1"] == "pass"
        assert outside.effective_force() is not None
        assert planar.effective_force() is None

    def test_indefinite_metric_allowed_when_nondegenerate_requested(self):
        doc = {
            "name": "lorentz_like", "parameters": {}, "base": ["x"], "fiber": 2,
            "mode": "intrinsic", "anchor": [["1"], ["0"]], "structure": {},
            "metric": [["1", "0"], ["0", "-1"]], "potential": None,
            "controls": None, "chart": {"box": {"x": [-1.0, 1.0]}},
        }
        with pytest.raises(SpecError, match="positive definite"):
            load_spec(doc)
        doc["metric_check"] = "nondegenerate"
        sysd = load_spec(doc)
        assert sysd.metric.matrix(np.zeros(1))[1, 1] == -1.0

    # Documents with one fault each and the exact error the loader raises.
    SINGLE_FAULTS = [
        ("metric", (0, 1), "0.5",
         "$.metric: metric entries (1,2) and (2,1) differ"),
        ("metric", (0, 0), "1+",
         "$.metric: syntax error at offset 2: expected a value"),
        ("metric", (0, 1), "sqrt(-r)",
         "$.metric: sqrt of a negative value"),
        ("structure", "2,2,1", "h/(J+m*h^2)",
         "$.structure: structure entries (2,1,2) and (2,2,1) are not antisymmetric"),
        ("structure", "1,1,1", "x",
         "$.structure: structure entry (1,1,1) must vanish (antisymmetry)"),
        ("structure", "1,1,4", "1",
         "$.structure: structure index 1,1,4: second lower index out of range 1..3"),
        ("structure", "2,1,2", "zz*x",
         "$.structure: structure functions: unknown variable(s) ['zz']"),
        ("anchor", (0, 0), "zz",
         "$.structure: anchor: unknown variable(s) ['zz']"),
        ("force", None, ["zz", "0", "0"],
         "$.force: force: unknown variable(s) ['zz']"),
        ("potential", None, "zz",
         "$.potential: potential: unknown variable(s) ['zz']"),
        ("controls", ("sections", 0, 0), "zz",
         "$.controls: expression table: unknown variable(s) ['zz']"),
        ("controls", None, {"codistribution": [["zz", "0", "0"], ["0", "1", "0"]]},
         "$.controls: expression table: unknown variable(s) ['zz']"),
        ("complement", (0, 0), "zz",
         "$.complement: expression table: unknown variable(s) ['zz']"),
        ("candidates", ("sections", "gY1", 0), "zz",
         "$.candidates.sections.gY1: expression table: unknown variable(s) ['zz']"),
        ("candidates", ("reparam", "h"), "zz",
         "$.candidates.reparam.h: reparametrization factor: unknown variable(s) ['zz']"),
        ("snakeboard:ambient", ("metric", 0, 0), "zz",
         "$.ambient.metric: ambient metric: unknown variable(s) ['zz']"),
        ("snakeboard:distribution", (0, 0), "zz",
         "$.distribution: distribution: unknown variable(s) ['zz']"),
        ("snakeboard:complement", (0, 0), "zz",
         "$.complement: complement: unknown variable(s) ['zz']"),
        ("snakeboard:control_complement", (0, 0), "zz",
         "$.control_complement: expression table: unknown variable(s) ['zz']"),
    ]

    @pytest.mark.parametrize("block, key, entry, message", SINGLE_FAULTS)
    def test_single_fault_messages(self, planar, leg, board, block, key, entry, message):
        """``block`` may name the system (default: planar_body, or the leg for
        a sqrt entry); ``key`` is a key or a path into the block, or None for
        the whole block."""
        system, _, block = block.rpartition(":")
        doc = dump_spec(board if system == "snakeboard" else leg if "sqrt" in entry else planar)
        keys = [block, *((key,) if isinstance(key, str) else key or ())]
        target = doc
        for k in keys[:-1]:
            target = target[k]
        target[keys[-1]] = entry
        with pytest.raises(SpecError) as caught:
            load_spec(doc)
        assert str(caught.value) == message


class TestInducedAlgebroid:
    def test_full_tangent_bundle_with_coordinate_fields(self):
        coords = ("x", "y")
        gm = BundleMetric.from_exprs([["1", "0"], ["0", "1"]], coords)
        fields = [Section.from_exprs(row, coords) for row in (["1", "0"], ["0", "1"])]
        structure_fn, gram_fn = induced_algebroid(
            lambda x: gm.matrix(x), lambda x: np.array([f(x) for f in fields]))
        p = np.array([0.3, -0.4])
        assert np.max(np.abs(structure_fn(p))) < 1e-10
        assert np.allclose(gram_fn(p), np.eye(2))

    def test_snakeboard_brackets_match_per_field_brackets(self, board):
        """The m directional differences of the whole frame give bitwise the
        structure functions built from one Lie bracket per pair of fields."""
        from algmech import vector_field_bracket

        doc = dump_spec(board)
        fields = [Section.from_exprs(row, board.coords, board.params) for row in doc["distribution"]]
        ambient = BundleMetric.from_exprs(doc["ambient"]["metric"], board.coords, board.params)
        m = board.m
        for p in board.sample(10, seed=2):
            B = np.array([f(p) for f in fields])
            G = ambient.matrix(p)
            expected = np.zeros((m, m, m))
            for a in range(m):
                for b in range(a + 1, m):
                    lie = vector_field_bracket(fields[a], fields[b], p)
                    expected[:, a, b] = np.linalg.solve(B @ G @ B.T, B @ G @ lie)
                    expected[:, b, a] = -expected[:, a, b]
            assert np.array_equal(board.structure.structure(p), expected)
            assert np.array_equal(board.metric.matrix(p), B @ G @ B.T)
            assert np.array_equal(board.structure.anchor(p), B)

    def test_spray_evaluation_table_calls(self, board, monkeypatch):
        """One snakeboard spray evaluation calls 24 expression tables: the
        anchor (1), the metric at the point (frame and ambient, 2), the
        structure (frame and ambient, plus two frame calls per field: 8) and
        rho(e_A)(G) (the anchor and two metric evaluations per field: 13)."""
        from algmech import algebroid, spray_field

        field = spray_field(board.structure, board.metric)
        calls = []
        original = algebroid._ExprTable.__call__

        def counted(table, x):
            calls.append(table)
            return original(table, x)

        monkeypatch.setattr(algebroid._ExprTable, "__call__", counted)
        field(0.0, np.array([0.0, 0.0, 0.2, 0.1, 0.3, 0.15, 0.1, 0.05]))
        assert len(calls) == 24

    def test_singular_gram_names_the_point(self):
        """The distribution field x*d/dx vanishes on x = 0, where the Gram
        matrix of the spanning fields is singular."""
        from algmech import bracket

        sysdef = load_spec({
            "name": "degenerate", "base": ["x", "y"], "fiber": 2, "mode": "embedded",
            "ambient": {"metric": [["1", "0"], ["0", "1"]]},
            "distribution": [["x", "0"], ["0", "1"]],
            "chart": {"box": {"x": [-1.0, 1.0], "y": [-1.0, 1.0]}},
        })
        p = np.array([0.0, 0.3])
        with pytest.raises(SingularMetricError, match=r"singular at \[0\. +0\.3\]"):
            sysdef.structure.structure(p)
        e1, e2 = sysdef.basis_sections()
        with pytest.raises(SingularMetricError, match=r"singular at \[0\. +0\.3\]"):
            bracket(sysdef.structure, e1, e2, p)

    def test_snakeboard_nonvanishing_pattern(self, board):
        """Only four bracket-coefficient families survive; everything else is
        difference noise."""
        allowed = {(0, 0, 2), (1, 0, 2), (0, 1, 2), (1, 1, 2),
                   (0, 2, 0), (1, 2, 0), (0, 2, 1), (1, 2, 1)}
        seen_nonzero = set()
        for p in board.sample(20, seed=5):
            C = board.structure.structure(p)
            for (c, a, b), value in np.ndenumerate(C):
                if abs(value) > 1e-6:
                    assert (c, a, b) in allowed, f"unexpected C[{c},{a},{b}] = {value}"
                    seen_nonzero.add((c, a, b))
        assert {(0, 0, 2), (1, 0, 2), (0, 1, 2), (1, 1, 2)} <= seen_nonzero

    def test_snakeboard_against_closed_forms(self, board):
        """Hand-derived coefficients of the induced bracket, unit parameters."""
        for p in board.sample(10, seed=7):
            phi = p[4]
            M, K, Jr, l = 4.0, 6.0, 1.0, 1.0
            c1 = M * l ** 2 * np.cos(phi) ** 2 + K * np.sin(phi) ** 2
            c2 = M * l ** 2 * np.cos(phi) ** 2 + (K - Jr) * np.sin(phi) ** 2
            C = board.structure.structure(p)
            assert C[0, 0, 2] == pytest.approx((M * l ** 2 - K) * np.sin(phi) * np.cos(phi) / c1, abs=1e-6)
            assert C[1, 0, 2] == pytest.approx(M * l ** 2 * np.cos(phi) / c2, abs=1e-6)
            assert C[0, 1, 2] == pytest.approx(-Jr * M * l ** 2 * np.cos(phi) / c1 ** 2, abs=1e-6)
            assert C[1, 1, 2] == pytest.approx(Jr * M * l ** 2 * np.sin(phi) * np.cos(phi) / (c1 * c2), abs=1e-6)

    def test_planar_body_as_embedded_recovers_frame_brackets(self, planar):
        """Treating the planar body as a full-tangent-bundle distribution in its
        adapted frame reproduces the intrinsic structure functions."""
        coords = ("x", "y", "theta")
        params = planar.params
        ambient = BundleMetric.from_exprs(
            [["m", "0", "0"], ["0", "m", "0"], ["0", "0", "J"]], coords, params)
        rows = [["cos(theta)/m", "sin(theta)/m", "0"],
                ["-sin(theta)/m", "cos(theta)/m", "-h/J"],
                ["-sin(theta)", "cos(theta)", "1/h"]]
        fields = [Section.from_exprs(r, coords, params) for r in rows]
        structure_fn, gram_fn = induced_algebroid(
            lambda x: ambient.matrix(x), lambda x: np.array([f(x) for f in fields]))
        for p in planar.sample(5, seed=3):
            assert np.max(np.abs(structure_fn(p) - planar.structure.structure(p))) < 1e-5
            assert np.max(np.abs(gram_fn(p) - planar.metric.matrix(p))) < 1e-10


class TestEmbeddedIntrinsicAgreement:
    def test_snakeboard_hand_supplied_intrinsic_document(self, board):
        """An intrinsic document with the hand-derived snakeboard data agrees
        with the embedded construction on the connection coefficients."""
        from algmech import christoffel

        c1 = "((mc+mr+2*mw)*l^2*cos(phi)^2 + (Jc+Jr+2*(Jw+mw*l^2))*sin(phi)^2)"
        c2 = "((mc+mr+2*mw)*l^2*cos(phi)^2 + (Jc+2*(Jw+mw*l^2))*sin(phi)^2)"
        M = "(mc+mr+2*mw)"
        doc = dump_spec(board)
        intrinsic = {
            "name": "snakeboard_intrinsic",
            "parameters": doc["parameters"],
            "base": doc["base"],
            "fiber": 3,
            "mode": "intrinsic",
            "anchor": doc["distribution"],
            "structure": {
                "1,1,3": f"({M}*l^2 - (Jc+Jr+2*(Jw+mw*l^2)))*sin(phi)*cos(phi)/{c1}",
                "2,1,3": f"{M}*l^2*cos(phi)/{c2}",
                "1,2,3": f"-Jr*{M}*l^2*cos(phi)/{c1}^2",
                "2,2,3": f"Jr*{M}*l^2*sin(phi)*cos(phi)/({c1}*{c2})",
            },
            "metric": [[c1, "0", "0"], ["0", f"Jr*{c2}/{c1}", "0"], ["0", "0", "2*Jw"]],
            "potential": None,
            "controls": doc["controls"],
            "complement": doc["control_complement"],
            "chart": doc["chart"],
        }
        sysd = load_spec(intrinsic)
        for p in board.sample(20, seed=9):
            a = christoffel(board.structure, board.metric, p).gamma
            b = christoffel(sysd.structure, sysd.metric, p).gamma
            assert np.max(np.abs(a - b)) < 1e-4
