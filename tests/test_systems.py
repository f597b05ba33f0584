import json
import math
import random
import warnings

import numpy as np
import pytest

from algmech import (
    BUILTINS,
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
from algmech import expr as ex
from algmech.algebroid import _STACK_COMPILE_POINTS
from algmech.report import christoffel_table, run_battery
from algmech.systems import induced_algebroid


def _leg_tower(entry: str, levels: int) -> str:
    """A metric entry of the robotic leg plus a zero term of ``levels``
    nested powers of ``sin(r)``, whose derivative trees are three levels
    deeper per level."""
    return entry + " + 0*" + "(sin(r)^" * levels + "r" + ")" * levels


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
        with pytest.raises(SpecError, match=r"^\$\.parameters\.foo: .*i1, i2, i3, dim_d$"):
            builtin("suslov", foo=1.0)

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

    def test_nan_metric_is_not_positive_definite(self):
        """inf - inf is NaN, and NaN eigenvalues used to pass the check."""
        with pytest.raises(SpecError, match="not positive definite"):
            load_spec({"name": "nan", "base": ["x"], "fiber": 1, "mode": "intrinsic",
                       "anchor": [["1"]], "metric": [["1e308*10 - 1e308*10"]],
                       "chart": {"box": {"x": [-1.0, 1.0]}}})

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

    def test_explicit_force_reaches_the_battery(self, planar):
        """A force off the control span makes the force-free hypotheses
        inconclusive and drops maximal reducibility; one along the first
        control leaves every other verdict as it was, and either leaves out
        the Hamilton-Jacobi and reparametrization checks."""
        unforced = run_battery(planar, samples=6)["verdicts"]
        del unforced["maximal_reducibility"]
        doc = dump_spec(planar)
        doc["force"] = ["0", "0", "1"]
        battery = run_battery(load_spec(doc), samples=6)
        checks = {check["label"]: check for check in battery["checks"]}
        for label in ("decoupling:Y1", "decoupling:Y2", "kinematic_reduction:controls"):
            assert checks[label]["verdict"] == "inconclusive"
            assert checks[label]["details"] == {"force_complement_residual": 1.0}
        assert "maximal_reducibility" not in battery["verdicts"]
        doc["force"] = ["-y1", "0", "0"]
        unforced = {label: verdict for label, verdict in unforced.items()
                    if not label.startswith(("hj", "reparam"))}
        assert run_battery(load_spec(doc), samples=6)["verdicts"] == unforced

    @pytest.mark.parametrize("nest", [
        lambda entry, k: entry + " + 0*r" * k,
        lambda entry, k: "abs(" * k + entry + ")" * k,
    ], ids=["sum", "calls"])
    def test_metric_entry_at_the_depth_bound(self, leg, nest):
        """A metric entry of ``_MAX_DEPTH`` levels (its own five and the
        nesting) loads, builds its Koszul table and runs the battery to the
        builtin's verdicts; one level more is a document error."""
        doc = dump_spec(leg)
        entry = doc["metric"][0][0]
        doc["metric"][0][0] = nest(entry, ex._MAX_DEPTH - 5)
        deep = load_spec(doc)
        assert christoffel_table(deep) == christoffel_table(leg)
        assert run_battery(deep, samples=6)["verdicts"] == run_battery(leg, samples=6)["verdicts"]
        doc["metric"][0][0] = nest(entry, ex._MAX_DEPTH - 4)
        with pytest.raises(SpecError, match=r"^\$\.metric\[0\]\[0\]: syntax error .* deeper than"):
            load_spec(doc)

    def test_power_tower_runs_the_battery(self, leg):
        """A 200-level power tower in a metric entry loads, and the battery
        gives the builtin's verdicts and closure ranks at the same seed."""
        doc = dump_spec(leg)
        doc["metric"][0][0] = _leg_tower(doc["metric"][0][0], 200)
        deep, plain = run_battery(load_spec(doc), seed=0), run_battery(leg, seed=0)
        assert deep["verdicts"] == plain["verdicts"]
        assert ({kind: info["rank"] for kind, info in deep["ranks"].items()}
                == {kind: info["rank"] for kind, info in plain["ranks"].items()})

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

    def test_a_declared_force_adds_to_the_potential(self, planar):
        """The effective force is the declared force plus the potential's
        gradient force: a zero force leaves the potential's battery as it
        is, but for the checks that read no declared force, and a nonzero
        one adds its value at every state."""
        doc = dump_spec(planar)
        doc["potential"] = "10*x"
        alone = load_spec(doc)
        zero = load_spec({**doc, "force": ["0", "0", "0"]})
        battery = run_battery(zero, seed=0)
        expected = run_battery(alone, seed=0)
        expected["checks"] = [check for check in expected["checks"]
                              if not check["label"].startswith(("hj", "reparam"))]
        expected["verdicts"] = {check["label"]: check["verdict"] for check in expected["checks"]}
        assert battery == expected
        assert battery["verdicts"]["decoupling:Y1"] == "inconclusive"
        pushed = load_spec({**doc, "force": ["1", "y2", "cos(theta)"]})
        x, y = np.array([0.3, -0.2, 0.4]), np.array([0.1, 0.5, -0.7])
        assert np.array_equal(pushed.effective_force()(x, y),
                              np.array([1.0, 0.5, math.cos(0.4)]) + alone.effective_force()(x, y))

    def test_non_finite_spans_are_path_addressed(self, leg, board):
        """A control section or an embedded frame that is not finite at a
        sampled point is a document error at its block, naming the point,
        not an SVD that does not converge."""
        doc = dump_spec(leg)
        doc["controls"]["sections"][0][0] = "1e308*10 - 1e308*10"
        with pytest.raises(SpecError, match=r"^\$\.controls: span is not finite at \["):
            load_spec(doc)
        doc = dump_spec(board)
        doc["complement"][0][0] = "1e308*10 - 1e308*10"
        with pytest.raises(SpecError, match=r"^\$\.distribution: span is not finite at \["):
            load_spec(doc)

    def test_controls_rank_drop_is_path_addressed(self, leg):
        doc = dump_spec(leg)
        doc["controls"]["sections"][0] = ["0", "r - r", "0"]
        with pytest.raises(SpecError, match=r"^\$\.controls: subbundle controls drops rank"):
            load_spec(doc)

    def test_non_finite_declared_complement_is_named(self, planar):
        doc = dump_spec(planar)
        doc["complement"] = [["0", "0", "1e308*10"]]
        with pytest.raises(SpecError, match="declared complement or metric is not finite"):
            load_spec(doc)

    # The sampled load-time checks of SystemDefinition.validate, each with a
    # fault and the document path it is reported under.
    VALIDATION_FAULTS = [
        ("planar_body", ("complement",), [["1", "0", "1"]],
         r"^\$\.complement: declared complement is not orthogonal"),
        ("snakeboard", ("control_complement",), [["1", "1", "0"]],
         r"^\$\.control_complement: declared complement is not orthogonal"),
        ("snakeboard", ("control_complement",), [["1e308*10", "0", "0"]],
         r"^\$\.control_complement: declared complement or metric is not finite"),
        ("planar_body", ("metric", 2), ["0", "0", "-1"],
         r"^\$\.metric: not positive definite"),
        ("snakeboard", ("ambient", "metric", 4), ["0", "0", "0", "0", "-2*Jw"],
         r"^\$\.ambient\.metric: not positive definite"),
        ("planar_body", ("metric_check",), "bogus", r"^\$\.metric_check: unknown mode 'bogus'"),
        ("snakeboard", ("complement", 0), ["0", "0", "0", "0", "1"],
         r"^\$\.distribution: embedded frame drops rank at \["),
        # An evaluation error of a declared complement entry, and exclusions
        # that leave the sampler no room, once escaped without a path.
        ("robotic_leg", ("complement", 0), ["0", "0", "1/0"],
         r"^\$\.complement: division by zero$"),
        ("snakeboard", ("control_complement",), [["sqrt(-1)", "0", "0"]],
         r"^\$\.control_complement: sqrt of a negative value$"),
        ("snakeboard", ("chart", "exclusions"),
         [{"coord": "phi", "value": 1.5707963267948966, "margin": 0.1},
          {"coord": "phi", "value": -1.5707963267948966, "margin": 0.1},
          {"coord": "phi", "value": 0.0, "margin": 1.39}],
         r"^\$\.chart: chart exclusions leave too little room to sample$"),
        # The embedded frame is evaluated under its own blocks' paths before
        # the metric, its Gram matrix: these once escaped as a bare
        # EvalError, or were reported under $.ambient.metric (a huge entry
        # after an overflow warning).
        ("snakeboard", ("complement", 0, 0), "ln(0)",
         r"^\$\.complement: ln of a non-positive value$"),
        ("snakeboard", ("distribution", 0, 0), "ln(0)",
         r"^\$\.distribution: ln of a non-positive value$"),
        ("snakeboard", ("distribution", 1, 2), "1e308",
         r"^\$\.distribution: embedded frame drops rank at \["),
        # A finite huge declared complement value once overflowed its norm
        # and passed with residual 0.
        ("robotic_leg", ("complement",), [["1e308", "0", "0"]],
         r"^\$\.complement: declared complement is not orthogonal"),
        # A number that is not finite is rejected where it is read, not
        # left to warn in the sampler or in the Gram product.
        ("planar_body", ("chart", "box", "y", 0), -math.inf,
         r"^\$\.chart\.box\.y: expected a finite number$"),
        ("snakeboard", ("parameters", "Jc"), math.inf,
         r"^\$\.parameters\.Jc: expected a finite number$"),
    ]

    @pytest.mark.parametrize("system, where, value, message", VALIDATION_FAULTS,
                             ids=[f"{f[0]}:{'.'.join(map(str, f[1]))}" for f in VALIDATION_FAULTS])
    def test_validation_faults_name_document_paths(self, system, where, value, message):
        doc = dump_spec(builtin(system))
        block = doc
        for key in where[:-1]:
            block = block[key]
        block[where[-1]] = value
        with pytest.raises(SpecError, match=message):
            load_spec(doc)

    def test_singular_metric_names_the_metric_block(self):
        doc = {"name": "degenerate", "base": ["x"], "fiber": 2, "mode": "intrinsic",
               "anchor": [["1"], ["0"]], "metric": [["1", "0"], ["0", "0"]],
               "metric_check": "nondegenerate", "chart": {"box": {"x": [-1.0, 1.0]}}}
        with pytest.raises(SpecError, match=r"^\$\.metric: metric is singular at \["):
            load_spec(doc)

    @pytest.mark.parametrize("system, where, path", [
        ("snakeboard", ("ambient", "metric", 2, 2), r"\$\.ambient\.metric"),
        ("robotic_leg", ("metric", 1, 1), r"\$\.metric"),
    ])
    def test_overflowing_metric_is_not_finite_at_a_point(self, system, where, path):
        """A metric entry that overflows to inf is a metric that is not
        finite at a sampled point, under either metric check: not an invalid
        value warning of the Gram product, nor LAPACK's "Eigenvalues did not
        converge", and not an inverse that is finite."""
        doc = dump_spec(builtin(system))
        block = doc
        for key in where[:-1]:
            block = block[key]
        block[where[-1]] = "1e308*3"
        for check, prefix in (("definite", "not positive definite: "), ("nondegenerate", "")):
            doc["metric_check"] = check
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(SpecError, match=rf"^{path}: {prefix}metric is not finite at \["):
                    load_spec(doc)

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
         "$.metric[0][0]: syntax error at offset 2: expected a value"),
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
        # Values of the wrong JSON type, which used to escape as bare
        # TypeError, ValueError, KeyError or AttributeError.
        ("chart", ("box", "x"), 5, "$.chart.box.x: bounds must be [lo, hi] with lo < hi"),
        ("chart", ("box", "x"), ["a", "b"], "$.chart.box.x: expected a number"),
        ("snakeboard:chart", ("exclusions", 0), {"coord": "phi"},
         "$.chart.exclusions[0].value: missing required field"),
        ("snakeboard:chart", ("exclusions", 0), {"coord": "phi", "value": "1.5"},
         "$.chart.exclusions[0].value: expected a number"),
        ("candidates", "sections", [1], "$.candidates.sections: expected dict"),
        ("force", None, 3, "$.force: expected list"),
        ("anchor", (0,), 5, "$.anchor[0]: expected a list"),
        ("metric", (0,), 5, "$.metric[0]: expected a list"),
        ("fiber", None, True, "$.fiber: expected int"),
        ("parameters", "m", True, "$.parameters.m: expected a number"),
        # A syntax error names its entry.
        ("metric", (1, 0), "0*",
         "$.metric[1][0]: syntax error at offset 2: expected a value"),
        ("structure", "2,1,2", "h/(",
         "$.structure.2,1,2: syntax error at offset 3: expected a value"),
        ("candidates", ("sections", "gY1", 0), "x+",
         "$.candidates.sections.gY1[0]: syntax error at offset 2: expected a value"),
    ]

    @pytest.mark.parametrize("block, key, entry, message", SINGLE_FAULTS)
    def test_single_fault_messages(self, planar, leg, board, block, key, entry, message):
        """``block`` may name the system (default: planar_body, or the leg for
        a sqrt entry); ``key`` is a key or a path into the block, or None for
        the whole block."""
        system, _, block = block.rpartition(":")
        doc = dump_spec(board if system == "snakeboard"
                        else leg if isinstance(entry, str) and "sqrt" in entry else planar)
        keys = [block, *((key,) if isinstance(key, str) else key or ())]
        target = doc
        for k in keys[:-1]:
            target = target[k]
        target[keys[-1]] = entry
        with pytest.raises(SpecError) as caught:
            load_spec(doc)
        assert str(caught.value) == message


def expression_tables(sysd) -> dict:
    """Every expression table of a system by its role: the anchor, the
    structure functions, the metric or the embedded frame and ambient
    metric, the Koszul table of a pair that has one, and the tables of its
    sections, candidates and scalar functions."""
    from algmech.algebroid import _ExprTable
    from algmech.geometry import _connection

    S, Gm = sysd.structure, sysd.metric
    frame, ambient = getattr(Gm._fn, "induced", (None, None))
    # A fixed pair's values are its quadratic form, a table over the fiber
    # (tests/test_dynamics.py::TestQuadraticForm), not a Koszul table.
    fixed, values = _connection(S, Gm)
    found = {"anchor": S._anchor_fn, "structure": S._structure_fn, "metric": Gm._fn,
             "frame": frame, "ambient": ambient, "koszul": values if fixed is None else None,
             "potential": getattr(sysd.potential, "_fn", None)}
    sections = [*(sysd.controls.sections if sysd.controls else ()),
                *(sysd.declared_complement or ()), *sysd.candidates.values()]
    found.update((f"section {X.label}", X._fn) for X in sections)
    found.update((f"reparam {name}", table) for name, table in sysd.reparam_candidates.items())
    found.update((f"embedded {key}", table) for key, table in (sysd.embedded or {}).items())
    return {role: table for role, table in found.items() if isinstance(table, _ExprTable)}


class TestStackedTables:
    """An expression table, and a metric, at a stack of points against the
    same calls one point at a time, bitwise."""

    def test_every_table_of_every_builtin_and_its_document(self, all_builtins):
        rng = np.random.default_rng(2023)
        roles = set()
        for sysd in all_builtins + [load_spec(dump_spec(sysd)) for sysd in all_builtins]:
            chart = sysd.chart
            for role, table in expression_tables(sysd).items():
                roles.add(role.split()[0])
                # The last stack takes every table past the compile threshold, so
                # both the calls per point and the compiled loop are checked.
                for count in (1, 3, 20, 101, _STACK_COMPILE_POINTS):
                    points = []
                    while len(points) < count:  # uniform in the box, off the exclusions
                        p = rng.uniform(chart.lower, chart.upper)
                        if chart.contains(p):
                            points.append(p)
                    points = np.reshape(points, (count, sysd.n))
                    stacked = table(points)
                    assert stacked.shape == (count, *table.shape), (sysd.name, role)
                    one_by_one = np.array([table(p) for p in points])
                    assert stacked.tobytes() == one_by_one.tobytes(), (sysd.name, role, count)
                    if role == "metric":
                        assert (sysd.metric.matrix(points).tobytes()
                                == np.array([sysd.metric(p) for p in points]).tobytes())
            if sysd.embedded is not None:  # the induced Gram matrix
                assert (sysd.metric.matrix(points).tobytes()
                        == np.array([sysd.metric(p) for p in points]).tobytes()), sysd.name
        assert {"anchor", "structure", "metric", "frame", "ambient", "koszul", "section",
                "embedded"} <= roles

    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_a_document_load_compiles_no_stacked_loop(self, name, monkeypatch):
        """The loader's sampled checks stack each table a few times at the
        same points, too few for a compiled loop to pay for itself: loading
        a builtin's document and taking its Christoffel table compiles none."""
        doc = dump_spec(builtin(name))
        compiled = []
        compile_stack = ex._compile_stack
        monkeypatch.setattr(ex, "_compile_stack", lambda f: compiled.append(f) or compile_stack(f))
        christoffel_table(load_spec(doc))
        assert not compiled

    def test_induced_gram_matrix_of_a_stack_is_nan_where_a_value_is_not(self, board):
        """A frame or ambient value that is not finite gives a NaN Gram
        matrix at its point only, as at that point alone."""
        from algmech.algebroid import _ExprTable

        doc = dump_spec(board)
        n = board.n
        ambient = _ExprTable([e for row in doc["ambient"]["metric"] for e in row], (n, n),
                             board.coords, board.params, differentiable=True)
        # x^32, which overflows to inf, not an EvalError, at x = 1e10
        big = "*".join(["(x*x*x*x*x*x*x*x)"] * 4)
        frame = _ExprTable([e for row in doc["distribution"] for e in row] + [big] + ["0"] * (n - 1),
                           (board.m + 1, n), board.coords, board.params)
        _, gram_fn = induced_algebroid(ambient, frame)
        points = board.sample(4, seed=3)
        points[2, 0] = 1e10
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stacked = gram_fn(points)
        assert stacked.tobytes() == np.array([gram_fn(p) for p in points]).tobytes()
        assert np.isnan(stacked[2]).all() and np.isfinite(np.delete(stacked, 2, axis=0)).all()


class TestLoaderFuzz:
    """Seeded fuzz of the loader: the builtin documents with one or two
    values replaced by a value from a fixed bad pool, or deleted."""

    DELETE = object()
    POOL = (math.nan, math.inf, -math.inf, 1e308, "1e308", True, None, [], {}, 7, "x",
            "1/0", "sqrt(-1)", "ln(0)", "zz", "1e308*3", DELETE,
            "+".join(["1"] * (ex._MAX_DEPTH + 1)),
            "sin(" * (ex._MAX_DEPTH + 1) + "1" + ")" * (ex._MAX_DEPTH + 1),
            _leg_tower("(J+m*r^2)/(J*m*r^2)", 200))
    TRIALS = 1000

    @staticmethod
    def nodes(value, path=()):
        """The path of every value inside a document, at any depth."""
        items = value.items() if isinstance(value, dict) else (
            enumerate(value) if isinstance(value, list) else ())
        out = []
        for key, item in items:
            out += [path + (key,)] + TestLoaderFuzz.nodes(item, path + (key,))
        return out

    def test_load_returns_or_raises_a_path_addressed_spec_error(self):
        """Under warnings as errors, ``load_spec`` either returns or raises
        a ``SpecError`` whose path starts with ``$``: never another
        exception, and never a warning."""
        rng = random.Random(0)
        documents = [json.dumps(dump_spec(builtin(name))) for name in sorted(BUILTINS)]
        escapes = []
        for _ in range(self.TRIALS):
            doc, changes = json.loads(rng.choice(documents)), []
            for _ in range(rng.randint(1, 2)):
                nodes = self.nodes(doc)
                if not nodes:
                    break
                path, value = rng.choice(nodes), rng.choice(self.POOL)
                block = doc
                try:
                    for key in path[:-1]:
                        block = block[key]
                    if value is self.DELETE:
                        del block[path[-1]]
                    else:
                        block[path[-1]] = value
                except (KeyError, IndexError, TypeError):  # an earlier change moved the path
                    continue
                changes.append((path, "<deleted>" if value is self.DELETE else value))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    load_spec(doc)
                except SpecError as err:
                    if not err.path.startswith("$"):
                        escapes.append((changes, err))
                except Exception as err:  # noqa: BLE001 - every escape is listed
                    escapes.append((changes, repr(err)))
        assert not escapes, escapes[:5]


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
        """The exact brackets of the frame Jacobian agree with one
        finite-difference Lie bracket per pair of fields, and the structure
        functions are antisymmetric, with a zero diagonal, bit for bit."""
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
            C = board.structure.structure(p)
            assert np.max(np.abs(C - expected)) <= 1e-7 * np.max(np.abs(expected))
            assert np.array_equal(C, -C.transpose(0, 2, 1))
            assert not np.any(np.diagonal(C, axis1=1, axis2=2))
            assert np.array_equal(board.metric.matrix(p), B @ G @ B.T)
            assert np.array_equal(board.structure.anchor(p), B)

    def test_spray_evaluation_table_calls(self, board, monkeypatch):
        """One snakeboard spray evaluation makes 1 expression-table call:
        the compiled Koszul table gives the anchor, the Gram matrix and the
        lowered Koszul tensor."""
        from algmech import algebroid, spray_field

        field = spray_field(board.structure, board.metric)
        calls = []
        for method in ("__call__", "value_and_jacobian"):
            original = getattr(algebroid._ExprTable, method)

            def counted(table, x, original=original, method=method):
                calls.append(method)
                return original(table, x)

            monkeypatch.setattr(algebroid._ExprTable, method, counted)
        field(0.0, np.array([0.0, 0.0, 0.2, 0.1, 0.3, 0.15, 0.1, 0.05]))
        assert calls == ["__call__"]

    def test_paired_terms_agree_with_the_generic_path(self, board, unicycle):
        """The spray of a structure and a metric from one ``induced_algebroid``
        call reads their compiled Koszul table; a wrapped Gram function
        forces the numeric assembly, which agrees to rounding when the
        wrapper carries the exact Jacobian and to difference error when it
        does not, and so does ``christoffel`` with it."""
        from algmech import christoffel, spray_field

        for sysd in (board, unicycle):
            S, Gm, m = sysd.structure, sysd.metric, sysd.m
            gram_fn = Gm._fn
            exact = lambda x: gram_fn(x)
            exact.value_and_jacobian = gram_fn.value_and_jacobian
            for wrapped, tol in ((exact, 1e-13), (lambda x: gram_fn(x), 1e-6)):
                generic = BundleMetric(wrapped, m)
                for p in sysd.sample(10, seed=31):
                    gamma = christoffel(S, Gm, p).gamma
                    scale = np.max(np.abs(gamma))
                    assert np.max(np.abs(christoffel(S, generic, p).gamma - gamma)) <= tol * scale
                    z = np.concatenate([p, np.linspace(0.3, -0.2, m)])
                    paired, other = spray_field(S, Gm)(0.0, z), spray_field(S, generic)(0.0, z)
                    assert np.max(np.abs(paired - other)) <= tol * np.max(np.abs(paired))

    def test_foreign_pairing_takes_the_generic_path(self, board):
        """Only a structure whose anchor is the frame and whose structure and
        Gram functions come from the same ``induced_algebroid`` call get a
        compiled Koszul table; every other pairing is assembled numerically,
        and both agree to rounding."""
        from algmech import AlgebroidStructure, christoffel_field
        from algmech.algebroid import _ExprTable
        from algmech.geometry import _koszul_table

        doc = dump_spec(board)
        n, m = board.n, board.m
        ambient = _ExprTable([e for row in doc["ambient"]["metric"] for e in row], (n, n),
                             board.coords, board.params, differentiable=True)
        frame = board.embedded["distribution"]
        structure_fn, gram_fn = induced_algebroid(ambient, frame)
        other_structure, other_gram = induced_algebroid(ambient, frame)
        points = board.sample(3, seed=5)
        expected = christoffel_field(board.structure, board.metric)(points)
        cases = [
            (frame, structure_fn, gram_fn, True),
            (frame, structure_fn, other_gram, False),
            (frame, other_structure, gram_fn, False),
            (lambda x: frame(x), structure_fn, gram_fn, False),
        ]
        for anchor, structure, gram, compiled in cases:
            S = AlgebroidStructure(board.coords, m, anchor, structure, params=board.params)
            Gm = BundleMetric(gram, m)
            assert (_koszul_table(S, Gm) is not None) == compiled
            gamma = christoffel_field(S, Gm)(points)
            assert np.max(np.abs(gamma - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_ambient_metric_overflowing_off_the_sample(self, board):
        """An ambient entry that overflows only near the chart's edge loads
        (the validation sample does not reach it); there the Gram Jacobian
        is NaN and the structure functions and the connection raise
        ``SingularMetricError`` naming the point, tested before the
        products, not an invalid value warning."""
        from algmech import christoffel, christoffel_field

        doc = dump_spec(board)
        doc["ambient"]["metric"][2][2] += " + 1e308*(x/4.99)^20000"
        sysdef = load_spec(doc)
        S, Gm, p = sysdef.structure, sysdef.metric, np.array([4.999, 0.0, 0.2, 0.1, 0.3])
        at = r"at \[4\.999 +0\. +0\.2 +0\.1 +0\.3 *\]"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gram, dgram = Gm.value_and_jacobian(p)
            assert np.isnan(gram).all() and np.isnan(dgram).all()
            assert np.isnan(Gm.matrix(p)).all()
            with pytest.raises(SingularMetricError, match="Gram matrix is not finite " + at):
                S.structure(p)
            with pytest.raises(SingularMetricError, match="metric is singular " + at):
                christoffel(S, Gm, p)
            with pytest.raises(SingularMetricError, match="metric is singular " + at):
                christoffel_field(S, Gm)(np.array([board.center(), p]))
            assert np.isfinite(christoffel(S, Gm, board.center()).gamma).all()

    def test_gram_jacobian_by_the_product_rule(self, leg):
        """Frame and ambient metric as tables, the ambient one moving: the
        Gram matrix carries its exact Jacobian, which central differences
        confirm, and the exact brackets reproduce the leg's typed-in
        structure functions to rounding."""
        from algmech.algebroid import _ExprTable
        from algmech.expr import fd_directional

        coords, params = leg.coords, leg.params
        ambient = _ExprTable(["m", "0", "0", "0", "m*r^2", "0", "0", "0", "J"], (3, 3),
                             coords, params, differentiable=True)
        frame = _ExprTable(["0", "1/(m*r^2)", "-1/J", "1/m", "0", "0", "0", "1", "1"], (3, 3),
                           coords, params, differentiable=True)
        structure_fn, gram_fn = induced_algebroid(ambient, frame)
        for p in leg.sample(5, seed=4):
            gram, dgram = gram_fn.value_and_jacobian(p)
            assert np.array_equal(gram, gram_fn(p))
            for i, unit in enumerate(np.eye(3)):
                assert np.max(np.abs(dgram[..., i] - fd_directional(gram_fn, p, unit))) < 1e-8
            assert np.max(np.abs(structure_fn(p) - leg.structure.structure(p))) < 1e-12

    def test_singular_gram_names_the_point(self):
        """The distribution field x*d/dx vanishes on x = 0, and the third of
        three fields z*d/dz on z = 0, where the Gram matrix of the spanning
        fields is singular."""
        from algmech import bracket

        cases = (
            (["x", "y"], [["x", "0"], ["0", "1"]], [0.0, 0.3], r"\[0\. +0\.3\]"),
            (["x", "y", "z"], [["1", "0", "0"], ["0", "1", "x"], ["0", "0", "z"]],
             [0.2, 0.1, 0.0], r"\[0\.2 +0\.1 +0\. *\]"),
        )
        for base, frame, point, where in cases:
            n = len(base)
            sysdef = load_spec({
                "name": "degenerate", "base": base, "fiber": n, "mode": "embedded",
                "ambient": {"metric": np.eye(n).astype(int).astype(str).tolist()},
                "distribution": frame,
                "chart": {"box": {c: [-1.0, 1.0] for c in base}},
            })
            p = np.array(point)
            with pytest.raises(SingularMetricError, match="singular at " + where):
                sysdef.structure.structure(p)
            e1, e2 = sysdef.basis_sections()[:2]
            with pytest.raises(SingularMetricError, match="singular at " + where):
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
