import json

import pytest

import numpy as np

from algmech import TotalPoint, builtin, dump_spec, integrate, load_spec, planar_body, spray_field
from algmech.cli import build_parser, main
from algmech.report import render_text, run_battery


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestChristoffelCommand:
    def test_planar_table_at_origin(self, capsys):
        code, out, _ = run(capsys, "christoffel", "--system", "planar_body",
                           "--at", "0,0,0")
        assert code == 0
        assert "gamma^1_22 = 1" in out
        assert "gamma^2_21 = -0.5" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "christoffel", "--system", "planar_body",
                           "--at", "0,0,0", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        values = {(e["upper"], *e["lower"]): e["value"] for e in doc["entries"]}
        assert values[(1, 2, 2)] == pytest.approx(1.0, abs=1e-9)

    def test_csv_format(self, capsys, tmp_path):
        target = tmp_path / "gamma.csv"
        code, out, _ = run(capsys, "christoffel", "--system", "robotic_leg",
                           "--at", "2,0,0", "--format", "csv", "--out", str(target))
        assert code == 0
        assert out.splitlines()[0] == "A,B,C,value"
        assert target.exists()

    def test_param_override(self, capsys):
        code, out, _ = run(capsys, "christoffel", "--system", "planar_body",
                           "--at", "0,0,0", "--params", "m=2,J=0.5,h=1.5")
        assert code == 0
        assert "gamma^1_22 = 3" in out  # h/J = 1.5/0.5


class TestVerdictCommands:
    def test_maxred_leg_passes(self, capsys):
        code, out, _ = run(capsys, "check-maxred", "--system", "robotic_leg")
        assert code == 0
        assert "[PASS]" in out

    def test_maxred_planar_fails(self, capsys):
        code, out, _ = run(capsys, "check-maxred", "--system", "planar_body")
        assert code == 1
        assert "[FAIL]" in out

    def test_decoupling_defaults_to_all_controls(self, capsys):
        code, out, _ = run(capsys, "check-decoupling", "--system", "snakeboard",
                           "--samples", "8")
        assert code == 0
        assert out.count("[PASS]") == 2

    def test_decoupling_complement_fails(self, capsys):
        code, out, _ = run(capsys, "check-decoupling", "--system", "planar_body",
                           "--section", "basis:3")
        assert code == 1

    def test_hj_failing_candidate(self, capsys):
        code, out, _ = run(capsys, "check-hj", "--system", "planar_body",
                           "--section", "candidate:xY1", "--samples", "8",
                           "--horizon", "0.5")
        assert code == 1
        assert "[FAIL] hj:xY1" in out
        assert "witness" in out

    def test_hj_passing_candidate(self, capsys):
        code, out, _ = run(capsys, "check-hj", "--system", "robotic_leg",
                           "--section", "candidate:fY1", "--samples", "8",
                           "--horizon", "1.0", "--traj-step", "1e-2")
        assert code == 0

    def test_reduction_and_geoinv(self, capsys):
        code, _, _ = run(capsys, "check-reduction", "--system", "robotic_leg",
                         "--samples", "8")
        assert code == 0
        code, _, _ = run(capsys, "check-reduction", "--system", "planar_body",
                         "--span", "basis:1", "--samples", "8")
        assert code == 0  # a single decoupling direction is a rank-one reduction
        code, _, _ = run(capsys, "check-geoinv", "--system", "planar_body",
                         "--samples", "6", "--horizon", "0.5")
        assert code == 1

    def test_reparam(self, capsys):
        code, _, _ = run(capsys, "check-reparam", "--system", "planar_body",
                         "--function", "candidate:g", "--samples", "8")
        assert code == 0
        code, _, _ = run(capsys, "check-reparam", "--system", "planar_body",
                         "--function", "x", "--samples", "8")
        assert code == 1

    def test_closure(self, capsys):
        code, out, _ = run(capsys, "closure", "--system", "planar_body", "--depth", "2")
        assert code == 0
        assert "lie closure rank at depth 2: 3" in out


def _potential_document():
    doc = dump_spec(planar_body())
    doc["potential"] = "theta^2"
    return doc


class TestBatteryAgreement:
    # Each check command and the labels of the battery entries it reproduces.
    COMMANDS = {
        "check-decoupling": ("decoupling:",),
        "check-reduction": ("kinematic_reduction:",),
        "check-geoinv": ("geodesic_invariance:",),
        "check-maxred": ("maximal_reducibility",),
        "check-hj": ("hj:", "hj_trajectory:"),
        "check-reparam": ("reparam:",),
    }

    @pytest.mark.parametrize("system", ["euclidean", "planar_body", "robotic_leg", "snakeboard",
                                        "suslov", "planar_potential"])
    def test_check_commands_reproduce_the_battery(self, capsys, tmp_path, system):
        """With the battery's defaults, the check commands emit the battery's
        entries in its order and exit 1 exactly when one of theirs does not
        pass; a command whose check does not apply exits 2 with the reason."""
        if system == "planar_potential":
            doc = _potential_document()
            ref = str(tmp_path / "planar_potential.json")
            (tmp_path / "planar_potential.json").write_text(json.dumps(doc))
            sysdef = load_spec(doc)
        else:
            ref, sysdef = system, builtin(system)
        battery = json.loads(json.dumps(run_battery(sysdef, samples=8)))
        emitted = []
        for command, labels in self.COMMANDS.items():
            code, out, err = run(capsys, command, "--system", ref, "--samples", "8",
                                 "--format", "json")
            if sysdef.controls is None:
                assert (code, err) == (2, f"error: system {sysdef.name!r} declares no "
                                          "control distribution\n")
                continue
            if command == "check-maxred" and sysdef.potential is not None:
                assert (code, err) == (2, "error: maximal reducibility requires a "
                                          "force-free system\n")
                continue
            checks = json.loads(out)["checks"]
            assert all(check["label"].startswith(labels) for check in checks)
            assert code == (0 if all(check["verdict"] == "pass" for check in checks) else 1)
            emitted.extend(checks)
        assert emitted == battery["checks"]

    def test_geoinv_span_needs_no_controls(self, capsys):
        code, out, _ = run(capsys, "check-geoinv", "--system", "euclidean",
                           "--span", "basis:1", "--samples", "4")
        assert code == 0
        assert "[PASS] geodesic_invariance:basis:1" in out

    def test_potential_force_reaches_the_check_commands(self, capsys, tmp_path):
        """A document with a potential and no explicit force: the check
        commands use the potential-gradient force, as the battery does."""
        doc = _potential_document()
        path = tmp_path / "planar_potential.json"
        path.write_text(json.dumps(doc))
        battery = run_battery(load_spec(doc))["verdicts"]
        assert battery["decoupling:Y1"] == "inconclusive"
        assert "maximal_reducibility" not in battery  # forced systems skip it

        code, out, _ = run(capsys, "check-decoupling", "--system", str(path), "--format", "json")
        verdicts = [check["verdict"] for check in json.loads(out)["checks"]]
        assert verdicts == [battery["decoupling:Y1"], battery["decoupling:Y2"]]
        assert code == 1
        code, out, _ = run(capsys, "check-reduction", "--system", str(path), "--format", "json")
        assert json.loads(out)["checks"][0]["verdict"] == battery["kinematic_reduction:controls"]
        assert code == 1
        code, _, err = run(capsys, "check-maxred", "--system", str(path))
        assert code == 2
        assert "force-free" in err


class TestSimulateCommand:
    def test_writes_csv(self, capsys, tmp_path):
        target = tmp_path / "traj.csv"
        code, out, _ = run(capsys, "simulate", "--system", "planar_body",
                           "--t1", "0.2", "--step", "0.01", "--out", str(target))
        assert code == 0
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "t,x1,x2,x3,y1,y2,y3"
        assert len(lines) == 22  # header + 21 samples

    def test_controlled_simulation(self, capsys, tmp_path):
        target = tmp_path / "traj.csv"
        code, out, _ = run(capsys, "simulate", "--system", "planar_body",
                           "--t1", "0.1", "--step", "0.01",
                           "--controls", "1;0", "--out", str(target))
        assert code == 0
        assert target.exists()

    def test_potential_reaches_the_simulation(self, capsys, tmp_path):
        """A document's potential drives ``simulate`` as it drives the battery."""
        doc = _potential_document()
        path = tmp_path / "planar_potential.json"
        path.write_text(json.dumps(doc))
        # theta stays 0 from the chart centre at the default fiber, so start off it.
        argv = ("--initial-base", "0,0,0.5", "--t1", "0.2", "--step", "0.01")
        plain, forced = tmp_path / "plain.csv", tmp_path / "forced.csv"
        assert run(capsys, "simulate", "--system", "planar_body", *argv, "--out", str(plain))[0] == 0
        assert run(capsys, "simulate", "--system", str(path), *argv, "--out", str(forced))[0] == 0
        assert forced.read_text() != plain.read_text()

        sysdef = load_spec(doc)
        field = spray_field(sysdef.structure, sysdef.metric, force=sysdef.effective_force())
        expected = tmp_path / "expected.csv"
        start = TotalPoint(np.array([0.0, 0.0, 0.5]), np.full(sysdef.m, 0.1))
        integrate(field, start, 0.0, 0.2, 0.01, chart=sysdef.chart).to_csv(expected)
        assert forced.read_text() == expected.read_text()

    def test_time_driven_controls(self, capsys, tmp_path):
        target = tmp_path / "traj.csv"
        code, _, _ = run(capsys, "simulate", "--system", "planar_body",
                         "--t1", "0.1", "--step", "0.01",
                         "--controls", "sin(t);0", "--control-mode", "time-driven",
                         "--out", str(target))
        assert code == 0


class TestUsageErrors:
    def test_unknown_system_path(self, capsys):
        code, _, err = run(capsys, "christoffel", "--system", "missing.json")
        assert code == 2
        assert "error" in err

    def test_malformed_point(self, capsys):
        code, _, err = run(capsys, "christoffel", "--system", "planar_body",
                           "--at", "1,2")
        assert code == 2

    def test_bad_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_bad_candidate_name(self, capsys):
        code, _, err = run(capsys, "check-hj", "--system", "planar_body",
                           "--section", "candidate:nope")
        assert code == 2

    @pytest.mark.parametrize("command", ["report", "check-decoupling"])
    def test_zero_samples(self, capsys, command):
        code, _, err = run(capsys, command, "--system", "planar_body", "--samples", "0")
        assert code == 2
        assert "sample count must be at least 1" in err

    def test_controls_required(self, capsys):
        code, _, err = run(capsys, "check-maxred", "--system", "euclidean")
        assert code == 2
        assert "control" in err

    def test_control_rank_mismatch(self, capsys, tmp_path):
        code, _, err = run(capsys, "simulate", "--system", "planar_body",
                           "--controls", "1.0", "--out", str(tmp_path / "traj.csv"))
        assert code == 2
        assert "1 coefficient(s) for 2 input section(s)" in err
        assert not (tmp_path / "traj.csv").exists()

    def test_malformed_spec_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        code, _, err = run(capsys, "christoffel", "--system", str(bad))
        assert code == 2


class TestParserReuse:
    COMMANDS = [
        ("christoffel", "--system", "planar_body", "--at", "0.1,0.2,0.3", "--format", "json"),
        ("christoffel", "--system", "planar_body", "--format", "xml"),  # usage error
        ("closure", "--system", "planar_body", "--at", "0.1,0.2,0.3", "--format", "json"),
        ("christoffel", "--system", "robotic_leg", "--at", "2,0,0", "--format", "json"),
    ]

    def test_one_parser_serves_a_sequence_of_commands(self, capsys):
        in_sequence = [run(capsys, *argv) for argv in self.COMMANDS]
        assert [code for code, _, _ in in_sequence] == [0, 2, 0, 0]
        for argv, result in zip(self.COMMANDS, in_sequence):
            build_parser.cache_clear()
            assert run(capsys, *argv) == result


class TestReportCommand:
    def test_planar_battery_document(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "report", "--system", "planar_body",
                           "--samples", "8", "--out", str(target))
        assert code == 1  # the planar body legitimately fails reducibility
        doc = json.loads(target.read_text())
        assert doc["verdicts"]["decoupling:Y1"] == "pass"
        assert doc["verdicts"]["maximal_reducibility"] == "fail"
        assert doc["seed"] == 0
        assert doc["tolerances"]["algebraic"] == pytest.approx(1e-5)

    def test_leg_battery_fails_only_on_negative_candidates(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "report", "--system", "robotic_leg",
                           "--samples", "6", "--out", str(target))
        assert code == 1  # the deliberately-broken candidates fail
        doc = json.loads(target.read_text())
        v = doc["verdicts"]
        assert v["kinematic_reduction:controls"] == "pass"
        assert v["maximal_reducibility"] == "pass"
        assert v["hj:fY1"] == "pass"
        not_passing = {k for k, verdict in v.items() if verdict != "pass"}
        assert not_passing == {"hj:thetaY1", "hj_trajectory:thetaY1",
                               "reparam:coord_theta"}

    def test_empty_battery_exits_clean(self, capsys):
        code, out, _ = run(capsys, "report", "--system", "euclidean",
                           "--samples", "4")
        assert code == 0


class TestReportModule:
    def test_empty_battery_for_uncontrolled_system(self, flat2):
        doc = run_battery(flat2, samples=4)
        assert doc["checks"] == []
        assert doc["verdicts"] == {}
        assert doc["ranks"]["lie_closure"]["rank"] == 2
        assert render_text(doc)

    def test_planar_battery_verdict_vector(self, planar):
        doc = run_battery(planar, samples=10)
        v = doc["verdicts"]
        assert v["decoupling:Y1"] == "pass"
        assert v["decoupling:Y2"] == "pass"
        assert v["kinematic_reduction:controls"] == "fail"
        assert v["maximal_reducibility"] == "fail"
        assert doc["ranks"]["lie_closure"]["rank"] == 3
        assert doc["ranks"]["symmetric_closure"]["rank"] == 3

    def test_snakeboard_battery_verdict_vector(self, board):
        doc = run_battery(board, samples=8)
        v = doc["verdicts"]
        assert v["decoupling:Y1"] == "pass"
        assert v["decoupling:Y2"] == "pass"
        assert v["maximal_reducibility"] == "fail"

    def test_document_is_json_serializable(self, leg):
        doc = run_battery(leg, samples=6)
        json.dumps(doc)
