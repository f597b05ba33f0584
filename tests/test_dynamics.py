import math

import numpy as np
import pytest

from algmech import (
    ControlSignal,
    ForceField,
    Potential,
    Section,
    TotalPoint,
    base_flow,
    energy,
    gradient_section,
    integrate,
    lift,
    spray_field,
)
from algmech.reduction import hj_trajectory_equivalence


def planar_exact_fiber(t, y0):
    """Closed-form geodesic fiber for the planar body at unit parameters.

    The difference of the last two components is conserved and drives a
    harmonic rotation of (first component, sum of last two)."""
    k = y0[1] - y0[2]
    u0 = y0[1] + y0[2]
    a = y0[0] * np.cos(k * t) - u0 * np.sin(k * t)
    u = y0[0] * np.sin(k * t) + u0 * np.cos(k * t)
    return np.array([a, (u + k) / 2.0, (u - k) / 2.0])


def opaque_frame_system(sysd):
    """The embedded system ``sysd`` rebuilt around a lambda frame, which
    carries no Jacobian: its brackets and Gram derivative are differences."""
    from algmech import AlgebroidStructure, BundleMetric
    from algmech.algebroid import _ExprTable
    from algmech.systems import induced_algebroid

    doc = sysd.document
    n = len(doc["base"])
    ambient = _ExprTable([e for row in doc["ambient"]["metric"] for e in row], (n, n),
                         sysd.coords, sysd.params, differentiable=True)
    table = sysd.embedded["distribution"]
    frame = lambda x: table(x)
    structure_fn, gram_fn = induced_algebroid(ambient, frame)
    return AlgebroidStructure(sysd.coords, sysd.m, frame, structure_fn), BundleMetric(gram_fn, sysd.m)


def rk4_reference(field, q0, t0, t1, step, chart=None):
    """A plain RK4 loop: array finiteness and chart tests, a list of state
    copies stacked at the end.  ``integrate`` must reproduce it bit for bit."""
    from algmech.algebroid import Trajectory
    from algmech.expr import EvalError
    from algmech.geometry import SingularMetricError

    z, m = q0.packed(), q0.fiber.size
    n = z.size - m
    count = max(1, int(round((t1 - t0) / step)))
    h = (t1 - t0) / count
    times = [t0]
    states = [z.copy()]
    truncated = False
    reason = ""
    for k in range(count):
        t = t0 + k * h
        try:
            k1 = field(t, z)
            k2 = field(t + h / 2.0, z + (h / 2.0) * k1)
            k3 = field(t + h / 2.0, z + (h / 2.0) * k2)
            k4 = field(t + h, z + h * k3)
        except (EvalError, SingularMetricError) as err:
            truncated, reason = True, f"field evaluation failed: {err}"
            break
        z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(z)):
            truncated, reason = True, f"non-finite state at t={t + h:g}"
            break
        if chart is not None and not chart.contains(z[:n]):
            truncated, reason = True, "left the chart domain"
            break
        times.append(t0 + (k + 1) * h)
        states.append(z.copy())
    states = np.array(states)
    return Trajectory(np.array(times), states[:, :n], states[:, n:] if m else np.zeros((len(times), 0)),
                      step=h, truncated=truncated, reason=reason)


def assert_same_trajectory(traj, ref):
    """Equal bit for bit: every sample, the times and the truncation."""
    for name in ("times", "base", "fiber"):
        a, b = getattr(traj, name), getattr(ref, name)
        assert a.shape == b.shape and a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert (traj.truncated, traj.reason, traj.step) == (ref.truncated, ref.reason, ref.step)


def field_at(sysd, q, t=0.0, **terms):
    """One evaluation of the packed field of ``sysd`` at the total point ``q``."""
    return spray_field(sysd.structure, sysd.metric, **terms)(t, q.packed())


class TestSpray:
    def test_flat_space(self, flat2):
        out = field_at(flat2, TotalPoint([0.3, 0.4], [1.0, -2.0]))
        assert out == pytest.approx([1.0, -2.0, 0.0, 0.0])

    def test_planar_fiber_acceleration_reads_connection(self, planar):
        out = field_at(planar, TotalPoint([0.0, 0.0, 0.0], [0.0, 1.0, 0.0]))
        assert out[3:] == pytest.approx([-1.0, 0.0, 0.0], abs=1e-9)

    def test_quadratic_homogeneity_in_fiber(self, planar, board, rng):
        """Fiber part scales by four when the fiber doubles; base part doubles."""
        for sysd in (planar, board):
            p = sysd.sample(1, seed=3)[0]
            y = rng.uniform(-1, 1, size=sysd.m)
            n = sysd.n
            one = field_at(sysd, TotalPoint(p, y))
            two = field_at(sysd, TotalPoint(p, 2 * y))
            assert np.max(np.abs(two[:n] - 2 * one[:n])) < 1e-9
            assert np.max(np.abs(two[n:] - 4 * one[n:])) < 1e-9

    def test_polarization_of_fiber_quadratic_form(self, leg, rng):
        S, Gm = leg.structure, leg.metric
        p = np.array([1.2, 0.4, -0.3])
        n = S.n
        y, z = rng.uniform(-1, 1, size=(2, 3))
        f = lambda v: field_at(leg, TotalPoint(p, v))[n:]
        polarized = 0.5 * (f(y + z) - f(y) - f(z))
        gamma_term = f(np.zeros(3))  # zero, sanity anchor
        assert np.max(np.abs(gamma_term)) < 1e-12
        # bilinear form evaluated directly
        from algmech import christoffel

        G = christoffel(S, Gm, p).gamma
        sym = -0.5 * np.einsum("cab,a,b->c", G + np.transpose(G, (0, 2, 1)), y, z)
        assert np.max(np.abs(polarized - sym)) < 1e-9


class TestSprayContraction:
    def test_fiber_part_is_the_christoffel_form(self, all_builtins, planar, unicycle, rng):
        """Contracting the lowered Koszul tensor with the velocity and solving
        with the metric equals minus gamma(y, y), to rounding, at 20 chart
        samples of every builtin, of an embedded system with a moving ambient
        metric, of one with an opaque frame, and of the planar body with its
        structure functions opaque (a coordinate-free metric off the
        constant-coefficient shortcut)."""
        from algmech import AlgebroidStructure, christoffel

        opaque = AlgebroidStructure(planar.coords, planar.m, planar.structure.anchor,
                                    lambda x: planar.structure.structure(x))
        cases = [(sysd.structure, sysd.metric, sysd) for sysd in all_builtins]
        cases += [(unicycle.structure, unicycle.metric, unicycle),
                  (*opaque_frame_system(unicycle), unicycle),
                  (opaque, planar.metric, planar)]
        for S, Gm, sysd in cases:
            field = spray_field(S, Gm)
            for p in sysd.sample(20, seed=29):
                y = rng.uniform(-1.0, 1.0, size=S.m)
                out = field(0.0, np.concatenate([p, y]))
                expected = -np.einsum("cab,a,b->c", christoffel(S, Gm, p).gamma, y, y)
                assert np.array_equal(out[:S.n], S.anchor(p).T @ y)
                assert (np.max(np.abs(out[S.n:] - expected))
                        <= 1e-14 * np.max(np.abs(expected))), (sysd.name, p)

    def test_singular_metric_raises(self):
        """A metric that vanishes, or is not finite, at the point raises the
        singular-metric error that integrate reports."""
        from algmech import AlgebroidStructure, BundleMetric, SingularMetricError

        S = AlgebroidStructure.from_exprs(("x",), 1, [["1"]], {})
        for value in (0.0, np.nan):
            Gm = BundleMetric(lambda x, value=value: np.array([[value]]), 1)
            with pytest.raises(SingularMetricError, match=r"metric is singular at \[0.2\]"):
                spray_field(S, Gm)(0.0, np.array([0.2, 1.0]))


class TestForcedField:
    def test_zero_force_reduces_to_spray(self, planar, rng):
        q = TotalPoint([0.1, 0.2, 0.3], rng.uniform(-1, 1, size=3))
        zero = ForceField.from_exprs(["0", "0", "0"], planar.coords, planar.params)
        lhs = field_at(planar, q, force=zero)
        rhs = field_at(planar, q)
        assert np.array_equal(lhs, rhs)

    def test_constant_potential_gradient_force(self, flat2):
        V = Potential.from_expr("x1", flat2.coords)
        F = ForceField.from_section(
            gradient_section(flat2.structure, flat2.metric, V).scaled_by(-1.0))
        out = field_at(flat2, TotalPoint([0.0, 0.0], [0.0, 0.0]), force=F)
        assert out[2:] == pytest.approx([-1.0, 0.0], abs=1e-8)

    def test_quadratic_drag_dissipates_energy(self, planar):
        F = ForceField.from_exprs(["-y1", "-y2", "-y3"], planar.coords, planar.params)
        field = spray_field(planar.structure, planar.metric, force=F)
        traj = integrate(field, TotalPoint([0.0, 0.0, 0.0], [0.6, -0.4, 0.3]), 0.0, 2.0, 1e-2)
        E = [energy(planar.structure, planar.metric, None, (traj.base[k], traj.fiber[k]))
             for k in range(len(traj))]
        assert all(b < a for a, b in zip(E, E[1:]))


class TestControlledField:
    def test_zero_controls_reduce_to_forced(self, planar, rng):
        u = ControlSignal(["0", "0"], planar.coords, planar.params)
        q = TotalPoint([0.1, -0.2, 0.4], rng.uniform(-1, 1, size=3))
        lhs = field_at(planar, q, inputs=planar.controls.sections, signal=u)
        rhs = field_at(planar, q)
        assert np.max(np.abs(lhs - rhs)) < 1e-15

    def test_unit_control_on_flat_space(self, flat2):
        u = ControlSignal(["1"], flat2.coords)
        out = field_at(flat2, TotalPoint([0.0, 0.0], [0.0, 0.0]),
                       inputs=[Section.constant([1.0, 0.0])], signal=u)
        assert out == pytest.approx([0.0, 0.0, 1.0, 0.0])

    def test_rank_mismatch_rejected_at_construction(self, planar):
        one = ControlSignal(["1"], planar.coords, planar.params)
        with pytest.raises(ValueError, match="1 coefficient"):
            spray_field(planar.structure, planar.metric,
                        inputs=planar.controls.sections, signal=one)
        with pytest.raises(ValueError, match="0 coefficient"):
            spray_field(planar.structure, planar.metric, inputs=planar.controls.sections)

    def test_time_driven_signal(self, flat2):
        u = ControlSignal(["sin(t)"], flat2.coords, mode=ControlSignal.TIME_DRIVEN)
        assert u(np.pi / 2.0, np.zeros(2)) == pytest.approx([1.0])

    def test_state_feedback_rejects_time(self, flat2):
        with pytest.raises(ValueError):
            ControlSignal(["t"], flat2.coords, mode=ControlSignal.STATE_FEEDBACK)
        # Checked before the table is built, which would only call t and zz unknown.
        with pytest.raises(ValueError, match="may not reference t"):
            ControlSignal(["x1 + t*zz"], flat2.coords)


class TestIntegrate:
    def test_flat_unit_speed_line(self, flat2):
        field = spray_field(flat2.structure, flat2.metric)
        traj = integrate(field, TotalPoint([0.0, 0.0], [1.0, 0.0]), 0.0, 1.0, 1e-2)
        assert traj.base[-1] == pytest.approx([1.0, 0.0], abs=1e-10)
        assert traj.times[-1] == pytest.approx(1.0)

    def test_order_four_convergence(self, planar):
        """Step halving shrinks the endpoint error roughly sixteenfold against
        the closed-form fiber solution."""
        field = spray_field(planar.structure, planar.metric)
        y0 = np.array([1.0, 1.0, 0.0])
        errors = []
        for h in (0.02, 0.01, 0.005):
            traj = integrate(field, TotalPoint([0.0, 0.0, 0.0], y0), 0.0, 1.0, h)
            errors.append(np.max(np.abs(traj.fiber[-1] - planar_exact_fiber(1.0, y0))))
        for coarse, fine in zip(errors, errors[1:]):
            assert 12.0 <= coarse / fine <= 20.0

    def test_chart_exit_truncates(self, planar):
        field = spray_field(planar.structure, planar.metric)
        traj = integrate(field, TotalPoint([7.9, 0.0, 0.0], [1.0, 0.0, 0.0]),
                         0.0, 2.0, 1e-2, chart=planar.chart)
        assert traj.truncated
        assert "chart" in traj.reason
        assert traj.times[-1] < 2.0

    def test_exclusion_truncates(self, board):
        field = spray_field(board.structure, board.metric)
        q0 = TotalPoint([0.0, 0.0, 0.0, 0.0, 1.3], [0.0, 0.0, 0.5])
        traj = integrate(field, q0, 0.0, 2.0, 1e-2, chart=board.chart)
        assert traj.truncated

    def test_non_finite_state_truncates(self):
        """NaN lies inside every chart box, so only a finiteness test stops it."""
        from algmech import euclidean

        line = euclidean(1)
        blowup = ForceField.from_exprs(["y1*y1*y1*1e300"], line.coords, line.params)
        field = spray_field(line.structure, line.metric, force=blowup)
        traj = integrate(field, TotalPoint([0.0], [10.0]), 0.0, 1.0, 0.1, chart=line.chart)
        assert traj.truncated
        assert "non-finite" in traj.reason
        assert np.all(np.isfinite(traj.fiber))
        assert len(traj) < 11

    def test_nan_metric_truncates_with_the_reason(self):
        """A metric that turns NaN along the path stops the integration at
        the first stage that meets it, reported as a singular metric."""
        from algmech import AlgebroidStructure, BundleMetric

        S = AlgebroidStructure.from_exprs(("x",), 1, [["1"]], {})
        Gm = BundleMetric(lambda x: np.array([[1.0 if x[0] < 0.25 else np.nan]]), 1)
        traj = integrate(spray_field(S, Gm), TotalPoint([0.0], [1.0]), 0.0, 1.0, 0.05)
        assert traj.truncated
        assert traj.reason.startswith("field evaluation failed: metric is singular at")
        assert 1 < len(traj) < 21
        assert np.all(np.isfinite(traj.fiber))

    def test_nan_structure_truncates(self):
        """Structure functions that turn NaN along the path stop the
        integration; the samples kept are finite."""
        from algmech import AlgebroidStructure, BundleMetric

        S = AlgebroidStructure(("x",), 2, lambda x: np.array([[1.0], [0.0]]),
                               lambda x: np.zeros((2, 2, 2)) if x[0] < 0.25
                               else np.full((2, 2, 2), np.nan))
        Gm = BundleMetric.from_exprs([["1", "0"], ["0", "1"]], ("x",))
        traj = integrate(spray_field(S, Gm), TotalPoint([0.0], [1.0, 0.5]), 0.0, 1.0, 0.05)
        assert traj.truncated and traj.reason
        assert 1 < len(traj) < 21
        assert np.all(np.isfinite(traj.base)) and np.all(np.isfinite(traj.fiber))

    def test_metric_kink_truncates(self):
        """A geodesic started where the metric's exact Jacobian does not
        exist stops with the reason instead of carrying a NaN."""
        from algmech import load_spec

        kinked = load_spec({"name": "kinked", "base": ["x"], "fiber": 1, "mode": "intrinsic",
                            "anchor": [["1"]], "metric": [["1 + abs(x)"]],
                            "chart": {"box": {"x": [-1.0, 1.0]}}})
        field = spray_field(kinked.structure, kinked.metric)
        traj = integrate(field, TotalPoint([0.0], [0.5]), 0.0, 1.0, 0.1, chart=kinked.chart)
        assert traj.truncated
        assert "abs is not differentiable at 0" in traj.reason
        assert len(traj) == 1 and np.all(np.isfinite(traj.fiber))

    def test_invalid_steps_rejected(self, flat2):
        field = spray_field(flat2.structure, flat2.metric)
        with pytest.raises(ValueError):
            integrate(field, TotalPoint([0.0, 0.0], [1.0, 0.0]), 0.0, 1.0, -0.1)
        with pytest.raises(ValueError):
            integrate(field, TotalPoint([0.0, 0.0], [1.0, 0.0]), 1.0, 0.5, 0.1)


    @pytest.mark.parametrize("t0, t1, step", [
        (0.0, math.inf, 0.1), (-math.inf, 1.0, 0.1), (0.0, 1.0, math.inf),
        (0.0, 1.0, math.nan), (math.nan, 1.0, 0.1), (0.0, math.nan, 0.1)])
    def test_non_finite_times_rejected(self, flat2, t0, t1, step):
        """An infinite span or step escaped as an OverflowError, and a NaN
        one as a ValueError about converting NaN to an integer."""
        field = spray_field(flat2.structure, flat2.metric)
        with pytest.raises(ValueError, match="t0, t1 and step must be finite"):
            integrate(field, TotalPoint([0.0, 0.0], [1.0, 0.0]), t0, t1, step)

    def test_non_finite_horizon_rejected(self, planar):
        with pytest.raises(ValueError, match="t0, t1 and step must be finite"):
            hj_trajectory_equivalence(planar.structure, planar.metric, planar.potential,
                                      planar.controls, planar.candidates["xY1"],
                                      planar.center(), math.inf, 0.01)


class TestLeanStep:
    """``integrate`` against the reference loop, bit for bit."""

    def test_geodesics_of_every_builtin(self, all_builtins, rng):
        for sysd in all_builtins:
            field = spray_field(sysd.structure, sysd.metric)
            for p in sysd.sample(2, seed=41):
                q0 = TotalPoint(p, rng.uniform(-0.5, 0.5, size=sysd.m))
                args = (field, q0, 0.0, 0.3, 1e-3)
                traj = integrate(*args, chart=sysd.chart)
                assert_same_trajectory(traj, rk4_reference(*args, chart=sysd.chart))
                assert len(traj) == 301 or traj.truncated

    def test_chart_exit(self, planar, board):
        field = spray_field(planar.structure, planar.metric)
        args = (field, TotalPoint([7.9, 0.0, 0.0], [1.0, 0.0, 0.0]), 0.0, 2.0, 1e-2)
        traj = integrate(*args, chart=planar.chart)
        assert traj.truncated and traj.reason == "left the chart domain"
        assert_same_trajectory(traj, rk4_reference(*args, chart=planar.chart))
        # The snakeboard leaves through an exclusion, not a face of its box.
        field = spray_field(board.structure, board.metric)
        args = (field, TotalPoint([0.0, 0.0, 0.0, 0.0, 1.3], [0.0, 0.0, 0.5]), 0.0, 2.0, 1e-2)
        traj = integrate(*args, chart=board.chart)
        assert traj.truncated and traj.reason == "left the chart domain"
        assert_same_trajectory(traj, rk4_reference(*args, chart=board.chart))
        # The samples kept do not hold on to the buffer sized for the horizon.
        assert traj.base.base.shape[0] == len(traj) < 201

    def test_non_finite_state(self):
        from algmech import euclidean

        line = euclidean(1)
        blowup = ForceField.from_exprs(["y1*y1*y1*1e300"], line.coords, line.params)
        args = (spray_field(line.structure, line.metric, force=blowup),
                TotalPoint([0.0], [10.0]), 0.0, 1.0, 0.1)
        traj = integrate(*args, chart=line.chart)
        assert traj.truncated and traj.reason.startswith("non-finite state at t=")
        assert_same_trajectory(traj, rk4_reference(*args, chart=line.chart))

    def test_nan_state_inside_the_chart(self):
        """A field that turns NaN stops at the finiteness test, which runs
        before the chart test."""
        from algmech import euclidean

        line = euclidean(1)
        field = lambda t, z: np.array([1.0, np.nan if t > 0.25 else 0.0])
        args = (field, TotalPoint([0.0], [1.0]), 0.0, 1.0, 0.1)
        traj = integrate(*args, chart=line.chart)
        assert traj.reason == "non-finite state at t=0.3"
        assert_same_trajectory(traj, rk4_reference(*args, chart=line.chart))

    def test_evaluation_errors(self):
        from algmech import AlgebroidStructure, BundleMetric, load_spec

        # The metric's table raises EvalError once x turns negative.
        rooted = load_spec({"name": "rooted", "base": ["x"], "fiber": 1, "mode": "intrinsic",
                            "anchor": [["1"]], "metric": [["1 + sqrt(x)"]],
                            "chart": {"box": {"x": [0.0, 1.0]}}})
        S = AlgebroidStructure.from_exprs(("x",), 1, [["1"]], {})
        nan_metric = BundleMetric(lambda x: np.array([[1.0 if x[0] < 0.25 else np.nan]]), 1)
        cases = [(spray_field(rooted.structure, rooted.metric), [0.5], [-1.0],
                  "sqrt of a negative value"),
                 (spray_field(S, nan_metric), [0.0], [1.0], "metric is singular at")]
        for field, base, fiber, message in cases:
            args = (field, TotalPoint(base, fiber), 0.0, 2.0, 0.05)
            traj = integrate(*args)
            assert traj.truncated and message in traj.reason, traj.reason
            assert 1 < len(traj) < 41
            assert_same_trajectory(traj, rk4_reference(*args))

    def test_empty_base_or_fiber(self, top, planar):
        """A point base (all fiber) and a base flow (no fiber)."""
        field = spray_field(top.structure, top.metric)
        args = (field, TotalPoint(np.zeros(0), [0.3, 0.4, 0.2]), 0.0, 0.5, 1e-2)
        traj = integrate(*args, chart=top.chart)
        assert traj.base.shape == (51, 0)
        assert_same_trajectory(traj, rk4_reference(*args, chart=top.chart))
        anchored = planar.structure.anchored_field(Section.basis(1, 3))
        args = (lambda t, z: anchored(z), TotalPoint([0.1, 0.2, 0.3], np.zeros(0)), 0.0, 0.5, 1e-2)
        traj = integrate(*args, chart=planar.chart)
        assert traj.fiber.shape == (51, 0)
        assert_same_trajectory(traj, rk4_reference(*args, chart=planar.chart))

    def test_infinite_metric_is_singular(self):
        """An infinite metric is rejected where it is read, before its
        difference (inf - inf) or its product with the structure functions
        can warn; the suite turns such warnings into errors."""
        from algmech import AlgebroidStructure, BundleMetric, SingularMetricError, christoffel

        S = AlgebroidStructure.from_exprs(("x",), 1, [["1"]], {})
        Gm = BundleMetric(lambda x: np.array([[np.inf]]), 1)
        traj = integrate(spray_field(S, Gm), TotalPoint([0.2], [1.0]), 0.0, 1.0, 0.1)
        assert traj.truncated and len(traj) == 1
        assert traj.reason == "field evaluation failed: metric is singular at [0.2]"
        with pytest.raises(SingularMetricError, match=r"metric is singular at \[0.2\]"):
            christoffel(S, Gm, np.array([0.2]))


def seeded_starts(sysd, seed, count=3):
    """``count`` seeded start states inside the chart of ``sysd``."""
    rng = np.random.default_rng([seed, 7])
    return [TotalPoint(p, rng.uniform(-0.5, 0.5, size=sysd.m))
            for p in sysd.sample(count, seed=seed)]


def assert_members_alone(field, starts, t1, step, chart=None):
    """The stack of ``starts`` integrated as one ensemble, in both stack
    forms, against each member integrated on its own, bit for bit."""
    alone = [integrate(field, q, 0.0, t1, step, chart=chart) for q in starts]
    for ref, traj in zip(alone, integrate(field, starts, 0.0, t1, step, chart=chart)):
        assert_same_trajectory(traj, ref)
    packed = np.array([q.packed() for q in starts])
    stack = integrate(field, packed, 0.0, t1, step, chart=chart, fiber_rank=starts[0].fiber.size)
    assert len(stack) == len(starts)
    for ref, traj in zip(alone, stack):
        assert_same_trajectory(traj, ref)
    return alone


class TestEnsemble:
    """``integrate`` of a stack of states against each state on its own."""

    def test_stacks_of_every_builtin(self, all_builtins, rng, monkeypatch):
        from algmech.geometry import _connection

        fixed = set()
        for sysd in all_builtins:
            S = sysd.structure
            field = spray_field(S, sysd.metric)
            # The starts of TestLeanStep, then stacks of three seeded starts.
            lean = [TotalPoint(p, rng.uniform(-0.5, 0.5, size=sysd.m))
                    for p in sysd.sample(2, seed=41)]
            for starts in [lean] + [seeded_starts(sysd, seed) for seed in range(3)]:
                alone = assert_members_alone(field, starts, 0.3, 1e-3, chart=sysd.chart)
                assert all(len(traj) == 301 or traj.truncated for traj in alone)
            if _connection(S, sysd.metric)[0] is None:
                continue
            # The fixed branch: a stack of states is one anchor call, and
            # its rows are bitwise the field at each state.
            fixed.add(sysd.name)
            Z = np.array([q.packed() for q in seeded_starts(sysd, 4, count=5)])
            one_by_one = np.array([field(0.0, z) for z in Z])
            anchors = []
            monkeypatch.setattr(S, "anchor", lambda x, at=S.anchor: anchors.append(x) or at(x))
            stacked = field(0.0, Z)
            monkeypatch.undo()
            assert len(anchors) == (1 if sysd.n else 0), sysd.name
            assert stacked.tobytes() == one_by_one.tobytes(), sysd.name
        assert fixed == {"planar_body", "euclidean2", "suslov"}

    def test_compiled_tables_beside_the_builtins(self):
        from algmech import load_spec

        for document in (LEG_EMBEDDED, BOARD_INTRINSIC):
            sysd = load_spec(document)
            field = spray_field(sysd.structure, sysd.metric)
            assert_members_alone(field, seeded_starts(sysd, 5), 0.2, 1e-2, chart=sysd.chart)

    def test_forced_and_controlled_stacks(self, planar, leg):
        drag = ForceField.from_exprs(["-y1", "-y2", "-y3"], leg.coords, leg.params)
        push = ControlSignal(["1", "0"], planar.coords, planar.params, mode="time-driven")
        cases = [(leg, spray_field(leg.structure, leg.metric, force=drag)),
                 (planar, spray_field(planar.structure, planar.metric,
                                      inputs=planar.controls.sections, signal=push))]
        for sysd, field in cases:
            assert_members_alone(field, seeded_starts(sysd, 3), 0.5, 1e-2, chart=sysd.chart)

    def test_mixed_stacks_truncate_member_by_member(self, planar, board):
        """One healthy member beside each way to stop, in either order: only
        the member at fault stops, at its own step, with its own reason."""
        from algmech import AlgebroidStructure, BundleMetric, euclidean, load_spec

        line = euclidean(1)
        blowup = ForceField.from_exprs(["y1*y1*y1*1e300"], line.coords, line.params)
        rooted = load_spec({"name": "rooted", "base": ["x"], "fiber": 1, "mode": "intrinsic",
                            "anchor": [["1"]], "metric": [["1 + sqrt(x)"]],
                            "chart": {"box": {"x": [0.0, 1.0]}}})
        S = AlgebroidStructure.from_exprs(("x",), 1, [["1"]], {})
        nan_metric = BundleMetric(lambda x: np.array([[1.0 if x[0] < 0.25 else np.nan]]), 1)
        cases = [
            # A face of the chart box, and an exclusion of the snakeboard.
            (spray_field(planar.structure, planar.metric), planar.chart,
             TotalPoint([7.9, 0.0, 0.0], [1.0, 0.0, 0.0]),
             TotalPoint([0.1, 0.2, 0.3], [0.1, 0.2, -0.1]), "left the chart domain"),
            (spray_field(board.structure, board.metric), board.chart,
             TotalPoint([0.0, 0.0, 0.0, 0.0, 1.3], [0.0, 0.0, 0.5]),
             TotalPoint([0.0, 0.0, 0.2, 0.1, 0.3], [0.15, 0.1, 0.05]), "left the chart domain"),
            # A state that overflows, a domain error of the compiled table,
            # and a metric that turns NaN.
            (spray_field(line.structure, line.metric, force=blowup), line.chart,
             TotalPoint([0.0], [10.0]), TotalPoint([0.0], [0.0]), "non-finite state at t="),
            (spray_field(rooted.structure, rooted.metric), None,
             TotalPoint([0.5], [-1.0]), TotalPoint([0.5], [0.1]),
             "field evaluation failed: sqrt of a negative value"),
            (spray_field(S, nan_metric), None, TotalPoint([0.0], [1.0]), TotalPoint([0.0], [-1.0]),
             "field evaluation failed: metric is singular at"),
        ]
        for field, chart, faulty, healthy, reason in cases:
            for starts in ([faulty, healthy], [healthy, faulty, healthy]):
                alone = assert_members_alone(field, starts, 2.0, 5e-2, chart=chart)
                for q, traj in zip(starts, alone):
                    if q is faulty:
                        assert traj.truncated and traj.reason.startswith(reason), traj.reason
                        assert 1 <= len(traj) < 41
                    else:
                        assert not traj.truncated and len(traj) == 41

    def test_every_member_stops(self, planar):
        field = spray_field(planar.structure, planar.metric)
        starts = [TotalPoint([7.9, 0.0, 0.0], [1.0, 0.0, 0.0]),
                  TotalPoint([-7.9, 0.0, 0.0], [-1.0, 0.0, 0.0])]
        alone = assert_members_alone(field, starts, 2.0, 1e-2, chart=planar.chart)
        assert all(traj.truncated for traj in alone)

    def test_stack_forms(self, planar):
        field = spray_field(planar.structure, planar.metric)
        assert integrate(field, np.zeros((0, 6)), 0.0, 1.0, 0.1, fiber_rank=3) == []
        with pytest.raises(ValueError, match="fiber_rank is required"):
            integrate(field, np.zeros((2, 6)), 0.0, 1.0, 0.1)
        with pytest.raises(ValueError, match="different shapes"):
            integrate(field, [TotalPoint([0.0, 0.0, 0.0], [1.0, 0.0, 0.0]),
                              TotalPoint([0.0, 0.0], [1.0, 0.0, 0.0, 0.0])], 0.0, 1.0, 0.1)
        with pytest.raises(ValueError, match="step must be positive"):
            integrate(field, np.zeros((2, 6)), 0.0, 1.0, 0.0, fiber_rank=3)


    def test_four_forms_of_one_start(self, planar, board):
        """A ``TotalPoint``, a packed ``(d,)`` state, a one-member list and a
        ``(1, d)`` array of the same start give bitwise the same trajectory
        and truncation, and the field of a single state never sees a stack."""
        from algmech import load_spec

        def single_only(field):
            def checked(t, z):
                if np.ndim(z) != 1:
                    raise AssertionError(f"a single state's field got shape {np.shape(z)}")
                return field(t, z)
            return checked

        rooted = load_spec({"name": "rooted", "base": ["x"], "fiber": 1, "mode": "intrinsic",
                            "anchor": [["1"]], "metric": [["1 + sqrt(x)"]],
                            "chart": {"box": {"x": [0.0, 1.0]}}})
        cases = [(planar, TotalPoint([0.1, 0.2, 0.3], [0.3, 0.2, -0.1]), ""),
                 (planar, TotalPoint([7.9, 0.0, 0.0], [1.0, 0.0, 0.0]), "left the chart domain"),
                 (board, TotalPoint([0.0, 0.0, 0.2, 0.1, 0.3], [0.15, 0.1, 0.05]), ""),
                 (board, TotalPoint([0.0, 0.0, 0.0, 0.0, 1.3], [0.0, 0.0, 0.5]),
                  "left the chart domain"),
                 (rooted, TotalPoint([0.5], [-1.0]),
                  "field evaluation failed: sqrt of a negative value")]
        for sysd, q0, reason in cases:
            field = spray_field(sysd.structure, sysd.metric)
            args, chart = (0.0, 2.0, 5e-2), sysd.chart
            alone = integrate(single_only(field), q0, *args, chart=chart)
            assert alone.reason == reason, alone.reason
            packed = integrate(single_only(field), q0.packed(), *args, chart=chart,
                               fiber_rank=sysd.m)
            [listed] = integrate(field, [q0], *args, chart=chart)
            [stacked] = integrate(field, q0.packed()[None], *args, chart=chart, fiber_rank=sysd.m)
            for traj in (packed, listed, stacked):
                assert_same_trajectory(traj, alone)


class TestStackedSpray:
    """The field of ``spray_field`` at a stack of states against the field
    at each state."""

    def test_stacks_equal_the_states_one_at_a_time(self, all_builtins, unicycle, planar, leg):
        from algmech import load_spec

        systems = all_builtins + [unicycle, load_spec(LEG_EMBEDDED), load_spec(BOARD_INTRINSIC)]
        fields = [(sysd, spray_field(sysd.structure, sysd.metric)) for sysd in systems]
        drag = ForceField.from_exprs(["-y1", "-y2", "-y3"], leg.coords, leg.params)
        push = ControlSignal(["1", "0"], planar.coords, planar.params)
        fields += [(leg, spray_field(leg.structure, leg.metric, force=drag)),
                   (planar, spray_field(planar.structure, planar.metric,
                                        inputs=planar.controls.sections, signal=push)),
                   (unicycle, spray_field(*opaque_frame_system(unicycle)))]
        for sysd, field in fields:
            rng = np.random.default_rng(11)
            for count in (1, 3, 8):
                Z = np.array([np.concatenate([p, rng.uniform(-2.0, 2.0, size=sysd.m)])
                              for p in sysd.sample(count, seed=count)])
                stacked = field(0.3, Z)
                assert stacked.shape == Z.shape, sysd.name
                assert stacked.tobytes() == np.array([field(0.3, z) for z in Z]).tobytes(), sysd.name

    def test_a_failing_stack_raises_at_its_first_failing_state(self):
        from algmech import EvalError, load_spec

        rooted = load_spec({"name": "rooted", "base": ["x"], "fiber": 1, "mode": "intrinsic",
                            "anchor": [["1"]], "metric": [["1 + sqrt(x)"]],
                            "chart": {"box": {"x": [0.0, 1.0]}}})
        field = spray_field(rooted.structure, rooted.metric)
        with pytest.raises(EvalError, match="sqrt of a negative value"):
            field(0.0, np.array([[0.5, 1.0], [-0.5, 1.0], [0.2, 1.0]]))


    def test_the_direct_solve_is_numpys_solve(self, leg, board):
        """The spray solves with LAPACK's gufunc directly: its acceleration is
        -np.linalg.solve(G, K(y, y) / 2) built from the Koszul table's own
        values, at states and in stacks of 1, 3 and 8, bitwise but for the
        sign of an exact zero (the snakeboard's rotor accelerates by 0)."""
        from algmech import load_spec
        from algmech.geometry import _connection

        def unsigned(a):
            return (a + 0.0).tobytes()  # -0.0 + 0.0 is 0.0

        for sysd in (leg, board, load_spec(LEG_EMBEDDED), load_spec(BOARD_INTRINSIC)):
            n, m = sysd.n, sysd.m
            fixed, table = _connection(sysd.structure, sysd.metric)
            assert fixed is None, sysd.name
            field = spray_field(sysd.structure, sysd.metric)
            rng = np.random.default_rng(17)
            for count in (1, 3, 8):
                Z = np.array([np.concatenate([p, rng.uniform(-2.0, 2.0, size=m)])
                              for p in sysd.sample(count, seed=count)])
                expected = []
                for z in Z:
                    values = table(z[:n])
                    G = values[n * m:n * m + m * m].reshape(m, m)
                    K = values[n * m + m * m:].reshape(m * m, m)
                    yy = (z[n:, None] * z[n:]).ravel()
                    expected.append(-np.linalg.solve(G, 0.5 * (yy @ K)))
                expected = np.array(expected)
                assert unsigned(field(0.3, Z)[:, n:]) == unsigned(expected), sysd.name
                for z, row in zip(Z, expected):
                    assert unsigned(field(0.3, z)[n:]) == unsigned(row), sysd.name

    def test_a_singular_metric_through_the_compiled_table(self):
        """A metric of the compiled Koszul table whose LU pivot is exactly 0
        at x = 0.5: the state, a stack holding it second and an integration
        from it all name the point."""
        from algmech import SingularMetricError, load_spec
        from algmech.algebroid import _ExprTable
        from algmech.geometry import _connection

        sysd = load_spec(SINGULAR_AT_HALF)
        assert isinstance(_connection(sysd.structure, sysd.metric)[1], _ExprTable)
        field = spray_field(sysd.structure, sysd.metric)
        message = r"^metric is singular at \[0\.5\]$"
        with pytest.raises(SingularMetricError, match=message):
            field(0.0, np.array([0.5, 1.0, 1.0]))
        with pytest.raises(SingularMetricError, match=message):
            field(0.0, np.array([[0.2, 1.0, 1.0], [0.5, 1.0, 1.0], [0.7, 1.0, -1.0]]))
        traj = integrate(field, TotalPoint([0.5], [1.0, 1.0]), 0.0, 0.1, 1e-2, chart=sysd.chart)
        assert len(traj) == 1 and traj.truncated
        assert traj.reason == "field evaluation failed: metric is singular at [0.5]"


class TestBaseFlowAndLift:
    def test_first_control_flow_moves_straight(self, planar):
        sigma = base_flow(planar.structure, Section.basis(0, 3), [0.0, 0.0, 0.0],
                          0.0, 1.0, 1e-2)
        assert sigma.base[-1] == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)
        assert np.max(np.abs(sigma.base[:, 2])) < 1e-14
        assert sigma.fiber is None

    def test_zero_section_flow_is_constant(self, planar):
        sigma = base_flow(planar.structure, Section.constant([0.0, 0.0, 0.0]),
                          [0.4, -0.2, 0.9], 0.0, 1.0, 1e-1)
        assert np.max(np.abs(sigma.base - sigma.base[0])) == 0.0

    def test_lift_shares_base_samples_exactly(self, planar):
        X = Section.basis(1, 3)
        sigma = base_flow(planar.structure, X, [0.1, 0.2, 0.3], 0.0, 1.0, 1e-2)
        traj = lift(X, sigma)
        assert np.array_equal(traj.base, sigma.base)
        assert np.array_equal(traj.times, sigma.times)

    def test_zero_section_lift_has_zero_fiber(self, planar):
        zero = Section.constant([0.0, 0.0, 0.0])
        sigma = base_flow(planar.structure, zero, [0.1, 0.2, 0.3], 0.0, 0.5, 1e-1)
        traj = lift(zero, sigma)
        assert np.max(np.abs(traj.fiber)) == 0.0

    def test_forced_equation_equivalence_for_sections(self, planar):
        """A section whose self covariant derivative matches the force lifts to
        a solution of the forced equation; dropping the force breaks it."""
        from algmech import covariant_derivative, covariant_derivative_along

        S, Gm = planar.structure, planar.metric
        X = Section.basis(1, 3)
        F = ForceField.from_section(Section.basis(0, 3))
        p = np.array([0.3, -0.2, 0.7])
        section_residual = covariant_derivative(S, Gm, X, X, p) - F(p, X(p))
        assert np.max(np.abs(section_residual)) < 1e-10

        sigma = base_flow(S, X, [0.1, 0.2, 0.3], 0.0, 1.5, 1e-2)
        traj = lift(X, sigma)
        with_force, without_force = 0.0, 0.0
        for k in range(1, len(traj) - 1, 5):
            value = covariant_derivative_along(S, Gm, traj, traj.fiber, traj.times[k])
            with_force = max(with_force, float(np.max(np.abs(value - F(traj.base[k], traj.fiber[k])))))
            without_force = max(without_force, float(np.max(np.abs(value))))
        assert with_force < 1e-3
        assert without_force > 0.5


class TestEnergy:
    def test_flat_value(self, flat2):
        value = energy(flat2.structure, flat2.metric, None,
                       TotalPoint([0.0, 0.0], [3.0, 4.0]))
        assert value == pytest.approx(12.5)

    def test_planar_first_control_energy(self, planar):
        value = energy(planar.structure, planar.metric, None,
                       TotalPoint([0.2, -0.1, 0.5], [1.0, 0.0, 0.0]))
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_potential_contributes(self, flat2):
        V = Potential.from_expr("x1^2", flat2.coords)
        value = energy(flat2.structure, flat2.metric, V, TotalPoint([2.0, 0.0], [0.0, 0.0]))
        assert value == pytest.approx(4.0)

    def test_conserved_along_cheap_geodesics(self, planar, flat2, top):
        """Full five-system sweep at acceptance settings lives in the
        acceptance module; this covers the constant-coefficient systems."""
        for sysd, q0 in ((planar, TotalPoint([0.1, 0.2, 0.3], [0.3, 0.2, -0.1])),
                         (flat2, TotalPoint([0.0, 0.0], [1.0, -0.5])),
                         (top, TotalPoint(np.zeros(0), [0.3, 0.4, 0.2]))):
            field = spray_field(sysd.structure, sysd.metric)
            traj = integrate(field, q0, 0.0, 2.0, 1e-3)
            E = [energy(sysd.structure, sysd.metric, None, (traj.base[k], traj.fiber[k]))
                 for k in range(0, len(traj), 37)]
            assert max(E) - min(E) < 1e-9


def koszul_field(S, Gm):
    """The spray evaluated from the numeric Koszul assembly, as every pair
    was evaluated before the compiled table: the reference of its tests."""
    from algmech.geometry import _koszul

    n, m = S.n, S.m

    def field(t, z):
        x, y = z[:n], z[n:]
        A, G, K = _koszul(S, Gm, x)
        acc = np.linalg.solve(G, 0.5 * (np.outer(y, y).ravel() @ K.reshape(m * m, m)))
        return np.concatenate([(S.anchor(x) if A is None else A).T @ y, -acc])

    return field


# Documents beside the builtins whose spray takes the compiled table: the
# leg's frame embedded in R^3 with a moving ambient metric, and an intrinsic
# snakeboard whose metric and structure functions move with phi.
LEG_EMBEDDED = {
    "name": "leg_embedded", "parameters": {"m": 1.3, "J": 0.7}, "base": ["r", "theta", "psi"],
    "fiber": 3, "mode": "embedded",
    "ambient": {"metric": [["m", "0", "0"], ["0", "m*r^2", "0"], ["0", "0", "J"]]},
    "distribution": [["0", "1/(m*r^2)", "-1/J"], ["1/m", "0", "0"], ["0", "1", "1"]],
    "chart": {"box": {"r": [0.5, 3.0], "theta": [-3.15, 3.15], "psi": [-3.15, 3.15]}},
}
BOARD_INTRINSIC = {
    "name": "board_intrinsic", "base": ["x", "y", "theta", "psi", "phi"], "fiber": 3,
    "mode": "intrinsic",
    "anchor": [["cos(phi)*cos(theta)", "cos(phi)*sin(theta)", "-sin(phi)", "0", "0"],
               ["0", "0", "-sin(phi)^2/(4 + 2*sin(phi)^2)", "1", "0"],
               ["0", "0", "0", "0", "1"]],
    "structure": {"1,1,3": "-2*sin(phi)*cos(phi)/(4 + 2*sin(phi)^2)",
                  "2,1,3": "4*cos(phi)/(4 + sin(phi)^2)"},
    "metric": [["4 + 2*sin(phi)^2", "0", "0"], ["0", "(4 + sin(phi)^2)/(4 + 2*sin(phi)^2)", "0"],
               ["0", "0", "2"]],
    "chart": {"box": {"x": [-5.0, 5.0], "y": [-5.0, 5.0], "theta": [-3.15, 3.15],
                      "psi": [-3.15, 3.15], "phi": [-1.4, 1.4]}},
}

# A metric whose LU factorisation has an exact zero pivot at x = 0.5:
# G = [[1, x], [x, x^2 + (x - 0.5)^2]] is [[1, 0.5], [0.5, 0.25]] there.
SINGULAR_AT_HALF = {
    "name": "singular_at_half", "mode": "intrinsic", "base": ["x"], "fiber": 2,
    "anchor": [["1"], ["0"]], "metric": [["1", "x"], ["x", "x^2 + (x - 0.5)^2"]],
    "chart": {"box": {"x": [-1, 2]}},
}


class TestKoszulTable:
    """The compiled Koszul table of a pair of expression tables against the
    numeric assembly ``geometry._koszul`` it replaces in the spray."""

    def test_entries_match_the_numeric_assembly(self, all_builtins, unicycle):
        """The anchor bitwise, the metric bitwise (an induced Gram matrix to
        a few ulps: the numeric one is a BLAS product) and K to 1e-14 of its
        scale, at chart samples."""
        from algmech import load_spec
        from algmech.geometry import _koszul, _koszul_table

        systems = all_builtins + [unicycle, load_spec(LEG_EMBEDDED), load_spec(BOARD_INTRINSIC)]
        for sysd in systems:
            S, Gm, n, m = sysd.structure, sysd.metric, sysd.n, sysd.m
            table = _koszul_table(S, Gm)
            for p in sysd.sample(20, seed=43):
                values = table(p)
                A, G, K = _koszul(S, Gm, p)
                A = S.anchor(p) if A is None else A
                assert np.array_equal(values[:n * m].reshape(m, n), A), sysd.name
                metric = values[n * m:n * m + m * m].reshape(m, m)
                if sysd.mode == "intrinsic":
                    assert np.array_equal(metric, G), sysd.name
                else:
                    assert np.max(np.abs(metric - G)) <= 4e-16 * np.max(np.abs(G)), sysd.name
                scale = max(np.max(np.abs(K)), 1.0)
                assert np.max(np.abs(values[n * m + m * m:].reshape(m, m, m) - K)) <= 1e-14 * scale

    def test_benchmark_geodesics_match_the_numeric_assembly(self, leg, board):
        """Geodesics from the benchmark's seeded start states, 0-2."""
        starts = {"robotic_leg": ([1.5, 0.3, -0.2], [0.2, 0.05, 0.1], 400),
                  "snakeboard": ([0.0, 0.0, 0.2, 0.1, 0.3], [0.15, 0.1, 0.05], 60)}
        for seed in range(3):
            rng = np.random.default_rng([seed, 1])
            rng.uniform(-0.1, 0.1, size=3), rng.uniform(0.8, 1.2, size=3)  # planar_body's draws
            for sysd in (leg, board):
                base, fiber, steps = starts[sysd.name]
                base = np.array(base) + rng.uniform(-0.1, 0.1, size=len(base))
                fiber = np.array(fiber) * rng.uniform(0.8, 1.2, size=len(fiber))
                args = (TotalPoint(base, fiber), 0.0, steps * 1e-3, 1e-3)
                traj = integrate(spray_field(sysd.structure, sysd.metric), *args, chart=sysd.chart)
                ref = integrate(koszul_field(sysd.structure, sysd.metric), *args, chart=sysd.chart)
                assert not traj.truncated and len(traj) == steps + 1
                for a, b in ((traj.base, ref.base), (traj.fiber, ref.fiber)):
                    assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b))

    def test_truncations_match_the_numeric_assembly(self):
        """A metric that is not finite, a kink of the metric and a domain
        error along the path stop at the same step, for the same reason."""
        from algmech import AlgebroidStructure, BundleMetric, load_spec

        def line(metric, lo=-1.0):
            return load_spec({"name": "line", "base": ["x"], "fiber": 1, "mode": "intrinsic",
                              "anchor": [["1"]], "metric": [[metric]],
                              "chart": {"box": {"x": [lo, 1.0]}}})

        S = AlgebroidStructure.from_exprs(("x",), 1, [["1"]], {})
        # 1e308*10 is inf: this metric reads NaN at x = 0 and inf elsewhere.
        infinite = BundleMetric.from_exprs([["1 + 1e308*10*x*x"]], ("x",), probe_points=[])
        kinked, rooted = line("1 + abs(x)"), line("1 + sqrt(x)", 0.0)
        cases = [(S, infinite, [0.0], "metric is singular at [0.]", 1),
                 (S, infinite, [0.2], "metric is singular at [0.2]", 1),
                 (kinked.structure, kinked.metric, [0.0], "abs is not differentiable at 0", 1),
                 (rooted.structure, rooted.metric, [0.5], "sqrt of a negative value", 10)]
        for S_, Gm, base, reason, count in cases:
            args = (TotalPoint(base, [1.0 if count == 1 else -1.0]), 0.0, 2.0, 0.05)
            traj = integrate(spray_field(S_, Gm), *args)
            ref = integrate(koszul_field(S_, Gm), *args)
            assert traj.truncated and traj.reason == f"field evaluation failed: {reason}"
            assert (len(traj), traj.reason) == (count, ref.reason) and len(ref) == count
            assert np.array_equal(traj.fiber, ref.fiber)

    def test_opaque_callables_take_the_numeric_assembly(self, leg, unicycle, monkeypatch):
        from algmech import AlgebroidStructure, BundleMetric, geometry
        from algmech.geometry import _koszul, _koszul_table

        calls = []
        monkeypatch.setattr(geometry, "_koszul", lambda *args: calls.append(1) or _koszul(*args))
        S, Gm = leg.structure, leg.metric
        opaque = [(AlgebroidStructure(leg.coords, 3, S.anchor, lambda x: S.structure(x)), Gm, leg),
                  (S, BundleMetric(lambda x: Gm.matrix(x), 3), leg),
                  (*opaque_frame_system(unicycle), unicycle)]
        for S_, Gm_, sysd in opaque:
            assert _koszul_table(S_, Gm_) is None
            calls.clear()
            spray_field(S_, Gm_)(0.0, np.concatenate([sysd.center(), np.linspace(0.3, -0.2, S_.m)]))
            assert calls == [1]
        calls.clear()
        spray_field(S, Gm)(0.0, np.concatenate([leg.center(), [0.3, 0.1, -0.2]]))
        assert calls == []

    def test_loading_builds_no_table(self, monkeypatch, tmp_path):
        """Loading a document and its Christoffel table, in process and from
        the command line, never builds a Koszul table."""
        import contextlib
        import io
        import json

        from algmech import cli, dump_spec, geometry, load_spec, report, robotic_leg, snakeboard

        def refuse(S, Gm):
            raise AssertionError("a Koszul table was built")

        monkeypatch.setattr(geometry, "_symbolic_terms", refuse)
        for document in (dump_spec(robotic_leg()), dump_spec(snakeboard())):
            sysdef = load_spec(document)
            report.christoffel_table(sysdef)
            assert sysdef.structure._connection is None
            path = tmp_path / "system.json"
            path.write_text(json.dumps(document))
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["christoffel", "--system", str(path), "--format", "json"]) == 0

    def test_threads_racing_on_the_first_spray(self):
        """More threads than cores that build the connection of a fresh pair
        at once, with a short switch interval, get equal fields, and the
        pair keeps one connection that gives the same: the compiled table
        of the snakeboard, the fixed tensor of the planar body."""
        import os
        import sys
        import threading

        from algmech import planar_body, snakeboard

        for sysd, z in ((snakeboard(), np.array([0.1, -0.2, 0.2, 0.1, 0.3, 0.15, 0.1, 0.05])),
                        (planar_body(), np.array([0.1, -0.2, 0.3, 0.3, 0.2, -0.1]))):
            count = min((os.cpu_count() or 1) + 1, 16)
            barrier = threading.Barrier(count, timeout=30)
            out = [None] * count

            def first_spray(k):
                barrier.wait()
                out[k] = spray_field(sysd.structure, sysd.metric)(0.0, z)

            threads = [threading.Thread(target=first_spray, args=(k,)) for k in range(count)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert all(np.array_equal(field, out[0]) for field in out)
            assert sysd.structure._connection[0] is sysd.metric
            assert np.array_equal(out[0], spray_field(sysd.structure, sysd.metric)(0.0, z))

    def test_a_fixed_pair_computes_its_tensor_once(self, monkeypatch):
        """A planar_body battery calls ``christoffel`` twice, once for its
        Christoffel table and once for the pair's fixed tensor, which every
        check then reads; a second battery calls it for the table alone."""
        from algmech import geometry, planar_body, report

        calls = []
        original = geometry.christoffel

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(geometry, "christoffel", counted)
        monkeypatch.setattr(report, "christoffel", counted)
        sysd = planar_body()
        report.run_battery(sysd, seed=0)
        assert len(calls) == 2
        calls.clear()
        report.run_battery(sysd, seed=0)
        assert len(calls) == 1
