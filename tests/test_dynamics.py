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
                      step=h, integrator="rk4", truncated=truncated, reason=reason)


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
