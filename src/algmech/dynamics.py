"""Geodesic spray with optional force and controls, fixed-step integration.

All integration is classical fixed-step RK4; deterministic goldens matter more
here than adaptive accuracy.  Fields evaluate on the total space packed as
``z = [x, y]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np
# Private: the spray's solve calls the gufuncs solve and solve1 directly,
# under an error state built once and set in numpy 2's context variable, as
# np.errstate sets it.  pyproject asks for numpy>=2.0,<3, and
# tests/test_dynamics.py checks the solve bitwise against np.linalg.solve
# and the caller's error state after it.
from numpy._core.umath import _extobj_contextvar, _make_extobj
from numpy.linalg import _umath_linalg

from .algebroid import (AlgebroidStructure, ChartDomain, Section, Trajectory, _as_expr, _at_points,
                        _ExprTable)
from .expr import EvalError
from .geometry import (BundleMetric, ForceField, Potential, SingularMetricError, _connection,
                       _finite, _singular)

__all__ = [
    "TotalPoint",
    "ControlSignal",
    "spray_field",
    "integrate",
    "base_flow",
    "lift",
    "energy",
]


@dataclass(frozen=True)
class TotalPoint:
    """A point of the total space: base coordinates plus fiber coefficients."""

    base: np.ndarray
    fiber: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "base", np.asarray(self.base, dtype=float).reshape(-1))
        object.__setattr__(self, "fiber", np.asarray(self.fiber, dtype=float).reshape(-1))

    def packed(self) -> np.ndarray:
        return np.concatenate([self.base, self.fiber])


def _unpack(q, n: int, m: int):
    if isinstance(q, TotalPoint):
        x, y = q.base, q.fiber
    else:
        x, y = (np.asarray(q[0], dtype=float).reshape(-1),
                np.asarray(q[1], dtype=float).reshape(-1))
    if x.size != n or y.size != m:
        raise ValueError(f"total point has shape ({x.size},{y.size}), expected ({n},{m})")
    return x, y


class ControlSignal:
    """Control coefficient functions, time-driven or state-feedback.

    Each coefficient is an expression over the base coordinates, plus the
    time variable ``t`` in time-driven mode.  State-feedback signals may not
    reference ``t``.
    """

    TIME_DRIVEN = "time-driven"
    STATE_FEEDBACK = "state-feedback"

    def __init__(self, entries: Sequence, coords, params=None, mode: str = STATE_FEEDBACK):
        if mode not in (self.TIME_DRIVEN, self.STATE_FEEDBACK):
            raise ValueError(f"unknown control mode {mode!r}")
        self.mode = mode
        self.coords = tuple(coords)
        names = self.coords + (("t",) if mode == self.TIME_DRIVEN else ())
        exprs = [_as_expr(e) for e in entries]
        # Checked before the table is built, whose own check would only call t unknown.
        if mode == self.STATE_FEEDBACK:
            for e in exprs:
                if "t" in e.variables() and "t" not in self.coords:
                    raise ValueError("state-feedback controls may not reference t")
        self._table = _ExprTable(exprs, (len(exprs),), names, params or {}, "controls")
        self.k = len(exprs)

    def __call__(self, t: float, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.mode == self.TIME_DRIVEN:
            return self._table(np.concatenate([x, [float(t)]]))
        return self._table(x)


def _raise_singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


# The error state of np.linalg.solve, built once: np.errstate builds it anew
# on every entry, which costs more than the gufunc.  Setting it binds it to
# the current context only, as np.errstate does, so threads do not share it.
# Its buffer size, which the solve does not read, is the one at import.
_SOLVE_ERRORS = _make_extobj(call=_raise_singular, invalid="call", over="ignore",
                             divide="ignore", under="ignore")


def _solve(G, b):
    """``np.linalg.solve(G, b)`` of float arrays, bitwise: its LAPACK gufunc
    under its error state, without its checks and conversions, which cost
    several times the solve of a spray's small metric.  A singular ``G``
    raises ``LinAlgError``; no warning escapes, and the caller's error state
    is back in place on return."""
    gufunc = _umath_linalg.solve1 if b.ndim == 1 else _umath_linalg.solve
    token = _extobj_contextvar.set(_SOLVE_ERRORS)
    try:
        return gufunc(G, b, signature="dd->d")
    finally:
        _extobj_contextvar.reset(token)


def spray_field(S: AlgebroidStructure, Gm: BundleMetric, force: Optional[ForceField] = None,
                inputs: Sequence[Section] = (), signal: Optional[ControlSignal] = None) -> Callable:
    """Packed field ``(t, z) -> dz`` on the total space.

    The base part is the anchored velocity; the fiber part is minus the
    Christoffel quadratic form, plus the vertical force term when ``force`` is
    given, plus ``sum_k u_k(t, x) Y_k(x)`` over the input sections when a
    control ``signal`` is given.  The signal must have one coefficient per
    input section.

    The connection is the pair's one source, ``geometry._connection``: a
    fixed tensor, whose quadratic form ``-gamma(y, y)`` is a compiled
    expression table over the fiber, kept with the tensor and bitwise
    ``np.einsum("cab,a,b->c", -gamma, y, y)``; or the flat anchor, metric
    and lowered Koszul tensor ``K`` at ``x``, from which each evaluation
    solves ``G a = K(y, y) / 2`` for the quadratic form ``a = gamma(y, y)``,
    with no Christoffel tensor; a singular or non-finite metric raises
    ``SingularMetricError``.

    The field takes a state ``(d,)`` or a stack ``(N, d)`` of states, for
    which it returns the ``(N, d)`` stack of the fields there, bitwise the
    field at each state.  A stack without force or controls makes one
    stacked evaluation: of a fixed pair, one anchor call at every state,
    one call of the form's table and one anchor product; of any other
    pair, one call of the compiled Koszul table at every state (or one
    numeric assembly per state of an opaque pair), one contraction, solve
    and anchor product.  Every other stack is evaluated state by state, as
    is a stack where an evaluation fails, so the error is the one its first
    failing state raises.  The field's ``fiber_rank`` is ``S.m``; it is
    integrated only with that rank.
    """
    inputs = tuple(inputs)
    coefficients = signal.k if signal is not None else 0
    if coefficients != len(inputs):
        raise ValueError(f"control signal has {coefficients} coefficient(s) "
                         f"for {len(inputs)} input section(s)")
    n, m = S.n, S.m
    fixed, table = _connection(S, Gm)
    if fixed is not None:
        # table is y -> -gamma(y, y), bitwise -einsum(gamma, y, y)
        def spray(x, y):
            dx = S.anchor(x).T @ y if n else np.zeros(0)
            return dx, table(y)

        def spray_stack(z):
            # One stacked anchor call, table call and anchor product, each
            # bitwise the product of spray at every state
            y = z[:, n:]
            dx = (y[:, None, :] @ S.anchor(z[:, :n]))[:, 0] if n else np.zeros((len(z), 0))
            return np.concatenate([dx, table(y)], axis=1)
    else:
        metric_at, koszul_at = n * m, n * m + m * m

        def spray(x, y):
            # gamma(y, y) = G^-1 (K(y, y) / 2) from the lowered Koszul tensor
            values = table(x)
            G, K = values[metric_at:koszul_at], values[koszul_at:].reshape(m * m, m)
            if not _finite(G):
                raise _singular(x)
            # The solve is odd in its right-hand side, so solving with
            # -K(y, y) / 2 is -solve(G, K(y, y) / 2), bitwise but for the
            # sign of an exact zero.
            try:
                dy = _solve(G.reshape(m, m), -0.5 * ((y[:, None] * y).ravel() @ K))
            except np.linalg.LinAlgError:
                raise _singular(x) from None
            return values[:metric_at].reshape(m, n).T @ y, dy

        def spray_stack(z):
            # The field at a stack of states: one call of the table (one per
            # state of an opaque assembly), then one stacked contraction,
            # solve and anchor product, each bitwise the product of spray at
            # every state
            count = len(z)
            values = _at_points(table, z[:, :n], (koszul_at + m ** 3,), "Koszul values")
            G = values[:, metric_at:koszul_at].reshape(count, m, m)
            if not np.isfinite(G).all():
                raise SingularMetricError("metric is not finite at a stacked point")
            y = z[:, n:]
            yy = (y[:, :, None] * y[:, None, :]).reshape(count, 1, m * m)
            K = values[:, koszul_at:].reshape(count, m * m, m)
            dy = _solve(G, (-0.5 * (yy @ K)).transpose(0, 2, 1))[:, :, 0]
            dx = (y[:, None, :] @ values[:, :metric_at].reshape(count, m, n))[:, 0]
            return np.concatenate([dx, dy], axis=1)

    stacked = spray_stack if force is None and not inputs else None

    def field(t, z):
        if getattr(z, "ndim", 1) == 2:
            if stacked is not None and len(z):
                try:
                    return stacked(z)
                except ValueError:  # EvalError, SingularMetricError, LinAlgError
                    pass  # the members one at a time raise at the first one at fault
            return np.array([field(t, row) for row in z]).reshape(z.shape)
        x, y = z[:n], z[n:]
        dx, dy = spray(x, y)
        if force is not None:
            dy += force(x, y)
        if inputs:
            for c, Y in zip(signal(t, x), inputs):
                dy += c * Y(x)
        return np.concatenate([dx, dy])

    field.fiber_rank = m  # integrate rejects a state split another way
    return field


def _steps(t0: float, t1: float, step: float):
    """``(count, h)``: the number of uniform RK4 steps from ``t0`` to ``t1``
    nearest to ``step`` in size, and their size."""
    if not all(map(math.isfinite, (t0, t1, step))):
        raise ValueError(f"t0, t1 and step must be finite, got {t0}, {t1}, {step}")
    if step <= 0:
        raise ValueError("step must be positive")
    if t1 <= t0:
        raise ValueError("t1 must exceed t0")
    count = max(1, int(round((t1 - t0) / step)))
    return count, (t1 - t0) / count


def _fault(values: list, n: int, chart: Optional[ChartDomain], t: float) -> str:
    """Why a state, as a list, ends its trajectory at time ``t``, or "": the
    tests of every step of :func:`_ensemble`.

    Finiteness first: NaN compares false, so the chart contains it.  Python
    floats: at these sizes a fraction of the cost of numpy's tests.
    """
    if not all(map(math.isfinite, values)):
        return f"non-finite state at t={t:g}"
    if chart is not None and not chart.contains(values[:n]):
        return "left the chart domain"
    return ""


def _rk4(field, t: float, z, h: float):
    """One classical RK4 step of a state ``(d,)`` or of a stack ``(N, d)``:
    the step of :func:`_ensemble`, and of its replay of a failing stack."""
    half = h / 2.0
    k1 = field(t, z)
    k2 = field(t + half, z + half * k1)
    k3 = field(t + half, z + half * k2)
    k4 = field(t + h, z + h * k3)
    return z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(field: Callable, q0, t0: float, t1: float, step: float,
              chart: Optional[ChartDomain] = None, fiber_rank: Optional[int] = None):
    """Classical fixed-step RK4 from ``t0`` to ``t1`` of one state, or of a
    stack of them.

    The interval is split into uniform steps of (approximately) the requested
    size.  If a sample is not finite, leaves the chart box or hits an
    exclusion, or if the field raises an evaluation error, integration stops
    and the partial trajectory is returned flagged as truncated.

    ``q0`` is a ``TotalPoint``, or a packed state ``(d,)`` with
    ``fiber_rank``; the result is its ``Trajectory``.  A stack, a sequence
    of ``TotalPoint``s or an ``(N, d)`` array of packed states with
    ``fiber_rank``, is integrated as one ensemble and comes back as a list
    of ``Trajectory``s, one per member, each bitwise the trajectory of that
    member on its own.  Every form runs the one loop, :func:`_ensemble`.
    """
    if isinstance(q0, TotalPoint):
        z, m = q0.packed(), q0.fiber.size
    elif isinstance(q0, (list, tuple)) and q0 and all(isinstance(q, TotalPoint) for q in q0):
        if len({(q.base.size, q.fiber.size) for q in q0}) != 1:
            raise ValueError("stacked total points have different shapes")
        z, m = np.array([q.packed() for q in q0]), q0[0].fiber.size
    else:
        if fiber_rank is None:
            raise ValueError("fiber_rank is required for packed initial states")
        z, m = q0, fiber_rank
    return _ensemble(field, z, m, t0, t1, step, chart)


def _ensemble(field: Callable, states, m: int, t0: float, t1: float, step: float,
              chart: Optional[ChartDomain] = None):
    """The RK4 loop of :func:`integrate`: a packed state ``(d,)`` or a stack
    ``(N, d)`` of them with fiber rank ``m``, integrated to the state's
    ``Trajectory`` or to the list of the members' trajectories.  A fiber
    rank that is not an integer in ``[0, d]``, or not the ``fiber_rank`` of
    a field that declares one (every :func:`spray_field` does), and a step
    count whose samples cannot be allocated, raise ``ValueError``.

    A state's field is called with ``(d,)`` arrays only, so a field that
    takes one state serves.  Each RK4 stage of a stack calls ``field`` once
    with the ``(N', d)`` stack of the members still running, so the field
    must take a stack as well as a state (every :func:`spray_field` does),
    and its rows must be bitwise the field at each row.  Each member stops
    on its own, at the step and for the reason its integration on its own
    gives, and keeps its own samples: the finiteness and chart tests of
    :func:`_fault` are made on every member, and where a stage of a stack
    raises an evaluation error the step is replayed one member at a time,
    so only the member at fault stops, with its own error.
    """
    count, h = _steps(t0, t1, step)
    z = np.array(states, dtype=float)
    single = z.ndim != 2
    z = z.reshape(-1) if single else z
    members, d = (1, z.size) if single else z.shape
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or not 0 <= m <= d:
        raise ValueError(f"fiber_rank must be an integer in [0, {d}], got {m!r}")
    if m != getattr(field, "fiber_rank", m):
        raise ValueError(f"fiber_rank {m} does not match the field's fiber rank "
                         f"{field.fiber_rank}")
    if not members:
        return []
    n = d - int(m)
    # Step-major, so a step of every running member is one write, by a basic
    # index until a member stops.
    try:
        samples = np.empty((count + 1,) + z.shape)
    except (MemoryError, ValueError):  # numpy's ValueError: more than an index can address
        raise ValueError(f"{count} steps of {z.size} value(s) need "
                         f"{(count + 1) * z.size * 8:.3g} bytes of samples, more than "
                         "can be allocated") from None
    samples[0] = z
    live, rows = np.arange(members), Ellipsis  # the members still running, their rows
    kept, reasons = [count + 1] * members, [""] * members

    for k in range(count):
        t = t0 + k * h
        try:
            z = _rk4(field, t, z, h)
        except (EvalError, SingularMetricError) as err:
            if single:
                kept[0], reasons[0] = k + 1, f"field evaluation failed: {err}"
                break
            running, stepped = [], []
            for i, state in zip(live.tolist(), z):
                try:
                    stepped.append(_rk4(field, t, state, h))
                    running.append(i)
                except (EvalError, SingularMetricError) as failure:
                    kept[i], reasons[i] = k + 1, f"field evaluation failed: {failure}"
            if not running:
                break
            live = rows = np.array(running)
            z = np.array(stepped)
        values = z.tolist()
        faults = ([_fault(values, n, chart, t + h)] if single
                  else [_fault(row, n, chart, t + h) for row in values])
        if any(faults):
            for i, fault in zip(live.tolist(), faults):
                if fault:
                    kept[i], reasons[i] = k + 1, fault
            fine = [not fault for fault in faults]
            if not any(fine):
                break
            live = rows = live[fine]
            z = z[fine]
        samples[k + 1, rows] = z

    out, by_member = [], samples.reshape(count + 1, members, d)
    for i in range(members):
        # A member that stopped, or one of several, keeps a copy of its
        # samples, not a view of the whole buffer.
        own = by_member[:kept[i], i]
        if reasons[i] or members > 1:
            own = own.copy()
        out.append(Trajectory(t0 + np.arange(kept[i]) * h, own[:, :n], own[:, n:], step=h,
                              truncated=bool(reasons[i]), reason=reasons[i]))
    return out[0] if single else out


def base_flow(S, X: Section, p0, t0: float, t1: float, step: float,
              chart: Optional[ChartDomain] = None) -> Trajectory:
    """Integral curve of the anchored vector field of ``X`` on the base."""
    p0 = S.check_point(p0)
    anchored = S.anchored_field(X)
    traj = integrate(lambda t, z: anchored(z), np.asarray(p0), t0, t1, step,
                     chart=chart, fiber_rank=0)
    return replace(traj, fiber=None)


def lift(X: Section, sigma: Trajectory) -> Trajectory:
    """Compose a base trajectory with a section: admissible by construction.
    The section is evaluated at the stack of base samples in one call (one
    per sample of a section of an opaque function)."""
    return replace(sigma, fiber=X(sigma.base))


def energy(S, Gm, V: Optional[Potential], q) -> float:
    """Mechanical energy ``G(y, y)/2 + V(x)``; conserved along unforced geodesics."""
    x, y = _unpack(q, S.n, S.m)
    kinetic = 0.5 * float(y @ Gm.matrix(x) @ y)
    return kinetic + (V(x) if V is not None else 0.0)
