"""Geodesic spray with optional force and controls, fixed-step integration.

All integration is classical fixed-step RK4; deterministic goldens matter more
here than adaptive accuracy.  Fields evaluate on the total space packed as
``z = [x, y]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .algebroid import AlgebroidStructure, ChartDomain, Section, Trajectory, _as_expr, _ExprTable
from .expr import EvalError
from .geometry import (BundleMetric, ForceField, Potential, SingularMetricError, _finite,
                       _fixed_coefficients, _koszul, _koszul_table, _singular, christoffel_field)

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


def spray_field(S: AlgebroidStructure, Gm: BundleMetric, force: Optional[ForceField] = None,
                inputs: Sequence[Section] = (), signal: Optional[ControlSignal] = None) -> Callable:
    """Packed field ``(t, z) -> dz`` on the total space.

    The base part is the anchored velocity; the fiber part is minus the
    Christoffel quadratic form, plus the vertical force term when ``force`` is
    given, plus ``sum_k u_k(t, x) Y_k(x)`` over the input sections when a
    control ``signal`` is given.  The signal must have one coefficient per
    input section.

    Coordinate-free coefficients are computed once
    (:func:`geometry.christoffel_field`).  Otherwise each evaluation reads
    the anchor, the metric and the lowered Koszul tensor ``K`` once and
    solves ``G a = K(y, y) / 2`` for the quadratic form ``a = gamma(y,
    y)``, with no Christoffel tensor; a singular or non-finite metric raises
    ``SingularMetricError``.  When the anchor, the structure and the metric
    are expression tables (every loaded document), all three come from one
    call of the pair's compiled Koszul table (``geometry._koszul_table``),
    built on the pair's first field; otherwise from ``geometry._koszul``.
    """
    inputs = tuple(inputs)
    coefficients = signal.k if signal is not None else 0
    if coefficients != len(inputs):
        raise ValueError(f"control signal has {coefficients} coefficient(s) "
                         f"for {len(inputs)} input section(s)")
    n, m = S.n, S.m
    fixed = _fixed_coefficients(S, Gm)
    table = None if fixed else _koszul_table(S, Gm)
    if fixed:
        # Negation is exact, so this is bitwise -einsum(gamma, y, y).
        minus_gamma = -christoffel_field(S, Gm)(np.zeros(n))

        def spray(x, y):
            dx = S.anchor(x).T @ y if n else np.zeros(0)
            return dx, np.einsum("cab,a,b->c", minus_gamma, y, y)
    elif table is None:
        def spray(x, y):
            # gamma(y, y) = G^-1 (K(y, y) / 2) from the lowered Koszul tensor
            A, G, K = _koszul(S, Gm, x)
            try:
                acc = np.linalg.solve(G, 0.5 * (np.outer(y, y).ravel() @ K.reshape(m * m, m)))
            except np.linalg.LinAlgError:
                raise _singular(x) from None
            return (S.anchor(x) if A is None else A).T @ y, -acc
    else:
        metric_at, koszul_at = n * m, n * m + m * m

        def spray(x, y):
            # The same solve, with A, G and K from one call of the compiled table
            values = table(x)
            G, K = values[metric_at:koszul_at], values[koszul_at:].reshape(m * m, m)
            if not _finite(G):
                raise _singular(x)
            try:
                acc = np.linalg.solve(G.reshape(m, m), 0.5 * ((y[:, None] * y).ravel() @ K))
            except np.linalg.LinAlgError:
                raise _singular(x) from None
            return values[:metric_at].reshape(m, n).T @ y, -acc

    def field(t, z):
        x, y = z[:n], z[n:]
        dx, dy = spray(x, y)
        if force is not None:
            dy += force(x, y)
        if inputs:
            for c, Y in zip(signal(t, x), inputs):
                dy += c * Y(x)
        return np.concatenate([dx, dy])

    return field


def integrate(field: Callable, q0, t0: float, t1: float, step: float,
              chart: Optional[ChartDomain] = None, fiber_rank: Optional[int] = None) -> Trajectory:
    """Classical fixed-step RK4 from ``t0`` to ``t1``.

    The interval is split into uniform steps of (approximately) the requested
    size.  If a sample is not finite, leaves the chart box or hits an
    exclusion, or if the field raises an evaluation error, integration stops
    and the partial trajectory is returned flagged as truncated.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if t1 <= t0:
        raise ValueError("t1 must exceed t0")
    if isinstance(q0, TotalPoint):
        z = q0.packed()
        m = q0.fiber.size
    else:
        z = np.asarray(q0, dtype=float).reshape(-1)
        if fiber_rank is None:
            raise ValueError("fiber_rank is required for packed initial states")
        m = int(fiber_rank)
    n = z.size - m

    count = max(1, int(round((t1 - t0) / step)))
    h = (t1 - t0) / count
    half, sixth = h / 2.0, h / 6.0
    samples = np.empty((count + 1, z.size))
    samples[0] = z
    truncated = False
    reason = ""

    for k in range(count):
        t = t0 + k * h
        try:
            k1 = field(t, z)
            k2 = field(t + half, z + half * k1)
            k3 = field(t + half, z + half * k2)
            k4 = field(t + h, z + h * k3)
        except (EvalError, SingularMetricError) as err:
            truncated, reason = True, f"field evaluation failed: {err}"
            break
        z = z + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        # One list feeds both tests.  Finiteness first: NaN compares false,
        # so the chart contains it.
        values = z.tolist()
        if not all(map(math.isfinite, values)):
            truncated, reason = True, f"non-finite state at t={t + h:g}"
            break
        if chart is not None and not chart.contains(values[:n]):
            truncated, reason = True, "left the chart domain"
            break
        samples[k + 1] = z

    # A truncated run keeps a copy of its samples, not the whole buffer.
    kept = k + 1 if truncated else count + 1
    samples = samples[:kept].copy() if truncated else samples
    return Trajectory(t0 + np.arange(kept) * h, samples[:, :n], samples[:, n:],
                      step=h, integrator="rk4", truncated=truncated, reason=reason)


def base_flow(S, X: Section, p0, t0: float, t1: float, step: float,
              chart: Optional[ChartDomain] = None) -> Trajectory:
    """Integral curve of the anchored vector field of ``X`` on the base."""
    p0 = S.check_point(p0)
    anchored = S.anchored_field(X)
    traj = integrate(lambda t, z: anchored(z), np.asarray(p0), t0, t1, step,
                     chart=chart, fiber_rank=0)
    return Trajectory(traj.times, traj.base, None, step=traj.step,
                      integrator=traj.integrator, truncated=traj.truncated, reason=traj.reason)


def lift(X: Section, sigma: Trajectory) -> Trajectory:
    """Compose a base trajectory with a section: admissible by construction."""
    fiber = np.array([X(x) for x in sigma.base])
    return Trajectory(sigma.times, sigma.base, fiber, step=sigma.step,
                      integrator=sigma.integrator, truncated=sigma.truncated, reason=sigma.reason)


def energy(S, Gm, V: Optional[Potential], q) -> float:
    """Mechanical energy ``G(y, y)/2 + V(x)``; conserved along unforced geodesics."""
    x, y = _unpack(q, S.n, S.m)
    kinetic = 0.5 * float(y @ Gm.matrix(x) @ y)
    return kinetic + (V(x) if V is not None else 0.0)
