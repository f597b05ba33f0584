"""Control distributions, orthogonal projectors and verification predicates.

Everything here is sample-based: predicates sweep a deterministic
low-discrepancy point set inside the chart box, report the worst residual and
a concrete witness on failure, and never claim more than pass-on-samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, combinations_with_replacement
from typing import Optional, Sequence

import numpy as np

from .algebroid import (
    Section,
    _as_scalar_field,
    _span_ranks,
    d_function,
)
from .dynamics import _ensemble, base_flow, energy, lift, spray_field
from .geometry import (
    BundleMetric,
    ForceField,
    Potential,
    _finite,
    christoffel,
    christoffel_field,
    covariant_derivative,
    covariant_derivative_along,
    gradient,
    symmetric_product,
)

__all__ = [
    "Subbundle",
    "Projector",
    "VerificationReport",
    "is_decoupling",
    "kinematic_reduction_check",
    "symmetric_closure",
    "geodesic_invariance_check",
    "maximal_reducibility_check",
    "hj_residual",
    "hj_algebraic_check",
    "hj_trajectory_equivalence",
    "reparam_admissible",
]

DEFAULT_ALGEBRAIC_TOL = 1e-5
DEFAULT_TRAJECTORY_TOL = 1e-3
_RANK_EPS = 1e-8


@dataclass(frozen=True)
class Subbundle:
    """Ordered spanning sections with pointwise rank bookkeeping."""

    sections: tuple
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "sections", tuple(self.sections))
        if not self.sections:
            raise ValueError("a subbundle needs at least one spanning section")
        ranks = {X.rank for X in self.sections}
        if len(ranks) != 1:
            raise ValueError("spanning sections have inconsistent ranks")

    @property
    def rank(self) -> int:
        return len(self.sections)

    @property
    def fiber_rank(self) -> int:
        return self.sections[0].rank

    def matrix(self, p) -> np.ndarray:
        """Evaluated span, one row per section, ``(rank, m)`` at a point; at
        a stack ``(N, n)`` of points their ``(N, rank, m)`` stack, from one
        call of each section with the whole stack (``np.stack`` would cost
        four times as much at a point)."""
        return np.array([X(p) for X in self.sections]).swapaxes(0, -2)

    def validate_rank(self, points) -> None:
        points = np.atleast_2d(points)
        ranks = _span_ranks(self.matrix(points), points)
        if np.any(ranks != self.rank):
            p = points[np.argmax(ranks != self.rank)]
            raise ValueError(f"subbundle {self.label or ''} drops rank at {p}")


class Projector:
    """Metric-orthogonal projectors onto a subbundle and its complement."""

    def __init__(self, subbundle: Subbundle, metric: BundleMetric):
        self.subbundle = subbundle
        self.metric = metric
        self.m = metric.m

    def p_matrix(self, p) -> np.ndarray:
        """The projector onto the span at a point ``p``, ``(m, m)``, or the
        ``(N, m, m)`` stack of them at a stack ``(N, n)`` of points, a point
        being a stack of one: one stacked Gram solve over the points where
        the span and the metric are finite, NaN elsewhere, tested before the
        arithmetic.  The span and the metric are each read in one call with
        the stack (:meth:`Subbundle.matrix`, :meth:`BundleMetric.matrix`):
        one call of each expression table, the induced Gram matrix's frame
        and ambient tables included.  A degenerate span raises
        ``ValueError`` naming its point; a larger stack that fails is re-run
        one point at a time, so the error is the first failing point's.
        """
        points = np.atleast_2d(p)
        count, m = len(points), self.m
        try:
            B, Gs = self.subbundle.matrix(points), self.metric.matrix(points)
            finite = np.isfinite(B).all(axis=(1, 2)) & np.isfinite(Gs).all(axis=(1, 2))
            B, BG = B[finite], B[finite] @ Gs[finite]
            out = np.full((count, m, m), np.nan)
            try:
                out[finite] = B.transpose(0, 2, 1) @ np.linalg.solve(BG @ B.transpose(0, 2, 1), BG)
            except np.linalg.LinAlgError:
                raise ValueError(f"subbundle span is degenerate at {points[0]}") from None
            return out if np.ndim(p) == 2 else out[0]
        except Exception:
            if count == 1:
                raise
        return np.array([self.p_matrix(x) for x in points]).reshape(count, m, m)

    def q_matrix(self, p) -> np.ndarray:
        """The projector onto the metric-orthogonal complement, ``I - P``,
        at a point or a stack of points (see :meth:`p_matrix`)."""
        return np.eye(self.m) - self.p_matrix(p)

    def complement_basis(self, p):
        """Metric-orthonormal basis of the complement at ``p`` (deterministic),
        ``(k, m)``; NaN rows where the span or the metric is not finite
        there.  At a stack ``(N, n)`` of points, the ``(rows, counts)`` of
        :func:`_orthonormal_complement`, from one call each of the metric
        and the span."""
        return _orthonormal_complement(self.metric.matrix(p), self.subbundle.matrix(p), p)

    def declared_complement_residual(self, declared: Sequence[Section], points) -> float:
        """Worst projection of declared complement sections back onto the
        span, relative to their metric norms, with all points projected in
        one stacked call; NaN where a value of a section or of the metric is
        not finite, tested before the arithmetic.  Each value is scaled by a
        power of two to entries below one, exactly: the residual does not
        depend on the scale, and a huge value's norm then cannot overflow.
        """
        points = np.atleast_2d(points)
        P = self.p_matrix(points)
        G = self.metric.matrix(points)
        W = np.stack([Wk(points) for Wk in declared], axis=1)
        if not (np.isfinite(W).all() and np.isfinite(G).all()):
            return math.nan
        W = np.ldexp(W, -np.frexp(np.abs(W).max(axis=2, keepdims=True))[1])
        norms = np.sqrt(np.maximum(np.einsum("nkm,nkm->nk", W @ G, W), 1e-30))
        return float(np.max(np.abs(W @ P.transpose(0, 2, 1)).max(axis=2) / norms, initial=0.0))


def _orthonormal_complement(G: np.ndarray, span: np.ndarray, p):
    """Rows of a ``G``-orthonormal basis of the ``G``-orthogonal complement of
    the rows of ``span`` (``(0, m)`` for all directions), ``(k, m)`` at a
    point ``p``.  At a stack (``G`` of shape ``(N, m, m)``, ``span`` of shape
    ``(N, r, m)``, ``p`` the ``(N, n)`` points), the pair ``(rows, counts)``
    of ``(N, m, m)`` slots and ``(N,)`` counts: point ``i``'s basis is
    ``rows[i, :counts[i]]``, and the slots after it are zero.  A point is a
    stack of one.

    Gram-Schmidt under ``G`` seeded with the span, then extended by the
    canonical fiber directions; the span part is discarded.  Every point
    pushes the same vectors in turn, into a basis slot per point, and counts
    the pushes it accepts.  Each product is a stacked ``matmul`` of the
    shapes a single point's products have, so every row is bitwise that
    point's.  Where ``G`` or the span is not finite, tested before the
    arithmetic, the rows are NaN, one per complement direction.  A
    degenerate span raises ``ValueError`` naming the first point where it is.
    """
    if np.ndim(G) == 2:
        rows, counts = _orthonormal_complement(G[None], span[None], np.asarray(p)[None])
        return rows[0, :counts[0]]
    count, r, m = np.shape(span)
    k = max(m - r, 0)
    finite = np.isfinite(G).all(axis=(1, 2)) & np.isfinite(span).all(axis=(1, 2))
    rows, counts = np.zeros((count, m, m)), np.full(count, k)
    rows[~finite, :k] = np.nan
    G, span = G[finite], span[finite]
    basis, size = np.zeros((len(G), r + m, m)), np.zeros(len(G), dtype=int)

    def push(v):
        v = v.astype(float)
        # Every point has its first size.min() slots; only the later ones
        # need the mask (a point, a stack of one, never does).
        every = size.min(initial=0)
        for j in range(size.max(initial=0)):
            b = basis[:, j]
            projected = v - (b[:, None] @ G @ v[:, :, None])[:, 0] * b
            v = projected if j < every else np.where((size > j)[:, None], projected, v)
        norm_sq = (v[:, None] @ G @ v[:, :, None])[:, 0, 0]
        accept = norm_sq > _RANK_EPS ** 2
        basis[accept, size[accept]] = v[accept] / np.sqrt(norm_sq[accept])[:, None]
        size[accept] += 1

    for i in range(r):
        push(span[:, i])
    if (size != r).any():
        at = np.flatnonzero(finite)[np.argmax(size != r)]
        raise ValueError(f"subbundle span is degenerate at {np.asarray(p)[at]}")
    for unit in np.eye(m):
        push(np.broadcast_to(unit, (len(G), m)))
    rows[finite], counts[finite] = basis[:, r:], size - r
    return rows, counts


@dataclass
class VerificationReport:
    """Outcome of one sample-based predicate."""

    predicate: str
    verdict: str
    worst_residual: float
    witness_point: Optional[np.ndarray]
    samples: int
    tolerance: float
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.verdict not in ("pass", "fail", "inconclusive"):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == "pass" and not self.worst_residual <= self.tolerance:
            raise ValueError("pass verdict with residual above tolerance or not finite")
        if self.verdict == "fail" and self.witness_point is None:
            raise ValueError("fail verdict requires a witness point")

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        """The report as plain data for strict JSON: a non-finite number,
        which ``details["inconclusive_reason"]`` names, is written as None."""
        doc = {
            "predicate": self.predicate,
            "verdict": self.verdict,
            "worst_residual": self.worst_residual,
            "witness_point": None if self.witness_point is None else list(map(float, self.witness_point)),
            "samples": self.samples,
            "tolerance": self.tolerance,
        }
        if self.details:
            doc["details"] = self.details
        return _finite_or_none(doc)


def _finite_or_none(value):
    """``value`` with every non-finite float, at any depth of dicts, lists
    and tuples, replaced by None."""
    if isinstance(value, dict):
        return {key: _finite_or_none(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_finite_or_none(item) for item in value)
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _max(a, b):
    """``max(a, b)`` that keeps a NaN on either side; ``max`` drops one in ``b``."""
    return a if a > b or a != a else b


def _worst_of(pairs):
    """The largest residual of ``(residual, point)`` pairs and its point, or
    the first residual that is not finite and its point, where the scan
    stops: a NaN never compares larger, so ``>`` alone would drop it."""
    worst, witness = -1.0, None
    for value, p in pairs:
        value = float(value)
        if not math.isfinite(value):
            return value, p
        if value > worst:
            worst, witness = value, p
    return worst, witness


def _stacked_sweep(points, residuals):
    """Worst residual and its witness over a point sweep (see :func:`_worst_of`),
    where ``residuals(ks)`` evaluates its stacked terms (projectors,
    Christoffel tensors, Hamilton-Jacobi residuals) at the points
    ``points[ks]`` of an index array in one call each and returns the
    residuals there, as an array or lazily.

    Where that evaluation raises, the sweep takes one point at a time, as a
    pointwise sweep does: it stops at its first non-finite residual and
    raises only at a point it reaches, with the error raised there.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    try:
        values = residuals(np.arange(len(points)))
    except Exception:
        # Whatever was raised: the replay raises it again if, and where, the
        # pointwise sweep reaches it.
        values = (r for k in range(len(points)) for r in residuals(np.array([k])))
    return _worst_of(zip(values, points))


def _sweep(points, residual, *stacked):
    """The :func:`_stacked_sweep` of ``residual(p, *values)`` over the
    points, where ``values`` are those at ``p`` of the ``stacked``
    evaluators, each called once with the stack of points (a projector's
    ``q_matrix``, a ``christoffel_field`` evaluator).  The residuals are
    computed lazily, one point at a time."""
    points = np.atleast_2d(np.asarray(points, dtype=float))

    def residuals(ks):
        xs = points[ks]
        return map(residual, xs, *(f(xs) for f in stacked))

    return _stacked_sweep(points, residuals)


def _check_tolerances(**tolerances) -> None:
    """Reject, before any sweep, a tolerance no verdict can be judged by:
    each must be finite and at least 0, else ``ValueError`` names its
    argument.  An infinite one would pass any finite residual, a negative
    one fail a zero residual, and NaN pass nothing."""
    for name, value in tolerances.items():
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be finite and non-negative, got {value!r}")


def _report(predicate, worst, witness, count, tol, details=None, hypothesis=None,
            route=None) -> VerificationReport:
    """The one verdict rule: the report of ``worst``, found at ``witness``,
    against ``tol``.

    ``hypothesis`` and ``route`` are further ``(residual, point, tolerance)``
    measurements.  The predicate says nothing where its hypothesis fails, so
    a hypothesis above its tolerance makes the verdict inconclusive; a route
    is a second test of the predicate, which fails above its tolerance.  A
    residual that is not finite shows nothing: the first one, taking the
    hypothesis, the report's own and the route in turn, makes the verdict
    inconclusive, and ``details`` gets the reason and its point.  The
    witness is the point of the measurement that decided the verdict; a
    failed hypothesis keeps the report's own.
    """
    details = dict(details or {})
    own = (worst, witness, tol)
    non_finite = [m for m in (hypothesis, own, route) if m is not None and not math.isfinite(m[0])]
    failed = [m for m in (own, route) if m is not None and m[0] > m[2]]
    if non_finite:
        value, witness, _ = non_finite[0]
        details["inconclusive_reason"] = f"non-finite residual ({value})"
        details["non_finite_point"] = [float(v) for v in witness]
        verdict = "inconclusive"
    elif hypothesis is not None and hypothesis[0] > hypothesis[2]:
        verdict = "inconclusive"
    elif failed:
        verdict, witness = "fail", failed[0][1]
    else:
        verdict, witness = "pass", None
    return VerificationReport(predicate, verdict, float(worst), witness, count, float(tol), details)


def _outside(Q, vectors) -> float:
    """The largest complement component ``|Q v|`` over ``vectors``, or NaN at
    the first vector that is not finite, tested before ``Q @ v`` runs."""
    worst = 0.0
    for v in vectors:
        if not _finite(v):
            return math.nan
        # The array method: np.max dispatches at several times its cost here.
        worst = _max(worst, float(abs(Q @ v).max()))
    return worst


def _outside_each(Q, vectors) -> np.ndarray:
    """:func:`_outside` of one vector per point over stacks: ``|Q[k] v[k]|``,
    or NaN where ``v[k]`` is not finite, tested before the product."""
    finite = np.isfinite(vectors).all(axis=1)
    out = np.full(len(vectors), np.nan)
    out[finite] = np.abs((Q[finite] @ vectors[finite][:, :, None])[:, :, 0]).max(axis=1)
    return out


def _products(S, Gm, spans, p, gamma):
    """The symmetric products ``<A : B>`` at ``p`` of every unordered pair of
    ``spans``, squares included."""
    return (symmetric_product(S, Gm, A, B, p, gamma=gamma)
            for A, B in combinations_with_replacement(spans, 2))


def _containment(predicate, S, Gm, Dc: Subbundle, points, tol, force, probes, residual,
                 details=None) -> VerificationReport:
    """The report of ``predicate`` from the :func:`_sweep` of ``residual(p,
    Q, gamma)``, where ``Q`` is the complement projector of ``Dc`` at ``p``
    and ``gamma`` the Christoffel tensor there.

    A force must lie in ``Dc`` at the zero fiber and at the ``probes``
    sections; where it does not, the predicate's hypothesis fails and the
    report, of that force residual, is inconclusive.
    """
    _check_tolerances(tol=tol)
    q_at = Projector(Dc, Gm).q_matrix
    points = np.atleast_2d(points)
    if force is not None:
        def forced(p, Q):
            return _outside(Q, (force(p, y) for y in [np.zeros(Gm.m)] + [X(p) for X in probes]))

        worst, witness = _sweep(points, forced, q_at)
        if not worst <= tol:
            return _report(predicate, worst, witness, len(points), tol,
                           {"force_complement_residual": worst}, hypothesis=(worst, witness, tol))
    worst, witness = _sweep(points, residual, q_at, christoffel_field(S, Gm))
    return _report(predicate, worst, witness, len(points), tol, details)


def is_decoupling(S, Gm, Dc: Subbundle, X: Section, points, tol=DEFAULT_ALGEBRAIC_TOL,
                  force: Optional[ForceField] = None) -> VerificationReport:
    """Rank-one kinematic-reduction test: the section and its self covariant
    derivative must both project to zero on the control complement.

    When a force is supplied its complement component is checked first; the
    predicate is inconclusive if that hypothesis fails.
    """
    def vectors(p, gamma):
        Xp = X(p)
        yield Xp
        nabla = covariant_derivative(S, Gm, X, X, p, gamma=gamma)
        yield nabla if force is None else nabla - force(p, Xp)

    return _containment("is_decoupling", S, Gm, Dc, points, tol, force, (X,),
                        lambda p, Q, gamma: _outside(Q, vectors(p, gamma)),
                        {"section": X.label} if X.label else None)


def kinematic_reduction_check(S, Gm, Dc: Subbundle, candidate: Subbundle, points,
                              tol=DEFAULT_ALGEBRAIC_TOL,
                              force: Optional[ForceField] = None) -> VerificationReport:
    """Test a candidate driftless distribution: every spanning section and
    every pairwise symmetric product must lie in the control distribution."""
    spans = candidate.sections

    def residual(p, Q, gamma):
        return _outside(Q, chain((X(p) for X in spans), _products(S, Gm, spans, p, gamma)))

    return _containment("kinematic_reduction", S, Gm, Dc, points, tol, force, spans, residual,
                        {"candidate": candidate.label} if candidate.label else None)


def _product_section(S, Gm, A: Section, B: Section, gamma_at) -> Section:
    fn = lambda x: symmetric_product(S, Gm, A, B, x, gamma=gamma_at(x))
    return Section(fn, S.m, label=f"<{A.label or 'X'}:{B.label or 'Y'}>")


def symmetric_closure(S, Gm, candidate: Subbundle, max_depth: int, p):
    """Iterate symmetric products of the generators and track the rank at ``p``.

    Returns ``(rank, generators)`` where the generator list extends the input
    spans with every product appended before the rank reached a fixpoint (or
    the depth limit).  The rank is monotone in depth by construction.  A
    generator or product value that is not finite at ``p`` has no rank: it
    raises ``ValueError`` with that reason and ``p``.
    """
    p = S.check_point(p)
    gamma_at = christoffel_field(S, Gm)

    def rank_of(sections):
        # A value that is not finite raises ValueError, naming p.
        return int(_span_ranks([[X(p) for X in sections]], [p])[0])

    generators = list(candidate.sections)
    rank = rank_of(generators)
    for _ in range(max_depth):
        if rank == S.m:
            break
        products = [_product_section(S, Gm, A, B, gamma_at)
                    for A, B in combinations_with_replacement(generators, 2)]
        new_rank = rank_of(generators + products)
        if new_rank == rank:
            break
        generators.extend(products)
        rank = new_rank
    return rank, generators


def geodesic_invariance_check(S, Gm, candidate: Subbundle, points,
                              tol=DEFAULT_ALGEBRAIC_TOL, horizon: float = 1.0,
                              step: float = 1e-2, traj_tol=None, seed: int = 0,
                              chart=None) -> VerificationReport:
    """Two-route test of geodesic invariance.

    Algebraic route: pairwise symmetric products of the spans stay inside the
    candidate; its residual is the report's ``worst_residual``, against
    ``tol``.  Empirical route: geodesics seeded inside the candidate keep
    their complement components below the trajectory tolerance over the
    horizon; its residual and tolerance are ``details["trajectory_residual"]``
    and ``details["trajectory_tolerance"]``.  The verdict requires both.  A
    non-finite algebraic residual ends the check before any geodesic is
    integrated.
    """
    if traj_tol is None:
        traj_tol = max(tol, DEFAULT_TRAJECTORY_TOL)
    _check_tolerances(tol=tol, traj_tol=traj_tol)
    P = Projector(candidate, Gm)
    points = np.atleast_2d(points)
    spans = candidate.sections
    worst, witness = _sweep(points, lambda p, Q, gamma: _outside(Q, _products(S, Gm, spans, p, gamma)),
                            P.q_matrix, christoffel_field(S, Gm))
    if not math.isfinite(worst):
        return _report("geodesic_invariance", worst, witness, len(points), tol,
                       {"algebraic_residual": worst, "trajectory_tolerance": traj_tol})

    rng = np.random.default_rng(seed)
    starts = []
    for p in points[: min(3, len(points))]:
        coeffs = rng.uniform(-1.0, 1.0, size=len(spans))
        y0 = candidate.matrix(p).T @ coeffs
        scale = max(1.0, float(np.max(np.abs(y0))))
        starts.append(np.concatenate([p, y0 / scale]))
    # One ensemble: each RK4 stage evaluates the spray at every geodesic
    # still running in one call.  Its loop is called directly, not through
    # integrate, whose wrapper in the benchmark's tracer reads one
    # trajectory from the result.
    trajectories = _ensemble(spray_field(S, Gm), np.reshape(starts, (len(starts), S.n + S.m)),
                             S.m, 0.0, horizon, step, chart)
    # Every sample of the trajectories, in order, projected in one stack.
    base = np.concatenate([np.zeros((0, S.n))] + [traj.base for traj in trajectories])
    fiber = np.concatenate([np.zeros((0, S.m))] + [traj.fiber for traj in trajectories])
    emp_worst, emp_witness = _stacked_sweep(
        base, lambda ks: _outside_each(P.q_matrix(base[ks]), fiber[ks]))
    reasons = [traj.reason for traj in trajectories if traj.truncated]
    details = {"algebraic_residual": worst, "trajectory_residual": emp_worst,
               "trajectory_tolerance": traj_tol, "trajectories": len(trajectories),
               "truncated": len(reasons), "truncation_reasons": reasons}
    return _report("geodesic_invariance", worst, witness, len(points), tol, details,
                   route=(emp_worst, emp_witness, traj_tol))


def maximal_reducibility_check(S, Gm, Dc: Subbundle, candidate: Subbundle, points,
                               tol=DEFAULT_ALGEBRAIC_TOL,
                               force: Optional[ForceField] = None) -> VerificationReport:
    """Maximal reducibility: candidate equals the control distribution and the
    control distribution is closed under the symmetric product.

    Only meaningful for unforced systems; a nonzero force is rejected.
    """
    if force is not None:
        raise ValueError("maximal reducibility requires a force-free system")
    _check_tolerances(tol=tol)

    def residual(p, Qc, gamma, Qd):
        inside = _outside(Qc, chain((X(p) for X in candidate.sections),
                                    _products(S, Gm, Dc.sections, p, gamma)))
        return _max(inside, _outside(Qd, (Y(p) for Y in Dc.sections)))

    points = np.atleast_2d(points)
    worst, witness = _sweep(points, residual, Projector(Dc, Gm).q_matrix, christoffel_field(S, Gm),
                            Projector(candidate, Gm).q_matrix)
    return _report("maximal_reducibility", worst, witness, len(points), tol)


# --- Hamilton-Jacobi ---------------------------------------------------------


def hj_residual(S, Gm, V: Optional[Potential], Dc: Optional[Subbundle], X: Section, p,
                gamma=None):
    """Hamilton-Jacobi diagnostics for a candidate section at a point, or at
    each point of a stack ``(N, n)`` of points.

    Returns ``(closedness, hj)``: the closedness hypothesis residual
    ``|G(nabla_X X, Y) - G(nabla_Y X, X)|`` and the Hamilton-Jacobi residual
    ``|d(G(X,X)/2 + V)(Y)|``, both maximized over a metric-orthonormal basis
    of the control complement (all directions when ``Dc`` is omitted); two
    floats at a point, two ``(N,)`` arrays at a stack, each entry bitwise
    the pair at its point.  Everything comes from one derivative of ``X``:
    the rows ``nabla_{e_A} X`` (:func:`covariant_derivative` at the
    stack).  ``gamma`` is the Christoffel tensor at the point, or their
    stack; when omitted, :func:`christoffel`'s is taken at each point with
    a complement.

    A point is a stack of one: the metric, the control span, the
    candidate's value and Jacobian, the anchor and the potential's Jacobian
    are each read in one call per stack (the candidate's value and the
    anchor once more), and every product is a stacked ``matmul`` of the
    shapes a single point's products have.  The rows of points whose
    complements have equal sizes are multiplied together: one row takes
    another BLAS routine than several, which rounds differently.
    """
    points = S.check_points(p)
    count, m = len(points), S.m
    G = Gm.matrix(points)
    rows, counts = _orthonormal_complement(
        G, np.zeros((count, 0, m)) if Dc is None else Dc.matrix(points), points)
    closedness, hj = np.zeros(count), np.zeros(count)
    live = np.flatnonzero(counts)
    if len(live):
        x, G, rows, counts = points[live], G[live], rows[live], counts[live]
        if gamma is None:
            gamma = np.array([christoffel(S, Gm, xi).gamma for xi in x])
        else:
            gamma = (gamma if np.ndim(p) == 2 else gamma[None])[live]
        # N[i, A] = nabla_{e_A} X at x[i]
        N = covariant_derivative(S, Gm, np.eye(m), X, x, gamma=gamma)
        Xp = X(x)
        # G(nabla_{e_A} X, X), which is rho(e_A)(G(X, X)/2) as the connection is metric
        pairing = (N @ G @ Xp[:, :, None])[:, :, 0]
        rho_E = pairing if V is None else pairing + d_function(S, V, x)
        flow = (Xp[:, None] @ N).transpose(0, 2, 1)  # nabla_X X, as a column per point
        for k in np.unique(counts):
            at = counts == k
            Y = rows[at, :k]
            closed = Y @ G[at] @ flow[at] - Y @ pairing[at][:, :, None]
            closedness[live[at]] = np.abs(closed).max(axis=(1, 2))
            hj[live[at]] = np.abs(Y @ rho_E[at][:, :, None]).max(axis=(1, 2))
    return (closedness, hj) if np.ndim(p) == 2 else (float(closedness[0]), float(hj[0]))


def hj_algebraic_check(sysdef, X: Section, points, tol=DEFAULT_ALGEBRAIC_TOL) -> VerificationReport:
    """Hamilton-Jacobi residual sweep for a candidate section of a system definition.

    The verdict tracks the equation residual itself; the closedness hypothesis
    residual rides along in the details so a failed hypothesis is visible.
    Without a control distribution the equation is tested against every frame
    direction and the spread of the conserved quantity over the samples is
    reported as well.
    """
    _check_tolerances(tol=tol)
    S, Gm, V, Dc = sysdef.structure, sysdef.metric, sysdef.potential, sysdef.controls
    points = np.atleast_2d(np.asarray(points, dtype=float))
    # Controls that span the fiber leave no complement: hj_residual then
    # needs no tensor, and none is computed.
    gamma_at = None if Dc is not None and Dc.rank == S.m else christoffel_field(S, Gm)
    # NaN until computed: a sweep that stops early computes no later point.
    closedness, hjs = np.full(len(points), np.nan), np.full(len(points), np.nan)

    def residuals(ks):
        x = points[ks]
        closedness[ks], hjs[ks] = hj_residual(S, Gm, V, Dc, X, x,
                                              gamma=None if gamma_at is None else gamma_at(x))
        return hjs[ks]

    worst, witness = _stacked_sweep(points, residuals)
    # The closedness of the points a pointwise sweep visits: up to its first
    # non-finite residual, where it stops.
    visited = len(points) if np.isfinite(hjs).all() else int(np.argmin(np.isfinite(hjs))) + 1
    details = {"closedness_residual": reduce(_max, closedness[:visited].tolist(), 0.0),
               "section": getattr(X, "label", "")}
    if Dc is None:
        energies = [energy(S, Gm, V, (p, X(p))) for p in points]
        # numpy's max and min keep a NaN wherever it is; Python's drop one
        # that is not first.  Python floats subtract inf - inf without a warning.
        details["energy_spread"] = float(np.max(energies)) - float(np.min(energies))
    return _report("hj_residual", worst, witness, len(points), tol, details)


def hj_trajectory_equivalence(S, Gm, V: Optional[Potential], Dc: Optional[Subbundle],
                              X: Section, p0, horizon: float, step: float,
                              tol=DEFAULT_TRAJECTORY_TOL, chart=None) -> VerificationReport:
    """Integrate the base flow of a section, lift it, and check the projected
    forced-geodesic residual along the curve.

    When the closedness hypothesis fails along the curve the equivalence
    theorem is silent, so a large residual yields ``inconclusive`` rather
    than ``fail``.
    """
    _check_tolerances(tol=tol)
    p0 = S.check_point(p0)
    sigma = base_flow(S, X, p0, 0.0, horizon, step, chart=chart)
    gamma_traj = lift(X, sigma)
    base, fiber, times = gamma_traj.base, gamma_traj.fiber, gamma_traj.times
    gammas = christoffel_field(S, Gm)(base)
    m, count = S.m, len(gamma_traj)
    q_at = ((lambda xs: np.broadcast_to(np.eye(m), (len(xs), m, m))) if Dc is None
            else Projector(Dc, Gm).q_matrix)

    def residuals(ks):
        # The interior samples ks + 1, stacked: the covariant derivative of
        # the lifted curve plus the metric gradient, projected on the
        # complement of the controls.
        k = ks + 1
        x = base[k]
        value = covariant_derivative_along(S, Gm, gamma_traj, fiber, times[k], gamma=gammas[k])
        if V is not None:
            value = value + gradient(S, Gm, V, x)
        return _outside_each(q_at(x), value)

    worst, witness = _stacked_sweep(base[1:count - 1], residuals)
    worst = _max(worst, 0.0)  # 0 when there is no interior sample

    scanned = np.arange(0, count, max(1, count // 16))
    closedness, closed_witness = _stacked_sweep(base[scanned], lambda ks: hj_residual(
        S, Gm, V, Dc, X, base[scanned[ks]], gamma=gammas[scanned[ks]])[0])

    details = {"closedness_residual": closedness, "horizon": horizon,
               "truncated": gamma_traj.truncated}
    if gamma_traj.truncated:
        details["truncation_reason"] = gamma_traj.reason
    # The equivalence theorem assumes closedness; without it the measured
    # residual says nothing about the Hamilton-Jacobi equation.
    return _report("hj_trajectory_equivalence", worst, witness, count, tol, details,
                   hypothesis=(closedness, closed_witness, DEFAULT_ALGEBRAIC_TOL))


def reparam_admissible(S, Gm, Dc: Subbundle, f, points, tol=DEFAULT_ALGEBRAIC_TOL) -> VerificationReport:
    """Reparametrization admissibility: the factor must be annihilated by every
    anchored complement direction."""
    _check_tolerances(tol=tol)
    fn = _as_scalar_field(f, S)
    P = Projector(Dc, Gm)
    points = np.atleast_2d(np.asarray(points, dtype=float))

    def residuals(ks):
        x = points[ks]
        rho_f = d_function(S, fn, x)
        out = np.full(len(x), np.nan)
        # Tested before the products, where 0 * inf would only warn; the
        # complement is read only where the derivative is finite.
        finite = np.isfinite(rho_f).all(axis=1)
        if finite.any():
            rows, counts = P.complement_basis(x[finite])
            # One dot product per row, as at a point.
            pairings = np.abs(rows[:, :, None] @ rho_f[finite][:, None, :, None])[:, :, 0, 0]
            out[finite] = np.where(np.arange(S.m) < counts[:, None], pairings, 0.0).max(axis=1)
        return out

    worst, witness = _stacked_sweep(points, residuals)
    return _report("reparam_admissible", worst, witness, len(points), tol)
