"""Control distributions, orthogonal projectors and verification predicates.

Everything here is sample-based: predicates sweep a deterministic
low-discrepancy point set inside the chart box, report the worst residual and
a concrete witness on failure, and never claim more than pass-on-samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Optional, Sequence

import numpy as np

from .algebroid import (
    Section,
    Trajectory,
    _as_scalar_field,
    _span_ranks,
    d_function,
    span_rank,
)
from .dynamics import base_flow, energy, lift, spray_field, integrate, TotalPoint
from .geometry import (
    BundleMetric,
    ForceField,
    Potential,
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
    "project",
    "is_decoupling",
    "kinematic_reduction_check",
    "symmetric_closure",
    "geodesic_invariance_check",
    "maximal_reducibility_check",
    "hj_residual",
    "hj_algebraic_check",
    "hj_trajectory_equivalence",
    "reparam_admissible",
    "recover_controls",
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
        """Evaluated span, one row per section."""
        return np.array([X(p) for X in self.sections])

    def rank_at(self, p) -> int:
        return span_rank(self.matrix(p))

    def validate_rank(self, points) -> None:
        points = np.atleast_2d(points)
        ranks = _span_ranks([self.matrix(p) for p in points])
        if np.any(ranks != self.rank):
            p = points[np.argmax(ranks != self.rank)]
            raise ValueError(f"subbundle {self.label or ''} drops rank at {p}")


class Projector:
    """Metric-orthogonal projectors onto a subbundle and its complement."""

    def __init__(self, subbundle: Subbundle, metric: BundleMetric):
        self.subbundle = subbundle
        self.metric = metric
        self.m = metric.m

    def p_matrix(self, p, G=None) -> np.ndarray:
        """The projector onto the span at ``p``; ``G`` is the metric there, when known."""
        B = self.subbundle.matrix(p)
        G = self.metric.matrix(p) if G is None else G
        gram = B @ G @ B.T
        try:
            solved = np.linalg.solve(gram, B @ G)
        except np.linalg.LinAlgError:
            raise ValueError(f"subbundle span is degenerate at {np.asarray(p)}") from None
        return B.T @ solved

    def q_matrix(self, p) -> np.ndarray:
        return np.eye(self.m) - self.p_matrix(p)

    def complement_basis(self, p) -> np.ndarray:
        """Metric-orthonormal basis of the complement at ``p`` (deterministic)."""
        return _orthonormal_complement(self.metric.matrix(p), self.subbundle.matrix(p), p)

    def declared_complement_residual(self, declared: Sequence[Section], points) -> float:
        """Worst projection of declared complement sections back onto the span."""
        worst = 0.0
        for p in np.atleast_2d(points):
            G = self.metric.matrix(p)
            P = self.p_matrix(p, G)
            for W in declared:
                w = W(p)
                scale = np.sqrt(max(float(w @ G @ w), 1e-30))
                worst = _max(worst, float(np.max(np.abs(P @ w))) / scale)
        return worst


def _orthonormal_complement(G: np.ndarray, span: np.ndarray, p) -> np.ndarray:
    """Rows of a ``G``-orthonormal basis of the ``G``-orthogonal complement of
    the rows of ``span`` (``(0, m)`` for all directions).

    Gram-Schmidt under ``G`` seeded with the span, then extended by the
    canonical fiber directions; the span part is discarded.
    """
    m = len(G)
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
    if len(basis) != len(span):
        raise ValueError(f"subbundle span is degenerate at {np.asarray(p)}")
    complement = [basis[-1] for unit in np.eye(m) if push(unit)]
    return np.array(complement) if complement else np.zeros((0, m))


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


def _sweep(points, residual_fn):
    """Worst residual and its witness over a point sweep (see :func:`_worst_of`)."""
    return _worst_of((residual_fn(p), np.asarray(p, dtype=float)) for p in np.atleast_2d(points))


def _non_finite(details: dict, worst, witness) -> bool:
    """Whether ``worst`` is not finite; if so, ``details`` gets the reason and
    the point.  Such a residual shows nothing, so its verdict is inconclusive."""
    if math.isfinite(worst):
        return False
    details["inconclusive_reason"] = f"non-finite residual ({worst})"
    details["non_finite_point"] = [float(v) for v in witness]
    return True


def _report(predicate, worst, witness, count, tol, details=None, inconclusive=False) -> VerificationReport:
    details = dict(details or {})
    if _non_finite(details, worst, witness) or inconclusive:
        verdict = "inconclusive"
    else:
        verdict = "pass" if worst <= tol else "fail"
    return VerificationReport(predicate, verdict, float(worst),
                              None if verdict == "pass" else witness,
                              count, float(tol), details)


def project(P: Projector, X, p) -> np.ndarray:
    """Apply the span projector to a section or a raw fiber vector at ``p``."""
    coeffs = X(p) if isinstance(X, Section) else np.asarray(X, dtype=float)
    return P.p_matrix(p) @ coeffs


def _force_precheck(predicate, P, force, points, probe_sections,
                    tol) -> Optional[VerificationReport]:
    """The inconclusive report of ``predicate`` when ``force`` leaves the
    control distribution (at the zero fiber or the probe sections), else None."""
    if force is None:
        return None

    def residuals():
        for p in points:
            Q = P.q_matrix(p)
            for y in [np.zeros(P.m)] + [X(p) for X in probe_sections]:
                yield np.max(np.abs(Q @ force(p, y))), p

    worst, witness = _worst_of(residuals())
    if worst <= tol:
        return None
    return _report(predicate, worst, witness, len(points), tol,
                   {"force_complement_residual": worst}, inconclusive=True)


def _product_residual(S, Gm, spans, Q, p, gamma) -> float:
    """Largest complement component ``Q <A : B>`` over the symmetric products of
    every unordered pair of ``spans``, squares included."""
    worst = 0.0
    for i, A in enumerate(spans):
        for B in spans[i:]:
            prod = symmetric_product(S, Gm, A, B, p, gamma=gamma)
            worst = _max(worst, float(np.max(np.abs(Q @ prod))))
    return worst


def is_decoupling(S, Gm, Dc: Subbundle, X: Section, points, tol=DEFAULT_ALGEBRAIC_TOL,
                  force: Optional[ForceField] = None) -> VerificationReport:
    """Rank-one kinematic-reduction test: the section and its self covariant
    derivative must both project to zero on the control complement.

    When a force is supplied its complement component is checked first; the
    predicate is inconclusive if that hypothesis fails.
    """
    P = Projector(Dc, Gm)
    points = np.atleast_2d(points)
    pre = _force_precheck("is_decoupling", P, force, points, (X,), tol)
    if pre is not None:
        return pre
    gamma_at = christoffel_field(S, Gm)

    def residual(p):
        Q = P.q_matrix(p)
        r1 = np.max(np.abs(Q @ X(p)))
        nabla = covariant_derivative(S, Gm, X, X, p, gamma=gamma_at(p))
        if force is not None:
            nabla = nabla - force(p, X(p))
        r2 = np.max(np.abs(Q @ nabla))
        return _max(r1, r2)

    worst, witness = _sweep(points, residual)
    return _report("is_decoupling", worst, witness, len(points), tol,
                   {"section": X.label} if X.label else None)


def kinematic_reduction_check(S, Gm, Dc: Subbundle, candidate: Subbundle, points,
                              tol=DEFAULT_ALGEBRAIC_TOL,
                              force: Optional[ForceField] = None) -> VerificationReport:
    """Test a candidate driftless distribution: every spanning section and
    every pairwise symmetric product must lie in the control distribution."""
    P = Projector(Dc, Gm)
    points = np.atleast_2d(points)
    pre = _force_precheck("kinematic_reduction", P, force, points, candidate.sections, tol)
    if pre is not None:
        return pre
    gamma_at = christoffel_field(S, Gm)
    spans = candidate.sections

    def residual(p):
        Q = P.q_matrix(p)
        worst = reduce(_max, (float(np.max(np.abs(Q @ X(p)))) for X in spans), 0.0)
        return _max(worst, _product_residual(S, Gm, spans, Q, p, gamma_at(p)))

    worst, witness = _sweep(points, residual)
    return _report("kinematic_reduction", worst, witness, len(points), tol,
                   {"candidate": candidate.label} if candidate.label else None)


def _product_section(S, Gm, A: Section, B: Section, gamma_at) -> Section:
    fn = lambda x: symmetric_product(S, Gm, A, B, x, gamma=gamma_at(x))
    return Section(fn, S.m, label=f"<{A.label or 'X'}:{B.label or 'Y'}>")


def symmetric_closure(S, Gm, candidate: Subbundle, max_depth: int, p):
    """Iterate symmetric products of the generators and track the rank at ``p``.

    Returns ``(rank, generators)`` where the generator list extends the input
    spans with every product appended before the rank reached a fixpoint (or
    the depth limit).  The rank is monotone in depth by construction.
    """
    p = S.check_point(p)
    gamma_at = christoffel_field(S, Gm)
    generators = list(candidate.sections)
    rank = span_rank([X(p) for X in generators])
    for _ in range(max_depth):
        if rank == S.m:
            break
        products = []
        for i, A in enumerate(generators):
            for B in generators[i:]:
                products.append(_product_section(S, Gm, A, B, gamma_at))
        new_rank = span_rank([X(p) for X in generators + products])
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
    candidate.  Empirical route: geodesics seeded inside the candidate keep
    their complement components below the trajectory tolerance over the
    horizon.  The verdict requires both.
    """
    if traj_tol is None:
        traj_tol = max(tol, DEFAULT_TRAJECTORY_TOL)
    P = Projector(candidate, Gm)
    gamma_at = christoffel_field(S, Gm)
    points = np.atleast_2d(points)
    spans = candidate.sections

    alg_worst, alg_witness = _sweep(
        points, lambda p: _product_residual(S, Gm, spans, P.q_matrix(p), p, gamma_at(p)))

    rng = np.random.default_rng(seed)
    field_fn = spray_field(S, Gm)

    def trajectory_residuals():
        for p in points[: min(3, len(points))]:
            coeffs = rng.uniform(-1.0, 1.0, size=len(spans))
            y0 = candidate.matrix(p).T @ coeffs
            scale = max(1.0, float(np.max(np.abs(y0))))
            traj = integrate(field_fn, TotalPoint(p, y0 / scale), 0.0, horizon, step, chart=chart)
            for x, y in zip(traj.base, traj.fiber):
                yield np.max(np.abs(P.q_matrix(x) @ y)), x

    emp_worst, emp_witness = _worst_of(trajectory_residuals())
    details = {"algebraic_residual": alg_worst, "trajectory_residual": emp_worst,
               "trajectory_tolerance": traj_tol}
    if _non_finite(details, alg_worst, alg_witness):
        verdict, witness = "inconclusive", alg_witness
    elif _non_finite(details, emp_worst, emp_witness):
        verdict, witness = "inconclusive", emp_witness
    else:
        failed_alg = alg_worst > tol
        verdict = "fail" if (failed_alg or emp_worst > traj_tol) else "pass"
        witness = alg_witness if failed_alg else emp_witness
    return VerificationReport(
        "geodesic_invariance", verdict, float(_max(alg_worst, emp_worst)),
        None if verdict == "pass" else witness, len(points), float(tol), details)


def maximal_reducibility_check(S, Gm, Dc: Subbundle, candidate: Subbundle, points,
                               tol=DEFAULT_ALGEBRAIC_TOL,
                               force: Optional[ForceField] = None) -> VerificationReport:
    """Maximal reducibility: candidate equals the control distribution and the
    control distribution is closed under the symmetric product.

    Only meaningful for unforced systems; a nonzero force is rejected.
    """
    if force is not None:
        raise ValueError("maximal reducibility requires a force-free system")
    Pc = Projector(Dc, Gm)
    Pd = Projector(candidate, Gm)
    gamma_at = christoffel_field(S, Gm)
    points = np.atleast_2d(points)

    def residual(p):
        Qc = Pc.q_matrix(p)
        Qd = Pd.q_matrix(p)
        worst = reduce(_max, (float(np.max(np.abs(Qc @ X(p)))) for X in candidate.sections), 0.0)
        worst = reduce(_max, (float(np.max(np.abs(Qd @ Y(p)))) for Y in Dc.sections), worst)
        return _max(worst, _product_residual(S, Gm, Dc.sections, Qc, p, gamma_at(p)))

    worst, witness = _sweep(points, residual)
    return _report("maximal_reducibility", worst, witness, len(points), tol)


# --- Hamilton-Jacobi ---------------------------------------------------------


def hj_residual(S, Gm, V: Optional[Potential], Dc: Optional[Subbundle], X: Section, p,
                gamma=None):
    """Pointwise Hamilton-Jacobi diagnostics for a candidate section.

    Returns ``(closedness, hj)``: the closedness hypothesis residual
    ``|G(nabla_X X, Y) - G(nabla_Y X, X)|`` and the Hamilton-Jacobi residual
    ``|d(G(X,X)/2 + V)(Y)|``, both maximized over a metric-orthonormal basis
    of the control complement (all directions when ``Dc`` is omitted).
    Everything comes from one derivative of ``X``: the rows ``nabla_{e_A} X``.
    """
    p = S.check_point(p)
    G = Gm.matrix(p)
    rows = _orthonormal_complement(G, np.zeros((0, S.m)) if Dc is None else Dc.matrix(p), p)
    if rows.size == 0:
        return 0.0, 0.0
    if gamma is None:
        gamma = christoffel(S, Gm, p).gamma
    N = covariant_derivative(S, Gm, np.eye(S.m), X, p, gamma=gamma)  # N[A] = nabla_{e_A} X
    Xp = X(p)
    # G(nabla_{e_A} X, X), which is rho(e_A)(G(X, X)/2) as the connection is metric
    pairing = N @ G @ Xp
    rho_E = pairing if V is None else pairing + d_function(S, V, p)
    closedness = np.max(np.abs(rows @ G @ (Xp @ N) - rows @ pairing))
    return float(closedness), float(np.max(np.abs(rows @ rho_E)))


def hj_algebraic_check(sysdef, X: Section, points, tol=DEFAULT_ALGEBRAIC_TOL) -> VerificationReport:
    """Hamilton-Jacobi residual sweep for a candidate section of a system definition.

    The verdict tracks the equation residual itself; the closedness hypothesis
    residual rides along in the details so a failed hypothesis is visible.
    Without a control distribution the equation is tested against every frame
    direction and the spread of the conserved quantity over the samples is
    reported as well.
    """
    S, Gm, V, Dc = sysdef.structure, sysdef.metric, sysdef.potential, sysdef.controls
    points = np.atleast_2d(points)
    closedness = []

    def residual(p):
        closed, hj = hj_residual(S, Gm, V, Dc, X, p)
        closedness.append(closed)
        return hj

    worst, witness = _sweep(points, residual)
    details = {"closedness_residual": reduce(_max, closedness, 0.0),
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
    p0 = S.check_point(p0)
    sigma = base_flow(S, X, p0, 0.0, horizon, step, chart=chart)
    gamma_traj = lift(X, sigma)
    gamma_at = christoffel_field(S, Gm)
    gammas = [gamma_at(x) for x in gamma_traj.base]

    grad_V = None
    if V is not None:
        grad_V = lambda x: gradient(S, Gm, V, x)
    projector = Projector(Dc, Gm) if Dc is not None else None

    count = len(gamma_traj)

    def residuals():
        for k in range(1, count - 1):
            t = gamma_traj.times[k]
            value = covariant_derivative_along(S, Gm, gamma_traj, gamma_traj.fiber, t,
                                               gamma=gammas[k])
            if grad_V is not None:
                value = value + grad_V(gamma_traj.base[k])
            if projector is not None:
                value = projector.q_matrix(gamma_traj.base[k]) @ value
            yield np.max(np.abs(value)), gamma_traj.base[k]

    worst, witness = _worst_of(residuals())
    worst = _max(worst, 0.0)  # 0 when there is no interior sample

    stride = max(1, count // 16)
    closedness, closed_witness = _worst_of(
        (hj_residual(S, Gm, V, Dc, X, gamma_traj.base[k], gamma=gammas[k])[0], gamma_traj.base[k])
        for k in range(0, count, stride))

    details = {"closedness_residual": closedness, "horizon": horizon,
               "truncated": gamma_traj.truncated}
    if _non_finite(details, closedness, closed_witness) or _non_finite(details, worst, witness):
        verdict = "inconclusive"
    elif closedness > DEFAULT_ALGEBRAIC_TOL:
        # The equivalence theorem assumes closedness; without it the measured
        # residual says nothing about the Hamilton-Jacobi equation.
        verdict = "inconclusive"
    elif worst <= tol:
        verdict = "pass"
    else:
        verdict = "fail"
    return VerificationReport("hj_trajectory_equivalence", verdict, worst,
                              witness if verdict != "pass" else None,
                              count, float(tol), details)


def reparam_admissible(S, Gm, Dc: Subbundle, f, points, tol=DEFAULT_ALGEBRAIC_TOL) -> VerificationReport:
    """Reparametrization admissibility: the factor must be annihilated by every
    anchored complement direction."""
    fn = _as_scalar_field(f, S)
    P = Projector(Dc, Gm)
    points = np.atleast_2d(points)

    def residual(p):
        rho_f = d_function(S, fn, p)
        return reduce(_max, (abs(float(y @ rho_f)) for y in P.complement_basis(p)), 0.0)

    worst, witness = _sweep(points, residual)
    return _report("reparam_admissible", worst, witness, len(points), tol)


def recover_controls(S, candidate: Subbundle, traj: Trajectory):
    """Least-squares driftless controls reproducing a fiber trajectory.

    Returns per-sample coefficients against the candidate spans and the
    coefficient-space reconstruction residuals.
    """
    if traj.fiber is None:
        raise ValueError("trajectory carries no fiber samples")
    coeffs = np.zeros((len(traj), candidate.rank))
    residuals = np.zeros(len(traj))
    for k in range(len(traj)):
        B = candidate.matrix(traj.base[k]).T
        sol, *_ = np.linalg.lstsq(B, traj.fiber[k], rcond=None)
        coeffs[k] = sol
        residuals[k] = float(np.max(np.abs(B @ sol - traj.fiber[k])))
    return coeffs, residuals
