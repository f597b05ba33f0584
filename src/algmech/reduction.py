"""Control distributions, orthogonal projectors and verification predicates.

Everything here is sample-based: predicates sweep a deterministic
low-discrepancy point set inside the chart box, report the worst residual and
a concrete witness on failure, and never claim more than pass-on-samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .algebroid import (
    Section,
    Trajectory,
    _as_scalar_field,
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
        for p in np.atleast_2d(points):
            if self.rank_at(p) != self.rank:
                raise ValueError(f"subbundle {self.label or ''} drops rank at {p}")


class Projector:
    """Metric-orthogonal projectors onto a subbundle and its complement."""

    def __init__(self, subbundle: Subbundle, metric: BundleMetric):
        self.subbundle = subbundle
        self.metric = metric
        self.m = metric.m

    def p_matrix(self, p) -> np.ndarray:
        B = self.subbundle.matrix(p)
        G = self.metric.matrix(p)
        gram = B @ G @ B.T
        try:
            solved = np.linalg.solve(gram, B @ G)
        except np.linalg.LinAlgError:
            raise ValueError(f"subbundle span is degenerate at {np.asarray(p)}") from None
        return B.T @ solved

    def q_matrix(self, p) -> np.ndarray:
        return np.eye(self.m) - self.p_matrix(p)

    def complement_basis(self, p) -> np.ndarray:
        """Metric-orthonormal basis of the complement at ``p`` (deterministic).

        Gram-Schmidt under ``G(p)`` seeded with the span, then extended by the
        canonical fiber directions; the span part is discarded.
        """
        G = self.metric.matrix(p)
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

        for row in self.subbundle.matrix(p):
            push(row)
        if len(basis) != self.subbundle.rank:
            raise ValueError(f"subbundle span is degenerate at {np.asarray(p)}")
        complement = []
        for k in range(self.m):
            unit = np.zeros(self.m)
            unit[k] = 1.0
            if push(unit):
                complement.append(basis[-1])
        return np.array(complement) if complement else np.zeros((0, self.m))

    def declared_complement_residual(self, declared: Sequence[Section], points) -> float:
        """Worst projection of declared complement sections back onto the span."""
        worst = 0.0
        for p in np.atleast_2d(points):
            P = self.p_matrix(p)
            G = self.metric.matrix(p)
            for W in declared:
                w = W(p)
                scale = np.sqrt(max(float(w @ G @ w), 1e-30))
                worst = max(worst, float(np.max(np.abs(P @ w))) / scale)
        return worst


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
        if self.verdict == "pass" and self.worst_residual > self.tolerance:
            raise ValueError("pass verdict with residual above tolerance")
        if self.verdict == "fail" and self.witness_point is None:
            raise ValueError("fail verdict requires a witness point")

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
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
        return doc


def _report(predicate, worst, witness, count, tol, details=None, inconclusive=False) -> VerificationReport:
    if inconclusive:
        verdict = "inconclusive"
    else:
        verdict = "pass" if worst <= tol else "fail"
    return VerificationReport(predicate, verdict, float(worst),
                              None if verdict == "pass" else witness,
                              count, float(tol), details or {})


def _sweep(points, residual_fn):
    """Worst residual and its witness over a point sweep."""
    worst, witness = -1.0, None
    for p in np.atleast_2d(points):
        value = float(residual_fn(p))
        if value > worst:
            worst, witness = value, np.asarray(p, dtype=float)
    return worst, witness


def project(P: Projector, X, p) -> np.ndarray:
    """Apply the span projector to a section or a raw fiber vector at ``p``."""
    coeffs = X(p) if isinstance(X, Section) else np.asarray(X, dtype=float)
    return P.p_matrix(p) @ coeffs


def _force_residual(P, force, points, probe_sections=()) -> float:
    worst = 0.0
    for p in np.atleast_2d(points):
        Q = P.q_matrix(p)
        fibers = [np.zeros(P.m)] + [X(p) for X in probe_sections]
        for y in fibers:
            worst = max(worst, float(np.max(np.abs(Q @ force(p, y)))))
    return worst


def _product_residual(S, Gm, spans, Q, p, gamma) -> float:
    """Largest complement component ``Q <A : B>`` over the symmetric products of
    every unordered pair of ``spans``, squares included."""
    worst = 0.0
    for i, A in enumerate(spans):
        for B in spans[i:]:
            prod = symmetric_product(S, Gm, A, B, p, gamma=gamma)
            worst = max(worst, float(np.max(np.abs(Q @ prod))))
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
    if force is not None:
        pre = _force_residual(P, force, points, (X,))
        if pre > tol:
            return VerificationReport("is_decoupling", "inconclusive", pre, None,
                                      len(points), tol, {"force_complement_residual": pre})
    gamma_at = christoffel_field(S, Gm)

    def residual(p):
        Q = P.q_matrix(p)
        r1 = np.max(np.abs(Q @ X(p)))
        nabla = covariant_derivative(S, Gm, X, X, p, gamma=gamma_at(p))
        if force is not None:
            nabla = nabla - force(p, X(p))
        r2 = np.max(np.abs(Q @ nabla))
        return max(r1, r2)

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
    if force is not None:
        pre = _force_residual(P, force, points, candidate.sections)
        if pre > tol:
            return VerificationReport("kinematic_reduction", "inconclusive", pre, None,
                                      len(points), tol, {"force_complement_residual": pre})
    gamma_at = christoffel_field(S, Gm)
    spans = candidate.sections

    def residual(p):
        Q = P.q_matrix(p)
        worst = max(float(np.max(np.abs(Q @ X(p)))) for X in spans)
        return max(worst, _product_residual(S, Gm, spans, Q, p, gamma_at(p)))

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
    emp_worst, emp_witness = 0.0, None
    for p in points[: min(3, len(points))]:
        coeffs = rng.uniform(-1.0, 1.0, size=len(spans))
        y0 = candidate.matrix(p).T @ coeffs
        scale = max(1.0, float(np.max(np.abs(y0))))
        traj = integrate(field_fn, TotalPoint(p, y0 / scale), 0.0, horizon, step, chart=chart)
        for k in range(len(traj)):
            value = float(np.max(np.abs(P.q_matrix(traj.base[k]) @ traj.fiber[k])))
            if value > emp_worst:
                emp_worst, emp_witness = value, traj.base[k]

    failed_alg = alg_worst > tol
    failed_emp = emp_worst > traj_tol
    verdict = "fail" if (failed_alg or failed_emp) else "pass"
    witness = alg_witness if failed_alg else emp_witness
    return VerificationReport(
        "geodesic_invariance", verdict, float(max(alg_worst, emp_worst)),
        witness if verdict == "fail" else None, len(points), float(tol),
        {"algebraic_residual": alg_worst, "trajectory_residual": emp_worst,
         "trajectory_tolerance": traj_tol})


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
        worst = max(float(np.max(np.abs(Qc @ X(p)))) for X in candidate.sections)
        worst = max(worst, max(float(np.max(np.abs(Qd @ Y(p)))) for Y in Dc.sections))
        return max(worst, _product_residual(S, Gm, Dc.sections, Qc, p, gamma_at(p)))

    worst, witness = _sweep(points, residual)
    return _report("maximal_reducibility", worst, witness, len(points), tol)


# --- Hamilton-Jacobi ---------------------------------------------------------


def _complement_rows(S, Gm, Dc: Optional[Subbundle], p) -> np.ndarray:
    if Dc is None:
        G = Gm.matrix(p)
        rows = []
        for k in range(S.m):
            unit = np.zeros(S.m)
            unit[k] = 1.0
            rows.append(unit / np.sqrt(float(unit @ G @ unit)))
        return np.array(rows)
    return Projector(Dc, Gm).complement_basis(p)


def hj_residual(S, Gm, V: Optional[Potential], Dc: Optional[Subbundle], X: Section, p,
                gamma=None):
    """Pointwise Hamilton-Jacobi diagnostics for a candidate section.

    Returns ``(closedness, hj)``: the closedness hypothesis residual
    ``|G(nabla_X X, Y) - G(nabla_Y X, X)|`` and the Hamilton-Jacobi residual
    ``|d(G(X,X)/2 + V)(Y)|``, both maximized over a metric-orthonormal basis
    of the control complement (all directions when ``Dc`` is omitted).
    """
    p = S.check_point(p)
    if gamma is None:
        gamma = christoffel(S, Gm, p).gamma
    rows = _complement_rows(S, Gm, Dc, p)
    if rows.size == 0:
        return 0.0, 0.0
    G = Gm.matrix(p)
    Xp = X(p)
    nablaXX = covariant_derivative(S, Gm, X, X, p, gamma=gamma)

    def energy_density(x):
        value = 0.5 * float(X(x) @ Gm.matrix(x) @ X(x))
        return value + (V(x) if V is not None else 0.0)

    rho_E = d_function(S, energy_density, p)

    closedness = 0.0
    hj = 0.0
    for y in rows:
        nablaYX = covariant_derivative(S, Gm, Section.constant(y), X, p, gamma=gamma)
        closedness = max(closedness, abs(float(nablaXX @ G @ y) - float(nablaYX @ G @ Xp)))
        hj = max(hj, abs(float(y @ rho_E)))
    return closedness, hj


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
    details = {"closedness_residual": max(closedness, default=0.0),
               "section": getattr(X, "label", "")}
    if Dc is None:
        energies = [energy(S, Gm, V, (p, X(p))) for p in points]
        details["energy_spread"] = float(max(energies) - min(energies))
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

    worst, witness = 0.0, None
    count = len(gamma_traj)
    for k in range(1, count - 1):
        t = gamma_traj.times[k]
        value = covariant_derivative_along(S, Gm, gamma_traj, gamma_traj.fiber, t,
                                           gamma=gammas[k])
        if grad_V is not None:
            value = value + grad_V(gamma_traj.base[k])
        if projector is not None:
            value = projector.q_matrix(gamma_traj.base[k]) @ value
        residual = float(np.max(np.abs(value)))
        if residual > worst:
            worst, witness = residual, gamma_traj.base[k]

    stride = max(1, count // 16)
    closedness = max(
        hj_residual(S, Gm, V, Dc, X, gamma_traj.base[k], gamma=gammas[k])[0]
        for k in range(0, count, stride))

    details = {"closedness_residual": closedness, "horizon": horizon,
               "truncated": gamma_traj.truncated}
    if closedness > DEFAULT_ALGEBRAIC_TOL:
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
        return max((abs(float(y @ rho_f)) for y in P.complement_basis(p)), default=0.0)

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
