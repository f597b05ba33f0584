"""Aggregated verification batteries and report documents."""

from __future__ import annotations

import numpy as np

from .algebroid import lie_closure_rank
from .geometry import christoffel
from .reduction import (
    DEFAULT_ALGEBRAIC_TOL,
    DEFAULT_TRAJECTORY_TOL,
    geodesic_invariance_check,
    hj_algebraic_check,
    hj_trajectory_equivalence,
    is_decoupling,
    kinematic_reduction_check,
    maximal_reducibility_check,
    reparam_admissible,
    symmetric_closure,
)
from .systems import SystemDefinition

__all__ = ["christoffel_table", "hj_algebraic_check", "run_battery", "render_text"]


def christoffel_table(sysdef: SystemDefinition, point=None) -> dict:
    """Connection coefficients above 1e-9 in magnitude at a point, 1-based indices."""
    p = sysdef.center() if point is None else np.asarray(point, dtype=float)
    gamma = christoffel(sysdef.structure, sysdef.metric, p).gamma
    entries = []
    for (a, b, c), value in np.ndenumerate(gamma):
        if abs(value) > 1e-9:
            entries.append({"upper": a + 1, "lower": [b + 1, c + 1], "value": float(value)})
    return {"point": [float(v) for v in p], "entries": entries}


def run_battery(sysdef: SystemDefinition, tol=DEFAULT_ALGEBRAIC_TOL,
                traj_tol=DEFAULT_TRAJECTORY_TOL, samples: int = 20, seed: int = 0,
                horizon: float = 1.0, traj_step: float = 1e-2, depth: int = 3) -> dict:
    """Run every predicate that makes sense for the system and aggregate.

    Returns a JSON-serializable document embedding the seed and tolerances.
    """
    S, Gm = sysdef.structure, sysdef.metric
    points = sysdef.sample(samples, seed)
    anchor_point = points[0]
    checks = []
    verdicts = {}

    def add(label, rep):
        checks.append({"label": label, **rep.to_dict()})
        verdicts[label] = rep.verdict

    force = sysdef.effective_force()
    if sysdef.controls is not None:
        controls = sysdef.controls
        for X in controls.sections:
            rep = is_decoupling(S, Gm, controls, X, points, tol, force=force)
            add(f"decoupling:{X.label}", rep)
        add("kinematic_reduction:controls",
            kinematic_reduction_check(S, Gm, controls, controls, points, tol,
                                      force=force))
        add("geodesic_invariance:controls",
            geodesic_invariance_check(S, Gm, controls, points, tol,
                                      horizon=horizon, step=traj_step, traj_tol=traj_tol,
                                      seed=seed))
        if force is None:
            add("maximal_reducibility",
                maximal_reducibility_check(S, Gm, controls, controls, points, tol))

        for name, X in sysdef.candidates.items():
            add(f"hj:{name}", hj_algebraic_check(sysdef, X, points, tol))
            add(f"hj_trajectory:{name}",
                hj_trajectory_equivalence(S, Gm, sysdef.potential, sysdef.controls, X,
                                          anchor_point, horizon, traj_step, tol=traj_tol))
        for name, f in sysdef.reparam_candidates.items():
            add(f"reparam:{name}", reparam_admissible(S, Gm, sysdef.controls, f, points, tol))

    ranks = {}
    if sysdef.n:
        sections = sysdef.controls.sections if sysdef.controls else None
        ranks["lie_closure"] = {
            "point": [float(v) for v in anchor_point],
            "depth": depth,
            "rank": lie_closure_rank(S, anchor_point, depth, sections=sections),
        }
    if sysdef.controls is not None:
        rank, generators = symmetric_closure(S, Gm, sysdef.controls, depth, anchor_point)
        ranks["symmetric_closure"] = {
            "point": [float(v) for v in anchor_point],
            "depth": depth,
            "rank": rank,
            "generators": [g.label for g in generators],
        }

    return {
        "system": sysdef.name,
        "parameters": sysdef.params,
        "seed": seed,
        "samples": samples,
        "tolerances": {"algebraic": float(tol), "trajectory": float(traj_tol)},
        "christoffel": christoffel_table(sysdef, anchor_point),
        "checks": checks,
        "verdicts": verdicts,
        "ranks": ranks,
    }


def render_text(report: dict) -> str:
    """Human-readable summary of a battery report."""
    lines = [f"system: {report['system']}  "
             f"params: {report['parameters']}  seed: {report['seed']}"]
    lines.append(f"tolerances: algebraic {report['tolerances']['algebraic']:g}, "
                 f"trajectory {report['tolerances']['trajectory']:g}")
    table = report.get("christoffel", {})
    if table:
        lines.append(f"christoffel at {np.round(table['point'], 6).tolist()}:")
        if not table["entries"]:
            lines.append("  (all coefficients vanish)")
        for entry in table["entries"]:
            b, c = entry["lower"]
            lines.append(f"  gamma^{entry['upper']}_{b}{c} = {entry['value']:.6g}")
    for check in report.get("checks", []):
        mark = {"pass": "PASS", "fail": "FAIL", "inconclusive": "????"}[check["verdict"]]
        lines.append(f"[{mark}] {check['label']}: worst residual "
                     f"{check['worst_residual']:.3e} (tol {check['tolerance']:g})")
        if check["verdict"] != "pass" and check.get("witness_point") is not None:
            lines.append(f"       witness: {np.round(check['witness_point'], 6).tolist()}")
    for kind, info in report.get("ranks", {}).items():
        lines.append(f"{kind}: rank {info['rank']} at depth {info['depth']}")
    return "\n".join(lines)
