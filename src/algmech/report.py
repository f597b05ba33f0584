"""The check registry, aggregated verification batteries and report documents."""

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

__all__ = ["CHECKS", "check_entries", "check_line", "christoffel_table", "closure_ranks",
           "hj_algebraic_check", "run_battery", "render_text"]


def christoffel_table(sysdef: SystemDefinition, point=None) -> dict:
    """Connection coefficients above 1e-9 in magnitude at a point, 1-based indices."""
    p = sysdef.center() if point is None else np.asarray(point, dtype=float)
    gamma = christoffel(sysdef.structure, sysdef.metric, p).gamma
    entries = []
    for (a, b, c), value in np.ndenumerate(gamma):
        if abs(value) > 1e-9:
            entries.append({"upper": a + 1, "lower": [b + 1, c + 1], "value": float(value)})
    return {"point": [float(v) for v in p], "entries": entries}


def closure_ranks(sysdef: SystemDefinition, point, depth: int = 3) -> dict:
    """Lie closure rank (of the controls, or of the frame) and symmetric closure
    rank of the controls at one point; a block is left out where it has no meaning."""
    at = [float(v) for v in point]
    ranks = {}
    if sysdef.n:
        sections = sysdef.controls.sections if sysdef.controls else None
        ranks["lie_closure"] = {
            "point": at, "depth": depth,
            "rank": lie_closure_rank(sysdef.structure, point, depth, sections=sections),
        }
    if sysdef.controls is not None:
        rank, generators = symmetric_closure(sysdef.structure, sysdef.metric,
                                             sysdef.controls, depth, point)
        ranks["symmetric_closure"] = {"point": at, "depth": depth, "rank": rank,
                                      "generators": [g.label for g in generators]}
    return ranks


# --- the check registry -------------------------------------------------------------
#
# ``why_not(sysdef)`` is None or the reason a check does not apply to a system.
# ``run(sysdef, points, options, subject=None)`` yields ``(label, report)`` pairs;
# ``options`` holds ``tol`` and, for trajectory checks, ``traj_tol``, ``horizon``,
# ``traj_step``, ``seed`` and an optional start point ``p0``.  ``subject``
# replaces the system's own controls or candidates: a section, a span, or a
# mapping of names to reparametrization factors.  Each ``run`` calls its
# predicate by module-global name, so wrappers installed on this module's
# bindings see every call.


def _no_controls(sysdef) -> str | None:
    if sysdef.controls is None:
        return f"system {sysdef.name!r} declares no control distribution"
    return None


def _not_force_free(sysdef) -> str | None:
    if sysdef.controls is not None and sysdef.effective_force() is not None:
        return "maximal reducibility requires a force-free system"
    return _no_controls(sysdef)


def _decoupling(sysdef, points, options, subject=None):
    force = sysdef.effective_force()
    for X in sysdef.controls.sections if subject is None else [subject]:
        yield f"decoupling:{X.label}", is_decoupling(
            sysdef.structure, sysdef.metric, sysdef.controls, X, points, options["tol"],
            force=force)


def _kinematic_reduction(sysdef, points, options, subject=None):
    span = sysdef.controls if subject is None else subject
    yield f"kinematic_reduction:{span.label}", kinematic_reduction_check(
        sysdef.structure, sysdef.metric, sysdef.controls, span, points, options["tol"],
        force=sysdef.effective_force())


def _geodesic_invariance(sysdef, points, options, subject=None):
    span = sysdef.controls if subject is None else subject
    yield f"geodesic_invariance:{span.label}", geodesic_invariance_check(
        sysdef.structure, sysdef.metric, span, points, options["tol"],
        horizon=options["horizon"], step=options["traj_step"],
        traj_tol=options["traj_tol"], seed=options["seed"])


def _maximal_reducibility(sysdef, points, options, subject=None):
    span = sysdef.controls if subject is None else subject
    yield "maximal_reducibility", maximal_reducibility_check(
        sysdef.structure, sysdef.metric, sysdef.controls, span, points, options["tol"],
        force=sysdef.effective_force())


def _hj(sysdef, points, options, subject=None):
    p0 = options.get("p0")
    for X in sysdef.candidates.values() if subject is None else [subject]:
        yield f"hj:{X.label}", hj_algebraic_check(sysdef, X, points, options["tol"])
        yield f"hj_trajectory:{X.label}", hj_trajectory_equivalence(
            sysdef.structure, sysdef.metric, sysdef.potential, sysdef.controls, X,
            points[0] if p0 is None else p0, options["horizon"], options["traj_step"],
            tol=options["traj_tol"])


def _reparam(sysdef, points, options, subject=None):
    for name, f in (sysdef.reparam_candidates if subject is None else subject).items():
        yield f"reparam:{name}", reparam_admissible(
            sysdef.structure, sysdef.metric, sysdef.controls, f, points, options["tol"])


# The battery runs the applicable checks in this order.
CHECKS = {
    "decoupling": (_no_controls, _decoupling),
    "kinematic_reduction": (_no_controls, _kinematic_reduction),
    "geodesic_invariance": (_no_controls, _geodesic_invariance),
    "maximal_reducibility": (_not_force_free, _maximal_reducibility),
    "hj": (_no_controls, _hj),
    "reparam": (_no_controls, _reparam),
}


def check_entries(name: str, sysdef: SystemDefinition, points, options: dict,
                  subject=None) -> list:
    """The battery document's check entries from one registry check."""
    _, run = CHECKS[name]
    return [{"label": label, **rep.to_dict()}
            for label, rep in run(sysdef, points, options, subject)]


def run_battery(sysdef: SystemDefinition, tol=DEFAULT_ALGEBRAIC_TOL,
                traj_tol=DEFAULT_TRAJECTORY_TOL, samples: int = 20, seed: int = 0,
                horizon: float = 1.0, traj_step: float = 1e-2, depth: int = 3) -> dict:
    """Run every registry check that applies to the system and aggregate.

    Returns a JSON-serializable document embedding the seed and tolerances.
    """
    points = sysdef.sample(samples, seed)
    options = {"tol": tol, "traj_tol": traj_tol, "seed": seed,
               "horizon": horizon, "traj_step": traj_step}
    checks = [entry for name, (why_not, _) in CHECKS.items() if why_not(sysdef) is None
              for entry in check_entries(name, sysdef, points, options)]
    return {
        "system": sysdef.name,
        "parameters": sysdef.params,
        "seed": seed,
        "samples": samples,
        "tolerances": {"algebraic": float(tol), "trajectory": float(traj_tol)},
        "christoffel": christoffel_table(sysdef, points[0]),
        "checks": checks,
        "verdicts": {check["label"]: check["verdict"] for check in checks},
        "ranks": closure_ranks(sysdef, points[0], depth),
    }


def check_line(check: dict) -> str:
    """One check entry as text: verdict, label, worst residual, and the
    witness of a check that did not pass."""
    mark = {"pass": "PASS", "fail": "FAIL", "inconclusive": "????"}[check["verdict"]]
    line = (f"[{mark}] {check['label']}: worst residual "
            f"{check['worst_residual']:.3e} (tol {check['tolerance']:g})")
    if check["verdict"] != "pass" and check.get("witness_point") is not None:
        line += f"\n       witness: {np.round(check['witness_point'], 6).tolist()}"
    return line


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
    lines.extend(check_line(check) for check in report.get("checks", []))
    for kind, info in report.get("ranks", {}).items():
        lines.append(f"{kind}: rank {info['rank']} at depth {info['depth']}")
    return "\n".join(lines)
