"""Command-line interface.

Exit codes: 0 when every verdict passes, 1 when any check fails (or is
inconclusive), 2 on usage or load errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .algebroid import lie_closure_rank
from .dynamics import ControlSignal, TotalPoint, integrate, spray_field
from .expr import ExprError
from .reduction import (
    Subbundle,
    geodesic_invariance_check,
    hj_trajectory_equivalence,
    is_decoupling,
    kinematic_reduction_check,
    maximal_reducibility_check,
    reparam_admissible,
    symmetric_closure,
)
from .report import christoffel_table, hj_algebraic_check, render_text, run_battery
from .systems import BUILTINS, SpecError, SystemDefinition, builtin, load_spec_file

__all__ = ["main"]


class UsageError(ValueError):
    pass


def _add_common(parser):
    parser.add_argument("--system", required=True,
                        help="builtin name or path to a JSON system document")
    parser.add_argument("--params", default="", help="comma-separated overrides k=v,...")
    parser.add_argument("--tol", type=float, default=1e-5, help="algebraic tolerance")
    parser.add_argument("--traj-tol", type=float, default=1e-3, help="trajectory tolerance")
    parser.add_argument("--samples", type=int, default=20, help="verification sample count")
    parser.add_argument("--seed", type=int, default=0, help="sampling seed")
    parser.add_argument("--out", default=None, help="write the primary artifact here")
    parser.add_argument("--format", default="text", choices=("json", "csv", "text"))


def _load_system(args) -> SystemDefinition:
    overrides = {}
    if args.params:
        for item in args.params.split(","):
            if not item:
                continue
            if "=" not in item:
                raise UsageError(f"malformed parameter override {item!r}")
            key, value = item.split("=", 1)
            overrides[key.strip()] = float(value)
    if args.system in BUILTINS:
        return builtin(args.system, **overrides)
    sysdef = load_spec_file(args.system)
    if overrides:
        document = dict(sysdef.document)
        document["parameters"] = {**document.get("parameters", {}), **overrides}
        from .systems import load_spec

        sysdef = load_spec(document)
    return sysdef


def _parse_point(text, size, what) -> np.ndarray:
    values = [float(v) for v in text.split(",")] if text else []
    if len(values) != size:
        raise UsageError(f"{what} needs {size} comma-separated values")
    return np.array(values)


def _resolve_section(sysdef, ref: str):
    """Section references: basis:K, control:K, candidate:NAME, or 'a;b;c' expressions."""
    if ref.startswith("basis:"):
        index = int(ref.split(":", 1)[1])
        return sysdef.structure.basis_section(index - 1)
    if ref.startswith("control:"):
        index = int(ref.split(":", 1)[1])
        if sysdef.controls is None:
            raise UsageError("system has no control sections")
        return sysdef.controls.sections[index - 1]
    if ref.startswith("candidate:"):
        name = ref.split(":", 1)[1]
        try:
            return sysdef.candidates[name]
        except KeyError:
            raise UsageError(f"unknown candidate section {name!r}") from None
    entries = ref.split(";")
    if len(entries) != sysdef.m:
        raise UsageError(f"expected {sysdef.m} ';'-separated coefficients")
    return sysdef.section_from_exprs(entries, label=ref)


def _resolve_function(sysdef, ref: str):
    if ref.startswith("candidate:"):
        name = ref.split(":", 1)[1]
        try:
            return sysdef.reparam_candidates[name]
        except KeyError:
            raise UsageError(f"unknown reparametrization candidate {name!r}") from None
    return ref


def _controls_required(sysdef) -> Subbundle:
    if sysdef.controls is None:
        raise UsageError(f"system {sysdef.name!r} declares no control distribution")
    return sysdef.controls


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        body = json.dumps(payload, indent=2)
    else:
        body = text
    print(body)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as stream:
            stream.write(json.dumps(payload, indent=2) + "\n")


def _exit_code(reports) -> int:
    return 0 if all(r.verdict == "pass" for r in reports) else 1


def _cmd_christoffel(args) -> int:
    sysdef = _load_system(args)
    point = _parse_point(args.at, sysdef.n, "--at") if args.at else sysdef.center()
    table = christoffel_table(sysdef, point)
    if args.format == "csv":
        lines = ["A,B,C,value"]
        for e in table["entries"]:
            lines.append(f"{e['upper']},{e['lower'][0]},{e['lower'][1]},{e['value']:.17g}")
        body = "\n".join(lines)
        print(body)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as stream:
                stream.write(body + "\n")
        return 0
    text_lines = [f"christoffel symbols for {sysdef.name} at {np.round(point, 6).tolist()}"]
    for e in table["entries"]:
        b, c = e["lower"]
        text_lines.append(f"  gamma^{e['upper']}_{b}{c} = {e['value']:.6g}")
    if not table["entries"]:
        text_lines.append("  (all coefficients vanish)")
    _emit(args, {"system": sysdef.name, **table}, "\n".join(text_lines))
    return 0


def _cmd_simulate(args) -> int:
    sysdef = _load_system(args)
    base = _parse_point(args.initial_base, sysdef.n, "--initial-base") \
        if args.initial_base else sysdef.center()
    fiber = _parse_point(args.initial_fiber, sysdef.m, "--initial-fiber") \
        if args.initial_fiber else np.full(sysdef.m, 0.1)
    inputs, signal = (), None
    if args.controls:
        inputs = _controls_required(sysdef).sections
        signal = ControlSignal(args.controls.split(";"), sysdef.coords, sysdef.params,
                               mode=args.control_mode)
    field = spray_field(sysdef.structure, sysdef.metric, sysdef.force, inputs, signal)
    traj = integrate(field, TotalPoint(base, fiber), args.t0, args.t1, args.step,
                     chart=sysdef.chart)
    out = args.out or "trajectory.csv"
    traj.to_csv(out)
    status = "truncated: " + traj.reason if traj.truncated else "complete"
    print(f"integrated {sysdef.name} over [{args.t0}, {args.t1}] "
          f"step {traj.step:g} -> {out} ({len(traj)} samples, {status})")
    return 0


def _cmd_check_decoupling(args) -> int:
    sysdef = _load_system(args)
    controls = _controls_required(sysdef)
    points = sysdef.sample(args.samples, args.seed)
    if args.section:
        sections = [_resolve_section(sysdef, args.section)]
    else:
        sections = list(controls.sections)
    reports = [is_decoupling(sysdef.structure, sysdef.metric, controls, X, points,
                             args.tol, force=sysdef.effective_force()) for X in sections]
    payload = {"system": sysdef.name, "checks": [r.to_dict() for r in reports]}
    lines = [f"[{r.verdict.upper()}] decoupling {X.label or '?'}: "
             f"worst {r.worst_residual:.3e}" for X, r in zip(sections, reports)]
    _emit(args, payload, "\n".join(lines))
    return _exit_code(reports)


def _span_from_arg(sysdef, text) -> Subbundle:
    if not text:
        return _controls_required(sysdef)
    sections = tuple(_resolve_section(sysdef, item) for item in text.split(","))
    return Subbundle(sections, label=text)


def _cmd_check_reduction(args) -> int:
    sysdef = _load_system(args)
    controls = _controls_required(sysdef)
    candidate = _span_from_arg(sysdef, args.span)
    points = sysdef.sample(args.samples, args.seed)
    rep = kinematic_reduction_check(sysdef.structure, sysdef.metric, controls, candidate,
                                    points, args.tol, force=sysdef.effective_force())
    _emit(args, {"system": sysdef.name, "check": rep.to_dict()},
          f"[{rep.verdict.upper()}] kinematic reduction: worst {rep.worst_residual:.3e}")
    return _exit_code([rep])


def _cmd_check_geoinv(args) -> int:
    sysdef = _load_system(args)
    candidate = _span_from_arg(sysdef, args.span)
    points = sysdef.sample(args.samples, args.seed)
    rep = geodesic_invariance_check(sysdef.structure, sysdef.metric, candidate, points,
                                    args.tol, horizon=args.horizon, step=args.traj_step,
                                    traj_tol=args.traj_tol, seed=args.seed)
    _emit(args, {"system": sysdef.name, "check": rep.to_dict()},
          f"[{rep.verdict.upper()}] geodesic invariance: worst {rep.worst_residual:.3e}")
    return _exit_code([rep])


def _cmd_check_maxred(args) -> int:
    sysdef = _load_system(args)
    controls = _controls_required(sysdef)
    candidate = _span_from_arg(sysdef, args.span)
    points = sysdef.sample(args.samples, args.seed)
    rep = maximal_reducibility_check(sysdef.structure, sysdef.metric, controls, candidate,
                                     points, args.tol, force=sysdef.effective_force())
    _emit(args, {"system": sysdef.name, "check": rep.to_dict()},
          f"[{rep.verdict.upper()}] maximal reducibility: worst {rep.worst_residual:.3e}")
    return _exit_code([rep])


def _cmd_check_hj(args) -> int:
    sysdef = _load_system(args)
    _controls_required(sysdef)
    X = _resolve_section(sysdef, args.section)
    points = sysdef.sample(args.samples, args.seed)
    algebraic = hj_algebraic_check(sysdef, X, points, args.tol)
    p0 = _parse_point(args.p0, sysdef.n, "--p0") if args.p0 else points[0]
    trajectory = hj_trajectory_equivalence(sysdef.structure, sysdef.metric, sysdef.potential,
                                           sysdef.controls, X, p0, args.horizon,
                                           args.traj_step, tol=args.traj_tol)
    payload = {"system": sysdef.name, "section": args.section,
               "algebraic": algebraic.to_dict(), "trajectory": trajectory.to_dict()}
    text = "\n".join([
        f"[{algebraic.verdict.upper()}] hj residual: worst {algebraic.worst_residual:.3e} "
        f"(closedness {algebraic.details['closedness_residual']:.3e})",
        f"[{trajectory.verdict.upper()}] hj trajectory: worst {trajectory.worst_residual:.3e}",
    ])
    if algebraic.verdict == "fail" and algebraic.witness_point is not None:
        text += f"\nwitness: {np.round(algebraic.witness_point, 6).tolist()}"
    _emit(args, payload, text)
    return _exit_code([algebraic, trajectory])


def _cmd_check_reparam(args) -> int:
    sysdef = _load_system(args)
    controls = _controls_required(sysdef)
    f = _resolve_function(sysdef, args.function)
    points = sysdef.sample(args.samples, args.seed)
    rep = reparam_admissible(sysdef.structure, sysdef.metric, controls, f, points, args.tol)
    _emit(args, {"system": sysdef.name, "check": rep.to_dict()},
          f"[{rep.verdict.upper()}] reparametrization: worst {rep.worst_residual:.3e}")
    return _exit_code([rep])


def _cmd_closure(args) -> int:
    sysdef = _load_system(args)
    point = _parse_point(args.at, sysdef.n, "--at") if args.at else sysdef.sample(1, args.seed)[0]
    payload = {"system": sysdef.name, "point": [float(v) for v in point], "depth": args.depth}
    lines = []
    if sysdef.n:
        sections = sysdef.controls.sections if sysdef.controls else None
        rank = lie_closure_rank(sysdef.structure, point, args.depth, sections=sections)
        payload["lie_closure_rank"] = rank
        lines.append(f"lie closure rank at depth {args.depth}: {rank} (base dim {sysdef.n})")
    else:
        payload["lie_closure_rank"] = 0
        lines.append("lie closure rank: 0 (point base)")
    if sysdef.controls is not None:
        rank, generators = symmetric_closure(sysdef.structure, sysdef.metric,
                                             sysdef.controls, args.depth, point)
        payload["symmetric_closure_rank"] = rank
        payload["generators"] = [g.label for g in generators]
        lines.append(f"symmetric closure rank at depth {args.depth}: {rank} "
                     f"(fiber rank {sysdef.m})")
    lines.append("note: ranks are reported at the chosen point only")
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_report(args) -> int:
    sysdef = _load_system(args)
    battery = run_battery(sysdef, tol=args.tol, traj_tol=args.traj_tol,
                          samples=args.samples, seed=args.seed,
                          horizon=args.horizon, traj_step=args.traj_step)
    _emit(args, battery, render_text(battery))
    failed = [v for v in battery["verdicts"].values() if v != "pass"]
    return 1 if failed else 0


# One parser per process: parse_args reads the parser and never mutates it.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="algmech",
        description="Mechanics on skew-symmetric algebroids: connection tables, "
                    "simulation, and the kinematic-reduction verification battery.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("christoffel", help="connection coefficients at a point")
    _add_common(p)
    p.add_argument("--at", default=None, help="comma-separated base point")
    p.set_defaults(fn=_cmd_christoffel)

    p = sub.add_parser("simulate", help="integrate the forced or controlled dynamics")
    _add_common(p)
    p.add_argument("--initial-base", default=None)
    p.add_argument("--initial-fiber", default=None)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, default=1.0)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--controls", default=None, help="';'-separated control expressions")
    p.add_argument("--control-mode", default=ControlSignal.STATE_FEEDBACK,
                   choices=(ControlSignal.STATE_FEEDBACK, ControlSignal.TIME_DRIVEN))
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("check-decoupling", help="decoupling test for control sections")
    _add_common(p)
    p.add_argument("--section", default=None,
                   help="basis:K | control:K | candidate:NAME | 'a;b;c' (default: all controls)")
    p.set_defaults(fn=_cmd_check_decoupling)

    p = sub.add_parser("check-reduction", help="kinematic-reduction test for a span")
    _add_common(p)
    p.add_argument("--span", default=None, help="comma-separated section references")
    p.set_defaults(fn=_cmd_check_reduction)

    p = sub.add_parser("check-geoinv", help="geodesic invariance of a span")
    _add_common(p)
    p.add_argument("--span", default=None)
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--traj-step", type=float, default=1e-2)
    p.set_defaults(fn=_cmd_check_geoinv)

    p = sub.add_parser("check-maxred", help="maximal reducibility to a driftless system")
    _add_common(p)
    p.add_argument("--span", default=None)
    p.set_defaults(fn=_cmd_check_maxred)

    p = sub.add_parser("check-hj", help="Hamilton-Jacobi residuals for a candidate section")
    _add_common(p)
    p.add_argument("--section", required=True)
    p.add_argument("--p0", default=None, help="start point for the trajectory check")
    p.add_argument("--horizon", type=float, default=2.0)
    p.add_argument("--traj-step", type=float, default=1e-3)
    p.set_defaults(fn=_cmd_check_hj)

    p = sub.add_parser("check-reparam", help="reparametrization admissibility of a factor")
    _add_common(p)
    p.add_argument("--function", required=True, help="candidate:NAME or an expression")
    p.set_defaults(fn=_cmd_check_reparam)

    p = sub.add_parser("closure", help="Lie and symmetric closure ranks at a point")
    _add_common(p)
    p.add_argument("--at", default=None)
    p.add_argument("--depth", type=int, default=3)
    p.set_defaults(fn=_cmd_closure)

    p = sub.add_parser("report", help="full verification battery")
    _add_common(p)
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--traj-step", type=float, default=1e-2)
    p.set_defaults(fn=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (SpecError, ExprError, UsageError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
