"""Command-line interface.

Each ``check-*`` command runs one check of the registry in
:mod:`algmech.report` with ``run_battery``'s defaults, so without overrides
it reproduces that check's battery entries.  Exit codes: 0 when every
verdict passes, 1 when any check fails (or is inconclusive), 2 on usage or
load errors, including a check that does not apply to the system.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys

import numpy as np

from .dynamics import ControlSignal, TotalPoint, integrate, spray_field
from .expr import ExprError
from .reduction import Subbundle
from .report import (
    CHECKS,
    check_entries,
    check_line,
    christoffel_table,
    closure_ranks,
    render_text,
    run_battery,
)
from .systems import BUILTINS, SpecError, SystemDefinition, builtin, load_spec, load_spec_file

__all__ = ["main"]


class UsageError(ValueError):
    pass


_BATTERY_DEFAULTS = inspect.signature(run_battery).parameters
_OPTION_HELP = {
    "tol": "algebraic tolerance",
    "traj_tol": "trajectory tolerance",
    "samples": "verification sample count",
    "seed": "sampling seed",
    "horizon": "trajectory horizon",
    "traj_step": "trajectory integration step",
}


def _add_common(parser, *options, formats=("json", "text")):
    """``--system``, ``--params``, ``--out``, ``--format`` (unless ``formats``
    is empty) and the named ``run_battery`` options, with its defaults."""
    parser.add_argument("--system", required=True,
                        help="builtin name or path to a JSON system document")
    parser.add_argument("--params", default="", help="comma-separated overrides k=v,...")
    parser.add_argument("--out", default=None, help="write the primary artifact here")
    if formats:
        parser.add_argument("--format", default="text", choices=formats)
    for name in options:
        default = _BATTERY_DEFAULTS[name].default
        parser.add_argument("--" + name.replace("_", "-"), type=type(default),
                            default=default, help=_OPTION_HELP[name])


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
        sysdef = load_spec(document)
    return sysdef


def _parse_point(text, size, what) -> np.ndarray:
    values = [float(v) for v in text.split(",")] if text else []
    if len(values) != size:
        raise UsageError(f"{what} needs {size} comma-separated values")
    return np.array(values)


def _position(ref: str, count: int) -> int:
    """The 0-based position named by the 1-based ``K`` of ``kind:K``, one of ``count``."""
    try:
        k = int(ref.split(":", 1)[1])
    except ValueError:
        k = 0
    if not 1 <= k <= count:
        raise UsageError(f"section reference {ref!r}: K must be an integer from 1 to {count}")
    return k - 1


def _resolve_section(sysdef, ref: str):
    """Section references: basis:K, control:K, candidate:NAME, or 'a;b;c' expressions."""
    if ref.startswith("basis:"):
        return sysdef.structure.basis_section(_position(ref, sysdef.m))
    if ref.startswith("control:"):
        if sysdef.controls is None:
            raise UsageError("system has no control sections")
        return sysdef.controls.sections[_position(ref, len(sysdef.controls.sections))]
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


def _resolve_span(sysdef, text: str) -> Subbundle:
    """Comma-separated section references."""
    return Subbundle(tuple(_resolve_section(sysdef, item) for item in text.split(",")),
                     label=text)


def _resolve_function(sysdef, ref: str) -> dict:
    """``candidate:NAME`` or an expression, as a one-entry mapping from its name."""
    if ref.startswith("candidate:"):
        name = ref.split(":", 1)[1]
        try:
            return {name: sysdef.reparam_candidates[name]}
        except KeyError:
            raise UsageError(f"unknown reparametrization candidate {name!r}") from None
    return {ref: ref}


def _emit(args, payload: dict, text: str) -> None:
    # allow_nan=False: a NaN or an infinity that reached the payload raises
    # here instead of printing invalid JSON.
    print(json.dumps(payload, indent=2, allow_nan=False) if args.format == "json" else text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as stream:
            stream.write(json.dumps(payload, indent=2, allow_nan=False) + "\n")


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
        if sysdef.controls is None:
            raise UsageError(f"system {sysdef.name!r} declares no control distribution")
        inputs = sysdef.controls.sections
        signal = ControlSignal(args.controls.split(";"), sysdef.coords, sysdef.params,
                               mode=args.control_mode)
    field = spray_field(sysdef.structure, sysdef.metric, sysdef.effective_force(), inputs, signal)
    traj = integrate(field, TotalPoint(base, fiber), args.t0, args.t1, args.step,
                     chart=sysdef.chart)
    out = args.out or "trajectory.csv"
    traj.to_csv(out)
    status = "truncated: " + traj.reason if traj.truncated else "complete"
    print(f"integrated {sysdef.name} over [{args.t0}, {args.t1}] "
          f"step {traj.step:g} -> {out} ({len(traj)} samples, {status})")
    return 0


def _cmd_check(args) -> int:
    """Run one registry check, with the command's subject and options."""
    sysdef = _load_system(args)
    reason = CHECKS[args.check][0](sysdef)
    # A geodesic-invariance span names its own sections and needs no controls.
    if reason and not (args.check == "geodesic_invariance" and args.subject):
        raise UsageError(reason)
    subject = args.resolve(sysdef, args.subject) if args.subject else None
    options = vars(args)
    if args.p0:
        options = {**options, "p0": _parse_point(args.p0, sysdef.n, "--p0")}
    points = sysdef.sample(args.samples, args.seed)
    checks = check_entries(args.check, sysdef, points, options, subject)
    _emit(args, {"system": sysdef.name, "checks": checks}, "\n".join(map(check_line, checks)))
    return 0 if all(check["verdict"] == "pass" for check in checks) else 1


def _cmd_closure(args) -> int:
    sysdef = _load_system(args)
    point = _parse_point(args.at, sysdef.n, "--at") if args.at else sysdef.sample(1, args.seed)[0]
    ranks = closure_ranks(sysdef, point, args.depth)
    bounds = {"lie_closure": f"base dim {sysdef.n}", "symmetric_closure": f"fiber rank {sysdef.m}"}
    lines = [] if sysdef.n else ["lie closure rank: 0 (point base)"]
    lines += [f"{kind.replace('_', ' ')} rank at depth {info['depth']}: {info['rank']} "
              f"({bounds[kind]})" for kind, info in ranks.items()]
    lines.append("note: ranks are reported at the chosen point only")
    _emit(args, {"system": sysdef.name, "ranks": ranks}, "\n".join(lines))
    return 0


def _cmd_report(args) -> int:
    sysdef = _load_system(args)
    battery = run_battery(sysdef, **{name: getattr(args, name) for name in _OPTION_HELP})
    _emit(args, battery, render_text(battery))
    return 0 if all(v == "pass" for v in battery["verdicts"].values()) else 1


_SPAN_HELP = "comma-separated section references (default: the controls)"
_SECTION_HELP = "basis:K | control:K | candidate:NAME | 'a;b;c'"
# command: (registry check, help, subject flag, its resolver, its help)
_CHECK_COMMANDS = {
    "check-decoupling": ("decoupling", "decoupling test for control sections", "--section",
                         _resolve_section, f"{_SECTION_HELP} (default: every control)"),
    "check-reduction": ("kinematic_reduction", "kinematic-reduction test for a span", "--span",
                        _resolve_span, _SPAN_HELP),
    "check-geoinv": ("geodesic_invariance", "geodesic invariance of a span", "--span",
                     _resolve_span, _SPAN_HELP),
    "check-maxred": ("maximal_reducibility", "maximal reducibility to a driftless system",
                     "--span", _resolve_span, _SPAN_HELP),
    "check-hj": ("hj", "Hamilton-Jacobi residuals for candidate sections", "--section",
                 _resolve_section, f"{_SECTION_HELP} (default: every candidate)"),
    "check-reparam": ("reparam", "reparametrization admissibility of a factor", "--function",
                      _resolve_function,
                      "candidate:NAME or an expression (default: every candidate)"),
}


# One parser per process: parse_args reads the parser and never mutates it.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="algmech",
        description="Mechanics on skew-symmetric algebroids: connection tables, "
                    "simulation, and the kinematic-reduction verification battery.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("christoffel", help="connection coefficients at a point")
    _add_common(p, formats=("json", "csv", "text"))
    p.add_argument("--at", default=None, help="comma-separated base point")
    p.set_defaults(fn=_cmd_christoffel)

    p = sub.add_parser("simulate", help="integrate the forced or controlled dynamics")
    _add_common(p, formats=())
    p.add_argument("--initial-base", default=None)
    p.add_argument("--initial-fiber", default=None)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, default=1.0)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--controls", default=None, help="';'-separated control expressions")
    p.add_argument("--control-mode", default=ControlSignal.STATE_FEEDBACK,
                   choices=(ControlSignal.STATE_FEEDBACK, ControlSignal.TIME_DRIVEN))
    p.set_defaults(fn=_cmd_simulate)

    for command, (check, text, flag, resolve, flag_help) in _CHECK_COMMANDS.items():
        p = sub.add_parser(command, help=text)
        trajectory = ("traj_tol", "horizon", "traj_step") \
            if check in ("geodesic_invariance", "hj") else ()
        _add_common(p, "tol", "samples", "seed", *trajectory)
        p.add_argument(flag, dest="subject", metavar=flag[2:].upper(), default=None,
                       help=flag_help)
        if check == "hj":
            p.add_argument("--p0", default=None, help="start point for the trajectory check")
        p.set_defaults(fn=_cmd_check, check=check, resolve=resolve, p0=None)

    p = sub.add_parser("closure", help="Lie and symmetric closure ranks at a point")
    _add_common(p, "seed")
    p.add_argument("--at", default=None)
    p.add_argument("--depth", type=int, default=3)
    p.set_defaults(fn=_cmd_closure)

    p = sub.add_parser("report", help="full verification battery")
    _add_common(p, *_OPTION_HELP)
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
