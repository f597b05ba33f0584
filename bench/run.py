"""Benchmark for algmech: geodesic integration, the verification battery and
CLI document loading, with an optional traced run for per-layer figures.

    python3 bench/run.py --workload {geodesic,battery,load} --seed N \
        --seconds S --trace {0,1}

Run from anywhere inside a checkout; algmech is imported from its ``src``.
Everything runs closed-loop in this one process (each operation starts when
the previous one returned), with BLAS pinned to one thread; only set-up is
timed in separate fresh interpreters.  A round is one pass over the
workload's operations, the same inputs every round.

A reference kernel runs every 50 ms throughout, to factor the machine's
varying speed out of costs (see ``reference.py``); its time is subtracted
from operations and spans.  ``--trace 0`` measures the end-to-end metrics.
``--trace 1`` alternates untraced and traced rounds and reports per-layer
metrics per traced round plus the tracing overhead.  Every operation's
output is checked.  The last line of standard output is the result object;
the line before it holds run metadata and the absolute figures under their
workload-specific names.  The process exits non-zero without a result if
the checkout has no ``src/algmech``.
"""

from __future__ import annotations

import os

BLAS_PIN = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Must be set before numpy is imported; set-up interpreters inherit it.
for _var in BLAS_PIN:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import reference  # noqa: E402
import tracer as tracing  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
clock = time.perf_counter

SYSTEMS = ("planar_body", "robotic_leg", "snakeboard")
SETUP_RUNS = 5
IMPORTTIME_RUNS = 3
SETUP_TIMEOUT_S = 120
IMPORTS = {"algmech": "setup.import.algmech_s", "scipy.stats": "setup.import.scipy_stats_s"}
REDUCTION_PREDICATES = (
    "is_decoupling", "kinematic_reduction_check", "geodesic_invariance_check",
    "maximal_reducibility_check", "hj_residual", "hj_trajectory_equivalence",
    "reparam_admissible", "symmetric_closure",
)


def end_to_end_names() -> list:
    """End-to-end metric names with their units, in output order.

    ``op_rel.<system>`` is the median cost of one unit of the workload's work
    on that system (an RK4 step, a ``run_battery`` call, a CLI document) in
    units of the reference kernel's time; see ``reference.py``.
    """
    return [("setup_s", "s"), ("peak_rss_mb", "MB")] + \
        [(f"op_rel.{name}", "ref") for name in SYSTEMS]


def per_layer_names() -> list:
    """Per-layer metric names with their units, in output order."""
    out = []
    for name in ("expr.parse", "expr.fd_partial", "expr.fd_directional", "expr.fd_gradient",
                 "algebroid.anchor", "algebroid.structure", "geometry.metric",
                 "geometry.christoffel", "geometry.symmetric_product",
                 "geometry.covariant_derivative", "dynamics.field",
                 "reduction.q_matrix", "reduction.complement_basis", "systems.load_spec"):
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [("algebroid.vector_field_bracket.calls", "count"),
            ("algebroid.lie_closure_rank.self_s", "s"),
            ("algebroid.sample.self_s", "s"),
            ("geometry.christoffel_field.lookups", "count"),
            ("geometry.christoffel_field.hit_ratio", "ratio"),
            ("dynamics.integrate.steps", "count"),
            ("dynamics.integrate.self_s", "s")]
    out += [(f"reduction.{name}.s", "s") for name in REDUCTION_PREDICATES]
    out += [("systems.validate.self_s", "s"),
            ("report.run_battery.self_s", "s"),
            ("report.hj_algebraic_check.s", "s"),
            ("report.christoffel_table.s", "s"),
            ("cli.main.self_s", "s"),
            ("setup.import.algmech_s", "s"),
            ("setup.import.scipy_stats_s", "s")]
    for system in SYSTEMS:
        out += [(f"{system}.geometry.christoffel.calls", "count"),
                (f"{system}.expr.fd_partial.calls", "count"),
                (f"{system}.dynamics.integrate.steps", "count"),
                (f"{system}.geometry.christoffel.share", "ratio")]
    out += [("trace.overhead", "ratio"), ("trace.selfcheck_violations", "count")]
    return out


def import_algmech():
    """Import algmech from this checkout's ``src`` or exit with status 2."""
    if not (SRC / "algmech" / "__init__.py").is_file():
        print(f"error: no algmech package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import algmech

    if Path(algmech.__file__).resolve().parent != SRC / "algmech":
        print(f"error: imported algmech from {algmech.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


# --- set-up in fresh interpreters ----------------------------------------------


def parse_importtime(stderr: str) -> dict:
    """Cumulative import seconds of the modules in ``IMPORTS``."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        module = parts[2].strip()
        if module in IMPORTS:
            out[IMPORTS[module]] = int(parts[1]) * 1e-6
    missing = set(IMPORTS.values()) - set(out)
    if missing:
        raise RuntimeError(f"-X importtime output lacks {sorted(missing)}")
    return out


def probe_setup(workload: str, seed: int, runs: int, importtime: bool):
    """Wall times of ``runs`` fresh-interpreter set-ups, and import breakdowns."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + \
        [str(BENCH / "setup_probe.py"), workload, str(seed)]
    times, imports = [], []
    for _ in range(runs):
        start = clock()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        elapsed = clock() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed ({proc.returncode}):\n{proc.stderr}")
        times.append(elapsed)
        if importtime:
            imports.append(parse_importtime(proc.stderr))
    return times, imports


# --- measurement -----------------------------------------------------------------


class Tally:
    """Operation outcomes and times; times exclude reference-kernel ticks."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.ops = []  # (system, start, end, net seconds, units of work)

    def record(self, wl, name, state, result, start, end, net) -> None:
        self.attempted += 1
        reason = wl.check(name, state, result)
        if reason is not None:
            self.failures.append(reason)
        self.ops.append((name, start, end, net, wl.units(name)))

    def op_ms(self, system: str) -> list:
        return [net * 1e3 for name, _, _, net, _ in self.ops if name == system]

    def unit_ms(self, system: str) -> list:
        return [net * 1e3 / units for name, _, _, net, units in self.ops if name == system]

    def unit_rel(self, system: str, sampler) -> list:
        """Time per unit of work in units of the kernel time sampled meanwhile."""
        return [net / units / sampler.around(start, end)
                for name, start, end, net, units in self.ops if name == system]

    def rel_cost(self, sampler, lo: int, hi: int) -> float:
        """Summed cost of operations ``lo:hi`` in units of the kernel time."""
        return sum(net / sampler.around(start, end) for _, start, end, net, _ in self.ops[lo:hi])


def run_round(wl, tally: Tally, sampler, tracer=None) -> None:
    """One pass over the workload's operations."""
    for name, state in wl.ops:
        stolen = sampler.stolen
        if tracer is None:
            start = clock()
            result = wl.run(name, state)
            end = clock()
        else:
            with tracer.installed(), tracer.span(f"op.{name}"):
                start = clock()
                result = wl.run(name, state)
                end = clock()
        tally.record(wl, name, state, result, start, end, end - start - (sampler.stolen - stolen))


def measure(wl, seconds: float):
    tally = Tally()
    with reference.Sampler() as sampler:
        deadline = clock() + seconds
        while True:
            run_round(wl, tally, sampler)
            if clock() >= deadline:
                return tally, sampler


def layer_metrics(agg: dict) -> dict:
    """Per-layer values of one traced round (set-up metrics excluded)."""
    per_name = agg["per_name"]

    def stat(name, key):
        return per_name.get(name, {}).get(key, 0)

    out = {}
    for metric, _unit in per_layer_names():
        layer, _, kind = metric.rpartition(".")
        if metric.split(".")[0] in SYSTEMS or metric.startswith(("setup.", "trace.")):
            continue
        if metric == "geometry.christoffel_field.lookups":
            out[metric] = agg["lookups"]
        elif metric == "geometry.christoffel_field.hit_ratio":
            out[metric] = agg["hits"] / agg["lookups"] if agg["lookups"] else 0.0
        elif metric == "dynamics.integrate.steps":
            out[metric] = stat(layer, "count")
        elif kind == "calls":
            out[metric] = stat(layer, "calls")
        elif kind == "self_s":
            out[metric] = stat(layer, "self_s")
        elif kind == "s":
            out[metric] = stat(layer, "total_s")
    for system in SYSTEMS:
        bucket = agg["per_root"].get(system, {})
        op_s = bucket.get(f"op.{system}", {}).get("total_s", 0.0)
        gamma = bucket.get("geometry.christoffel", {})
        out[f"{system}.geometry.christoffel.calls"] = gamma.get("calls", 0)
        out[f"{system}.expr.fd_partial.calls"] = bucket.get("expr.fd_partial", {}).get("calls", 0)
        out[f"{system}.dynamics.integrate.steps"] = \
            bucket.get("dynamics.integrate", {}).get("count", 0)
        out[f"{system}.geometry.christoffel.share"] = \
            gamma.get("total_s", 0.0) / op_s if op_s else 0.0
    return out


def count_keys(values: dict) -> dict:
    units = dict(per_layer_names())
    return {k: v for k, v in values.items() if units.get(k) == "count"}


def self_check(wl, workload: str, rounds: list) -> list:
    """Invariants that show the wrappers see the calls; returns violations.

    They hold at the commit that introduced this benchmark; a change that
    legitimately alters one states so in its own description.
    """
    violations = []
    first = rounds[0]
    for i, values in enumerate(rounds[1:], start=1):
        if count_keys(values) != count_keys(first):
            violations.append(f"counts of traced round {i} differ from round 0")
    if workload == "geodesic":
        for system in ("robotic_leg", "snakeboard"):
            calls = first[f"{system}.geometry.christoffel.calls"]
            steps = first[f"{system}.dynamics.integrate.steps"]
            fd = first[f"{system}.expr.fd_partial.calls"]
            # The metric derivative takes one fd_partial per base coordinate.
            dim = wl.systems[system].n
            if calls != 4 * steps:
                violations.append(f"{system}: {calls} christoffel calls for {steps} RK4 steps "
                                  f"(expected 4 per step)")
            if fd != dim * calls:
                violations.append(f"{system}: {fd} fd_partial calls for {calls} christoffel "
                                  f"calls (expected {dim} each)")
        if first["planar_body.geometry.christoffel.calls"] != 1:
            violations.append("planar_body: expected one christoffel call (constant shortcut), "
                              f"got {first['planar_body.geometry.christoffel.calls']}")
        if first["geometry.christoffel_field.hit_ratio"] != 0:
            violations.append("christoffel_field cache hit on distinct RK4 stage points")
    return violations


def traced(wl, workload: str, seconds: float, spans_path: Path):
    tracer = tracing.Tracer()
    tracer.prepare()
    tally = Tally()
    pairs, rounds, kept = [], [], None
    with reference.Sampler() as sampler:
        start = clock()
        while len(rounds) < 2 or clock() - start < seconds:
            lo = len(tally.ops)
            run_round(wl, tally, sampler)
            mid = len(tally.ops)
            run_round(wl, tally, sampler, tracer=tracer)
            pairs.append((lo, mid, len(tally.ops)))
            spans = tracer.take()
            ticks = list(zip(sampler.starts, sampler.times))
            rounds.append(layer_metrics(tracing.aggregate(tracer.names, spans, ticks)))
            if kept is None:
                kept = spans
    write_spans(spans_path, workload, tracer.names, kept)
    units = dict(per_layer_names())
    # Counts repeat exactly across rounds; the low median keeps them whole.
    values = {k: (statistics.median_low if units[k] == "count" else statistics.median)(
        [r[k] for r in rounds]) for k in rounds[0]}
    # Untraced and traced rounds alternate; both are costed against the
    # reference kernel, as end-to-end costs are.
    plain = [tally.rel_cost(sampler, lo, mid) for lo, mid, _ in pairs]
    traced_cost = [tally.rel_cost(sampler, mid, hi) for _, mid, hi in pairs]
    values["trace.overhead"] = statistics.median(
        t / p for p, t in zip(plain, traced_cost)) - 1.0
    violations = self_check(wl, workload, rounds)
    values["trace.selfcheck_violations"] = len(violations)
    info = {"rounds": len(rounds),
            "untraced_round_ref": statistics.median(plain),
            "traced_round_ref": statistics.median(traced_cost),
            "selfcheck_violations": violations, "spans_file": str(spans_path.relative_to(ROOT)),
            "spans_in_first_round": len(kept)}
    return tally, values, info


def write_spans(path: Path, workload: str, names: list, spans: list) -> None:
    """Spans of the first traced round, times relative to its first span."""
    origin = spans[0][2] if spans else 0.0
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as stream:
        json.dump({"workload": workload, "fields": ["name", "parent", "start_s", "end_s", "steps"],
                   "names": names,
                   "spans": [[n, p, round(s - origin, 9), round(e - origin, 9), c]
                             for n, p, s, e, c in spans]}, stream, separators=(",", ":"))


# --- reporting -------------------------------------------------------------------


def git_sha():
    """Commit of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    """Digest of algmech's sources; identifies the code where there is no ``.git``."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "algmech").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def metadata(args) -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "git_sha": git_sha(), "source_sha256": source_sha256(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_PIN},
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def workload_view(workload: str, tally: Tally, sampler, setup_s: float, rss_mb: float) -> dict:
    """The end-to-end figures under the names they have for this workload."""
    view = {"setup_s": setup_s, "peak_rss_mb": rss_mb,
            "fail_ratio": len(tally.failures) / tally.attempted}
    samples = {name: len(tally.op_ms(name)) for name in SYSTEMS}
    if workload == "geodesic":
        for name in SYSTEMS:
            view[f"rk4_steps_per_s.{name}"] = 1e3 / statistics.median(tally.unit_ms(name))
    elif workload == "battery":
        for name in SYSTEMS:
            view[f"battery_s.{name}"] = statistics.median(tally.op_ms(name)) * 1e-3
    else:
        times = sorted(t for name in SYSTEMS for t in tally.op_ms(name))
        view["load_docs_per_s"] = len(times) / (sum(times) * 1e-3)
        view["cli_christoffel_ms.p50"] = float(np.percentile(times, 50))
        # p95 is reported only when at least ten samples lie beyond it.
        if len(times) * 0.05 >= 10:
            view["cli_christoffel_ms.p95"] = float(np.percentile(times, 95))
    view["samples"] = samples
    view["reference_kernel_ms.p50"] = statistics.median(sampler.times) * 1e3
    return view


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("geodesic", "battery", "load"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_algmech()
    import workloads  # imports algmech

    meta = metadata(args)
    if args.trace:
        _, imports = probe_setup(args.workload, args.seed, IMPORTTIME_RUNS, importtime=True)
    else:
        setup_times, _ = probe_setup(args.workload, args.seed, SETUP_RUNS, importtime=False)

    wl = workloads.make(args.workload, args.seed, ROOT)
    try:
        if args.trace:
            spans_path = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.json"
            tally, values, info = traced(wl, args.workload, args.seconds, spans_path)
        else:
            tally, sampler = measure(wl, args.seconds)
    finally:
        wl.close()

    units = dict(per_layer_names())
    if args.trace:
        for key in IMPORTS.values():
            values[key] = statistics.median(i[key] for i in imports)
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        detail = {"meta": meta, "trace": info,
                  "fail_ratio": len(tally.failures) / tally.attempted}
    else:
        setup_s = statistics.median(setup_times)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {"setup_s": setup_s, "peak_rss_mb": rss_mb}
        for name in SYSTEMS:
            values[f"op_rel.{name}"] = statistics.median(tally.unit_rel(name, sampler))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in end_to_end_names()}
        detail = {"meta": meta, "setup_runs_s": setup_times,
                  "workload_metrics": workload_view(args.workload, tally, sampler,
                                                    setup_s, rss_mb)}
    detail["failures"] = tally.failures[:20]
    for reason in tally.failures[:20]:
        print(f"check failed: {reason}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not tally.failures, "attempted": tally.attempted,
                      "failed": len(tally.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
