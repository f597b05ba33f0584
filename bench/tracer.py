"""In-memory span tracer that wraps algmech's functions from outside the package.

A span records its name, start, end and parent.  Wrappers are installed in
every namespace that binds the wrapped object: ``geometry`` and ``algebroid``
do ``from .expr import fd_partial, fd_directional`` and ``reduction`` imports
``symmetric_product``, ``integrate`` and ``christoffel_field`` by name, so
patching only the defining module would silently miss most calls.  Methods are
patched on their class.  ``uninstall`` restores every binding.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import sys
import time
from contextlib import contextmanager

clock = time.perf_counter

# (span name, module, attribute) for module-level functions and
# (span name, module, "Class.method") for methods.
TARGETS = [
    ("expr.parse", "expr", "parse"),
    ("expr.fd_partial", "expr", "fd_partial"),
    ("expr.fd_directional", "expr", "fd_directional"),
    ("expr.fd_gradient", "expr", "fd_gradient"),
    ("algebroid.anchor", "algebroid", "AlgebroidStructure.anchor"),
    ("algebroid.structure", "algebroid", "AlgebroidStructure.structure"),
    ("algebroid.vector_field_bracket", "algebroid", "vector_field_bracket"),
    ("algebroid.lie_closure_rank", "algebroid", "lie_closure_rank"),
    ("algebroid.sample", "algebroid", "ChartDomain.sample"),
    ("geometry.metric", "geometry", "BundleMetric.matrix"),
    ("geometry.christoffel", "geometry", "christoffel"),
    ("geometry.christoffel_field", "geometry", "christoffel_field"),
    ("geometry.symmetric_product", "geometry", "symmetric_product"),
    ("geometry.covariant_derivative", "geometry", "covariant_derivative"),
    ("dynamics.integrate", "dynamics", "integrate"),
    ("reduction.is_decoupling", "reduction", "is_decoupling"),
    ("reduction.kinematic_reduction_check", "reduction", "kinematic_reduction_check"),
    ("reduction.geodesic_invariance_check", "reduction", "geodesic_invariance_check"),
    ("reduction.maximal_reducibility_check", "reduction", "maximal_reducibility_check"),
    ("reduction.hj_residual", "reduction", "hj_residual"),
    ("reduction.hj_trajectory_equivalence", "reduction", "hj_trajectory_equivalence"),
    ("reduction.reparam_admissible", "reduction", "reparam_admissible"),
    ("reduction.symmetric_closure", "reduction", "symmetric_closure"),
    ("reduction.q_matrix", "reduction", "Projector.q_matrix"),
    ("reduction.complement_basis", "reduction", "Projector.complement_basis"),
    ("systems.load_spec", "systems", "load_spec"),
    ("systems.validate", "systems", "SystemDefinition.validate"),
    ("report.run_battery", "report", "run_battery"),
    ("report.hj_algebraic_check", "report", "hj_algebraic_check"),
    ("report.christoffel_table", "report", "christoffel_table"),
    ("cli.main", "cli", "main"),
]

# Spans created by the special wrappers below, not listed in TARGETS.
FIELD = "dynamics.field"
LOOKUP = "geometry.christoffel_field.lookup"
FIXED_LOOKUP = "geometry.christoffel_field.fixed_lookup"


class Tracer:
    """Spans recorded since the last ``take``, and the wrappers that record them.

    Each span is ``[name_id, parent_index, start, end, count]``; ``count``
    carries the RK4 step count of ``dynamics.integrate`` spans.
    """

    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []
        self._stack = []
        self._patches = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        index = len(self.spans)
        self.spans.append([nid, self._stack[-1] if self._stack else -1, clock(), 0.0, 0])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][3] = clock()

    @contextmanager
    def span(self, name: str):
        index = self._open(self.name_id(name))
        try:
            yield index
        finally:
            self._close(index)

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(index)

        return traced

    def _wrap_integrate(self, fn):
        nid = self.name_id("dynamics.integrate")

        @functools.wraps(fn)
        def traced(field, *args, **kwargs):
            index = self._open(nid)
            try:
                traj = fn(self.wrap(FIELD, field), *args, **kwargs)
                self.spans[index][4] = len(traj.times) - 1
                return traj
            finally:
                self._close(index)

        return traced

    def _wrap_christoffel_field(self, fn):
        nid = self.name_id("geometry.christoffel_field")
        christoffel_id = self.name_id("geometry.christoffel")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(nid)
            try:
                evaluate = fn(*args, **kwargs)
            finally:
                self._close(index)
            # A Christoffel computation inside the factory is the
            # constant-coefficient shortcut; its evaluator never consults the
            # value cache, so its lookups are kept out of the hit ratio.
            shortcut = any(s[0] == christoffel_id and s[1] == index
                           for s in self.spans[index + 1:])
            return self.wrap(FIXED_LOOKUP if shortcut else LOOKUP, evaluate)

        return traced

    def prepare(self) -> None:
        """Build a wrapper for every target and find every namespace binding it.

        ``install`` and ``uninstall`` then only swap bindings, which is cheap
        enough to do around each operation.
        """
        targets = [(name, importlib.import_module(f"algmech.{module}"), attr)
                   for name, module, attr in TARGETS]
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "algmech" or key.startswith("algmech."))]
        for name, module, attr in targets:
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._patches.append((owner, meth, original, self.wrap(name, original)))
                continue
            original = getattr(module, attr)
            if name == "dynamics.integrate":
                wrapper = self._wrap_integrate(original)
            elif name == "geometry.christoffel_field":
                wrapper = self._wrap_christoffel_field(original)
            else:
                wrapper = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original, wrapper))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def take(self) -> list:
        """Hand over the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        spans, self.spans = self.spans, []
        return spans


def aggregate(names: list, spans: list, ticks=()) -> dict:
    """Per-name calls, inclusive and self time, and per-root-span breakdowns.

    ``ticks`` are ``(start, seconds)`` intervals of benchmark code that ran
    inside the traced program from a signal handler; each is removed from the
    innermost span containing it and from that span's ancestors.  Self time
    is a span's remaining duration minus that of its direct children; spans
    of one thread nest, so children never overlap.  Spans named
    ``op.<system>`` are roots; every span is attributed to its root.
    """
    count = len(spans)
    net = [end - start for _, _, start, end, _ in spans]
    starts = [span[2] for span in spans]
    for tick_start, seconds in ticks:
        # The last span opened before the tick, or an ancestor, contains it.
        i = bisect.bisect_right(starts, tick_start) - 1
        while i >= 0 and spans[i][3] < tick_start + seconds:
            i = spans[i][1]
        while i >= 0:
            net[i] -= seconds
            i = spans[i][1]
    child = [0.0] * count
    root = [-1] * count
    for i, (nid, parent, _, _, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += net[i]
            root[i] = root[parent]
        if names[nid].startswith("op."):
            root[i] = i

    christoffel = names.index("geometry.christoffel") if "geometry.christoffel" in names else -1
    lookup = names.index(LOOKUP) if LOOKUP in names else -1
    missed = set()
    per_name = {}
    per_root = {}
    for i, (nid, parent, _, _, extra) in enumerate(spans):
        name = names[nid]
        stats = per_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0})
        stats["calls"] += 1
        stats["total_s"] += net[i]
        stats["self_s"] += net[i] - child[i]
        stats["count"] += extra
        if nid == christoffel and parent >= 0 and spans[parent][0] == lookup:
            missed.add(parent)
        if root[i] >= 0:
            system = names[spans[root[i]][0]][3:]
            bucket = per_root.setdefault(system, {})
            entry = bucket.setdefault(name, {"calls": 0, "total_s": 0.0, "count": 0})
            entry["calls"] += 1
            entry["total_s"] += net[i]
            entry["count"] += extra
    lookups = per_name.get(LOOKUP, {}).get("calls", 0)
    return {"per_name": per_name, "per_root": per_root,
            "lookups": lookups, "hits": lookups - len(missed)}
