"""System definitions: the document loader, the induced-algebroid constructor
for distributions inside a tangent bundle, and the builtin example systems.

A system document is a single JSON-serializable dict; expressions are strings
in the grammar of :mod:`algmech.expr`.  Builtins are themselves documents fed
through the loader, so everything a user can write in a file is exercised by
the shipped systems.
"""

from __future__ import annotations

import inspect
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import expr as ex
from .algebroid import (
    AlgebroidStructure,
    ChartDomain,
    Exclusion,
    OneForm,
    Section,
    _as_expr,
    _at_points,
    _differential,
    _ExprTable,
    _span_ranks,
)
from .expr import Expr, _finite
from .geometry import BundleMetric, ForceField, Potential, SingularMetricError, sharp
from .reduction import Projector, Subbundle

__all__ = [
    "SpecError",
    "SystemDefinition",
    "induced_algebroid",
    "load_spec",
    "load_spec_file",
    "dump_spec",
    "builtin",
    "BUILTINS",
    "euclidean",
    "planar_body",
    "robotic_leg",
    "snakeboard",
    "suslov",
]


# Size of the chart sample the loader probes and validates at.
_VALIDATE_SAMPLES = 16


class SpecError(ValueError):
    """Schema violation in a system document, addressed by a JSON-ish path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@contextmanager
def _at(path):
    """Report a fault of the block built inside under its document path."""
    try:
        yield
    except SpecError:
        raise
    except ValueError as err:
        raise SpecError(path, str(err)) from None


def _require(doc, key, kind, path, optional=False):
    """``doc[key]``, of type ``kind`` unless that is None; a boolean is no int."""
    if not isinstance(doc, dict):
        raise SpecError(path, "expected an object")
    if key not in doc or doc[key] is None:
        if optional:
            return None
        raise SpecError(f"{path}.{key}", "missing required field")
    value = doc[key]
    if kind is not None and (not isinstance(value, kind) or isinstance(value, bool)):
        raise SpecError(f"{path}.{key}", f"expected {getattr(kind, '__name__', kind)}")
    return value


def _rows(doc, key, count, path) -> list:
    """The required list ``doc[key]`` of ``count`` rows."""
    rows = _require(doc, key, list, path)
    if len(rows) != count:
        raise SpecError(f"{path}.{key}", f"expected {count} rows")
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise SpecError(f"{path}.{key}[{i}]", "expected a list")
    return rows


def _number(value, path) -> float:
    """``value`` as a float: a finite JSON number, not a boolean."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(path, "expected a number")
    try:
        value = float(value)
    except OverflowError:  # an int beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise SpecError(path, "expected a finite number")
    return value


def _parse_expr(text, path) -> Expr:
    try:
        return _as_expr(text)
    except ex.ParseError as err:
        raise SpecError(path, str(err)) from None


def _expr_table(rows, width, coords, params, path, where, differentiable=False) -> _ExprTable:
    """One table named ``where`` over the document rows at ``path``, of
    ``width`` expressions each."""
    parsed = _expr_rows(rows, width, path)
    with _at(path):
        return _ExprTable([e for row in parsed for e in row], (len(rows), width),
                          coords, params, where, differentiable)


def _expr_rows(rows, width, path) -> list:
    if not isinstance(rows, list):
        raise SpecError(path, "expected a list of rows")
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != width:
            raise SpecError(f"{path}[{i}]", f"expected a list of {width} entries")
        out.append([_parse_expr(cell, f"{path}[{i}][{j}]") for j, cell in enumerate(row)])
    return out


@dataclass
class SystemDefinition:
    """Immutable bundle of everything the verification battery needs."""

    name: str
    params: dict
    coords: tuple
    rank: int
    structure: AlgebroidStructure
    metric: BundleMetric
    potential: Optional[Potential]
    force: Optional[ForceField]
    controls: Optional[Subbundle]
    declared_complement: Optional[tuple]
    chart: ChartDomain
    candidates: dict
    reparam_candidates: dict
    mode: str
    document: dict
    embedded: Optional[dict] = None

    @property
    def n(self) -> int:
        return len(self.coords)

    @property
    def m(self) -> int:
        return self.rank

    def basis_sections(self) -> list:
        return self.structure.basis_sections()

    def sample(self, count: int, seed: int = 0) -> np.ndarray:
        return self.chart.sample(count, seed)

    def center(self) -> np.ndarray:
        return self.chart.center()

    def section_from_exprs(self, entries, label="") -> Section:
        return Section.from_exprs(entries, self.coords, self.params, label=label)

    def effective_force(self) -> Optional[ForceField]:
        """The explicit force map plus the potential-gradient force, either
        one alone when only it is declared, or None."""
        force = self.force
        if self.potential is None:
            return force
        from .geometry import gradient

        S, Gm, V = self.structure, self.metric, self.potential
        if force is None:
            return ForceField(lambda x, y: -gradient(S, Gm, V, x), self.rank)
        return ForceField(lambda x, y: force(x, y) - gradient(S, Gm, V, x), self.rank)

    def validate(self, points=None, tol: float = 1e-8) -> None:
        """Load-time invariant checks at ``points`` (the seed-0 chart sample
        when omitted): sampled, not proofs."""
        if points is None:
            points = self.sample(_VALIDATE_SAMPLES)
        embedded = self.mode == "embedded"
        metric_path = "$.ambient.metric" if embedded else "$.metric"
        check = self.document.get("metric_check", "definite")
        if check not in ("definite", "nondegenerate"):
            raise SpecError("$.metric_check", f"unknown mode {check!r}")
        if self.embedded is not None:
            # The frame before the metric, which is its Gram matrix; each
            # block is evaluated under its own path.
            blocks = []
            for key in ("distribution", "complement"):
                with _at(f"$.{key}"):
                    blocks.append(self.embedded[key](points))
            rows = np.concatenate(blocks, axis=1)
            with _at("$.distribution"):
                dropped = _span_ranks(rows, points) != min(rows.shape[1], self.n)
            if np.any(dropped):
                raise SpecError("$.distribution",
                                f"embedded frame drops rank at {points[np.argmax(dropped)]}")
        with _at(metric_path):
            if check == "definite":
                try:
                    definite = self.metric.positive_definite_on(points)
                except SingularMetricError as err:  # a metric that is not finite
                    raise SpecError(metric_path, f"not positive definite: {err}") from None
                if not definite:
                    raise SpecError(metric_path, "not positive definite at a sampled point")
            else:
                for p in points:
                    self.metric.inverse(p)  # raises when singular
        if self.controls is not None:
            with _at("$.controls"):
                self.controls.validate_rank(points)
            if self.declared_complement:
                complement_path = "$.control_complement" if embedded else "$.complement"
                with _at(complement_path):
                    residual = Projector(self.controls, self.metric).declared_complement_residual(
                        self.declared_complement, points)
                if math.isnan(residual):
                    raise SpecError(complement_path, "declared complement or metric "
                                    "is not finite at a sampled point")
                if not residual <= tol:
                    raise SpecError(complement_path,
                                    f"declared complement is not orthogonal to the controls "
                                    f"(worst residual {residual:.3e})")


def induced_algebroid(metric_fn: Callable, frame_fn: Callable):
    """Skew-symmetric algebroid induced on a distribution of a tangent bundle.

    ``frame_fn`` returns the spanning fields at a point as the rows of an
    ``(m, n)`` array; it is also the anchor, the inclusion of the
    distribution.  The bundle metric is the Gram matrix of the frame under
    ``metric_fn``, and the structure functions come from projecting Lie
    brackets of the spanning fields back onto the distribution with the
    ambient metric.  Every ordered pair is bracketed, the diagonal
    included, and all are projected in one solve; since the bracket of
    ``(b, a)`` is the negated bracket of ``(a, b)``, the structure functions
    are antisymmetric, with a zero diagonal, bit for bit.  The brackets are
    ``[U_a, U_b] = dU_b U_a - dU_a U_b`` with ``dU_b U_a`` the derivative
    of the frame along each of its fields (``algebroid._differential``:
    exact for an expression table, ``m`` directional differences of an
    opaque callable).  Returns ``(structure_fn, gram_fn)`` as pointwise
    callables; when both the frame and the ambient metric carry
    ``value_and_jacobian``, so does ``gram_fn``, by the product rule.
    ``gram_fn`` takes a point or a stack of points, and reads the frame and
    the ambient metric once each for a stack where they take one.  A
    frame or ambient value that is not finite, tested before the products,
    gives a NaN Gram matrix and Jacobian and a ``SingularMetricError`` of the
    structure functions.

    Both callables carry ``induced = (frame_fn, metric_fn)``, one tuple per
    call.  By it ``geometry._koszul_table`` knows a structure with this
    frame as its anchor paired with this Gram metric, and compiles the Gram
    matrix, its derivatives and the lowered brackets ``g(U_a, [U_b, U_c])``
    from the two fields when they are expression tables, with no solve.
    Every other pairing, and ``geometry.christoffel``, reads the callables.
    """
    ambient_moves = not getattr(metric_fn, "is_constant", False)

    def gram_fn(x):
        if np.ndim(x) == 2:
            # A stack: each field read at every point in one call where it
            # takes a stack, then the products of the points where both
            # values are finite, each bitwise the product at its point.
            n = np.shape(x)[1]
            B = _at_points(frame_fn, x, (-1, n), "frame")
            g = _at_points(metric_fn, x, (n, n), "ambient metric")
            finite = np.isfinite(B).all(axis=(1, 2)) & np.isfinite(g).all(axis=(1, 2))
            out = np.full((len(B), B.shape[1], B.shape[1]), np.nan)
            B = B[finite]
            out[finite] = B @ g[finite] @ B.transpose(0, 2, 1)
            return out
        B, g = frame_fn(x), np.asarray(metric_fn(x))
        # Tested first: a value that is not finite would only warn in the products.
        if not _finite(B, g):
            return np.full((len(B), len(B)), np.nan)
        return B @ g @ B.T

    def gram_value_and_jacobian(x):
        # d(B g B^T) = B g dB^T + its transpose (g is symmetric) + B dg B^T
        B, dB = frame_fn.value_and_jacobian(x)
        g, dg = metric_fn.value_and_jacobian(x) if ambient_moves else (metric_fn(x), None)
        m, n = B.shape
        if not _finite(B, g):
            return np.full((m, m), np.nan), np.full((m, m, n), np.nan)
        BG = B @ g
        half = (BG @ dB).transpose(1, 0, 2)
        dgram = half + half.transpose(1, 0, 2)
        if ambient_moves:
            dgram += B @ (B @ dg.reshape(n, n * n)).reshape(m, n, n)
        return BG @ B.T, dgram

    def structure_fn(x):
        B, dB = _differential(frame_fn, x)
        g = np.asarray(metric_fn(x))
        if not _finite(B, g):
            raise SingularMetricError(f"distribution Gram matrix is not finite at {x}")
        BG = B @ g
        # J[a, b] is the derivative of field b along field a; [U_a, U_b] at
        # row a*m + b
        J = dB(B)
        m = B.shape[0]
        try:
            coeffs = np.linalg.solve(BG @ B.T, BG @ (J - J.transpose(1, 0, 2)).reshape(m * m, -1).T)
        except np.linalg.LinAlgError:
            raise SingularMetricError(f"distribution Gram matrix is singular at {x}") from None
        return coeffs.reshape(m, m, m)

    if hasattr(frame_fn, "value_and_jacobian") and hasattr(metric_fn, "value_and_jacobian"):
        gram_fn.value_and_jacobian = gram_value_and_jacobian
    structure_fn.induced = gram_fn.induced = (frame_fn, metric_fn)
    gram_fn.stacks = True  # a call takes a stack of points (see algebroid._at_points)
    return structure_fn, gram_fn


# --- loader ---------------------------------------------------------------------


def load_spec(document: dict) -> SystemDefinition:
    """Construct a system from a document, running the load-time checks."""
    if not isinstance(document, dict):
        raise SpecError("$", "document must be an object")
    path = "$"
    name = _require(document, "name", str, path)
    params = dict(_require(document, "parameters", dict, path, optional=True) or {})
    for key, value in params.items():
        params[key] = _number(value, f"$.parameters.{key}")
    coords = tuple(_require(document, "base", list, path))
    for i, c in enumerate(coords):
        if not isinstance(c, str) or not c.isidentifier():
            raise SpecError(f"$.base[{i}]", "coordinate names must be identifiers")
    n = len(coords)
    m = _require(document, "fiber", int, path)
    if m < 1:
        raise SpecError("$.fiber", "fiber rank must be at least 1")
    mode = _require(document, "mode", str, path)
    if mode not in ("intrinsic", "embedded"):
        raise SpecError("$.mode", f"unknown mode {mode!r}")

    chart = _load_chart(document, coords)
    # The mirror probes of the expression tables run at the validation sample,
    # where every expression must evaluate anyway.
    with _at("$.chart"):
        probes = chart.sample(_VALIDATE_SAMPLES)
    embedded_payload = None

    if mode == "intrinsic":
        anchor_exprs = _expr_rows(_rows(document, "anchor", m, path), n, "$.anchor")
        structure_map = {key: _parse_expr(entry, f"$.structure.{key}") for key, entry in
                         (_require(document, "structure", dict, path, optional=True) or {}).items()}
        with _at("$.structure"):
            structure = AlgebroidStructure.from_exprs(coords, m, anchor_exprs, structure_map, params,
                                                      probe_points=probes)
        # An empty entry below or above the diagonal is filled from its mirror.
        metric_rows = [[None if cell in (None, "") else _parse_expr(cell, f"$.metric[{i}][{j}]")
                        for j, cell in enumerate(row)]
                       for i, row in enumerate(_rows(document, "metric", m, path))]
        with _at("$.metric"):
            metric = BundleMetric.from_exprs(metric_rows, coords, params, probe_points=probes)
    else:
        ambient = _require(document, "ambient", dict, path)
        ambient_table = _expr_table(_rows(ambient, "metric", n, "$.ambient"), n, coords, params,
                                    "$.ambient.metric", "ambient metric", differentiable=True)
        dist_table = _expr_table(_rows(document, "distribution", m, path), n, coords, params,
                                 "$.distribution", "distribution", differentiable=True)
        comp_table = _expr_table(document.get("complement") or [], n, coords, params,
                                 "$.complement", "complement")
        structure_fn, gram_fn = induced_algebroid(ambient_table, dist_table)
        structure = AlgebroidStructure(coords, m, dist_table, structure_fn, params=params)
        metric = BundleMetric(gram_fn, m)
        embedded_payload = {"distribution": dist_table, "complement": comp_table}

    potential = None
    if document.get("potential") is not None:
        with _at("$.potential"):
            potential = Potential.from_expr(
                _parse_expr(document["potential"], "$.potential"), coords, params)

    force = None
    force_rows = _require(document, "force", list, path, optional=True)
    if force_rows is not None:
        if len(force_rows) != m:
            raise SpecError("$.force", f"expected {m} components")
        with _at("$.force"):
            force = ForceField.from_exprs(
                [_parse_expr(c, f"$.force[{i}]") for i, c in enumerate(force_rows)],
                coords, params)

    with _at("$.controls"):
        controls = _load_controls(document, coords, params, structure, metric, m)
    declared_complement = _load_declared_complement(document, coords, params, mode, m)
    candidates, reparams = _load_candidates(document, coords, params, m)

    sysdef = SystemDefinition(
        name=name, params=params, coords=coords, rank=m,
        structure=structure, metric=metric, potential=potential, force=force,
        controls=controls, declared_complement=declared_complement, chart=chart,
        candidates=candidates, reparam_candidates=reparams,
        mode=mode, document=json.loads(json.dumps(document)), embedded=embedded_payload)
    sysdef.validate(points=probes)
    return sysdef


def load_spec_file(path, params=None) -> SystemDefinition:
    """Load the document at ``path``; the ``params`` dict, when given,
    overrides entries of its ``parameters`` before the one load, and a name
    the document does not declare raises ``SpecError`` under
    ``$.parameters``."""
    with open(path, "r", encoding="utf-8") as stream:
        try:
            document = json.load(stream)
        except json.JSONDecodeError as err:
            raise SpecError("$", f"not valid JSON: {err}") from None
    if params and isinstance(document, dict):
        declared = _require(document, "parameters", dict, "$", optional=True) or {}
        for key in params:
            if key not in declared:
                raise SpecError(f"$.parameters.{key}", "unknown parameter of the document; "
                                f"it declares: {', '.join(declared) or 'none'}")
        document = {**document, "parameters": {**declared, **params}}
    return load_spec(document)


def dump_spec(sysdef: SystemDefinition) -> dict:
    """The canonical document of a system (deep copy, JSON-serializable)."""
    return json.loads(json.dumps(sysdef.document))


def _load_chart(document, coords) -> ChartDomain:
    n = len(coords)
    chart_doc = document.get("chart")
    if chart_doc is None:
        if n == 0:
            return ChartDomain(np.zeros(0), np.zeros(0))
        raise SpecError("$.chart", "missing required field")
    box = _require(chart_doc, "box", dict, "$.chart") if n else {}
    lower, upper = np.zeros(n), np.zeros(n)
    for i, c in enumerate(coords):
        if c not in box:
            raise SpecError(f"$.chart.box.{c}", "missing bounds")
        bounds = box[c]
        if isinstance(bounds, list) and len(bounds) == 2:
            lower[i], upper[i] = (_number(b, f"$.chart.box.{c}") for b in bounds)
        if not lower[i] < upper[i]:
            raise SpecError(f"$.chart.box.{c}", "bounds must be [lo, hi] with lo < hi")
    exclusions = []
    listed = _require(chart_doc, "exclusions", list, "$.chart", optional=True) or []
    for j, exc in enumerate(listed):
        path = f"$.chart.exclusions[{j}]"
        coord = _require(exc, "coord", str, path)
        if coord not in coords:
            raise SpecError(f"{path}.coord", f"unknown coordinate {coord!r}")
        margin = exc.get("margin")
        exclusions.append(Exclusion(coords.index(coord),
                                    _number(_require(exc, "value", None, path), f"{path}.value"),
                                    0.1 if margin is None else _number(margin, f"{path}.margin")))
    return ChartDomain(lower, upper, tuple(exclusions))


def _load_controls(document, coords, params, structure, metric, m) -> Optional[Subbundle]:
    controls_doc = _require(document, "controls", dict, "$", optional=True)
    if controls_doc is None:
        return None
    if "sections" in controls_doc:
        rows = _expr_rows(controls_doc["sections"], m, "$.controls.sections")
        sections = [Section.from_exprs(row, coords, params, label=f"Y{i + 1}")
                    for i, row in enumerate(rows)]
    elif "codistribution" in controls_doc:
        rows = _expr_rows(controls_doc["codistribution"], m, "$.controls.codistribution")
        sections = []
        for i, row in enumerate(rows):
            kappa = OneForm.from_exprs(row, coords, params)
            sections.append(Section(lambda x, k=kappa: sharp(metric, k, x), m, label=f"Y{i + 1}"))
    else:
        raise SpecError("$.controls", "need 'sections' or 'codistribution'")
    return Subbundle(tuple(sections), label="controls")


def _load_declared_complement(document, coords, params, mode, m):
    key = "control_complement" if mode == "embedded" else "complement"
    rows = document.get(key)
    if not rows:
        return None
    parsed = _expr_rows(rows, m, f"$.{key}")
    with _at(f"$.{key}"):
        return tuple(Section.from_exprs(row, coords, params, label=f"W{i + 1}")
                     for i, row in enumerate(parsed))


def _load_candidates(document, coords, params, m):
    candidates_doc = _require(document, "candidates", dict, "$", optional=True) or {}
    sections = {}
    for name, row in (_require(candidates_doc, "sections", dict, "$.candidates", optional=True)
                      or {}).items():
        path = f"$.candidates.sections.{name}"
        if not isinstance(row, list) or len(row) != m:
            raise SpecError(path, f"expected a list of {m} coefficients")
        parsed = [_parse_expr(cell, f"{path}[{j}]") for j, cell in enumerate(row)]
        with _at(path):
            sections[name] = Section.from_exprs(parsed, coords, params, label=name)
    reparams = {}
    for name, text in (_require(candidates_doc, "reparam", dict, "$.candidates", optional=True)
                       or {}).items():
        path = f"$.candidates.reparam.{name}"
        factor = _parse_expr(text, path)
        with _at(path):
            reparams[name] = _ExprTable([factor], (), coords, params, "reparametrization factor")
    return sections, reparams


# --- builtin systems --------------------------------------------------------------


def euclidean(n: int = 2) -> SystemDefinition:
    """Flat tangent-bundle system: identity anchor, zero brackets, identity metric."""
    n = int(n)
    coords = [f"x{i + 1}" for i in range(n)]
    eye = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    document = {
        "name": f"euclidean{n}",
        "parameters": {},
        "base": coords,
        "fiber": n,
        "mode": "intrinsic",
        "anchor": eye,
        "structure": {},
        "metric": eye,
        "potential": None,
        "controls": None,
        "chart": {"box": {c: [-10.0, 10.0] for c in coords}},
    }
    return load_spec(document)


def planar_body(m: float = 1.0, J: float = 1.0, h: float = 1.0) -> SystemDefinition:
    """Planar rigid body with a variable-direction thruster, in the orthogonal
    frame adapted to the two control directions and their complement."""
    document = {
        "name": "planar_body",
        "parameters": {"m": float(m), "J": float(J), "h": float(h)},
        "base": ["x", "y", "theta"],
        "fiber": 3,
        "mode": "intrinsic",
        "anchor": [
            ["cos(theta)/m", "sin(theta)/m", "0"],
            ["-sin(theta)/m", "cos(theta)/m", "-h/J"],
            ["-sin(theta)", "cos(theta)", "1/h"],
        ],
        "structure": {
            "2,1,2": "h/(J+m*h^2)",
            "3,1,2": "h^3/((J+m*h^2)*J)",
            "2,1,3": "-J/(h*(J+m*h^2))",
            "3,1,3": "-h/(J+m*h^2)",
            "1,2,3": "(m*h^2+J)/(h*J)",
        },
        "metric": [
            ["1/m", "0", "0"],
            ["0", "(J+m*h^2)/(m*J)", "0"],
            ["0", "0", "m+J/h^2"],
        ],
        "potential": None,
        "controls": {"sections": [["1", "0", "0"], ["0", "1", "0"]]},
        "complement": [["0", "0", "1"]],
        "chart": {"box": {"x": [-8.0, 8.0], "y": [-8.0, 8.0], "theta": [-3.15, 3.15]}},
        "candidates": {
            "sections": {
                "gY1": ["(x - h*cos(theta)) + (y - h*sin(theta))", "0", "0"],
                "gY2": ["0", "(x - h*cos(theta)) + (y - h*sin(theta))", "0"],
                "xY1": ["x", "0", "0"],
            },
            "reparam": {
                "g": "(x - h*cos(theta)) + (y - h*sin(theta))",
                "coord_x": "x",
            },
        },
    }
    return load_spec(document)


def robotic_leg(m: float = 1.0, J: float = 1.0) -> SystemDefinition:
    """Robotic leg: extensible massless leg with a point mass, rotor at the pivot."""
    document = {
        "name": "robotic_leg",
        "parameters": {"m": float(m), "J": float(J)},
        "base": ["r", "theta", "psi"],
        "fiber": 3,
        "mode": "intrinsic",
        "anchor": [
            ["0", "1/(m*r^2)", "-1/J"],
            ["1/m", "0", "0"],
            ["0", "1", "1"],
        ],
        "structure": {
            "1,1,2": "2*J/(m*r*(J+m*r^2))",
            "3,1,2": "2/(m*r*(J+m*r^2))",
        },
        "metric": [
            ["(J+m*r^2)/(J*m*r^2)", "0", "0"],
            ["0", "1/m", "0"],
            ["0", "0", "m*r^2+J"],
        ],
        "potential": None,
        "controls": {"sections": [["1", "0", "0"], ["0", "1", "0"]]},
        "complement": [["0", "0", "1"]],
        "chart": {"box": {"r": [0.5, 3.0], "theta": [-3.15, 3.15], "psi": [-3.15, 3.15]}},
        "candidates": {
            "sections": {
                "fY1": ["0.8 + 0.4*sin(theta - psi) + 0.3*r", "0", "0"],
                "thetaY1": ["theta", "0", "0"],
            },
            "reparam": {
                "f": "r^2 + cos(theta - psi)",
                "coord_theta": "theta",
            },
        },
    }
    return load_spec(document)


_SNAKEBOARD_C1 = "((mc+mr+2*mw)*l^2*cos(phi)^2 + (Jc+Jr+2*(Jw+mw*l^2))*sin(phi)^2)"


def snakeboard(mc: float = 1.0, mr: float = 1.0, mw: float = 1.0,
               Jc: float = 1.0, Jr: float = 1.0, Jw: float = 1.0,
               l: float = 1.0) -> SystemDefinition:
    """Snakeboard with coupled wheel axles; embedded mode, the algebroid is
    induced on the rolling-constraint distribution."""
    a_phi = f"(Jr*l*cos(phi)*sin(phi)/{_SNAKEBOARD_C1})"
    b_phi = f"(Jr*sin(phi)^2/{_SNAKEBOARD_C1})"
    w2_plane = "((Jc+2*(Jw+mw*l^2))*sin(phi)/((mc+mr+2*mw)*l))"
    half_pi = math.pi / 2.0
    document = {
        "name": "snakeboard",
        "parameters": {"mc": float(mc), "mr": float(mr), "mw": float(mw),
                       "Jc": float(Jc), "Jr": float(Jr), "Jw": float(Jw), "l": float(l)},
        "base": ["x", "y", "theta", "psi", "phi"],
        "fiber": 3,
        "mode": "embedded",
        "ambient": {
            "metric": [
                ["mc+mr+2*mw", "0", "0", "0", "0"],
                ["0", "mc+mr+2*mw", "0", "0", "0"],
                ["0", "0", "Jc+Jr+2*(Jw+mw*l^2)", "Jr", "0"],
                ["0", "0", "Jr", "Jr", "0"],
                ["0", "0", "0", "0", "2*Jw"],
            ],
        },
        "distribution": [
            ["l*cos(phi)*cos(theta)", "l*cos(phi)*sin(theta)", "-sin(phi)", "0", "0"],
            [f"{a_phi}*cos(theta)", f"{a_phi}*sin(theta)", f"-{b_phi}", "1", "0"],
            ["0", "0", "0", "0", "1"],
        ],
        "complement": [
            ["-sin(theta)", "cos(theta)", "0", "0", "0"],
            [f"{w2_plane}*cos(theta)", f"{w2_plane}*sin(theta)", "cos(phi)", "-cos(phi)", "0"],
        ],
        "controls": {"sections": [["0", "1", "0"], ["0", "0", "1"]]},
        "control_complement": [["1", "0", "0"]],
        "chart": {
            "box": {"x": [-5.0, 5.0], "y": [-5.0, 5.0], "theta": [-3.15, 3.15],
                    "psi": [-3.15, 3.15], "phi": [-1.4, 1.4]},
            "exclusions": [
                {"coord": "phi", "value": half_pi, "margin": 0.1},
                {"coord": "phi", "value": -half_pi, "margin": 0.1},
            ],
        },
        "candidates": {
            "sections": {
                "psiX3": ["0", "0", "psi"],
                "xX2": ["0", "x", "0"],
            },
            "reparam": {
                "psi_fun": "psi",
                "coord_x": "x",
            },
        },
    }
    return load_spec(document)


_LEVI_CIVITA_EPS = {(0, 1, 2): 1.0, (1, 2, 0): 1.0, (2, 0, 1): 1.0,
                    (0, 2, 1): -1.0, (2, 1, 0): -1.0, (1, 0, 2): -1.0}


def suslov(inertia=(1.0, 2.0, 3.0), indices=(0, 1)) -> SystemDefinition:
    """Constrained rigid-body dynamics on a three-dimensional Lie algebra with a
    diagonal inertia metric; the base is a single point (n = 0).

    ``indices`` selects the basis directions spanning the constraint subspace;
    the bracket is the inertia-orthogonal projection of the ambient one.
    """
    inertia = tuple(float(v) for v in inertia)
    indices = tuple(int(i) for i in indices)
    if len(inertia) != 3:
        raise ValueError("inertia must list three principal values")
    if not indices or any(i not in (0, 1, 2) for i in indices) or len(set(indices)) != len(indices):
        raise ValueError("indices must be distinct members of {0, 1, 2}")
    m = len(indices)
    structure = {}
    for ai, a in enumerate(indices):
        for bi, b in enumerate(indices):
            if ai >= bi:
                continue
            for ci, c in enumerate(indices):
                coeff = _LEVI_CIVITA_EPS.get((a, b, c), 0.0)
                if coeff:
                    structure[f"{ci + 1},{ai + 1},{bi + 1}"] = repr(coeff)
    document = {
        "name": "suslov",
        "parameters": {},
        "base": [],
        "fiber": m,
        "mode": "intrinsic",
        "anchor": [[] for _ in range(m)],
        "structure": structure,
        "metric": [[repr(inertia[a]) if ai == bi else "0" for bi, b in enumerate(indices)]
                   for ai, a in enumerate(indices)],
        "potential": None,
        "controls": None,
        "chart": {"box": {}},
    }
    return load_spec(document)


def _suslov_from_params(i1=1.0, i2=2.0, i3=3.0, dim_d=2.0) -> SystemDefinition:
    return suslov((i1, i2, i3), tuple(range(int(dim_d))))


def _euclidean_from_params(n=2.0) -> SystemDefinition:
    return euclidean(int(n))


BUILTINS = {
    "euclidean": _euclidean_from_params,
    "planar_body": planar_body,
    "robotic_leg": robotic_leg,
    "snakeboard": snakeboard,
    "suslov": _suslov_from_params,
}


def builtin(name: str, **params) -> SystemDefinition:
    """Instantiate a builtin system by name with optional parameter overrides;
    a name its constructor does not take raises ``SpecError`` under
    ``$.parameters``."""
    try:
        constructor = BUILTINS[name]
    except KeyError:
        raise SpecError("$.name", f"unknown builtin {name!r}; "
                        f"available: {', '.join(sorted(BUILTINS))}") from None
    known = inspect.signature(constructor).parameters
    for key in params:
        if key not in known:
            raise SpecError(f"$.parameters.{key}", f"unknown parameter of {name}; "
                            f"it takes: {', '.join(known)}")
    return constructor(**params)
