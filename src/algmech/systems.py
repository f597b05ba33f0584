"""System definitions: the document loader, the induced-algebroid constructor
for distributions inside a tangent bundle, and the builtin example systems.

A system document is a single JSON-serializable dict; expressions are strings
in the grammar of :mod:`algmech.expr`.  Builtins are themselves documents fed
through the loader, so everything a user can write in a file is exercised by
the shipped systems.
"""

from __future__ import annotations

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
    _ExprTable,
    span_rank,
)
from .expr import Expr, fd_directional
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
    if key not in doc or doc[key] is None:
        if optional:
            return None
        raise SpecError(f"{path}.{key}", "missing required field")
    value = doc[key]
    if kind is not None and not isinstance(value, kind):
        raise SpecError(f"{path}.{key}", f"expected {getattr(kind, '__name__', kind)}")
    return value


def _parse_expr(text, path) -> Expr:
    try:
        return _as_expr(text)
    except ex.ParseError as err:
        raise SpecError(path, str(err)) from None


def _expr_table(rows, width, coords, params, path, where) -> _ExprTable:
    """One table named ``where`` over the document rows at ``path``, of
    ``width`` expressions each."""
    parsed = _expr_rows(rows, width, path)
    with _at(path):
        return _ExprTable([e for row in parsed for e in row], (len(rows), width),
                          coords, params, where)


def _expr_rows(rows, width, path) -> list:
    out = []
    for i, row in enumerate(rows):
        if len(row) != width:
            raise SpecError(f"{path}[{i}]", f"expected {width} entries, got {len(row)}")
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
        """The explicit force map, or the potential-gradient force, or None."""
        if self.force is not None:
            return self.force
        if self.potential is not None:
            from .geometry import gradient

            S, Gm, V = self.structure, self.metric, self.potential
            return ForceField(lambda x, y: -gradient(S, Gm, V, x), self.rank)
        return None

    def validate(self, points=None, tol: float = 1e-8) -> None:
        """Load-time invariant checks at ``points`` (the seed-0 chart sample
        when omitted): sampled, not proofs."""
        if points is None:
            points = self.sample(_VALIDATE_SAMPLES)
        check = self.document.get("metric_check", "definite")
        if check not in ("definite", "nondegenerate"):
            raise SpecError(f"{self.name}.metric_check", f"unknown mode {check!r}")
        if check == "definite":
            if not self.metric.positive_definite_on(points):
                raise SpecError(f"{self.name}.metric",
                                "not positive definite at a sampled point")
        else:
            for p in points:
                self.metric.inverse(p)  # raises when singular
        if self.controls is not None:
            self.controls.validate_rank(points)
            if self.declared_complement:
                residual = Projector(self.controls, self.metric).declared_complement_residual(
                    self.declared_complement, points)
                if residual > tol:
                    raise SpecError(f"{self.name}.complement",
                                    f"declared complement is not orthogonal to the controls "
                                    f"(worst residual {residual:.3e})")
        if self.embedded is not None:
            distribution, complement = self.embedded["distribution"], self.embedded["complement"]
            for p in points:
                rows = np.vstack([distribution(p), complement(p)])
                expected = min(len(rows), self.n)
                if span_rank(rows) != expected:
                    raise SpecError(f"{self.name}.distribution",
                                    f"embedded frame drops rank at {p}")


def induced_algebroid(metric_fn: Callable, frame_fn: Callable):
    """Skew-symmetric algebroid induced on a distribution of a tangent bundle.

    ``frame_fn`` returns the spanning fields at a point as the rows of an
    ``(m, n)`` array; it is also the anchor, the inclusion of the
    distribution.  The bundle metric is the Gram matrix of the frame under
    ``metric_fn``, and the structure functions come from projecting Lie
    brackets of the spanning fields back onto the distribution with the
    ambient metric.  The brackets take ``m`` directional differences of the
    whole frame, one along each spanning field.  Returns
    ``(structure_fn, gram_fn)`` as pointwise callables.
    """

    def gram_fn(x):
        B = frame_fn(x)
        return B @ metric_fn(x) @ B.T

    def structure_fn(x):
        B = frame_fn(x)
        G = metric_fn(x)
        gram = B @ G @ B.T
        m = len(B)
        # J[a][b] is the derivative of field b along field a, so that
        # [U_a, U_b] = J[a][b] - J[b][a].
        J = [fd_directional(frame_fn, x, row) for row in B]
        C = np.zeros((m, m, m))
        for a in range(m):
            for b in range(a + 1, m):
                lie = J[a][b] - J[b][a]
                try:
                    coeffs = np.linalg.solve(gram, B @ G @ lie)
                except np.linalg.LinAlgError:
                    raise SingularMetricError(f"distribution Gram matrix is singular at {x}") from None
                C[:, a, b] = coeffs
                C[:, b, a] = -coeffs
        return C

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
        if not isinstance(value, (int, float)):
            raise SpecError(f"$.parameters.{key}", "parameter values must be numbers")
        params[key] = float(value)
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
    probes = chart.sample(_VALIDATE_SAMPLES)
    embedded_payload = None

    if mode == "intrinsic":
        anchor_rows = _require(document, "anchor", list, path)
        if len(anchor_rows) != m:
            raise SpecError("$.anchor", f"expected {m} rows")
        anchor_exprs = _expr_rows(anchor_rows, n, "$.anchor")
        structure_map = _require(document, "structure", dict, path, optional=True) or {}
        with _at("$.structure"):
            structure = AlgebroidStructure.from_exprs(coords, m, anchor_exprs, structure_map, params,
                                                      probe_points=probes)
        metric_rows = _require(document, "metric", list, path)
        if len(metric_rows) != m:
            raise SpecError("$.metric", f"expected {m} rows")
        with _at("$.metric"):
            metric = BundleMetric.from_exprs(metric_rows, coords, params, probe_points=probes)
    else:
        ambient = _require(document, "ambient", dict, path)
        ambient_rows = _require(ambient, "metric", list, "$.ambient")
        if len(ambient_rows) != n:
            raise SpecError("$.ambient.metric", f"expected {n} rows")
        ambient_table = _expr_table(ambient_rows, n, coords, params, "$.ambient.metric",
                                    "ambient metric")
        dist_rows = _require(document, "distribution", list, path)
        if len(dist_rows) != m:
            raise SpecError("$.distribution", f"expected {m} rows")
        dist_table = _expr_table(dist_rows, n, coords, params, "$.distribution", "distribution")
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
    if document.get("force") is not None:
        force_rows = document["force"]
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


def load_spec_file(path) -> SystemDefinition:
    with open(path, "r", encoding="utf-8") as stream:
        try:
            document = json.load(stream)
        except json.JSONDecodeError as err:
            raise SpecError("$", f"not valid JSON: {err}") from None
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
        if len(bounds) != 2 or bounds[0] >= bounds[1]:
            raise SpecError(f"$.chart.box.{c}", "bounds must be [lo, hi] with lo < hi")
        lower[i], upper[i] = float(bounds[0]), float(bounds[1])
    exclusions = []
    for j, exc in enumerate(chart_doc.get("exclusions", []) or []):
        coord = _require(exc, "coord", str, f"$.chart.exclusions[{j}]")
        if coord not in coords:
            raise SpecError(f"$.chart.exclusions[{j}].coord", f"unknown coordinate {coord!r}")
        exclusions.append(Exclusion(coords.index(coord), float(exc["value"]),
                                    float(exc.get("margin", 0.1))))
    return ChartDomain(lower, upper, tuple(exclusions))


def _load_controls(document, coords, params, structure, metric, m) -> Optional[Subbundle]:
    controls_doc = document.get("controls")
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
    candidates_doc = document.get("candidates") or {}
    sections = {}
    for name, row in (candidates_doc.get("sections") or {}).items():
        if len(row) != m:
            raise SpecError(f"$.candidates.sections.{name}", f"expected {m} coefficients, got {len(row)}")
        with _at(f"$.candidates.sections.{name}"):
            sections[name] = Section.from_exprs(row, coords, params, label=name)
    reparams = {}
    for name, text in (candidates_doc.get("reparam") or {}).items():
        path = f"$.candidates.reparam.{name}"
        reparams[name] = _parse_expr(text, path)
        with _at(path):
            _ExprTable([reparams[name]], (1,), coords, params, "reparametrization factor")
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
    """Instantiate a builtin system by name with optional parameter overrides."""
    try:
        constructor = BUILTINS[name]
    except KeyError:
        raise SpecError("$.name", f"unknown builtin {name!r}; "
                        f"available: {', '.join(sorted(BUILTINS))}") from None
    return constructor(**params)
