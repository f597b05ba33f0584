"""Skew-symmetric algebroids given by local structure functions and an anchor.

A structure over an ``n``-dimensional chart with fiber rank ``m`` is described
by the anchor coefficients ``rho[A, i]`` (the vector field on the base attached
to the ``A``-th basis section) and the antisymmetric structure functions
``C[c, a, b]`` giving the bracket of basis sections.  Both may be supplied as
expressions over the chart coordinates or as plain callables of the base
point, which is how subbundle-induced structures are realized.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.stats import qmc

from . import expr as ex
from .expr import Expr, _finite, fd_directional

__all__ = [
    "ChartDomain",
    "Exclusion",
    "Section",
    "OneForm",
    "AlgebroidStructure",
    "Trajectory",
    "bracket",
    "anchor_apply",
    "d_function",
    "d_oneform",
    "jacobiator",
    "lie_closure_rank",
    "vector_field_bracket",
    "span_rank",
]

_SV_THRESHOLD = 1e-8
# Mirror entries (metric symmetry, structure antisymmetry) are one function
# written twice; at a probe point they may differ only by the rounding of a
# different operation order.
_MIRROR_RTOL = 1e-9
# A point's values are checked on every field call: a float array passes
# these two identity tests and skips np.asarray.
_ARRAY, _FLOAT = np.ndarray, np.dtype(float)
# A table compiles the loop of a stacked form once its stacks of that form
# have brought it more points than this.  The loop saves about 1 us a point
# against a call per point and costs 0.15-1.1 ms to compile, so it pays
# after about 150-1200 points.  The loader's sampled checks stack a table at
# most 4 times at the same 16 points; a battery stacks each of its busiest
# tables at 700-1600 points.
_STACK_COMPILE_POINTS = 256


def _as_expr(entry) -> Expr:
    """An entry of an expression block: an ``Expr`` as is, anything else parsed."""
    return entry if isinstance(entry, Expr) else ex.parse(str(entry))


class _ExprTable:
    """Callable field backed by a table of expressions over the chart.

    Every block of expressions in a system (anchor, structure functions,
    metric, ambient metric, distribution, complement, force, controls,
    potential) is one table.  ``entries`` are expressions or strings, flat
    and row-major over ``shape``; an unknown variable is reported under the
    label ``where``.

    A call takes a point ``(n,)`` and returns the entries, ``shape``, or a
    stack ``(N, n)`` of points and returns ``(N, *shape)``, each row bitwise
    the call at its point; an entry that fails raises at the first failing
    point, with the message of a call at that point.  Either result is a
    fresh, writable, C-contiguous float64 array: at a point, the compiled
    function's own, built in the table's shape, so :func:`_at_points` hands
    it on unchecked.  The table is compiled
    (:func:`expr._compile_table`) on its first call: many tables, such as
    unused candidate sections, are never evaluated.  A stack is evaluated
    by a call per point until the table's stacks have brought it more than
    ``_STACK_COMPILE_POINTS`` points; then the loop over a stack is compiled
    from the same code (:func:`expr._compile_stack`), so a table stacked
    only by the loader's sampled checks compiles none.
    :meth:`value_and_jacobian` compiles its function beside the values one
    on its first call, and a ``differentiable`` table, one its consumers
    differentiate (a metric, an embedded frame), compiles both on its first
    call of either kind, in one pass over the expressions; it too takes a
    point or a stack, with its own count of stacked points.
    """

    stacks = True  # a call takes a stack of points (see _at_points)

    def __init__(self, entries, shape, coords, params, where: str = "expression table",
                 differentiable: bool = False):
        self.exprs = [_as_expr(e) for e in entries]
        self.shape = shape
        self.coords = tuple(coords)
        self._point_shape = (len(self.coords),)  # built once, not at every call
        self.params = dict(params)
        free = ex._free_variables(self.exprs)
        extra = free - set(self.coords) - set(self.params)
        if extra:
            raise ValueError(f"{where}: unknown variable(s) {sorted(extra)}")
        self.is_constant = free.isdisjoint(self.coords)
        self.differentiable = differentiable
        self._compiled = None
        self._compiled_jacobian = None
        # The stacked form of the values and of value_and_jacobian, and the
        # points stacked so far in each (see _stack).
        self._stacked = [None, None]
        self._stacked_points = [0, 0]

    def _compile(self, jacobian: bool) -> tuple:
        """Compile the values function, and the Jacobian's beside it when
        asked for or when the table is differentiable."""
        # Threads racing here each compile equal functions and store them;
        # the last store wins and no caller sees a partial one.
        if jacobian or self.differentiable:
            out = ex._compile_table(self.exprs, self.coords, self.params, jacobian=True,
                                    shape=self.shape)
            self._compiled, self._compiled_jacobian = out
            return out
        self._compiled = ex._compile_table(self.exprs, self.coords, self.params, shape=self.shape)
        return self._compiled, None

    def _reject(self, point):
        raise ValueError(f"expression table over {len(self.coords)} coordinate(s) "
                         f"got a point of shape {point.shape}")

    def __call__(self, x) -> np.ndarray:
        # The checks stay inline: this is the most frequent call in the package.
        point = x if type(x) is _ARRAY and x.dtype is _FLOAT else np.asarray(x, dtype=float)
        if point.shape != self._point_shape:
            return self._stack(point)
        return (self._compiled or self._compile(False)[0])(point.tolist())

    def _stack(self, points, jacobian: bool = False):
        if points.ndim != 2 or points.shape[1] != len(self.coords):
            self._reject(points)
        stacked = self._stacked[jacobian]
        if stacked is None:
            # Threads racing here may lose an update of the count, which only
            # delays the compile, or each compile an equal function, of which
            # the last store wins.
            self._stacked_points[jacobian] += len(points)
            point_fn = (self._compiled_jacobian or self._compile(True)[1] if jacobian
                        else self._compiled or self._compile(False)[0])
            if self._stacked_points[jacobian] > _STACK_COMPILE_POINTS:
                stacked = self._stacked[jacobian] = ex._compile_stack(point_fn)
        rows = points.tolist()
        if not jacobian:
            values = stacked(rows) if stacked else np.array([point_fn(p) for p in rows])
            return values.reshape(len(points), *self.shape)
        if stacked:
            values, jacobians = stacked(rows)
        else:
            pairs = [point_fn(p) for p in rows]
            values, jacobians = np.array([v for v, _ in pairs]), np.array([j for _, j in pairs])
        return (values.reshape(len(points), *self.shape),
                jacobians.reshape(len(points), *self.shape, len(self.coords)))

    def value_and_jacobian(self, x) -> tuple:
        """The values at ``x``, bitwise those of a call, and their exact
        coordinate Jacobian of shape ``(*shape, n)``, compiled from the
        :func:`expr.diff` trees of the entries; at a kink, such as ``abs`` at
        0, it raises ``EvalError`` (the kinks are listed at :func:`expr.diff`).
        At a stack ``(N, n)`` of points, the ``(N, *shape)`` values and the
        ``(N, *shape, n)`` Jacobians, each row bitwise the call at its point,
        raising at the first failing point.
        """
        point = np.asarray(x, dtype=float)
        if point.shape != self._point_shape:
            return self._stack(point, jacobian=True)
        return (self._compiled_jacobian or self._compile(True)[1])(point.tolist())

    value_and_jacobian.stacks = True  # it takes a stack of points (see _differential)


def _at_points(fn: Callable, x, shape: tuple, what: str, y=None) -> np.ndarray:
    """The rule that evaluates every field ``fn`` (a section, the anchor, the
    structure functions, a metric, a force): one call at a point ``(n,)``,
    whose value of any shape but ``shape`` raises ``ValueError("<what>
    returned shape ...")``; at a stack ``(N, n)``, the ``(N, *shape)``
    values, from one call where ``fn`` takes a stack (marked ``stacks``),
    else from one call per point, each checked as at a point.  One extent of
    ``shape`` may be -1, any extent (0 for an empty stack).  A force's rule
    also reads the fiber value ``y``: it is called as ``fn(point, y)``.

    An expression table of shape ``shape`` is called directly, before any
    conversion: it takes a point or a stack and returns fresh float64
    values of that shape, so no check here can fail for it (a point of
    the wrong length raises the table's own ``ValueError``)."""
    if type(fn) is _ExprTable and y is None and fn.shape == shape:
        return fn(x)
    if type(x) is not _ARRAY or x.dtype is not _FLOAT:
        x = np.asarray(x, dtype=float)
    if x.ndim == 2:
        if not len(x):
            return np.zeros((0, *(max(extent, 0) for extent in shape)))
        if getattr(fn, "stacks", False):
            return np.reshape(fn(x), (len(x), *shape))
        return np.array([_at_points(fn, p, shape, what, y) for p in x]).reshape(len(x), *shape)
    out = fn(x) if y is None else fn(x, y)
    if type(out) is not _ARRAY or out.dtype is not _FLOAT:
        out = np.asarray(out, dtype=float)
    if out.shape != shape and (len(out.shape) != len(shape) or any(
            extent not in (got, -1) for got, extent in zip(out.shape, shape))):
        raise ValueError(f"{what} returned shape {out.shape}, expected {shape}")
    return out


def _check_mirrors(pairs, sign: float, coords, params, points, where: str) -> None:
    """Reject mirror entries that are not one function written twice.

    ``pairs`` holds ``(first, second, fault)``: at every probe point
    ``first`` must equal ``sign * second`` up to rounding (relative to the
    larger magnitude), and both must be finite; the first pair that fails
    raises ``ValueError(fault)``.  All pairs are one compiled table.
    """
    if not pairs:
        return
    table = _ExprTable([e for first, second, _ in pairs for e in (first, second)],
                       (len(pairs), 2), coords, params, where)
    points = np.asarray(points, dtype=float)
    values = table(points).reshape(len(points), len(pairs), 2)
    first, second = values[..., 0], sign * values[..., 1]
    finite = np.isfinite(first) & np.isfinite(second)
    agree = np.abs(first - second) <= _MIRROR_RTOL * np.maximum(np.abs(first), np.abs(second))
    bad = ~(finite & agree)
    for k, (_, _, fault) in enumerate(pairs):
        if bad[:, k].any():
            i = int(np.argmax(bad[:, k]))
            if not finite[i, k]:
                raise ValueError(f"{fault}: not finite at {points[i]}")
            raise ValueError(fault)


@dataclass(frozen=True)
class Exclusion:
    """Excluded hypersurface ``coordinate == value`` with a safety margin."""

    index: int
    value: float
    margin: float = 0.1

    def violated(self, x) -> bool:
        return abs(float(x[self.index]) - self.value) < self.margin


@dataclass(frozen=True)
class ChartDomain:
    """Coordinate box with optional excluded hypersurfaces."""

    lower: np.ndarray
    upper: np.ndarray
    exclusions: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=float))
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float))
        if self.lower.shape != self.upper.shape:
            raise ValueError("chart bounds must have matching shapes")
        if np.any(self.lower >= self.upper) and self.lower.size:
            raise ValueError("chart box must have positive extent")
        # The bounds as Python floats: contains runs once per RK4 step.
        object.__setattr__(self, "_bounds", tuple(zip(self.lower.tolist(), self.upper.tolist())))

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, x, pad: float = 0.0) -> bool:
        """Whether the point ``x`` lies in the box widened by ``pad`` (a
        negative ``pad`` shrinks it) and off every exclusion.  A NaN
        coordinate compares false, so it counts as inside."""
        values = x.tolist() if isinstance(x, np.ndarray) else x
        if len(values) != len(self._bounds):
            raise ValueError(f"point has dimension {len(values)}, chart has {len(self._bounds)}")
        for v, (lo, hi) in zip(values, self._bounds):
            if v < lo - pad or v > hi + pad:
                return False
        return not any(exc.violated(values) for exc in self.exclusions)

    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def sample(self, count: int, seed: int = 0) -> np.ndarray:
        """Deterministic low-discrepancy points inside the box, avoiding
        exclusions; ``count`` is an integer (``TypeError`` otherwise)."""
        count = operator.index(count)
        if count < 1:
            raise ValueError(f"sample count must be at least 1, got {count}")
        if self.dim == 0:
            return np.zeros((count, 0))
        sampler = qmc.Halton(d=self.dim, scramble=True, seed=seed)
        extent = self.upper - self.lower
        points = []
        attempts = 0
        while len(points) < count:
            # qmc.scale's arithmetic, without its checks of the unit sample.
            batch = sampler.random(max(count, 8)) * extent + self.lower
            for row in batch:
                if not any(exc.violated(row) for exc in self.exclusions):
                    points.append(row)
                    if len(points) == count:
                        break
            attempts += 1
            if attempts > 64:
                raise ValueError("chart exclusions leave too little room to sample")
        return np.array(points)


class Section:
    """Fiber-coefficient functions ``X^A(x)`` over the base, evaluable at points;
    one wrapping an expression table carries its ``value_and_jacobian``."""

    stacks = True  # a call takes a stack of points (see _at_points)

    def __init__(self, fn: Callable, rank: int, label: str = ""):
        self._fn = fn
        self.rank = int(rank)
        self._shape = (self.rank,)  # built once, not at every call
        self.label = label
        # (anchor, table): the table of an anchored field of this section
        # (AlgebroidStructure._anchored_table).
        self._anchored = None
        if hasattr(fn, "value_and_jacobian"):
            self.value_and_jacobian = fn.value_and_jacobian

    @classmethod
    def from_exprs(cls, entries: Sequence, coords, params=None, label: str = "") -> "Section":
        entries = list(entries)
        return cls(_ExprTable(entries, (len(entries),), coords, params or {}), len(entries),
                   label=label)

    @classmethod
    def constant(cls, values, label: str = "") -> "Section":
        values = np.asarray(values, dtype=float)
        return cls(lambda x, v=values: v.copy(), values.size, label=label)

    @classmethod
    def basis(cls, index: int, rank: int) -> "Section":
        values = np.zeros(rank)
        values[index] = 1.0
        return cls.constant(values, label=f"e{index + 1}")

    def __call__(self, x) -> np.ndarray:
        """The coefficients at a point ``(n,)``, or their ``(N, rank)``
        stack at a stack ``(N, n)`` of points, by :func:`_at_points`."""
        return _at_points(self._fn, x, self._shape, "section")

    def scaled_by(self, factor, label: str = "") -> "Section":
        """Pointwise product ``f * X`` with a scalar field (callable or constant)."""
        if np.isscalar(factor):
            return Section(lambda x, c=float(factor): c * self(x), self.rank,
                           label=label or f"{factor}*{self.label}")
        return Section(lambda x: float(factor(x)) * self(x), self.rank,
                       label=label or f"f*{self.label}")

    def __repr__(self):
        tag = self.label or "callable"
        return f"Section({tag}, rank={self.rank})"


class OneForm(Section):
    """Covector coefficients ``kappa_A(x)`` over the base."""


class AlgebroidStructure:
    """Anchor and structure functions of a skew-symmetric algebroid over one chart.

    Attributes
    ----------
    n, m : int
        Base dimension and fiber rank.
    coords : tuple of str
        Chart coordinate names (empty for a point base).
    params : dict
        Named parameters available to coefficient expressions.
    """

    def __init__(self, coords, rank, anchor_fn, structure_fn, params=None):
        self.coords = tuple(coords)
        self.n = len(self.coords)
        self.m = int(rank)
        self.params = dict(params or {})
        self._anchor_fn = anchor_fn
        self._structure_fn = structure_fn
        self._anchor_shape, self._structure_shape = (self.m, self.n), (self.m,) * 3
        # Only an expression table knows it is coordinate-free.
        self.constant_structure = getattr(structure_fn, "is_constant", False)
        # (metric, source): the connection of the spray and the Christoffel
        # evaluator with that metric (geometry._connection).
        self._connection = None

    # -- construction ----------------------------------------------------

    @classmethod
    def from_exprs(cls, coords, rank, anchor, structure, params=None,
                   probe_points=None) -> "AlgebroidStructure":
        """Build from expression tables.

        ``anchor`` is an ``m x n`` nested sequence (row ``A`` holds the
        components of the vector field attached to basis section ``A``).
        ``structure`` maps 1-based index triples ``(c, a, b)`` to expressions
        for the bracket coefficients; missing mirror entries are filled by
        antisymmetry and conflicting double entries are rejected.  The
        antisymmetry checks evaluate at ``probe_points`` (the loader passes
        chart samples), or at points of ``[-1, 1]^n`` when omitted.
        """
        coords = tuple(coords)
        m = int(rank)
        n = len(coords)
        params = dict(params or {})

        rows = [list(r) for r in anchor]
        if len(rows) != m or any(len(r) != n for r in rows):
            raise ValueError(f"anchor must be {m}x{n}")
        anchor_table = _ExprTable([e for r in rows for e in r], (m, n), coords, params, "anchor")

        table = [[[None] * m for _ in range(m)] for _ in range(m)]
        for key, entry in dict(structure or {}).items():
            c, a, b = _structure_key(key)
            for idx, name in ((c, "upper"), (a, "first lower"), (b, "second lower")):
                if not 1 <= idx <= m:
                    raise ValueError(f"structure index {key}: {name} index out of range 1..{m}")
            if table[c - 1][a - 1][b - 1] is not None:
                raise ValueError(f"structure entry ({c},{a},{b}) supplied twice")
            table[c - 1][a - 1][b - 1] = _as_expr(entry)

        # Supplied mirror pairs must be opposite; a diagonal entry is its own
        # mirror, so it must vanish.  A missing mirror is the negated entry.
        pairs = []
        for c in range(m):
            for a in range(m):
                if table[c][a][a] is not None:
                    pairs.append((table[c][a][a], table[c][a][a],
                                  f"structure entry ({c + 1},{a + 1},{a + 1}) must vanish (antisymmetry)"))
                for b in range(a + 1, m):
                    upper, mirror = table[c][a][b], table[c][b][a]
                    if upper is not None and mirror is not None:
                        pairs.append((upper, mirror,
                                      f"structure entries ({c + 1},{a + 1},{b + 1}) and "
                                      f"({c + 1},{b + 1},{a + 1}) are not antisymmetric"))
                    elif upper is not None:
                        table[c][b][a] = ex.Neg(upper)
                    elif mirror is not None:
                        table[c][a][b] = ex.Neg(mirror)
        if probe_points is None:
            probe_points = _probe_points(n)
        _check_mirrors(pairs, -1.0, coords, params, probe_points, "structure functions")
        flat = [table[c][a][b] or Num0 for c in range(m) for a in range(m) for b in range(m)]
        structure_table = _ExprTable(flat, (m, m, m), coords, params, "structure functions")
        return cls(coords, m, anchor_table, structure_table, params=params)

    # -- evaluation --------------------------------------------------------

    def anchor(self, x) -> np.ndarray:
        """Anchor coefficients at a point ``(n,)`` as an ``(m, n)`` array,
        row ``A`` being rho(e_A), or their ``(N, m, n)`` stack at a stack
        ``(N, n)`` of points, by :func:`_at_points`."""
        return _at_points(self._anchor_fn, x, self._anchor_shape, "anchor")

    def structure(self, x) -> np.ndarray:
        """Structure functions ``C[c, a, b]`` at a point ``(n,)``, or their
        ``(N, m, m, m)`` stack at a stack ``(N, n)`` of points, by
        :func:`_at_points`."""
        return _at_points(self._structure_fn, x, self._structure_shape, "structure")

    def basis_section(self, index: int) -> Section:
        return Section.basis(index, self.m)

    def basis_sections(self) -> list:
        return [self.basis_section(i) for i in range(self.m)]

    def anchored_field(self, X: Section) -> Callable:
        """The vector field rho(X) on the base, as a callable of the point;
        NaN where a value of ``X`` is not finite.

        Where the anchor and ``X`` are expression tables over the same
        coordinates and parameters, the field makes one call, of a table of
        the anchor's entries followed by those of ``X`` (see
        :meth:`_anchored_table`); every value is bitwise that of the anchor
        and ``X`` called apart, and an anchor entry that fails still raises
        before one of ``X``."""
        m, n = self.m, self.n
        table = self._anchored_table(X)
        if table is None:
            def field(x):
                R, Xp = self.anchor(x), X(x)
                return R.T @ Xp if _finite(Xp) else np.full(n, np.nan)

            return field
        split = m * n

        def fused(x):
            values = table(x)
            Xp = values[split:]
            return values[:split].reshape(m, n).T @ Xp if _finite(Xp) else np.full(n, np.nan)

        return fused

    def _anchored_table(self, X: Section) -> Optional[_ExprTable]:
        """The one table of the anchor's entries and those of ``X``, or None
        unless both are expression tables of their shapes over the same
        coordinates and parameters.

        It is kept on ``X`` with the anchor it was built for, as a table
        keeps its code, so a battery compiles each once; ``X`` used with
        another structure gets that structure's table.  Threads racing here
        each build an equal table, and the last store wins."""
        anchor, section = self._anchor_fn, getattr(X, "_fn", None)
        if not (type(anchor) is _ExprTable and type(section) is _ExprTable
                and anchor.shape == self._anchor_shape and section.shape == (self.m,) == X._shape
                and section.coords == anchor.coords and section.params == anchor.params):
            return None
        kept = X._anchored
        if kept is not None and kept[0] is anchor:
            return kept[1]
        exprs = anchor.exprs + section.exprs
        table = _ExprTable(exprs, (len(exprs),), anchor.coords, anchor.params, "anchored field")
        X._anchored = (anchor, table)
        return table

    def check_point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.size != self.n:
            raise ValueError(f"base point has dimension {x.size}, chart has {self.n}")
        return x

    def check_points(self, x) -> np.ndarray:
        """A stack ``(N, n)`` of base points as a float array, or a point as
        the stack of one."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            return self.check_point(x)[None]
        if x.shape[1] != self.n:
            raise ValueError(f"base points have shape {x.shape}, chart has dimension {self.n}")
        return x

    def check_fiber(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float).reshape(-1)
        if y.size != self.m:
            raise ValueError(f"fiber point has dimension {y.size}, rank is {self.m}")
        return y


Num0 = ex.Num(0.0)


def _structure_key(key) -> tuple:
    if isinstance(key, str):
        parts = key.replace("_", ",").split(",")
    else:
        parts = list(key)
    if len(parts) != 3:
        raise ValueError(f"structure key {key!r} must have three indices (upper, lower, lower)")
    return tuple(int(p) for p in parts)


def _probe_points(n, count=8, seed=0):
    if n == 0:
        return [np.zeros(0)]
    rng = np.random.default_rng(seed)
    return list(rng.uniform(-1.0, 1.0, size=(count, n)))


@dataclass(frozen=True)
class Trajectory:
    """Time-stamped samples of a curve in the total space (or base only)."""

    times: np.ndarray
    base: np.ndarray
    fiber: Optional[np.ndarray]
    step: float
    truncated: bool = False
    reason: str = ""

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        base = np.asarray(self.base, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "base", base)
        if self.fiber is not None:
            object.__setattr__(self, "fiber", np.asarray(self.fiber, dtype=float))
        if times.ndim != 1 or base.ndim != 2 or base.shape[0] != times.size:
            raise ValueError("trajectory arrays are inconsistent")
        if self.fiber is not None and self.fiber.shape[0] != times.size:
            raise ValueError("fiber samples do not align with times")
        if times.size > 1 and np.any(np.diff(times) <= 0):
            raise ValueError("trajectory times must be strictly increasing")

    def __len__(self) -> int:
        return self.times.size

    def index_of(self, t):
        """The index of the sample nearest to a time ``t``, or the array of
        them for an array of times; ``ValueError`` for a time farther than
        ``1e-9`` (absolute and relative) from every sample."""
        t, times = np.asarray(t, dtype=float), self.times
        hi = np.minimum(np.searchsorted(times, t), times.size - 1)
        lo = np.maximum(hi - 1, 0)
        k = np.where(np.abs(times[lo] - t) <= np.abs(times[hi] - t), lo, hi)
        far = np.abs(times[k] - t) > 1e-9 + 1e-9 * np.abs(t)
        if far.any():
            raise ValueError(f"time {float(t[far].flat[0])} is not a trajectory sample")
        return int(k) if k.ndim == 0 else k

    def to_csv(self, path) -> None:
        """Write ``t,x1..xn,y1..ym`` rows with 17 significant digits."""
        n = self.base.shape[1]
        m = self.fiber.shape[1] if self.fiber is not None else 0
        header = ["t"] + [f"x{i + 1}" for i in range(n)] + [f"y{j + 1}" for j in range(m)]
        with open(path, "w", encoding="utf-8") as stream:
            stream.write(",".join(header) + "\n")
            for k in range(len(self)):
                row = [self.times[k], *self.base[k]]
                if self.fiber is not None:
                    row.extend(self.fiber[k])
                stream.write(",".join(format(v, ".17g") for v in row) + "\n")


# --- operations ----------------------------------------------------------------


def _differential(f, x, step=None, value=True) -> tuple:
    """``(f(x), along)``: ``along(directions)`` stacks the derivatives of ``f``
    at ``x`` along the rows of ``directions``, as ``(k, *shape)``.

    Exact, ``directions . J``, when ``f`` carries ``value_and_jacobian`` (an
    expression table, or a section, metric or potential wrapping one);
    otherwise one :func:`expr.fd_directional` per row, and with
    ``value=False`` the difference path skips ``f(x)`` and returns None in
    its place.  This is the only place that chooses between the two.

    At a stack ``(N, n)`` of points, ``f(x)`` is the ``(N, *shape)`` stack
    (so ``f`` must take one, as a section or a metric does), and
    ``along(directions, where)`` takes one ``(k, n)`` block of directions
    per point of the mask ``where`` (every point when omitted) and returns
    their ``(count, k, *shape)`` derivatives, each block bitwise its point's;
    the differences are taken only at those points.  The Jacobians are read
    in one call of ``value_and_jacobian`` with the stack where it takes one
    (marked ``stacks``, as a table's is), else in one call per point.
    """
    exact = getattr(f, "value_and_jacobian", None)
    stacked = np.ndim(x) == 2
    if exact is None:
        if not stacked:
            return f(x) if value else None, lambda directions: np.array(
                [fd_directional(f, x, v, step) for v in directions])

        def along(directions, where=slice(None)):
            return np.array([[fd_directional(f, p, v, step) for v in block]
                             for p, block in zip(x[where], directions)])

        return f(x) if value else None, along
    if not stacked or getattr(exact, "stacks", False):
        fx, jacobian = exact(x)
    else:
        fx, jacobian = (np.array(parts) for parts in zip(*map(exact, x)))
    if not stacked:
        return fx, lambda directions: _along(jacobian, directions)
    return fx, lambda directions, where=slice(None): _along(jacobian[where], directions)


def _along(jacobian, directions) -> np.ndarray:
    """Derivatives of a field with Jacobian ``(*shape, n)`` along the rows
    of ``directions``, stacked as ``(k, *shape)``; at a stack, Jacobians
    ``(N, *shape, n)`` along one ``(k, n)`` block of ``directions`` per
    point, ``(N, k, *shape)``, each block by the product of its point."""
    directions = np.asarray(directions)
    if directions.ndim == 3:
        across = directions.transpose(0, 2, 1)
        if jacobian.ndim == 2:  # a scalar field: a row vector per point
            return (jacobian[:, None] @ across)[:, 0]
        out = jacobian @ np.expand_dims(across, tuple(range(1, jacobian.ndim - 2)))
        return out.transpose(0, out.ndim - 1, *range(1, out.ndim - 1))
    out = jacobian @ directions.T
    # The last axis to the front; np.moveaxis costs more than the product here.
    return out.transpose(out.ndim - 1, *range(out.ndim - 1))


def bracket(S: AlgebroidStructure, X: Section, Y: Section, p, step=None) -> np.ndarray:
    """Coefficients of the bracket of two sections at ``p``.

    Local form: structure-function term ``C^c_ab X^a Y^b`` plus the anchor
    derivative terms ``rho(X)(Y^c) - rho(Y)(X^c)``.
    """
    p = S.check_point(p)
    (Xp, dX), (Yp, dY) = _differential(X, p, step), _differential(Y, p, step)
    R = S.anchor(p)
    return np.einsum("cab,a,b->c", S.structure(p), Xp, Yp) + dY([R.T @ Xp])[0] - dX([R.T @ Yp])[0]


def anchor_apply(S: AlgebroidStructure, X: Section, p) -> np.ndarray:
    """Tangent vector ``rho(X)`` at ``p``."""
    p = S.check_point(p)
    return S.anchor(p).T @ X(p)


def _as_scalar_field(f, S: AlgebroidStructure) -> Callable:
    """An expression as a shape-``()`` table over the chart; a callable as is."""
    if isinstance(f, (Expr, str)):
        return _ExprTable([f], (), S.coords, S.params, "scalar function")
    if callable(f):
        return f
    raise TypeError("expected an expression or a callable scalar field")


def d_function(S: AlgebroidStructure, f, p, step=None) -> np.ndarray:
    """Anchored derivatives ``rho(e_A)(f)`` at ``p``, one row per frame direction.

    For a scalar ``f`` (expression or callable) this is the almost
    differential ``rho^i_A d_i f``; an array-valued callable gets one array
    per row.  An expression, or a field that carries ``value_and_jacobian``
    (a table, section, metric or potential), is differentiated exactly,
    ``rho(p) . J(p)``; an opaque callable by one directional difference per
    row, along the anchor image of ``e_A`` (see :func:`_differential`).  An
    expression ``f`` is compiled on every call; to evaluate one at many
    points, build its field once (``Potential.from_expr``) or pass a stack.
    At a stack ``(N, n)`` of points, their ``(N, m, ...)`` stack, each row
    bitwise its point's, from one call each of the anchor and of an exact
    field's Jacobian.
    """
    x = S.check_points(p) if np.ndim(p) == 2 else S.check_point(p)
    return _differential(_as_scalar_field(f, S), x, step, value=False)[1](S.anchor(x))


def d_oneform(S: AlgebroidStructure, kappa: OneForm, X: Section, Y: Section, p, step=None) -> float:
    """Evaluate the almost differential of a one-form on two sections at ``p``.

    Two-argument formula: ``rho(X)(kappa(Y)) - rho(Y)(kappa(X)) - kappa([X, Y])``,
    the pairings differentiated by the product rule.
    """
    p = S.check_point(p)
    (k, dk), (Xp, dX), (Yp, dY) = (_differential(f, p, step) for f in (kappa, X, Y))
    R = S.anchor(p)
    u, v = [R.T @ Xp], [R.T @ Yp]
    rho_X_kY = dk(u)[0] @ Yp + k @ dY(u)[0]
    rho_Y_kX = dk(v)[0] @ Xp + k @ dX(v)[0]
    return float(rho_X_kY - rho_Y_kX - k @ bracket(S, X, Y, p, step))


def _bracket_section(S, X, Y, step=None) -> Section:
    return Section(lambda x: bracket(S, X, Y, x, step), S.m,
                   label=f"[{X.label or 'X'},{Y.label or 'Y'}]")


def jacobiator(S: AlgebroidStructure, X: Section, Y: Section, Z: Section, p, step=None) -> np.ndarray:
    """Cyclic sum of nested brackets at ``p``; zero exactly when Jacobi holds."""
    p = S.check_point(p)
    total = np.zeros(S.m)
    for A, B, C in ((X, Y, Z), (Y, Z, X), (Z, X, Y)):
        total += bracket(S, A, _bracket_section(S, B, C, step), p, step)
    return total


def vector_field_bracket(U: Callable, V: Callable, x, step=None) -> np.ndarray:
    """Lie bracket of two vector fields on the base via directional differences."""
    x = np.asarray(x, dtype=float)
    return np.asarray(fd_directional(V, x, U(x), step)) - np.asarray(fd_directional(U, x, V(x), step))


def span_rank(vectors) -> int:
    """Numerical rank of a list of vectors via singular values.

    Singular values below ``1e-8 * max(largest, 1)`` count as zero.  A
    vector that is not finite has no rank: it raises ``ValueError``.
    """
    return int(_span_ranks(np.atleast_2d(np.asarray(vectors, dtype=float))[None])[0])


def _span_ranks(stack, points=None) -> np.ndarray:
    """:func:`span_rank` of each matrix of a ``(count, rows, dim)`` stack, in one SVD.

    A matrix that is not finite raises ``ValueError``, named by its point
    when ``points`` holds one per matrix, before the SVD, which would not
    converge.
    """
    stack = np.asarray(stack, dtype=float)
    if stack.size == 0:
        return np.zeros(len(stack), dtype=int)
    finite = np.isfinite(stack).all(axis=(1, 2))
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError("span is not finite" + ("" if points is None else f" at {points[i]}"))
    sv = np.linalg.svd(stack, compute_uv=False)
    return np.sum(sv > _SV_THRESHOLD * np.maximum(sv[:, :1], 1.0), axis=1)


def lie_closure_rank(S: AlgebroidStructure, p, depth: int, sections=None, step=None) -> int:
    """Rank at ``p`` of anchored sections together with iterated Lie brackets.

    ``depth`` counts bracket levels: 1 keeps the anchored fields themselves,
    2 adds single brackets, and so on.  Brackets are taken as vector fields
    on the base using finite-difference Jacobian-vector products.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    p = S.check_point(p)
    if S.n == 0:
        return 0
    if sections is None:
        sections = S.basis_sections()
    fields = [S.anchored_field(X) for X in sections]
    levels = [fields]
    values = [f(p) for f in fields]
    for _ in range(depth - 1):
        new_level = []
        for U in fields:
            for V in levels[-1]:
                W = (lambda x, U=U, V=V: vector_field_bracket(U, V, x, step))
                new_level.append(W)
                values.append(W(p))
        levels.append(new_level)
    return span_rank(values)
