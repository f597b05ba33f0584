"""Bundle metric, Levi-Civita connection and symmetric product.

The connection is computed from the Koszul formula in an arbitrary basis,
the lowered tensor ``K[B, C, E] = 2 G(nabla_{e_B} e_C, e_E)``.  Each
structure and metric pair has one source of connection values, decided on
its first use and kept on the structure (:func:`_connection`): the fixed
tensor of a pair whose coefficients do not move with the point, with the
compiled table of its quadratic form (:func:`_quadratic_form`); for a pair
whose fields are all expression tables (every loaded document), one
compiled table of the anchor, the metric and ``K`` (:func:`_koszul_table`),
built from their derivative trees; for a pair with an opaque callable, the
numeric assembly (:func:`_koszul`) by transposed sums from the anchored
metric derivatives ``rho(e_A)(G)`` and the lowered structure functions
``G(e_A, [e_B, e_C])``, laid out as the table is.  The geodesic spray and
the :func:`christoffel_field` evaluator read that source: the spray
contracts ``K`` with the velocity and makes one solve, so it builds no
Christoffel tensor, and the evaluator makes one stacked inversion and
contraction for a point or a stack.  :func:`christoffel` at one point
assembles numerically and builds no table.  Every derivative of a field
here (metric, section, potential) is taken by ``algebroid._differential``:
exact for a field backed by expression tables, a central difference for an
opaque callable.  Orthogonal-basis shortcuts are deliberately not a
separate code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .algebroid import (AlgebroidStructure, Num0, Section, Trajectory, _as_scalar_field,
                        _at_points, _check_mirrors, _differential, _ExprTable, _probe_points,
                        d_function)
from . import expr as ex
from .expr import _finite, fd_directional

__all__ = [
    "BundleMetric",
    "SingularMetricError",
    "ChristoffelTensor",
    "Potential",
    "ForceField",
    "flat",
    "sharp",
    "christoffel",
    "christoffel_field",
    "covariant_derivative",
    "covariant_derivative_along",
    "symmetric_product",
    "symprod_via_lifts",
    "gradient",
    "gradient_section",
]


class SingularMetricError(ValueError):
    """The metric matrix is (numerically) singular at an evaluation point."""


class BundleMetric:
    """Symmetric fiber metric ``G_AB(x)`` on the algebroid.

    Calling it is :meth:`matrix`, at a point or at a stack of points.  A
    metric wrapping an expression table or the induced Gram matrix carries
    their ``value_and_jacobian``.
    """

    stacks = True  # a call takes a stack of points (see algebroid._at_points)

    def __init__(self, fn: Callable, rank: int):
        self._fn = fn
        self.m = int(rank)
        self._shape = (self.m, self.m)
        # Only an expression table knows it is coordinate-free.
        self.is_constant = getattr(fn, "is_constant", False)
        if hasattr(fn, "value_and_jacobian"):
            self.value_and_jacobian = fn.value_and_jacobian

    @classmethod
    def from_exprs(cls, entries: Sequence[Sequence], coords, params=None,
                   probe_points=None) -> "BundleMetric":
        """Build from an ``m x m`` table of expressions.

        Symmetry is enforced by storage: entries below the diagonal may be
        omitted (``None``/``""``), and explicitly supplied mirror pairs must
        agree up to rounding, and be finite, at ``probe_points`` (the loader
        passes chart samples), or at points of ``[-1, 1]^n`` when omitted.
        """
        m = len(entries)
        cells = [[None if cell in (None, "") else cell for cell in row] for row in entries]
        if any(len(row) != m for row in cells):
            raise ValueError("metric table must be square")
        pairs = []
        for i in range(m):
            for j in range(i + 1, m):
                upper, lower = cells[i][j], cells[j][i]
                if upper is not None and lower is not None:
                    pairs.append((upper, lower,
                                  f"metric entries ({i + 1},{j + 1}) and ({j + 1},{i + 1}) differ"))
                elif upper is not None:
                    cells[j][i] = upper
                elif lower is not None:
                    cells[i][j] = lower
        points = _probe_points(len(coords)) if probe_points is None else probe_points
        params = dict(params or {})
        _check_mirrors(pairs, 1.0, coords, params, points, "metric")
        table = _ExprTable([Num0 if cell is None else cell for row in cells for cell in row],
                           (m, m), coords, params, "metric", differentiable=True)
        return cls(table, m)

    def matrix(self, x) -> np.ndarray:
        """The ``(m, m)`` matrix at a point ``(n,)``, or their ``(N, m, m)``
        stack at a stack ``(N, n)`` of points, by ``algebroid._at_points``:
        one call with the stack of a function that takes one (an expression
        table, the induced Gram matrix)."""
        return _at_points(self._fn, x, self._shape, "metric")

    def __call__(self, x) -> np.ndarray:
        return self.matrix(x)

    def inverse(self, x) -> np.ndarray:
        """The inverse metric matrix at ``x``, or their ``(N, m, m)`` stack
        at a stack ``(N, n)`` of points, each bitwise its point's;
        ``SingularMetricError`` when the metric is not finite or singular
        there.  A larger stack that fails is re-run one point at a time, so
        the error is the first failing point's."""
        G = self.matrix(x)
        at = x if np.ndim(x) < 2 else x[0]
        try:
            # An infinite entry can have a finite inverse.
            if not np.isfinite(G).all():
                raise _not_finite(at)
            try:
                inv = np.linalg.inv(G)
            except np.linalg.LinAlgError:
                raise _singular(at) from None
            if not np.isfinite(inv).all():
                raise _singular(at)
            return inv
        except SingularMetricError:
            if np.ndim(x) < 2 or len(x) == 1:
                raise
        return np.array([self.inverse(p) for p in x])

    def positive_definite_on(self, points) -> bool:
        """Sampled diagnostic: True when every eigenvalue at every point is
        positive.  ``SingularMetricError`` names the first point where the
        metric is not finite, tested before the eigenvalues."""
        points = np.atleast_2d(points)
        matrices = self.matrix(points)
        finite = np.isfinite(matrices).all(axis=(1, 2))
        if not finite.all():
            raise _not_finite(points[np.argmin(finite)])
        return bool(np.all(np.linalg.eigvalsh(matrices) > 0))


def _singular(x) -> SingularMetricError:
    return SingularMetricError(f"metric is singular at {np.asarray(x)}")


def _not_finite(x) -> SingularMetricError:
    return SingularMetricError(f"metric is not finite at {np.asarray(x)}")


@dataclass(frozen=True)
class ChristoffelTensor:
    """Connection coefficients ``gamma[A, B, C]`` at a single base point."""

    gamma: np.ndarray
    point: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gamma", np.asarray(self.gamma, dtype=float))
        object.__setattr__(self, "point", np.asarray(self.point, dtype=float))
        if not np.isfinite(self.gamma).all():
            raise ValueError("non-finite Christoffel entries")

    @property
    def rank(self) -> int:
        return self.gamma.shape[0]

    def antisymmetric_part(self) -> np.ndarray:
        """``gamma[A,B,C] - gamma[A,C,B]``; equals the structure functions."""
        return self.gamma - np.transpose(self.gamma, (0, 2, 1))


class Potential:
    """Scalar potential on the base; one from an expression carries its
    table's ``value_and_jacobian``."""

    def __init__(self, fn: Callable):
        self._fn = fn
        if hasattr(fn, "value_and_jacobian"):
            self.value_and_jacobian = fn.value_and_jacobian

    @classmethod
    def from_expr(cls, entry, coords, params=None) -> "Potential":
        return cls(_ExprTable([entry], (), coords, params or {}, "potential"))

    def __call__(self, x) -> float:
        return float(self._fn(np.asarray(x, dtype=float)))


class ForceField:
    """Fiber-preserving force map with components over base and fiber coordinates."""

    def __init__(self, fn: Callable, rank: int):
        self._fn = fn
        self.m = int(rank)

    @classmethod
    def from_exprs(cls, entries, coords, params=None) -> "ForceField":
        """Component expressions may reference base coordinates and the fiber
        coordinates, named ``y1..ym``."""
        m = len(entries)
        names = tuple(f"y{j + 1}" for j in range(m))
        table = _ExprTable(entries, (m,), tuple(coords) + names, params or {}, "force")

        def fn(x, y):
            return table(np.concatenate([np.asarray(x, dtype=float), np.asarray(y, dtype=float)]))

        return cls(fn, m)

    @classmethod
    def from_section(cls, X: Section) -> "ForceField":
        return cls(lambda x, y: X(x), X.rank)

    def __call__(self, x, y) -> np.ndarray:
        return _at_points(self._fn, x, (self.m,), "force", np.asarray(y, dtype=float))


# --- metric operations ---------------------------------------------------------


def _coeffs(X, x) -> np.ndarray:
    return X(x) if isinstance(X, Section) else np.asarray(X, dtype=float)


def flat(Gm: BundleMetric, X, p) -> np.ndarray:
    """Musical isomorphism fiber -> covector at ``p``."""
    return Gm.matrix(p) @ _coeffs(X, p)


def sharp(Gm: BundleMetric, kappa, p) -> np.ndarray:
    """Musical isomorphism covector -> fiber at ``p`` (inverse of ``flat``);
    at a stack ``(N, n)`` of points, the ``(N, m)`` covectors row by row,
    each bitwise its point's."""
    inverse, coeffs = Gm.inverse(p), _coeffs(kappa, p)
    return inverse @ coeffs if inverse.ndim == 2 else (inverse @ coeffs[:, :, None])[:, :, 0]


# --- connection ------------------------------------------------------------------


def _koszul(S: AlgebroidStructure, Gm: BundleMetric, p):
    """``(A, G, K)`` at ``p``: the anchor, the metric and the lowered Koszul
    tensor ``K[B, C, E] = 2 G(nabla_{e_B} e_C, e_E)``.

    From the anchored metric derivatives ``rhoG[A, C, D] = rho(e_A)(G_CD)``
    and the lowered structure functions ``GC[A, B, C] = G(e_A, [e_B,
    e_C])``: the three pairings of the formula are transposes of ``GC``, by
    the antisymmetry of the structure functions, so the assembly is a few
    transposed sums.  A coordinate-free metric needs no anchor for its zero
    derivatives, so ``A`` is then None: reading it would compile the anchor
    table of a freshly loaded document.
    """
    m = S.m
    if Gm.is_constant:
        A, G, dG = None, Gm.matrix(p), None
    else:
        A = S.anchor(p)
        G, dG = _differential(Gm, p)
    # Before anything is computed from G, whose non-finite entries would
    # only turn into warnings and NaNs there.
    if not np.isfinite(G).all():
        raise _singular(p)
    rhoG = np.zeros((m,) * 3) if dG is None else dG(A)
    GC = (G @ S.structure(p).reshape(m, m * m)).reshape(m, m, m)
    # W[B, C, E] = rho(e_B)(G_CE) + G(e_B, [e_E, e_C]); K adds W with B and C
    # swapped and subtracts rho(e_E)(G_BC) + G(e_E, [e_C, e_B])
    W = rhoG + GC.transpose(0, 2, 1)
    return A, G, W + W.transpose(1, 0, 2) - (rhoG - GC).transpose(1, 2, 0)


# --- compiled Koszul table ---------------------------------------------------------
#
# The symbolic mirror of _koszul: the trees of (A, G, K) for a pair whose
# fields are all expression tables, compiled as one table over the base point.
# The tree builders fold what the arithmetic makes exact: a zero term, a
# factor one, and a negation taken into the operator (a + -b is a - b, and
# (-a) b is -(a b)).  A zero factor folds too, which differs from the numeric
# product only where the other factor is not finite.


def _is_zero(node) -> bool:
    return type(node) is ex.Num and node.value == 0.0


def _neg(a):
    if _is_zero(a):
        return Num0
    return a.arg if type(a) is ex.Neg else ex.Neg(a)


def _plus(a, b):
    if _is_zero(a) or _is_zero(b):
        return b if _is_zero(a) else a
    if type(b) is ex.Neg:
        return _minus(a, b.arg)
    return _minus(b, a.arg) if type(a) is ex.Neg else ex.BinOp("+", a, b)


def _minus(a, b):
    if _is_zero(b) or _is_zero(a):
        return a if _is_zero(b) else _neg(b)
    return _plus(a, b.arg) if type(b) is ex.Neg else ex.BinOp("-", a, b)


def _product(a, b):
    if _is_zero(a) or _is_zero(b):
        return Num0
    if type(a) is ex.Neg or type(b) is ex.Neg:
        return _neg(_product(_neg(a), b) if type(a) is ex.Neg else _product(a, _neg(b)))
    if type(a) is ex.Num and a.value == 1.0:
        return b
    return a if type(b) is ex.Num and b.value == 1.0 else ex.BinOp("*", a, b)


def _dot(pairs):
    """``sum a * b`` over ``pairs``, left to right, without its zero terms."""
    out = Num0
    for a, b in pairs:
        out = _plus(out, _product(a, b))
    return out


def _grid(table, *shape):
    """The entries of an expression table as nested lists of ``shape``."""
    entries = iter(table.exprs)

    def nest(dims):
        return [nest(dims[1:]) if len(dims) > 1 else next(entries) for _ in range(dims[0])]

    return nest(shape)


def _symbolic_terms(S: AlgebroidStructure, Gm: BundleMetric):
    """The trees of ``A``, ``G``, ``rhoG`` and ``GC`` of :func:`_koszul`, or
    None when a field of the pair is not an expression table over
    ``S.coords``.

    An intrinsic pair differentiates its metric entries.  A structure and a
    metric from one :func:`systems.induced_algebroid` call, which marks both
    with its ``(frame, ambient)`` fields, and with the frame as the anchor,
    apply the product rule to the frame ``B`` and the ambient metric ``g``:
    ``BG = B g``, ``G = BG B^T``, the brackets ``J - J^T`` with ``J[a, b] =
    B[a] . dB[b]``, and ``GC = BG lie^T``, lowered without the projection
    solve.  Every intermediate is one tree, shared by the entries that read
    it.
    """
    m, n = S.m, S.n
    induced = getattr(Gm._fn, "induced", None)
    embedded = (induced is not None and induced is getattr(S._structure_fn, "induced", None)
                and S._anchor_fn is induced[0])
    if embedded:
        tables = ((induced[0], (m, n)), (induced[1], (n, n)))
    else:
        tables = ((S._anchor_fn, (m, n)), (Gm._fn, (m, m)), (S._structure_fn, (m, m, m)))
    params = getattr(tables[0][0], "params", None)
    for table, shape in tables:
        if not (isinstance(table, _ExprTable) and table.shape == shape
                and table.coords == S.coords and table.params == params):
            return None
    rn, rm = range(n), range(m)

    def d(node, i):
        return ex.diff(node, S.coords[i])

    if not embedded:
        A, G, C = (_grid(table, *shape) for table, shape in tables)
        dG = [[[d(G[c][e], i) for i in rn] for e in rm] for c in rm]
        rhoG = [[[_dot((A[a][i], dG[c][e][i]) for i in rn) for e in rm] for c in rm] for a in rm]
        GC = [[[_dot((G[a][e], C[e][b][c]) for e in rm) for c in rm] for b in rm] for a in rm]
        return A, G, rhoG, GC
    B, g = (_grid(table, *shape) for table, shape in tables)
    dB = [[[d(B[a][k], i) for i in rn] for k in rn] for a in rm]
    dg = [[[d(g[l][k], i) for i in rn] for k in rn] for l in rn]
    BG = [[_dot((B[a][l], g[l][k]) for l in rn) for k in rn] for a in rm]
    G = [[_dot((BG[a][k], B[b][k]) for k in rn) for b in rm] for a in rm]
    # d(B g B^T) = B g dB^T + its transpose + B dg B^T
    half = [[[_dot((BG[a][k], dB[b][k][i]) for k in rn) for i in rn] for b in rm] for a in rm]
    Bdg = [[[_dot((B[a][l], dg[l][k][i]) for l in rn) for i in rn] for k in rn] for a in rm]
    dgram = [[[_plus(_plus(half[a][b][i], half[b][a][i]),
                     _dot((B[b][k], Bdg[a][k][i]) for k in rn)) for i in rn] for b in rm]
             for a in rm]
    J = [[[_dot((B[a][i], dB[b][k][i]) for i in rn) for k in rn] for b in rm] for a in rm]
    rhoG = [[[_dot((B[a][i], dgram[b][c][i]) for i in rn) for c in rm] for b in rm] for a in rm]
    # The brackets and their pairings are antisymmetric in (b, c), exactly
    # as the numeric ones are: only b < c is computed.
    GC = [[[Num0] * m for _ in rm] for _ in rm]
    for b in rm:
        for c in range(b + 1, m):
            lie = [_minus(J[b][c][k], J[c][b][k]) for k in rn]
            for a in rm:
                GC[a][b][c] = _dot((BG[a][k], lie[k]) for k in rn)
                GC[a][c][b] = _neg(GC[a][b][c])
    return B, G, rhoG, GC


def _koszul_table(S: AlgebroidStructure, Gm: BundleMetric):
    """The pair's ``(A, G, K)`` of :func:`_koszul` as one expression table
    over the base point, its flat entries the anchor, the metric and ``K``;
    None when a field of the pair is an opaque callable.  Built and compiled
    on every call: :func:`_connection` keeps the one a pair reads."""
    terms = _symbolic_terms(S, Gm)
    if terms is None:
        return None
    A, G, rhoG, GC = terms
    rm = range(S.m)
    # As in _koszul: K = W + W^T(B, C) - (rhoG - GC)^T(E, B, C), with
    # W[B, C, E] = rhoG[B, C, E] + GC[B, E, C]
    W = [[[_plus(rhoG[b][c][e], GC[b][e][c]) for e in rm] for c in rm] for b in rm]
    K = [_minus(_plus(W[b][c][e], W[c][b][e]), _minus(rhoG[e][b][c], GC[e][b][c]))
         for b in rm for c in rm for e in rm]
    entries = [e for row in A for e in row] + [e for row in G for e in row] + K
    table = _ExprTable(entries, (len(entries),), S.coords, S._anchor_fn.params, "Koszul table")
    table._compile(False)
    return table


def _quadratic_form(gamma: np.ndarray) -> _ExprTable:
    """Minus the quadratic form of a fixed tensor, ``y -> -gamma(y, y)``, as
    an expression table of shape ``(m,)`` over the fiber names ``_y0`` ..
    ``_y{m-1}``, with no parameters.

    Entry ``c`` is ``0.0 + sum (-gamma[c, a, b] * y_a) * y_b``, summed left
    to right over ``(a, b)`` in C order without its zero terms.  That is
    how ``np.einsum("cab,a,b->c", -gamma, y, y)`` (no ``optimize``) sums,
    so the compiled values are bitwise its own at a point and at every row
    of a stack.  The running sum starts at +0.0 and so is never -0.0, which
    makes leaving out a zero term exact for a finite ``y``; at a fiber
    holding inf or NaN an entry without the terms that read it stays finite
    where ``einsum`` gives NaN.
    """
    m = len(gamma)
    fiber = [ex.Var(f"_y{a}") for a in range(m)]
    entries = []
    for c in range(m):
        entry = Num0
        for a in range(m):
            for b in range(m):
                coefficient = -float(gamma[c, a, b])
                if coefficient:
                    term = ex.BinOp("*", ex.BinOp("*", ex.Num(coefficient), fiber[a]), fiber[b])
                    entry = ex.BinOp("+", entry, term)
        entries.append(entry)
    return _ExprTable(entries, (m,), [v.name for v in fiber], {}, "quadratic form")


def _connection(S: AlgebroidStructure, Gm: BundleMetric):
    """``(gamma, values)``: the pair's one source of connection values,
    decided on the first call for the pair and kept on the structure with
    the metric it was built for.

    A pair whose coefficients do not depend on the point (a coordinate-free
    metric and structure, or a point base) gets ``gamma``, the read-only
    tensor of :func:`christoffel`, and ``values``, ``y ->`` minus its
    quadratic form at the fiber value ``y``: the table of
    :func:`_quadratic_form`, compiled on its first call.  Every other pair
    gets ``gamma`` None and ``values``, ``x ->`` its ``(A, G, K)`` at ``x``
    as one flat array, the anchor, the metric and ``K`` raveled in turn:
    the compiled Koszul table, or for a pair with an opaque callable the
    terms of :func:`_koszul` laid out the same way.
    """
    kept = S._connection
    if kept is not None and kept[0] is Gm:
        return kept[1]
    if (Gm.is_constant and S.constant_structure) or S.n == 0:
        gamma = christoffel(S, Gm, np.zeros(S.n)).gamma
        gamma.flags.writeable = False
        source = gamma, _quadratic_form(gamma)
    else:
        def assembled(x):
            A, G, K = _koszul(S, Gm, x)
            return np.concatenate([(S.anchor(x) if A is None else A).ravel(), G.ravel(), K.ravel()])

        table = _koszul_table(S, Gm)
        source = None, assembled if table is None else table
    # Threads racing here each build an equal source and store it; the last
    # store wins and no caller sees a partial one.
    S._connection = (Gm, source)
    return source


def christoffel(S: AlgebroidStructure, Gm: BundleMetric, p) -> ChristoffelTensor:
    """Connection coefficients at ``p`` from the Koszul formula: the
    one-point stack of :func:`_christoffel_stack` over :func:`_koszul`,
    which builds no table."""
    p = S.check_point(p)
    gamma = _christoffel_stack(S, lambda points: _koszul(S, Gm, points[0])[1:], p[None])
    return ChristoffelTensor(gamma[0], p)


def _christoffel_stack(S: AlgebroidStructure, terms: Callable, points) -> np.ndarray:
    """The ``(N, m, m, m)`` stack of Christoffel tensors at a ``(N, n)``
    stack of points, where ``terms(points)`` gives the metrics and the
    lowered Koszul tensors there, in any layout of their entries: one
    stacked inversion and contraction.  A one-point stack raises
    ``SingularMetricError`` naming its point, tested before the arithmetic,
    or ``ValueError`` for non-finite coefficients; a larger stack that
    fails is re-run as one-point stacks, so the error is the first failing
    point's.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != S.n:
        raise ValueError(f"base points have shape {points.shape}, chart has dimension {S.n}")
    m, count = S.m, len(points)
    try:
        G, K = terms(points)
        G, K = np.reshape(G, (count, m, m)), np.reshape(K, (count, m * m, m))
        if not np.isfinite(G).all():
            raise _singular(points[0])
        try:
            Ginv = np.linalg.inv(G)
        except np.linalg.LinAlgError:
            raise _singular(points[0]) from None
        if not np.isfinite(Ginv).all():
            raise _singular(points[0])
        gamma = 0.5 * (K @ Ginv.transpose(0, 2, 1))
        if not np.isfinite(gamma).all():
            raise ValueError("non-finite Christoffel entries")
        return gamma.reshape(count, m, m, m).transpose(0, 3, 1, 2)
    except Exception:
        if count == 1:
            raise
    return np.array([_christoffel_stack(S, terms, points[k:k + 1])[0]
                     for k in range(count)]).reshape(count, m, m, m)


def christoffel_field(S: AlgebroidStructure, Gm: BundleMetric) -> Callable:
    """``p -> gamma`` evaluator: the ``(m, m, m)`` tensor at a point ``(n,)``,
    or the ``(N, m, m, m)`` stack of them at a stack ``(N, n)`` of points,
    bitwise the tensors of the points one at a time.

    It reads the pair's :func:`_connection`: a fixed pair's kept tensor, or
    else the metric and ``K`` from the flat values, as the spray does, at
    every point of the stack (a point is a stack of one) in one call of the
    compiled Koszul table, or one call per point of the numeric assembly,
    contracted by :func:`_christoffel_stack`.
    """
    gamma, values = _connection(S, Gm)
    if gamma is not None:
        return lambda p: gamma if np.ndim(p) < 2 else np.broadcast_to(gamma, (len(p), *gamma.shape))
    metric_at, koszul_at = S.n * S.m, S.n * S.m + S.m * S.m

    def terms(points):
        flat = _at_points(values, points, (koszul_at + S.m ** 3,), "Koszul values")
        return flat[:, metric_at:koszul_at], flat[:, koszul_at:]

    return lambda p: (_christoffel_stack(S, terms, S.check_point(p)[None])[0] if np.ndim(p) < 2
                      else _christoffel_stack(S, terms, p))


def covariant_derivative(S, Gm, X, Y: Section, p, gamma=None) -> np.ndarray:
    """Coefficients of ``nabla_X Y`` at ``p``.

    ``X`` is a section, a coefficient vector, or a ``(k, m)`` stack of
    coefficient rows, for which the result stacks one ``nabla_X Y`` per row
    (``np.eye(m)`` gives every ``nabla_{e_A} Y`` from one derivative of
    ``Y``).  Local form: derivative of the target coefficients along the
    anchored direction plus the Christoffel contraction; NaN where a value
    of ``X`` or ``Y`` is not finite.

    At a stack ``(N, n)`` of points, with ``gamma`` their stack of tensors,
    the ``(N, m)`` or ``(N, k, m)`` stack of the results at each point,
    each bitwise its point's: ``Y``, its Jacobian, the anchor and a section
    ``X`` are read in one call each, and the coefficients of a vector or
    rows ``X`` are taken at every point.
    """
    stacked = np.ndim(p) == 2
    p = S.check_points(p) if stacked else S.check_point(p)
    if gamma is None:
        gamma = (np.array([christoffel(S, Gm, x).gamma for x in p]) if stacked
                 else christoffel(S, Gm, p).gamma)
    Xp, (Yp, dY) = _coeffs(X, p), _differential(Y, p)
    if not stacked:
        rows = np.atleast_2d(Xp)
        if _finite(rows, Yp):
            out = rows @ (gamma @ Yp).T + dY(rows @ S.anchor(p))
        else:
            out = np.full(rows.shape, np.nan)
        return out if Xp.ndim == 2 else out[0]
    # A section's value is one row per point; coefficients are the rows of
    # every point.  Each product has the shapes of its point's.
    one = isinstance(X, Section) or Xp.ndim == 1  # one nabla_X Y per point
    rows = Xp[:, None] if isinstance(X, Section) else np.atleast_2d(Xp)
    finite = np.isfinite(Yp).all(axis=1) & np.isfinite(rows).all(axis=(-2, -1))
    out = np.full((len(p), *rows.shape[-2:]), np.nan)
    if finite.any():
        at = rows[finite] if rows.ndim == 3 else rows
        contracted = (gamma[finite] @ Yp[finite][:, None, :, None])[..., 0]
        out[finite] = at @ contracted.transpose(0, 2, 1) + dY(at @ S.anchor(p[finite]), finite)
    return out[:, 0] if one else out


def covariant_derivative_along(S, Gm, traj: Trajectory, W, t, gamma=None) -> np.ndarray:
    """Covariant derivative of a section-along-curve at sample time ``t``,
    ``(m,)``, or at each time of an array of sample times, ``(N, m)``.

    ``W`` is either an ``(N, m)`` array of fiber samples aligned with the
    trajectory or a section to evaluate along the base curve.  The time
    derivative is a central difference over neighbouring samples, so every
    ``t`` must be an interior sample time.  ``gamma`` is the Christoffel
    tensor at that sample, or their stack at those samples, computed by
    :func:`christoffel_field` when omitted.  NaN where ``W`` at the sample
    or a neighbour, or the fiber at the sample, is not finite, tested
    before the difference.
    """
    if traj.fiber is None:
        raise ValueError("trajectory carries no fiber samples")
    if isinstance(W, Section):
        W = W(traj.base)
    W = np.asarray(W, dtype=float)
    k = np.atleast_1d(traj.index_of(t))
    if ((k == 0) | (k == len(traj) - 1)).any():
        raise ValueError("t must be an interior sample")
    if gamma is None:
        gamma = christoffel_field(S, Gm)(traj.base[k])
    gamma = np.reshape(gamma, (len(k), *np.shape(gamma)[-3:]))
    finite = np.isfinite(W).all(axis=1)
    ok = finite[k - 1] & finite[k] & finite[k + 1] & np.isfinite(traj.fiber[k]).all(axis=1)
    j = k[ok]
    out = np.full((len(k), W.shape[1]), np.nan)
    out[ok] = ((W[j + 1] - W[j - 1]) / (traj.times[j + 1] - traj.times[j - 1])[:, None]
               + np.einsum("ncab,na,nb->nc", gamma[ok], traj.fiber[j], W[j]))
    return out[0] if np.ndim(t) == 0 else out


def symmetric_product(S, Gm, X: Section, Y: Section, p, gamma=None) -> np.ndarray:
    """``nabla_X Y + nabla_Y X`` at ``p``; symmetric in its arguments by
    construction, and NaN where a value of ``X`` or ``Y`` is not finite."""
    p = S.check_point(p)
    if gamma is None:
        gamma = christoffel(S, Gm, p).gamma
    (Xp, dX), (Yp, dY) = _differential(X, p), _differential(Y, p)
    if not _finite(Xp, Yp):
        return np.full(Xp.shape, np.nan)
    R = S.anchor(p)
    out = np.einsum("abc,b,c->a", gamma + np.transpose(gamma, (0, 2, 1)), Xp, Yp)
    return out + dY([R.T @ Xp])[0] + dX([R.T @ Yp])[0]


def symprod_via_lifts(S, Gm, X: Section, Y: Section, p, y0, step: float = 1e-4) -> np.ndarray:
    """Symmetric product via nested brackets of vertical lifts with the geodesic spray.

    Independent of the Koszul path: evaluates ``[X^v, [spray, Y^v]]`` on the
    total space with finite differences and reads off the vertical part, which
    is the vertical lift of the symmetric product (independent of ``y0`` up to
    the difference error).  Serves as an oracle for :func:`symmetric_product`.
    """
    from .dynamics import spray_field  # deferred: dynamics builds on this module

    p = S.check_point(p)
    y0 = S.check_fiber(y0)
    n, m = S.n, S.m
    z0 = np.concatenate([p, y0])

    def vertical(section):
        def lifted(z):
            out = np.zeros(n + m)
            out[n:] = section(z[:n])
            return out
        return lifted

    field = spray_field(S, Gm)

    def spray(z):
        return field(0.0, z)

    Yv = vertical(Y)
    Xv = vertical(X)

    def inner(z):
        # [spray, Y^v] = D(Y^v) . spray - D(spray) . Y^v
        return (np.asarray(fd_directional(Yv, z, spray(z), step))
                - np.asarray(fd_directional(spray, z, Yv(z), step)))

    outer = (np.asarray(fd_directional(inner, z0, Xv(z0), step))
             - np.asarray(fd_directional(Xv, z0, inner(z0), step)))
    return outer[n:]


def gradient(S, Gm, V, p) -> np.ndarray:
    """Metric gradient of a potential: sharp of its almost differential, at
    a point or, row by row, at a stack ``(N, n)`` of points.

    An expression ``V`` is compiled on every call; to evaluate one at many
    points, pass a ``Potential``, a stack, or use :func:`gradient_section`.
    """
    x = S.check_points(p) if np.ndim(p) == 2 else S.check_point(p)
    return sharp(Gm, d_function(S, V, x), x)


def gradient_section(S, Gm, V) -> Section:
    """The gradient as a section, evaluable anywhere on the chart."""
    V = _as_scalar_field(V, S)
    return Section(lambda x: gradient(S, Gm, V, x), S.m, label="grad")
