"""Bundle metric, Levi-Civita connection and symmetric product.

The connection is computed pointwise from the Koszul formula in an arbitrary
basis.  One assembly, :func:`_koszul`, builds the lowered tensor
``K[B, C, E] = 2 G(nabla_{e_B} e_C, e_E)`` by transposed sums from the
anchored metric derivatives ``rho(e_A)(G)`` and the lowered structure
functions ``G(e_A, [e_B, e_C])``.  :func:`christoffel` contracts it with the
inverse metric; the geodesic spray contracts it with the velocity and makes
one solve, so it builds no Christoffel tensor.  An algebroid induced on an
embedded distribution hands over those pointwise terms from one frame and
one ambient evaluation, its brackets lowered without a projection.  Every
derivative of a field here (metric, section, potential) is taken by
``algebroid._differential``: exact for a field backed by expression tables,
a central difference for an opaque callable.  Orthogonal-basis shortcuts are
deliberately not a separate code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .algebroid import (AlgebroidStructure, Num0, Section, Trajectory, _as_scalar_field,
                        _check_mirrors, _differential, _ExprTable, _probe_points, d_function)
from .expr import fd_directional

__all__ = [
    "BundleMetric",
    "SingularMetricError",
    "ChristoffelTensor",
    "Potential",
    "ForceField",
    "metric_eval",
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

    Calling it is :meth:`matrix`.  A metric wrapping an expression table or
    the induced Gram matrix carries their ``value_and_jacobian``.
    """

    def __init__(self, fn: Callable, rank: int):
        self._fn = fn
        self.m = int(rank)
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
        out = np.asarray(self._fn(np.asarray(x, dtype=float)), dtype=float)
        if out.shape != (self.m, self.m):
            raise ValueError(f"metric returned shape {out.shape}")
        return out

    def __call__(self, x) -> np.ndarray:
        return self.matrix(x)

    def inverse(self, x) -> np.ndarray:
        return _invert(self.matrix(x), x)

    def positive_definite_on(self, points) -> bool:
        """Sampled diagnostic: True when every eigenvalue at every point is
        positive (a NaN is not)."""
        matrices = np.array([self.matrix(p) for p in np.atleast_2d(points)])
        return bool(np.all(np.linalg.eigvalsh(matrices.reshape(-1, self.m, self.m)) > 0))


def _singular(x) -> SingularMetricError:
    return SingularMetricError(f"metric is singular at {np.asarray(x)}")


def _invert(G: np.ndarray, x) -> np.ndarray:
    """Inverse of the metric matrix ``G`` at ``x``; raises when it is singular."""
    try:
        inv = np.linalg.inv(G)
    except np.linalg.LinAlgError:
        raise _singular(x) from None
    if not np.isfinite(inv).all():
        raise _singular(x)
    return inv


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
        out = np.asarray(self._fn(np.asarray(x, dtype=float), np.asarray(y, dtype=float)), dtype=float)
        if out.shape != (self.m,):
            raise ValueError(f"force returned shape {out.shape}")
        return out


# --- metric operations ---------------------------------------------------------


def _coeffs(X, x) -> np.ndarray:
    return X(x) if isinstance(X, Section) else np.asarray(X, dtype=float)


def metric_eval(Gm: BundleMetric, X, Y, p) -> float:
    """``G(X, Y)`` at ``p``; arguments are sections or coefficient vectors."""
    return float(_coeffs(X, p) @ Gm.matrix(p) @ _coeffs(Y, p))


def flat(Gm: BundleMetric, X, p) -> np.ndarray:
    """Musical isomorphism fiber -> covector at ``p``."""
    return Gm.matrix(p) @ _coeffs(X, p)


def sharp(Gm: BundleMetric, kappa, p) -> np.ndarray:
    """Musical isomorphism covector -> fiber at ``p`` (inverse of ``flat``)."""
    return Gm.inverse(p) @ _coeffs(kappa, p)


# --- connection ------------------------------------------------------------------


def _pointwise(S: AlgebroidStructure, Gm: BundleMetric, p):
    """``(A, G, rhoG, GC)`` at ``p``: the anchor, the metric, ``rhoG[A, C, D] =
    rho(e_A)(G_CD)`` and ``GC[A, B, C] = G(e_A, [e_B, e_C])``.

    A structure and a metric from the same :func:`systems.induced_algebroid`
    call, with the frame as the anchor, read all four from one frame and one
    ambient evaluation, the brackets in lowered form and so without the
    projection solve; every other pair reads the anchor, the metric
    derivative and the structure functions.  A coordinate-free metric needs
    no anchor for its zero derivatives, so ``A`` is then None: reading it
    would compile the anchor table of a freshly loaded document.
    """
    induced = getattr(Gm._fn, "koszul_terms", None)
    if (induced is not None and induced is getattr(S._structure_fn, "koszul_terms", None)
            and S._anchor_fn is induced.frame):
        A, G, rhoG, GC = induced(p)
        if A.shape != (S.m, S.n):
            raise ValueError(f"anchor returned shape {A.shape}, expected ({S.m}, {S.n})")
        return A, G, rhoG, GC
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
    return A, G, rhoG, GC


def _koszul(S: AlgebroidStructure, Gm: BundleMetric, p):
    """``(A, G, K)`` at ``p``: the anchor (None when it was not needed, see
    :func:`_pointwise`), the metric and the lowered Koszul tensor
    ``K[B, C, E] = 2 G(nabla_{e_B} e_C, e_E)``.

    Three metric derivatives along the anchored basis fields and three
    structure-function pairings; the pairings are transposes of ``GC``, by
    the antisymmetry of the structure functions, so the assembly is a few
    transposed sums.
    """
    A, G, rhoG, GC = _pointwise(S, Gm, p)
    # W[B, C, E] = rho(e_B)(G_CE) + G(e_B, [e_E, e_C]); K adds W with B and C
    # swapped and subtracts rho(e_E)(G_BC) + G(e_E, [e_C, e_B])
    W = rhoG + GC.transpose(0, 2, 1)
    K = W + W.transpose(1, 0, 2) - (rhoG - GC).transpose(1, 2, 0)
    return A, G, K


def christoffel(S: AlgebroidStructure, Gm: BundleMetric, p) -> ChristoffelTensor:
    """Connection coefficients at ``p`` from the Koszul formula.

    Contracts the lowered Koszul tensor of :func:`_koszul` with the inverse
    metric in one matrix product.
    """
    p = S.check_point(p)
    m = S.m
    _, G, K = _koszul(S, Gm, p)
    Ginv = _invert(G, p)
    gamma = (0.5 * (K.reshape(m * m, m) @ Ginv.T)).reshape(m, m, m).transpose(2, 0, 1)
    return ChristoffelTensor(gamma, p)


def _fixed_coefficients(S: AlgebroidStructure, Gm: BundleMetric) -> bool:
    """True when the connection coefficients do not depend on the point."""
    return (Gm.is_constant and S.constant_structure) or S.n == 0


def christoffel_field(S: AlgebroidStructure, Gm: BundleMetric) -> Callable:
    """``p -> gamma`` evaluator.

    When both the metric and the structure functions are coordinate-free the
    tensor is computed once; otherwise each call computes it at ``p``.
    """
    if _fixed_coefficients(S, Gm):
        fixed = christoffel(S, Gm, np.zeros(S.n)).gamma
        return lambda p: fixed
    return lambda p: christoffel(S, Gm, p).gamma


def covariant_derivative(S, Gm, X, Y: Section, p, gamma=None) -> np.ndarray:
    """Coefficients of ``nabla_X Y`` at ``p``.

    ``X`` is a section, a coefficient vector, or a ``(k, m)`` stack of
    coefficient rows, for which the result stacks one ``nabla_X Y`` per row
    (``np.eye(m)`` gives every ``nabla_{e_A} Y`` from one derivative of
    ``Y``).  Local form: derivative of the target coefficients along the
    anchored direction plus the Christoffel contraction.
    """
    p = S.check_point(p)
    if gamma is None:
        gamma = christoffel(S, Gm, p).gamma
    Xp, (Yp, dY) = _coeffs(X, p), _differential(Y, p)
    rows = np.atleast_2d(Xp)
    out = rows @ (gamma @ Yp).T + dY(rows @ S.anchor(p))
    return out if Xp.ndim == 2 else out[0]


def covariant_derivative_along(S, Gm, traj: Trajectory, W, t, gamma=None) -> np.ndarray:
    """Covariant derivative of a section-along-curve at sample time ``t``.

    ``W`` is either an ``(N, m)`` array of fiber samples aligned with the
    trajectory or a section to evaluate along the base curve.  The time
    derivative is a central difference over neighbouring samples, so ``t``
    must be an interior sample time.  ``gamma`` is the Christoffel tensor at
    that sample, computed when omitted.
    """
    if traj.fiber is None:
        raise ValueError("trajectory carries no fiber samples")
    if isinstance(W, Section):
        W = np.array([W(x) for x in traj.base])
    W = np.asarray(W, dtype=float)
    k = traj.index_of(t)
    if k == 0 or k == len(traj) - 1:
        raise ValueError("t must be an interior sample")
    dt = traj.times[k + 1] - traj.times[k - 1]
    dW = (W[k + 1] - W[k - 1]) / dt
    if gamma is None:
        gamma = christoffel(S, Gm, traj.base[k]).gamma
    return dW + np.einsum("cab,a,b->c", gamma, traj.fiber[k], W[k])


def symmetric_product(S, Gm, X: Section, Y: Section, p, gamma=None) -> np.ndarray:
    """``nabla_X Y + nabla_Y X`` at ``p``; symmetric in its arguments by construction."""
    p = S.check_point(p)
    if gamma is None:
        gamma = christoffel(S, Gm, p).gamma
    (Xp, dX), (Yp, dY) = _differential(X, p), _differential(Y, p)
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
    """Metric gradient of a potential: sharp of its almost differential.

    An expression ``V`` is compiled on every call; to evaluate one at many
    points, pass a ``Potential`` or use :func:`gradient_section`.
    """
    p = S.check_point(p)
    return sharp(Gm, d_function(S, V, p), p)


def gradient_section(S, Gm, V) -> Section:
    """The gradient as a section, evaluable anywhere on the chart."""
    V = _as_scalar_field(V, S)
    return Section(lambda x: gradient(S, Gm, V, x), S.m, label="grad")
