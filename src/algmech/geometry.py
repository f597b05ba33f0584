"""Bundle metric, Levi-Civita connection and symmetric product.

The connection is computed pointwise from the Koszul formula in an arbitrary
basis: the six-term right-hand side is assembled from the anchored metric
derivatives ``rho(e_A)(G)`` (one ``d_function`` call, a central difference
along each anchored frame direction) and the structure functions, then solved
with the inverse metric.  Orthogonal-basis shortcuts are deliberately not a
separate code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .algebroid import (AlgebroidStructure, Num0, Section, Trajectory, _check_mirrors,
                        _ExprTable, _probe_points, _scalar_field, d_function)
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
    """Symmetric fiber metric ``G_AB(x)`` on the algebroid."""

    def __init__(self, fn: Callable, rank: int):
        self._fn = fn
        self.m = int(rank)
        # Only an expression table knows it is coordinate-free.
        self.is_constant = getattr(fn, "is_constant", False)

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
                           (m, m), coords, params, "metric")
        return cls(table, m)

    def matrix(self, x) -> np.ndarray:
        out = np.asarray(self._fn(np.asarray(x, dtype=float)), dtype=float)
        if out.shape != (self.m, self.m):
            raise ValueError(f"metric returned shape {out.shape}")
        return out

    def inverse(self, x) -> np.ndarray:
        return _invert(self.matrix(x), x)

    def positive_definite_on(self, points) -> bool:
        """Sampled diagnostic; returns False at the first offending point."""
        for p in np.atleast_2d(points):
            if np.any(np.linalg.eigvalsh(self.matrix(p)) <= 0):
                return False
        return True


def _invert(G: np.ndarray, x) -> np.ndarray:
    """Inverse of the metric matrix ``G`` at ``x``; raises when it is singular."""
    try:
        inv = np.linalg.inv(G)
    except np.linalg.LinAlgError:
        raise SingularMetricError(f"metric is singular at {np.asarray(x)}") from None
    if not np.all(np.isfinite(inv)):
        raise SingularMetricError(f"metric is singular at {np.asarray(x)}")
    return inv


@dataclass(frozen=True)
class ChristoffelTensor:
    """Connection coefficients ``gamma[A, B, C]`` at a single base point."""

    gamma: np.ndarray
    point: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gamma", np.asarray(self.gamma, dtype=float))
        object.__setattr__(self, "point", np.asarray(self.point, dtype=float))
        if not np.all(np.isfinite(self.gamma)):
            raise ValueError("non-finite Christoffel entries")

    @property
    def rank(self) -> int:
        return self.gamma.shape[0]

    def antisymmetric_part(self) -> np.ndarray:
        """``gamma[A,B,C] - gamma[A,C,B]``; equals the structure functions."""
        return self.gamma - np.transpose(self.gamma, (0, 2, 1))


class Potential:
    """Scalar potential on the base."""

    def __init__(self, fn: Callable):
        self._fn = fn

    @classmethod
    def from_expr(cls, entry, coords, params=None) -> "Potential":
        return cls(_scalar_field(entry, coords, params or {}, "potential"))

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


def christoffel(S: AlgebroidStructure, Gm: BundleMetric, p) -> ChristoffelTensor:
    """Connection coefficients at ``p`` from the Koszul formula.

    Assembles ``2 G(nabla_{e_B} e_C, e_E)`` for all index triples — metric
    derivatives along the anchored basis fields plus the six structure-function
    pairings — and contracts with the inverse metric.
    """
    p = S.check_point(p)
    G = Gm.matrix(p)
    Ginv = _invert(G, p)
    m = S.m
    C = S.structure(p)

    # rho(e_A)(G_CD)
    rhoG = np.zeros((m, m, m)) if Gm.is_constant else d_function(S, Gm.matrix, p)

    K = (
        rhoG
        + np.einsum("cbe->bce", rhoG)                      # rho(e_C)(G_BE) at [B,C,E]
        - np.einsum("ebc->bce", rhoG)                      # rho(e_E)(G_BC) at [B,C,E]
        + np.einsum("bf,fec->bce", G, C)                   # G(e_B, [e_E, e_C])
        + np.einsum("cf,feb->bce", G, C)                   # G(e_C, [e_E, e_B])
        - np.einsum("ef,fcb->bce", G, C)                   # G(e_E, [e_C, e_B])
    )
    gamma = 0.5 * np.einsum("ae,bce->abc", Ginv, K)
    return ChristoffelTensor(gamma, p)


def christoffel_field(S: AlgebroidStructure, Gm: BundleMetric) -> Callable:
    """``p -> gamma`` evaluator.

    When both the metric and the structure functions are coordinate-free the
    tensor is computed once; otherwise each call computes it at ``p``.
    """
    if (Gm.is_constant and S.constant_structure) or S.n == 0:
        fixed = christoffel(S, Gm, np.zeros(S.n)).gamma
        return lambda p: fixed
    return lambda p: christoffel(S, Gm, p).gamma


def covariant_derivative(S, Gm, X: Section, Y: Section, p, gamma=None) -> np.ndarray:
    """Coefficients of ``nabla_X Y`` at ``p``.

    Local form: derivative of the target coefficients along the anchored
    direction plus the Christoffel contraction.
    """
    p = S.check_point(p)
    if gamma is None:
        gamma = christoffel(S, Gm, p).gamma
    Xp, Yp = X(p), Y(p)
    out = np.einsum("abc,b,c->a", gamma, Xp, Yp)
    if S.n:
        out = out + fd_directional(Y, p, S.anchor(p).T @ Xp)
    return out


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
    Xp, Yp = X(p), Y(p)
    out = np.einsum("abc,b,c->a", gamma + np.transpose(gamma, (0, 2, 1)), Xp, Yp)
    if S.n:
        R = S.anchor(p)
        out = out + fd_directional(Y, p, R.T @ Xp) + fd_directional(X, p, R.T @ Yp)
    return out


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
    fn = V if isinstance(V, Potential) else Potential.from_expr(V, S.coords, S.params)
    return sharp(Gm, d_function(S, fn, p), p)


def gradient_section(S, Gm, V) -> Section:
    """The gradient as a section, evaluable anywhere on the chart."""
    V = V if isinstance(V, Potential) else Potential.from_expr(V, S.coords, S.params)
    return Section(lambda x: gradient(S, Gm, V, x), S.m, label="grad")
