"""Ambient Riemannian manifold in a single coordinate chart.

The metric is a symmetric grid of expressions in x1..x_d. The Christoffel
symbols and the curvature are computed from exact jets of those
expressions, never finite differences: christoffel_jets and curvature_jets
on the metric jets, with metric_at and curvature_at as their values at one
point. Covariant derivatives along a submanifold are taken in the adapted
frame (operators.ambient_deriv_frame), not in the chart.

A metric whose entries read no variable, as euclidean(d)'s, is constant:
AmbientSpace decides this once, when it is made, and keeps the values as
`constant_metric`; whether they are finite and positive definite is decided
then too, and a call that would refuse them still does, at its first point.
Its metric jet is the jet of those values, with no derivative coefficients,
and its Christoffel and curvature jets are zero.
A submanifold's frame takes its metric, Christoffels and curvature as those
constants in its own variables (submanifold.FramePointData), not as
pullbacks of x-space jets; truncated Taylor arithmetic makes the two
bitwise equal.

Curvature convention, fixed throughout the package:

    R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_{[X,Y]} Z
    R^i_{jkl} = [R(d_k, d_l) d_j]^i
              = d_k Gamma^i_{lj} - d_l Gamma^i_{kj}
                + Gamma^m_{lj} Gamma^i_{km} - Gamma^m_{kj} Gamma^i_{lm}

and sectional curvature of the plane (X, Y) orthonormal is g(R(X,Y)Y, X),
which makes the round sphere come out positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import DomainError, Expression, eval_expr, first_point, free_of_variables, intern, parse
from .jets import Jet, get_space, jet_einsum, jet_inv, jstack

__all__ = [
    "AmbientSpace",
    "AmbientError",
    "CurvatureAtPoint",
    "euclidean",
    "sphere_chart",
    "metric_at",
    "curvature_at",
    "christoffel_jets",
    "curvature_jets",
    "is_int",
]


def is_int(x) -> bool:
    """An int or a numpy integer; a bool is refused, though it is an int.
    The check of every integer argument: jet and frame orders, sample counts,
    seeds."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


class AmbientError(ValueError):
    """Raised when a metric query fails (a metric not finite or not positive
    definite, bad dimensions)."""


def _not_positive_definite(g: np.ndarray) -> np.ndarray:
    """Where the symmetric matrices g (..., d, d) have no Cholesky factor."""
    bad = np.zeros(g.shape[:-2], dtype=bool)
    for idx in np.ndindex(bad.shape):
        try:
            np.linalg.cholesky(g[idx])
        except np.linalg.LinAlgError:
            bad[idx] = True
    return bad


class AmbientSpace:
    """A chart with expression-valued metric entries g_ij(x1..x_d), each
    given as an expression or as a string that is parsed in x1..x_d.

    constant_metric is the (d, d) array of the metric's values when no entry
    reads a variable, decided once here, and None otherwise. A constant
    entry outside its domain (1/0, say) leaves the metric to be evaluated
    per call, which refuses it at the points asked for. Whether a constant
    metric is finite and positive definite is decided here too, once: one
    that is not is still refused by every metric_jets call, at the first
    point asked for.

    The distinct entries are interned once here (expr.intern), so that a
    subexpression they share is evaluated once per metric_jets call.
    """

    def __init__(self, dim: int, entries: list[list[Expression | str]], tag: str = "custom"):
        if not is_int(dim) or not 2 <= dim <= 9:
            raise AmbientError(f"ambient dimension must be an integer 2..9, got {dim!r}")
        if len(entries) != dim or any(len(row) != dim for row in entries):
            raise AmbientError("metric grid must be dim x dim")
        entries = [[parse(e, dim, var_prefix="x") if isinstance(e, str) else e for e in row] for row in entries]
        for i, row in enumerate(entries):
            for j, e in enumerate(row):
                if not isinstance(e, Expression):
                    raise AmbientError(f"metric entry ({i + 1},{j + 1}) is {e!r}, not an expression or a string")
        for i in range(dim):
            for j in range(i):
                if entries[i][j] != entries[j][i]:
                    raise AmbientError(
                        f"metric entries ({i + 1},{j + 1}) and ({j + 1},{i + 1}) differ"
                    )
        self.dim = dim
        self.entries = entries
        self.tag = tag
        # the distinct entries (a diagonal metric has two), each evaluated once
        # per metric_jets call of a metric that is not constant, and every
        # entry's index among them
        distinct = list(dict.fromkeys(e for row in entries for e in row))
        self._where = [[distinct.index(e) for e in row] for row in entries]
        self._distinct = intern(distinct)
        self.constant_metric = self._constant_values()
        # why every call refuses a constant metric, or None
        self._constant_refusal = None
        if self.constant_metric is not None:
            if not np.isfinite(self.constant_metric).all():
                self._constant_refusal = "not finite"
            elif _not_positive_definite(self.constant_metric):
                self._constant_refusal = "not positive definite"

    def _constant_values(self) -> np.ndarray | None:
        if not all(free_of_variables(e) for e in self._distinct):
            return None
        space = get_space(self.dim, 0)
        varjets = space.variables(np.zeros(self.dim))
        memo = {}
        try:
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                values = [eval_expr(e, varjets, space, memo).val for e in self._distinct]
        except DomainError:
            return None
        return np.array([[values[k] for k in row] for row in self._where])

    def metric_jets(self, x0, order: int) -> Jet:
        """The metric as a (..., d, d) jet of integer order `order` >= 0 in
        chart coordinates at the points x0 of shape (..., d), one expansion
        per point. A constant metric is the jet of constant_metric at every
        point, built without evaluating an entry or testing it again; any
        other evaluates each distinct entry once per call, with one memo.
        Either is refused, naming the first point of x0 where it fails, when
        it is not finite or not positive definite."""
        if not is_int(order) or order < 0:
            raise AmbientError(f"metric jets need an integer order 0 or more, got {order!r}")
        x0 = np.asarray(x0, dtype=float)
        if x0.shape[-1:] != (self.dim,):
            raise AmbientError(f"point has shape {x0.shape}, expected (..., {self.dim})")
        space = get_space(self.dim, order)
        batch = x0.shape[:-1]
        if self.constant_metric is not None:
            # the same at every point, so refused at the first (a batch of no
            # points holds none to refuse)
            if self._constant_refusal is not None and x0.size:
                raise AmbientError(f"metric {self._constant_refusal} at {first_point(x0, True)}")
            return space.constant(np.broadcast_to(self.constant_metric, batch + (self.dim, self.dim)))
        varjets = space.variables(x0)
        memo = {}
        # an overflow or a pole shows as a non-finite entry, refused below
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            jets = [eval_expr(e, varjets, space, memo) for e in self._distinct]
        rows = [jstack([jets[k] for k in row], axis=-1) for row in self._where]
        # an entry that is a constant carries no batch axes yet: broadcast
        G = jstack(rows, axis=-2) * np.ones(batch + (1, 1))
        # symmetric by construction (__init__ equates the mirrored entries)
        finite = np.isfinite(G.coeffs).all(axis=(-3, -2, -1))
        if not finite.all():
            raise AmbientError(f"metric not finite at {first_point(x0, ~finite)}")
        try:
            np.linalg.cholesky(G.val)
        except np.linalg.LinAlgError:
            bad = _not_positive_definite(G.val)
            raise AmbientError(f"metric not positive definite at {first_point(x0, bad)}") from None
        return G

    def geometry_jets(self, x0, order: int) -> tuple[Jet, Jet, Jet]:
        """Metric, Christoffel, and curvature jets at x0.

        With metric jets of order k the Christoffel jet is valid to k-1 and
        the curvature jet to k-2.
        """
        G = self.metric_jets(x0, order)
        Gamma = christoffel_jets(G)
        R = curvature_jets(Gamma)
        return G, Gamma, R

    def __repr__(self) -> str:
        return f"AmbientSpace(dim={self.dim}, tag={self.tag!r})"


def christoffel_jets(G: Jet) -> Jet:
    """Gamma^i_{jk} as a jet from (..., d, d) metric jets; valid order drops
    by one. Leading batch axes pass through."""
    dg = G.grad(-3)  # [..., a, l, k] = d_a g_{lk}
    Ginv = jet_inv(G)
    # C[l, j, k] = d_j g_{lk} + d_k g_{lj} - d_l g_{jk}
    C = dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg
    return 0.5 * jet_einsum("...il,...ljk->...ijk", Ginv, C)


def curvature_jets(Gamma: Jet) -> Jet:
    """R^i_{jkl} as a jet from (..., d, d, d) Christoffel jets; valid order
    drops by one. Leading batch axes pass through."""
    # A[i,j,k,l] = Gamma^m_{lj} Gamma^i_{km} + d_k Gamma^i_{lj}; the other two
    # terms of R^i_{jkl} are A with k and l swapped
    A = jet_einsum("...mlj,...ikm->...ijkl", Gamma, Gamma)
    # d_a Gamma^i_{mn} stacked at [..., a, i, m, n], read as d_k Gamma^i_{lj}
    A = A + Gamma.grad(-4).transpose(1, 3, 0, 2)
    return A - A.transpose(0, 1, 3, 2)


# -- builtins ----------------------------------------------------------------


def euclidean(dim: int) -> AmbientSpace:
    grid = [["1" if i == j else "0" for j in range(dim)] for i in range(dim)]
    return AmbientSpace(dim, grid, tag="euclidean")


def sphere_chart(radius: float, dim: int) -> AmbientSpace:
    """Round sphere of the given radius as a conformal chart on R^d.

    g = lambda^2 delta with lambda = 2R^2/(R^2 + |x|^2); constant sectional
    curvature 1/R^2. The radius must be positive and finite: it is written
    into the metric's expression text.
    """
    if not 0 < radius < np.inf:
        raise AmbientError(f"sphere radius must be positive and finite, got {radius!r}")
    R = repr(float(radius))
    sumsq = "+".join(f"x{i + 1}^2" for i in range(dim))
    lam2 = f"(2*{R}^2/({R}^2+{sumsq}))^2"
    grid = [[lam2 if i == j else "0" for j in range(dim)] for i in range(dim)]
    return AmbientSpace(dim, grid, tag=f"sphere({radius:g})")


# -- pointwise queries ---------------------------------------------------------


def metric_at(N: AmbientSpace, x) -> np.ndarray:
    return N.metric_jets(x, 0).val.copy()


@dataclass(frozen=True)
class CurvatureAtPoint:
    """Curvature components R^i_{jkl} in the convention of this module."""

    point: np.ndarray
    components: np.ndarray  # shape (d, d, d, d), indices [i, j, k, l]

    def apply(self, X, Y, Z) -> np.ndarray:
        """[R(X, Y) Z]^i."""
        return np.einsum("ijkl,j,k,l->i", self.components, Z, X, Y)


def curvature_at(N: AmbientSpace, x) -> CurvatureAtPoint:
    _, _, R = N.geometry_jets(x, 2)
    return CurvatureAtPoint(np.asarray(x, dtype=float), R.val.copy())
