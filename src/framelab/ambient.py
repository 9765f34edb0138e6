"""Ambient Riemannian manifold in a single coordinate chart.

The metric is a symmetric grid of expressions in x1..x_d. Everything
downstream (Christoffel symbols, curvature, covariant derivatives) is
computed from exact jets of those expressions, never finite differences.

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

from .expr import Expression, eval_expr, parse, to_source
from .jets import Jet, get_space, jet_einsum, jet_inv, jstack

__all__ = [
    "AmbientSpace",
    "AmbientError",
    "CurvatureAtPoint",
    "euclidean",
    "sphere_chart",
    "ambient_from_name",
    "metric_at",
    "christoffel_at",
    "curvature_at",
    "curvature_apply",
    "cov_deriv_ambient",
    "AMBIENT_BUILTINS",
]


class AmbientError(ValueError):
    """Raised when a metric query fails (non-PD metric, bad dimensions)."""


class AmbientSpace:
    """A chart with expression-valued metric entries g_ij(x1..x_d)."""

    def __init__(self, dim: int, entries: list[list[Expression]], tag: str = "custom"):
        if not 2 <= dim <= 9:
            raise AmbientError(f"ambient dimension must be 2..9, got {dim}")
        if len(entries) != dim or any(len(row) != dim for row in entries):
            raise AmbientError("metric grid must be dim x dim")
        for i in range(dim):
            for j in range(i):
                if entries[i][j] != entries[j][i]:
                    raise AmbientError(
                        f"metric entries ({i + 1},{j + 1}) and ({j + 1},{i + 1}) differ"
                    )
        self.dim = dim
        self.entries = entries
        self.tag = tag

    @classmethod
    def from_strings(cls, dim: int, grid: list[list[str]], tag: str = "custom") -> "AmbientSpace":
        if not 2 <= dim <= 9:
            raise AmbientError(f"ambient dimension must be 2..9, got {dim}")
        entries = [[parse(src, dim, var_prefix="x") for src in row] for row in grid]
        return cls(dim, entries, tag)

    def metric_jets(self, x0, order: int) -> Jet:
        """The metric as a (..., d, d) jet in chart coordinates at the points
        x0 of shape (..., d), one expansion per point."""
        x0 = np.asarray(x0, dtype=float)
        if x0.shape[-1:] != (self.dim,):
            raise AmbientError(f"point has shape {x0.shape}, expected (..., {self.dim})")
        space = get_space(self.dim, order)
        varjets = space.variables(x0)
        rows = []
        for row in self.entries:
            rows.append(jstack([eval_expr(e, varjets, space) for e in row], axis=-1))
        # a metric of constants carries no batch axes yet: broadcast to x0's
        G = jstack(rows, axis=-2) * np.ones(x0.shape[:-1] + (1, 1))
        for idx in np.ndindex(x0.shape[:-1]):
            g0 = G.val[idx]
            if not np.allclose(g0, g0.T, atol=1e-12):
                raise AmbientError(f"metric not symmetric at {x0[idx].tolist()}")
            try:
                np.linalg.cholesky(0.5 * (g0 + g0.T))
            except np.linalg.LinAlgError:
                raise AmbientError(f"metric not positive definite at {x0[idx].tolist()}") from None
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
    d = G.shape[-1]
    dg = jstack([G.d(a) for a in range(d)], axis=-3)  # [..., a, l, k] = d_a g_{lk}
    Ginv = jet_inv(G)
    # C[l, j, k] = d_j g_{lk} + d_k g_{lj} - d_l g_{jk}
    C = dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg
    return 0.5 * jet_einsum("...il,...ljk->...ijk", Ginv, C)


def curvature_jets(Gamma: Jet) -> Jet:
    """R^i_{jkl} as a jet from (..., d, d, d) Christoffel jets; valid order
    drops by one. Leading batch axes pass through."""
    d = Gamma.shape[-1]
    # A[i,j,k,l] = Gamma^m_{lj} Gamma^i_{km} + d_k Gamma^i_{lj}; the other two
    # terms of R^i_{jkl} are A with k and l swapped
    A = jet_einsum("...mlj,...ikm->...ijkl", Gamma, Gamma)
    # d_a Gamma^i_{mn} stacked at [..., a, i, m, n], read as d_k Gamma^i_{lj}
    A = A + jstack([Gamma.d(a) for a in range(d)], axis=-4).transpose(1, 3, 0, 2)
    return A - A.transpose(0, 1, 3, 2)


# -- builtins ----------------------------------------------------------------


def euclidean(dim: int) -> AmbientSpace:
    grid = [["1" if i == j else "0" for j in range(dim)] for i in range(dim)]
    return AmbientSpace.from_strings(dim, grid, tag="euclidean")


def sphere_chart(radius: float, dim: int) -> AmbientSpace:
    """Round sphere of the given radius as a conformal chart on R^d.

    g = lambda^2 delta with lambda = 2R^2/(R^2 + |x|^2); constant sectional
    curvature 1/R^2.
    """
    if radius <= 0:
        raise AmbientError("sphere radius must be positive")
    R = repr(float(radius))
    sumsq = "+".join(f"x{i + 1}^2" for i in range(dim))
    lam2 = f"(2*{R}^2/({R}^2+{sumsq}))^2"
    grid = [[lam2 if i == j else "0" for j in range(dim)] for i in range(dim)]
    return AmbientSpace.from_strings(dim, grid, tag=f"sphere({radius:g})")


AMBIENT_BUILTINS = ("euclidean", "sphere(R)")


def ambient_from_name(name: str, dim: int) -> AmbientSpace:
    """Resolve a catalog name: "euclidean" or "sphere(R)" with a numeric R."""
    name = name.strip()
    if name == "euclidean":
        return euclidean(dim)
    if name.startswith("sphere(") and name.endswith(")"):
        try:
            radius = float(name[len("sphere("):-1])
        except ValueError:
            raise AmbientError(f"bad sphere radius in {name!r}") from None
        return sphere_chart(radius, dim)
    raise AmbientError(f"unknown ambient {name!r}; builtins: {', '.join(AMBIENT_BUILTINS)}")


# -- pointwise queries ---------------------------------------------------------


def metric_at(N: AmbientSpace, x) -> np.ndarray:
    return N.metric_jets(x, 0).val.copy()


def christoffel_at(N: AmbientSpace, x) -> np.ndarray:
    G = N.metric_jets(x, 1)
    return christoffel_jets(G).val.copy()


@dataclass(frozen=True)
class CurvatureAtPoint:
    """Curvature components R^i_{jkl} in the convention of this module."""

    point: np.ndarray
    components: np.ndarray  # shape (d, d, d, d), indices [i, j, k, l]

    def apply(self, X, Y, Z) -> np.ndarray:
        """[R(X, Y) Z]^i."""
        return np.einsum("ijkl,j,k,l->i", self.components, Z, X, Y)


def curvature_at(N: AmbientSpace, x) -> CurvatureAtPoint:
    G = N.metric_jets(x, 2)
    R = curvature_jets(christoffel_jets(G))
    return CurvatureAtPoint(np.asarray(x, dtype=float), R.val.copy())


def curvature_apply(N: AmbientSpace, x, X, Y, Z) -> np.ndarray:
    return curvature_at(N, x).apply(
        np.asarray(X, dtype=float), np.asarray(Y, dtype=float), np.asarray(Z, dtype=float)
    )


def cov_deriv_ambient(N: AmbientSpace, field, x, X) -> np.ndarray:
    """(nabla_X field) at x for a differentiable vector field on the chart.

    `field` is either a sequence of component expressions in x1..x_d or a
    callable taking the list of coordinate jets and returning a (d,) jet.
    """
    x = np.asarray(x, dtype=float)
    X = np.asarray(X, dtype=float)
    space = get_space(N.dim, 1)
    varjets = space.variables(x)
    if callable(field):
        W = field(varjets)
    else:
        comps = []
        for e in field:
            if isinstance(e, str):
                e = parse(e, N.dim, var_prefix="x")
            comps.append(eval_expr(e, varjets, space))
        W = jstack(comps, axis=-1)
    G = N.metric_jets(x, 2)
    Gamma = christoffel_jets(G).val
    dW = np.stack([W.d(a).val for a in range(N.dim)], axis=0)  # [a, i]
    out = np.einsum("a,ai->i", X, dW) + np.einsum("a,iab,b->i", X, Gamma, W.val)
    return out
