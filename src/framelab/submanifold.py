"""Embedded submanifolds with adapted orthonormal frames.

An immersed submanifold is a chart map phi: U subset R^p -> N given by
expressions. At each parameter point we build the adapted orthonormal frame
(e_1..e_p tangent, e_{p+1}..e_{p+n} normal) by Gram-Schmidt carried out in
jet arithmetic, so the frame field is differentiable and every connection
coefficient comes out exact.

Pivot policy: the ambient coordinate axes used to complete the tangent block
are chosen once per submanifold instance, at the center of the chart domain,
by largest-residual pivoting, and then frozen. The frame field is therefore
smooth across the whole chart (or the construction fails loudly when a
residual drops below the breakdown threshold).

FramePointData is the workhorse: one instance gives every jet the rest of
the package needs at its parameter points (frame, connection forms, the
skew tensor field S, the deformed metric, its Levi-Civita data, and the
curvature in frame components), each built when it is first read.
Downstream modules consume it directly.

Batch convention: `frame_data(u)` takes one point, u of shape (p,), or a
batch of n points, u of shape (n, p). Every jet of the frame then leads
with the batch axes u.shape[:-1], () for one point, followed by the
per-point shape that the FramePointData table lists. One point and a batch
run the same code; the frame-field primitives of `operators` and the frame
trace of `omn_geometry` pass the batch axes through in the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ambient import AmbientSpace, christoffel_jets, curvature_jets, euclidean, sphere_chart
from .expr import Expression, eval_expr, parse
from .jets import (
    Jet,
    get_space,
    jet_along,
    jet_dot,
    jet_einsum,
    jet_inv,
    jet_pullback,
    jet_solve,
    jsqrt,
    jstack,
)

__all__ = [
    "FrameError",
    "ImmersedSubmanifold",
    "AdaptedFrame",
    "TangentVectorM",
    "NormalVector",
    "FramePointData",
    "adapted_frame_at",
    "as_ambient",
    "second_fundamental_form",
    "weingarten",
    "tensor_S",
    "project",
    "nabla_prime",
    "builtin_submanifold",
    "SUBMANIFOLD_BUILTINS",
    "GS_BREAKDOWN",
]

GS_BREAKDOWN = 1e-12
_DOMAIN_SLACK = 1e-9  # how far outside its chart domain box a point is still accepted


class FrameError(ValueError):
    """Rank-deficient Jacobian or Gram-Schmidt pivot failure."""


def _g_dot(u: Jet, v: Jet, G: Jet) -> Jet:
    return jet_dot(u, jet_einsum("...ij,...j->...i", G, v))


def _first_point(u: np.ndarray, mask: np.ndarray) -> list[float]:
    """The first point of the batch u (..., p) at which mask (...) holds."""
    return u[tuple(np.argwhere(mask)[0])].tolist()


def gram_schmidt_jets(vectors: list[Jet], G: Jet, u: np.ndarray, n_given: int = 0) -> Jet:
    """Orthonormalize jet vectors against the (jet) quadratic form G at the
    points u, batch axes leading.

    Returns the orthonormal vectors as columns of one jet. `n_given` marks
    how many leading vectors are mandatory (the tangent block): a breakdown
    there means a rank-deficient Jacobian, later it means a pivot failure.
    Either names the first point of u where it happens.
    """
    out: list[Jet] = []
    for k, w in enumerate(vectors):
        v = w
        for q in out:
            v = v - q * _g_dot(q, w, G)[..., None]
        nrm2 = _g_dot(v, v, G)
        bad = nrm2.val < GS_BREAKDOWN**2
        if np.any(bad):
            at = _first_point(u, bad)
            if k < n_given:
                raise FrameError(f"Jacobian rank-deficient (column {k + 1}) at {at}")
            raise FrameError(f"Gram-Schmidt pivot failure at vector {k + 1} at {at}")
        out.append(v / jsqrt(nrm2)[..., None])
    return jstack(out, axis=-1)


class ImmersedSubmanifold:
    """phi: chart_domain subset R^p -> N, componentwise expressions."""

    def __init__(
        self,
        p: int,
        chart_domain,
        components,
        ambient: AmbientSpace,
        name: str = "custom",
    ):
        d = ambient.dim
        if not 1 <= p < d:
            raise FrameError(f"need 1 <= p < ambient dim, got p={p}, dim={d}")
        domain = np.asarray(chart_domain, dtype=float)
        if domain.shape != (p, 2) or np.any(domain[:, 0] >= domain[:, 1]):
            raise FrameError("chart_domain must be a (p, 2) box with lo < hi")
        comps = []
        for c in components:
            comps.append(parse(c, p, var_prefix="u") if isinstance(c, str) else c)
        if len(comps) != d:
            raise FrameError(f"immersion needs {d} components, got {len(comps)}")
        self.p = p
        self.n = d - p
        self.ambient = ambient
        self.chart_domain = domain
        self.components: list[Expression] = comps
        self.name = name
        self._cache: dict[bytes, FramePointData] = {}
        self.pivots = self._select_pivots()

    # -- pivots, frozen at the domain center --------------------------------

    def _select_pivots(self) -> tuple[int, ...]:
        p, d = self.p, self.ambient.dim
        u_c = self.chart_domain.mean(axis=1)
        space = get_space(p, 1)
        uv = space.variables(u_c)
        phi = jstack([eval_expr(c, uv, space) for c in self.components], axis=-1)
        J = np.stack([phi.d(a).val for a in range(p)], axis=-1)
        G = self.ambient.metric_jets(phi.val, 0).val

        def gdot(a, b):
            return a @ G @ b

        basis = []
        for k in range(p):
            v = J[:, k].copy()
            for q in basis:
                v -= gdot(q, v) * q
            nrm = np.sqrt(gdot(v, v))
            if nrm < GS_BREAKDOWN:
                raise FrameError("Jacobian rank-deficient at the domain center")
            basis.append(v / nrm)
        pivots = []
        remaining = list(range(d))
        for _ in range(self.n):
            best_ax, best_nrm, best_vec = -1, -1.0, None
            for ax in remaining:
                v = np.zeros(d)
                v[ax] = 1.0
                for q in basis:
                    v -= gdot(q, v) * q
                nrm = np.sqrt(gdot(v, v))
                if nrm > best_nrm:
                    best_ax, best_nrm, best_vec = ax, nrm, v
            if best_nrm < GS_BREAKDOWN:
                raise FrameError("pivot selection failed: no independent axis left")
            pivots.append(best_ax)
            remaining.remove(best_ax)
            basis.append(best_vec / best_nrm)
        return tuple(pivots)

    def frame_data(self, u) -> "FramePointData":
        """The frame at one point, u of shape (p,), or at a batch of points,
        u of shape (n, p); cached by the shape and the values of u."""
        u = np.asarray(u, dtype=float)
        if u.ndim not in (1, 2) or u.shape[-1] != self.p or u.size == 0:
            raise FrameError(
                f"parameter points must have shape ({self.p},) or (n, {self.p}), got {u.shape}"
            )
        key = (u.shape, u.tobytes())
        hit = self._cache.get(key)
        if hit is None:
            # cached points passed this check when their frame was built
            lo, hi = self.chart_domain[:, 0], self.chart_domain[:, 1]
            outside = ~np.all((u >= lo - _DOMAIN_SLACK) & (u <= hi + _DOMAIN_SLACK), axis=-1)
            if np.any(outside):
                at = _first_point(u, outside)
                raise FrameError(f"parameter point {at} outside the chart domain")
            if len(self._cache) >= 4096:
                self._cache.clear()
            hit = FramePointData(self, u)
            self._cache[key] = hit
        return hit

    def __repr__(self) -> str:
        return f"ImmersedSubmanifold({self.name!r}, p={self.p}, n={self.n})"


class FramePointData:
    """Every jet needed at a parameter point, or a batch of them, built once
    and shared.

    The jets lead with the batch axes, u0.shape[:-1]: () for one point, (n,)
    for n points. The shapes below are per point and follow the batch axes.
    Each jet lives in the space of its valid order, get_space(p, order), and
    stores exactly that space's coefficients.

    Attribute conventions (d = p+n ambient dim, all jets over u-variables):

    ==========  =========  ==================================================
    attribute   shape      meaning / valid order
    ==========  =========  ==================================================
    phi         (d,)       immersion jets, valid 4
    J           (d, p)     Jacobian columns d phi/d u_a, valid 3
    G           (d, d)     ambient metric along M, valid 3
    Gam         (d, d, d)  ambient Christoffels along M, valid 2
    R           (d,d,d,d)  ambient curvature R^i_{jkl} along M, valid 1
    E           (d, d)     adapted frame columns e_1..e_d, valid 3
    Einv        (d, d)     E^T G: ambient -> frame components, valid 3
    omega       (p, d, d)  omega^a_{ij} = g(nabla_{d_a} e_j, e_i), valid 2
    C           (p, p)     e_A = sum_a C[a,A] d_a (chart coeffs of frame),
                           valid 3
    Dmat        (p, p)     C^{-1}: d_a = sum_A Dmat[A,a] e_A, valid 3
    g_chart     (p, p)     induced metric in chart coordinates, valid 3
    Gam_chart   (p, p, p)  Christoffels of the induced metric, valid 2
    Smats       (p, d, d)  frame matrix of S_{e_A}, valid 2
    Pfr         (p, p)     frame matrix of the operator P on TM, valid 2
    gt_chart    (p, p)     deformed metric in chart coordinates, valid 2
    Gamt        (p, p, p)  Christoffels of the deformed metric, valid 1
    Rt_chart    (p,p,p,p)  curvature of the deformed metric, valid 0
    W           (p, p)     deformed-orthonormal tangent frame in e-frame
                           coefficients: et_A = sum_B W[B,A] e_B, valid 2
    Wchart      (p, p)     the same frame in chart coefficients, valid 2
    Rfr         (d,d,d,d)  Rfr[i,j,k,l] = g(R(e_k,e_l) e_j, e_i), valid 1
    ==========  =========  ==================================================

    `phi`, `J`, `G` and `E` are built in the constructor, so an immersion,
    metric or frame that fails at any of the points raises from `frame_data`
    at once. Every other attribute in the table is built on first use and
    then kept; many callers read only a few of them (a finite-difference
    oracle reads just `g_chart` or `gt_chart` at its shifted points). Each
    one depends only on the eager jets and on other attributes, so the
    values do not depend on the order in which they are read.

    The frame-block masks `hmask`/`mmask` select the diagonal/off-diagonal
    blocks of a (d, d) frame matrix with respect to the tangent/normal split.
    """

    def __init__(self, sub: ImmersedSubmanifold, u0: np.ndarray):
        p, d = sub.p, sub.ambient.dim
        self.u0 = u0.copy()
        self.p, self.n, self.d = p, sub.n, d
        uspace = get_space(p, 4)
        self.uspace = uspace
        uv = uspace.variables(u0)
        self.uv = uv

        phi = jstack([eval_expr(c, uv, uspace) for c in sub.components], axis=-1)
        self.phi = phi
        self.x0 = phi.val.copy()
        self.J = jstack([phi.d(a) for a in range(p)], axis=-1)

        self._Gx = sub.ambient.metric_jets(self.x0, 3)
        self.G = jet_pullback(self._Gx, phi, self.x0)

        cols = [self.J[..., a] for a in range(p)]
        for ax in sub.pivots:
            onehot = np.zeros(d)
            onehot[ax] = 1.0
            cols.append(uspace.constant(onehot))
        self.E = gram_schmidt_jets(cols, self.G, self.u0, n_given=p)

        self.hmask = np.zeros((d, d))
        self.hmask[:p, :p] = 1.0
        self.hmask[p:, p:] = 1.0
        self.mmask = 1.0 - self.hmask

    def point_where(self, mask) -> list[float]:
        """The first of the frame's points at which mask (batch shape) holds."""
        return _first_point(self.u0, np.asarray(mask))

    # -- ambient geometry, x-space jets then pulled back along phi -------------

    @cached_property
    def _Gamx(self) -> Jet:
        # order 2, one below the metric: the x-space curvature is built from
        # these, and both are pulled back in spaces of their own order
        return christoffel_jets(self._Gx)

    @cached_property
    def Gam(self) -> Jet:
        return jet_pullback(self._Gamx, self.phi, self.x0)

    @cached_property
    def R(self) -> Jet:
        return jet_pullback(curvature_jets(self._Gamx), self.phi, self.x0)

    # -- frame data, built on first use ---------------------------------------

    @cached_property
    def Einv(self) -> Jet:
        return jet_einsum("...ji,...jk->...ik", self.E, self.G)

    @cached_property
    def omega(self) -> Jet:
        omegas = []
        for a in range(self.p):
            gam_a = jet_einsum("...ikl,...k->...il", self.Gam, self.J[..., a])
            covE = self.E.d(a) + jet_einsum("...il,...lj->...ij", gam_a, self.E)
            omegas.append(jet_einsum("...ij,...jk->...ik", self.Einv, covE))
        return jstack(omegas, axis=-3)

    @cached_property
    def _JtG(self) -> Jet:
        return jet_einsum("...ka,...kl->...al", self.J, self.G)

    @cached_property
    def g_chart(self) -> Jet:
        return jet_einsum("...al,...lb->...ab", self._JtG, self.J)

    @cached_property
    def C(self) -> Jet:
        E_tan = self.E[..., : self.p]
        return jet_solve(self.g_chart, jet_einsum("...al,...lB->...aB", self._JtG, E_tan))

    @cached_property
    def Dmat(self) -> Jet:
        return jet_inv(self.C)

    @cached_property
    def Smats(self) -> Jet:
        return jet_einsum("...aA,...aij->...Aij", self.C, self.omega) * self.mmask

    @cached_property
    def Pfr(self) -> Jet:
        p = self.p
        S2 = jet_einsum("...Aij,...Ajk->...ik", self.Smats, self.Smats)
        return self.uspace.constant(np.eye(p)) - 2.0 * S2[..., :p, :p]

    @cached_property
    def Gam_chart(self) -> Jet:
        return christoffel_jets(self.g_chart)

    @cached_property
    def gt_chart(self) -> Jet:
        t = jet_einsum("...Aa,...AB->...aB", self.Dmat, self.Pfr)
        return jet_einsum("...aB,...Bb->...ab", t, self.Dmat)

    @cached_property
    def Gamt(self) -> Jet:
        return christoffel_jets(self.gt_chart)

    @cached_property
    def Rt_chart(self) -> Jet:
        return curvature_jets(self.Gamt)

    @cached_property
    def W(self) -> Jet:
        units = [self.uspace.constant(np.eye(self.p)[:, k]) for k in range(self.p)]
        return gram_schmidt_jets(units, self.Pfr, self.u0)

    @cached_property
    def Wchart(self) -> Jet:
        return jet_einsum("...aA,...AB->...aB", self.C, self.W)

    @cached_property
    def Rfr(self) -> Jet:
        t = jet_einsum("...mnqr,...nj->...mjqr", self.R, self.E)
        t = jet_einsum("...mjqr,...qk->...mjkr", t, self.E)
        t = jet_einsum("...mjkr,...rl->...mjkl", t, self.E)
        return jet_einsum("...im,...mjkl->...ijkl", self.Einv, t)

    # -- numeric helpers, at a single point -------------------------------------

    def frame_components(self, Y) -> np.ndarray:
        """Ambient components -> frame components at the point."""
        return self.Einv.val @ np.asarray(Y, dtype=float)

    def ambient_components(self, yfr) -> np.ndarray:
        return self.E.val @ np.asarray(yfr, dtype=float)

    def chart_of_tangent(self, X) -> np.ndarray:
        """Chart coefficients of a tangent vector given ambient components."""
        return self.C.val @ self.frame_components(X)[: self.p]

    def split(self, Y) -> tuple[np.ndarray, np.ndarray]:
        """(tangent part, normal part), both in ambient components."""
        yfr = self.frame_components(Y)
        top = yfr.copy()
        top[self.p:] = 0.0
        bot = yfr - top
        return self.ambient_components(top), self.ambient_components(bot)

    def field_jet(self, field) -> Jet:
        """Evaluate a u-dependent ambient field to a (d,) jet at this point."""
        if callable(field):
            return field(self.uv)
        comps = []
        for c in field:
            e = parse(c, self.p, var_prefix="u") if isinstance(c, str) else c
            comps.append(eval_expr(e, self.uv, self.uspace))
        return jstack(comps, axis=-1)

    def cov_deriv(self, Yj: Jet, xc) -> Jet:
        """Ambient nabla_X of an ambient-component jet field, X given by its
        chart coefficients xc (a jet field or a plain array)."""
        gam_x = jet_einsum("ikl,k->il", self.Gam, jet_einsum("ka,a->k", self.J, xc))
        return jet_along(xc, Yj) + jet_einsum("il,l->i", gam_x, Yj)


# -- public operations ---------------------------------------------------------


@dataclass(frozen=True)
class AdaptedFrame:
    u: np.ndarray
    x: np.ndarray
    vectors: np.ndarray  # columns e_1..e_{p+n}, ambient components
    pivots: tuple[int, ...]


@dataclass(frozen=True)
class TangentVectorM:
    ambient: np.ndarray
    chart: np.ndarray


@dataclass(frozen=True)
class NormalVector:
    ambient: np.ndarray


def as_ambient(v) -> np.ndarray:
    """Ambient components of a TangentVectorM, a NormalVector or an array."""
    if isinstance(v, (TangentVectorM, NormalVector)):
        return v.ambient
    return np.asarray(v, dtype=float)


def adapted_frame_at(M: ImmersedSubmanifold, u) -> AdaptedFrame:
    fd = M.frame_data(u)
    return AdaptedFrame(fd.u0.copy(), fd.x0.copy(), fd.E.val.copy(), M.pivots)


def _tangent_extension(fd: FramePointData, Y) -> Jet:
    """Extend a tangent vector by constant frame coefficients, as a jet."""
    y = fd.frame_components(as_ambient(Y))
    y[fd.p:] = 0.0
    return jet_einsum("iB,B->i", fd.E[:, : fd.p], y[: fd.p])


def _normal_extension(fd: FramePointData, V) -> Jet:
    v = fd.frame_components(as_ambient(V))
    v[: fd.p] = 0.0
    return jet_einsum("ib,b->i", fd.E[:, fd.p:], v[fd.p:])


def _directional_cov(fd: FramePointData, Yj: Jet, X) -> np.ndarray:
    return fd.cov_deriv(Yj, fd.chart_of_tangent(as_ambient(X))).val


def second_fundamental_form(M: ImmersedSubmanifold, u, X, Y) -> NormalVector:
    """Pi(X, Y): the normal part of the ambient derivative of an extension."""
    fd = M.frame_data(u)
    Yj = _tangent_extension(fd, Y)
    _, nor = fd.split(_directional_cov(fd, Yj, X))
    return NormalVector(nor)


def weingarten(M: ImmersedSubmanifold, u, V, X) -> TangentVectorM:
    """A_V X := -(nabla_X Vhat)^T for a normal extension Vhat of V."""
    fd = M.frame_data(u)
    Vj = _normal_extension(fd, V)
    tan, _ = fd.split(_directional_cov(fd, Vj, X))
    tan = -tan
    return TangentVectorM(tan, fd.chart_of_tangent(tan))


def tensor_S(M: ImmersedSubmanifold, u, X, Y) -> np.ndarray:
    """S_X Y = Pi(X, Y^T) - A_{Y^perp}(X), ambient components."""
    fd = M.frame_data(u)
    top, bot = fd.split(as_ambient(Y))
    return second_fundamental_form(M, u, X, top).ambient - weingarten(M, u, bot, X).ambient


def project(M: ImmersedSubmanifold, u, Y) -> tuple[np.ndarray, np.ndarray]:
    return M.frame_data(u).split(as_ambient(Y))


def nabla_prime(M: ImmersedSubmanifold, field, u, X) -> np.ndarray:
    """nabla'_X field = (nabla_X field^T)^T + (nabla_X field^perp)^perp."""
    fd = M.frame_data(u)
    Yj = fd.field_jet(field)
    yfr = jet_einsum("ij,j->i", fd.Einv, Yj)
    tanmask = np.zeros(fd.d)
    tanmask[: fd.p] = 1.0
    Yt = jet_einsum("ij,j->i", fd.E, yfr * tanmask)
    Yn = jet_einsum("ij,j->i", fd.E, yfr * (1.0 - tanmask))
    tan, _ = fd.split(_directional_cov(fd, Yt, X))
    _, nor = fd.split(_directional_cov(fd, Yn, X))
    return tan + nor


# -- builtin catalog -------------------------------------------------------------

SUBMANIFOLD_BUILTINS = (
    "plane",
    "plane3",
    "circle",
    "sphere2",
    "catenoid",
    "great2(kappa)",
    "clifford",
)


def builtin_submanifold(name: str) -> ImmersedSubmanifold:
    key = name.strip().lower()
    if key == "plane":
        return ImmersedSubmanifold(
            2, [[-2.0, 2.0], [-2.0, 2.0]], ["u1", "u2", "0"], euclidean(3), name="PLANE"
        )
    if key == "plane3":
        return ImmersedSubmanifold(
            3,
            [[-2.0, 2.0], [-2.0, 2.0], [-2.0, 2.0]],
            ["u1", "u2", "u3", "0"],
            euclidean(4),
            name="PLANE3",
        )
    if key == "circle":
        return ImmersedSubmanifold(
            1, [[-1.2, 1.2]], ["cos(u1)", "sin(u1)"], euclidean(2), name="CIRCLE"
        )
    if key == "sphere2":
        return ImmersedSubmanifold(
            2,
            [[0.4, 2.7], [-1.2, 1.2]],
            ["sin(u1)*cos(u2)", "sin(u1)*sin(u2)", "cos(u1)"],
            euclidean(3),
            name="SPHERE2",
        )
    if key == "catenoid":
        return ImmersedSubmanifold(
            2,
            [[-1.1, 1.1], [-1.2, 1.2]],
            ["cosh(u1)*cos(u2)", "cosh(u1)*sin(u2)", "u1"],
            euclidean(3),
            name="CATENOID",
        )
    if key.startswith("great2(") and key.endswith(")"):
        try:
            kappa = float(key[len("great2("):-1])
        except ValueError:
            raise FrameError(f"bad curvature parameter in {name!r}") from None
        if kappa <= 0:
            raise FrameError("great2 needs a positive curvature parameter")
        radius = 1.0 / np.sqrt(kappa)
        return ImmersedSubmanifold(
            2,
            [[-0.9, 0.9], [-0.9, 0.9]],
            ["u1", "u2", "0"],
            sphere_chart(radius, 3),
            name=f"GREAT2({kappa:g})",
        )
    if key == "clifford":
        den = "(sqrt(2)-sin(u2))"
        return ImmersedSubmanifold(
            2,
            [[-1.2, 1.2], [-2.0, 0.6]],
            [f"cos(u1)/{den}", f"sin(u1)/{den}", f"cos(u2)/{den}"],
            sphere_chart(1.0, 3),
            name="CLIFFORD",
        )
    raise FrameError(
        f"unknown submanifold {name!r}; builtins: {', '.join(SUBMANIFOLD_BUILTINS)}"
    )
