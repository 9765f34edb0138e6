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
Downstream modules consume it directly. The second fundamental form of M
is S on tangent vectors, read from Smats (operators.s_field_matrix along a
tangent field): no vector is extended to a field to differentiate it.

A vector at a frame is handled by its frame components: the adapted frame
is orthonormal, so the metric is the identity in them. frame_components
converts ambient vectors at the frame's points, and E.val @ yfr converts frame
components yfr back; the frame-bundle modules convert only where an
ambient vector enters (frame_bundle.horizontal_lift and
horizontal_lift_prime).

Batch convention: one point is the batch of shape (). `frame_data(u)` takes
u of shape (p,) or (n, p); every jet of the frame leads with its batch shape
FramePointData.batch = u.shape[:-1], then the per-point shape the table of
FramePointData lists, and so does every value computed at the frame: a
scalar per point is a numpy scalar (a float) at one point. One point and a
batch run the same code.

Frames are passed, not looked up: the frame-field primitives of `operators`
and the geometry of `frame_bundle`, `omn_geometry` and `gauss_map` take the
FramePointData they evaluate at and pass its batch axes through, and the
values they return hold it. `frame_data` turns points into a frame only
where points are chosen: the sampled sweeps, the registry run and the
finite-difference oracle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, wraps

import numpy as np

from .ambient import AmbientSpace, christoffel_jets, curvature_jets, euclidean, sphere_chart
from .expr import Expression, eval_expr, first_point, parse
from .jets import (
    Jet,
    get_space,
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
    "FramePointData",
    "builtin_submanifold",
    "SUBMANIFOLD_BUILTINS",
    "GS_BREAKDOWN",
    "is_int",
]

GS_BREAKDOWN = 1e-12
_DOMAIN_SLACK = 1e-9  # how far outside its chart domain box a point is still accepted


class FrameError(ValueError):
    """Rank-deficient Jacobian or Gram-Schmidt pivot failure."""


def is_int(x) -> bool:
    """An int or a numpy integer; a bool is refused, though it is an int.
    The check of every integer argument: frame orders, sample counts, seeds."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _g_dot(u: Jet, v: Jet, G: Jet) -> Jet:
    return jet_dot(u, jet_einsum("...ij,...j->...i", G, v))


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
            at = first_point(u, bad)
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
        comps = [parse(c, p, var_prefix="u") if isinstance(c, str) else c for c in components]
        for i, c in enumerate(comps):
            if not isinstance(c, Expression):
                raise FrameError(f"immersion component at index {i} is {c!r}, not an expression or a string")
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

    def frame_data(self, u, order: int = 4) -> "FramePointData":
        """The frame at one point, u of shape (p,), or at a batch of points,
        u of shape (n, p), built to jet order `order` >= 1 (see
        FramePointData for what each order holds).

        The cache keeps one frame per point set, keyed by the shape and the
        values of u: a request is served by the cached frame when that frame's
        order is at least `order`, and a higher request rebuilds the frame
        and replaces the entry.
        """
        u = np.asarray(u, dtype=float)
        if u.ndim not in (1, 2) or u.shape[-1] != self.p or u.size == 0:
            raise FrameError(
                f"parameter points must have shape ({self.p},) or (n, {self.p}), got {u.shape}"
            )
        if not is_int(order) or order < 1:
            raise FrameError(f"a frame needs an integer jet order 1 or more, got {order!r}")
        key = (u.shape, u.tobytes())
        hit = self._cache.get(key)
        if hit is not None and hit.order >= order:
            return hit
        if hit is None:
            # cached points passed this check when their frame was built
            lo, hi = self.chart_domain[:, 0], self.chart_domain[:, 1]
            outside = ~np.all((u >= lo - _DOMAIN_SLACK) & (u <= hi + _DOMAIN_SLACK), axis=-1)
            if np.any(outside):
                at = first_point(u, outside)
                raise FrameError(f"parameter point {at} outside the chart domain")
            if len(self._cache) >= 4096:
                self._cache.clear()
        hit = FramePointData(self, u, order)
        self._cache[key] = hit
        return hit

    def __repr__(self) -> str:
        return f"ImmersedSubmanifold({self.name!r}, p={self.p}, n={self.n})"


def _built_on_read(top: int):
    """Make a FramePointData attribute built on first read and then kept.

    top is its valid order in a frame of order 4. In a frame of order k it
    is valid to top - (4 - k); reading it where that is below 0 raises
    FrameError naming the attribute and the frame's order.
    """

    def wrap(build):
        @wraps(build)
        def checked(self):
            if self.order < 4 - top:
                raise FrameError(
                    f"{build.__name__} needs a frame of order {4 - top} or more; "
                    f"this frame is order {self.order}"
                )
            return build(self)

        return cached_property(checked)

    return wrap


class FramePointData:
    """Every jet needed at a parameter point, or a batch of them, built once
    and shared.

    The jets lead with the batch axes, batch = u0.shape[:-1]: () for one
    point, (n,) for n points. The shapes below are per point and follow them.
    Each jet lives in the space of its valid order, get_space(p, order), and
    stores exactly that space's coefficients.

    Order rule: a frame of order k >= 1 (frame_data's default is 4) builds
    phi to order k and the ambient metric to order k - 1, so every attribute
    below is valid to its listed order minus 4 - k. Truncated Taylor
    arithmetic computes low coefficients without reading higher ones, so the
    values of a low-order frame are those of an order-4 frame at the same
    points: a reader of values only (a finite-difference stencil reads
    g_chart.val or gt_chart.val) needs order 1 or 2. Reading an attribute
    whose valid order would fall below 0 raises FrameError.

    Attribute conventions (d = p+n ambient dim, all jets over u-variables),
    valid orders those of a frame of order 4:

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

    def __init__(self, sub: ImmersedSubmanifold, u0: np.ndarray, order: int):
        p, d = sub.p, sub.ambient.dim
        self.u0 = u0.copy()
        self.batch = u0.shape[:-1]
        self.p, self.n, self.d = p, sub.n, d
        self.order = order
        uspace = get_space(p, order)
        self.uspace = uspace
        uv = uspace.variables(u0)
        self.uv = uv

        phi = jstack([eval_expr(c, uv, uspace) for c in sub.components], axis=-1)
        self.phi = phi
        self.x0 = phi.val.copy()
        self.J = jstack([phi.d(a) for a in range(p)], axis=-1)

        self._Gx = sub.ambient.metric_jets(self.x0, order - 1)
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
        """The first of the frame's points at which mask holds; mask has the
        batch shape or broadcasts to it."""
        return first_point(self.u0, mask)

    # -- ambient geometry, x-space jets then pulled back along phi -------------

    @_built_on_read(2)
    def _Gamx(self) -> Jet:
        # one order below the metric: the x-space curvature is built from
        # these, and both are pulled back in spaces of their own order
        return christoffel_jets(self._Gx)

    @_built_on_read(2)
    def Gam(self) -> Jet:
        return jet_pullback(self._Gamx, self.phi, self.x0)

    @_built_on_read(1)
    def R(self) -> Jet:
        return jet_pullback(curvature_jets(self._Gamx), self.phi, self.x0)

    # -- frame data, built on first use ---------------------------------------

    @_built_on_read(3)
    def Einv(self) -> Jet:
        return jet_einsum("...ji,...jk->...ik", self.E, self.G)

    @_built_on_read(2)
    def omega(self) -> Jet:
        omegas = []
        for a in range(self.p):
            gam_a = jet_einsum("...ikl,...k->...il", self.Gam, self.J[..., a])
            covE = self.E.d(a) + jet_einsum("...il,...lj->...ij", gam_a, self.E)
            omegas.append(jet_einsum("...ij,...jk->...ik", self.Einv, covE))
        return jstack(omegas, axis=-3)

    @_built_on_read(3)
    def _JtG(self) -> Jet:
        return jet_einsum("...ka,...kl->...al", self.J, self.G)

    @_built_on_read(3)
    def g_chart(self) -> Jet:
        return jet_einsum("...al,...lb->...ab", self._JtG, self.J)

    @_built_on_read(3)
    def C(self) -> Jet:
        E_tan = self.E[..., : self.p]
        return jet_solve(self.g_chart, jet_einsum("...al,...lB->...aB", self._JtG, E_tan))

    @_built_on_read(3)
    def Dmat(self) -> Jet:
        return jet_inv(self.C)

    @_built_on_read(2)
    def Smats(self) -> Jet:
        return jet_einsum("...aA,...aij->...Aij", self.C, self.omega) * self.mmask

    @_built_on_read(2)
    def Pfr(self) -> Jet:
        p = self.p
        S2 = jet_einsum("...Aij,...Ajk->...ik", self.Smats, self.Smats)
        return self.uspace.constant(np.eye(p)) - 2.0 * S2[..., :p, :p]

    @_built_on_read(2)
    def Gam_chart(self) -> Jet:
        return christoffel_jets(self.g_chart)

    @_built_on_read(2)
    def gt_chart(self) -> Jet:
        t = jet_einsum("...Aa,...AB->...aB", self.Dmat, self.Pfr)
        return jet_einsum("...aB,...Bb->...ab", t, self.Dmat)

    @_built_on_read(1)
    def Gamt(self) -> Jet:
        return christoffel_jets(self.gt_chart)

    @_built_on_read(0)
    def Rt_chart(self) -> Jet:
        return curvature_jets(self.Gamt)

    @_built_on_read(2)
    def W(self) -> Jet:
        units = [self.uspace.constant(np.eye(self.p)[:, k]) for k in range(self.p)]
        return gram_schmidt_jets(units, self.Pfr, self.u0)

    @_built_on_read(2)
    def Wchart(self) -> Jet:
        return jet_einsum("...aA,...AB->...aB", self.C, self.W)

    @_built_on_read(1)
    def Rfr(self) -> Jet:
        t = jet_einsum("...mnqr,...nj->...mjqr", self.R, self.E)
        t = jet_einsum("...mjqr,...qk->...mjkr", t, self.E)
        t = jet_einsum("...mjkr,...rl->...mjkl", t, self.E)
        return jet_einsum("...im,...mjkl->...ijkl", self.Einv, t)

    def frame_components(self, Y) -> np.ndarray:
        """Frame components of ambient vectors Y (..., d), one per point of
        the frame; the ambient components of frame components yfr are
        E.val @ yfr."""
        return np.einsum("...ij,...j->...i", self.Einv.val, np.asarray(Y, dtype=float))


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
            # a decimal or a rational p/q, so great2(2/3) names kappa = 2/3
            kappa = float(Fraction(key[len("great2("):-1]))
        except (ValueError, ZeroDivisionError, OverflowError):
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
