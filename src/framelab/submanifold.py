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
is orthonormal, so the metric is the identity in them. Einv.val @ Y converts
ambient vectors Y at the frame's points to frame components, and
E.val @ yfr converts frame components yfr back; a tangent vector of M
enters the frame-bundle modules as its chart coefficients
(frame_bundle.horizontal_lift_prime), which need no ambient conversion.

Batch convention: one point is the batch of shape (). `frame_data(u)` takes
u of shape (p,) or (n, p); every jet of the frame leads with its batch shape
FramePointData.batch = u.shape[:-1], then the per-point shape the table of
FramePointData lists, and so does every value computed at the frame: a
scalar per point is a numpy scalar (a float) at one point. One point and a
batch run the same code. A stack of directions evaluated in one call leads
with further axes ahead of the batch axes (FramePointData.stack_of reads
them off a shape).

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

from .ambient import AmbientSpace, christoffel_jets, curvature_jets, euclidean, is_int, sphere_chart
from .expr import Expression, eval_expr, first_point, intern, parse
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
]

GS_BREAKDOWN = 1e-12
_DOMAIN_SLACK = 1e-9  # how far outside its chart domain box a point is still accepted


class FrameError(ValueError):
    """Rank-deficient Jacobian or Gram-Schmidt pivot failure."""


def _g_dot(u: Jet, v: Jet, G: Jet) -> Jet:
    return jet_dot(u, jet_einsum("...ij,...j->...i", G, v))


def _refuse_non_finite(name: str, jet: Jet, u: np.ndarray, per_point: int) -> None:
    """Raise FrameError naming the first point of u at which a coefficient
    of the jet, of per_point axes after the batch axes, is not finite."""
    finite = np.isfinite(jet.coeffs)
    if not finite.all():
        bad = ~finite.all(axis=tuple(range(-per_point - 1, 0)))
        raise FrameError(f"{name} not finite at {first_point(u, bad)}")


def gram_schmidt_jets(vectors: list[Jet], G: Jet | np.ndarray, u: np.ndarray, n_given: int = 0) -> Jet:
    """Orthonormalize jet vectors against the quadratic form G at the points
    u, batch axes leading: a jet, or the array of its values where it is
    constant.

    Returns the orthonormal vectors as columns of one jet. `n_given` marks
    how many leading vectors are mandatory (the tangent block): a breakdown
    there means a rank-deficient Jacobian, later it means a pivot failure.
    Either names the first point of u where it happens, and so does a norm
    that is not finite (an overflow, which the breakdown test would pass).
    G·w is formed once per input vector w and serves its projection on every
    earlier vector.
    """
    out: list[Jet] = []
    for k, w in enumerate(vectors):
        v = w
        if out:
            Gw = jet_einsum("...ij,...j->...i", G, w)
            for q in out:
                v = v - q * jet_dot(q, Gw)[..., None]
        nrm2 = _g_dot(v, v, G)
        n2 = nrm2.val
        # NaN passes n2 < GS_BREAKDOWN**2, and inf is no breakdown: refuse both
        bad = ~((n2 >= GS_BREAKDOWN**2) & (n2 < np.inf))
        if bad.any():
            over = ~np.isfinite(n2)
            if over.any():
                raise FrameError(f"Gram-Schmidt norm of vector {k + 1} not finite at {first_point(u, over)}")
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
        if not is_int(p) or not 1 <= p < d:
            raise FrameError(f"need an integer 1 <= p < ambient dim, got p={p!r}, dim={d}")
        domain = np.asarray(chart_domain, dtype=float)
        if domain.shape != (p, 2) or not (domain[:, 0] < domain[:, 1]).all() or not np.isfinite(domain).all():
            raise FrameError("chart_domain must be a (p, 2) box with finite lo < hi")
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
        # interned once, so that a subexpression the components share is
        # evaluated once per frame (expr.intern)
        self.components: list[Expression] = intern(comps)
        self.name = name
        self._cache: dict[bytes, FramePointData] = {}
        self.pivots = self._select_pivots()

    # -- pivots, frozen at the domain center --------------------------------

    # an overflow shows as a value that is not finite, refused below
    @np.errstate(over="ignore", divide="ignore", invalid="ignore")
    def _select_pivots(self) -> tuple[int, ...]:
        p, d = self.p, self.ambient.dim
        u_c = self.chart_domain.mean(axis=1)
        space = get_space(p, 1)
        uv = space.variables(u_c)
        memo = {}
        phi = jstack([eval_expr(c, uv, space, memo) for c in self.components], axis=-1)
        if not np.isfinite(phi.coeffs).all():
            raise FrameError("immersion or its Jacobian not finite at the domain center")
        J = np.stack([phi.d(a).val for a in range(p)], axis=-1)
        G = self.ambient.metric_jets(phi.val, 0).val

        def gdot(a, b):
            return a @ G @ b

        def norm(v):
            nrm = np.sqrt(gdot(v, v))
            if not np.isfinite(nrm):
                raise FrameError("Gram-Schmidt norm not finite at the domain center")
            return nrm

        basis = []
        for k in range(p):
            v = J[:, k].copy()
            for q in basis:
                v -= gdot(q, v) * q
            nrm = norm(v)
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
                nrm = norm(v)
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
            outside = ~((u >= lo - _DOMAIN_SLACK) & (u <= hi + _DOMAIN_SLACK)).all(axis=-1)
            if outside.any():
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

    Over a constant metric (AmbientSpace.constant_metric) G is that constant
    in u-space at order k - 1, and Gam and R are zero jets at their valid
    orders, not pullbacks of x-space metric, Christoffel and curvature jets:
    a pullback of a jet with no derivative coefficients adds only zero terms,
    so the two are bitwise equal. Gram-Schmidt reads that G as its values.

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
    P_singular  ()         bool, not a jet: P numerically singular there
                           (condition number of Pfr.val above 1e12);
                           read where Pfr is
    gt_chart    (p, p)     deformed metric in chart coordinates, valid 2
    Gamt        (p, p, p)  Christoffels of the deformed metric, valid 1
    Rt_chart    (p,p,p,p)  curvature of the deformed metric, valid 0
    W           (p, p)     deformed-orthonormal tangent frame in e-frame
                           coefficients: et_A = sum_B W[B,A] e_B, valid 2
    Wchart      (p, p)     the same frame in chart coefficients, valid 2
    Rfr         (d,d,d,d)  Rfr[i,j,k,l] = g(R(e_k,e_l) e_j, e_i), valid 1
    ==========  =========  ==================================================

    phi is the stack of the immersion's components, interned when the
    submanifold is made and evaluated with one memo (expr.intern), so that a
    subexpression they share is evaluated once per frame; J is phi.grad(-1),
    every derivative from one gather.

    `phi`, `J`, `G` and `E` are built in the constructor, so an immersion,
    metric or frame that fails at any of the points raises from `frame_data`
    at once; so does one that is not finite there (an overflow). Every other
    attribute in the table is built on first use and then kept; many callers
    read only a few of them (a finite-difference oracle reads just `g_chart`
    or `gt_chart` at its shifted points). Each one depends only on the eager
    jets and on other attributes, so the values do not depend on the order
    in which they are read.

    The frame-block masks `hmask`/`mmask` select the diagonal/off-diagonal
    blocks of a (d, d) frame matrix with respect to the tangent/normal split.
    """

    # an overflow shows as a coefficient or a norm that is not finite, refused
    # where it is made
    @np.errstate(over="ignore", divide="ignore", invalid="ignore")
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

        memo = {}
        phi = jstack([eval_expr(c, uv, uspace, memo) for c in sub.components], axis=-1)
        self.phi = phi
        self.x0 = phi.val.copy()
        self.J = phi.grad(-1)
        _refuse_non_finite("immersion", phi, u0, 1)
        _refuse_non_finite("Jacobian", self.J, u0, 2)

        ambient = sub.ambient
        if ambient.constant_metric is None:
            self._Gx = ambient.metric_jets(self.x0, order - 1)
            self.G = jet_pullback(self._Gx, phi, self.x0)
            form = self.G
        else:
            # the metric's values at the points, refused as metric_jets refuses
            form = ambient.metric_jets(self.x0, 0).val
            self._Gx = None
            self.G = get_space(p, order - 1).constant(form)

        cols = [self.J[..., a] for a in range(p)]
        for ax in sub.pivots:
            onehot = np.zeros(d)
            onehot[ax] = 1.0
            cols.append(uspace.constant(onehot))
        self.E = gram_schmidt_jets(cols, form, self.u0, n_given=p)
        _refuse_non_finite("adapted frame", self.E, u0, 2)

        self.hmask = np.zeros((d, d))
        self.hmask[:p, :p] = 1.0
        self.hmask[p:, p:] = 1.0
        self.mmask = 1.0 - self.hmask

    def stack_of(self, shape: tuple, per_point: tuple):
        """The stack axes of a value of the given shape at the frame: the axes
        ahead of the batch axes and the per-point shape, or () for a value of
        the per-point shape alone (the same at every point). None when its
        trailing axes are neither, which the caller refuses, naming the shapes
        shape_rule(per_point) lists."""
        shape, full = tuple(shape), self.batch + tuple(per_point)
        if shape == tuple(per_point):
            return ()
        lead = len(shape) - len(full)
        return shape[:lead] if lead >= 0 and shape[lead:] == full else None

    def shape_rule(self, per_point: tuple) -> str:
        """The shapes stack_of accepts, for the message of a refusal."""
        full = self.batch + tuple(per_point)
        alt = f" or {tuple(per_point)}" if full != tuple(per_point) else ""
        return f"{full}{alt}, after any stack axes"

    def point_where(self, mask) -> list[float]:
        """The first of the frame's points at which mask holds; mask has the
        batch shape or broadcasts to it, or leads with stack axes, and then
        names the first point at which any of its entries holds."""
        return first_point(self.u0, mask)

    # -- ambient geometry, x-space jets then pulled back along phi, or zero
    # -- over a constant metric ------------------------------------------------

    def _zero(self, order: int, shape: tuple) -> Jet:
        return get_space(self.p, order).constant(np.zeros(self.batch + shape))

    @_built_on_read(2)
    def _Gamx(self) -> Jet:
        # one order below the metric: the x-space curvature is built from
        # these, and both are pulled back in spaces of their own order
        return christoffel_jets(self._Gx)

    @_built_on_read(2)
    def Gam(self) -> Jet:
        if self._Gx is None:
            return self._zero(self.order - 2, (self.d,) * 3)
        return jet_pullback(self._Gamx, self.phi, self.x0)

    @_built_on_read(1)
    def R(self) -> Jet:
        if self._Gx is None:
            return self._zero(self.order - 3, (self.d,) * 4)
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
        """P = I - 2 sum_A (S_A S_A)[:p, :p] in the tangent frame: the
        deformed metric g(P X, Y) is <X^{h'}, Y^{h'}>, whose vertical part
        pairs S_X and S_Y by skew_inner, <T, T'> = -tr(T T'), so an off-block
        T with block h has |T|^2 = 2|h|^2, and that is the factor 2. For a
        hypersurface in flat space the tangent blocks of -S_A S_A, summed
        over A, are the frame matrix of the third fundamental form
        III = II g^-1 II, so gt_chart = g + 2 III in chart terms and
        h1 = |sum_i k_i / (1 + 2 k_i^2)| over the principal curvatures k_i
        (a test checks it on a torus of revolution)."""
        p = self.p
        S2 = jet_einsum("...Aij,...Ajk->...ik", self.Smats, self.Smats)
        return self.uspace.constant(np.eye(p)) - 2.0 * S2[..., :p, :p]

    @_built_on_read(2)
    def P_singular(self) -> np.ndarray:
        return np.linalg.cond(self.Pfr.val) > 1e12

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


# -- builtin catalog -------------------------------------------------------------

SUBMANIFOLD_BUILTINS = (
    "plane",
    "plane3",
    "circle",
    "sphere2",
    "catenoid",
    "great2(kappa)",
    "clifford",
    "pseudosphere",
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
    if key == "pseudosphere":
        # the tractroid of a = sqrt(2), Gauss curvature K = -1/a^2 = -1/2:
        # a general-position input for the main theorem, not minimal, with
        # h1 = 0 and h2, h3, m2 of order 1
        return ImmersedSubmanifold(
            2,
            [[0.4, 1.6], [-1.2, 1.2]],
            ["sqrt(2)*cos(u2)/cosh(u1)", "sqrt(2)*sin(u2)/cosh(u1)", "sqrt(2)*(u1-tanh(u1))"],
            euclidean(3),
            name="PSEUDOSPHERE",
        )
    raise FrameError(
        f"unknown submanifold {name!r}; builtins: {', '.join(SUBMANIFOLD_BUILTINS)}"
    )
