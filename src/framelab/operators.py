"""Operator algebra on skew endomorphisms of TN along M.

Skew endomorphisms are handled as matrices in the adapted frame, where the
metric is the identity: the h-part is the pair of diagonal blocks (tangent
and normal), the m-part the off-diagonal blocks (hm_split_mat). The inner
product is skew_inner, <T, T'> = -tr(T T').

Tangent vector fields on M are chart-coefficient jet fields; endomorphism
fields are frame-component jet fields. A constant direction that is only
contracted, never differentiated, may be a plain array instead. Every
covariant derivative along a tangent field X is the directional derivative
jets.jet_along(X, F) = sum_a X^a d_a F plus a connection term: omega_X F or
[omega_X, T] in frame components, with omega_along giving the connection
matrix omega_X = sum_a X^a omega^a (full ambient connection) or its
block-diagonal part (the connection preserving the splitting), and
Gamma(X, Y) in chart coefficients.

Public frame-field primitives, all jet-valued at one FramePointData, are
the single home of their formulas for the frame-bundle modules. They pass
the frame's batch axes through (their subscripts start with `...`), so
they act on the frame of one point and on a batch of points alike, with
their arguments leading with the same batch axes or with none. A stack of
directions is one call too: its axes lead, ahead of the batch axes, every
field and direction of the call carries them, and the frame's attributes
broadcast to them through the `...` of the einsums; solve_P lifts P to
them, and a constant direction given to the normalisers must have the
per-point shape, or the frame's batch axes and the per-point shape after
any stack axes (FramePointData.stack_of), and is refused otherwise. The
primitives:
frame_of_chart and full_frame_field (chart coefficients of a tangent field to
its p tangent-frame or d frame components), omega_along (omega_X, full or
block-diagonal), ambient_deriv_frame (nabla_X Y in frame components),
curvature_matrix (frame matrix of R(X, Y)), s_field_matrix (S_X),
s_tm_tangent_jet (S_{T_m}), rt_matrix_jet (R_T), nabla_t_field_jet
(nabla_X T, full or primed), commutator_jet ([A, B] of frame-matrix jets),
and solve_P (P^{-1}, refusing a numerically singular P). The operator P and
the deformed metric are read off the frame itself (FramePointData.Pfr and
gt_chart), and the connections nabla' and tilde-nabla on tangent fields are
vec_nabla_prime_jet and vec_tilde_nabla_jet; Q_T and R' are q_t_chart_jet
and curvature_prime_jet. Where a caller needs two of these along one X, a
pair shares its common pieces and gives each bitwise as its own primitive
does: frame_derivs_jet (ambient_deriv_frame and the primed
nabla_t_field_jet, one omega_X) and vec_connections_jet (nabla' and
tilde-nabla, one derivative of Y along X and one X (x) Y). Field specs
are normalised by as_chart_field (tangent fields) and as_endo_field
(endomorphism fields).

Depth rule: both normalisers take an order, the number of derivatives the
caller's formula takes of the field, and return the field as a jet of that
order, or of its own valid order where that is lower. A coefficient of
degree k never reads a higher one, so a formula that differentiates its
fields k times and keeps values reads no coefficient above order k, and
every product it forms lands at order k or below; the frame's own jets are
cut where they meet the field. The depths: 1 for the connections along a
direction with a tangent part (frame_bundle.nabla_ON and nabla_ON_primed,
nabla_OMN, second_fundamental_OMN, L_op), 1 for tangent
fields and 2 for T in the cases of curvature_OMN that differentiate Q_T(Y),
and 0 where only a field's values are read.

The same rule holds for terms. A term added to a derivative is formed at the
derivative's order: jet_along(X, F) lands one order below F, so
ambient_deriv_frame, the connections on tangent fields and nabla_t_field_jet
cut X and F to that order before they form the connection term (omega_X F,
Gamma(X, Y), [omega_X, T]), and q_t_chart_jet forms R_T X at the order of
nabla_X T. A reader of values forms its products at order 0: it cuts what it
does not differentiate to order 0 before multiplying. Truncated Taylor
arithmetic computes a coefficient of degree k from the same pairs, in the
same order, in any space of order k or more, so the values are bitwise
those of the products formed at full order.

L_op evaluates the operator L from these primitives, in chart coefficients,
at a frame of one point or of a batch (its result then leads with the batch
axes); it is the right-hand side of an identity of verify's registry.
skew_inner, hm_split_mat and matvec act on the trailing axes of value
arrays, so they take a batch of frame matrices too. Values lead with the
frame's batch shape, () at one point (the batch convention of submanifold),
so skew_inner gives a numpy scalar at one point.

The tolerance ladder of the identity checks is verify.TOL_LADDER.
"""

from __future__ import annotations

import numpy as np

from .jets import Jet, get_space, jet_along, jet_einsum, jet_solve, jstack
from .submanifold import FramePointData

__all__ = [
    "OperatorError",
    "matvec",
    "skew_inner",
    "hm_split_mat",
    "basis_T",
    "L_op",
    "as_chart_field",
    "as_endo_field",
    "rt_matrix_jet",
    "s_field_matrix",
    "s_tm_tangent_jet",
    "omega_along",
    "vec_nabla_prime_jet",
    "vec_tilde_nabla_jet",
    "vec_connections_jet",
    "bracket_jet",
    "nabla_t_field_jet",
    "q_t_chart_jet",
    "curvature_prime_jet",
    "frame_of_chart",
    "full_frame_field",
    "ambient_deriv_frame",
    "frame_derivs_jet",
    "curvature_matrix",
    "solve_P",
    "commutator_jet",
]


class OperatorError(ValueError):
    pass


def matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x for (..., m, k) matrices and (..., k) vectors, values per point."""
    return np.einsum("...ij,...j->...i", A, x)


def skew_inner(T, Tp):
    """<T, T'> = -tr(T T') of (..., d, d) frame matrices, of their batch shape."""
    return -np.einsum("...ij,...ji->...", T, Tp)


def hm_split_mat(mat: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(h-part, m-part) of (..., d, d) frame matrices: their diagonal blocks
    and their off-diagonal blocks for the split at p."""
    h = np.zeros_like(mat)
    h[..., :p, :p] = mat[..., :p, :p]
    h[..., p:, p:] = mat[..., p:, p:]
    return h, mat - h


def basis_T(d: int, i: int, j: int) -> np.ndarray:
    """T_{ij} = (E^i_j - E^j_i)/sqrt(2), unit-norm skew basis element."""
    out = np.zeros((d, d))
    out[i, j] = 1.0 / np.sqrt(2.0)
    out[j, i] = -1.0 / np.sqrt(2.0)
    return out


# -- jet-level building blocks -------------------------------------------------


def _at_most(j, order: int):
    """j cut to order, or j itself when it is valid to no more or is a
    plain array (a constant direction)."""
    return j.cut(order) if isinstance(j, Jet) and j.valid > order else j


def frame_of_chart(fd: FramePointData, xc) -> Jet:
    """Chart coefficients -> tangent-frame coefficients (jets)."""
    return jet_einsum("...Aa,...a->...A", fd.Dmat, xc)


def full_frame_field(fd: FramePointData, Xc) -> Jet:
    """Frame components (length d, zero normal part) of a tangent chart field."""
    return jet_einsum("iA,...A->...i", np.eye(fd.d)[:, : fd.p], frame_of_chart(fd, Xc))


def omega_along(fd: FramePointData, Xc, which: str = "ambient") -> Jet:
    """omega_X = sum_a X^a omega^a, the connection matrix along X in frame
    components; its block-diagonal part when which is "prime"."""
    if which not in ("ambient", "prime"):
        raise OperatorError(f"unknown connection {which!r}")
    om = jet_einsum("...a,...aij->...ij", Xc, fd.omega)
    return om * fd.hmask if which == "prime" else om


def _vec_deriv(dY: Jet, om: Jet, yF: Jet) -> Jet:
    """nabla_X Y = dY + omega_X Y in frame components, from dY = jet_along(X,
    yF) and the connection matrix om along X: the term is formed at dY's
    order, to which om and yF are cut."""
    return dY + jet_einsum("...ij,...j->...i", _at_most(om, dY.valid), _at_most(yF, dY.valid))


def _endo_deriv(dT: Jet, om: Jet, Tj: Jet) -> Jet:
    """nabla_X T = dT + [omega_X, T] in frame components, from dT =
    jet_along(X, T) and the connection matrix om along X: the term is formed
    at dT's order, to which om and T are cut."""
    return dT + commutator_jet(_at_most(om, dT.valid), _at_most(Tj, dT.valid))


def ambient_deriv_frame(fd: FramePointData, Xc, yF: Jet) -> Jet:
    """Frame components of nabla_X Y for a full frame-component field yF."""
    dY = jet_along(Xc, yF)
    return _vec_deriv(dY, omega_along(fd, _at_most(Xc, dY.valid)), yF)


def frame_derivs_jet(fd: FramePointData, Xc, yF: Jet, Tj: Jet) -> tuple[Jet, Jet]:
    """(nabla_X Y, nabla'_X T) in frame components for a full frame-component
    field yF and an endomorphism field Tj along one X: ambient_deriv_frame and
    nabla_t_field_jet(..., "prime"), bitwise, with one omega_X between them,
    formed at the higher of the two derivatives' orders and cut to each."""
    dY, dT = jet_along(Xc, yF), jet_along(Xc, Tj)
    om = omega_along(fd, _at_most(Xc, max(dY.valid, dT.valid)))
    return _vec_deriv(dY, om, yF), _endo_deriv(dT, om * fd.hmask, Tj)


def curvature_matrix(fd: FramePointData, xF: Jet, yF: Jet) -> Jet:
    """Frame matrix of R(X, Y) for full frame-component vectors."""
    return jet_einsum("...ijl,...l->...ij", jet_einsum("...ijkl,...k->...ijl", fd.Rfr, xF), yF)


def commutator_jet(A, B) -> Jet:
    """[A, B] = AB - BA for (d, d) frame-matrix jets."""
    return jet_einsum("...ik,...kj->...ij", A, B) - jet_einsum("...ik,...kj->...ij", B, A)


def _batched(fd: FramePointData, value, per_point: tuple, order: int, what: str) -> Jet:
    """The constant jet of value in get_space(p, order), led by its stack
    axes and the frame's batch axes (a value of the per-point shape alone is
    the same at every point); OperatorError for any other shape."""
    value = np.asarray(value, dtype=float)
    stack = fd.stack_of(value.shape, per_point)
    if stack is None:
        raise OperatorError(f"{what} must have shape {fd.shape_rule(per_point)}, got {value.shape}")
    return get_space(fd.p, order).constant(np.broadcast_to(value, stack + fd.batch + per_point))


def _chart_coefficients(fd: FramePointData, j, order: int):
    """A jet field, or a callable's result, cut by _at_most; OperatorError
    unless its last axis holds the p chart coefficients."""
    shape = j.shape if isinstance(j, Jet) else np.shape(j)
    if shape[-1:] != (fd.p,):
        raise OperatorError(f"chart coefficients must have shape {fd.shape_rule((fd.p,))}, got {shape}")
    return _at_most(j, order)


def as_chart_field(fd: FramePointData, field, order: int) -> Jet:
    """Normalize a tangent-field spec to a (..., p) chart-coefficient jet
    with the frame's batch axes, of the order its caller differentiates it
    to (see the depth rule of the module docstring).

    Accepts a jet, a callable of the coordinate jets, a list of
    chart-coefficient expression strings in u, or a plain constant
    coefficient array, per point (p,) or led by the batch axes. Strings and
    callables are evaluated on the coordinates cut to order, and constants
    built at order; a jet, or a callable's result, is cut to order when it
    is valid to more. The frame's order bounds the order. A constant may
    lead with stack axes ahead of the batch axes; any other shape, a list of
    other than p strings, or a jet or callable result whose last axis is not
    of length p, raises OperatorError.
    """
    from .expr import eval_expr, parse

    if isinstance(field, Jet):
        return _chart_coefficients(fd, field, order)
    order = min(order, fd.order)
    if callable(field):
        return _chart_coefficients(fd, field([v.cut(order) for v in fd.uv]), order)
    if all(isinstance(c, str) for c in field):
        if len(field) != fd.p:
            raise OperatorError(
                f"chart coefficients must have shape {fd.shape_rule((fd.p,))}, got {len(field)} expressions"
            )
        uv = [v.cut(order) for v in fd.uv]
        sp = get_space(fd.p, order)
        return jstack([eval_expr(parse(c, fd.p, var_prefix="u"), uv, sp) for c in field], axis=-1)
    return _batched(fd, field, (fd.p,), order, "chart coefficients")


def as_endo_field(fd: FramePointData, spec, order: int) -> Jet:
    """Normalize an endomorphism-field spec to a (..., d, d) frame-component
    jet with the frame's batch axes, of the order its caller differentiates
    it to (see the depth rule of the module docstring).

    Accepts a callable of FramePointData, whose result is cut to order when
    it is valid to more, or a constant frame matrix, per point (d, d) or led
    by the batch axes and any stack axes ahead of them, built at order (at
    most the frame's); any other shape raises OperatorError.
    """
    if callable(spec):
        return _at_most(spec(fd), order)
    return _batched(fd, spec, (fd.d, fd.d), min(order, fd.order), "frame matrix")


def s_field_matrix(fd: FramePointData, Xc) -> Jet:
    """Frame matrix jet of the endomorphism field u -> S_{X(u)}."""
    return omega_along(fd, Xc) * fd.mmask


def rt_matrix_jet(fd: FramePointData, Tj) -> Jet:
    """Frame matrix of X -> sum_i R(e_i, T e_i) X."""
    return jet_einsum("...abij,...ji->...ab", fd.Rfr, Tj)


def s_tm_tangent_jet(fd: FramePointData, Tm) -> Jet:
    """Tangent-frame coefficients of S_{T_m} = 2 sum_A S_{e_A}(T_m e_A).

    Tm is a (d, d) frame matrix, jet or array; only its m-part is read.
    """
    vec = 2.0 * jet_einsum("...Aij,...jA->...i", fd.Smats, Tm[..., : fd.p])
    return vec[..., : fd.p]


def solve_P(fd: FramePointData, rhs):
    """P^{-1} rhs for tangent-frame components rhs, a jet or an array, led
    by the frame's batch axes and any stack axes.

    Raises OperatorError when P is numerically singular (condition number
    above 1e12) at any of the frame's points, as on a thin tube where S is
    huge, and names the first such point. The test is the frame's
    P_singular, made once per frame.
    """
    if fd.P_singular.any():
        raise OperatorError(f"operator P is numerically singular at {fd.point_where(fd.P_singular)}")
    if isinstance(rhs, Jet):
        # P lifted to rhs's stack axes, so that rhs is a vector to jet_solve
        stack = rhs.shape[: max(0, len(rhs.shape) - len(fd.batch) - 1)]
        return jet_solve(fd.Pfr.broadcast_to(stack + fd.Pfr.shape), rhs)
    return np.linalg.solve(fd.Pfr.val, np.asarray(rhs, dtype=float)[..., None])[..., 0]


def _connection_jets(gams: tuple, Xc, Yc: Jet) -> tuple:
    """Chart coefficients of nabla_X Y for the connection with Christoffels
    gam, for each gam of gams, from one jet_along(X, Y) and one X (x) Y."""
    dY = jet_along(Xc, Yc)
    XY = jet_einsum("...a,...b->...ab", _at_most(Xc, dY.valid), _at_most(Yc, dY.valid))
    return tuple(dY + jet_einsum("...cab,...ab->...c", gam, XY) for gam in gams)


def vec_nabla_prime_jet(fd: FramePointData, Xc: Jet, Yc: Jet) -> Jet:
    """Chart coefficients of nabla'_X Y for tangent fields (jets)."""
    return _connection_jets((fd.Gam_chart,), Xc, Yc)[0]


def vec_tilde_nabla_jet(fd: FramePointData, Xc: Jet, Yc: Jet) -> Jet:
    """Chart coefficients of the deformed-metric connection applied to fields."""
    return _connection_jets((fd.Gamt,), Xc, Yc)[0]


def vec_connections_jet(fd: FramePointData, Xc: Jet, Yc: Jet) -> tuple[Jet, Jet]:
    """(nabla'_X Y, tilde-nabla_X Y) in chart coefficients:
    vec_nabla_prime_jet and vec_tilde_nabla_jet, bitwise, from one
    derivative of Y along X and one X (x) Y."""
    return _connection_jets((fd.Gam_chart, fd.Gamt), Xc, Yc)


def bracket_jet(fd: FramePointData, Xc: Jet, Yc: Jet) -> Jet:
    """[X, Y] in chart coefficients."""
    return jet_along(Xc, Yc) - jet_along(Yc, Xc)


def nabla_t_field_jet(fd: FramePointData, Tj: Jet, Xc, which: str = "ambient") -> Jet:
    """(nabla_X T) for an endo field along a tangent field, frame components,
    full or primed (which = "ambient" or "prime")."""
    dT = jet_along(Xc, Tj)
    return _endo_deriv(dT, omega_along(fd, _at_most(Xc, dT.valid), which), Tj)


def q_t_chart_jet(fd: FramePointData, Tj: Jet, Xc) -> Jet:
    """Q_T(X) in chart coefficients, everything jet-valued.

    Q_T(X) = P^{-1}((R_T X)^T - S_{(nabla_X T)_m}).
    """
    nabT = nabla_t_field_jet(fd, Tj, Xc, "ambient")
    # R_T X is summed with a derivative of T: formed at the derivative's order
    RT = rt_matrix_jet(fd, _at_most(Tj, nabT.valid))
    xfr = frame_of_chart(fd, _at_most(Xc, nabT.valid))
    rt_top = jet_einsum("...AB,...B->...A", RT[..., : fd.p, : fd.p], xfr)
    svec = s_tm_tangent_jet(fd, nabT * fd.mmask)
    return jet_einsum("...aA,...A->...a", fd.C, solve_P(fd, rt_top - svec))


def curvature_prime_jet(fd: FramePointData, Xc, Yc) -> Jet:
    """R'(X, Y) as a frame-matrix jet: R(X,Y)_h - [S_X, S_Y], in the lower
    of X's and Y's orders, to which both are cut first."""
    order = min((f.valid for f in (Xc, Yc) if isinstance(f, Jet)), default=0)
    Xc, Yc = _at_most(Xc, order), _at_most(Yc, order)
    xfr, yfr = frame_of_chart(fd, Xc), frame_of_chart(fd, Yc)
    Rtan = fd.Rfr[..., : fd.p, : fd.p]
    RXY = jet_einsum("...ijl,...l->...ij", jet_einsum("...ijkl,...k->...ijl", Rtan, xfr), yfr)
    Sx, Sy = s_field_matrix(fd, Xc), s_field_matrix(fd, Yc)
    return RXY * fd.hmask - commutator_jet(Sx, Sy)


# -- the operator L ------------------------------------------------------------------


def L_op(fd: FramePointData, Xf, Yf) -> np.ndarray:
    """L_X Y = (Q_{S_X}(Y) + Q_{S_Y}(X) + P^{-1} S_{S_{nabla'_X Y + nabla'_Y X}})/2,
    in chart coefficients (p,) at the frame of one point, or (n, p) at the
    frame of n points."""
    # the terms in X and their swaps in Y: one call on the stack (X, Y)
    # against (Y, X)
    XY = jstack([as_chart_field(fd, Xf, 1), as_chart_field(fd, Yf, 1)], axis=0)
    YX = XY[[1, 0]]
    q = q_t_chart_jet(fd, s_field_matrix(fd, XY), YX).val
    V = vec_nabla_prime_jet(fd, XY, YX)
    SZ = s_field_matrix(fd, V[0] + V[1])
    svec = s_tm_tangent_jet(fd, SZ).val
    q3 = matvec(fd.C.val, solve_P(fd, svec))
    return 0.5 * (q[0] + q[1] + q3)
