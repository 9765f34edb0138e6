"""Tangent vectors of the ambient orthonormal frame bundle at adapted frames.

A tangent vector of O(N) at a frame splits into a horizontal part (a vector
at the base point) and a vertical part (a skew endomorphism). A LiftedVector
holds both in the adapted orthonormal frame: the horizontal part as its d
frame components, the vertical part as its (d, d) skew matrix of frame
components. The base metric is the identity in that frame, so the
Sasaki-Mok metric is h . h' - tr(V V') with no conversion. A tangent
vector of M enters as its p chart coefficients: horizontal_lift_prime maps
them straight to frame components, and the lift X^h of any vector is
lifted(fd, horizontal=...) on its frame components (Einv.val @ Y of an
ambient Y, submanifold.FramePointData).

Everything is evaluated at adapted frames over a submanifold M, where the
useful lifts are X^h (zero vertical), X^{h'} = X^h + bar(S_X) for tangent X,
and the invariant vertical fields bar(T). Every function here takes the
frame fd (a FramePointData) at which it evaluates, and a LiftedVector holds
that frame: vectors combine only at the same frame object. The frame is of
one point or of a batch of n points; a lifted vector holds one vector at
each point, its parts lead with the frame's batch shape fd.batch, horizontal
(n, d) and vertical (n, d, d), and sasaki_mok_inner and norm give an array
of that shape, () at one point. Every function passes the batch axes
through, and a part given per point is the same at every point of the batch.
A stack of vectors at each point, made in one call, leads with its stack
axes ahead of the batch axes, (k, n, d) and (k, n, d, d) for k of them, and
its norms are (k, n); a refusal names the first point where any of them
fails.

The Levi-Civita connection is written once, on field pairs: direction
X^h + bar(A), field Y^h + bar(B),

    nabla_{X^h + bar A}(Y^h + bar B)
        = (nabla_X Y + 1/2 R_B(X) + 1/2 R_A(Y))^h
          + bar(nabla_X B - 1/2 R(X,Y) + 1/2 [B, A]).

Its restrictions are the four cases of nabla_ON (one part of each pair,
chosen by case_pairs) and nabla_ON_primed (the same cases on primed lifts,
so A = S_X and B = S_Y where a tangent part is given); the connection on
general pairs is the sum of the four cases. Each differentiates its
fields once along a direction with a tangent part and not at all along a
vertical one, so the fields enter as jets of order 1 or 0 (the depth rule
of operators); a term read at its values only is formed at order 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .operators import hm_split_mat, matvec, skew_inner
from .submanifold import FramePointData

__all__ = [
    "FrameBundleError",
    "LiftedVector",
    "lifted",
    "sasaki_mok_inner",
    "horizontal_lift_prime",
    "case_pairs",
    "nabla_ON",
    "nabla_ON_primed",
    "decompose_OMN",
    "tangent_generators",
    "normal_generators",
]


class FrameBundleError(ValueError):
    pass


@dataclass(frozen=True)
class LiftedVector:
    """Tangent vector of the frame bundle at the adapted frame fd, or one at
    each point of a batch frame.

    horizontal: (..., d) frame components of the horizontal part.
    vertical: (..., d, d) skew matrix of frame components of the vertical part.
    """

    fd: FramePointData
    horizontal: np.ndarray
    vertical: np.ndarray

    def __add__(self, other: "LiftedVector") -> "LiftedVector":
        _same_base(self, other)
        return LiftedVector(self.fd, self.horizontal + other.horizontal, self.vertical + other.vertical)

    def __sub__(self, other: "LiftedVector") -> "LiftedVector":
        return self + (-1.0) * other

    def __rmul__(self, c: float) -> "LiftedVector":
        return LiftedVector(self.fd, c * self.horizontal, c * self.vertical)

    def norm(self):
        """The Sasaki-Mok norm, of the frame's batch shape."""
        return np.sqrt(np.maximum(sasaki_mok_inner(self, self), 0.0))


def _same_base(v: LiftedVector, w: LiftedVector):
    if v.fd is not w.fd:
        raise FrameBundleError("lifted vectors live at different frames")


def _part(fd: FramePointData, x, shape: tuple, what: str) -> np.ndarray:
    """x as a float array of any stack axes, the frame's batch axes and
    shape: a value of shape alone is the same at every point, None is zero."""
    full = fd.batch + shape
    if x is None:
        return np.zeros(full)
    a = np.asarray(x, dtype=float)
    stack = fd.stack_of(a.shape, shape)
    if stack is None:
        raise FrameBundleError(f"{what} must have shape {fd.shape_rule(shape)}, got {a.shape}")
    return np.array(np.broadcast_to(a, full)) if a.shape == shape else a


def lifted(fd: FramePointData, horizontal=None, vertical=None) -> LiftedVector:
    """Assemble a LiftedVector at the frame fd from the frame components of
    its horizontal part, shape (d,), and its vertical skew matrix, shape
    (d, d), each led by the frame's batch axes (and any stack axes ahead of
    them) or the same at every point; an absent part is zero. Both parts
    must be finite and the vertical part V antisymmetric at each point,
    max|V + V^T| <= 1e-10 (1 + max|V|), the 1e-10 of the other block checks
    taken relative to V's size; a refusal names the first point where it
    fails."""
    h = _part(fd, horizontal, (fd.d,), "horizontal part")
    vmat = _part(fd, vertical, (fd.d, fd.d), "vertical part")
    finite = np.isfinite(h).all(axis=-1) & np.isfinite(vmat).all(axis=(-2, -1))
    if not finite.all():
        raise FrameBundleError(f"horizontal or vertical part is not finite at u = {fd.point_where(~finite)}")
    asym = np.max(np.abs(vmat + np.swapaxes(vmat, -1, -2)), axis=(-2, -1))
    skew = asym <= 1e-10 * (1.0 + np.max(np.abs(vmat), axis=(-2, -1)))
    if not skew.all():
        raise FrameBundleError(f"vertical part is not antisymmetric at u = {fd.point_where(~skew)}")
    return LiftedVector(fd, h, vmat)


def sasaki_mok_inner(v: LiftedVector, w: LiftedVector):
    """h . h' on the horizontal frame components plus <V, V'> on the vertical
    parts, of the frame's batch shape."""
    _same_base(v, w)
    hh = np.einsum("...i,...i->...", v.horizontal, w.horizontal)
    return hh + skew_inner(v.vertical, w.vertical)


def horizontal_lift_prime(fd: FramePointData, X) -> LiftedVector:
    """X^{h'} = X^h + bar(S_X) for X tangent to M, given by its p chart
    coefficients, led by the frame's batch axes or the same at every point.
    """
    xc = _part(fd, X, (fd.p,), "chart coefficients")
    return lifted(fd, horizontal=ops.full_frame_field(fd, xc).val, vertical=ops.s_field_matrix(fd, xc).val)


def case_pairs(case: str, args) -> tuple:
    """Field pairs (X, A, Y, B) of a connection case on its two args.

    The direction is X^h + bar(A) and the field Y^h + bar(B); the case's
    first letter says whether its first arg is X ("h") or A ("v"), the second
    letter whether its second arg is Y or B. An absent part is None, so the
    parts that are not None are the args, in order.
    """
    if case not in ("hh", "hv", "vh", "vv"):
        raise FrameBundleError(f"unknown case {case!r}")
    if len(args) != 2:
        raise FrameBundleError(f"case {case!r} takes 2 arguments, got {len(args)}")
    direction, field = args
    X, A = (direction, None) if case[0] == "h" else (None, direction)
    Y, B = (field, None) if case[1] == "h" else (None, field)
    return X, A, Y, B


def _case_jets(fd: FramePointData, case: str, args) -> tuple:
    """case_pairs normalised to chart jets (X, Y) and frame-matrix jets (A, B)
    of the order the connection differentiates them to: 1 along a direction
    with a tangent part X, 0 along a vertical one, which differentiates
    nothing."""
    X, A, Y, B = case_pairs(case, args)
    order = 0 if X is None else 1
    chart = lambda f: None if f is None else ops.as_chart_field(fd, f, order)
    endo = lambda T: None if T is None else ops.as_endo_field(fd, T, order)
    return chart(X), endo(A), chart(Y), endo(B)


def _pair_nabla_ON(fd: FramePointData, Xc, A, yF, B) -> LiftedVector:
    """nabla_{X^h + bar A}(Y^h + bar B), the connection on field pairs:

    (nabla_X Y + 1/2 R_B(X) + 1/2 R_A(Y))^h + bar(nabla_X B - 1/2 R(X,Y) + 1/2 [B, A])

    Xc is a chart-coefficient jet, yF a frame-component jet, A and B
    frame-matrix jets. An absent part is None, and a term is formed only when
    all its factors are present. Only yF and B are differentiated, along X;
    every other term is read at its values, so it is formed at order 0.
    """
    horiz = np.zeros(fd.d)
    vert = np.zeros((fd.d, fd.d))
    if Xc is not None:
        xF = ops.full_frame_field(fd, Xc.cut(0))
        if yF is not None:
            horiz = horiz + ops.ambient_deriv_frame(fd, Xc, yF).val
            vert = vert - 0.5 * ops.curvature_matrix(fd, xF, yF.cut(0)).val
        if B is not None:
            horiz = horiz + 0.5 * matvec(ops.rt_matrix_jet(fd, B.cut(0)).val, xF.val)
            vert = vert + ops.nabla_t_field_jet(fd, B, Xc, "ambient").val
    if A is not None:
        if yF is not None:
            horiz = horiz + 0.5 * matvec(ops.rt_matrix_jet(fd, A.cut(0)).val, yF.val)
        if B is not None:
            vert = vert + 0.5 * (B.val @ A.val - A.val @ B.val)
    return lifted(fd, horizontal=horiz, vertical=vert)


def nabla_ON(fd: FramePointData, case: str, *args) -> LiftedVector:
    """Levi-Civita connection of the Sasaki-Mok metric on lifted fields.

    case "hh", args (Xf, Yf):  nabla_{X^h} Y^h = (nabla_X Y)^h - 1/2 bar(R(X,Y))
    case "vh", args (T, Xf):   nabla_{bar T} X^h = 1/2 R_T(X)^h
    case "hv", args (Xf, T):   nabla_{X^h} bar T = 1/2 R_T(X)^h + bar(nabla_X T)
    case "vv", args (T, Tp):   nabla_{bar T} bar T' = 1/2 bar([T', T])

    Vector fields are chart-coefficient specs; T specs are endo fields
    (callables of FramePointData) or constant frame matrices.
    """
    Xc, A, Yc, B = _case_jets(fd, case, args)
    yF = None if Yc is None else ops.full_frame_field(fd, Yc)
    return _pair_nabla_ON(fd, Xc, A, yF, B)


def nabla_ON_primed(fd: FramePointData, case: str, *args) -> LiftedVector:
    """Ambient connection on primed lifts X^{h'} = X^h + bar(S_X).

    Both as direction and as field, a tangent part X of the case brings the
    vertical part S_X along. case "hh": (Xf, Yf) differentiates Y^{h'} along
    X^{h'}; "hv": (Xf, T); "vh": (T, Yf); "vv": (T, Tp).
    """
    Xc, A, Yc, B = _case_jets(fd, case, args)
    yF = None
    if Xc is not None:
        A = ops.s_field_matrix(fd, Xc.cut(0))
    if Yc is not None:
        B = ops.s_field_matrix(fd, Yc)
        yF = ops.full_frame_field(fd, Yc)
    return _pair_nabla_ON(fd, Xc, A, yF, B)


def decompose_OMN(v: LiftedVector) -> tuple[LiftedVector, LiftedVector]:
    """Split a bundle tangent vector into parts tangent and normal to the
    adapted subbundle.

    The tangent space at an adapted frame is spanned by primed horizontal
    lifts and the block-diagonal vertical fields; the normal space by
    horizontal lifts of normal vectors and the off-diagonal vertical fields
    corrected by (S_{T_m})^h.
    """
    fd = v.fd
    p = fd.p
    Vh, Vm = hm_split_mat(v.vertical, p)
    xtan = ops.solve_P(fd, v.horizontal[..., :p] - ops.s_tm_tangent_jet(fd, Vm).val)
    SX = ops.s_field_matrix(fd, matvec(fd.C.val, xtan)).val
    xfull = np.zeros_like(v.horizontal)
    xfull[..., :p] = xtan
    tangent = lifted(fd, horizontal=xfull, vertical=SX + Vh)
    return tangent, v - tangent


def tangent_generators(fd: FramePointData) -> list[LiftedVector]:
    """Primed lifts of the tangent frame plus block-diagonal vertical basis."""
    p, d = fd.p, fd.d
    out = [lifted(fd, horizontal=np.eye(d)[A], vertical=fd.Smats.val[..., A, :, :]) for A in range(p)]
    for i in range(d):
        for j in range(i + 1, d):
            if (i < p) == (j < p):
                out.append(lifted(fd, vertical=ops.basis_T(d, i, j)))
    return out


def normal_generators(fd: FramePointData) -> list[LiftedVector]:
    """Horizontal lifts of normal frame vectors plus corrected off-diagonal
    vertical fields bar(T) + (S_{T_m})^h."""
    p, d = fd.p, fd.d
    out = [lifted(fd, horizontal=np.eye(d)[al]) for al in range(p, d)]
    for A in range(p):
        for al in range(p, d):
            Tm = ops.basis_T(d, A, al)
            svec = np.zeros(fd.batch + (d,))
            svec[..., :p] = ops.s_tm_tangent_jet(fd, Tm).val
            out.append(lifted(fd, horizontal=svec, vertical=Tm))
    return out
