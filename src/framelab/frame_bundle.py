"""Tangent vectors of the ambient orthonormal frame bundle at adapted frames.

A tangent vector of O(N) at a frame splits into a horizontal part (an ambient
vector at the base point) and a vertical part (a skew matrix of frame
components). The Sasaki-Mok metric pairs horizontal parts with the base
metric and vertical parts with -tr(V V').

Everything is evaluated at adapted frames over a submanifold M, where the
useful lifts are X^h (zero vertical), X^{h'} = X^h + bar(S_X) for tangent X,
and the invariant vertical fields bar(T).

The Levi-Civita connection is written once, on field pairs: direction
X^h + bar(A), field Y^h + bar(B),

    nabla_{X^h + bar A}(Y^h + bar B)
        = (nabla_X Y + 1/2 R_B(X) + 1/2 R_A(Y))^h
          + bar(nabla_X B - 1/2 R(X,Y) + 1/2 [B, A]).

Its restrictions are the four cases of nabla_ON (one part of each pair,
chosen by case_pairs), nabla_ON_primed (the same cases on primed lifts, so
A = S_X and B = S_Y where a tangent part is given) and nabla_ON_section (the
direction is the section velocity, A = omega_X).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .operators import SkewEndo, hm_split_mat, skew_inner
from .submanifold import (
    AdaptedFrame,
    FramePointData,
    ImmersedSubmanifold,
    adapted_frame_at,
    as_ambient,
)

__all__ = [
    "FrameBundleError",
    "LiftedVector",
    "lifted",
    "sasaki_mok_inner",
    "horizontal_lift",
    "horizontal_lift_prime",
    "case_pairs",
    "nabla_ON",
    "nabla_ON_primed",
    "nabla_ON_section",
    "decompose_OMN",
    "tangent_generators",
    "normal_generators",
]


class FrameBundleError(ValueError):
    pass


@dataclass(frozen=True)
class LiftedVector:
    """Tangent vector of the frame bundle at an adapted frame.

    horizontal: ambient components of the horizontal part at the base point.
    vertical: skew matrix of frame components of the vertical part.
    """

    sub: ImmersedSubmanifold
    base: AdaptedFrame
    horizontal: np.ndarray
    vertical: SkewEndo

    def _fd(self) -> FramePointData:
        return self.sub.frame_data(self.base.u)

    def __add__(self, other: "LiftedVector") -> "LiftedVector":
        _same_base(self, other)
        return LiftedVector(
            self.sub,
            self.base,
            self.horizontal + other.horizontal,
            SkewEndo(self.base, self.vertical.mat + other.vertical.mat, self.vertical.p),
        )

    def __sub__(self, other: "LiftedVector") -> "LiftedVector":
        return self + (-1.0) * other

    def __rmul__(self, c: float) -> "LiftedVector":
        return LiftedVector(
            self.sub,
            self.base,
            c * self.horizontal,
            SkewEndo(self.base, c * self.vertical.mat, self.vertical.p),
        )

    def norm(self) -> float:
        return float(np.sqrt(max(sasaki_mok_inner(self, self), 0.0)))


def _same_base(v: LiftedVector, w: LiftedVector):
    if v.sub is not w.sub or not np.array_equal(v.base.u, w.base.u):
        raise FrameBundleError("lifted vectors live at different frames")


def lifted(M: ImmersedSubmanifold, u, horizontal=None, vertical=None) -> LiftedVector:
    """Assemble a LiftedVector from ambient horizontal and frame vertical parts."""
    fd = M.frame_data(np.asarray(u, dtype=float))
    fr = adapted_frame_at(M, u)
    h = np.zeros(fd.d) if horizontal is None else np.asarray(horizontal, dtype=float)
    vmat = np.zeros((fd.d, fd.d)) if vertical is None else np.asarray(vertical, dtype=float)
    if h.shape != (fd.d,):
        raise FrameBundleError(f"horizontal part must have shape ({fd.d},), got {h.shape}")
    if vmat.shape != (fd.d, fd.d):
        raise FrameBundleError(f"vertical part must have shape ({fd.d}, {fd.d}), got {vmat.shape}")
    return LiftedVector(M, fr, h, SkewEndo(fr, vmat, fd.p))


def sasaki_mok_inner(v: LiftedVector, w: LiftedVector) -> float:
    """g(h, h') at the base point plus <V, V'> on the vertical parts."""
    _same_base(v, w)
    fd = v._fd()
    hv = fd.frame_components(v.horizontal)
    hw = fd.frame_components(w.horizontal)
    return float(hv @ hw) + skew_inner(v.vertical, w.vertical)


def horizontal_lift(M: ImmersedSubmanifold, u, X) -> LiftedVector:
    """X^h: horizontal part X, zero vertical part."""
    return lifted(M, u, horizontal=as_ambient(X))


def horizontal_lift_prime(M: ImmersedSubmanifold, u, X) -> LiftedVector:
    """X^{h'} = X^h + bar(S_X) for X tangent to M.

    X is a tangent vector (ambient components or a TangentVectorM) or its
    p chart coefficients.
    """
    fd = M.frame_data(np.asarray(u, dtype=float))
    Xa = as_ambient(X)
    if Xa.shape == (fd.p,):
        xc, Xa = Xa, fd.J.val @ Xa
    else:
        xc = fd.chart_of_tangent(Xa)
        if np.max(np.abs(fd.J.val @ xc - Xa)) > 1e-8:
            raise FrameBundleError("horizontal_lift_prime needs a tangent vector")
    smat = ops.s_field_matrix(fd, xc).val
    return lifted(M, u, horizontal=Xa, vertical=smat)


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
    """case_pairs normalised to chart jets (X, Y) and frame-matrix jets (A, B)."""
    X, A, Y, B = case_pairs(case, args)
    chart = lambda f: None if f is None else ops.as_chart_field(fd, f)
    endo = lambda T: None if T is None else ops.as_endo_field(fd, T)
    return chart(X), endo(A), chart(Y), endo(B)


def _pair_nabla_ON(M: ImmersedSubmanifold, u, fd: FramePointData, Xc, A, yF, B) -> LiftedVector:
    """nabla_{X^h + bar A}(Y^h + bar B), the connection on field pairs:

    (nabla_X Y + 1/2 R_B(X) + 1/2 R_A(Y))^h + bar(nabla_X B - 1/2 R(X,Y) + 1/2 [B, A])

    Xc is a chart-coefficient jet, yF a frame-component jet, A and B
    frame-matrix jets. An absent part is None, and a term is formed only when
    all its factors are present.
    """
    horiz = np.zeros(fd.d)
    vert = np.zeros((fd.d, fd.d))
    if Xc is not None:
        xF = ops.full_frame_field(fd, Xc)
        if yF is not None:
            horiz = horiz + ops.ambient_deriv_frame(fd, Xc, yF).val
            vert = vert - 0.5 * ops.curvature_matrix(fd, xF, yF).val
        if B is not None:
            horiz = horiz + 0.5 * ops.rt_matrix_jet(fd, B).val @ xF.val
            vert = vert + ops.nabla_t_field_jet(fd, B, Xc, "ambient").val
    if A is not None:
        if yF is not None:
            horiz = horiz + 0.5 * ops.rt_matrix_jet(fd, A).val @ yF.val
        if B is not None:
            vert = vert + 0.5 * (B.val @ A.val - A.val @ B.val)
    return lifted(M, u, horizontal=fd.ambient_components(horiz), vertical=vert)


def nabla_ON(M: ImmersedSubmanifold, u, case: str, *args) -> LiftedVector:
    """Levi-Civita connection of the Sasaki-Mok metric on lifted fields.

    case "hh", args (Xf, Yf):  nabla_{X^h} Y^h = (nabla_X Y)^h - 1/2 bar(R(X,Y))
    case "vh", args (T, Xf):   nabla_{bar T} X^h = 1/2 R_T(X)^h
    case "hv", args (Xf, T):   nabla_{X^h} bar T = 1/2 R_T(X)^h + bar(nabla_X T)
    case "vv", args (T, Tp):   nabla_{bar T} bar T' = 1/2 bar([T', T])

    Vector fields are chart-coefficient specs; T specs are endo fields
    (callables of FramePointData) or constant frame matrices.
    """
    fd = M.frame_data(np.asarray(u, dtype=float))
    Xc, A, Yc, B = _case_jets(fd, case, args)
    yF = None if Yc is None else ops.full_frame_field(fd, Yc)
    return _pair_nabla_ON(M, u, fd, Xc, A, yF, B)


def nabla_ON_primed(M: ImmersedSubmanifold, u, case: str, *args) -> LiftedVector:
    """Ambient connection on primed lifts X^{h'} = X^h + bar(S_X).

    Both as direction and as field, a tangent part X of the case brings the
    vertical part S_X along. case "hh": (Xf, Yf) differentiates Y^{h'} along
    X^{h'}; "hv": (Xf, T); "vh": (T, Yf); "vv": (T, Tp).
    """
    fd = M.frame_data(np.asarray(u, dtype=float))
    Xc, A, Yc, B = _case_jets(fd, case, args)
    yF = None
    if Xc is not None:
        A = ops.s_field_matrix(fd, Xc)
    if Yc is not None:
        B = ops.s_field_matrix(fd, Yc)
        yF = ops.full_frame_field(fd, Yc)
    return _pair_nabla_ON(M, u, fd, Xc, A, yF, B)


def nabla_ON_section(M: ImmersedSubmanifold, u, Xf, yframe, endof) -> LiftedVector:
    """Covariant derivative along the adapted section of a lifted field.

    The field is V(u) = (sum_i yframe_i(u) e_i(u))^h + bar(T(u)) with yframe a
    callable of FramePointData giving (d,) frame-component jets and endof an
    endo field. The direction is the section velocity over the tangent field
    Xf, X^h + bar(omega_X) with omega_X = sum_a X^a omega^a.
    """
    fd = M.frame_data(np.asarray(u, dtype=float))
    Xc = ops.as_chart_field(fd, Xf)
    omX = ops.omega_along(fd, Xc)
    return _pair_nabla_ON(M, u, fd, Xc, omX, yframe(fd), ops.as_endo_field(fd, endof))


def decompose_OMN(v: LiftedVector) -> tuple[LiftedVector, LiftedVector]:
    """Split a bundle tangent vector into parts tangent and normal to the
    adapted subbundle.

    The tangent space at an adapted frame is spanned by primed horizontal
    lifts and the block-diagonal vertical fields; the normal space by
    horizontal lifts of normal vectors and the off-diagonal vertical fields
    corrected by (S_{T_m})^h.
    """
    M, u = v.sub, v.base.u
    fd = M.frame_data(u)
    p, d = fd.p, fd.d
    hfr = fd.frame_components(v.horizontal)
    Vh, Vm = hm_split_mat(v.vertical.mat, p)
    xtan = ops.solve_P(fd, hfr[:p] - ops.s_tm_tangent_jet(fd, Vm).val)
    xc = fd.C.val @ xtan
    SX = ops.s_field_matrix(fd, xc).val
    xfull = np.zeros(d)
    xfull[:p] = xtan
    tangent = lifted(M, u, horizontal=fd.ambient_components(xfull), vertical=SX + Vh)
    normal = lifted(
        M,
        u,
        horizontal=v.horizontal - tangent.horizontal,
        vertical=v.vertical.mat - tangent.vertical.mat,
    )
    return tangent, normal


def tangent_generators(M: ImmersedSubmanifold, u) -> list[LiftedVector]:
    """Primed lifts of the tangent frame plus block-diagonal vertical basis."""
    fd = M.frame_data(np.asarray(u, dtype=float))
    p, d = fd.p, fd.d
    out = []
    for A in range(p):
        xa = fd.ambient_components(np.eye(d)[A])
        out.append(horizontal_lift_prime(M, u, xa))
    for i in range(d):
        for j in range(i + 1, d):
            if (i < p) == (j < p):
                out.append(lifted(M, u, vertical=ops.basis_T(d, i, j)))
    return out


def normal_generators(M: ImmersedSubmanifold, u) -> list[LiftedVector]:
    """Horizontal lifts of normal frame vectors plus corrected off-diagonal
    vertical fields bar(T) + (S_{T_m})^h."""
    fd = M.frame_data(np.asarray(u, dtype=float))
    p, d = fd.p, fd.d
    out = []
    for al in range(p, d):
        out.append(horizontal_lift(M, u, fd.ambient_components(np.eye(d)[al])))
    for A in range(p):
        for al in range(p, d):
            Tm = ops.basis_T(d, A, al)
            out.append(lifted(M, u, horizontal=ops.S_Tm_vector(M, u, Tm).ambient, vertical=Tm))
    return out
