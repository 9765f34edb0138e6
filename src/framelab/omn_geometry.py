"""Intrinsic and extrinsic geometry of the adapted-frame subbundle.

The tangent space of the subbundle at an adapted frame is spanned by primed
horizontal lifts and block-diagonal vertical fields, so every field here is a
pair: a tangent vector field on M (chart coefficients) plus a block-diagonal
skew endomorphism field (frame components). The Levi-Civita connection, the
curvature tensor, sectional curvatures, the second fundamental form in the
ambient frame bundle, and the mean curvature all come as closed formulas in
the operator algebra; each one is cross-checked elsewhere against the
tangent/normal projection of the ambient bundle connection.

The second fundamental form Pi(X^{h'}, Y^{h'}) is a linear assembly of four
pieces bilinear in X and Y. The mean curvature is that assembly applied once
to the sums over a deformed-orthonormal frame given by frame_trace, which
the plane map's tension (gauss_map) reads too. VERDICT_TOL is the one
tolerance of the sampled verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import qmc

from . import operators as ops
from .frame_bundle import LiftedVector, case_pairs, horizontal_lift_prime, lifted, sasaki_mok_inner
from .jets import Jet, jet_einsum
from .operators import hm_split_mat, skew_inner
from .submanifold import FramePointData, ImmersedSubmanifold

__all__ = [
    "OmnError",
    "OmnPlane",
    "omn_plane",
    "MeanCurvatureReport",
    "TotallyGeodesicReport",
    "nabla_OMN",
    "curvature_OMN",
    "sectional_OMN",
    "second_fundamental_OMN",
    "mean_curvature_OMN",
    "is_totally_geodesic",
    "domain_samples",
    "tilde_frame_fields",
    "frame_trace",
    "VERDICT_TOL",
]


class OmnError(ValueError):
    pass


# Sup-norm residual below which a sampled verdict (minimal, harmonic,
# totally geodesic) holds.
VERDICT_TOL = 1e-6

_SAMPLE_PAD = 0.05  # share of the chart domain's width left out at each rim


def domain_samples(M: ImmersedSubmanifold, n: int, seed: int = 0):
    """Low-discrepancy sample points in the chart domain, shrunk at the rim."""
    lo, hi = M.chart_domain[:, 0], M.chart_domain[:, 1]
    width = hi - lo
    sampler = qmc.Halton(d=M.p, scramble=True, seed=seed)
    pts = sampler.random(n)
    return lo + _SAMPLE_PAD * width + pts * (1.0 - 2.0 * _SAMPLE_PAD) * width


# -- field-pair plumbing --------------------------------------------------------


def _h_endo_field(fd: FramePointData, spec) -> Jet:
    j = ops.as_endo_field(fd, spec)
    m_part = hm_split_mat(j.val, fd.p)[1]
    if np.max(np.abs(m_part)) > 1e-10:
        raise OmnError("vertical field must be block-diagonal (h-type)")
    return j


def _pair_nabla(fd, Xc, A, Yc, B):
    """Connection on field pairs: direction (Xc, A), field (Yc, B).

    chart part: tilde_nabla_X Y + (Q_B(X) + Q_A(Y))/2
    vertical (h) part: -R'(X,Y)/2 + nabla'_X B + [B, A]/2

    Returns the values of both parts. An absent part is None, and a term is
    formed only when all its factors are present.
    """
    chart = np.zeros(fd.p)
    vert = np.zeros((fd.d, fd.d))
    if Xc is not None:
        if Yc is not None:
            chart = chart + ops.vec_tilde_nabla_jet(fd, Xc, Yc).val
            vert = vert - 0.5 * ops.curvature_prime_jet(fd, Xc, Yc).val
        if B is not None:
            chart = chart + 0.5 * ops.q_t_chart_jet(fd, B, Xc).val
            vert = vert + ops.nabla_t_field_jet(fd, B, Xc, "prime").val
    if A is not None:
        if Yc is not None:
            chart = chart + 0.5 * ops.q_t_chart_jet(fd, A, Yc).val
        if B is not None:
            vert = vert + 0.5 * (B.val @ A.val - A.val @ B.val)
    return chart, vert


def nabla_OMN(M: ImmersedSubmanifold, u, case: str, *args) -> LiftedVector:
    """Levi-Civita connection of the subbundle metric.

    case "hh", args (Xf, Yf):  (tilde nabla_X Y)^{h'} - 1/2 bar(R'(X, Y))
    case "hv", args (Xf, T):   1/2 Q_T(X)^{h'} + bar(nabla'_X T)
    case "vh", args (T, Yf):   1/2 Q_T(Y)^{h'}
    case "vv", args (T, Tp):   1/2 bar([T', T])

    Vertical specs must be h-type endo fields.
    """
    fd = M.frame_data(np.asarray(u, dtype=float))
    X, A, Y, B = case_pairs(case, args)
    chart = lambda f: None if f is None else ops.as_chart_field(fd, f)
    endo = lambda T: None if T is None else _h_endo_field(fd, T)
    chart_val, vert = _pair_nabla(fd, chart(X), endo(A), chart(Y), endo(B))
    return horizontal_lift_prime(M, u, chart_val) + lifted(M, u, vertical=vert)


# -- curvature -------------------------------------------------------------------


def _d_x_r_prime(fd, Xc, Yc, Zc):
    """(D_X R')(Y,Z) = nabla'_X R'(Y,Z) - R'(tilde_X Y, Z) - R'(Y, tilde_X Z)."""
    RYZ = ops.curvature_prime_jet(fd, Yc, Zc)
    out = ops.nabla_t_field_jet(fd, RYZ, Xc, "prime")
    out = out - ops.curvature_prime_jet(fd, ops.vec_tilde_nabla_jet(fd, Xc, Yc), Zc)
    out = out - ops.curvature_prime_jet(fd, Yc, ops.vec_tilde_nabla_jet(fd, Xc, Zc))
    return out


def _d_x_q_t(fd, Xc, Tj, Yc):
    """(D_X Q_T)(Y) = tilde_X Q_T(Y) - Q_{nabla'_X T}(Y) - Q_T(tilde_X Y)."""
    QY = ops.q_t_chart_jet(fd, Tj, Yc)
    out = ops.vec_tilde_nabla_jet(fd, Xc, QY)
    dT = ops.nabla_t_field_jet(fd, Tj, Xc, "prime")
    out = out - ops.q_t_chart_jet(fd, dT, Yc)
    out = out - ops.q_t_chart_jet(fd, Tj, ops.vec_tilde_nabla_jet(fd, Xc, Yc))
    return out


def _tilde_curvature_apply(fd, Xc, Yc, Zc):
    """Chart components of tilde-R(X, Y)Z from the deformed-metric curvature."""
    step = jet_einsum("cdab,a->cdb", fd.Rt_chart, Xc)
    step = jet_einsum("cdb,b->cd", step, Yc)
    return jet_einsum("cd,d->c", step, Zc)


def curvature_OMN(M: ImmersedSubmanifold, u, case: str, *args) -> LiftedVector:
    """Curvature tensor of the subbundle, by argument pattern.

    case "hhh": (Xf, Yf, Zf)     R(X^{h'}, Y^{h'}) Z^{h'}
    case "hhv": (Xf, Yf, T)      R(X^{h'}, Y^{h'}) bar T
    case "hvh": (Xf, T, Zf)      R(X^{h'}, bar T) Z^{h'}
    case "hvv": (Xf, T, Tp)      R(X^{h'}, bar T) bar T'
    case "vvh": (T, Tp, Zf)      R(bar T, bar T') Z^{h'}
    case "vvv": (T, Tp, Tpp)     R(bar T, bar T') bar T''
    """
    fd = M.frame_data(np.asarray(u, dtype=float))
    if case == "hhh":
        Xf, Yf, Zf = args
        Xc, Yc, Zc = (ops.as_chart_field(fd, f) for f in (Xf, Yf, Zf))
        chart = _tilde_curvature_apply(fd, Xc, Yc, Zc)
        q = (
            ops.q_t_chart_jet(fd, ops.curvature_prime_jet(fd, Yc, Zc), Xc)
            - ops.q_t_chart_jet(fd, ops.curvature_prime_jet(fd, Xc, Zc), Yc)
            - 2.0 * ops.q_t_chart_jet(fd, ops.curvature_prime_jet(fd, Xc, Yc), Zc)
        )
        chart = chart - 0.25 * q
        vert = -0.5 * (_d_x_r_prime(fd, Xc, Yc, Zc) - _d_x_r_prime(fd, Yc, Xc, Zc))
        return horizontal_lift_prime(M, u, chart.val) + lifted(M, u, vertical=vert.val)
    if case == "hhv":
        Xf, Yf, T = args
        Xc, Yc = ops.as_chart_field(fd, Xf), ops.as_chart_field(fd, Yf)
        Tj = _h_endo_field(fd, T)
        chart = 0.5 * (_d_x_q_t(fd, Xc, Tj, Yc) - _d_x_q_t(fd, Yc, Tj, Xc))
        RXY = ops.curvature_prime_jet(fd, Xc, Yc)
        vert = 0.5 * ops.commutator_jet(RXY, Tj)
        QTX = ops.q_t_chart_jet(fd, Tj, Xc)
        QTY = ops.q_t_chart_jet(fd, Tj, Yc)
        vert = vert - 0.25 * (
            ops.curvature_prime_jet(fd, Xc, QTY) - ops.curvature_prime_jet(fd, Yc, QTX)
        )
        return horizontal_lift_prime(M, u, chart.val) + lifted(M, u, vertical=vert.val)
    if case == "hvh":
        Xf, T, Zf = args
        Xc, Zc = ops.as_chart_field(fd, Xf), ops.as_chart_field(fd, Zf)
        Tj = _h_endo_field(fd, T)
        chart = 0.5 * _d_x_q_t(fd, Xc, Tj, Zc)
        QTZ = ops.q_t_chart_jet(fd, Tj, Zc)
        RXZ = ops.curvature_prime_jet(fd, Xc, Zc)
        comm = ops.commutator_jet(RXZ, Tj)
        vert = -0.25 * (ops.curvature_prime_jet(fd, Xc, QTZ) - comm)
        return horizontal_lift_prime(M, u, chart.val) + lifted(M, u, vertical=vert.val)
    if case == "hvv":
        Xf, T, Tp = args
        Xc = ops.as_chart_field(fd, Xf)
        Tj, Tpj = _h_endo_field(fd, T), _h_endo_field(fd, Tp)
        commTT = ops.commutator_jet(Tj, Tpj)
        chart = -0.25 * (
            ops.q_t_chart_jet(fd, commTT, Xc)
            + ops.q_t_chart_jet(fd, Tj, ops.q_t_chart_jet(fd, Tpj, Xc))
        )
        return horizontal_lift_prime(M, u, chart.val)
    if case == "vvh":
        T, Tp, Zf = args
        Zc = ops.as_chart_field(fd, Zf)
        Tj, Tpj = _h_endo_field(fd, T), _h_endo_field(fd, Tp)
        commTT = ops.commutator_jet(Tj, Tpj)
        chart = 0.25 * (
            ops.q_t_chart_jet(fd, Tj, ops.q_t_chart_jet(fd, Tpj, Zc))
            - ops.q_t_chart_jet(fd, Tpj, ops.q_t_chart_jet(fd, Tj, Zc))
        ) + 0.5 * ops.q_t_chart_jet(fd, commTT, Zc)
        return horizontal_lift_prime(M, u, chart.val)
    if case == "vvv":
        T, Tp, Tpp = args
        A = _h_endo_field(fd, T).val
        B = _h_endo_field(fd, Tp).val
        C = _h_endo_field(fd, Tpp).val
        comm = A @ B - B @ A
        nested = comm @ C - C @ comm
        return lifted(M, u, vertical=-0.25 * nested)
    raise OmnError(f"unknown case {case!r}")


# -- sectional curvature ----------------------------------------------------------


@dataclass(frozen=True)
class OmnPlane:
    """g_SM-orthonormal 2-plane spanned by primed lifts and/or h-verticals."""

    sub: ImmersedSubmanifold
    u: np.ndarray
    kind: str  # "hh", "hv", "vv"
    xc: np.ndarray | None
    yc: np.ndarray | None
    T: np.ndarray | None
    Tp: np.ndarray | None
    v1: LiftedVector
    v2: LiftedVector


def _gtilde(fd, a, b) -> float:
    return float(a @ fd.gt_chart.val @ b)


def _norm(sq: float, what: str) -> float:
    """The norm sqrt(sq) of a plane direction; OmnError(what) when it is
    below 1e-12 or not a number."""
    n = float(np.sqrt(max(sq, 0.0)))
    if not n >= 1e-12:
        raise OmnError(what)
    return n


def omn_plane(M: ImmersedSubmanifold, u, spec1, spec2) -> OmnPlane:
    """Build a sectional plane from ("hprime", chart coeffs) / ("vertical", mat)
    specs, orthonormalizing with respect to the Sasaki-Mok metric."""
    u = np.asarray(u, dtype=float)
    fd = M.frame_data(u)
    kinds = (spec1[0], spec2[0])
    if kinds == ("vertical", "hprime"):
        return omn_plane(M, u, spec2, spec1)
    if kinds == ("hprime", "hprime"):
        x = np.asarray(spec1[1], dtype=float)
        y = np.asarray(spec2[1], dtype=float)
        x = x / _norm(_gtilde(fd, x, x), "horizontal direction vanishes")
        y = y - _gtilde(fd, x, y) * x
        y = y / _norm(_gtilde(fd, y, y), "plane vectors are linearly dependent")
        v1 = horizontal_lift_prime(M, u, x)
        v2 = horizontal_lift_prime(M, u, y)
        plane = OmnPlane(M, u, "hh", x, y, None, None, v1, v2)
    elif kinds == ("hprime", "vertical"):
        x = np.asarray(spec1[1], dtype=float)
        x = x / _norm(_gtilde(fd, x, x), "horizontal direction vanishes")
        T = _h_endo_field(fd, np.asarray(spec2[1], dtype=float)).val
        T = T / _norm(skew_inner(T, T), "vertical direction vanishes")
        v1 = horizontal_lift_prime(M, u, x)
        v2 = lifted(M, u, vertical=T)
        plane = OmnPlane(M, u, "hv", x, None, T, None, v1, v2)
    elif kinds == ("vertical", "vertical"):
        T = _h_endo_field(fd, np.asarray(spec1[1], dtype=float)).val
        Tp = _h_endo_field(fd, np.asarray(spec2[1], dtype=float)).val
        T = T / _norm(skew_inner(T, T), "vertical direction vanishes")
        Tp = Tp - skew_inner(T, Tp) * T
        Tp = Tp / _norm(skew_inner(Tp, Tp), "plane vectors are linearly dependent")
        v1 = lifted(M, u, vertical=T)
        v2 = lifted(M, u, vertical=Tp)
        plane = OmnPlane(M, u, "vv", None, None, T, Tp, v1, v2)
    else:
        raise OmnError("plane specs must be ('hprime', coeffs) or ('vertical', matrix)")
    for a, b, want in ((plane.v1, plane.v1, 1.0), (plane.v2, plane.v2, 1.0), (plane.v1, plane.v2, 0.0)):
        if not abs(sasaki_mok_inner(a, b) - want) <= 1e-10:
            raise OmnError("plane failed to orthonormalize")
    return plane


def sectional_OMN(plane: OmnPlane) -> float:
    """Sectional curvature of the plane by the closed formulas."""
    M, u = plane.sub, plane.u
    fd = M.frame_data(u)
    if plane.kind == "hh":
        RYYX = _tilde_curvature_apply(fd, plane.xc, plane.yc, plane.yc).val
        kt = float(plane.xc @ fd.gt_chart.val @ RYYX)
        Rp = ops.curvature_prime_jet(fd, plane.xc, plane.yc).val
        return kt - 0.75 * skew_inner(Rp, Rp)
    if plane.kind == "hv":
        q = ops.q_t_chart_jet(fd, fd.uspace.constant(plane.T), plane.xc).val
        return 0.25 * float(q @ fd.gt_chart.val @ q)
    comm = plane.T @ plane.Tp - plane.Tp @ plane.T
    return 0.125 * skew_inner(comm, comm)


# -- second fundamental form --------------------------------------------------------


def _pi_hh_pieces(fd, Xc, Yc):
    """The bilinear pieces of Pi(X^{h'}, Y^{h'}): nabla_X Y (frame, d),
    rsum = R_{S_X} Y + R_{S_Y} X (frame, d), V = nabla'_X Y + nabla'_Y X
    (chart) and m = nabla'_X S_Y + nabla'_Y S_X (frame matrix)."""
    xF = ops.full_frame_field(fd, Xc)
    yF = ops.full_frame_field(fd, Yc)
    SX = ops.s_field_matrix(fd, Xc)
    SY = ops.s_field_matrix(fd, Yc)
    nab = ops.ambient_deriv_frame(fd, Xc, yF)
    rsum = jet_einsum("ij,j->i", ops.rt_matrix_jet(fd, SX), yF) + jet_einsum(
        "ij,j->i", ops.rt_matrix_jet(fd, SY), xF
    )
    V = ops.vec_nabla_prime_jet(fd, Xc, Yc) + ops.vec_nabla_prime_jet(fd, Yc, Xc)
    m_endo = ops.nabla_t_field_jet(fd, SY, Xc, "prime") + ops.nabla_t_field_jet(
        fd, SX, Yc, "prime"
    )
    return nab, rsum, V, m_endo


def _pi_hh_assemble(fd, nab, rsum, V, m_endo):
    """Horizontal (frame, d) and vertical (d, d) jets of Pi from its pieces,
    linearly: Pi = (nab^perp + (rsum + V + Z)/2)^h + 1/2 bar(m + S_Z), with
    Z = P^{-1}(S_m - (V + rsum)^top).
    """
    p, d = fd.p, fd.d
    nmask = np.concatenate([np.zeros(p), np.ones(d - p)])
    rhs = ops.s_tm_tangent_jet(fd, m_endo) - ops.frame_of_chart(fd, V) - rsum[:p]
    Zc = jet_einsum("aA,A->a", fd.C, ops.solve_P(fd, rhs))
    horiz = nab * nmask + 0.5 * (rsum + ops.full_frame_field(fd, V + Zc))
    vert = 0.5 * (m_endo + ops.s_field_matrix(fd, Zc))
    return horiz, vert


def _pi_hv_jets(fd, Xc, Tj):
    """Pi(X^{h'}, bar T) = 1/2 (R_T(X) - Q_T(X))^h
    + 1/2 bar((nabla_X T)_m - S_{Q_T(X)})."""
    xF = ops.full_frame_field(fd, Xc)
    RTX = jet_einsum("ij,j->i", ops.rt_matrix_jet(fd, Tj), xF)
    q = ops.q_t_chart_jet(fd, Tj, Xc)
    horiz = 0.5 * (RTX - ops.full_frame_field(fd, q))
    dT_m = ops.nabla_t_field_jet(fd, Tj, Xc, "ambient") * fd.mmask
    vert = 0.5 * (dT_m - ops.s_field_matrix(fd, q))
    return horiz, vert


def second_fundamental_OMN(M: ImmersedSubmanifold, u, case: str, *args) -> LiftedVector:
    """Second fundamental form of the subbundle in the ambient frame bundle.

    case "hh": (Xf, Yf); case "hv": (Xf, T) with T h-type; case "vv": (T, Tp) -> 0.
    """
    fd = M.frame_data(np.asarray(u, dtype=float))
    if case == "hh":
        Xc = ops.as_chart_field(fd, args[0])
        Yc = ops.as_chart_field(fd, args[1])
        horiz, vert = _pi_hh_assemble(fd, *_pi_hh_pieces(fd, Xc, Yc))
    elif case == "hv":
        Xc = ops.as_chart_field(fd, args[0])
        Tj = _h_endo_field(fd, args[1])
        horiz, vert = _pi_hv_jets(fd, Xc, Tj)
    elif case == "vv":
        return lifted(M, u)
    else:
        raise OmnError(f"unknown case {case!r}")
    return lifted(
        M,
        u,
        horizontal=fd.ambient_components(horiz.val),
        vertical=0.5 * (vert.val - vert.val.T),
    )


# -- mean curvature and verdicts -------------------------------------------------


@dataclass(frozen=True)
class MeanCurvatureReport:
    """Mean curvature of the subbundle at one frame, resolved against the
    normal generators: pairings with the normal horizontal lifts and with the
    corrected off-diagonal verticals."""

    u: np.ndarray
    H: LiftedVector
    z_pairings: np.ndarray  # (n,) g_SM(H, e_alpha^h)
    t_pairings: np.ndarray  # (p, n) g_SM(H, bar(T_{A alpha}) + (S_.)^h)
    norm: float


def tilde_frame_fields(fd) -> list[Jet]:
    """Chart-coefficient jets of the deformed-metric orthonormal frame."""
    return [fd.Wchart[:, A] for A in range(fd.p)]


def frame_trace(fd: FramePointData, frames=None) -> tuple[Jet, Jet, Jet, Jet, Jet]:
    """The five sums over a deformed-orthonormal frame e (by default
    tilde_frame_fields, else the given chart-coefficient jets) through which
    the main theorem's proof writes both the mean curvature of the subbundle
    and the tension of the plane map:

    (sum nabla_e e, sum R_{S_e}(e)) in frame components (d,),
    (sum nabla'_e e, sum tilde_e e) in chart coefficients (p,),
    sum nabla'_e S_e as a frame matrix (d, d).
    """
    terms = []
    for Ec in tilde_frame_fields(fd) if frames is None else frames:
        EF = ops.full_frame_field(fd, Ec)
        SE = ops.s_field_matrix(fd, Ec)
        terms.append(
            (
                ops.ambient_deriv_frame(fd, Ec, EF),
                jet_einsum("ij,j->i", ops.rt_matrix_jet(fd, SE), EF),
                ops.vec_nabla_prime_jet(fd, Ec, Ec),
                ops.vec_tilde_nabla_jet(fd, Ec, Ec),
                ops.nabla_t_field_jet(fd, SE, Ec, "prime"),
            )
        )
    return tuple(sum(col[1:], col[0]) for col in zip(*terms))


def mean_curvature_OMN(M: ImmersedSubmanifold, u) -> MeanCurvatureReport:
    """Trace of the second fundamental form over a deformed-orthonormal
    horizontal frame (vertical directions contribute nothing).

    Pi is linear in its pieces, and the pieces of Pi(e, e) are nabla_e e,
    2 R_{S_e}(e), 2 nabla'_e e and 2 nabla'_e S_e, so H is Pi assembled once
    from the frame trace.
    """
    u = np.asarray(u, dtype=float)
    fd = M.frame_data(u)
    p, d = fd.p, fd.d
    amb, rterm, prime, _, dS = frame_trace(fd)
    horiz, vert = _pi_hh_assemble(fd, amb, 2.0 * rterm, 2.0 * prime, 2.0 * dS)
    hval, vval = horiz.val, 0.5 * (vert.val - vert.val.T)
    H = lifted(M, u, horizontal=fd.ambient_components(hval), vertical=vval)
    z = hval[p:].copy()
    t = np.zeros((p, d - p))
    for A in range(p):
        for j, al in enumerate(range(p, d)):
            Tm = ops.basis_T(d, A, al)
            svec = ops.s_tm_tangent_jet(fd, Tm).val
            t[A, j] = skew_inner(vval, Tm) + float(hval[:p] @ svec)
    return MeanCurvatureReport(u, H, z, t, H.norm())


@dataclass(frozen=True)
class TotallyGeodesicReport:
    totally_geodesic: bool
    max_pi_residual: float
    base_pi_residual: float
    r_condition_residual: float
    samples: int
    tol: float


def is_totally_geodesic(M: ImmersedSubmanifold, samples: int = 50, seed: int = 0) -> TotallyGeodesicReport:
    """Sampled norm of the subbundle second fundamental form, together with
    the base criterion: M totally geodesic and tangential (R(U,V)W) = 0 for
    normal U, V, W."""
    worst = 0.0
    base = 0.0
    rcond = 0.0
    for u in domain_samples(M, samples, seed=seed):
        fd = M.frame_data(u)
        p, d = fd.p, fd.d
        # base second fundamental form of M: S-matrices carry it all
        base = max(base, float(np.max(np.abs(fd.Smats.val))))
        frames = tilde_frame_fields(fd)
        for A in range(p):
            for B in range(A, p):
                pi = second_fundamental_OMN(M, u, "hh", frames[A], frames[B])
                worst = max(worst, pi.norm())
        for A in range(p):
            for i in range(d):
                for j in range(i + 1, d):
                    if (i < p) != (j < p):
                        continue
                    pi = second_fundamental_OMN(M, u, "hv", frames[A], ops.basis_T(d, i, j))
                    worst = max(worst, pi.norm())
        rcond = max(rcond, float(np.max(np.abs(fd.Rfr.val[:p, p:, p:, p:]))))
    return TotallyGeodesicReport(worst < VERDICT_TOL, worst, base, rcond, samples, VERDICT_TOL)
