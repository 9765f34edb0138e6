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
pieces bilinear in X and Y. The mean curvature H is that assembly applied
once to the sums over a deformed-orthonormal frame given by frame_trace, which
the plane map's tension (gauss_map) reads too: mean_curvature_OMN(fd, trace)
takes that trace as an argument and is the one route to H.

Every function here takes the frame fd (a FramePointData) at which it
evaluates, of one point or of a batch of points, and passes the batch axes
through: fields and planes are given per point or led by the batch axes,
lifted vectors and planes hold their frame and one vector per point, and
sectional curvatures and norms are arrays of the frame's batch shape
fd.batch, a numpy scalar at one point (the batch convention of
submanifold). A sampled sweep (is_totally_geodesic) builds one frame
holding all its points, and frame_trace traces every point of it at once.

Directions are a batch axis too: a stack of them is one call, its axes
leading ahead of the batch axes in every field, direction and plane spec
of the call, while the frame's attributes broadcast to them; the values
then lead with the stack axes, a stack of k norms at n points being (k, n).
is_totally_geodesic makes one call for its hh pairs and one for its hv
pairs, frame_trace stacks its p frame fields, and the formulas that apply
one operator to swapped or repeated arguments (the pieces of Pi, the Q and
D_X R' terms of curvature_OMN) stack those arguments. A refusal names the
first point where it fails, in any entry of a stack, and OmnError's where
mask has the stack and batch shape. VERDICT_TOL is the one tolerance of the
sampled verdicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import operators as ops
from .ambient import is_int
from .frame_bundle import (
    LiftedVector,
    case_pairs,
    horizontal_lift_prime,
    lifted,
    sasaki_mok_inner,
)
from .jets import Jet, jet_einsum, jstack
from .operators import hm_split_mat, skew_inner
from .submanifold import FramePointData, ImmersedSubmanifold

__all__ = [
    "OmnError",
    "OmnPlane",
    "omn_plane",
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
    """A refused geometric computation. where, when given, is the mask over
    the batch of the points at which it failed, led by the stack axes of a
    stacked call."""

    def __init__(self, message: str, where=None):
        super().__init__(message)
        self.where = where


# Sup-norm residual below which a sampled verdict (minimal, harmonic,
# totally geodesic) holds.
VERDICT_TOL = 1e-6

_SAMPLE_PAD = 0.05  # share of the chart domain's width left out at each rim


def _first_primes(k: int) -> list[int]:
    """The first k primes: the Halton bases of k coordinates."""
    primes = []
    c = 2
    while len(primes) < k:
        if all(c % q for q in primes):
            primes.append(c)
        c += 1
    return primes


@lru_cache(maxsize=256)
def _unit_draw(p: int, n: int, seed: int) -> np.ndarray:
    """The scrambled Halton draw of n points in the unit p-cube for seed,
    read-only: it is drawn once and shared by every call with these
    arguments, which scales a fresh copy.

    The scheme is Owen's randomized Halton (A. B. Owen, "A randomized
    Halton algorithm in R", arXiv:1706.02808, 2017), as scipy.stats.qmc
    draws it: coordinate k is the van der Corput sequence in base b, the
    k-th prime, whose j-th digit goes through the j-th of ceil(54/log2 b) - 1
    random permutations of range(b), shuffled in turn from
    np.random.default_rng(seed), prime by prime. The draw equals
    qmc.Halton(d=p, scramble=True, seed=seed).random(n) byte for byte,
    which tests/test_omn_geometry.py checks over a grid of p, n and seed."""
    rng = np.random.default_rng(seed)
    out = np.zeros((p, n))
    for k, b in enumerate(_first_primes(p)):
        perms = np.repeat(np.arange(b)[None], math.ceil(54 / math.log2(b)) - 1, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        q = np.arange(n)
        b2r = 1.0 / b
        for perm in perms:
            out[k] += perm[q % b] * b2r
            q //= b
            b2r /= b
    pts = out.T
    pts.flags.writeable = False
    return pts


def domain_samples(M: ImmersedSubmanifold, n: int, seed: int = 0):
    """Low-discrepancy sample points in the chart domain, shrunk at the rim,
    as a fresh array: Owen's scrambled Halton draw in the unit cube (see
    _unit_draw; byte-equal to scipy.stats.qmc.Halton's, as a test checks),
    scaled to the domain.

    n must be an integer >= 1: a sweep over no points would report its
    verdict on no evidence. seed must be an integer >= 0. The unit-cube
    draw of each (p, n, seed) is made once; submanifolds of one dimension
    share it and scale it to their own domains."""
    if not is_int(n) or n < 1:
        raise OmnError(f"sample count must be an integer >= 1, got {n!r}")
    if not is_int(seed) or seed < 0:
        raise OmnError(f"seed must be an integer >= 0, got {seed!r}")
    lo, hi = M.chart_domain[:, 0], M.chart_domain[:, 1]
    width = hi - lo
    pts = _unit_draw(M.p, int(n), int(seed))
    return lo + _SAMPLE_PAD * width + pts * (1.0 - 2.0 * _SAMPLE_PAD) * width


# -- field-pair plumbing --------------------------------------------------------


def _h_endo_field(fd: FramePointData, spec, order: int) -> Jet:
    """An h-type endo field spec as a frame-matrix jet of the order the caller
    differentiates it to; OmnError where it has an m-part."""
    j = ops.as_endo_field(fd, spec, order)
    mixed = np.max(np.abs(hm_split_mat(j.val, fd.p)[1]), axis=(-2, -1)) > 1e-10
    if mixed.any():
        raise OmnError(f"vertical field must be block-diagonal (h-type), not at u = {fd.point_where(mixed)}")
    return j


def _pair_nabla(fd, Xc, A, Yc, B):
    """Connection on field pairs: direction (Xc, A), field (Yc, B).

    chart part: tilde_nabla_X Y + (Q_B(X) + Q_A(Y))/2
    vertical (h) part: -R'(X,Y)/2 + nabla'_X B + [B, A]/2

    Returns the values of both parts. An absent part is None, and a term is
    formed only when all its factors are present; R'(X, Y), which
    differentiates neither, is formed at order 0.
    """
    chart = np.zeros(fd.p)
    vert = np.zeros((fd.d, fd.d))
    if Xc is not None:
        if Yc is not None:
            chart = chart + ops.vec_tilde_nabla_jet(fd, Xc, Yc).val
            vert = vert - 0.5 * ops.curvature_prime_jet(fd, Xc.cut(0), Yc.cut(0)).val
        if B is not None:
            chart = chart + 0.5 * ops.q_t_chart_jet(fd, B, Xc).val
            vert = vert + ops.nabla_t_field_jet(fd, B, Xc, "prime").val
    if A is not None:
        if Yc is not None:
            chart = chart + 0.5 * ops.q_t_chart_jet(fd, A, Yc).val
        if B is not None:
            vert = vert + 0.5 * (B.val @ A.val - A.val @ B.val)
    return chart, vert


def nabla_OMN(fd: FramePointData, case: str, *args) -> LiftedVector:
    """Levi-Civita connection of the subbundle metric.

    case "hh", args (Xf, Yf):  (tilde nabla_X Y)^{h'} - 1/2 bar(R'(X, Y))
    case "hv", args (Xf, T):   1/2 Q_T(X)^{h'} + bar(nabla'_X T)
    case "vh", args (T, Yf):   1/2 Q_T(Y)^{h'}
    case "vv", args (T, Tp):   1/2 bar([T', T])

    Vertical specs must be h-type endo fields. The fields enter at order 1,
    the one derivative the connection takes of them.
    """
    X, A, Y, B = case_pairs(case, args)
    chart = lambda f: None if f is None else ops.as_chart_field(fd, f, 1)
    endo = lambda T: None if T is None else _h_endo_field(fd, T, 1)
    chart_val, vert = _pair_nabla(fd, chart(X), endo(A), chart(Y), endo(B))
    return horizontal_lift_prime(fd, chart_val) + lifted(fd, vertical=vert)


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
    step = jet_einsum("...cdab,...a->...cdb", fd.Rt_chart, Xc)
    step = jet_einsum("...cdb,...b->...cd", step, Yc)
    return jet_einsum("...cd,...d->...c", step, Zc)


def curvature_OMN(fd: FramePointData, case: str, *args) -> LiftedVector:
    """Curvature tensor of the subbundle, by argument pattern.

    case "hhh": (Xf, Yf, Zf)     R(X^{h'}, Y^{h'}) Z^{h'}
    case "hhv": (Xf, Yf, T)      R(X^{h'}, Y^{h'}) bar T
    case "hvh": (Xf, T, Zf)      R(X^{h'}, bar T) Z^{h'}
    case "hvv": (Xf, T, Tp)      R(X^{h'}, bar T) bar T'
    case "vvh": (T, Tp, Zf)      R(bar T, bar T') Z^{h'}
    case "vvv": (T, Tp, Tpp)     R(bar T, bar T') bar T''

    The fields enter at the order each case differentiates them to, tangent
    fields and endomorphism fields each: Q_T(Y) differentiates T once and Y
    not at all, so a case that differentiates Q_T(Y) (hhv, hvh) takes its
    tangent fields at order 1 and its T at order 2, one that only applies Q
    (hvv, vvh) takes them at 0 and 1, hhh takes its tangent fields at 1 and
    vvv takes everything at 0. A term of the vertical part that is read at
    its values only is formed at order 0.
    """
    depth = {"hhh": (1, 0), "hhv": (1, 2), "hvh": (1, 2), "hvv": (0, 1), "vvh": (0, 1), "vvv": (0, 0)}
    if case not in depth:
        raise OmnError(f"unknown case {case!r}")
    vec = lambda f: ops.as_chart_field(fd, f, depth[case][0])
    endo = lambda T: _h_endo_field(fd, T, depth[case][1])
    if len(args) != 3:
        raise OmnError(f"case {case!r} takes 3 arguments, got {len(args)}")
    if case == "hhh":
        Xf, Yf, Zf = args
        Xc, Yc, Zc = (vec(f) for f in (Xf, Yf, Zf))
        chart = _tilde_curvature_apply(fd, Xc, Yc, Zc)
        # Q_{R'(Y,Z)} X, Q_{R'(X,Z)} Y and Q_{R'(X,Y)} Z, one stack
        Rp = ops.curvature_prime_jet(fd, jstack([Yc, Xc, Xc], axis=0), jstack([Zc, Zc, Yc], axis=0))
        q = ops.q_t_chart_jet(fd, Rp, jstack([Xc, Yc, Zc], axis=0))
        chart = chart - 0.25 * (q[0] - q[1] - 2.0 * q[2])
        # (D_X R')(Y, Z) and (D_Y R')(X, Z), one stack
        DR = _d_x_r_prime(fd, jstack([Xc, Yc], axis=0), jstack([Yc, Xc], axis=0), jstack([Zc, Zc], axis=0))
        vert = -0.5 * (DR[0] - DR[1])
        return horizontal_lift_prime(fd, chart.val) + lifted(fd, vertical=vert.val)
    if case == "hhv":
        Xf, Yf, T = args
        Xc, Yc = vec(Xf), vec(Yf)
        Tj = endo(T)
        chart = 0.5 * (_d_x_q_t(fd, Xc, Tj, Yc) - _d_x_q_t(fd, Yc, Tj, Xc))
        X0, Y0 = Xc.cut(0), Yc.cut(0)
        RXY = ops.curvature_prime_jet(fd, X0, Y0)
        vert = 0.5 * ops.commutator_jet(RXY, Tj.cut(0))
        QTX = ops.q_t_chart_jet(fd, Tj, X0)
        QTY = ops.q_t_chart_jet(fd, Tj, Y0)
        vert = vert - 0.25 * (
            ops.curvature_prime_jet(fd, X0, QTY) - ops.curvature_prime_jet(fd, Y0, QTX)
        )
        return horizontal_lift_prime(fd, chart.val) + lifted(fd, vertical=vert.val)
    if case == "hvh":
        Xf, T, Zf = args
        Xc, Zc = vec(Xf), vec(Zf)
        Tj = endo(T)
        chart = 0.5 * _d_x_q_t(fd, Xc, Tj, Zc)
        X0, Z0 = Xc.cut(0), Zc.cut(0)
        QTZ = ops.q_t_chart_jet(fd, Tj, Z0)
        RXZ = ops.curvature_prime_jet(fd, X0, Z0)
        comm = ops.commutator_jet(RXZ, Tj.cut(0))
        vert = -0.25 * (ops.curvature_prime_jet(fd, X0, QTZ) - comm)
        return horizontal_lift_prime(fd, chart.val) + lifted(fd, vertical=vert.val)
    if case == "hvv":
        Xf, T, Tp = args
        Xc = vec(Xf)
        Tj, Tpj = endo(T), endo(Tp)
        commTT = ops.commutator_jet(Tj, Tpj)
        # Q_{[T,T']} X and Q_{T'} X, one stack
        q = ops.q_t_chart_jet(fd, jstack([commTT, Tpj], axis=0), jstack([Xc, Xc], axis=0))
        chart = -0.25 * (q[0] + ops.q_t_chart_jet(fd, Tj, q[1]))
        return horizontal_lift_prime(fd, chart.val)
    if case == "vvh":
        T, Tp, Zf = args
        Zc = vec(Zf)
        Tj, Tpj = endo(T), endo(Tp)
        commTT = ops.commutator_jet(Tj, Tpj)
        chart = 0.25 * (
            ops.q_t_chart_jet(fd, Tj, ops.q_t_chart_jet(fd, Tpj, Zc))
            - ops.q_t_chart_jet(fd, Tpj, ops.q_t_chart_jet(fd, Tj, Zc))
        ) + 0.5 * ops.q_t_chart_jet(fd, commTT, Zc)
        return horizontal_lift_prime(fd, chart.val)
    T, Tp, Tpp = args  # case "vvv"
    A, B, C = (endo(S).val for S in (T, Tp, Tpp))
    comm = A @ B - B @ A
    nested = comm @ C - C @ comm
    return lifted(fd, vertical=-0.25 * nested)


# -- sectional curvature ----------------------------------------------------------


@dataclass(frozen=True)
class OmnPlane:
    """g_SM-orthonormal 2-plane spanned by primed lifts and/or h-verticals at
    the frame fd, one plane at each point of a batch frame (the directions
    then lead with the batch axes)."""

    fd: FramePointData
    kind: str  # "hh", "hv", "vv"
    xc: np.ndarray | None
    yc: np.ndarray | None
    T: np.ndarray | None
    Tp: np.ndarray | None
    v1: LiftedVector
    v2: LiftedVector


def _gtilde(fd, a, b):
    """The deformed metric g~(a, b) of chart coefficients, per point."""
    return np.einsum("...a,...ab,...b->...", a, fd.gt_chart.val, b)


def _unit(fd, x, sq, what: str):
    """x divided by its norm sqrt(sq), per point; OmnError(what), with the
    points where it fails, when a norm is below 1e-12 or not a number."""
    n = np.sqrt(np.maximum(sq, 0.0))
    bad = ~(n >= 1e-12)
    if bad.any():
        raise OmnError(f"{what} at u = {fd.point_where(bad)}", where=bad)
    return x / np.reshape(n, np.shape(n) + (1,) * (np.ndim(x) - np.ndim(n)))


def _times(c, x):
    """The per-point scalars c times the per-point vectors or matrices x."""
    return np.reshape(c, np.shape(c) + (1,) * (np.ndim(x) - np.ndim(c))) * x


def omn_plane(fd: FramePointData, spec1, spec2) -> OmnPlane:
    """Build a sectional plane from ("hprime", chart coeffs) / ("vertical", mat)
    specs, orthonormalizing with respect to the Sasaki-Mok metric.

    On the frame of a batch the specs give one direction per point (or one
    for every point); a stack of planes at each point is one call, its
    directions leading with the stack axes ahead of the batch axes (a spec
    without them is the same in every plane of the stack). A direction of
    any other shape is refused. A plane that cannot be built at some points
    raises OmnError with those points as its where mask, of the stack and
    batch shape."""
    kinds = (spec1[0], spec2[0])
    if kinds == ("vertical", "hprime"):
        return omn_plane(fd, spec2, spec1)
    per_point = {"hprime": (fd.p,), "vertical": (fd.d, fd.d)}
    if not set(kinds) <= set(per_point):
        raise OmnError("plane specs must be ('hprime', coeffs) or ('vertical', matrix)")
    dirs = [np.asarray(spec[1], dtype=float) for spec in (spec1, spec2)]
    stacks = [fd.stack_of(a.shape, per_point[k]) for a, k in zip(dirs, kinds)]
    for a, k, stack in zip(dirs, kinds, stacks):
        if stack is None:
            raise OmnError(f"{k} plane direction must have shape {fd.shape_rule(per_point[k])}, got {a.shape}")
    # both directions carry the stack axes, ahead of the batch axes
    stack = np.broadcast_shapes(*stacks)
    dirs = [np.broadcast_to(a, stack + fd.batch + per_point[k]) for a, k in zip(dirs, kinds)]
    if kinds == ("hprime", "hprime"):
        x, y = dirs
        x = _unit(fd, x, _gtilde(fd, x, x), "horizontal direction vanishes")
        y = y - _times(_gtilde(fd, x, y), x)
        y = _unit(fd, y, _gtilde(fd, y, y), "plane vectors are linearly dependent")
        v1 = horizontal_lift_prime(fd, x)
        v2 = horizontal_lift_prime(fd, y)
        plane = OmnPlane(fd, "hh", x, y, None, None, v1, v2)
    elif kinds == ("hprime", "vertical"):
        x = _unit(fd, dirs[0], _gtilde(fd, dirs[0], dirs[0]), "horizontal direction vanishes")
        T = _h_endo_field(fd, dirs[1], 0).val
        T = _unit(fd, T, skew_inner(T, T), "vertical direction vanishes")
        v1 = horizontal_lift_prime(fd, x)
        v2 = lifted(fd, vertical=T)
        plane = OmnPlane(fd, "hv", x, None, T, None, v1, v2)
    else:
        T = _h_endo_field(fd, dirs[0], 0).val
        Tp = _h_endo_field(fd, dirs[1], 0).val
        T = _unit(fd, T, skew_inner(T, T), "vertical direction vanishes")
        Tp = Tp - _times(skew_inner(T, Tp), T)
        Tp = _unit(fd, Tp, skew_inner(Tp, Tp), "plane vectors are linearly dependent")
        v1 = lifted(fd, vertical=T)
        v2 = lifted(fd, vertical=Tp)
        plane = OmnPlane(fd, "vv", None, None, T, Tp, v1, v2)
    bad = np.zeros(stack + fd.batch, dtype=bool)
    for a, b, want in ((plane.v1, plane.v1, 1.0), (plane.v2, plane.v2, 1.0), (plane.v1, plane.v2, 0.0)):
        bad |= ~(np.abs(sasaki_mok_inner(a, b) - want) <= 1e-10)
    if bad.any():
        raise OmnError(f"plane failed to orthonormalize at u = {fd.point_where(bad)}", where=bad)
    return plane


def sectional_OMN(plane: OmnPlane):
    """Sectional curvature of the plane by the closed formulas, of the
    frame's batch shape. R' of an hh plane takes no derivative
    of its directions, so they enter at order 0; Q_T of an hv plane takes
    one of T, which enters at order 1."""
    fd = plane.fd
    if plane.kind == "hh":
        RYYX = _tilde_curvature_apply(fd, plane.xc, plane.yc, plane.yc).val
        kt = np.einsum("...a,...ab,...b->...", plane.xc, fd.gt_chart.val, RYYX)
        xc, yc = (ops.as_chart_field(fd, c, 0) for c in (plane.xc, plane.yc))
        Rp = ops.curvature_prime_jet(fd, xc, yc).val
        return kt - 0.75 * skew_inner(Rp, Rp)
    if plane.kind == "hv":
        q = ops.q_t_chart_jet(fd, ops.as_endo_field(fd, plane.T, 1), plane.xc).val
        return 0.25 * _gtilde(fd, q, q)
    comm = plane.T @ plane.Tp - plane.Tp @ plane.T
    return 0.125 * skew_inner(comm, comm)


# -- second fundamental form --------------------------------------------------------


def _pi_hh_pieces(fd, Xc, Yc):
    """The bilinear pieces of Pi(X^{h'}, Y^{h'}): nabla_X Y (frame, d),
    rsum = R_{S_X} Y + R_{S_Y} X (frame, d), V = nabla'_X Y + nabla'_Y X
    (chart) and m = nabla'_X S_Y + nabla'_Y S_X (frame matrix)."""
    # each piece is a term and its swap (X and Y exchanged): one call on the
    # stack (X, Y) against (Y, X); every piece is a value, and rsum, which
    # differentiates nothing, is formed at order 0
    XY = jstack([Xc, Yc], axis=0)
    swap = [1, 0]
    F = ops.full_frame_field(fd, XY)
    S = ops.s_field_matrix(fd, XY)
    nab = ops.ambient_deriv_frame(fd, Xc, F[1])
    r = jet_einsum("...ij,...j->...i", ops.rt_matrix_jet(fd, S.cut(0)), F.cut(0)[swap])
    V = ops.vec_nabla_prime_jet(fd, XY, XY[swap])
    m = ops.nabla_t_field_jet(fd, S[swap], XY, "prime")
    return nab, r[0] + r[1], V[0] + V[1], m[0] + m[1]


def _pi_hh_assemble(fd, nab, rsum, V, m_endo):
    """Horizontal (frame, d) and vertical (d, d) jets of Pi from its pieces,
    linearly: Pi = (nab^perp + (rsum + V + Z)/2)^h + 1/2 bar(m + S_Z), with
    Z = P^{-1}(S_m - (V + rsum)^top).
    """
    p, d = fd.p, fd.d
    nmask = np.concatenate([np.zeros(p), np.ones(d - p)])
    rhs = ops.s_tm_tangent_jet(fd, m_endo) - ops.frame_of_chart(fd, V) - rsum[..., :p]
    Zc = jet_einsum("...aA,...A->...a", fd.C, ops.solve_P(fd, rhs))
    horiz = nab * nmask + 0.5 * (rsum + ops.full_frame_field(fd, V + Zc))
    vert = 0.5 * (m_endo + ops.s_field_matrix(fd, Zc))
    return horiz, vert


def _pi_hv_jets(fd, Xc, Tj):
    """Pi(X^{h'}, bar T) = 1/2 (R_T(X) - Q_T(X))^h
    + 1/2 bar((nabla_X T)_m - S_{Q_T(X)}), read at its values: R_T(X),
    which differentiates nothing, is formed at order 0."""
    xF = ops.full_frame_field(fd, Xc.cut(0))
    RTX = jet_einsum("...ij,...j->...i", ops.rt_matrix_jet(fd, Tj.cut(0)), xF)
    q = ops.q_t_chart_jet(fd, Tj, Xc)
    horiz = 0.5 * (RTX - ops.full_frame_field(fd, q))
    dT_m = ops.nabla_t_field_jet(fd, Tj, Xc, "ambient") * fd.mmask
    vert = 0.5 * (dT_m - ops.s_field_matrix(fd, q))
    return horiz, vert


def second_fundamental_OMN(fd: FramePointData, case: str, *args) -> LiftedVector:
    """Second fundamental form of the subbundle in the ambient frame bundle.

    case "hh": (Xf, Yf); case "hv": (Xf, T) with T h-type; case "vv": (T, Tp) -> 0.
    The fields enter at order 1, the one derivative Pi takes of them. A
    stack of pairs is one call, and the result's parts lead with its axes.
    """
    if case not in ("hh", "hv", "vv"):
        raise OmnError(f"unknown case {case!r}")
    if len(args) != 2:
        raise OmnError(f"case {case!r} takes 2 arguments, got {len(args)}")
    if case == "vv":
        return lifted(fd)
    Xc = ops.as_chart_field(fd, args[0], 1)
    if case == "hh":
        horiz, vert = _pi_hh_assemble(fd, *_pi_hh_pieces(fd, Xc, ops.as_chart_field(fd, args[1], 1)))
    else:
        horiz, vert = _pi_hv_jets(fd, Xc, _h_endo_field(fd, args[1], 1))
    return lifted(fd, horizontal=horiz.val, vertical=0.5 * (vert.val - np.swapaxes(vert.val, -1, -2)))


# -- mean curvature and verdicts -------------------------------------------------


def tilde_frame_fields(fd) -> list[Jet]:
    """Chart-coefficient jets of the deformed-metric orthonormal frame."""
    return [fd.Wchart[..., A] for A in range(fd.p)]


def frame_trace(fd: FramePointData) -> tuple[Jet, Jet, Jet, Jet, Jet]:
    """The five sums over the deformed-orthonormal frame e of
    tilde_frame_fields through which the main theorem's proof writes both
    the mean curvature of the subbundle and the tension of the plane map:

    (sum nabla_e e, sum R_{S_e}(e)) in frame components (d,),
    (sum nabla'_e e, sum tilde_e e) in chart coefficients (p,),
    sum nabla'_e S_e as a frame matrix (d, d).

    The sums are values: each is a jet of order 0. The frame fields enter
    at order 1, the one derivative the connections take (the depth rule of
    operators), and the undifferentiated sum R_{S_e}(e) is formed from their
    values.

    The shapes are per point: on the frame of a batch of points each sum
    leads with the batch axes, and one call traces every point. The p frame
    fields are one stack, and each sum adds its p terms in frame order.

    Terms that share a piece form it once: nabla_e e and nabla'_e S_e one
    omega_e (operators.frame_derivs_jet), and nabla'_e e and tilde_e e one
    derivative of e along e and one e (x) e (operators.vec_connections_jet).
    Each term is bitwise the one its own primitive gives.
    """
    Ec = ops.as_chart_field(fd, jstack(tilde_frame_fields(fd), axis=0), 1)
    EF = ops.full_frame_field(fd, Ec)
    SE = ops.s_field_matrix(fd, Ec)
    amb, dS = ops.frame_derivs_jet(fd, Ec, EF, SE)
    prime, tilde = ops.vec_connections_jet(fd, Ec, Ec)
    rterm = jet_einsum("...ij,...j->...i", ops.rt_matrix_jet(fd, SE.cut(0)), EF.cut(0))
    terms = (amb, rterm, prime, tilde, dS)
    return tuple(sum((t[A] for A in range(1, fd.p)), t[0]) for t in terms)


def mean_curvature_OMN(fd: FramePointData, trace) -> LiftedVector:
    """The mean curvature H of the subbundle at the frame's points from
    their frame trace: the trace of the second fundamental form over a
    deformed-orthonormal horizontal frame (vertical directions contribute
    nothing), its horizontal part in frame components (..., d) and its
    vertical part a skew matrix (..., d, d).

    Pi is linear in its pieces, and the pieces of Pi(e, e) are nabla_e e,
    2 R_{S_e}(e), 2 nabla'_e e and 2 nabla'_e S_e, so H is Pi assembled once
    from the frame trace. The parts are taken as they come, not through
    lifted(), so that a caller refuses a non-finite H by point.
    """
    amb, rterm, prime, _, dS = trace
    horiz, vert = _pi_hh_assemble(fd, amb, 2.0 * rterm, 2.0 * prime, 2.0 * dS)
    return LiftedVector(fd, horiz.val, 0.5 * (vert.val - np.swapaxes(vert.val, -1, -2)))


@dataclass(frozen=True)
class TotallyGeodesicReport:
    totally_geodesic: bool
    max_pi_residual: float
    base_pi_residual: float
    r_condition_residual: float
    samples: int
    tol: float


def _finite_sup(fd: FramePointData, x: np.ndarray) -> float:
    """The sup of the residuals x, one per point of the frame and entry of
    any stack; a NaN or infinite residual raises naming its first point, as
    max would drop a NaN silently."""
    finite = np.isfinite(x)
    if not finite.all():
        raise OmnError(f"non-finite residual at sample point {fd.point_where(~finite)}")
    return float(np.max(x))


def is_totally_geodesic(M: ImmersedSubmanifold, samples: int = 50, seed: int = 0) -> TotallyGeodesicReport:
    """Sampled norm of the subbundle second fundamental form, together with
    the base criterion: M totally geodesic and tangential (R(U,V)W) = 0 for
    normal U, V, W. It builds one frame holding all the sample points. A
    residual that is not a finite number raises OmnError naming its point."""
    fd = M.frame_data(domain_samples(M, samples, seed=seed))
    p, d = fd.p, fd.d
    # base second fundamental form of M: S-matrices carry it all
    base = _finite_sup(fd, np.max(np.abs(fd.Smats.val), axis=(-3, -2, -1)))
    frames = tilde_frame_fields(fd)
    # one call for each kind of pair, the pairs stacked ahead of the batch axes
    hh = [(A, B) for A in range(p) for B in range(A, p)]
    X, Y = (jstack([frames[pair[k]] for pair in hh], axis=0) for k in (0, 1))
    norms = [second_fundamental_OMN(fd, "hh", X, Y).norm()]
    hv = [(A, i, j) for A in range(p) for i in range(d) for j in range(i + 1, d) if (i < p) == (j < p)]
    if hv:
        X = jstack([frames[A] for A, _, _ in hv], axis=0)
        T = np.stack([np.broadcast_to(ops.basis_T(d, i, j), fd.batch + (d, d)) for _, i, j in hv])
        norms.append(second_fundamental_OMN(fd, "hv", X, T).norm())
    worst = max(_finite_sup(fd, nrm) for nrm in norms)
    rcond = _finite_sup(fd, np.max(np.abs(fd.Rfr.val[..., :p, p:, p:, p:]), axis=(-4, -3, -2, -1)))
    return TotallyGeodesicReport(worst < VERDICT_TOL, worst, base, rcond, samples, VERDICT_TOL)
