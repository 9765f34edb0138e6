"""The tangent-plane map into the Grassmann bundle and its tension field.

The map sends a point of M to its tangent space, viewed inside the bundle of
p-plane subspaces of TN, the quotient of the frame bundle by the adapted
rotations. Its tangent vectors are the frame-bundle LiftedVectors whose
vertical part (a skew endomorphism in the adapted frame) has zero diagonal
blocks: the diagonal blocks are quotiented away. So the bundle metric is
sasaki_mok_inner, and the bundle connection is the m-projection of nabla_ON:
nabla_ON evaluated on off-diagonal ("m"-masked) endomorphism fields, with the
diagonal blocks of the result's vertical part dropped. The pushforward of a
tangent vector X is its primed lift X^{h'} = X^h + bar(S_X) of
frame_bundle.horizontal_lift_prime, whose vertical part S_X has zero diagonal
blocks already. The deformed metric on M is exactly the pullback of the
bundle metric under the map, which is why the tension field is taken with
respect to it. The module evaluates the pushforward, the bundle connection
and the tension field in two ways. Each takes the frame fd (a
FramePointData) at which it evaluates, of one point or of a batch of
points, and passes the batch axes through, as the frame_bundle functions
do; a norm or a residual is an array of the frame's batch shape, a numpy
scalar at one point (the batch convention of submanifold). residual_data
gives the residual vectors of the three harmonicity conditions and of the
two minimality conditions (the first of which is the first harmonicity
condition), and their norms r_h1, r_h2, r_h3 and r_m2.
The closed-form tension and the residuals take the frame sums of
omn_geometry.frame_trace as an argument, the same sums the subbundle's mean
curvature is assembled from, so a caller that reads several of them traces
the frame once. theorem_check is the one sampled sweep of the main theorem:
the subbundle is minimal exactly when the map is harmonic. It builds one
frame holding all its sample points and takes one frame trace there, which
the mean curvature and the residuals both read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import omn_geometry as og
from . import operators as ops
from .frame_bundle import (
    LiftedVector,
    case_pairs,
    horizontal_lift_prime,
    lifted,
    nabla_ON,
    nabla_ON_primed,
)
from .operators import hm_split_mat, matvec
from .submanifold import FramePointData, ImmersedSubmanifold

__all__ = [
    "GaussMapError",
    "grassmann_vector",
    "grassmann_nabla",
    "gauss_pushforward",
    "tension_field",
    "tension_field_pullback",
    "HarmonicityData",
    "residual_data",
    "implication_residuals",
    "TheoremReport",
    "theorem_check",
]


class GaussMapError(ValueError):
    pass


def grassmann_vector(fd: FramePointData, horizontal=None, vertical=None) -> LiftedVector:
    """Assemble a vector at the frame fd from the frame components of its
    horizontal part and its vertical skew matrix, which must have zero
    diagonal blocks."""
    v = lifted(fd, horizontal=horizontal, vertical=vertical)
    h_part, m_part = hm_split_mat(v.vertical, fd.p)
    diagonal = np.max(np.abs(h_part), axis=(-2, -1)) > 1e-10
    if np.any(diagonal):
        raise GaussMapError(f"vertical part must have zero diagonal blocks, not at u = {fd.point_where(diagonal)}")
    return lifted(fd, horizontal=v.horizontal, vertical=m_part)


# -- connection --------------------------------------------------------------


def _m_projection(v: LiftedVector) -> LiftedVector:
    """The plane-bundle vector of v: its vertical part without the diagonal blocks."""
    return grassmann_vector(v.fd, horizontal=v.horizontal, vertical=v.vertical * v.fd.mmask)


def grassmann_nabla(fd: FramePointData, case: str, *args) -> LiftedVector:
    """Levi-Civita connection of the plane bundle on lifted fields.

    The m-projection of nabla_ON: nabla_ON on the m-parts of the
    endomorphism fields, keeping the m-part of the result's vertical part.

    case "hh", (Xf, Yf): (nabla_X Y)^{hGr} - 1/2 hat(R(X,Y))
    case "hv", (Xf, T):  hat(nabla'_X T_m) + 1/2 R_{T_m}(X)^{hGr}
    case "vh", (T, Yf):  1/2 R_{T_m}(Y)^{hGr}
    case "vv", (T, Tp):  0
    """
    X, A, Y, B = case_pairs(case, args)
    m_part = lambda T: None if T is None else (lambda q: ops.as_endo_field(q, T, 1) * q.mmask)
    masked = [f for f in (X, m_part(A), Y, m_part(B)) if f is not None]
    return _m_projection(nabla_ON(fd, case, *masked))


def gauss_pushforward(fd: FramePointData, X) -> LiftedVector:
    """Pushforward of a tangent vector (or its chart coefficients): the
    primed lift X^{h'} = X^{hGr} + hat(S_X)."""
    return _m_projection(horizontal_lift_prime(fd, X))


# -- tension field -----------------------------------------------------------


def tension_field(fd: FramePointData, trace) -> LiftedVector:
    """Closed-form tension of the plane map from (M, deformed metric) at the
    frame's points, from their frame trace (omn_geometry.frame_trace):

    sum over a deformed-orthonormal frame e of
    (nabla_e e - tilde_e e + R_{S_e}(e))^{hGr}
    + hat(nabla'_e S_e) - hat(S_{tilde_e e}).
    """
    amb, rterm, _, tilde, dS = trace
    horiz = amb.val - ops.full_frame_field(fd, tilde.val).val + rterm.val
    vert = dS.val * fd.mmask - ops.s_field_matrix(fd, tilde.val).val
    return grassmann_vector(fd, horizontal=horiz, vertical=vert)


def tension_field_pullback(fd: FramePointData) -> LiftedVector:
    """Tension assembled from the bundle connection and the pushforward.

    For each frame field e the pushforward field is the primed lift e^{h'},
    so its derivative along the pushforward of e is the m-projection of
    nabla_ON_primed("hh", e, e). Subtracting the pushforward of tilde_e e
    leaves the tension summand.
    """
    total = grassmann_vector(fd)
    for Ec in og.tilde_frame_fields(fd):
        total = total + _m_projection(nabla_ON_primed(fd, "hh", Ec, Ec))
        tl = ops.vec_tilde_nabla_jet(fd, Ec, Ec)
        total = total - gauss_pushforward(fd, tl.val)
    return total


# -- harmonicity and minimality residuals --------------------------------------


def _skew_norm(T: np.ndarray):
    """sqrt(<T, T>) = sqrt(-tr(T T)) of skew (..., d, d) matrices."""
    return np.sqrt(np.maximum(ops.skew_inner(T, T), 0.0))


@dataclass(frozen=True)
class HarmonicityData:
    """All residual vectors at the points of the frame fd, in frame
    components; each array leads with the batch axes.

    h1: normal vector, sum of Pi(e, e) + R_{S_e}(e)^perp.
    h2: tangent vector, sum of nabla'_e e - tilde_e e + R_{S_e}(e)^top.
    h3: off-diagonal endomorphism, sum of nabla'_e S_e - S_{tilde_e e}.
    m2: off-diagonal endomorphism, sum of
        nabla'_e S_e - S_{nabla'_e e} - S_{R_{S_e}(e)^top}.
    m1 is h1 itself (the expressions coincide term by term).

    The residual norms have the frame's batch shape.
    """

    fd: FramePointData
    h1: np.ndarray
    h2: np.ndarray
    h3: np.ndarray
    m2: np.ndarray

    @property
    def r_h1(self):
        return np.linalg.norm(self.h1, axis=-1)

    @property
    def r_h2(self):
        return np.linalg.norm(self.h2, axis=-1)

    @property
    def r_h3(self):
        return _skew_norm(self.h3)

    @property
    def r_m2(self):
        return _skew_norm(self.m2)


def residual_data(fd: FramePointData, trace) -> HarmonicityData:
    """The residual vectors at the frame's points from their frame trace
    (omn_geometry.frame_trace)."""
    p, d = fd.p, fd.d
    amb, rterm, prime, tilde, dS = trace
    rv = rterm.val
    h1 = amb.val + rv
    h1[..., :p] = 0.0
    tilde_fr = matvec(fd.Dmat.val, tilde.val)
    prime_fr = matvec(fd.Dmat.val, prime.val)
    top = prime_fr - tilde_fr + rv[..., :p]
    h2 = np.concatenate([top, np.zeros(fd.batch + (d - p,))], axis=-1)
    s_of = lambda vec_chart: ops.s_field_matrix(fd, vec_chart).val
    h3 = dS.val * fd.mmask - s_of(tilde.val)
    rtop_chart = matvec(fd.C.val, rv[..., :p])
    m2 = dS.val * fd.mmask - s_of(prime.val) - s_of(rtop_chart)
    return HarmonicityData(fd, h1, h2, h3, m2)


def implication_residuals(data: HarmonicityData) -> tuple[np.ndarray, np.ndarray]:
    """Max-norm residuals of m2 = h3 - S_{h2} and P(h2) = S_{m2}.

    These two exact identities from the equivalence proof give the two
    implication directions between the harmonicity and minimality
    condition sets. Both have the frame's batch shape.
    """
    fd = data.fd
    h2 = data.h2[..., : fd.p]
    s_h2 = ops.s_field_matrix(fd, matvec(fd.C.val, h2)).val
    r_m2 = np.max(np.abs(data.m2 - (data.h3 - s_h2)), axis=(-2, -1))
    r_h2 = np.max(np.abs(matvec(fd.Pfr.val, h2) - ops.s_tm_tangent_jet(fd, data.m2).val), axis=-1)
    return r_m2, r_h2


# -- the equivalence ------------------------------------------------------------


@dataclass(frozen=True)
class TheoremReport:
    minimal: bool
    harmonic: bool
    agree: bool
    separated: bool
    max_mean_curvature: float
    max_harmonicity_residual: float
    m2_identity_residual: float
    h2_recovery_residual: float
    samples: int
    tol: float


def theorem_check(M: ImmersedSubmanifold, samples: int = 50, seed: int = 0) -> TheoremReport:
    """Minimality of the subbundle vs harmonicity of the plane map, in one
    sweep over the sampled points.

    It builds one frame holding all the sample points and takes one frame
    trace there. From that trace it reads, at every point, the
    mean-curvature norm, the three harmonicity residuals and the two
    identities of implication_residuals; a residual that is not a finite
    number raises GaussMapError naming its point. The subbundle is minimal
    (the plane map harmonic) when the sup of the mean-curvature norm (of the
    largest harmonicity residual) is below og.VERDICT_TOL. The two verdicts
    must agree. The separated flag asks the outcome to be decisive: both
    sups below the tolerance, or both at least 1e3 times it.
    """
    tol = og.VERDICT_TOL
    fd = M.frame_data(og.domain_samples(M, samples, seed=seed))
    trace = og.frame_trace(fd)
    hval, vval = og.mean_curvature_parts(fd, trace)
    # not lifted(): a non-finite H is refused below with the residuals, by point
    h_norm = LiftedVector(fd, hval, vval).norm()
    data = residual_data(fd, trace)
    r_max = np.maximum(np.maximum(data.r_h1, data.r_h2), data.r_h3)
    residuals = np.stack([h_norm, r_max, *implication_residuals(data)])
    bad = ~np.all(np.isfinite(residuals), axis=0)
    if np.any(bad):
        raise GaussMapError(f"non-finite residual at sample point {fd.point_where(bad)}")
    max_h, max_r, id_m2, id_h2 = (float(x) for x in residuals.max(axis=1))
    minimal, harmonic = max_h < tol, max_r < tol
    lo, hi = min(max_h, max_r), max(max_h, max_r)
    return TheoremReport(
        minimal=minimal,
        harmonic=harmonic,
        agree=minimal == harmonic,
        separated=hi < tol or lo >= 1e3 * tol,
        max_mean_curvature=max_h,
        max_harmonicity_residual=max_r,
        m2_identity_residual=id_m2,
        h2_recovery_residual=id_h2,
        samples=samples,
        tol=tol,
    )
