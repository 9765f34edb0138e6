"""Registry of the package's geometric identities, run as numerical checks.

Every displayed relation lives here as an IdentityCase: a stable id, the
statement in words, an evaluator that computes the two sides through
independent routes, and a tolerance drawn from a three-step ladder keyed by
how many derivatives of the embedding the relation consumes. run_suite sweeps
the registered cases over builtin (or user supplied) submanifolds at
low-discrepancy sample points and returns a structured, reproducible report.

A second, separate oracle family lives in fd_oracle: central finite
differences recomputing connection and curvature data from point evaluations
alone, for cross-validation of everything the jet arithmetic produces.
The registry is the one test home of each identity it states.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from . import frame_bundle as fb
from . import gauss_map as gm
from . import omn_geometry as og
from . import operators as ops
from .ambient import metric_at
from .frame_bundle import (
    decompose_OMN,
    horizontal_lift_prime,
    lifted,
    nabla_ON,
    sasaki_mok_inner,
)
from .jets import jet_along, jet_einsum, jstack
from .omn_geometry import domain_samples
from .operators import skew_inner
from .submanifold import ImmersedSubmanifold, builtin_submanifold

__all__ = [
    "VerifyError",
    "IdentityCase",
    "CaseResult",
    "VerificationReport",
    "TOL_LADDER",
    "DEFAULT_BUILTINS",
    "REQUIRED_GROUPS",
    "REGISTRY",
    "registry_ids",
    "run_suite",
    "FD_QUANTITIES",
    "fd_oracle",
    "jet_value",
    "fd_relative_error",
]

TOL_LADDER = {1: 1e-8, 2: 1e-7, 3: 1e-6}

DEFAULT_BUILTINS = (
    "plane",
    "plane3",
    "circle",
    "sphere2",
    "catenoid",
    "great2(0.5)",
    "clifford",
)

# Magnitude an identity's essential ingredient must reach, on the builtins
# designated per case, for the check to count as non-vacuous.
WITNESS_FLOOR = 1e-6

REPORT_SCHEMA_VERSION = 2


class VerifyError(ValueError):
    pass


# -- random but seeded inputs ---------------------------------------------------


def _affine_field(fd, rng):
    """Tangent chart field, affine in u, unit g-norm at the base point."""
    a = rng.standard_normal(fd.p)
    b = 0.4 * rng.standard_normal((fd.p, fd.p))
    j = fd.uspace.constant(a) + jet_einsum("ab,b->a", b, jstack(fd.uv, axis=0))
    n = float(np.sqrt(j.val @ fd.g_chart.val @ j.val))
    if n < 1e-8:
        return _affine_field(fd, rng)
    return (1.0 / n) * j


def _unit_chart(fd, rng):
    x = rng.standard_normal(fd.p)
    return x / np.sqrt(x @ fd.g_chart.val @ x)


def _unit_skew(mat):
    n = np.sqrt(max(skew_inner(mat, mat), 1e-300))
    return mat / n


def _random_skew(d, rng):
    m = rng.standard_normal((d, d))
    return _unit_skew(m - m.T)


def _random_block_skew(p, d, rng):
    """Unit skew with only diagonal blocks; zero when p = d - p = 1."""
    m = rng.standard_normal((d, d))
    m = m - m.T
    m[:p, p:] = 0.0
    m[p:, :p] = 0.0
    if np.max(np.abs(m)) < 1e-14:
        return np.zeros((d, d))
    return _unit_skew(m)


def _random_offblock_skew(p, d, rng):
    b = rng.standard_normal((d - p, p))
    m = np.zeros((d, d))
    m[p:, :p] = b
    m[:p, p:] = -b.T
    return _unit_skew(m)


def _scaled_endo_field(fd, base):
    """base skew matrix times an affine scalar, as a callable endo field."""

    def field(q):
        s = 1.0 + 0.3 * q.uv[0]
        return s * q.uspace.constant(base)

    return field


def _witness_smax(fd) -> float:
    return float(np.max(np.abs(fd.Smats.val)))


# -- evaluators, pointwise ------------------------------------------------------
# Each returns (residual, witness, detail-or-None).


def _ev_curvature_endo_duality(M, u, rng):
    fd = M.frame_data(u)
    x = _unit_chart(fd, rng)
    y = _unit_chart(fd, rng)
    T = _random_skew(fd.d, rng)
    xF = ops.full_frame_field(fd, x)
    yF = ops.full_frame_field(fd, y)
    rt = ops.rt_matrix_jet(fd, T).val
    lhs = float((rt @ xF.val) @ yF.val)
    Rxy = ops.curvature_matrix(fd, xF, yF).val
    rhs = skew_inner(Rxy, T)
    return abs(lhs - rhs), float(np.max(np.abs(Rxy))), None


def _ev_vertical_endo_tangent_duality(M, u, rng):
    fd = M.frame_data(u)
    x = _unit_chart(fd, rng)
    Tm = _random_offblock_skew(fd.p, fd.d, rng)
    svec = ops.s_tm_tangent_jet(fd, Tm).val
    xfr = fd.Dmat.val @ x
    lhs = float(svec @ xfr)
    SX = ops.s_field_matrix(fd, x).val
    rhs = -skew_inner(Tm, SX)
    return abs(lhs - rhs), _witness_smax(fd), None


def _ev_vertical_endo_pair_inner(M, u, rng):
    fd = M.frame_data(u)
    p = fd.p
    v = _unit_chart(fd, rng)
    z = _unit_chart(fd, rng)
    SV = ops.s_field_matrix(fd, v).val
    SZ = ops.s_field_matrix(fd, z).val
    lhs = skew_inner(SV, SZ)
    vfr, zfr = fd.Dmat.val @ v, fd.Dmat.val @ z
    rhs = -float(vfr @ ((np.eye(p) - fd.Pfr.val) @ zfr))
    sym = abs(lhs - skew_inner(SZ, SV))
    return max(abs(lhs - rhs), sym), _witness_smax(fd), None


def _ev_deformed_metric_pairing(M, u, rng):
    fd = M.frame_data(u)
    x = _unit_chart(fd, rng)
    y = _unit_chart(fd, rng)
    xfr, yfr = fd.Dmat.val @ x, fd.Dmat.val @ y
    lhs = float(xfr @ (fd.Pfr.val @ yfr))
    SX = ops.s_field_matrix(fd, x).val
    SY = ops.s_field_matrix(fd, y).val
    rhs = float(xfr @ yfr) + skew_inner(SX, SY)
    via_gt = float(x @ fd.gt_chart.val @ y)
    return max(abs(lhs - rhs), abs(lhs - via_gt)), _witness_smax(fd), None


def _ev_adapted_lift_isometry(M, u, rng):
    fd = M.frame_data(u)
    x = _unit_chart(fd, rng)
    y = _unit_chart(fd, rng)
    lx = horizontal_lift_prime(M, u, fd.J.val @ x)
    ly = horizontal_lift_prime(M, u, fd.J.val @ y)
    lhs = sasaki_mok_inner(lx, ly)
    rhs = float(x @ fd.gt_chart.val @ y)
    return abs(lhs - rhs), _witness_smax(fd), None


def _ev_gauss_tangent_block(M, u, rng):
    fd = M.frame_data(u)
    p = fd.p
    omh = fd.omega * fd.hmask
    worst, wit = 0.0, 0.0
    for a in range(p):
        for b in range(a + 1, p):
            Fp = (omh[b].d(a) - omh[a].d(b) + ops.commutator_jet(omh[a], omh[b])).val
            ea, eb = np.zeros(p), np.zeros(p)
            ea[a], eb[b] = 1.0, 1.0
            Rp = ops.curvature_prime_jet(fd, ea, eb).val
            worst = max(worst, float(np.max(np.abs(Fp - Rp))))
            Sa = fd.omega.val[a] * fd.mmask
            Sb = fd.omega.val[b] * fd.mmask
            wit = max(wit, float(np.max(np.abs(Sa @ Sb - Sb @ Sa))))
    return worst, wit, None


def _ev_codazzi_offdiagonal(M, u, rng):
    fd = M.frame_data(u)
    Xc = _affine_field(fd, rng)
    Yc = _affine_field(fd, rng)
    xF = ops.full_frame_field(fd, Xc)
    yF = ops.full_frame_field(fd, Yc)
    Rm = ops.curvature_matrix(fd, xF, yF).val * fd.mmask
    SY = ops.s_field_matrix(fd, Yc)
    SX = ops.s_field_matrix(fd, Xc)
    t1 = ops.nabla_t_field_jet(fd, SY, Xc, "prime").val
    t2 = ops.nabla_t_field_jet(fd, SX, Yc, "prime").val
    t3 = ops.s_field_matrix(fd, ops.bracket_jet(fd, Xc, Yc)).val
    rhs = (t1 - t2 - t3) * fd.mmask
    wit = max(float(np.max(np.abs(t1))), float(np.max(np.abs(t3))))
    return float(np.max(np.abs(Rm - rhs))), wit, None


def _ev_endo_derivative_split(block: str):
    """Evaluator for a T living in `block` ("h": diagonal blocks, "m":
    off-diagonal): nabla_X T is [S_X, T] in the other block and nabla'_X T
    in its own."""
    random_skew = _random_block_skew if block == "h" else _random_offblock_skew

    def evaluator(M, u, rng):
        fd = M.frame_data(u)
        own, other = (fd.hmask, fd.mmask) if block == "h" else (fd.mmask, fd.hmask)
        Tf = _scaled_endo_field(fd, random_skew(fd.p, fd.d, rng))
        Xc = _affine_field(fd, rng)
        Tj = Tf(fd)
        full = ops.nabla_t_field_jet(fd, Tj, Xc, "ambient").val
        prime = ops.nabla_t_field_jet(fd, Tj, Xc, "prime").val
        SX = ops.s_field_matrix(fd, Xc).val
        comm = SX @ Tj.val - Tj.val @ SX
        r1 = np.max(np.abs(full * other - comm))
        r2 = np.max(np.abs(full * own - prime * own))
        return float(max(r1, r2)), _witness_smax(fd), None

    return evaluator


def _ev_bundle_metric_compatibility(M, u, rng):
    fd = M.frame_data(u)
    Xc = _affine_field(fd, rng)
    Yc = _affine_field(fd, rng)
    Zc = _affine_field(fd, rng)
    TY = _random_skew(fd.d, rng)
    TZ = _random_skew(fd.d, rng)
    TYf, TZf = _scaled_endo_field(fd, TY), _scaled_endo_field(fd, TZ)
    yF = ops.full_frame_field(fd, Yc)
    zF = ops.full_frame_field(fd, Zc)
    TYj, TZj = TYf(fd), TZf(fd)
    inner = jet_einsum("i,i->", yF, zF) - jet_einsum("ij,ji->", TYj, TZj)
    lhs = jet_along(Xc, inner).val
    ynab = nabla_ON(M, u, "hh", Xc, Yc) + nabla_ON(M, u, "hv", Xc, TYf)
    znab = nabla_ON(M, u, "hh", Xc, Zc) + nabla_ON(M, u, "hv", Xc, TZf)
    ypt = lifted(M, u, horizontal=fd.ambient_components(yF.val), vertical=TYj.val)
    zpt = lifted(M, u, horizontal=fd.ambient_components(zF.val), vertical=TZj.val)
    rhs = sasaki_mok_inner(ynab, zpt) + sasaki_mok_inner(ypt, znab)
    return abs(float(lhs) - rhs), abs(float(lhs)), None


def _ev_deformed_connection_via_leibniz(M, u, rng):
    fd = M.frame_data(u)
    Xc = _affine_field(fd, rng)
    Yc = _affine_field(fd, rng)
    diff = (ops.vec_tilde_nabla_jet(fd, Xc, Yc) - ops.vec_nabla_prime_jet(fd, Xc, Yc)).val
    L = ops.L_op(M, u, Xc, Yc)
    return float(np.max(np.abs(diff - L.chart))), float(np.max(np.abs(L.chart))), None


def _ev_gil_medrano_pairing(M, u, rng):
    fd = M.frame_data(u)
    p = fd.p
    Xc = _affine_field(fd, rng)
    Yc = _affine_field(fd, rng)
    Zc = _affine_field(fd, rng)

    def nabla_prime_P(Ac):
        omt = ops.omega_along(fd, Ac, "prime")[:p, :p]
        return jet_along(Ac, fd.Pfr) + ops.commutator_jet(omt, fd.Pfr)

    def dp_pair(Ac, Bc, Cc):
        bfr = ops.frame_of_chart(fd, Bc)
        cfr = ops.frame_of_chart(fd, Cc)
        return float((jet_einsum("ij,j->i", nabla_prime_P(Ac), bfr) * cfr).sum(-1).val)

    tn = ops.vec_tilde_nabla_jet(fd, Xc, Yc)
    npr = ops.vec_nabla_prime_jet(fd, Xc, Yc)
    dfr = ops.frame_of_chart(fd, tn - npr)
    zfr = ops.frame_of_chart(fd, Zc)
    lhs = float((jet_einsum("ij,j->i", fd.Pfr, dfr) * zfr).sum(-1).val)
    rhs = 0.5 * (dp_pair(Xc, Yc, Zc) + dp_pair(Yc, Xc, Zc) - dp_pair(Zc, Yc, Xc))
    wit = max(float(np.max(np.abs(nabla_prime_P(e).val))) for e in np.eye(p))
    return abs(lhs - rhs), wit, None


def _ev_q_operator_deformed_skewness(M, u, rng):
    fd = M.frame_data(u)
    T = _random_block_skew(fd.p, fd.d, rng)
    x = _unit_chart(fd, rng)
    y = _unit_chart(fd, rng)
    Tj = fd.uspace.constant(T)
    qx = ops.q_t_chart_jet(fd, Tj, x).val
    qy = ops.q_t_chart_jet(fd, Tj, y).val
    gt = fd.gt_chart.val
    lhs = float(qx @ gt @ y) + float(x @ gt @ qy)
    return abs(lhs), float(np.max(np.abs(qx))), None


def _ev_frame_decompositions(M, u, rng):
    fd = M.frame_data(u)
    worst, wit = 0.0, _witness_smax(fd)
    x = _unit_chart(fd, rng)
    xa = fd.J.val @ x
    hor = lifted(M, u, horizontal=xa)
    ver = lifted(M, u, vertical=_random_skew(fd.d, rng))
    for z in (hor, ver):
        tan, nor = decompose_OMN(z)
        rec = (tan + nor) - z
        worst = max(
            worst,
            float(np.max(np.abs(rec.horizontal))),
            float(np.max(np.abs(rec.vertical.mat))),
            abs(sasaki_mok_inner(tan, nor)),
        )
    return worst, wit, None


def _relation_fields(fd, rng):
    Xc = _affine_field(fd, rng)
    Yc = _affine_field(fd, rng)
    T = _scaled_endo_field(fd, _random_block_skew(fd.p, fd.d, rng))
    Tp = _scaled_endo_field(fd, _random_block_skew(fd.p, fd.d, rng))
    return Xc, Yc, T, Tp


def _ev_subbundle_connection_vs_projection(M, u, rng):
    fd = M.frame_data(u)
    Xc, Yc, T, Tp = _relation_fields(fd, rng)
    worst = 0.0
    for case, args in [("hh", (Xc, Yc)), ("hv", (Xc, T)), ("vh", (T, Yc)), ("vv", (T, Tp))]:
        got = og.nabla_OMN(M, u, case, *args)
        tan, _ = decompose_OMN(fb.nabla_ON_primed(M, u, case, *args))
        worst = max(worst, (got - tan).norm())
    return worst, _witness_smax(fd), None


def _ev_subbundle_second_fundamental_vs_projection(M, u, rng):
    fd = M.frame_data(u)
    Xc, Yc, T, Tp = _relation_fields(fd, rng)
    worst = 0.0
    for case, args in [("hh", (Xc, Yc)), ("hv", (Xc, T))]:
        got = og.second_fundamental_OMN(M, u, case, *args)
        _, nor = decompose_OMN(fb.nabla_ON_primed(M, u, case, *args))
        worst = max(worst, (got - nor).norm())
    _, nor = decompose_OMN(fb.nabla_ON_primed(M, u, "vv", T, Tp))
    worst = max(worst, nor.norm())
    return worst, _witness_smax(fd), None


def _ev_sectional_horizontal_vs_curvature(M, u, rng):
    x = _unit_chart(M.frame_data(u), rng)
    y = _unit_chart(M.frame_data(u), rng)
    try:
        pl = og.omn_plane(M, u, ("hprime", x), ("hprime", y))
    except og.OmnError:
        return 0.0, 0.0, None
    R = og.curvature_OMN(M, u, "hhh", pl.xc, pl.yc, pl.yc)
    val = og.sectional_OMN(pl)
    return abs(val - sasaki_mok_inner(R, pl.v1)), abs(val), None


def _ev_sectional_mixed_vs_curvature(M, u, rng):
    fd = M.frame_data(u)
    T = _random_block_skew(fd.p, fd.d, rng)
    if np.max(np.abs(T)) < 1e-12:
        T = ops.basis_T(fd.d, 0, 1) if fd.d >= 2 else T
    x = _unit_chart(fd, rng)
    pl = og.omn_plane(M, u, ("hprime", x), ("vertical", T))
    R = og.curvature_OMN(M, u, "hvv", pl.xc, pl.T, pl.T)
    val = og.sectional_OMN(pl)
    q = ops.q_t_chart_jet(fd, fd.uspace.constant(pl.T), pl.xc).val
    return abs(val - sasaki_mok_inner(R, pl.v1)), float(np.max(np.abs(q))), None


def _ev_condition_set_implications(M, u, rng):
    data = gm.residual_data(M, u)
    r1, r2 = gm.implication_residuals(M, data)
    tau = gm.tension_field(M, u)
    r3 = abs(tau.norm() ** 2 - (data.r_h1**2 + data.r_h2**2 + data.r_h3**2))
    wit = data.r_h1 + data.r_h2 + data.r_h3
    return float(max(r1, r2, r3)), wit, None


def _ev_mixed_vertical_sectional_nonnegative(M, u, rng):
    fd = M.frame_data(u)
    lo, wit = np.inf, 0.0
    for _ in range(3):
        T = _random_block_skew(fd.p, fd.d, rng)
        if np.max(np.abs(T)) < 1e-12:
            break
        x = _unit_chart(fd, rng)
        val = og.sectional_OMN(og.omn_plane(M, u, ("hprime", x), ("vertical", T)))
        lo, wit = min(lo, val), max(wit, abs(val))
        Tp = _random_block_skew(fd.p, fd.d, rng)
        comm = T @ Tp - Tp @ T
        if np.max(np.abs(comm)) > 1e-8:
            try:
                vpl = og.omn_plane(M, u, ("vertical", T), ("vertical", Tp))
            except og.OmnError:
                continue
            val = og.sectional_OMN(vpl)
            lo, wit = min(lo, val), max(wit, abs(val))
    if not np.isfinite(lo):
        return 0.0, 0.0, None
    return float(max(0.0, -lo)), wit, None


def _ev_christoffel_jets_vs_fd(M, u, rng):
    r1 = fd_relative_error(M, "gamma_chart", u)
    r2 = fd_relative_error(M, "gamma_tilde", u)
    wit = float(np.max(np.abs(M.frame_data(u).Gam_chart.val)))
    return max(r1, r2), wit, None


# -- evaluators, per-manifold ----------------------------------------------------


def _ev_totally_geodesic_classification(M, samples, seed):
    rep = og.is_totally_geodesic(M, samples=min(samples, 40), seed=seed)
    # the paper's base criterion: M totally geodesic and tangential
    # R(U, V)W = 0 for normal U, V, W
    expected = max(rep.base_pi_residual, rep.r_condition_residual) < rep.tol
    detail = {
        "expected": expected,
        "verdict": rep.totally_geodesic,
        "max_pi_residual": rep.max_pi_residual,
        "base_pi_residual": rep.base_pi_residual,
        "r_condition_residual": rep.r_condition_residual,
    }
    if expected:
        res = max(rep.max_pi_residual, rep.base_pi_residual, rep.r_condition_residual)
        return res, 1.0, detail
    decisive = rep.max_pi_residual >= 1e3 * rep.tol
    res = 0.0 if (not rep.totally_geodesic and decisive) else 1.0
    return res, rep.max_pi_residual, detail


def _ev_space_form_sectional_nonnegative(M, samples, seed):
    rng = np.random.default_rng(seed)
    lo, hi = np.inf, 0.0
    for u in domain_samples(M, min(samples, 12), seed=seed):
        fd = M.frame_data(u)
        for _ in range(4):
            x = _unit_chart(fd, rng)
            y = _unit_chart(fd, rng)
            T = _random_block_skew(fd.p, fd.d, rng)
            try:
                pl = og.omn_plane(M, u, ("hprime", x), ("hprime", y))
                v = og.sectional_OMN(pl)
                lo, hi = min(lo, v), max(hi, abs(v))
            except og.OmnError:
                pass
            if np.max(np.abs(T)) > 1e-12:
                v = og.sectional_OMN(og.omn_plane(M, u, ("hprime", x), ("vertical", T)))
                lo, hi = min(lo, v), max(hi, abs(v))
    detail = {"min_sectional": lo, "max_abs_sectional": hi}
    return float(max(0.0, -lo)), hi, detail


def _ev_minimality_harmonicity_equivalence(M, samples, seed):
    n = min(samples, 30)
    rep = gm.theorem_check(M, samples=n, seed=seed)
    detail = {
        "minimal": rep.minimal,
        "harmonic": rep.harmonic,
        "max_mean_curvature": rep.max_mean_curvature,
        "max_harmonicity_residual": rep.max_harmonicity_residual,
    }
    indicator = 0.0 if (rep.agree and rep.separated) else 1.0
    res = max(indicator, rep.m2_identity_residual, rep.h2_recovery_residual)
    wit = rep.max_mean_curvature + rep.max_harmonicity_residual
    return res, wit, detail


# -- the registry ---------------------------------------------------------------


@dataclass(frozen=True)
class IdentityCase:
    """One displayed relation with an independent evaluation route.

    order indexes the tolerance ladder: 1 for relations using one derivative
    of the embedding, 2 for curvature-level relations, 3 for derivatives of
    curvature and whole-map statements.
    """

    id: str
    group: str
    statement: str
    order: int
    evaluator: object
    pointwise: bool = True
    builtins: tuple = None
    witness_builtins: frozenset = frozenset()

    @property
    def tolerance(self) -> float:
        return TOL_LADDER[self.order]

    def applies_to(self, name: str) -> bool:
        return self.builtins is None or name in self.builtins


_CURVED_S = frozenset({"circle", "sphere2", "catenoid", "clifford"})
_AMBIENT_CURVED = frozenset({"great2(0.5)", "clifford"})
_NOT_CIRCLE = ("plane", "plane3", "sphere2", "catenoid", "great2(0.5)", "clifford")

REGISTRY = (
    IdentityCase(
        id="curvature-endo-duality",
        group="duality-relations",
        statement="g(R_T(X), Y) equals the trace pairing of R(X,Y) with T",
        order=2,
        evaluator=_ev_curvature_endo_duality,
        witness_builtins=_AMBIENT_CURVED,
    ),
    IdentityCase(
        id="vertical-endo-tangent-duality",
        group="duality-relations",
        statement="g(S_T, X) = -<T, S_X> for off-diagonal T",
        order=1,
        evaluator=_ev_vertical_endo_tangent_duality,
        witness_builtins=_CURVED_S,
    ),
    IdentityCase(
        id="vertical-endo-pair-inner",
        group="duality-relations",
        statement="<S_V, S_Z> = -g((id - P)V, Z), symmetric in V and Z",
        order=1,
        evaluator=_ev_vertical_endo_pair_inner,
        witness_builtins=_CURVED_S,
    ),
    IdentityCase(
        id="deformed-metric-pairing",
        group="p-operator",
        statement="g(X, PY) = g(X, Y) + <S_X, S_Y> and equals the deformed metric",
        order=1,
        evaluator=_ev_deformed_metric_pairing,
        witness_builtins=_CURVED_S,
    ),
    IdentityCase(
        id="adapted-lift-isometry",
        group="p-operator",
        statement="the bundle metric on adapted horizontal lifts is the deformed metric",
        order=1,
        evaluator=_ev_adapted_lift_isometry,
        witness_builtins=_CURVED_S,
    ),
    IdentityCase(
        id="gauss-tangent-block",
        group="gauss-codazzi",
        statement="block-diagonal part of R(X,Y) = R'(X,Y) + [S_X, S_Y]",
        order=2,
        evaluator=_ev_gauss_tangent_block,
        witness_builtins=frozenset({"sphere2", "clifford"}),
    ),
    IdentityCase(
        id="codazzi-offdiagonal-block",
        group="gauss-codazzi",
        statement="off-diagonal part of R(X,Y) = nabla'_X S_Y - nabla'_Y S_X - S_[X,Y]",
        order=2,
        evaluator=_ev_codazzi_offdiagonal,
        witness_builtins=_CURVED_S,
    ),
    IdentityCase(
        id="block-endo-derivative-split",
        group="derivative-splits",
        statement="nabla_X T splits as [S_X, T] off-diagonal plus nabla'_X T for block T",
        order=2,
        evaluator=_ev_endo_derivative_split("h"),
        builtins=_NOT_CIRCLE,
        witness_builtins=frozenset({"sphere2", "clifford"}),
    ),
    IdentityCase(
        id="offblock-endo-derivative-split",
        group="derivative-splits",
        statement="nabla_X T splits as [S_X, T] block-diagonal plus nabla'_X T for off-diagonal T",
        order=2,
        evaluator=_ev_endo_derivative_split("m"),
        witness_builtins=_CURVED_S,
    ),
    IdentityCase(
        id="bundle-metric-compatibility",
        group="bundle-metric-compatibility",
        statement="the frame-bundle connection is metric for the bundle inner product",
        order=2,
        evaluator=_ev_bundle_metric_compatibility,
        witness_builtins=frozenset({"sphere2", "clifford"}),
    ),
    IdentityCase(
        id="deformed-connection-via-leibniz",
        group="leibniz-operator",
        statement="nabla-tilde minus nabla' equals the displayed operator L",
        order=3,
        evaluator=_ev_deformed_connection_via_leibniz,
        witness_builtins=frozenset({"catenoid", "clifford"}),
    ),
    IdentityCase(
        id="gil-medrano-pairing",
        group="gil-medrano",
        statement="Koszul pairing of P(nabla-tilde - nabla') against the nabla'P expansion",
        order=3,
        evaluator=_ev_gil_medrano_pairing,
        witness_builtins=frozenset({"catenoid", "clifford"}),
    ),
    IdentityCase(
        id="q-operator-deformed-skewness",
        group="q-operator",
        statement="Q_T is skew for the deformed metric when T is block-diagonal",
        order=2,
        evaluator=_ev_q_operator_deformed_skewness,
        builtins=_NOT_CIRCLE,
        witness_builtins=frozenset({"sphere2", "clifford"}),
    ),
    IdentityCase(
        id="frame-decompositions",
        group="frame-decompositions",
        statement="lift and vertical decompositions reconstruct and are orthogonal",
        order=2,
        evaluator=_ev_frame_decompositions,
        witness_builtins=_CURVED_S,
    ),
    IdentityCase(
        id="subbundle-connection-vs-projection",
        group="subbundle-connection",
        statement="displayed subbundle connection equals the tangent projection of the bundle one",
        order=2,
        evaluator=_ev_subbundle_connection_vs_projection,
        witness_builtins=_CURVED_S,
    ),
    IdentityCase(
        id="subbundle-second-fundamental-vs-projection",
        group="subbundle-second-fundamental",
        statement="displayed second fundamental form equals the normal projection",
        order=2,
        evaluator=_ev_subbundle_second_fundamental_vs_projection,
        witness_builtins=_CURVED_S,
    ),
    IdentityCase(
        id="sectional-horizontal-vs-curvature",
        group="sectional-curvature",
        statement="horizontal sectional formula matches the curvature-tensor pairing",
        order=3,
        evaluator=_ev_sectional_horizontal_vs_curvature,
        builtins=_NOT_CIRCLE,
        witness_builtins=frozenset({"sphere2", "clifford"}),
    ),
    IdentityCase(
        id="sectional-mixed-vs-curvature",
        group="sectional-curvature",
        statement="mixed sectional formula matches the curvature-tensor pairing",
        order=3,
        evaluator=_ev_sectional_mixed_vs_curvature,
        builtins=_NOT_CIRCLE,
        witness_builtins=frozenset({"sphere2", "clifford"}),
    ),
    IdentityCase(
        id="totally-geodesic-classification",
        group="totally-geodesic",
        statement="the subbundle is totally geodesic iff M is and R(U,V)W is normal for normal U, V, W",
        order=3,
        evaluator=_ev_totally_geodesic_classification,
        pointwise=False,
    ),
    IdentityCase(
        id="space-form-sectional-nonnegative",
        group="nonnegative-curvature",
        statement="all sectional curvatures nonnegative over a small-curvature great sphere",
        order=3,
        evaluator=_ev_space_form_sectional_nonnegative,
        pointwise=False,
        builtins=("great2(0.5)",),
        witness_builtins=frozenset({"great2(0.5)"}),
    ),
    IdentityCase(
        id="mixed-vertical-sectional-nonnegative",
        group="nonnegative-curvature",
        statement="mixed and vertical plane curvatures are nonnegative",
        order=3,
        evaluator=_ev_mixed_vertical_sectional_nonnegative,
        witness_builtins=frozenset({"sphere2", "clifford"}),
    ),
    IdentityCase(
        id="minimality-harmonicity-equivalence",
        group="theorem-equivalence",
        statement="subbundle minimality and plane-map harmonicity verdicts coincide",
        order=3,
        evaluator=_ev_minimality_harmonicity_equivalence,
        pointwise=False,
        witness_builtins=frozenset({"sphere2"}),
    ),
    IdentityCase(
        id="condition-set-implications",
        group="condition-algebra",
        statement="the two residual condition sets imply each other through exact identities",
        order=3,
        evaluator=_ev_condition_set_implications,
        witness_builtins=frozenset({"circle", "sphere2"}),
    ),
    IdentityCase(
        id="christoffel-jets-vs-fd",
        group="jets-vs-fd",
        statement="induced and deformed Christoffel symbols match central differences",
        order=3,
        evaluator=_ev_christoffel_jets_vs_fd,
        witness_builtins=frozenset({"sphere2", "clifford"}),
    ),
)

REQUIRED_GROUPS = frozenset(case.group for case in REGISTRY)


def registry_ids() -> list[str]:
    return [case.id for case in REGISTRY]


# -- suite runner -----------------------------------------------------------------


@dataclass(frozen=True)
class CaseResult:
    """One row of a report.

    error_kind says how a failing row failed: "crash" (the evaluator raised;
    residual is None and error names the exception), "over_tol" (residual at
    or above tol) or "vacuous" (the witness stayed below WITNESS_FLOOR on a
    builtin designated to exercise the case). It is None on passing rows.
    """

    case_id: str
    group: str
    builtin: str
    point: tuple | None
    residual: float | None
    witness: float | None
    tol: float
    passed: bool
    error: str | None = None
    detail: dict | None = None
    error_kind: str | None = None


@dataclass
class VerificationReport:
    seed: int
    samples: int
    builtins: tuple
    results: list = field(default_factory=list)
    runtime_seconds: float = 0.0
    generated_at: str = ""

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def summary(self) -> dict:
        out: dict = {}
        for r in self.results:
            s = out.setdefault(
                r.case_id,
                {"group": r.group, "n": 0, "max_residual": None, "mean_residual": None, "passed": True},
            )
            s["n"] += 1
            s["passed"] = s["passed"] and r.passed
            if r.residual is not None:
                if s["max_residual"] is None:
                    s["max_residual"] = r.residual
                    s["mean_residual"] = r.residual
                    s["_count"] = 1
                else:
                    s["max_residual"] = max(s["max_residual"], r.residual)
                    s["mean_residual"] += r.residual
                    s["_count"] += 1
        for s in out.values():
            if s.get("_count"):
                s["mean_residual"] /= s.pop("_count")
            else:
                s.pop("_count", None)
        return out

    def _payload(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "package_version": __version__,
            "seed": self.seed,
            "samples": self.samples,
            "builtins": list(self.builtins),
            "passed": self.passed,
            "summary": self.summary(),
            "results": [
                {
                    "case_id": r.case_id,
                    "group": r.group,
                    "builtin": r.builtin,
                    "point": list(r.point) if r.point is not None else None,
                    "residual": r.residual,
                    "witness": r.witness,
                    "tol": r.tol,
                    "passed": r.passed,
                    "error": r.error,
                    "error_kind": r.error_kind,
                    "detail": r.detail,
                }
                for r in self.results
            ],
        }

    def canonical_json(self) -> str:
        """Deterministic serialization: no timestamps, floats as fixed-width
        decimal strings with 17 significant digits."""
        return json.dumps(_decimalize(self._payload()), indent=2, sort_keys=False)

    def to_json(self) -> str:
        payload = _decimalize(self._payload())
        payload["generated_at"] = self.generated_at
        payload["runtime_seconds"] = self.runtime_seconds
        return json.dumps(payload, indent=2, sort_keys=False)


def _decimalize(obj):
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return f"{float(obj):.16e}"
    if isinstance(obj, dict):
        return {k: _decimalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_decimalize(v) for v in obj]
    return obj


def _as_manifold(entry):
    if isinstance(entry, ImmersedSubmanifold):
        return entry.name.lower(), entry
    if isinstance(entry, str):
        return entry.strip().lower(), builtin_submanifold(entry)
    raise VerifyError(f"cannot interpret {entry!r} as a submanifold")


def run_suite(builtins=None, samples: int = 25, seed: int = 0, groups=None) -> VerificationReport:
    """Evaluate the registered identities over the given submanifolds.

    builtins: None for the default set, a name, a submanifold object, or a
    list of either. groups optionally restricts to a subset of case groups.
    """
    t0 = time.perf_counter()
    if builtins is None:
        builtins = DEFAULT_BUILTINS
    if isinstance(builtins, (str, ImmersedSubmanifold)):
        builtins = [builtins]
    manifolds = [_as_manifold(b) for b in builtins]
    if groups is not None:
        groups = set(groups)
        bad = groups - REQUIRED_GROUPS
        if bad:
            raise VerifyError(f"unknown case groups: {sorted(bad)}")
    report = VerificationReport(seed=seed, samples=samples, builtins=tuple(n for n, _ in manifolds))
    for ci, case in enumerate(REGISTRY):
        if groups is not None and case.group not in groups:
            continue
        for bi, (name, M) in enumerate(manifolds):
            if not case.applies_to(name):
                continue
            rows = _run_case(case, ci, name, bi, M, samples, seed)
            report.results.extend(rows)
    report.runtime_seconds = time.perf_counter() - t0
    report.generated_at = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return report


def _crash_row(case, name, point, tol, exc: Exception) -> CaseResult:
    return CaseResult(
        case.id, case.group, name, point, None, None, tol, False,
        error=f"{type(exc).__name__}: {exc}", error_kind="crash",
    )


def _measured_row(case, name, point, tol, residual, witness, detail) -> CaseResult:
    passed = bool(residual < tol)
    return CaseResult(
        case.id, case.group, name, point, float(residual), float(witness),
        tol, passed, detail=detail, error_kind=None if passed else "over_tol",
    )


def _run_case(case, ci, name, bi, M, samples, seed):
    tol = case.tolerance
    rows = []
    max_witness = 0.0
    if case.pointwise:
        try:
            points = domain_samples(M, samples, seed=seed)
        except Exception as exc:  # noqa: BLE001 - reported, not fatal
            return [_crash_row(case, name, None, tol, exc)]
        for pi, u in enumerate(points):
            rng = np.random.default_rng(np.random.SeedSequence([seed, ci, bi, pi]))
            try:
                residual, witness, detail = case.evaluator(M, u, rng)
            except Exception as exc:  # noqa: BLE001 - reported, not fatal
                rows.append(_crash_row(case, name, tuple(u), tol, exc))
                continue
            max_witness = max(max_witness, witness)
            rows.append(_measured_row(case, name, tuple(u), tol, residual, witness, detail))
    else:
        try:
            residual, witness, detail = case.evaluator(M, samples, seed)
            max_witness = witness
            rows.append(_measured_row(case, name, None, tol, residual, witness, detail))
        except Exception as exc:  # noqa: BLE001 - reported, not fatal
            rows.append(_crash_row(case, name, None, tol, exc))
    if name in case.witness_builtins and max_witness < WITNESS_FLOOR:
        rows.append(
            CaseResult(
                case.id, case.group, name, None, float(max_witness), float(max_witness),
                tol, False, error="vacuous check: witness magnitude below floor", error_kind="vacuous",
            )
        )
    return rows


# -- finite-difference oracles -------------------------------------------------

FD_QUANTITIES = (
    "gamma_chart",
    "gamma_tilde",
    "nabla_vec",
    "nabla_prime_vec",
    "nabla_tilde_vec",
    "curvature_ambient",
    "curvature_prime",
)

_FD_STEP_FIRST = 1e-4
_FD_STEP_SECOND = 1e-3

# Chart fields X, Y of the oracles; a p-chart takes the first p, so entry k uses only u1..u(k+1).
_DEFAULT_X = ["0.7+0.3*u1", "u2-0.4", "0.5*u1"] + [f"0.3+0.2*u{k}" for k in range(4, 9)]
_DEFAULT_Y = ["u1*u1-0.2", "0.6", "u2+0.1*u1"] + [f"u{k - 1}*u{k}-0.1" for k in range(4, 9)]


def _default_field(M, which):
    return (_DEFAULT_X if which == "x" else _DEFAULT_Y)[: M.p]


def _chart_values(M, field, u):
    fd = M.frame_data(np.asarray(u, dtype=float))
    return ops.as_chart_field(fd, field).val


def _chart_metric_fun(M, attr):
    """u -> the chart metric `attr` ("g_chart" or "gt_chart") at u."""
    return lambda u: getattr(M.frame_data(np.asarray(u, dtype=float)), attr).val


def _central_diff(f, u, h):
    """Central differences of f at u along each coordinate, stacked on axis 0."""
    u = np.asarray(u, dtype=float)
    out = []
    for a in range(u.size):
        up, um = u.copy(), u.copy()
        up[a] += h
        um[a] -= h
        out.append((f(up) - f(um)) / (2.0 * h))
    return np.stack(out)


def _christoffels_fd(gfun, u, h):
    """Levi-Civita Christoffels from central differences of the metric."""
    dg = _central_diff(gfun, u, h)  # dg[a, b, c] = d_a g_bc
    low = 0.5 * (dg.transpose(2, 0, 1) + dg.transpose(2, 1, 0) - dg)  # Gamma_{cab}
    return np.einsum("dc,cab->dab", np.linalg.inv(gfun(np.asarray(u, dtype=float))), low)


def _ambient_metric_fun(M):
    amb = M.ambient
    return lambda x: metric_at(amb, np.asarray(x, dtype=float))


def _ambient_christoffels_fd(M, x, h):
    return _christoffels_fd(_ambient_metric_fun(M), x, h)


def _curvature_from_christoffels(gamfun, x, h):
    """R^i_jkl = d_k Gam^i_lj - d_l Gam^i_kj + Gam Gam - Gam Gam."""
    g0 = gamfun(np.asarray(x, dtype=float))
    dG = _central_diff(gamfun, x, h)  # dG[k, i, l, j] = d_k Gam^i_lj
    GG = np.einsum("ikm,mlj->ijkl", g0, g0)  # Gam^i_km Gam^m_lj
    return dG.transpose(1, 3, 0, 2) - dG.transpose(1, 3, 2, 0) + GG - GG.transpose(0, 1, 3, 2)


def fd_oracle(M: ImmersedSubmanifold, quantity: str, u):
    """Recompute a derived quantity by central differences of point values.

    gamma_chart / gamma_tilde: Christoffels of the induced and deformed chart
    metrics, shape (p, p, p). nabla_vec: ambient covariant derivative of a
    tangent field along a tangent field, ambient components. nabla_prime_vec
    / nabla_tilde_vec: chart components for the induced and deformed
    connections. curvature_ambient: frame-component curvature tensor of the
    ambient space. curvature_prime: chart curvature tensor of the induced
    metric, compared against the block-splitting route on the jet side.
    """
    u = np.asarray(u, dtype=float)
    h = _FD_STEP_SECOND if quantity in ("curvature_ambient", "curvature_prime") else _FD_STEP_FIRST
    if quantity == "gamma_chart":
        return _christoffels_fd(_chart_metric_fun(M, "g_chart"), u, h)
    if quantity == "gamma_tilde":
        return _christoffels_fd(_chart_metric_fun(M, "gt_chart"), u, h)
    Xf = _default_field(M, "x")
    Yf = _default_field(M, "y")
    if quantity in ("nabla_prime_vec", "nabla_tilde_vec"):
        gfun = _chart_metric_fun(M, "g_chart" if quantity == "nabla_prime_vec" else "gt_chart")
        gam = _christoffels_fd(gfun, u, h)
        x0 = _chart_values(M, Xf, u)
        y0 = _chart_values(M, Yf, u)
        dY = _central_diff(lambda uu: _chart_values(M, Yf, uu), u, h)
        return np.einsum("a,ac->c", x0, dY) + np.einsum("cab,a,b->c", gam, x0, y0)
    if quantity == "nabla_vec":
        fd0 = M.frame_data(u)
        x0 = _chart_values(M, Xf, u)
        yamb = lambda uu: M.frame_data(np.asarray(uu, dtype=float)).J.val @ _chart_values(M, Yf, uu)
        dY = x0 @ _central_diff(yamb, u, h)
        gam = _ambient_christoffels_fd(M, fd0.x0, h)
        xa = fd0.J.val @ x0
        return dY + np.einsum("ijk,j,k->i", gam, xa, yamb(u))
    if quantity == "curvature_ambient":
        fd0 = M.frame_data(u)
        gamfun = lambda x: _ambient_christoffels_fd(M, x, h)
        Rup = _curvature_from_christoffels(gamfun, fd0.x0, h)
        G0 = _ambient_metric_fun(M)(fd0.x0)
        E = fd0.E.val
        low = np.einsum("im,mjkl->ijkl", G0, Rup)
        return np.einsum("ijkl,ia,jb,kc,ld->abcd", low, E, E, E, E)
    if quantity == "curvature_prime":
        gfun = _chart_metric_fun(M, "g_chart")
        gamfun = lambda uu: _christoffels_fd(gfun, uu, h)
        return _curvature_from_christoffels(gamfun, u, h)
    raise VerifyError(f"unknown finite-difference quantity {quantity!r}")


def jet_value(M: ImmersedSubmanifold, quantity: str, u):
    """The jet-route value matching fd_oracle's conventions."""
    u = np.asarray(u, dtype=float)
    fd = M.frame_data(u)
    p = fd.p
    if quantity == "gamma_chart":
        return fd.Gam_chart.val
    if quantity == "gamma_tilde":
        return fd.Gamt.val
    Xc = ops.as_chart_field(fd, _default_field(M, "x"))
    Yc = ops.as_chart_field(fd, _default_field(M, "y"))
    if quantity == "nabla_prime_vec":
        return ops.vec_nabla_prime_jet(fd, Xc, Yc).val
    if quantity == "nabla_tilde_vec":
        return ops.vec_tilde_nabla_jet(fd, Xc, Yc).val
    if quantity == "nabla_vec":
        yF = ops.full_frame_field(fd, Yc)
        return fd.ambient_components(ops.ambient_deriv_frame(fd, Xc, yF).val)
    if quantity == "curvature_ambient":
        return fd.Rfr.val
    if quantity == "curvature_prime":
        out = np.empty((p, p, p, p))
        C, D = fd.C.val, fd.Dmat.val
        for a in range(p):
            for b in range(p):
                ea, eb = np.zeros(p), np.zeros(p)
                ea[a], eb[b] = 1.0, 1.0
                blk = ops.curvature_prime_jet(fd, ea, eb).val[:p, :p]
                out[:, :, a, b] = C @ blk @ D
        return out
    raise VerifyError(f"unknown finite-difference quantity {quantity!r}")


def fd_relative_error(M: ImmersedSubmanifold, quantity: str, u) -> float:
    a = jet_value(M, quantity, u)
    b = fd_oracle(M, quantity, u)
    return float(np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(a))))
