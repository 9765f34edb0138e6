"""Registry of the package's geometric identities, run as numerical checks.

Every displayed relation lives here as an IdentityCase: a stable id, the
statement in words, an evaluator that computes the two sides through
independent routes, and a tolerance drawn from a three-step ladder keyed by
how many derivatives of the embedding the relation consumes. run_suite sweeps
the registered cases over builtin (or user supplied) submanifolds at
low-discrepancy sample points and returns a structured, reproducible report.
On each submanifold it builds one frame holding all the sample points, and
each pointwise case evaluates every point in one call on that frame, each
point with its own seeded draws.
Where a case runs, and where its witness must be live, each case decides from
the frame at those points (p, n, S, the ambient curvature), never from a name.

The registry is the one test home of each identity it states.

A second, separate oracle checks the jet arithmetic: FD_QUANTITIES pairs the
jet route (jet_value) of seven connection and curvature quantities with one
(fd_oracle) through finite_diff, which sees point values of metrics and fields.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from . import finite_diff
from . import frame_bundle as fb
from . import gauss_map as gm
from . import omn_geometry as og
from . import operators as ops
from .ambient import AmbientError, metric_at
from .expr import ExprError
from .frame_bundle import (
    decompose_OMN,
    horizontal_lift_prime,
    lifted,
    nabla_ON,
    sasaki_mok_inner,
)
from .jets import jet_along, jet_einsum, jstack
from .omn_geometry import domain_samples
from .operators import matvec, skew_inner
from .submanifold import FrameError, ImmersedSubmanifold, builtin_submanifold, is_int

__all__ = [
    "VerifyError",
    "IdentityCase",
    "CaseResult",
    "VerificationReport",
    "TOL_LADDER",
    "DEFAULT_BUILTINS",
    "WITNESS_FLOOR",
    "REQUIRED_GROUPS",
    "REGISTRY",
    "registry_ids",
    "run_suite",
    "FDQuantity",
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

# The sup a case's witness must reach where the geometry makes it nonzero, and
# the floor that tells a nonzero geometric quantity from roundoff.
WITNESS_FLOOR = 1e-6

REPORT_SCHEMA_VERSION = 2


class VerifyError(ValueError):
    pass


# -- random but seeded inputs ---------------------------------------------------
# Each sample point draws from its own generator. An evaluator draws each input
# at every point before the next input, so a point's draws come in the same
# order as in a one-point evaluation; the draws are stacked along a leading
# batch axis, one row per point.


def _draw(rngs, *shape) -> np.ndarray:
    """One standard-normal draw of the given shape from each point's generator."""
    return np.stack([rng.standard_normal(shape) for rng in rngs])


def _dot(a, b):
    return np.einsum("...i,...i->...", a, b)


def _unit_chart(fd, x):
    """Chart vectors x (n, p) scaled to unit g-norm at their points."""
    return x / np.sqrt(_dot(x, matvec(fd.g_chart.val, x)))[..., None]


def _unit_skew(mat):
    n = np.sqrt(np.maximum(skew_inner(mat, mat), 1e-300))
    return mat / n[..., None, None]


def _skew(m):
    """Unit skew matrices from draws m (n, d, d)."""
    return _unit_skew(m - np.swapaxes(m, -1, -2))


def _diag_skew(p, m):
    """Unit skew matrices with only diagonal blocks from draws m (n, d, d);
    zero when p = d - p = 1."""
    m = m - np.swapaxes(m, -1, -2)
    m[..., :p, p:] = 0.0
    m[..., p:, :p] = 0.0
    return _unit_skew(m)


def _offblock_skew(p, b):
    """Unit skew matrices with only off-diagonal blocks from draws b (n, d - p, p)."""
    d = p + b.shape[-2]
    m = np.zeros(b.shape[:-2] + (d, d))
    m[..., p:, :p] = b
    m[..., :p, p:] = -np.swapaxes(b, -1, -2)
    return _unit_skew(m)


def _affine_field(fd, rngs):
    """Tangent chart field, affine in u, of unit g-norm at each base point;
    a point whose draw has a norm below 1e-8 there draws again. It is a jet
    of order 1: every reader differentiates it at most once."""
    p, g = fd.p, fd.g_chart.val
    a, b = np.empty((len(rngs), p)), np.empty((len(rngs), p, p))
    for i, rng in enumerate(rngs):
        while True:
            a[i] = rng.standard_normal(p)
            b[i] = 0.4 * rng.standard_normal((p, p))
            v = a[i] + b[i] @ fd.u0[i]
            if np.sqrt(v @ g[i] @ v) >= 1e-8:
                break
    j = jet_einsum("...ab,...b->...a", b, jstack(fd.uv, axis=-1).cut(1)) + a
    return j * (1.0 / np.sqrt(_dot(j.val, matvec(g, j.val))))[..., None]


def _scaled_endo_field(base):
    """The skew matrices base (n, d, d) times an affine scalar, as a callable endo field."""

    def field(q):
        s = 1.0 + 0.3 * q.uv[0]
        return s[..., None, None] * base

    return field


def _sup(a) -> float:
    return float(np.max(np.abs(a)))


def _sup_each(a) -> np.ndarray:
    """max |a| at each point: over every axis but the leading batch axis."""
    return np.max(np.abs(a).reshape(a.shape[0], -1), axis=1)


def _sectional_at(fd, mask, spec1, spec2, skip_refused=False) -> np.ndarray:
    """sectional_OMN of the planes of spec1 and spec2 at the points of the
    frame fd in the batch mask, NaN at the other points.

    The plane is built at every point; a point outside mask takes the
    directions of the first point in it. With skip_refused a point whose
    plane omn_plane refuses leaves mask and gets NaN while the other points
    keep theirs; otherwise the refusal raises."""
    while np.any(mask):
        first = np.argmax(mask)
        fill = lambda a: np.where(mask.reshape(mask.shape + (1,) * (a.ndim - 1)), a, a[first])
        try:
            plane = og.omn_plane(fd, (spec1[0], fill(spec1[1])), (spec2[0], fill(spec2[1])))
        except og.OmnError as exc:
            if not skip_refused or exc.where is None or not np.any(exc.where & mask):
                raise
            mask = mask & ~exc.where
            continue
        return np.where(mask, og.sectional_OMN(plane), np.nan)
    return np.full(mask.shape, np.nan)


# -- evaluators, batched over the run's sample points ----------------------------
# Each takes the submanifold M, its frame fd at the run's n sample points and
# the n points' generators, and returns the residual and the witness at each
# point: two arrays of shape (n,). Every value at a point is computed from that
# point's frame and draws alone.


def _ev_curvature_endo_duality(M, fd, rngs):
    x = _unit_chart(fd, _draw(rngs, fd.p))
    y = _unit_chart(fd, _draw(rngs, fd.p))
    T = _skew(_draw(rngs, fd.d, fd.d))
    xF = ops.full_frame_field(fd, x)
    yF = ops.full_frame_field(fd, y)
    lhs = _dot(matvec(ops.rt_matrix_jet(fd, T).val, xF.val), yF.val)
    Rxy = ops.curvature_matrix(fd, xF, yF).val
    return np.abs(lhs - skew_inner(Rxy, T)), _sup_each(Rxy)


def _ev_vertical_endo_tangent_duality(M, fd, rngs):
    x = _unit_chart(fd, _draw(rngs, fd.p))
    Tm = _offblock_skew(fd.p, _draw(rngs, fd.n, fd.p))
    lhs = _dot(ops.s_tm_tangent_jet(fd, Tm).val, matvec(fd.Dmat.val, x))
    rhs = -skew_inner(Tm, ops.s_field_matrix(fd, x).val)
    return np.abs(lhs - rhs), _sup_each(fd.Smats.val)


def _ev_vertical_endo_pair_inner(M, fd, rngs):
    v = _unit_chart(fd, _draw(rngs, fd.p))
    z = _unit_chart(fd, _draw(rngs, fd.p))
    SV = ops.s_field_matrix(fd, v).val
    SZ = ops.s_field_matrix(fd, z).val
    lhs = skew_inner(SV, SZ)
    vfr, zfr = matvec(fd.Dmat.val, v), matvec(fd.Dmat.val, z)
    rhs = -_dot(vfr, matvec(np.eye(fd.p) - fd.Pfr.val, zfr))
    sym = np.abs(lhs - skew_inner(SZ, SV))
    return np.maximum(np.abs(lhs - rhs), sym), _sup_each(fd.Smats.val)


def _ev_deformed_metric_pairing(M, fd, rngs):
    x = _unit_chart(fd, _draw(rngs, fd.p))
    y = _unit_chart(fd, _draw(rngs, fd.p))
    xfr, yfr = matvec(fd.Dmat.val, x), matvec(fd.Dmat.val, y)
    lhs = _dot(xfr, matvec(fd.Pfr.val, yfr))
    rhs = _dot(xfr, yfr) + skew_inner(ops.s_field_matrix(fd, x).val, ops.s_field_matrix(fd, y).val)
    via_gt = _dot(x, matvec(fd.gt_chart.val, y))
    return np.maximum(np.abs(lhs - rhs), np.abs(lhs - via_gt)), _sup_each(fd.Smats.val)


def _ev_adapted_lift_isometry(M, fd, rngs):
    x = _unit_chart(fd, _draw(rngs, fd.p))
    y = _unit_chart(fd, _draw(rngs, fd.p))
    lx = horizontal_lift_prime(fd, matvec(fd.J.val, x))
    ly = horizontal_lift_prime(fd, matvec(fd.J.val, y))
    rhs = _dot(x, matvec(fd.gt_chart.val, y))
    return np.abs(sasaki_mok_inner(lx, ly) - rhs), _sup_each(fd.Smats.val)


def _ev_gauss_tangent_block(M, fd, rngs):
    p = fd.p
    # the curvature of omega' takes one derivative of it, R' none of its directions
    omh = fd.omega.cut(1) * fd.hmask
    om = lambda a: omh[..., a, :, :]
    S = lambda a: fd.omega.val[..., a, :, :] * fd.mmask
    e = [ops.as_chart_field(fd, x, 0) for x in np.eye(p)]
    worst = wit = np.zeros(len(rngs))
    for a in range(p):
        for b in range(a + 1, p):
            Fp = (om(b).d(a) - om(a).d(b) + ops.commutator_jet(om(a), om(b))).val
            Rp = ops.curvature_prime_jet(fd, e[a], e[b]).val
            worst = np.maximum(worst, _sup_each(Fp - Rp))
            wit = np.maximum(wit, _sup_each(S(a) @ S(b) - S(b) @ S(a)))
    return worst, wit


def _ev_codazzi_offdiagonal(M, fd, rngs):
    Xc = _affine_field(fd, rngs)
    Yc = _affine_field(fd, rngs)
    xF = ops.full_frame_field(fd, Xc)
    yF = ops.full_frame_field(fd, Yc)
    Rm = ops.curvature_matrix(fd, xF, yF).val * fd.mmask
    t1 = ops.nabla_t_field_jet(fd, ops.s_field_matrix(fd, Yc), Xc, "prime").val
    t2 = ops.nabla_t_field_jet(fd, ops.s_field_matrix(fd, Xc), Yc, "prime").val
    t3 = ops.s_field_matrix(fd, ops.bracket_jet(fd, Xc, Yc)).val
    rhs = (t1 - t2 - t3) * fd.mmask
    return _sup_each(Rm - rhs), np.maximum(_sup_each(t1), _sup_each(t3))


def _ev_endo_derivative_split(block: str):
    """Evaluator for a T living in `block` ("h": diagonal blocks, "m":
    off-diagonal): nabla_X T is [S_X, T] in the other block and nabla'_X T
    in its own."""

    def evaluator(M, fd, rngs):
        if block == "h":
            own, other = fd.hmask, fd.mmask
            T = _diag_skew(fd.p, _draw(rngs, fd.d, fd.d))
        else:
            own, other = fd.mmask, fd.hmask
            T = _offblock_skew(fd.p, _draw(rngs, fd.n, fd.p))
        Tj = ops.as_endo_field(fd, _scaled_endo_field(T), 1)
        Xc = _affine_field(fd, rngs)
        full = ops.nabla_t_field_jet(fd, Tj, Xc, "ambient").val
        prime = ops.nabla_t_field_jet(fd, Tj, Xc, "prime").val
        SX = ops.s_field_matrix(fd, Xc).val
        comm = SX @ Tj.val - Tj.val @ SX
        r1 = _sup_each(full * other - comm)
        r2 = _sup_each(full * own - prime * own)
        return np.maximum(r1, r2), _sup_each(fd.Smats.val)

    return evaluator


def _ev_bundle_metric_compatibility(M, fd, rngs):
    Xc = _affine_field(fd, rngs)
    Yc = _affine_field(fd, rngs)
    Zc = _affine_field(fd, rngs)
    TYf = _scaled_endo_field(_skew(_draw(rngs, fd.d, fd.d)))
    TZf = _scaled_endo_field(_skew(_draw(rngs, fd.d, fd.d)))
    yF = ops.full_frame_field(fd, Yc)
    zF = ops.full_frame_field(fd, Zc)
    TYj, TZj = ops.as_endo_field(fd, TYf, 1), ops.as_endo_field(fd, TZf, 1)
    inner = jet_einsum("...i,...i->...", yF, zF) - jet_einsum("...ij,...ji->...", TYj, TZj)
    lhs = jet_along(Xc, inner).val
    ynab = nabla_ON(fd, "hh", Xc, Yc) + nabla_ON(fd, "hv", Xc, TYf)
    znab = nabla_ON(fd, "hh", Xc, Zc) + nabla_ON(fd, "hv", Xc, TZf)
    ypt = lifted(fd, horizontal=yF.val, vertical=TYj.val)
    zpt = lifted(fd, horizontal=zF.val, vertical=TZj.val)
    rhs = sasaki_mok_inner(ynab, zpt) + sasaki_mok_inner(ypt, znab)
    return np.abs(lhs - rhs), np.abs(lhs)


def _ev_deformed_connection_via_leibniz(M, fd, rngs):
    Xc = _affine_field(fd, rngs)
    Yc = _affine_field(fd, rngs)
    diff = (ops.vec_tilde_nabla_jet(fd, Xc, Yc) - ops.vec_nabla_prime_jet(fd, Xc, Yc)).val
    L = ops.L_op(fd, Xc, Yc)
    return _sup_each(diff - L), _sup_each(L)


def _ev_gil_medrano_pairing(M, fd, rngs):
    p = fd.p
    Xc = _affine_field(fd, rngs)
    Yc = _affine_field(fd, rngs)
    Zc = _affine_field(fd, rngs)

    def nabla_prime_P(Ac):
        omt = ops.omega_along(fd, Ac, "prime")[..., :p, :p]
        return jet_along(Ac, fd.Pfr) + ops.commutator_jet(omt, fd.Pfr)

    def dp_pair(Ac, Bc, Cc):
        bfr = ops.frame_of_chart(fd, Bc)
        cfr = ops.frame_of_chart(fd, Cc)
        return (jet_einsum("...ij,...j->...i", nabla_prime_P(Ac), bfr) * cfr).sum(-1).val

    tn = ops.vec_tilde_nabla_jet(fd, Xc, Yc)
    npr = ops.vec_nabla_prime_jet(fd, Xc, Yc)
    dfr = ops.frame_of_chart(fd, tn - npr)
    zfr = ops.frame_of_chart(fd, Zc)
    lhs = (jet_einsum("...ij,...j->...i", fd.Pfr, dfr) * zfr).sum(-1).val
    rhs = 0.5 * (dp_pair(Xc, Yc, Zc) + dp_pair(Yc, Xc, Zc) - dp_pair(Zc, Yc, Xc))
    wit = np.max([_sup_each(nabla_prime_P(ops.as_chart_field(fd, e, 0)).val) for e in np.eye(p)], axis=0)
    return np.abs(lhs - rhs), wit


def _ev_q_operator_deformed_skewness(M, fd, rngs):
    T = _diag_skew(fd.p, _draw(rngs, fd.d, fd.d))
    x = _unit_chart(fd, _draw(rngs, fd.p))
    y = _unit_chart(fd, _draw(rngs, fd.p))
    Tj = ops.as_endo_field(fd, T, 1)
    qx = ops.q_t_chart_jet(fd, Tj, x).val
    qy = ops.q_t_chart_jet(fd, Tj, y).val
    gt = fd.gt_chart.val
    return np.abs(_dot(qx, matvec(gt, y)) + _dot(x, matvec(gt, qy))), _sup_each(qx)


def _ev_frame_decompositions(M, fd, rngs):
    x = _unit_chart(fd, _draw(rngs, fd.p))
    hor = lifted(fd, horizontal=ops.full_frame_field(fd, x).val)
    ver = lifted(fd, vertical=_skew(_draw(rngs, fd.d, fd.d)))
    worst = np.zeros(len(rngs))
    for z in (hor, ver):
        tan, nor = decompose_OMN(z)
        rec = (tan + nor) - z
        parts = (_sup_each(rec.horizontal), _sup_each(rec.vertical), np.abs(sasaki_mok_inner(tan, nor)))
        worst = np.max((worst,) + parts, axis=0)
    return worst, _sup_each(fd.Smats.val)


def _relation_fields(fd, rngs):
    Xc = _affine_field(fd, rngs)
    Yc = _affine_field(fd, rngs)
    T = _scaled_endo_field(_diag_skew(fd.p, _draw(rngs, fd.d, fd.d)))
    Tp = _scaled_endo_field(_diag_skew(fd.p, _draw(rngs, fd.d, fd.d)))
    return Xc, Yc, T, Tp


def _ev_subbundle_connection_vs_projection(M, fd, rngs):
    Xc, Yc, T, Tp = _relation_fields(fd, rngs)
    worst = np.zeros(len(rngs))
    for case, args in [("hh", (Xc, Yc)), ("hv", (Xc, T)), ("vh", (T, Yc)), ("vv", (T, Tp))]:
        got = og.nabla_OMN(fd, case, *args)
        tan, _ = decompose_OMN(fb.nabla_ON_primed(fd, case, *args))
        worst = np.maximum(worst, (got - tan).norm())
    return worst, _sup_each(fd.Smats.val)


def _ev_subbundle_second_fundamental_vs_projection(M, fd, rngs):
    Xc, Yc, T, Tp = _relation_fields(fd, rngs)
    worst = np.zeros(len(rngs))
    for case, args in [("hh", (Xc, Yc)), ("hv", (Xc, T))]:
        got = og.second_fundamental_OMN(fd, case, *args)
        _, nor = decompose_OMN(fb.nabla_ON_primed(fd, case, *args))
        worst = np.maximum(worst, (got - nor).norm())
    _, nor = decompose_OMN(fb.nabla_ON_primed(fd, "vv", T, Tp))
    return np.maximum(worst, nor.norm()), _sup_each(fd.Smats.val)


def _ev_sectional_horizontal_vs_curvature(M, fd, rngs):
    x = _unit_chart(fd, _draw(rngs, fd.p))
    y = _unit_chart(fd, _draw(rngs, fd.p))
    pl = og.omn_plane(fd, ("hprime", x), ("hprime", y))
    R = og.curvature_OMN(fd, "hhh", pl.xc, pl.yc, pl.yc)
    val = og.sectional_OMN(pl)
    return np.abs(val - sasaki_mok_inner(R, pl.v1)), np.abs(val)


def _ev_sectional_mixed_vs_curvature(M, fd, rngs):
    T = _diag_skew(fd.p, _draw(rngs, fd.d, fd.d))
    x = _unit_chart(fd, _draw(rngs, fd.p))
    pl = og.omn_plane(fd, ("hprime", x), ("vertical", T))
    R = og.curvature_OMN(fd, "hvv", pl.xc, pl.T, pl.T)
    val = og.sectional_OMN(pl)
    q = ops.q_t_chart_jet(fd, ops.as_endo_field(fd, pl.T, 1), pl.xc).val
    return np.abs(val - sasaki_mok_inner(R, pl.v1)), _sup_each(q)


def _ev_condition_set_implications(M, fd, rngs):
    trace = og.frame_trace(fd)
    data = gm.residual_data(fd, trace)
    r1, r2 = gm.implication_residuals(data)
    tau = gm.tension_field(fd, trace)
    r3 = np.abs(tau.norm() ** 2 - (data.r_h1**2 + data.r_h2**2 + data.r_h3**2))
    return np.max([r1, r2, r3], axis=0), data.r_h1 + data.r_h2 + data.r_h3


def _ev_mixed_vertical_sectional_nonnegative(M, fd, rngs):
    n = len(rngs)
    lo, wit = np.full(n, np.inf), np.zeros(n)
    # a point stops at its first zero T: then h = so(p) + so(n) is zero there
    going = np.ones(n, dtype=bool)
    for _ in range(3):
        T = _diag_skew(fd.p, _draw(rngs, fd.d, fd.d))
        going &= _sup_each(T) >= 1e-12
        if not np.any(going):
            break
        x = _unit_chart(fd, _draw(rngs, fd.p))
        val = _sectional_at(fd, going, ("hprime", x), ("vertical", T))
        lo, wit = np.fmin(lo, val), np.fmax(wit, np.abs(val))
        Tp = _diag_skew(fd.p, _draw(rngs, fd.d, fd.d))
        # a vertical plane where T and T' do not commute, unless omn_plane refuses it
        spans = going & (_sup_each(T @ Tp - Tp @ T) > 1e-8)
        val = _sectional_at(fd, spans, ("vertical", T), ("vertical", Tp), skip_refused=True)
        lo, wit = np.fmin(lo, val), np.fmax(wit, np.abs(val))
    seen = np.isfinite(lo)
    return np.where(seen, np.maximum(0.0, -lo), 0.0), np.where(seen, wit, 0.0)


def _ev_christoffel_jets_vs_fd(M, fd, rngs):
    quantities = ("gamma_chart", "gamma_tilde")
    u = fd.u0
    errors = [_relative_errors(FD_QUANTITIES[q].jet_route(fd), fd_oracle(M, q, u), u) for q in quantities]
    return np.maximum(*errors), _sup_each(fd.Gam_chart.val)


# -- evaluators, per-manifold ----------------------------------------------------
# Each takes M, the run's sample count and seed, and returns the residual, the
# witness and a detail dict of the one row it gives.


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
    U = domain_samples(M, min(samples, 12), seed=seed)
    fd = M.frame_data(U)
    p, d, k = fd.p, fd.d, len(U)
    # one generator for all points, drawn point by point: 4 rounds of x, y, T each
    draws = np.random.default_rng(seed).standard_normal((k, 4, 2 * p + d * d))
    vals = []
    for r in range(4):
        x = _unit_chart(fd, draws[:, r, :p])
        y = _unit_chart(fd, draws[:, r, p : 2 * p])
        T = _diag_skew(p, draws[:, r, 2 * p :].reshape(k, d, d))
        everywhere = np.ones(k, dtype=bool)
        vals.append(_sectional_at(fd, everywhere, ("hprime", x), ("hprime", y), skip_refused=True))
        vals.append(_sectional_at(fd, _sup_each(T) > 1e-12, ("hprime", x), ("vertical", T)))
    vals = np.concatenate(vals)
    vals = vals[~np.isnan(vals)]
    lo, hi = float(np.min(vals, initial=np.inf)), float(np.max(np.abs(vals), initial=0.0))
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


# -- where a case applies and where its witness must be live ----------------------
# Predicates of the frame fd at a run's sample points. A quantity is nonzero
# when its sup over those points reaches WITNESS_FLOOR.


def _block_skew(fd) -> bool:
    """so(p) + so(n) is nonzero: a nonzero block-diagonal skew T exists."""
    return fd.p >= 2 or fd.n >= 2


def _curved_s(fd) -> bool:
    return _sup(fd.Smats.val) >= WITNESS_FLOOR


def _curved_s_plane(fd) -> bool:
    return fd.p >= 2 and _curved_s(fd)


def _shape_operators(fd):
    """The shape operators A[nu, a, b] = S_{e_a}[nu, b] of the unit normals e_nu, and their traces."""
    A = np.moveaxis(fd.Smats.val[..., fd.p :, : fd.p], -3, -2)
    return A, np.trace(A, axis1=-2, axis2=-1)


def _not_umbilic(fd) -> bool:
    """Some shape operator is not a multiple of the identity (so S is nonzero)."""
    A, tr = _shape_operators(fd)
    return _sup(A - tr[..., None, None] * np.eye(fd.p) / fd.p) >= WITNESS_FLOOR


def _not_minimal(fd) -> bool:
    return _sup(_shape_operators(fd)[1]) >= WITNESS_FLOOR


def _small_space_form(fd) -> bool:
    """S = 0 and R_N = kappa (delta_ik delta_jl - delta_il delta_jk) in the frame
    with 0 < kappa <= 2/3 (to within the floor, so 2/3 itself applies): there the
    hh sectional curvature kappa - 3 kappa^2 / 2 and every other one is >= 0."""
    eye = np.eye(fd.d)
    unit = np.einsum("ik,jl->ijkl", eye, eye) - np.einsum("il,jk->ijkl", eye, eye)
    R = fd.Rfr.val
    kappa = R[..., :1, 1:2, :1, 1:2]
    space_form = not _curved_s(fd) and _sup(R - kappa * unit) < WITNESS_FLOOR
    return space_form and kappa.min() >= WITNESS_FLOOR and kappa.max() - 2.0 / 3.0 < WITNESS_FLOOR


# -- the registry ---------------------------------------------------------------


@dataclass(frozen=True)
class IdentityCase:
    """One displayed relation with an independent evaluation route.

    order indexes the tolerance ladder: 1 for relations using one derivative
    of the embedding, 2 for curvature-level relations, 3 for derivatives of
    curvature and whole-map statements. applies(fd) says whether the case
    runs on a submanifold, and live(fd) whether its witness must reach
    WITNESS_FLOOR there; both read the frame fd at the run's sample points.

    A pointwise case's evaluator(M, fd, rngs) takes that frame and the
    points' generators and returns the residual and the witness at every
    point, arrays of shape (n,); each gives one row. Any other case's
    evaluator(M, samples, seed) returns (residual, witness, detail) of its
    one row.
    """

    id: str
    group: str
    statement: str
    order: int
    evaluator: object
    pointwise: bool = True
    applies: Callable = lambda fd: True
    live: Callable = lambda fd: False

    @property
    def tolerance(self) -> float:
        return TOL_LADDER[self.order]


REGISTRY = (
    IdentityCase(
        id="curvature-endo-duality",
        group="duality-relations",
        statement="g(R_T(X), Y) equals the trace pairing of R(X,Y) with T",
        order=2,
        evaluator=_ev_curvature_endo_duality,
        live=lambda fd: _sup(fd.Rfr.val) >= WITNESS_FLOOR,
    ),
    IdentityCase(
        id="vertical-endo-tangent-duality",
        group="duality-relations",
        statement="g(S_T, X) = -<T, S_X> for off-diagonal T",
        order=1,
        evaluator=_ev_vertical_endo_tangent_duality,
        live=_curved_s,
    ),
    IdentityCase(
        id="vertical-endo-pair-inner",
        group="duality-relations",
        statement="<S_V, S_Z> = -g((id - P)V, Z), symmetric in V and Z",
        order=1,
        evaluator=_ev_vertical_endo_pair_inner,
        live=_curved_s,
    ),
    IdentityCase(
        id="deformed-metric-pairing",
        group="p-operator",
        statement="g(X, PY) = g(X, Y) + <S_X, S_Y> and equals the deformed metric",
        order=1,
        evaluator=_ev_deformed_metric_pairing,
        live=_curved_s,
    ),
    IdentityCase(
        id="adapted-lift-isometry",
        group="p-operator",
        statement="the bundle metric on adapted horizontal lifts is the deformed metric",
        order=1,
        evaluator=_ev_adapted_lift_isometry,
        live=_curved_s,
    ),
    IdentityCase(
        id="gauss-tangent-block",
        group="gauss-codazzi",
        statement="block-diagonal part of R(X,Y) = R'(X,Y) + [S_X, S_Y]",
        order=2,
        evaluator=_ev_gauss_tangent_block,
        live=_curved_s_plane,
    ),
    IdentityCase(
        id="codazzi-offdiagonal-block",
        group="gauss-codazzi",
        statement="off-diagonal part of R(X,Y) = nabla'_X S_Y - nabla'_Y S_X - S_[X,Y]",
        order=2,
        evaluator=_ev_codazzi_offdiagonal,
        live=_curved_s,
    ),
    IdentityCase(
        id="block-endo-derivative-split",
        group="derivative-splits",
        statement="nabla_X T splits as [S_X, T] off-diagonal plus nabla'_X T for block T",
        order=2,
        evaluator=_ev_endo_derivative_split("h"),
        applies=_block_skew,
        live=_curved_s,
    ),
    IdentityCase(
        id="offblock-endo-derivative-split",
        group="derivative-splits",
        statement="nabla_X T splits as [S_X, T] block-diagonal plus nabla'_X T for off-diagonal T",
        order=2,
        evaluator=_ev_endo_derivative_split("m"),
        live=_curved_s,
    ),
    IdentityCase(
        id="bundle-metric-compatibility",
        group="bundle-metric-compatibility",
        statement="the frame-bundle connection is metric for the bundle inner product",
        order=2,
        evaluator=_ev_bundle_metric_compatibility,
        live=_curved_s,
    ),
    IdentityCase(
        id="deformed-connection-via-leibniz",
        group="leibniz-operator",
        statement="nabla-tilde minus nabla' equals the displayed operator L",
        order=3,
        evaluator=_ev_deformed_connection_via_leibniz,
        live=_not_umbilic,
    ),
    IdentityCase(
        id="gil-medrano-pairing",
        group="gil-medrano",
        statement="Koszul pairing of P(nabla-tilde - nabla') against the nabla'P expansion",
        order=3,
        evaluator=_ev_gil_medrano_pairing,
        live=_not_umbilic,
    ),
    IdentityCase(
        id="q-operator-deformed-skewness",
        group="q-operator",
        statement="Q_T is skew for the deformed metric when T is block-diagonal",
        order=2,
        evaluator=_ev_q_operator_deformed_skewness,
        applies=_block_skew,
        live=_curved_s,
    ),
    IdentityCase(
        id="frame-decompositions",
        group="frame-decompositions",
        statement="lift and vertical decompositions reconstruct and are orthogonal",
        order=2,
        evaluator=_ev_frame_decompositions,
        live=_curved_s,
    ),
    IdentityCase(
        id="subbundle-connection-vs-projection",
        group="subbundle-connection",
        statement="displayed subbundle connection equals the tangent projection of the bundle one",
        order=2,
        evaluator=_ev_subbundle_connection_vs_projection,
        live=_curved_s,
    ),
    IdentityCase(
        id="subbundle-second-fundamental-vs-projection",
        group="subbundle-second-fundamental",
        statement="displayed second fundamental form equals the normal projection",
        order=2,
        evaluator=_ev_subbundle_second_fundamental_vs_projection,
        live=_curved_s,
    ),
    IdentityCase(
        id="sectional-horizontal-vs-curvature",
        group="sectional-curvature",
        statement="horizontal sectional formula matches the curvature-tensor pairing",
        order=3,
        evaluator=_ev_sectional_horizontal_vs_curvature,
        applies=lambda fd: fd.p >= 2,
        live=_curved_s,
    ),
    IdentityCase(
        id="sectional-mixed-vs-curvature",
        group="sectional-curvature",
        statement="mixed sectional formula matches the curvature-tensor pairing",
        order=3,
        evaluator=_ev_sectional_mixed_vs_curvature,
        applies=_block_skew,
        live=_curved_s,
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
        applies=_small_space_form,
        live=_small_space_form,
    ),
    IdentityCase(
        id="mixed-vertical-sectional-nonnegative",
        group="nonnegative-curvature",
        statement="mixed and vertical plane curvatures are nonnegative",
        order=3,
        evaluator=_ev_mixed_vertical_sectional_nonnegative,
        live=_curved_s_plane,
    ),
    IdentityCase(
        id="minimality-harmonicity-equivalence",
        group="theorem-equivalence",
        statement="subbundle minimality and plane-map harmonicity verdicts coincide",
        order=3,
        evaluator=_ev_minimality_harmonicity_equivalence,
        pointwise=False,
        live=_not_minimal,
    ),
    IdentityCase(
        id="condition-set-implications",
        group="condition-algebra",
        statement="the two residual condition sets imply each other through exact identities",
        order=3,
        evaluator=_ev_condition_set_implications,
        live=_not_minimal,
    ),
    IdentityCase(
        id="christoffel-jets-vs-fd",
        group="jets-vs-fd",
        statement="induced and deformed Christoffel symbols match central differences",
        order=3,
        evaluator=_ev_christoffel_jets_vs_fd,
        live=_curved_s_plane,
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
    submanifold whose geometry makes the case's live predicate true). It is
    None on passing rows.
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
    error_kind: str | None = None
    detail: dict | None = None


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
        """Per case: group, row count, max and mean of the residuals present, all passed."""
        rows: dict = {}
        for r in self.results:
            rows.setdefault(r.case_id, []).append(r)
        out = {}
        for case_id, rs in rows.items():
            res = [r.residual for r in rs if r.residual is not None]
            out[case_id] = {
                "group": rs[0].group,
                "n": len(rs),
                "max_residual": max(res) if res else None,
                "mean_residual": sum(res) / len(res) if res else None,
                "passed": all(r.passed for r in rs),
            }
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
            "results": [asdict(r) for r in self.results],
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
    list of either. samples: the sample count of each sampled case, an
    integer >= 1. seed: an integer >= 0. groups: None for every case group,
    a group name, or a collection of group names to restrict the run to.
    """
    t0 = time.perf_counter()
    if builtins is None:
        builtins = DEFAULT_BUILTINS
    if isinstance(builtins, (str, ImmersedSubmanifold)):
        builtins = [builtins]
    manifolds = [_as_manifold(b) for b in builtins]
    # a run over no submanifolds or no cases would report its verdict on no evidence
    if not manifolds:
        raise VerifyError("no submanifolds to check")
    if not is_int(samples) or samples < 1:
        raise VerifyError(f"samples must be an integer >= 1, got {samples!r}")
    if not is_int(seed) or seed < 0:
        raise VerifyError(f"seed must be an integer >= 0, got {seed!r}")
    if groups is not None:
        groups = {groups} if isinstance(groups, str) else set(groups)
        if not groups:
            raise VerifyError("no case groups to check")
        bad = groups - REQUIRED_GROUPS
        if bad:
            raise VerifyError(f"unknown case groups: {sorted(bad)}")
    report = VerificationReport(seed=seed, samples=samples, builtins=tuple(n for n, _ in manifolds))
    points = [domain_samples(M, samples, seed=seed) for _, M in manifolds]
    plans = [_plan(M, u) for (_, M), u in zip(manifolds, points)]
    for ci, case in enumerate(REGISTRY):
        if groups is not None and case.group not in groups:
            continue
        for bi, (name, M) in enumerate(manifolds):
            frame, flags = plans[bi]
            applies, live = flags[ci]
            if applies:
                report.results.extend(_run_case(case, ci, name, bi, M, samples, seed, points[bi], frame, live))
    report.runtime_seconds = time.perf_counter() - t0
    report.generated_at = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return report


def _plan(M, points) -> tuple:
    """The frame at the sample points, and (applies, live) of each registry
    case on M read from it. Where the frame cannot be built, its error takes
    its place and every case runs unwitnessed."""
    try:
        fd = M.frame_data(points)
    except (FrameError, AmbientError, ExprError) as exc:
        # the pointwise cases report the failure row by row
        return exc, [(True, False)] * len(REGISTRY)
    return fd, [(case.applies(fd), case.live(fd)) for case in REGISTRY]


def _run_case(case, ci, name, bi, M, samples, seed, points, frame, live):
    """The rows of a case on M: one per sample point for a pointwise case,
    all from one evaluation on the frame at the points (or the error that
    stopped its build), else one. When the evaluation raises, each of its
    rows is a crash row naming the error."""
    tol = case.tolerance
    at = [tuple(u) for u in points] if case.pointwise else [None]
    n = len(points)
    try:
        if case.pointwise:
            if isinstance(frame, Exception):
                raise frame
            rngs = [np.random.default_rng(np.random.SeedSequence([seed, ci, bi, pi])) for pi in range(n)]
            out = case.evaluator(M, frame, rngs)
            residuals, witnesses = (np.asarray(x, dtype=float) for x in out)
            if residuals.shape != (n,) or witnesses.shape != (n,):
                shapes = f"{residuals.shape} residuals and {witnesses.shape} witnesses"
                raise VerifyError(f"evaluator gave {shapes} for {n} points")
            details = [None] * n
        else:
            residual, witness, detail = case.evaluator(M, samples, seed)
            residuals, witnesses, details = [residual], [witness], [detail]
    except Exception as exc:  # noqa: BLE001 - reported, not fatal
        error = f"{type(exc).__name__}: {exc}"
        rows = [CaseResult(case.id, case.group, name, u, None, None, tol, False, error, "crash") for u in at]
    else:
        rows = []
        for point, residual, witness, detail in zip(at, residuals, witnesses, details):
            passed = bool(residual < tol)
            rows.append(CaseResult(
                case.id, case.group, name, point, float(residual), float(witness), tol, passed,
                error_kind=None if passed else "over_tol", detail=detail,
            ))
    max_witness = max((r.witness for r in rows if r.witness is not None), default=0.0)
    if live and max_witness < WITNESS_FLOOR:
        rows.append(CaseResult(
            case.id, case.group, name, None, max_witness, max_witness, tol, False,
            "vacuous check: witness magnitude below floor", "vacuous",
        ))
    return rows


# -- finite-difference oracles -------------------------------------------------

# Chart fields X, Y of the oracles; a p-chart takes the first p, so entry k uses only u1..u(k+1).
_DEFAULT_X = ["0.7+0.3*u1", "u2-0.4", "0.5*u1"] + [f"0.3+0.2*u{k}" for k in range(4, 9)]
_DEFAULT_Y = ["u1*u1-0.2", "0.6", "u2+0.1*u1"] + [f"u{k - 1}*u{k}-0.1" for k in range(4, 9)]


class FDQuantity(NamedTuple):
    """A quantity of the FD check: its step h; the jet order of the frames
    its FD route reads, the lowest whose values it needs; its FD route
    fd_route(M, u, h, frame), which hands finite_diff metric and field
    functions that read frame(U), the frame at a batch U built to that
    order, or metric_at(M.ambient, X); its jet route jet_route(fd) at the
    frame fd of u, which jet_value builds to order 3: Gamt.val and Rfr.val,
    the deepest reads of any jet route, are valid there and not at order 2.
    Both take u of shape (p,) or (n, p), and their values lead with u's
    batch axes, () at one point (submanifold's batch convention)."""

    h: float
    order: int
    fd_route: Callable
    jet_route: Callable


def _xy(fd, order: int):
    """The default fields X, Y as chart-coefficient jets on the frame fd, of
    the order the reader differentiates them to: 1 on the jet routes, 0 where
    an FD route reads their values."""
    return tuple(ops.as_chart_field(fd, f[: fd.p], order) for f in (_DEFAULT_X, _DEFAULT_Y))


def _fd_connection(M, u, h, frame, attr: str):
    """FD route of nabla_X Y in chart components for the Levi-Civita
    connection of the chart metric attr ("g_chart" or "gt_chart")."""
    x0, y0 = (j.val for j in _xy(frame(u), 0))
    Y = lambda U: ops.as_chart_field(frame(U), _DEFAULT_Y[: M.p], 0).val
    dY = finite_diff.central_diff(Y, u, h)
    gam = finite_diff.christoffels(lambda U: getattr(frame(U), attr).val, u, h)
    return np.einsum("...a,...ac->...c", x0, dY) + np.einsum("...cab,...a,...b->...c", gam, x0, y0)


def _fd_nabla_vec(M, u, h, frame):
    """FD route of nabla_X Y in ambient components: the derivative of Y's
    ambient components along X plus the ambient Christoffels at phi(u)."""
    fd0 = frame(u)
    x0 = ops.as_chart_field(fd0, _DEFAULT_X[: M.p], 0).val

    def yamb(U):
        at = frame(U)
        return np.matmul(at.J.val, ops.as_chart_field(at, _DEFAULT_Y[: M.p], 0).val[..., None])[..., 0]

    gam = finite_diff.christoffels(lambda X: metric_at(M.ambient, X), fd0.x0, h)
    dY = np.matmul(x0[..., None, :], finite_diff.central_diff(yamb, u, h))[..., 0, :]
    Jx = np.matmul(fd0.J.val, x0[..., None])[..., 0]
    return dY + np.einsum("...ijk,...j,...k->...i", gam, Jx, yamb(u))


def _fd_curvature_ambient(M, u, h, frame):
    """FD route of the ambient curvature in frame components, g(R(e_k, e_l) e_j, e_i)."""
    fd0 = frame(u)
    metric = lambda X: metric_at(M.ambient, X)
    low = np.einsum("...im,...mjkl->...ijkl", metric(fd0.x0), finite_diff.curvature(metric, fd0.x0, h))
    E = fd0.E.val
    return np.einsum("...ijkl,...ia,...jb,...kc,...ld->...abcd", low, E, E, E, E)


def _jet_nabla_vec(fd):
    Xc, Yc = _xy(fd, 1)
    yF = ops.ambient_deriv_frame(fd, Xc, ops.full_frame_field(fd, Yc)).val
    return np.matmul(fd.E.val, yF[..., None])[..., 0]


def _jet_curvature_prime(fd):
    """R'^i_{jab} in chart components by the block-splitting route, all pairs
    (a, b) at once: their axes broadcast ahead of the batch axes, then follow."""
    p, nb = fd.p, len(fd.batch)
    eye = np.eye(p)
    xs = eye.reshape((p,) + (1,) * (nb + 1) + (p,))
    ys = eye.reshape((1, p) + (1,) * nb + (p,))
    blk = ops.curvature_prime_jet(fd, xs, ys).val[..., :p, :p]
    blk = np.moveaxis(blk, (0, 1), (nb, nb + 1))
    return np.einsum("...iA,...abAB,...Bj->...ijab", fd.C.val, blk, fd.Dmat.val)


# Steps: 1e-4 for quantities of first derivatives of the metric, 1e-3 for curvatures.
# Orders: each FD route reads only values of its frames, so they are built no
# higher than those values need (order 3 is what the jet route reads at u).
FD_QUANTITIES = {
    # order 2 for the whole h = 1e-4 stencil: gt_chart.val needs it, and one
    # order for all six readers (christoffel-jets-vs-fd too) keeps it one build
    "gamma_chart": FDQuantity(
        1e-4,
        2,
        lambda M, u, h, frame: finite_diff.christoffels(lambda U: frame(U).g_chart.val, u, h),
        lambda fd: fd.Gam_chart.val,
    ),
    "gamma_tilde": FDQuantity(
        1e-4,
        2,
        lambda M, u, h, frame: finite_diff.christoffels(lambda U: frame(U).gt_chart.val, u, h),
        lambda fd: fd.Gamt.val,
    ),
    "nabla_vec": FDQuantity(1e-4, 2, _fd_nabla_vec, _jet_nabla_vec),
    "nabla_prime_vec": FDQuantity(
        1e-4,
        2,
        partial(_fd_connection, attr="g_chart"),
        lambda fd: ops.vec_nabla_prime_jet(fd, *_xy(fd, 1)).val,
    ),
    "nabla_tilde_vec": FDQuantity(
        1e-4,
        2,
        partial(_fd_connection, attr="gt_chart"),
        lambda fd: ops.vec_tilde_nabla_jet(fd, *_xy(fd, 1)).val,
    ),
    # order 1: E.val and x0 at u are all this route reads of a frame
    "curvature_ambient": FDQuantity(1e-3, 1, _fd_curvature_ambient, lambda fd: fd.Rfr.val),
    # order 1 for both h = 1e-3 stencil levels: they read only g_chart.val
    "curvature_prime": FDQuantity(
        1e-3,
        1,
        lambda M, u, h, frame: finite_diff.curvature(lambda U: frame(U).g_chart.val, u, h),
        _jet_curvature_prime,
    ),
}


def _fd_quantity(quantity: str) -> FDQuantity:
    if quantity not in FD_QUANTITIES:
        raise VerifyError(f"unknown finite-difference quantity {quantity!r}")
    return FD_QUANTITIES[quantity]


def fd_oracle(M: ImmersedSubmanifold, quantity: str, u):
    """Recompute a derived quantity by central differences of point values,
    at u of shape (p,) or (n, p); the value leads with u's batch axes, and
    the shapes below follow them.

    gamma_chart / gamma_tilde: Christoffels of the induced and deformed chart
    metrics, shape (p, p, p). nabla_vec: ambient covariant derivative of a
    tangent field along a tangent field, ambient components. nabla_prime_vec
    / nabla_tilde_vec: chart components for the induced and deformed
    connections. curvature_ambient: frame-component curvature tensor of the
    ambient space. curvature_prime: chart curvature tensor of the induced
    metric, compared against the block-splitting route on the jet side.
    """
    q = _fd_quantity(quantity)
    return q.fd_route(M, np.asarray(u, dtype=float), q.h, partial(M.frame_data, order=q.order))


def jet_value(M: ImmersedSubmanifold, quantity: str, u):
    """The jet-route value matching fd_oracle's conventions, at u of shape
    (p,) or (n, p), read from the frame at u built to order 3 (see
    FDQuantity). fd_relative_error takes this route first, so that frame
    also serves the FD routes' reads at u, of orders 2 and 1."""
    return _fd_quantity(quantity).jet_route(M.frame_data(np.asarray(u, dtype=float), 3))


def _relative_errors(a, b, u):
    """max |a - b| / (1 + max |a|) at each of the points u (..., p): over
    the axes of a after u's batch axes."""
    axes = tuple(range(np.ndim(u) - 1, np.ndim(a)))
    return np.max(np.abs(a - b), axis=axes) / (1.0 + np.max(np.abs(a), axis=axes))


def fd_relative_error(M: ImmersedSubmanifold, quantity: str, u):
    """Relative error of the FD route against the jet route at u of shape
    (p,) or (n, p): one per point, so a numpy scalar at one point."""
    return _relative_errors(jet_value(M, quantity, u), fd_oracle(M, quantity, u), u)
