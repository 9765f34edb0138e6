"""A frame built at a batch of points against frames built one point at a
time, a stack of directions against one call per direction, and the errors
a batch or a stack raises."""

import re

import numpy as np
import pytest

from framelab import omn_geometry as og
from framelab import operators as ops
from framelab import verify
from framelab.ambient import euclidean
from framelab.frame_bundle import LiftedVector, horizontal_lift_prime, lifted
from framelab.jets import Jet, jet_along, jet_einsum, jstack
from framelab.omn_geometry import domain_samples, frame_trace, mean_curvature_OMN, tilde_frame_fields
from framelab.submanifold import FrameError, ImmersedSubmanifold, builtin_submanifold

ALL_BUILTINS = ("plane", "plane3", "circle", "sphere2", "catenoid", "great2(0.5)", "clifford")

# Every attribute of the FramePointData table.
TABLE = (
    "phi", "J", "G", "Gam", "R", "E", "Einv", "omega", "C", "Dmat", "g_chart",
    "Gam_chart", "Smats", "Pfr", "gt_chart", "Gamt", "Rt_chart", "W", "Wchart", "Rfr",
)


def assert_agree(batched, per_point, what):
    """The batched value against the per-point values stacked: jets have the
    same valid order and agree in every coefficient."""
    if isinstance(batched, Jet):
        assert [j.valid for j in per_point] == [batched.valid] * len(per_point), what
        got = batched.coeffs
        want = np.stack([j.coeffs for j in per_point])
    else:
        got, want = batched, np.stack(per_point)
    assert got.shape == want.shape, what
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-13, what


def frames(name):
    M = builtin_submanifold(name)
    U = domain_samples(M, 4, seed=4)
    return M.frame_data(U), [M.frame_data(u) for u in U]


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_batched_frame_matches_pointwise(name):
    batch, points = frames(name)
    assert batch.u0.shape == (4, batch.p)
    for attr in TABLE:
        assert_agree(getattr(batch, attr), [getattr(fd, attr) for fd in points], attr)


def primitives(fd):
    """Each frame-field primitive that frame_trace and the assembly of Pi
    call, on fields of the frame fd, by name."""
    Ec = tilde_frame_fields(fd)[0]
    Fc = tilde_frame_fields(fd)[-1]
    EF = ops.full_frame_field(fd, Ec)
    SE = ops.s_field_matrix(fd, Ec)
    trace = frame_trace(fd)
    return {
        "tilde_frame_fields": Ec,
        "frame_of_chart": ops.frame_of_chart(fd, Ec),
        "full_frame_field": EF,
        "omega_along": ops.omega_along(fd, Ec),
        "omega_along_prime": ops.omega_along(fd, Ec, "prime"),
        "s_field_matrix": SE,
        "ambient_deriv_frame": ops.ambient_deriv_frame(fd, Fc, EF),
        "rt_matrix_jet": ops.rt_matrix_jet(fd, SE),
        "vec_nabla_prime_jet": ops.vec_nabla_prime_jet(fd, Ec, Fc),
        "vec_tilde_nabla_jet": ops.vec_tilde_nabla_jet(fd, Fc, Ec),
        "nabla_t_field_jet": ops.nabla_t_field_jet(fd, SE, Fc, "prime"),
        "s_tm_tangent_jet": ops.s_tm_tangent_jet(fd, SE),
        "solve_P": ops.solve_P(fd, ops.frame_of_chart(fd, Ec)),
        "solve_P_values": ops.solve_P(fd, ops.frame_of_chart(fd, Ec).val),
        **{f"frame_trace_{k}": s for k, s in enumerate(trace)},
        "mean_curvature_horizontal": mean_curvature_OMN(fd, trace).horizontal,
        "mean_curvature_vertical": mean_curvature_OMN(fd, trace).vertical,
    }


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_batched_primitives_match_pointwise(name):
    batch, points = frames(name)
    got = primitives(batch)
    want = [primitives(fd) for fd in points]
    for key, value in got.items():
        assert_agree(value, [w[key] for w in want], key)


# -- what a batch refuses --------------------------------------------------------


def test_batch_point_outside_chart_is_named():
    M = builtin_submanifold("sphere2")
    U = domain_samples(M, 4, seed=0)
    U[2] = [3.0, 0.1]
    with pytest.raises(FrameError, match=re.escape(f"{U[2].tolist()} outside")):
        M.frame_data(U)


def test_circle_batch_through_quarter_turn_raises():
    with pytest.raises(FrameError):
        builtin_submanifold("circle").frame_data(np.array([[0.0], [np.pi / 2]]))
    # On a chart wide enough to hold u = pi/2 the center normal e_1 is
    # parallel to the tangent there, and the breakdown names that point.
    M = ImmersedSubmanifold(1, [[-1.6, 1.6]], ["cos(u1)", "sin(u1)"], euclidean(2))
    U = np.array([[0.0], [0.5], [np.pi / 2], [-0.5]])
    with pytest.raises(FrameError, match=re.escape(f"completion failure at vector 2 at {[np.pi / 2]}")):
        M.frame_data(U)


@pytest.mark.parametrize("shape", [(3, 3), (3,), (2, 2, 2), (0, 2)])
def test_batch_of_wrong_shape_rejected(shape):
    M = builtin_submanifold("sphere2")
    with pytest.raises(FrameError, match="shape"):
        M.frame_data(np.full(shape, 1.0))


def test_single_point_after_batch_at_same_point():
    M = builtin_submanifold("clifford")
    U = domain_samples(M, 3, seed=1)
    batch = M.frame_data(U)
    single = M.frame_data(U[0])
    assert single is not batch
    assert single.u0.shape == (2,)
    assert single.E.shape == (3, 3)
    assert np.array_equal(single.E.coeffs, batch.E.coeffs[0])
    assert M.frame_data(U) is batch


# -- a stack of directions against the per-direction loops -----------------------
# Each reference below is the loop a site ran before its directions became a
# stack axis, kept as the reference: the stacked call must equal it bitwise.

X_FIELD = ["0.7+0.3*u1", "u2-0.4", "0.5*u1"]
Y_FIELD = ["u1*u1-0.2", "0.6", "u2+0.1*u1"]
Z_FIELD = ["0.2-u1", "0.3*u1*u2+0.5", "0.1"]


def run_frame(name, n=5, seed=7):
    M = builtin_submanifold(name)
    return M, M.frame_data(domain_samples(M, n, seed=seed))


def generators(n, key=3):
    return [np.random.default_rng(np.random.SeedSequence([key, pi])) for pi in range(n)]


def chart_fields(fd, order, *fields):
    return [ops.as_chart_field(fd, f[: fd.p], order) for f in fields]


def h_type(fd, seed):
    """A block-diagonal skew matrix at each point (zero where so(p) + so(n) is)."""
    m = np.random.default_rng(seed).standard_normal(fd.batch + (fd.d, fd.d))
    m = m - np.swapaxes(m, -1, -2)
    return m * fd.hmask


def assert_same(got, want, what=""):
    """Bitwise equality of jets, lifted vectors, arrays or tuples of them."""
    if isinstance(want, (tuple, list)):
        assert len(got) == len(want), what
        for k, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{what}[{k}]")
    elif isinstance(want, Jet):
        assert got.valid == want.valid and np.array_equal(got.coeffs, want.coeffs), what
    elif isinstance(want, LiftedVector):
        assert_same((got.horizontal, got.vertical), (want.horizontal, want.vertical), what)
    elif isinstance(want, dict):
        assert got.keys() == want.keys(), what
        for k in want:
            assert_same(got[k], want[k], f"{what}[{k}]")
    else:
        assert np.shape(got) == np.shape(want) and np.array_equal(got, want, equal_nan=True), what


# verify's private draw helpers, as the loops called them
def draw(rngs, *shape):
    return np.stack([rng.standard_normal(shape) for rng in rngs])


def sup_each(a):
    return np.max(np.abs(a).reshape(a.shape[0], -1), axis=1)


def unit_chart(fd, x):
    return x / np.sqrt(np.einsum("...i,...i->...", x, ops.matvec(fd.g_chart.val, x)))[..., None]


def diag_skew(p, m):
    m = m - np.swapaxes(m, -1, -2)
    m[..., :p, p:] = 0.0
    m[..., p:, :p] = 0.0
    return m / np.sqrt(np.maximum(ops.skew_inner(m, m), 1e-300))[..., None, None]


def affine_field(fd, rngs):
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
    return j * (1.0 / np.sqrt(np.einsum("...i,...i->...", j.val, ops.matvec(g, j.val))))[..., None]


def evaluator(case_id):
    return next(case.evaluator for case in verify.REGISTRY if case.id == case_id)


def loop_second_fundamental_hh(fd, Xc, Yc):
    """Pi(X^{h'}, Y^{h'}) from its pieces, each term and its swap a call of
    its own, assembled as second_fundamental_OMN assembles them."""
    xF = ops.full_frame_field(fd, Xc)
    yF = ops.full_frame_field(fd, Yc)
    SX = ops.s_field_matrix(fd, Xc)
    SY = ops.s_field_matrix(fd, Yc)
    nab = ops.ambient_deriv_frame(fd, Xc, yF)
    rsum = jet_einsum("...ij,...j->...i", ops.rt_matrix_jet(fd, SX), yF) + jet_einsum(
        "...ij,...j->...i", ops.rt_matrix_jet(fd, SY), xF
    )
    V = ops.vec_nabla_prime_jet(fd, Xc, Yc) + ops.vec_nabla_prime_jet(fd, Yc, Xc)
    m_endo = ops.nabla_t_field_jet(fd, SY, Xc, "prime") + ops.nabla_t_field_jet(fd, SX, Yc, "prime")
    p, d = fd.p, fd.d
    nmask = np.concatenate([np.zeros(p), np.ones(d - p)])
    rhs = ops.s_tm_tangent_jet(fd, m_endo) - ops.frame_of_chart(fd, V) - rsum[..., :p]
    Zc = jet_einsum("...aA,...A->...a", fd.C, ops.solve_P(fd, rhs))
    horiz = nab * nmask + 0.5 * (rsum + ops.full_frame_field(fd, V + Zc))
    vert = 0.5 * (m_endo + ops.s_field_matrix(fd, Zc))
    return lifted(fd, horizontal=horiz.val, vertical=0.5 * (vert.val - np.swapaxes(vert.val, -1, -2)))


def loop_L_op(fd, Xf, Yf):
    Xc, Yc = ops.as_chart_field(fd, Xf, 1), ops.as_chart_field(fd, Yf, 1)
    TX = ops.s_field_matrix(fd, Xc)
    TY = ops.s_field_matrix(fd, Yc)
    q1 = ops.q_t_chart_jet(fd, TX, Yc).val
    q2 = ops.q_t_chart_jet(fd, TY, Xc).val
    Zc = ops.vec_nabla_prime_jet(fd, Xc, Yc) + ops.vec_nabla_prime_jet(fd, Yc, Xc)
    svec = ops.s_tm_tangent_jet(fd, ops.s_field_matrix(fd, Zc)).val
    q3 = ops.matvec(fd.C.val, ops.solve_P(fd, svec))
    return 0.5 * (q1 + q2 + q3)


def d_x_r_prime(fd, Xc, Yc, Zc):
    RYZ = ops.curvature_prime_jet(fd, Yc, Zc)
    out = ops.nabla_t_field_jet(fd, RYZ, Xc, "prime")
    out = out - ops.curvature_prime_jet(fd, ops.vec_tilde_nabla_jet(fd, Xc, Yc), Zc)
    return out - ops.curvature_prime_jet(fd, Yc, ops.vec_tilde_nabla_jet(fd, Xc, Zc))


def loop_curvature_hhh(fd, Xc, Yc, Zc):
    step = jet_einsum("...cdab,...a->...cdb", fd.Rt_chart, Xc)
    step = jet_einsum("...cdb,...b->...cd", step, Yc)
    chart = jet_einsum("...cd,...d->...c", step, Zc)
    q = (
        ops.q_t_chart_jet(fd, ops.curvature_prime_jet(fd, Yc, Zc), Xc)
        - ops.q_t_chart_jet(fd, ops.curvature_prime_jet(fd, Xc, Zc), Yc)
        - 2.0 * ops.q_t_chart_jet(fd, ops.curvature_prime_jet(fd, Xc, Yc), Zc)
    )
    chart = chart - 0.25 * q
    vert = -0.5 * (d_x_r_prime(fd, Xc, Yc, Zc) - d_x_r_prime(fd, Yc, Xc, Zc))
    return horizontal_lift_prime(fd, chart.val) + lifted(fd, vertical=vert.val)


def loop_curvature_hvv(fd, Xc, Tj, Tpj):
    commTT = ops.commutator_jet(Tj, Tpj)
    chart = -0.25 * (ops.q_t_chart_jet(fd, commTT, Xc) + ops.q_t_chart_jet(fd, Tj, ops.q_t_chart_jet(fd, Tpj, Xc)))
    return horizontal_lift_prime(fd, chart.val)


def loop_frame_trace(fd):
    terms = []
    for Ec in tilde_frame_fields(fd):
        Ec = ops.as_chart_field(fd, Ec, 1)
        EF = ops.full_frame_field(fd, Ec)
        SE = ops.s_field_matrix(fd, Ec)
        terms.append(
            (
                ops.ambient_deriv_frame(fd, Ec, EF),
                jet_einsum("...ij,...j->...i", ops.rt_matrix_jet(fd, SE.cut(0)), EF.cut(0)),
                ops.vec_nabla_prime_jet(fd, Ec, Ec),
                ops.vec_tilde_nabla_jet(fd, Ec, Ec),
                ops.nabla_t_field_jet(fd, SE, Ec, "prime"),
            )
        )
    return tuple(sum(col[1:], col[0]) for col in zip(*terms))


def loop_pi_norms(fd):
    """The norms of Pi at each hh pair (A <= B) and each hv pair (A, T_ij)
    of is_totally_geodesic, one call per pair."""
    p, d = fd.p, fd.d
    frames = tilde_frame_fields(fd)
    hh = [og.second_fundamental_OMN(fd, "hh", frames[A], frames[B]).norm() for A in range(p) for B in range(A, p)]
    hv = [
        og.second_fundamental_OMN(fd, "hv", frames[A], ops.basis_T(d, i, j)).norm()
        for A in range(p)
        for i in range(d)
        for j in range(i + 1, d)
        if (i < p) == (j < p)
    ]
    return hh, hv


def loop_sectional_at(fd, mask, spec1, spec2, skip_refused=False):
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


def loop_space_form(M, samples, seed):
    U = domain_samples(M, min(samples, 12), seed=seed)
    fd = M.frame_data(U)
    p, d, k = fd.p, fd.d, len(U)
    draws = np.random.default_rng(seed).standard_normal((k, 4, 2 * p + d * d))
    vals = []
    for r in range(4):
        x = unit_chart(fd, draws[:, r, :p])
        y = unit_chart(fd, draws[:, r, p : 2 * p])
        T = diag_skew(p, draws[:, r, 2 * p :].reshape(k, d, d))
        everywhere = np.ones(k, dtype=bool)
        vals.append(loop_sectional_at(fd, everywhere, ("hprime", x), ("hprime", y), skip_refused=True))
        vals.append(loop_sectional_at(fd, sup_each(T) > 1e-12, ("hprime", x), ("vertical", T)))
    vals = np.concatenate(vals)
    vals = vals[~np.isnan(vals)]
    lo, hi = float(np.min(vals, initial=np.inf)), float(np.max(np.abs(vals), initial=0.0))
    return float(max(0.0, -lo)), hi, {"min_sectional": lo, "max_abs_sectional": hi}


def loop_mixed_vertical(M, fd, rngs):
    n = len(rngs)
    lo, wit = np.full(n, np.inf), np.zeros(n)
    going = np.ones(n, dtype=bool)
    for _ in range(3):
        T = diag_skew(fd.p, draw(rngs, fd.d, fd.d))
        going &= sup_each(T) >= 1e-12
        if not np.any(going):
            break
        x = unit_chart(fd, draw(rngs, fd.p))
        val = loop_sectional_at(fd, going, ("hprime", x), ("vertical", T))
        lo, wit = np.fmin(lo, val), np.fmax(wit, np.abs(val))
        Tp = diag_skew(fd.p, draw(rngs, fd.d, fd.d))
        spans = going & (sup_each(T @ Tp - Tp @ T) > 1e-8)
        val = loop_sectional_at(fd, spans, ("vertical", T), ("vertical", Tp), skip_refused=True)
        lo, wit = np.fmin(lo, val), np.fmax(wit, np.abs(val))
    seen = np.isfinite(lo)
    return np.where(seen, np.maximum(0.0, -lo), 0.0), np.where(seen, wit, 0.0)


def loop_gil_medrano(M, fd, rngs):
    p = fd.p
    Xc = affine_field(fd, rngs)
    Yc = affine_field(fd, rngs)
    Zc = affine_field(fd, rngs)

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
    wit = np.max([sup_each(nabla_prime_P(ops.as_chart_field(fd, e, 0)).val) for e in np.eye(p)], axis=0)
    return np.abs(lhs - rhs), wit


def loop_gauss_tangent_block(M, fd, rngs):
    p = fd.p
    omh = fd.omega.cut(1) * fd.hmask
    om = lambda a: omh[..., a, :, :]
    S = lambda a: fd.omega.val[..., a, :, :] * fd.mmask
    e = [ops.as_chart_field(fd, x, 0) for x in np.eye(p)]
    worst = wit = np.zeros(len(rngs))
    for a in range(p):
        for b in range(a + 1, p):
            Fp = (om(b).d(a) - om(a).d(b) + ops.commutator_jet(om(a), om(b))).val
            Rp = ops.curvature_prime_jet(fd, e[a], e[b]).val
            worst = np.maximum(worst, sup_each(Fp - Rp))
            wit = np.maximum(wit, sup_each(S(a) @ S(b) - S(b) @ S(a)))
    return worst, wit


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_pi_and_curvature_stack_their_swapped_arguments(name):
    """The pieces of Pi, L and the hhh and hvv curvature, each with its
    swapped or repeated arguments as one stack, equal the loop bitwise."""
    M, fd = run_frame(name)
    X1, Y1, Z1 = chart_fields(fd, 1, X_FIELD, Y_FIELD, Z_FIELD)
    assert_same(og.second_fundamental_OMN(fd, "hh", X1, Y1), loop_second_fundamental_hh(fd, X1, Y1), "Pi")
    assert_same(ops.L_op(fd, X_FIELD[: fd.p], Y_FIELD[: fd.p]), loop_L_op(fd, X_FIELD[: fd.p], Y_FIELD[: fd.p]), "L")
    assert_same(og.curvature_OMN(fd, "hhh", X1, Y1, Z1), loop_curvature_hhh(fd, X1, Y1, Z1), "hhh")
    X2 = ops.as_chart_field(fd, X_FIELD[: fd.p], 2)
    T, Tp = h_type(fd, 1), h_type(fd, 2)
    Tj, Tpj = (ops.as_endo_field(fd, t, 2) for t in (T, Tp))
    assert_same(og.curvature_OMN(fd, "hvv", X2, T, Tp), loop_curvature_hvv(fd, X2, Tj, Tpj), "hvv")


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_frame_fields_and_pairs_are_one_stack(name):
    """frame_trace's p fields and is_totally_geodesic's hh and hv pairs,
    each one stacked call, equal the loop bitwise."""
    M, fd = run_frame(name)
    assert_same(frame_trace(fd), loop_frame_trace(fd), "frame trace")
    hh, hv = loop_pi_norms(fd)
    rep = og.is_totally_geodesic(M, samples=5, seed=7)
    assert rep.max_pi_residual == max(float(np.max(nrm)) for nrm in hh + hv)
    frames = tilde_frame_fields(fd)
    p, d = fd.p, fd.d
    pairs = [(A, B) for A in range(p) for B in range(A, p)]
    X, Y = (jstack([frames[pair[k]] for pair in pairs], axis=0) for k in (0, 1))
    assert_same(list(og.second_fundamental_OMN(fd, "hh", X, Y).norm()), hh, "hh norms")
    blocks = [(A, i, j) for A in range(p) for i in range(d) for j in range(i + 1, d) if (i < p) == (j < p)]
    if blocks:
        X = jstack([frames[A] for A, _, _ in blocks], axis=0)
        T = np.stack([np.broadcast_to(ops.basis_T(d, i, j), fd.batch + (d, d)) for _, i, j in blocks])
        assert_same(list(og.second_fundamental_OMN(fd, "hv", X, T).norm()), hv, "hv norms")


def pre_change_frame_trace(fd):
    """frame_trace as it was, each term from its own primitive: both chart
    connections form their own derivative of e along e and e (x) e, and
    nabla_e e and nabla'_e S_e their own omega_e."""
    Ec = ops.as_chart_field(fd, jstack(tilde_frame_fields(fd), axis=0), 1)
    EF = ops.full_frame_field(fd, Ec)
    SE = ops.s_field_matrix(fd, Ec)
    terms = (
        ops.ambient_deriv_frame(fd, Ec, EF),
        jet_einsum("...ij,...j->...i", ops.rt_matrix_jet(fd, SE.cut(0)), EF.cut(0)),
        ops.vec_nabla_prime_jet(fd, Ec, Ec),
        ops.vec_tilde_nabla_jet(fd, Ec, Ec),
        ops.nabla_t_field_jet(fd, SE, Ec, "prime"),
    )
    return tuple(sum((t[A] for A in range(1, fd.p)), t[0]) for t in terms)


@pytest.mark.parametrize("name", ALL_BUILTINS + ("pseudosphere",))
def test_frame_trace_shares_its_pieces_bitwise(name):
    """frame_trace forms omega_e, the derivative of e along e and e (x) e
    once each, and its five sums equal those of one primitive per term
    bitwise, at a batch and at one point."""
    M, fd = run_frame(name)
    assert_same(frame_trace(fd), pre_change_frame_trace(fd), "frame trace")
    single = M.frame_data(fd.u0[0])
    assert_same(frame_trace(single), pre_change_frame_trace(single), "frame trace at one point")


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_registry_sweeps_are_one_stack(name):
    """The sectional rounds of space-form-sectional-nonnegative and
    mixed-vertical-sectional-nonnegative, the three pairings and the p
    witness directions of gil-medrano-pairing and the coordinate pairs of
    gauss-tangent-block equal the loop bitwise."""
    M, fd = run_frame(name)
    assert_same(evaluator("space-form-sectional-nonnegative")(M, 5, 7), loop_space_form(M, 5, 7), "space form")
    for case_id, loop in (
        ("mixed-vertical-sectional-nonnegative", loop_mixed_vertical),
        ("gil-medrano-pairing", loop_gil_medrano),
        ("gauss-tangent-block", loop_gauss_tangent_block),
    ):
        assert_same(evaluator(case_id)(M, fd, generators(5)), loop(M, fd, generators(5)), case_id)


def test_stacked_plane_refusal_names_its_point():
    """A zero direction in round 2 of a stack of 3 planes at 5 points: the
    refusal's where has the (stack, batch) shape and holds only there, and
    the message names that point."""
    M, fd = run_frame("sphere2")
    rng = np.random.default_rng(5)
    x, y = rng.standard_normal((2, 3) + fd.batch + (2,))
    x[1, 3] = 0.0
    message = f"horizontal direction vanishes at u = {fd.u0[3].tolist()}"
    with pytest.raises(og.OmnError, match=re.escape(message)) as exc:
        og.omn_plane(fd, ("hprime", x), ("hprime", y))
    want = np.zeros((3, 5), dtype=bool)
    want[1, 3] = True
    assert exc.value.where.shape == (3, 5) and np.array_equal(exc.value.where, want)


WRONG_SHAPE = {
    "omn_plane": (lambda fd, a: og.omn_plane(fd, ("hprime", a), ("hprime", [1.0, 0.0])), og.OmnError),
    "as_chart_field": (lambda fd, a: ops.as_chart_field(fd, a, 1), ops.OperatorError),
    "as_endo_field": (lambda fd, a: ops.as_endo_field(fd, np.zeros(a.shape[:-1] + (3, 3)), 1), ops.OperatorError),
    "second_fundamental_OMN": (lambda fd, a: og.second_fundamental_OMN(fd, "hh", a, [1.0, 0.0]), ops.OperatorError),
}


@pytest.mark.parametrize("entry", WRONG_SHAPE)
def test_direction_of_wrong_shape_is_refused(entry):
    """On a 5-point frame a direction of 4 points is neither the per-point
    shape nor the batch after any stack axes: the module refuses it and
    names the shapes it takes."""
    call, error = WRONG_SHAPE[entry]
    M, fd = run_frame("sphere2")
    per_point = "(3, 3)" if entry == "as_endo_field" else "(2,)"
    full = "(5, 3, 3)" if entry == "as_endo_field" else "(5, 2)"
    with pytest.raises(error, match=re.escape(f"shape {full} or {per_point}")):
        call(fd, np.ones((4, 2)))
