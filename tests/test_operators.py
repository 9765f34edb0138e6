import numpy as np
import pytest

from framelab import operators as ops
from framelab.ambient import euclidean
from framelab.frame_bundle import decompose_OMN, lifted
from framelab.jets import jet_einsum, jstack
from framelab.omn_geometry import mean_curvature_OMN, second_fundamental_OMN
from framelab.operators import (
    L_op,
    OperatorError,
    P_inverse,
    P_op,
    Q_T,
    R_T,
    S_Tm_vector,
    SkewEndo,
    basis_T,
    curvature_prime,
    hm_decompose,
    hm_split_mat,
    modified_metric,
    nabla_endo,
    skew_inner,
    tilde_nabla,
)
from framelab.submanifold import ImmersedSubmanifold, adapted_frame_at, builtin_submanifold

CURVED = [
    ("sphere2", np.array([1.0, 0.5])),
    ("catenoid", np.array([0.35, -0.2])),
    ("clifford", np.array([0.4, -0.7])),
    ("great2(0.5)", np.array([0.2, -0.4])),
]


def tangent_from_chart(fd, xc):
    """Ambient components of the tangent vector with chart coefficients xc."""
    return fd.J.val @ np.asarray(xc, float)


def random_skew(rng, d):
    a = rng.normal(size=(d, d))
    return 0.5 * (a - a.T)


def const_endo(mat):
    return lambda fd: fd.uspace.constant(mat)


def varying_endo(mat):
    """Endo field with frame components scaled by a coordinate function."""

    def endo(fd):
        s = 1.0 + 0.3 * fd.uv[0]
        if fd.p > 1:
            s = s + 0.2 * fd.uv[0] * fd.uv[1]
        return s * fd.uspace.constant(mat)

    return endo


FIELD_PAIRS_2D = [
    (["u2", "1+u1*u2"], ["sin(u1)", "u2-u1"]),
    (["1", "0"], ["u1*u1", "cos(u2)"]),
]


# -- SkewEndo and the inner product ----------------------------------------


def test_skew_endo_rejects_non_antisymmetric():
    M = builtin_submanifold("sphere2")
    fr = adapted_frame_at(M, np.array([1.0, 0.5]))
    with pytest.raises(OperatorError):
        SkewEndo(fr, np.eye(3), 2)


def _thin_cylinder():
    """Radius 1e-7, so S is about 1e7 and cond(P) about 2e14."""
    comps = ["1e-7*cos(u1)", "1e-7*sin(u1)", "u2"]
    return ImmersedSubmanifold(2, [[-1.0, 1.0], [-1.0, 1.0]], comps, euclidean(3))


@pytest.mark.parametrize(
    "call",
    [
        lambda M, u, X: L_op(M, u, [1.0, 0.5], [0.2, 1.0]),
        lambda M, u, X: P_inverse(M, u, X),
        lambda M, u, X: decompose_OMN(lifted(M, u, horizontal=X)),
        lambda M, u, X: second_fundamental_OMN(M, u, "hh", [1.0, 0.0], [0.0, 1.0]),
        lambda M, u, X: mean_curvature_OMN(M, u),
    ],
    ids=["L_op", "P_inverse", "decompose_OMN", "second_fundamental_OMN", "mean_curvature_OMN"],
)
def test_numerically_singular_P_is_refused(call):
    M = _thin_cylinder()
    u = np.array([0.3, -0.2])
    fd = M.frame_data(u)
    assert np.linalg.cond(fd.Pfr.val) > 1e12
    with pytest.raises(OperatorError):
        call(M, u, tangent_from_chart(fd, [1.0, 0.5]))


def test_hm_parts_reconstruct():
    rng = np.random.default_rng(0)
    M = builtin_submanifold("sphere2")
    fr = adapted_frame_at(M, np.array([1.0, 0.5]))
    T = SkewEndo(fr, random_skew(rng, 3), 2)
    assert np.array_equal(T.h_part + T.m_part, T.mat)
    Th, Tm = hm_decompose(T)
    assert np.array_equal(Th.mat + Tm.mat, T.mat)
    # mixed parts are orthogonal exactly: disjoint support
    assert skew_inner(Th, Tm) == 0.0


def test_hm_decompose_blocks():
    rng = np.random.default_rng(1)
    M = builtin_submanifold("sphere2")
    fr = adapted_frame_at(M, np.array([1.0, 0.5]))
    off = np.zeros((3, 3))
    off[2, :2] = rng.normal(size=2)
    off = off - off.T
    Th, Tm = hm_decompose(SkewEndo(fr, off, 2))
    assert np.max(np.abs(Th.mat)) == 0.0
    assert np.array_equal(Tm.mat, off)
    diag = np.zeros((3, 3))
    diag[0, 1], diag[1, 0] = 1.0, -1.0
    Th, Tm = hm_decompose(SkewEndo(fr, diag, 2))
    assert np.array_equal(Th.mat, diag)
    assert np.max(np.abs(Tm.mat)) == 0.0


def test_basis_elements_unit_norm():
    T12 = basis_T(4, 0, 1)
    assert abs(skew_inner(T12, T12) - 1.0) < 1e-15


def test_ad_invariance():
    rng = np.random.default_rng(2)
    for _ in range(20):
        T, Tp, Tpp = (random_skew(rng, 5) for _ in range(3))
        lhs = skew_inner(T @ Tp - Tp @ T, Tpp)
        rhs = skew_inner(T, Tp @ Tpp - Tpp @ Tp)
        assert abs(lhs - rhs) < 1e-12


# -- R_T ---------------------------------------------------------------------


def test_R_T_flat_ambient_vanishes():
    rng = np.random.default_rng(3)
    M = builtin_submanifold("catenoid")
    u = np.array([0.35, -0.2])
    out = R_T(M, u, random_skew(rng, 3), rng.normal(size=3))
    assert np.max(np.abs(out)) < 1e-14


@pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
def test_R_T_space_form_value(kappa):
    """Constant-curvature ambient: R_T(X) = -2 kappa T(X)."""
    rng = np.random.default_rng(4)
    M = builtin_submanifold(f"great2({kappa})")
    u = np.array([0.2, -0.4])
    fd = M.frame_data(u)
    T = random_skew(rng, 3)
    xfr = rng.normal(size=3)
    X = fd.ambient_components(xfr)
    got = fd.frame_components(R_T(M, u, T, X))
    want = -2.0 * kappa * (T @ xfr)
    assert np.max(np.abs(got - want)) < 1e-8


def test_R_T_frame_rotation_invariance():
    """Conjugating the frame by a block rotation conjugates R_T."""
    rng = np.random.default_rng(6)
    M = builtin_submanifold("great2(1.0)")
    u = np.array([0.2, -0.4])
    fd = M.frame_data(u)
    d, p = fd.d, fd.p
    th = 0.7
    Q = np.eye(d)
    Q[0, 0], Q[0, 1], Q[1, 0], Q[1, 1] = np.cos(th), -np.sin(th), np.sin(th), np.cos(th)
    T = random_skew(rng, d)
    RT = np.einsum("abij,ji->ab", fd.Rfr.val, T)
    Rfr_rot = np.einsum("ia,jb,kc,ld,ijkl->abcd", Q, Q, Q, Q, fd.Rfr.val)
    RT_rot = np.einsum("abij,ji->ab", Rfr_rot, Q.T @ T @ Q)
    assert np.max(np.abs(RT_rot - Q.T @ RT @ Q)) < 1e-10


# -- S_{T_m} -------------------------------------------------------------------


def test_S_Tm_plane_zero():
    rng = np.random.default_rng(7)
    M = builtin_submanifold("plane")
    v = S_Tm_vector(M, np.array([0.3, 0.4]), random_skew(rng, 3))
    assert np.max(np.abs(v.ambient)) == 0.0


def test_S_Tm_circle_value():
    """S_{S_{e1}} = 2 S_{e1}^2 e1 = -2 e1 on the unit circle."""
    M = builtin_submanifold("circle")
    u = np.array([0.3])
    fd = M.frame_data(u)
    Smat = fd.omega.val[0] * fd.mmask
    v = S_Tm_vector(M, u, Smat)
    e1 = adapted_frame_at(M, u).vectors[0]
    assert np.max(np.abs(v.ambient + 2.0 * e1)) < 1e-12


# -- P and the modified metric ---------------------------------------------


def test_P_plane_identity():
    M = builtin_submanifold("plane")
    u = np.array([0.1, -0.2])
    X = np.array([0.7, -0.3, 0.0])
    assert np.max(np.abs(P_op(M, u, X).ambient - X)) < 1e-14


def test_P_circle_and_sphere_values():
    M = builtin_submanifold("circle")
    u = np.array([0.3])
    e1 = adapted_frame_at(M, u).vectors[0]
    assert np.max(np.abs(P_op(M, u, e1).ambient - 3.0 * e1)) < 1e-12

    M2 = builtin_submanifold("sphere2")
    u2 = np.array([1.0, 0.5])
    rng = np.random.default_rng(9)
    xc = rng.normal(size=2)
    fd = M2.frame_data(u2)
    X = tangent_from_chart(fd, xc)
    assert np.max(np.abs(P_op(M2, u2, X).ambient - 3.0 * X)) < 1e-10


@pytest.mark.parametrize("name,u", CURVED)
def test_P_symmetric_positive_and_inverse(name, u):
    M = builtin_submanifold(name)
    fd = M.frame_data(u)
    Pm = fd.Pfr.val
    assert np.max(np.abs(Pm - Pm.T)) < 1e-12
    assert np.min(np.linalg.eigvalsh(Pm)) > 1.0 - 1e-12
    rng = np.random.default_rng(10)
    X = tangent_from_chart(fd, rng.normal(size=fd.p))
    back = P_op(M, u, P_inverse(M, u, X).ambient)
    assert np.max(np.abs(back.ambient - X)) < 1e-10


def test_pointwise_operators_accept_their_own_output():
    """P_op returns a TangentVectorM; P_inverse and the other pointwise
    operations take it as they take its ambient components."""
    M = builtin_submanifold("sphere2")
    u = np.array([1.0, 0.5])
    fd = M.frame_data(u)
    X = tangent_from_chart(fd, [0.4, -1.1])
    PX = P_op(M, u, X)
    assert np.max(np.abs(P_inverse(M, u, PX).ambient - X)) < 1e-12
    T = basis_T(3, 0, 2)
    amb = PX.ambient
    assert np.array_equal(R_T(M, u, T, PX), R_T(M, u, T, amb))
    assert np.array_equal(P_op(M, u, PX).ambient, P_op(M, u, amb).ambient)
    assert np.array_equal(P_inverse(M, u, PX).ambient, P_inverse(M, u, amb).ambient)
    assert modified_metric(M, u, PX, PX) == modified_metric(M, u, amb, amb)
    field = varying_endo(T)
    assert np.array_equal(nabla_endo(M, field, u, PX).mat, nabla_endo(M, field, u, amb).mat)


def test_modified_metric_scaling():
    rng = np.random.default_rng(11)
    M = builtin_submanifold("sphere2")
    u = np.array([1.0, 0.5])
    fd = M.frame_data(u)
    X = tangent_from_chart(fd, rng.normal(size=2))
    Y = tangent_from_chart(fd, rng.normal(size=2))
    g = fd.frame_components(X)[:2] @ fd.frame_components(Y)[:2]
    assert abs(modified_metric(M, u, X, Y) - 3.0 * g) < 1e-10

    Mp = builtin_submanifold("plane")
    up = np.array([0.1, 0.2])
    Xp, Yp = np.array([1.0, 2.0, 0.0]), np.array([-0.5, 0.3, 0.0])
    assert abs(modified_metric(Mp, up, Xp, Yp) - Xp @ Yp) < 1e-14


# -- covariant derivatives of endomorphism fields ---------------------------


def test_nabla_endo_constant_flat():
    rng = np.random.default_rng(12)
    M = builtin_submanifold("plane")
    T = random_skew(rng, 3)
    out = nabla_endo(M, const_endo(T), np.array([0.2, -0.1]), np.array([1.0, 2.0, 0.0]))
    assert np.max(np.abs(out.mat)) < 1e-14


@pytest.mark.parametrize("name,u", CURVED)
@pytest.mark.parametrize("make_field", [const_endo, varying_endo])
def test_derivative_decompositions(name, u, make_field):
    """The four splittings of nabla T against nabla' and [S_X, .]."""
    rng = np.random.default_rng(13)
    M = builtin_submanifold(name)
    fd = M.frame_data(u)
    d, p = fd.d, fd.p
    for _ in range(3):
        A = random_skew(rng, d)
        Th, Tm = hm_split_mat(A, p)
        xc = rng.normal(size=p)
        X = tangent_from_chart(fd, xc)
        SX = ops.s_field_matrix(fd, fd.uspace.constant(xc)).val
        for T0, comm_part in [(Th, "m"), (Tm, "h")]:
            field = make_field(T0)
            T_at = field(fd).val  # field value at u, for the pointwise commutator
            full = nabla_endo(M, field, u, X, "ambient").mat
            prime = nabla_endo(M, field, u, X, "prime").mat
            got_h, got_m = hm_split_mat(full, p)
            comm = SX @ T_at - T_at @ SX
            if comm_part == "m":
                # (nabla_X T_h)_m = [S_X, T_h]; (nabla_X T_h)_h = nabla'_X T_h
                assert np.max(np.abs(got_m - comm)) < 1e-7
                assert np.max(np.abs(got_h - prime)) < 1e-7
            else:
                # (nabla_X T_m)_h = [S_X, T_m]; (nabla_X T_m)_m = nabla'_X T_m
                assert np.max(np.abs(got_h - comm)) < 1e-7
                assert np.max(np.abs(got_m - prime)) < 1e-7


# -- tilde connection, Gil-Medrano, L ----------------------------------------


def test_tilde_nabla_plane_matches_prime():
    M = builtin_submanifold("plane")
    u = np.array([0.2, -0.3])
    Xf, Yf = FIELD_PAIRS_2D[0]
    tn = tilde_nabla(M, u, Xf, Yf)
    npr = ops.nabla_prime_tangent(M, u, Xf, Yf)
    assert np.max(np.abs(tn.ambient - npr.ambient)) < 1e-12


def test_tilde_nabla_sphere_matches_prime():
    """g-tilde = 3 g has the same Christoffels, so the connections agree."""
    M = builtin_submanifold("sphere2")
    u = np.array([1.0, 0.5])
    for Xf, Yf in FIELD_PAIRS_2D:
        tn = tilde_nabla(M, u, Xf, Yf)
        npr = ops.nabla_prime_tangent(M, u, Xf, Yf)
        assert np.max(np.abs(tn.ambient - npr.ambient)) < 1e-8


def test_p_derivative_expansion():
    """(nabla'_X P) paired with Z against the S-derivative expression."""
    M = builtin_submanifold("catenoid")
    u = np.array([0.35, -0.2])
    fd = M.frame_data(u)
    p = fd.p
    Xc = ops.as_chart_field(fd, ["u2", "1+u1*u2"])
    Yc = ops.as_chart_field(fd, ["sin(u1)", "u2-u1"])
    Zc = ops.as_chart_field(fd, ["cos(u2)", "u1"])
    omt = fd.omega[:, :p, :p]
    DP = jstack(
        [
            fd.Pfr.d(a)
            + jet_einsum("ik,kj->ij", omt[a], fd.Pfr)
            - jet_einsum("ik,kj->ij", fd.Pfr, omt[a])
            for a in range(p)
        ],
        axis=0,
    )
    yfr = ops.frame_of_chart(fd, Yc)
    zfr = ops.frame_of_chart(fd, Zc)
    lhs = (jet_einsum("ij,j->i", jet_einsum("a,aij->ij", Xc, DP), yfr) * zfr).sum(-1).val

    SY = ops.s_field_matrix(fd, Yc)
    SZ = ops.s_field_matrix(fd, Zc)
    nXSY = ops.nabla_t_field_jet(fd, SY, Xc, "prime")
    nXSZ = ops.nabla_t_field_jet(fd, SZ, Xc, "prime")
    SnXY = ops.s_field_matrix(fd, ops.vec_nabla_prime_jet(fd, Xc, Yc))
    SnXZ = ops.s_field_matrix(fd, ops.vec_nabla_prime_jet(fd, Xc, Zc))

    def pair(Aj, Bj):
        return -jet_einsum("ij,ji->", Aj, Bj).val

    rhs = pair(SZ, nXSY - SnXY) + pair(SY, nXSZ - SnXZ)
    assert abs(lhs - rhs) < 1e-7
    assert abs(lhs) > 1e-3  # catenoid really bends: the identity is not vacuous


def test_L_plane_zero():
    M = builtin_submanifold("plane")
    out = L_op(M, np.array([0.2, -0.3]), *FIELD_PAIRS_2D[0])
    assert np.max(np.abs(out.ambient)) < 1e-12


def test_L_sphere_zero():
    M = builtin_submanifold("sphere2")
    out = L_op(M, np.array([1.0, 0.5]), *FIELD_PAIRS_2D[0])
    assert np.max(np.abs(out.ambient)) < 1e-7


@pytest.mark.parametrize("name,u", CURVED)
@pytest.mark.parametrize("Xf,Yf", FIELD_PAIRS_2D)
def test_L_equals_connection_difference(name, u, Xf, Yf):
    """The closed form for L against the independent Koszul route."""
    M = builtin_submanifold(name)
    L = L_op(M, u, Xf, Yf)
    tn = tilde_nabla(M, u, Xf, Yf)
    npr = ops.nabla_prime_tangent(M, u, Xf, Yf)
    assert np.max(np.abs(L.ambient - (tn.ambient - npr.ambient))) < 1e-6


def test_L_nonvacuous_on_catenoid():
    M = builtin_submanifold("catenoid")
    out = L_op(M, np.array([0.35, -0.2]), *FIELD_PAIRS_2D[0])
    assert np.max(np.abs(out.ambient)) > 1e-2


# -- Q_T -----------------------------------------------------------------------


def test_Q_T_plane_zero():
    rng = np.random.default_rng(14)
    M = builtin_submanifold("plane")
    T = random_skew(rng, 3)
    out = Q_T(M, np.array([0.2, -0.3]), T, np.array([1.0, -2.0, 0.0]))
    assert np.max(np.abs(out.ambient)) < 1e-12


@pytest.mark.parametrize("name,u", CURVED)
def test_Q_T_h_duality(name, u):
    """gtilde(Q_{T_h} X, Y) recovers the pairing with R'(X, Y)."""
    rng = np.random.default_rng(15)
    M = builtin_submanifold(name)
    fd = M.frame_data(u)
    d, p = fd.d, fd.p
    for _ in range(3):
        Th = hm_split_mat(random_skew(rng, d), p)[0]
        xc, yc = rng.normal(size=p), rng.normal(size=p)
        X = tangent_from_chart(fd, xc)
        Y = tangent_from_chart(fd, yc)
        q = Q_T(M, u, Th, X)
        lhs = modified_metric(M, u, q.ambient, Y)
        rhs = skew_inner(curvature_prime(M, u, X, Y).mat, Th)
        assert abs(lhs - rhs) < 1e-7


def test_Q_T_h_duality_nonvacuous():
    M = builtin_submanifold("catenoid")
    u = np.array([0.35, -0.2])
    fd = M.frame_data(u)
    Th = basis_T(3, 0, 1)
    X = tangent_from_chart(fd, [1.0, 0.0])
    Y = tangent_from_chart(fd, [0.0, 1.0])
    q = Q_T(M, u, Th, X)
    assert abs(modified_metric(M, u, q.ambient, Y)) > 1e-3


@pytest.mark.parametrize("name,u", CURVED)
def test_Q_T_m_duality(name, u):
    """The field-level identity for Q of an m-type endo field."""
    rng = np.random.default_rng(16)
    M = builtin_submanifold(name)
    fd = M.frame_data(u)
    d, p = fd.d, fd.p
    Xf, Yf = FIELD_PAIRS_2D[0]
    Xc = ops.as_chart_field(fd, Xf)
    Yc = ops.as_chart_field(fd, Yf)
    Tm = hm_split_mat(random_skew(rng, d), p)[1]
    Tj = fd.uspace.constant(Tm)
    q = ops.q_t_chart_jet(fd, Tj, Xc)
    lhs = ops.frame_of_chart(fd, q).val @ fd.Pfr.val @ ops.frame_of_chart(fd, Yc).val
    SX = ops.s_field_matrix(fd, Xc)
    SY = ops.s_field_matrix(fd, Yc)
    codazzi = (
        ops.nabla_t_field_jet(fd, SY, Xc, "prime")
        - ops.nabla_t_field_jet(fd, SX, Yc, "prime")
        - ops.s_field_matrix(fd, ops.bracket_jet(fd, Xc, Yc))
    ).val
    nXT = ops.nabla_t_field_jet(fd, Tj, Xc, "prime").val
    rhs = skew_inner(codazzi, Tm) + skew_inner(nXT, SY.val)
    assert abs(lhs - rhs) < 1e-7


# -- R' (curvature of the splitting connection) ------------------------------


def test_curvature_prime_plane_zero():
    M = builtin_submanifold("plane")
    out = curvature_prime(M, np.array([0.2, -0.3]), np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
    assert np.max(np.abs(out.mat)) < 1e-14


def test_curvature_prime_sphere_sectional():
    """Tangent block of R' on the round sphere has sectional curvature 1."""
    M = builtin_submanifold("sphere2")
    u = np.array([1.0, 0.5])
    fd = M.frame_data(u)
    e1 = fd.ambient_components(np.array([1.0, 0.0, 0.0]))
    e2 = fd.ambient_components(np.array([0.0, 1.0, 0.0]))
    Rp = curvature_prime(M, u, e1, e2).mat
    # g(R'(e1,e2)e2, e1) = Rp[0,1] applied to frame coords
    assert abs((Rp @ np.array([0.0, 1.0, 0.0]))[0] - 1.0) < 1e-8


# -- sampled sweep of the six splitting identities ----------------------------


@pytest.mark.parametrize("name", ["catenoid", "clifford", "great2(0.7)"])
def test_identity_sweep(name):
    """Derivative decompositions, Gauss, and Codazzi at several points."""
    rng = np.random.default_rng(18)
    M = builtin_submanifold(name)
    lo, hi = M.chart_domain[:, 0], M.chart_domain[:, 1]
    pad = 0.05 * (hi - lo)
    for _ in range(6):
        u = rng.uniform(lo + pad, hi - pad)
        fd = M.frame_data(u)
        d, p = fd.d, fd.p
        A = random_skew(rng, d)
        Th, Tm = hm_split_mat(A, p)
        xc = rng.normal(size=p)
        X = tangent_from_chart(fd, xc)
        SX = ops.s_field_matrix(fd, fd.uspace.constant(xc)).val
        for T0 in (Th, Tm):
            full = nabla_endo(M, const_endo(T0), u, X, "ambient").mat
            prime = nabla_endo(M, const_endo(T0), u, X, "prime").mat
            h, m = hm_split_mat(full, p)
            ph, pm = hm_split_mat(prime, p)
            comm = SX @ T0 - T0 @ SX
            ch, cm = hm_split_mat(comm, p)
            assert np.max(np.abs(h - (ph + ch))) < 1e-7
            assert np.max(np.abs(m - (pm + cm))) < 1e-7


def test_omega_along_prime_is_the_block_diagonal_part():
    M = builtin_submanifold("clifford")
    u = np.array([0.4, -0.7])
    fd = M.frame_data(u)
    Xc = ops.as_chart_field(fd, ["u2", "1+u1*u2"])
    full = ops.omega_along(fd, Xc)
    prime = ops.omega_along(fd, Xc, "prime")
    assert np.array_equal(prime.coeffs, (full * fd.hmask).coeffs)
    assert np.max(np.abs(full.val * fd.mmask)) > 1e-3
    with pytest.raises(OperatorError, match="unknown connection"):
        ops.omega_along(fd, Xc, "tilde")
    with pytest.raises(OperatorError, match="unknown connection"):
        nabla_endo(M, const_endo(basis_T(3, 0, 1)), u, tangent_from_chart(fd, [1.0, 0.0]), "tilde")


@pytest.mark.parametrize("name,u", CURVED)
def test_constant_directions_pass_as_arrays(name, u):
    """A constant direction gives the same value as an array as it does as a
    constant jet."""
    rng = np.random.default_rng(23)
    fd = builtin_submanifold(name).frame_data(u)
    x, y = rng.normal(size=fd.p), rng.normal(size=fd.p)
    Tj = fd.uspace.constant(hm_split_mat(random_skew(rng, fd.d), fd.p)[0])
    const = fd.uspace.constant
    pairs = [
        (ops.s_field_matrix(fd, x), ops.s_field_matrix(fd, const(x))),
        (ops.full_frame_field(fd, x), ops.full_frame_field(fd, const(x))),
        (ops.curvature_prime_jet(fd, x, y), ops.curvature_prime_jet(fd, const(x), const(y))),
        (ops.q_t_chart_jet(fd, Tj, x), ops.q_t_chart_jet(fd, Tj, const(x))),
    ]
    for arr, jet in pairs:
        assert np.max(np.abs(arr.val - jet.val)) <= 1e-15
