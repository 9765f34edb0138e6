import re
from types import SimpleNamespace

import numpy as np
import pytest

from framelab import operators as ops
from framelab.ambient import curvature_at, euclidean
from framelab.gauss_map import theorem_check
from framelab.frame_bundle import FrameBundleError, decompose_OMN, lifted
from framelab.jets import jet_einsum, jstack
from framelab.omn_geometry import frame_trace, mean_curvature_OMN, nabla_OMN, second_fundamental_OMN
from framelab.operators import L_op, OperatorError, basis_T, hm_split_mat, skew_inner
from framelab.submanifold import FramePointData, ImmersedSubmanifold, builtin_submanifold
from framelab.verify import run_suite

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


FIELD_PAIRS_2D = [
    (["u2", "1+u1*u2"], ["sin(u1)", "u2-u1"]),
    (["1", "0"], ["u1*u1", "cos(u2)"]),
]


# -- the h/m split and the inner product ----------------------------------


def _thin_cylinder():
    """Radius 1e-7, so S is about 1e7 and cond(P) about 2e14."""
    comps = ["1e-7*cos(u1)", "1e-7*sin(u1)", "u2"]
    return ImmersedSubmanifold(2, [[-1.0, 1.0], [-1.0, 1.0]], comps, euclidean(3))


@pytest.mark.parametrize(
    "call",
    [
        lambda M, fd, X: L_op(fd, [1.0, 0.5], [0.2, 1.0]),
        lambda M, fd, X: ops.solve_P(fd, [1.0, 0.5]),
        lambda M, fd, X: decompose_OMN(lifted(fd, horizontal=fd.Einv.val @ X)),
        lambda M, fd, X: second_fundamental_OMN(fd, "hh", [1.0, 0.0], [0.0, 1.0]),
        lambda M, fd, X: mean_curvature_OMN(fd, frame_trace(fd)),
        lambda M, fd, X: theorem_check(M, samples=4),
    ],
    ids=[
        "L_op",
        "solve_P",
        "decompose_OMN",
        "second_fundamental_OMN",
        "mean_curvature_OMN",
        "theorem_check",
    ],
)
def test_numerically_singular_P_is_refused(call):
    M = _thin_cylinder()
    u = np.array([0.3, -0.2])
    fd = M.frame_data(u)
    assert np.linalg.cond(fd.Pfr.val) > 1e12
    with pytest.raises(OperatorError):
        call(M, fd, tangent_from_chart(fd, [1.0, 0.5]))


def test_P_singularity_is_tested_once_per_frame(monkeypatch):
    """solve_P reads the frame's P_singular, so a one-builtin run_suite
    computes cond(P) at most once per frame it builds, though it solves
    with P many times on each."""
    cond, solve_P, init = np.linalg.cond, ops.solve_P, FramePointData.__init__
    counts = {"cond": 0, "solve_P": 0, "frames": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.linalg, "cond", counted("cond", cond))
    monkeypatch.setattr(ops, "solve_P", counted("solve_P", solve_P))
    monkeypatch.setattr(FramePointData, "__init__", counted("frames", init))
    run_suite(builtins=["sphere2"], samples=3)
    assert 0 < counts["cond"] <= counts["frames"] < counts["solve_P"], counts


@pytest.mark.parametrize("X", [["u1"], ["u1", "u2", "0.5"], []], ids=["one", "three", "none"])
def test_expression_list_of_wrong_length_is_refused(X):
    """On a surface a field of expressions takes one per chart coordinate:
    a list of any other length is refused as a wrong-length array is, not
    read as a shorter field or left to fail inside numpy."""
    fd = builtin_submanifold("sphere2").frame_data(np.array([1.0, 0.5]))
    with pytest.raises(OperatorError, match=re.escape(f"shape {fd.shape_rule((2,))}, got {len(X)} expressions")):
        nabla_OMN(fd, "hh", X, ["u2", "0.5"])


@pytest.mark.parametrize("make, got", [
    (lambda fd: lambda uv: jstack([uv[0]], axis=-1), (1,)),
    (lambda fd: lambda uv: jstack([uv[0], uv[1], uv[0] * uv[1]], axis=-1), (3,)),
    (lambda fd: jstack([fd.uv[0]], axis=-1), (1,)),
], ids=["callable-one", "callable-three", "jet-one"])
def test_jet_or_callable_field_of_wrong_length_is_refused(make, got):
    """A jet field, or a callable's result, holds one coefficient per chart
    coordinate as its last axis: any other length is refused as a list of
    expressions is, not broadcast over the coordinates or left to fail
    inside numpy."""
    fd = builtin_submanifold("sphere2").frame_data(np.array([1.0, 0.5]))
    with pytest.raises(OperatorError, match=re.escape(f"shape {fd.shape_rule((2,))}, got {got}")):
        nabla_OMN(fd, "hh", make(fd), ["u2", "0.5"])


def test_skew_endo_rejects_non_antisymmetric():
    """A vertical part is a skew endomorphism: one entry off by 1e-9 from a
    skew matrix is refused, the skew matrix itself is taken as given."""
    fd = builtin_submanifold("sphere2").frame_data(np.array([1.0, 0.5]))
    T = random_skew(np.random.default_rng(3), 3)
    assert np.array_equal(lifted(fd, vertical=T).vertical, T)
    bad = T.copy()
    bad[0, 2] += 1e-9
    with pytest.raises(FrameBundleError, match="not antisymmetric"):
        lifted(fd, vertical=bad)


def test_hm_parts_reconstruct():
    rng = np.random.default_rng(0)
    T = random_skew(rng, 3)
    Th, Tm = hm_split_mat(T, 2)
    assert np.array_equal(Th + Tm, T)
    # mixed parts are orthogonal exactly: disjoint support
    assert skew_inner(Th, Tm) == 0.0


def test_hm_split_blocks():
    rng = np.random.default_rng(1)
    off = np.zeros((3, 3))
    off[2, :2] = rng.normal(size=2)
    off = off - off.T
    Th, Tm = hm_split_mat(off, 2)
    assert np.max(np.abs(Th)) == 0.0
    assert np.array_equal(Tm, off)
    diag = np.zeros((3, 3))
    diag[0, 1], diag[1, 0] = 1.0, -1.0
    Th, Tm = hm_split_mat(diag, 2)
    assert np.array_equal(Th, diag)
    assert np.max(np.abs(Tm)) == 0.0


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
    fd = builtin_submanifold("catenoid").frame_data(np.array([0.35, -0.2]))
    out = ops.rt_matrix_jet(fd, random_skew(rng, 3)).val
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
    got = ops.rt_matrix_jet(fd, T).val @ xfr
    want = -2.0 * kappa * (T @ xfr)
    assert np.max(np.abs(got - want)) < 1e-8


def test_R_T_frame_rotation_invariance():
    """R_T X = sum_i R(e_i, T e_i) X does not depend on the orthonormal frame
    it is traced over: R_T in the adapted frame equals the trace over a
    rotated frame f = e Q taken with the ambient curvature, and the frame
    matrix of R_T in the rotated frame is Q^T R_T Q."""
    rng = np.random.default_rng(6)
    M = builtin_submanifold("great2(1.0)")
    u = np.array([0.2, -0.4])
    fd = M.frame_data(u)
    d = fd.d
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    T = random_skew(rng, d)
    xfr = rng.normal(size=d)
    X = fd.E.val @ xfr
    F = fd.E.val @ Q  # the rotated frame f_b, ambient components
    TF = fd.E.val @ T @ Q  # T f_b
    R = curvature_at(M.ambient, fd.x0)
    want = sum(R.apply(F[:, b], TF[:, b], X) for b in range(d))
    assert np.max(np.abs(want)) > 0.1
    got = fd.E.val @ (ops.rt_matrix_jet(fd, T).val @ xfr)
    assert np.max(np.abs(got - want)) < 1e-10
    rotated = SimpleNamespace(
        Rfr=fd.uspace.constant(np.einsum("ia,jb,kc,ld,ijkl->abcd", Q, Q, Q, Q, fd.Rfr.val))
    )
    RT_rot = ops.rt_matrix_jet(rotated, Q.T @ T @ Q).val
    assert np.max(np.abs(RT_rot - Q.T @ ops.rt_matrix_jet(fd, T).val @ Q)) < 1e-10


# -- S_{T_m} -------------------------------------------------------------------


def test_S_Tm_plane_zero():
    rng = np.random.default_rng(7)
    fd = builtin_submanifold("plane").frame_data(np.array([0.3, 0.4]))
    v = ops.s_tm_tangent_jet(fd, random_skew(rng, 3)).val
    assert np.max(np.abs(v)) == 0.0


def test_S_Tm_circle_value():
    """S_{S_{e1}} = 2 S_{e1}^2 e1 = -2 e1 on the unit circle."""
    fd = builtin_submanifold("circle").frame_data(np.array([0.3]))
    Smat = fd.omega.val[0] * fd.mmask
    v = ops.s_tm_tangent_jet(fd, Smat).val
    assert v.shape == (1,)
    assert abs(v[0] + 2.0) < 1e-12


# -- P and the modified metric ---------------------------------------------


def test_P_plane_identity():
    fd = builtin_submanifold("plane").frame_data(np.array([0.1, -0.2]))
    assert np.max(np.abs(fd.Pfr.val - np.eye(2))) < 1e-14


def test_P_circle_and_sphere_values():
    """P = 1 + 2 S^2 on the tangent space: 3 on the unit circle and the
    unit sphere."""
    fd = builtin_submanifold("circle").frame_data(np.array([0.3]))
    assert abs(fd.Pfr.val[0, 0] - 3.0) < 1e-12
    fd = builtin_submanifold("sphere2").frame_data(np.array([1.0, 0.5]))
    assert np.max(np.abs(fd.Pfr.val - 3.0 * np.eye(2))) < 1e-10


@pytest.mark.parametrize("name,u", CURVED)
def test_P_symmetric_positive_and_inverse(name, u):
    M = builtin_submanifold(name)
    fd = M.frame_data(u)
    Pm = fd.Pfr.val
    assert np.max(np.abs(Pm - Pm.T)) < 1e-12
    assert np.min(np.linalg.eigvalsh(Pm)) > 1.0 - 1e-12
    rng = np.random.default_rng(10)
    xfr = rng.normal(size=fd.p)
    assert np.max(np.abs(Pm @ ops.solve_P(fd, xfr) - xfr)) < 1e-10
    # the jet route solves the same system
    xj = fd.uspace.constant(xfr)
    assert np.max(np.abs(ops.solve_P(fd, xj).val - ops.solve_P(fd, xfr))) < 1e-14


def test_modified_metric_scaling():
    """The deformed metric is g(P., .): 3 g on the unit sphere, g on the plane."""
    fd = builtin_submanifold("sphere2").frame_data(np.array([1.0, 0.5]))
    assert np.max(np.abs(fd.gt_chart.val - 3.0 * fd.g_chart.val)) < 1e-10
    fd = builtin_submanifold("plane").frame_data(np.array([0.1, 0.2]))
    assert np.max(np.abs(fd.gt_chart.val - fd.g_chart.val)) < 1e-14


# -- covariant derivatives of endomorphism fields ---------------------------


def test_nabla_endo_constant_flat():
    rng = np.random.default_rng(12)
    fd = builtin_submanifold("plane").frame_data(np.array([0.2, -0.1]))
    T = random_skew(rng, 3)
    out = ops.nabla_t_field_jet(fd, const_endo(T)(fd), np.array([1.0, 2.0]))
    assert np.max(np.abs(out.val)) < 1e-14


# -- tilde connection, Gil-Medrano, L ----------------------------------------


def connection_pair(fd, Xf, Yf):
    """tilde-nabla_X Y and nabla'_X Y in chart coefficients."""
    Xc, Yc = ops.as_chart_field(fd, Xf, 1), ops.as_chart_field(fd, Yf, 1)
    return ops.vec_tilde_nabla_jet(fd, Xc, Yc).val, ops.vec_nabla_prime_jet(fd, Xc, Yc).val


def test_tilde_nabla_plane_matches_prime():
    fd = builtin_submanifold("plane").frame_data(np.array([0.2, -0.3]))
    tn, npr = connection_pair(fd, *FIELD_PAIRS_2D[0])
    assert np.max(np.abs(tn - npr)) < 1e-12


def test_tilde_nabla_sphere_matches_prime():
    """g-tilde = 3 g has the same Christoffels, so the connections agree."""
    fd = builtin_submanifold("sphere2").frame_data(np.array([1.0, 0.5]))
    for Xf, Yf in FIELD_PAIRS_2D:
        tn, npr = connection_pair(fd, Xf, Yf)
        assert np.max(np.abs(fd.J.val @ (tn - npr))) < 1e-8


def test_p_derivative_expansion():
    """(nabla'_X P) paired with Z against the S-derivative expression."""
    M = builtin_submanifold("catenoid")
    u = np.array([0.35, -0.2])
    fd = M.frame_data(u)
    p = fd.p
    Xc = ops.as_chart_field(fd, ["u2", "1+u1*u2"], 1)
    Yc = ops.as_chart_field(fd, ["sin(u1)", "u2-u1"], 1)
    Zc = ops.as_chart_field(fd, ["cos(u2)", "u1"], 1)
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


def L_ambient(name, u):
    """L_X Y for the first field pair, ambient components."""
    fd = builtin_submanifold(name).frame_data(u)
    return fd.J.val @ L_op(fd, *FIELD_PAIRS_2D[0])


def test_L_plane_zero():
    assert np.max(np.abs(L_ambient("plane", np.array([0.2, -0.3])))) < 1e-12


def test_L_sphere_zero():
    assert np.max(np.abs(L_ambient("sphere2", np.array([1.0, 0.5])))) < 1e-7


def test_L_nonvacuous_on_catenoid():
    assert np.max(np.abs(L_ambient("catenoid", np.array([0.35, -0.2])))) > 1e-2


# -- Q_T -----------------------------------------------------------------------


def test_Q_T_plane_zero():
    rng = np.random.default_rng(14)
    fd = builtin_submanifold("plane").frame_data(np.array([0.2, -0.3]))
    Tj = ops.as_endo_field(fd, random_skew(rng, 3), 1)
    out = ops.q_t_chart_jet(fd, Tj, np.array([1.0, -2.0])).val
    assert np.max(np.abs(out)) < 1e-12


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
        q = ops.q_t_chart_jet(fd, ops.as_endo_field(fd, Th, 1), xc).val
        lhs = q @ fd.gt_chart.val @ yc
        rhs = skew_inner(ops.curvature_prime_jet(fd, xc, yc).val, Th)
        assert abs(lhs - rhs) < 1e-7


def test_Q_T_h_duality_nonvacuous():
    M = builtin_submanifold("catenoid")
    u = np.array([0.35, -0.2])
    fd = M.frame_data(u)
    Th = basis_T(3, 0, 1)
    q = ops.q_t_chart_jet(fd, ops.as_endo_field(fd, Th, 1), np.array([1.0, 0.0])).val
    assert abs(q @ fd.gt_chart.val @ np.array([0.0, 1.0])) > 1e-3


@pytest.mark.parametrize("name,u", CURVED)
def test_Q_T_m_duality(name, u):
    """The field-level identity for Q of an m-type endo field."""
    rng = np.random.default_rng(16)
    M = builtin_submanifold(name)
    fd = M.frame_data(u)
    d, p = fd.d, fd.p
    Xf, Yf = FIELD_PAIRS_2D[0]
    Xc = ops.as_chart_field(fd, Xf, 1)
    Yc = ops.as_chart_field(fd, Yf, 1)
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
    fd = builtin_submanifold("plane").frame_data(np.array([0.2, -0.3]))
    out = ops.curvature_prime_jet(fd, np.array([1.0, 0.0]), np.array([0.0, 1.0])).val
    assert np.max(np.abs(out)) < 1e-14


def test_curvature_prime_sphere_sectional():
    """Tangent block of R' on the round sphere has sectional curvature 1."""
    fd = builtin_submanifold("sphere2").frame_data(np.array([1.0, 0.5]))
    # chart coefficients of the frame vectors e1 and e2
    Rp = ops.curvature_prime_jet(fd, fd.C.val[:, 0], fd.C.val[:, 1]).val
    # g(R'(e1,e2)e2, e1) = Rp[0,1] applied to frame coords
    assert abs((Rp @ np.array([0.0, 1.0, 0.0]))[0] - 1.0) < 1e-8


def test_omega_along_prime_is_the_block_diagonal_part():
    M = builtin_submanifold("clifford")
    u = np.array([0.4, -0.7])
    fd = M.frame_data(u)
    Xc = ops.as_chart_field(fd, ["u2", "1+u1*u2"], 1)
    full = ops.omega_along(fd, Xc)
    prime = ops.omega_along(fd, Xc, "prime")
    assert np.array_equal(prime.coeffs, (full * fd.hmask).coeffs)
    assert np.max(np.abs(full.val * fd.mmask)) > 1e-3
    with pytest.raises(OperatorError, match="unknown connection"):
        ops.omega_along(fd, Xc, "tilde")
    with pytest.raises(OperatorError, match="unknown connection"):
        ops.nabla_t_field_jet(fd, const_endo(basis_T(3, 0, 1))(fd), Xc, "tilde")


@pytest.mark.parametrize("name,u", CURVED)
def test_shared_piece_primitives_are_the_single_ones(name, u):
    """frame_derivs_jet and vec_connections_jet give bitwise what
    ambient_deriv_frame, nabla_t_field_jet(..., "prime"), vec_nabla_prime_jet
    and vec_tilde_nabla_jet give one by one: along a jet field whose
    derivatives of Y and T land at different orders, and along a constant
    direction given as an array."""
    rng = np.random.default_rng(29)
    fd = builtin_submanifold(name).frame_data(u)
    X = ops.as_chart_field(fd, ["u2", "1+u1*u2"], 2)
    Y = ops.as_chart_field(fd, ["sin(u1)", "u2-u1"], 3)
    yF = ops.full_frame_field(fd, Y)
    Tj = (1.0 + 0.3 * fd.uv[0].cut(2))[..., None, None] * hm_split_mat(random_skew(rng, fd.d), fd.p)[0]
    for Xc in (X, rng.normal(size=fd.p)):
        nab, dT = ops.frame_derivs_jet(fd, Xc, yF, Tj)
        for got, want in ((nab, ops.ambient_deriv_frame(fd, Xc, yF)), (dT, ops.nabla_t_field_jet(fd, Tj, Xc, "prime"))):
            assert got.valid == want.valid and np.array_equal(got.coeffs, want.coeffs)
    assert (nab.valid, dT.valid) == (2, 1)
    prime, tilde = ops.vec_connections_jet(fd, X, Y)
    for got, want in ((prime, ops.vec_nabla_prime_jet(fd, X, Y)), (tilde, ops.vec_tilde_nabla_jet(fd, X, Y))):
        assert got.valid == want.valid and np.array_equal(got.coeffs, want.coeffs)


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
