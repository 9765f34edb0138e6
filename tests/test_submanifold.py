import gc
import weakref

import numpy as np
import pytest

from framelab.jets import jcos, jsin, jstack
from framelab.submanifold import (
    FrameError,
    ImmersedSubmanifold,
    adapted_frame_at,
    builtin_submanifold,
    nabla_prime,
    project,
    second_fundamental_form,
    tensor_S,
    weingarten,
)
from framelab.ambient import euclidean

ALL_BUILTINS = ("plane", "plane3", "circle", "sphere2", "catenoid", "great2(0.5)", "clifford")
CURVED = ("circle", "sphere2", "catenoid", "great2(0.5)", "clifford")


def sample_points(M, count, seed=0):
    rng = np.random.default_rng(seed)
    lo, hi = M.chart_domain[:, 0], M.chart_domain[:, 1]
    pad = 0.05 * (hi - lo)
    return rng.uniform(lo + pad, hi - pad, size=(count, M.p))


def random_tangent(fd, rng):
    return fd.E.val[:, : fd.p] @ rng.standard_normal(fd.p)


def random_normal_vec(fd, rng):
    return fd.E.val[:, fd.p:] @ rng.standard_normal(fd.n)


def test_plane_frame_is_standard_basis():
    M = builtin_submanifold("plane")
    fr = adapted_frame_at(M, [0.3, -0.5])
    assert np.allclose(fr.vectors, np.eye(3), atol=1e-14)
    assert fr.pivots == (2,)


def test_circle_frame_at_zero():
    M = builtin_submanifold("circle")
    fr = adapted_frame_at(M, [0.0])
    assert np.allclose(fr.vectors[:, 0], [0, 1], atol=1e-14)
    assert np.allclose(np.abs(fr.vectors[:, 1]), [1, 0], atol=1e-14)


def test_sphere2_frame_at_equator():
    M = builtin_submanifold("sphere2")
    fr = adapted_frame_at(M, [np.pi / 2, 0.0])
    G = np.eye(3)
    tan = fr.vectors[:, :2]
    assert np.max(np.abs(tan.T @ G @ tan - np.eye(2))) < 1e-12
    assert np.allclose(np.abs(fr.vectors[:, 2]), [1, 0, 0], atol=1e-12)


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_frame_orthonormal_and_adapted(name):
    M = builtin_submanifold(name)
    for u in sample_points(M, 12, seed=3):
        fd = M.frame_data(u)
        G, E, J = fd.G.val, fd.E.val, fd.J.val
        assert np.max(np.abs(E.T @ G @ E - np.eye(M.ambient.dim))) < 1e-10
        # tangent block spans the Jacobian image: J = E_tan (E_tan^T G J)
        coeff = E[:, : M.p].T @ G @ J
        assert np.max(np.abs(E[:, : M.p] @ coeff - J)) < 1e-9
        # normal block orthogonal to the image
        assert np.max(np.abs(E[:, M.p:].T @ G @ J)) < 1e-10


def test_pivots_deterministic_and_frozen():
    M1 = builtin_submanifold("clifford")
    M2 = builtin_submanifold("clifford")
    assert M1.pivots == M2.pivots
    u = [0.7, -1.1]
    f1 = adapted_frame_at(M1, u)
    f2 = adapted_frame_at(M2, u)
    assert np.array_equal(f1.vectors, f2.vectors)


def test_rank_deficient_jacobian_rejected():
    with pytest.raises(FrameError, match="rank-deficient"):
        ImmersedSubmanifold(2, [[-1, 1], [-1, 1]], ["u1", "u1", "0"], euclidean(3))


def test_out_of_domain_rejected():
    M = builtin_submanifold("circle")
    with pytest.raises(FrameError, match="outside"):
        M.frame_data([2.0])


def test_pivot_breakdown_away_from_centre_raises_on_call():
    # Pivots are frozen at u = 0, where the tangent is e_2 and the pivot is
    # e_1; at u = pi/2 the tangent is parallel to e_1.
    M = ImmersedSubmanifold(1, [[-1.6, 1.6]], ["cos(u1)", "sin(u1)"], euclidean(2))
    M.frame_data([0.0])
    with pytest.raises(FrameError, match="pivot failure"):
        M.frame_data([np.pi / 2])


# Attributes of FramePointData that are built on first use.
LAZY_ATTRIBUTES = (
    "Gam", "R", "Einv", "omega", "g_chart", "C", "Dmat", "Smats", "Pfr",
    "Gam_chart", "gt_chart", "Gamt", "Rt_chart", "W", "Wchart", "Rfr",
)


def test_frame_attributes_built_on_first_use():
    fd = builtin_submanifold("sphere2").frame_data([1.1, 0.2])
    assert not set(LAZY_ATTRIBUTES) & set(vars(fd))
    fd.g_chart
    assert "g_chart" in vars(fd)
    for name in ("Rfr", "Rt_chart", "W", "Gam", "R", "omega", "gt_chart"):
        assert name not in vars(fd)


@pytest.mark.parametrize("name", ["circle", "sphere2", "great2(0.5)", "clifford"])
def test_frame_attributes_independent_of_read_order(name):
    M = builtin_submanifold(name)
    u = sample_points(M, 1, seed=3)[0]
    forward = builtin_submanifold(name).frame_data(u)
    backward = M.frame_data(u)
    for attr in LAZY_ATTRIBUTES[::-1]:
        getattr(backward, attr)
    for attr in LAZY_ATTRIBUTES:
        assert np.array_equal(getattr(forward, attr).coeffs, getattr(backward, attr).coeffs), attr


def test_manifold_freed_without_cycle_collector():
    # The frame cache must not refer back to its manifold, or a dropped
    # manifold would wait for the cyclic garbage collector.
    enabled = gc.isenabled()
    gc.disable()
    try:
        M = builtin_submanifold("clifford")
        M.frame_data([0.3, -0.5]).Rfr
        ref = weakref.ref(M)
        del M
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_plane_second_fundamental_form_vanishes():
    M = builtin_submanifold("plane")
    rng = np.random.default_rng(1)
    for u in sample_points(M, 5):
        fd = M.frame_data(u)
        X, Y = random_tangent(fd, rng), random_tangent(fd, rng)
        assert np.max(np.abs(second_fundamental_form(M, u, X, Y).ambient)) < 1e-14
        V = random_normal_vec(fd, rng)
        assert np.max(np.abs(weingarten(M, u, V, X).ambient)) < 1e-14
        assert np.max(np.abs(tensor_S(M, u, X, rng.standard_normal(3)))) < 1e-14


def test_circle_frenet_values():
    M = builtin_submanifold("circle")
    u = [0.0]
    fr = adapted_frame_at(M, u)
    e1, e2 = fr.vectors.T
    # e2 = +(1,0) is the outward normal at x=(1,0)
    assert np.allclose(second_fundamental_form(M, u, e1, e1).ambient, -e2, atol=1e-13)
    assert np.allclose(weingarten(M, u, e2, e1).ambient, -e1, atol=1e-13)
    # S_{e1} in frame: e1 -> -e2, e2 -> +e1
    assert np.allclose(tensor_S(M, u, e1, e1), -e2, atol=1e-13)
    assert np.allclose(tensor_S(M, u, e1, e2), e1, atol=1e-13)


def test_sphere2_shape_operator():
    M = builtin_submanifold("sphere2")
    u = [np.pi / 2, 0.0]
    fr = adapted_frame_at(M, u)
    e1, e2, e3 = fr.vectors.T
    nu = e3 if e3[0] > 0 else -e3  # outward radial at (1,0,0)
    assert np.allclose(second_fundamental_form(M, u, e1, e1).ambient, -nu, atol=1e-12)
    assert np.allclose(second_fundamental_form(M, u, e2, e2).ambient, -nu, atol=1e-12)
    assert np.max(np.abs(second_fundamental_form(M, u, e1, e2).ambient)) < 1e-12
    # A_nu = -identity on the tangent space
    for X in (e1, e2):
        assert np.allclose(weingarten(M, u, nu, X).ambient, -X, atol=1e-12)
    # S values
    assert np.allclose(tensor_S(M, u, e1, e1), -nu, atol=1e-12)
    assert np.allclose(tensor_S(M, u, e1, nu), e1, atol=1e-12)
    assert np.max(np.abs(tensor_S(M, u, e1, e2))) < 1e-12


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_second_fundamental_form_symmetric(name):
    M = builtin_submanifold(name)
    rng = np.random.default_rng(7)
    for u in sample_points(M, 8, seed=11):
        fd = M.frame_data(u)
        X, Y = random_tangent(fd, rng), random_tangent(fd, rng)
        a = second_fundamental_form(M, u, X, Y).ambient
        b = second_fundamental_form(M, u, Y, X).ambient
        assert np.max(np.abs(a - b)) < 1e-9


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_weingarten_duality(name):
    # A comes from differentiating the normal frame, Pi from differentiating
    # tangent extensions; the duality ties the two independent routes together
    M = builtin_submanifold(name)
    rng = np.random.default_rng(13)
    for u in sample_points(M, 8, seed=5):
        fd = M.frame_data(u)
        G = fd.G.val
        X, Y = random_tangent(fd, rng), random_tangent(fd, rng)
        V = random_normal_vec(fd, rng)
        lhs = weingarten(M, u, V, X).ambient @ G @ Y
        rhs = second_fundamental_form(M, u, X, Y).ambient @ G @ V
        assert abs(lhs - rhs) < 1e-9


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_tensor_S_skew_and_off_diagonal(name):
    M = builtin_submanifold(name)
    rng = np.random.default_rng(17)
    for u in sample_points(M, 6, seed=23):
        fd = M.frame_data(u)
        G = fd.G.val
        d = M.ambient.dim
        X = random_tangent(fd, rng)
        Y, Z = rng.standard_normal(d), rng.standard_normal(d)
        SY = tensor_S(M, u, X, Y)
        SZ = tensor_S(M, u, X, Z)
        assert abs(SY @ G @ Z + Y @ G @ SZ) < 1e-9
        # S maps tangent to normal and normal to tangent
        t, n = project(M, u, SY if False else tensor_S(M, u, X, project(M, u, Y)[0]))
        assert np.max(np.abs(t)) < 1e-9
        t, n = project(M, u, tensor_S(M, u, X, project(M, u, Y)[1]))
        assert np.max(np.abs(n)) < 1e-9


def test_nonvacuous_S_on_curved_builtins():
    # great2 is totally geodesic (S = 0 by construction), so it is excluded
    for name in ("circle", "sphere2", "catenoid", "clifford"):
        M = builtin_submanifold(name)
        u = M.chart_domain.mean(axis=1)
        fd = M.frame_data(u)
        assert np.max(np.abs(fd.Smats.val)) > 0.1, name


def test_project_examples():
    M = builtin_submanifold("plane")
    t, n = project(M, [0.1, 0.2], [3.0, 4.0, 5.0])
    assert np.allclose(t, [3, 4, 0]) and np.allclose(n, [0, 0, 5])

    M = builtin_submanifold("sphere2")
    u = [np.pi / 2, 0.0]
    t, n = project(M, u, [1.0, 0.0, 0.0])
    assert np.max(np.abs(t)) < 1e-12
    assert np.allclose(n, [1, 0, 0], atol=1e-12)


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_projection_decomposition_exact(name):
    M = builtin_submanifold(name)
    rng = np.random.default_rng(29)
    for u in sample_points(M, 6, seed=31):
        Y = rng.standard_normal(M.ambient.dim)
        t, n = project(M, u, Y)
        assert np.max(np.abs(t + n - Y)) < 1e-12
        G = M.frame_data(u).G.val
        assert abs(t @ G @ n) < 1e-10


def test_nabla_prime_plane_equals_ambient():
    M = builtin_submanifold("plane")
    u = [0.4, -0.2]

    def fld(v):
        return jstack([jsin(v[0] * v[1]), v[0] + v[1], jcos(v[1])], axis=-1)

    X = np.array([0.7, -0.3, 0.0])
    got = nabla_prime(M, fld, u, X)
    # euclidean ambient: nabla_X fld = directional derivative of components
    fd = M.frame_data(u)
    Yj = fd.field_jet(fld)
    expect = X[0] * Yj.d(0).val + X[1] * Yj.d(1).val
    assert np.max(np.abs(got - expect)) < 1e-12


def test_nabla_prime_circle_arc_length_frame():
    M = builtin_submanifold("circle")

    def e1f(v):
        return jstack([-jsin(v[0]), jcos(v[0])], axis=-1)

    for u0 in (-0.8, 0.0, 0.9):
        fd = M.frame_data([u0])
        out = nabla_prime(M, e1f, [u0], fd.E.val[:, 0])
        assert np.max(np.abs(out)) < 1e-12


@pytest.mark.parametrize("name", CURVED)
def test_nabla_minus_nabla_prime_is_S(name):
    M = builtin_submanifold(name)
    rng = np.random.default_rng(41)
    for u in sample_points(M, 5, seed=43):
        fd = M.frame_data(u)
        X = random_tangent(fd, rng)
        coeff = rng.standard_normal(fd.d)

        def fld(v, fd=fd, coeff=coeff):
            # frame field with constant frame coefficients, as an ambient jet
            from framelab.jets import jet_einsum

            return jet_einsum("ij,j->i", fd.E, coeff)

        Yj = fd.field_jet(fld)
        full = fd.cov_deriv(Yj, fd.chart_of_tangent(X)).val
        prime = nabla_prime(M, fld, u, X)
        S = tensor_S(M, u, X, Yj.val)
        assert np.max(np.abs(full - prime - S)) < 1e-9


@pytest.mark.parametrize("name", ("sphere2", "clifford", "great2(0.5)"))
def test_nabla_prime_metric_compatibility(name):
    M = builtin_submanifold(name)
    rng = np.random.default_rng(47)
    sp = M.frame_data(M.chart_domain.mean(axis=1)).uspace

    def mkfield(seed):
        r = np.random.default_rng(seed)
        c0 = r.standard_normal(M.ambient.dim)
        c1 = r.standard_normal(M.ambient.dim)

        def fld(v):
            return jstack(
                [c0[i] + c1[i] * jsin(v[0] + 0.3 * v[-1]) for i in range(M.ambient.dim)],
                axis=-1,
            )

        return fld

    Yf, Zf = mkfield(1), mkfield(2)
    for u in sample_points(M, 5, seed=53):
        fd = M.frame_data(u)
        X = random_tangent(fd, rng)
        xc = fd.chart_of_tangent(X)
        Yj, Zj = fd.field_jet(Yf), fd.field_jet(Zf)
        from framelab.jets import jet_einsum

        inner = jet_einsum("i,i->", Yj, jet_einsum("ij,j->i", fd.G, Zj))
        lhs = sum(xc[a] * inner.d(a).val for a in range(fd.p))
        G0 = fd.G.val
        rhs = nabla_prime(M, Yf, u, X) @ G0 @ Zj.val + Yj.val @ G0 @ nabla_prime(M, Zf, u, X)
        assert abs(lhs - rhs) < 1e-8


def test_nabla_prime_preserves_split():
    M = builtin_submanifold("sphere2")
    u = [1.1, 0.4]
    fd = M.frame_data(u)

    def tangent_field(v):
        from framelab.jets import jet_einsum

        return jet_einsum("iB,B->i", fd.E[:, :2], np.array([1.3, -0.4]))

    def normal_field(v):
        from framelab.jets import jet_einsum

        return jet_einsum("ib,b->i", fd.E[:, 2:], np.array([0.8]))

    X = fd.E.val[:, 0]
    t, n = project(M, u, nabla_prime(M, tangent_field, u, X))
    assert np.max(np.abs(n)) < 1e-10
    t, n = project(M, u, nabla_prime(M, normal_field, u, X))
    assert np.max(np.abs(t)) < 1e-10


def test_second_fundamental_form_extension_independent():
    # add a tangent field vanishing at u0 to the extension; Pi must not move
    M = builtin_submanifold("catenoid")
    u0 = np.array([0.3, -0.2])
    fd = M.frame_data(u0)
    rng = np.random.default_rng(59)
    X = random_tangent(fd, rng)
    Y = random_tangent(fd, rng)
    base = second_fundamental_form(M, u0, X, Y).ambient

    yfr = fd.frame_components(Y)[:2]

    def wiggled(v):
        from framelab.jets import jet_einsum

        bump = (v[0] - u0[0]) * 2.7 + (v[1] - u0[1]) * (-1.4)
        coeff = jstack([bump * (0.5 + i) + yfr[i] for i in range(2)], axis=-1)
        return jet_einsum("iB,B->i", fd.E[:, :2], coeff)

    Yj = fd.field_jet(wiggled)
    assert np.max(np.abs(Yj.val - Y)) < 1e-12
    full = fd.cov_deriv(Yj, fd.chart_of_tangent(X)).val
    _, nor = fd.split(full)
    assert np.max(np.abs(nor - base)) < 1e-10


def test_builtin_catalog_errors():
    with pytest.raises(FrameError, match="unknown submanifold"):
        builtin_submanifold("torus")
    with pytest.raises(FrameError):
        builtin_submanifold("great2(-1)")
    with pytest.raises(FrameError):
        builtin_submanifold("great2(abc)")
