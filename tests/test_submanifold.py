import gc
import re
import weakref

import numpy as np
import pytest

from framelab import operators as ops
from framelab import verify
from framelab.ambient import euclidean
from framelab.jets import get_space, jet_along, jet_einsum, jsin, jstack
from framelab.omn_geometry import OmnError, domain_samples
from framelab.submanifold import FrameError, FramePointData, ImmersedSubmanifold, builtin_submanifold, is_int

ALL_BUILTINS = ("plane", "plane3", "circle", "sphere2", "catenoid", "great2(0.5)", "clifford")
CURVED = ("circle", "sphere2", "catenoid", "great2(0.5)", "clifford")


def sample_points(M, count, seed=0):
    rng = np.random.default_rng(seed)
    lo, hi = M.chart_domain[:, 0], M.chart_domain[:, 1]
    pad = 0.05 * (hi - lo)
    return rng.uniform(lo + pad, hi - pad, size=(count, M.p))


def random_tangent_frame(fd, rng):
    """Frame components (d,) of a random tangent vector."""
    return np.concatenate([rng.standard_normal(fd.p), np.zeros(fd.n)])


def random_normal_frame(fd, rng):
    """Frame components (d,) of a random normal vector."""
    return np.concatenate([np.zeros(fd.p), rng.standard_normal(fd.n)])


def chart_coeffs(fd, vfr):
    """Chart coefficients of the tangent vector with frame components vfr."""
    return fd.C.val @ vfr[: fd.p]


def tangent_normal_parts(fd, Y):
    """(tangent part, normal part) of an ambient vector, ambient components."""
    yfr = fd.frame_components(Y)
    return fd.E.val[:, : fd.p] @ yfr[: fd.p], fd.E.val[:, fd.p:] @ yfr[fd.p:]


def test_plane_frame_is_standard_basis():
    M = builtin_submanifold("plane")
    E = M.frame_data([0.3, -0.5]).E.val
    assert np.allclose(E, np.eye(3), atol=1e-14)
    assert M.pivots == (2,)


def test_circle_frame_at_zero():
    M = builtin_submanifold("circle")
    E = M.frame_data([0.0]).E.val
    assert np.allclose(E[:, 0], [0, 1], atol=1e-14)
    assert np.allclose(np.abs(E[:, 1]), [1, 0], atol=1e-14)


def test_sphere2_frame_at_equator():
    M = builtin_submanifold("sphere2")
    E = M.frame_data([np.pi / 2, 0.0]).E.val
    G = np.eye(3)
    tan = E[:, :2]
    assert np.max(np.abs(tan.T @ G @ tan - np.eye(2))) < 1e-12
    assert np.allclose(np.abs(E[:, 2]), [1, 0, 0], atol=1e-12)


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
    assert np.array_equal(M1.frame_data(u).E.val, M2.frame_data(u).E.val)


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


# The valid order of every attribute in the FramePointData table.
FRAME_ORDERS = {
    "phi": 4, "J": 3, "G": 3, "Gam": 2, "R": 1, "E": 3, "Einv": 3, "omega": 2,
    "C": 3, "Dmat": 3, "g_chart": 3, "Gam_chart": 2, "Smats": 2, "Pfr": 2,
    "gt_chart": 2, "Gamt": 1, "Rt_chart": 0, "W": 2, "Wchart": 2, "Rfr": 1,
}


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_frame_jets_store_exactly_their_valid_coefficients(name):
    M = builtin_submanifold(name)
    fd = M.frame_data(sample_points(M, 2, seed=5))
    for attr, order in FRAME_ORDERS.items():
        jet = getattr(fd, attr)
        assert jet.valid == order, attr
        assert jet.coeffs.shape == jet.shape + (get_space(fd.p, order).ncoeff,), attr


# One point and a batch of three, each on a fresh manifold so no cached frame serves another order.
POINT_SETS = {"point": lambda M: sample_points(M, 1, seed=6)[0], "batch": lambda M: sample_points(M, 3, seed=6)}


@pytest.mark.parametrize("points", POINT_SETS)
@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_low_order_frame_is_the_leading_part_of_the_order_4_frame(name, points):
    """A frame of order k holds every attribute valid to its listed order
    minus 4 - k, with coefficients bitwise equal to the leading ones of the
    order-4 frame at the same points."""
    u = POINT_SETS[points](builtin_submanifold(name))
    full = builtin_submanifold(name).frame_data(u)
    for k in (1, 2, 3):
        fd = builtin_submanifold(name).frame_data(u, k)
        assert fd.order == k
        for attr, top in FRAME_ORDERS.items():
            if top - (4 - k) < 0:
                continue
            jet, ref = getattr(fd, attr), getattr(full, attr)
            assert jet.valid == top - (4 - k), (k, attr)
            assert np.array_equal(jet.coeffs, ref.coeffs[..., : jet.coeffs.shape[-1]]), (k, attr)


@pytest.mark.parametrize("points", POINT_SETS)
@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_reading_past_the_frame_order_is_refused(name, points):
    M = builtin_submanifold(name)
    fd = M.frame_data(POINT_SETS[points](M), 1)
    for attr in ("Gamt", "Rt_chart", "Rfr"):
        need = 4 - FRAME_ORDERS[attr]
        with pytest.raises(FrameError, match=f"^{attr} needs a frame of order {need} or more; this frame is order 1$"):
            getattr(fd, attr)


@pytest.mark.parametrize("points", POINT_SETS)
@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_frame_cache_serves_lower_orders_and_rebuilds_for_higher(name, points, monkeypatch):
    """One cache entry per point set: a cached frame of at least the asked
    order is returned as it is, and a higher request builds the frame once
    more and replaces the entry."""
    M = builtin_submanifold(name)
    u = POINT_SETS[points](M)
    built = []
    init = FramePointData.__init__

    def counting(self, sub, u0, order):
        built.append(order)
        init(self, sub, u0, order)

    monkeypatch.setattr(FramePointData, "__init__", counting)
    low = M.frame_data(u, 2)
    assert M.frame_data(u, 1) is low and M.frame_data(u, 2) is low
    full = M.frame_data(u)
    assert full is not low and full.order == 4
    assert M.frame_data(u, 1) is full and M.frame_data(u, 3) is full and M.frame_data(u) is full
    assert built == [2, 4]
    assert len(M._cache) == 1


def test_frame_order_below_one_is_refused():
    M = builtin_submanifold("sphere2")
    M.frame_data([1.1, 0.2])
    with pytest.raises(FrameError, match="jet order 1 or more, got 0"):
        M.frame_data([1.1, 0.2], 0)
    # an order that is not an integer is refused, not rounded or read as 1
    for order in (True, 2.5, "2"):
        with pytest.raises(FrameError, match=f"integer jet order 1 or more, got {re.escape(repr(order))}"):
            M.frame_data([1.1, 0.2], order)


@pytest.mark.parametrize("value", [True, 1.0, "1"])
def test_one_integer_check_refuses_what_is_not_an_integer(value):
    """is_int is the one integer check: the frame order, the sample count
    and the seed are each refused with their own message when they are a
    bool, a float or a string, though each of these reads as 1."""
    assert is_int(1) and is_int(np.int64(1)) and not is_int(value)
    M = builtin_submanifold("sphere2")
    got = re.escape(repr(value))
    with pytest.raises(FrameError, match=f"a frame needs an integer jet order 1 or more, got {got}$"):
        M.frame_data([1.1, 0.2], value)
    with pytest.raises(OmnError, match=f"sample count must be an integer >= 1, got {got}$"):
        domain_samples(M, value)
    with pytest.raises(OmnError, match=f"seed must be an integer >= 0, got {got}$"):
        domain_samples(M, 3, seed=value)
    with pytest.raises(verify.VerifyError, match=f"samples must be an integer >= 1, got {got}$"):
        verify.run_suite(["sphere2"], samples=value)
    with pytest.raises(verify.VerifyError, match=f"seed must be an integer >= 0, got {got}$"):
        verify.run_suite(["sphere2"], samples=3, seed=value)


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
        assert np.max(np.abs(fd.Smats.val)) < 1e-14
        assert np.max(np.abs(ops.s_field_matrix(fd, rng.standard_normal(2)).val)) < 1e-14


def test_circle_frenet_values():
    M = builtin_submanifold("circle")
    u = [0.0]
    fd = M.frame_data(u)
    E = fd.E.val
    e1, e2 = E.T
    S = ops.s_field_matrix(fd, chart_coeffs(fd, np.array([1.0, 0.0]))).val
    # e2 = +(1,0) is the outward normal at x=(1,0): Pi(e1, e1) = S_{e1} e1 = -e2,
    # and the Weingarten map A_{e2} e1 = -S_{e1} e2 = -e1
    assert np.allclose(E @ (S @ [1.0, 0.0]), -e2, atol=1e-13)
    assert np.allclose(E @ (S @ [0.0, 1.0]), e1, atol=1e-13)
    assert np.array_equal(S, fd.Smats.val[0])


def test_sphere2_shape_operator():
    M = builtin_submanifold("sphere2")
    u = [np.pi / 2, 0.0]
    fd = M.frame_data(u)
    E = fd.E.val
    e1, e2, e3 = E.T
    nu = e3 if e3[0] > 0 else -e3  # outward radial at (1,0,0)
    nu_fr = fd.frame_components(nu)
    for A, X in enumerate((e1, e2)):
        S = fd.Smats.val[A]
        # Pi(e_A, e_B) = -delta_AB nu, and A_nu = -identity on the tangent space
        for B in range(2):
            want = -nu if A == B else np.zeros(3)
            assert np.allclose(E @ (S @ np.eye(3)[B]), want, atol=1e-12)
        assert np.allclose(E @ (S @ nu_fr), X, atol=1e-12)


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_second_fundamental_form_symmetric(name):
    """Pi(X, Y) = S_X Y for tangent X, Y is symmetric in X and Y."""
    M = builtin_submanifold(name)
    rng = np.random.default_rng(7)
    for u in sample_points(M, 8, seed=11):
        fd = M.frame_data(u)
        xfr, yfr = random_tangent_frame(fd, rng), random_tangent_frame(fd, rng)
        a = ops.s_field_matrix(fd, chart_coeffs(fd, xfr)).val @ yfr
        b = ops.s_field_matrix(fd, chart_coeffs(fd, yfr)).val @ xfr
        assert np.max(np.abs(a - b)) < 1e-9


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_weingarten_duality(name):
    """g(A_V X, Y) = g(Pi(X, Y), V): the Weingarten map A_V X = -S_X V reads
    the normal columns of the connection forms, Pi(X, Y) = S_X Y the tangent
    ones, and nothing in their construction makes the two blocks agree."""
    M = builtin_submanifold(name)
    rng = np.random.default_rng(13)
    for u in sample_points(M, 8, seed=5):
        fd = M.frame_data(u)
        xfr, yfr = random_tangent_frame(fd, rng), random_tangent_frame(fd, rng)
        vfr = random_normal_frame(fd, rng)
        S = ops.s_field_matrix(fd, chart_coeffs(fd, xfr)).val
        assert abs(-(S @ vfr) @ yfr - (S @ yfr) @ vfr) < 1e-9


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_tensor_S_skew_and_off_diagonal(name):
    M = builtin_submanifold(name)
    rng = np.random.default_rng(17)
    for u in sample_points(M, 6, seed=23):
        fd = M.frame_data(u)
        G = fd.G.val
        d = M.ambient.dim
        xc = chart_coeffs(fd, random_tangent_frame(fd, rng))
        # S_X as a matrix on ambient components
        S = fd.E.val @ ops.s_field_matrix(fd, xc).val @ fd.Einv.val
        Y, Z = rng.standard_normal(d), rng.standard_normal(d)
        assert abs((S @ Y) @ G @ Z + Y @ G @ (S @ Z)) < 1e-9
        # S maps tangent to normal and normal to tangent
        tan, nor = tangent_normal_parts(fd, Y)
        assert np.max(np.abs(tangent_normal_parts(fd, S @ tan)[0])) < 1e-9
        assert np.max(np.abs(tangent_normal_parts(fd, S @ nor)[1])) < 1e-9


def test_nonvacuous_S_on_curved_builtins():
    # great2 is totally geodesic (S = 0 by construction), so it is excluded
    for name in ("circle", "sphere2", "catenoid", "clifford"):
        M = builtin_submanifold(name)
        u = M.chart_domain.mean(axis=1)
        fd = M.frame_data(u)
        assert np.max(np.abs(fd.Smats.val)) > 0.1, name


def test_project_examples():
    fd = builtin_submanifold("plane").frame_data([0.1, 0.2])
    t, n = tangent_normal_parts(fd, [3.0, 4.0, 5.0])
    assert np.allclose(t, [3, 4, 0]) and np.allclose(n, [0, 0, 5])

    fd = builtin_submanifold("sphere2").frame_data([np.pi / 2, 0.0])
    t, n = tangent_normal_parts(fd, [1.0, 0.0, 0.0])
    assert np.max(np.abs(t)) < 1e-12
    assert np.allclose(n, [1, 0, 0], atol=1e-12)


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_projection_decomposition_exact(name):
    M = builtin_submanifold(name)
    rng = np.random.default_rng(29)
    for u in sample_points(M, 6, seed=31):
        fd = M.frame_data(u)
        Y = rng.standard_normal(M.ambient.dim)
        t, n = tangent_normal_parts(fd, Y)
        assert np.max(np.abs(t + n - Y)) < 1e-12
        assert abs(t @ fd.G.val @ n) < 1e-10


def test_nabla_prime_plane_equals_ambient():
    """On the flat plane nabla'_X Y is the directional derivative of Y's
    chart coefficients."""
    fd = builtin_submanifold("plane").frame_data([0.4, -0.2])
    Yc = jstack([jsin(fd.uv[0] * fd.uv[1]), fd.uv[0] + fd.uv[1]], axis=-1)
    xc = np.array([0.7, -0.3])
    got = ops.vec_nabla_prime_jet(fd, xc, Yc).val
    expect = xc[0] * Yc.d(0).val + xc[1] * Yc.d(1).val
    assert np.max(np.abs(got - expect)) < 1e-12


def test_nabla_prime_circle_arc_length_frame():
    """The unit-speed tangent field of the circle is parallel for nabla'."""
    M = builtin_submanifold("circle")
    for u0 in (-0.8, 0.0, 0.9):
        fd = M.frame_data([u0])
        e1 = fd.uspace.constant(np.array([1.0]))
        assert np.max(np.abs(ops.vec_nabla_prime_jet(fd, e1, e1).val)) < 1e-12


@pytest.mark.parametrize("name", CURVED)
def test_nabla_minus_nabla_prime_is_S(name):
    """For a field Y with constant frame coefficients, nabla_X Y taken in the
    chart (ambient Christoffels along the immersion) minus nabla'_X Y (the
    block-diagonal connection forms) is S_X Y (the S-matrices)."""
    M = builtin_submanifold(name)
    rng = np.random.default_rng(41)
    for u in sample_points(M, 5, seed=43):
        fd = M.frame_data(u)
        xc = chart_coeffs(fd, random_tangent_frame(fd, rng))
        yfr = rng.standard_normal(fd.d)
        Y = jet_einsum("ij,j->i", fd.E, yfr)
        gam_x = jet_einsum("ikl,k->il", fd.Gam, jet_einsum("ka,a->k", fd.J, xc)).val
        full = fd.frame_components(jet_along(xc, Y).val + gam_x @ Y.val)
        prime = ops.omega_along(fd, xc, "prime").val @ yfr
        S = jet_einsum("A,Aij->ij", ops.frame_of_chart(fd, xc), fd.Smats).val
        assert np.max(np.abs(full - prime - S @ yfr)) < 1e-9


@pytest.mark.parametrize("name", ("sphere2", "clifford", "great2(0.5)"))
def test_nabla_prime_metric_compatibility(name):
    """X g(Y, Z) = g(nabla'_X Y, Z) + g(Y, nabla'_X Z) for tangent fields."""
    M = builtin_submanifold(name)
    rng = np.random.default_rng(47)

    def mkfield(fd, seed):
        c0, c1 = np.random.default_rng(seed).standard_normal((2, M.p))
        return jstack([c0[a] + c1[a] * jsin(fd.uv[0] + 0.3 * fd.uv[-1]) for a in range(M.p)], axis=-1)

    for u in sample_points(M, 5, seed=53):
        fd = M.frame_data(u)
        xc = chart_coeffs(fd, random_tangent_frame(fd, rng))
        Yc, Zc = mkfield(fd, 1), mkfield(fd, 2)
        inner = jet_einsum("a,a->", Yc, jet_einsum("ab,b->a", fd.g_chart, Zc))
        lhs = sum(xc[a] * inner.d(a).val for a in range(fd.p))
        g0 = fd.g_chart.val
        rhs = ops.vec_nabla_prime_jet(fd, xc, Yc).val @ g0 @ Zc.val
        rhs += Yc.val @ g0 @ ops.vec_nabla_prime_jet(fd, xc, Zc).val
        assert abs(lhs - rhs) < 1e-8


def test_nabla_prime_preserves_split():
    """nabla' of a varying endomorphism field keeps its h- or m-type."""
    M = builtin_submanifold("sphere2")
    fd = M.frame_data([1.1, 0.4])
    scale = 1.0 + 0.3 * fd.uv[0] * fd.uv[1]
    xc = np.array([0.6, -1.2])
    for i, j in ((0, 1), (0, 2)):
        T = scale * fd.uspace.constant(ops.basis_T(3, i, j))
        h, m = ops.hm_split_mat(ops.nabla_t_field_jet(fd, T, xc, "prime").val, 2)
        assert np.max(np.abs(m if (i, j) == (0, 1) else h)) < 1e-12
        assert np.max(np.abs(h if (i, j) == (0, 1) else m)) > 1e-3


def test_second_fundamental_form_extension_independent():
    # add a tangent field vanishing at u0 to Y; the normal part of nabla_X Y,
    # which is Pi(X, Y) = S_X Y, must not move
    M = builtin_submanifold("catenoid")
    u0 = np.array([0.3, -0.2])
    fd = M.frame_data(u0)
    rng = np.random.default_rng(59)
    xc = chart_coeffs(fd, random_tangent_frame(fd, rng))
    yfr = random_tangent_frame(fd, rng)
    bump = (fd.uv[0] - u0[0]) * 2.7 + (fd.uv[1] - u0[1]) * (-1.4)
    wiggled = jstack([bump * (0.5 + i) + yfr[i] for i in range(2)] + [0.0 * bump], axis=-1)
    assert np.max(np.abs(wiggled.val - yfr)) < 1e-12
    nabla = ops.ambient_deriv_frame(fd, xc, wiggled).val
    assert np.max(np.abs(nabla[:2])) > 0.1  # the bump moves the tangent part
    base = ops.s_field_matrix(fd, xc).val @ yfr
    assert np.max(np.abs(nabla[2:] - base[2:])) < 1e-10


def test_builtin_catalog_errors():
    with pytest.raises(FrameError, match="unknown submanifold"):
        builtin_submanifold("torus")
    with pytest.raises(FrameError):
        builtin_submanifold("great2(-1)")
    with pytest.raises(FrameError):
        builtin_submanifold("great2(abc)")
    with pytest.raises(FrameError, match="bad curvature parameter"):
        builtin_submanifold("great2(1/0)")
    with pytest.raises(FrameError, match="bad curvature parameter"):
        builtin_submanifold("great2(1e400)")
    for bad in (0.5, None):
        with pytest.raises(FrameError, match=f"component at index 2 is {bad!r}, not an expression"):
            ImmersedSubmanifold(2, [[-1.0, 1.0]] * 2, ["u1", "u2", bad], euclidean(3))


def test_great2_takes_a_rational_curvature():
    u = np.array([0.2, -0.4])
    exact, decimal = builtin_submanifold("great2(2/3)"), builtin_submanifold("great2(0.6666666666666666)")
    assert exact.name == decimal.name
    assert np.array_equal(exact.frame_data(u).Rfr.coeffs, decimal.frame_data(u).Rfr.coeffs)
