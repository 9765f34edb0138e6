import numpy as np
import pytest

from framelab.ambient import sphere_chart
from framelab.frame_bundle import (
    decompose_OMN,
    horizontal_lift_prime,
    nabla_ON_primed,
    normal_generators,
    sasaki_mok_inner,
    tangent_generators,
)
from framelab.gauss_map import theorem_check
from framelab.omn_geometry import (
    OmnError,
    curvature_OMN,
    domain_samples,
    is_totally_geodesic,
    mean_curvature_OMN,
    nabla_OMN,
    omn_plane,
    second_fundamental_OMN,
    sectional_OMN,
    tilde_frame_fields,
)
from framelab.operators import basis_T, hm_split_mat
from framelab.submanifold import ImmersedSubmanifold, builtin_submanifold

ALL_BUILTINS = [
    ("plane", np.array([0.3, -0.5])),
    ("plane3", np.array([0.2, 0.1, -0.4])),
    ("circle", np.array([0.4])),
    ("sphere2", np.array([1.1, 0.6])),
    ("catenoid", np.array([0.35, -0.2])),
    ("great2(0.5)", np.array([0.2, -0.4])),
    ("clifford", np.array([0.4, -0.7])),
]

CURVED = [
    ("sphere2", np.array([0.9, 0.3])),
    ("catenoid", np.array([0.4, 0.2])),
    ("clifford", np.array([0.3, -0.7])),
    ("great2(0.7)", np.array([0.25, -0.3])),
    ("plane3", np.array([0.5, -0.3, 0.8])),
]


def tangent_exprs(p, which):
    if p == 1:
        return {"x": ["1.0"], "y": ["u1"], "z": ["0.3"]}[which]
    base = {
        "x": ["1.0", "u1*u2", "u2"],
        "y": ["u2", "0.5", "u1"],
        "z": ["0.3*u1", "1.0", "0.2"],
    }[which]
    return base[:p]


def h_endo_field(p, d, seed=3):
    """Varying block-diagonal skew endo field with entries in every block."""
    rng = np.random.default_rng(seed)
    base = np.zeros((d, d))
    for i in range(d):
        for j in range(i + 1, d):
            if (i < p) == (j < p):
                base[i, j] = rng.normal()
                base[j, i] = -base[i, j]
    # p = 1, n = 1 has no room for a block-diagonal skew entry; keep zero

    def field(fd):
        s = 1.3 + fd.uv[0] * fd.uv[min(1, fd.p - 1)]
        return s * fd.uspace.constant(base)

    return field


def curved_cap():
    """Not minimal in the unit 3-sphere, so sum_e R_{S_e} e is nonzero here; on
    every builtin the ambient is flat, S vanishes or M is minimal in S^3."""
    comps = ["u1", "u2", "0.3*u1*u1+0.2*u2*u2"]
    return ImmersedSubmanifold(2, [[-0.6, 0.6], [-0.6, 0.6]], comps, sphere_chart(1.0, 3))


# -- connection: displayed formulas vs the composed ambient derivative --------


@pytest.mark.parametrize("name,u", CURVED)
@pytest.mark.parametrize("case", ["hh", "hv", "vh", "vv"])
def test_nabla_omn_matches_tangent_part(name, u, case):
    M = builtin_submanifold(name)
    p, d = M.p, M.ambient.dim
    Xf = tangent_exprs(p, "x")
    Yf = tangent_exprs(p, "y")
    T = h_endo_field(p, d, seed=3)
    Tp = h_endo_field(p, d, seed=5)
    args = {"hh": (Xf, Yf), "hv": (Xf, T), "vh": (T, Yf), "vv": (T, Tp)}[case]
    got = nabla_OMN(M, u, case, *args)
    tan, _ = decompose_OMN(nabla_ON_primed(M, u, case, *args))
    assert (got - tan).norm() < 1e-6


@pytest.mark.parametrize("name,u", CURVED)
@pytest.mark.parametrize("case", ["hh", "hv"])
def test_second_fundamental_matches_normal_part(name, u, case):
    M = builtin_submanifold(name)
    p, d = M.p, M.ambient.dim
    Xf = tangent_exprs(p, "x")
    args = (Xf, tangent_exprs(p, "y")) if case == "hh" else (Xf, h_endo_field(p, d))
    pi = second_fundamental_OMN(M, u, case, *args)
    _, nor = decompose_OMN(nabla_ON_primed(M, u, case, *args))
    assert (pi - nor).norm() < 1e-6


def test_nabla_omn_plane_is_flat_derivative():
    # flat base, trivial frame: the result is just the primed lift of X(Y)
    M = builtin_submanifold("plane")
    u = np.array([0.3, -0.4])
    got = nabla_OMN(M, u, "hh", ["1.0", "0.0"], ["u2", "u1*u1"])
    # d/du1 of (u2, u1^2) along (1,0) is (0, 2 u1)
    want = horizontal_lift_prime(M, u, np.array([0.0, 2.0 * u[0]]))
    assert (got - want).norm() < 1e-12


def test_nabla_omn_vertical_commutator():
    M = builtin_submanifold("plane3")
    u = np.array([0.1, 0.2, -0.4])
    T = basis_T(4, 0, 1)
    Tp = basis_T(4, 0, 2)
    got = nabla_OMN(M, u, "vv", T, Tp)
    want = 0.5 * (Tp @ T - T @ Tp)
    assert np.max(np.abs(got.vertical.mat - want)) < 1e-14
    assert np.max(np.abs(got.horizontal)) < 1e-14


def test_nabla_omn_rejects_mixed_vertical():
    M = builtin_submanifold("clifford")
    u = np.array([0.4, -0.7])
    with pytest.raises(OmnError):
        nabla_OMN(M, u, "hv", ["1.0", "0.0"], basis_T(3, 0, 2))


# -- curvature ---------------------------------------------------------------


def test_curvature_plane_all_zero_except_pure_vertical():
    M = builtin_submanifold("plane3")
    u = np.array([0.1, 0.2, -0.4])
    X, Y, Z = (["1.0", "0.0", "0.0"], ["0.0", "1.0", "0.0"], ["0.0", "0.0", "1.0"])
    T = basis_T(4, 0, 1)
    Tp = basis_T(4, 0, 2)
    for case, args in [
        ("hhh", (X, Y, Z)),
        ("hhv", (X, Y, T)),
        ("hvh", (X, T, Z)),
        ("hvv", (X, T, Tp)),
        ("vvh", (T, Tp, Z)),
    ]:
        assert curvature_OMN(M, u, case, *args).norm() < 1e-12
    # [T, Tp] lands on the (1,2) generator, so closing the bracket against T
    # itself is nonzero
    vvv = curvature_OMN(M, u, "vvv", T, Tp, T)
    assert vvv.norm() > 1e-3


def test_curvature_pure_vertical_nested_commutator():
    M = builtin_submanifold("plane3")
    u = np.array([0.1, 0.2, -0.4])
    rng = np.random.default_rng(11)
    mats = []
    for seed in (1, 2, 3):
        m = np.zeros((4, 4))
        for i in range(4):
            for j in range(i + 1, 4):
                if (i < 3) == (j < 3):
                    m[i, j] = rng.normal()
                    m[j, i] = -m[i, j]
        mats.append(m)
    T, Tp, Tpp = mats
    got = curvature_OMN(M, u, "vvv", T, Tp, Tpp)
    comm = T @ Tp - Tp @ T
    want = -0.25 * (comm @ Tpp - Tpp @ comm)
    assert np.max(np.abs(got.vertical.mat - want)) == 0.0
    assert np.max(np.abs(got.horizontal)) == 0.0


def test_curvature_great2_space_form_closed_form():
    # on a totally geodesic plane in a curvature-kappa space form the
    # horizontal-horizontal-horizontal case collapses to a constant-curvature
    # tensor with the squared-curvature correction
    kap = 0.7
    M = builtin_submanifold(f"great2({kap})")
    u = np.array([0.25, -0.3])
    fd = M.frame_data(u)
    rng = np.random.default_rng(7)
    Xc, Yc, Zc = rng.normal(size=(3, 2))
    got = curvature_OMN(M, u, "hhh", Xc, Yc, Zc)
    gt = fd.gt_chart.val
    coef = kap - 1.5 * kap * kap
    chart = coef * ((Yc @ gt @ Zc) * Xc - (Xc @ gt @ Zc) * Yc)
    want = horizontal_lift_prime(M, u, chart)
    assert (got - want).norm() < 1e-6
    assert got.norm() > 1e-2


@pytest.mark.parametrize("name,u", [("catenoid", np.array([0.4, 0.2])), ("clifford", np.array([0.3, -0.7]))])
def test_curvature_antisymmetry(name, u):
    M = builtin_submanifold(name)
    p, d = M.p, M.ambient.dim
    X = tangent_exprs(p, "x")
    Y = tangent_exprs(p, "y")
    Z = tangent_exprs(p, "z")
    T = h_endo_field(p, d, seed=3)
    Tp = h_endo_field(p, d, seed=5)
    a = curvature_OMN(M, u, "hhh", X, Y, Z)
    b = curvature_OMN(M, u, "hhh", Y, X, Z)
    assert (a + b).norm() < 1e-6
    a = curvature_OMN(M, u, "hhv", X, Y, T)
    b = curvature_OMN(M, u, "hhv", Y, X, T)
    assert (a + b).norm() < 1e-6
    a = curvature_OMN(M, u, "vvh", T, Tp, Z)
    b = curvature_OMN(M, u, "vvh", Tp, T, Z)
    assert (a + b).norm() < 1e-6
    a = curvature_OMN(M, u, "vvv", T, Tp, T)
    b = curvature_OMN(M, u, "vvv", Tp, T, T)
    assert (a + b).norm() < 1e-12


# -- sectional curvature -------------------------------------------------------


def test_sectional_great2_half_horizontal():
    M = builtin_submanifold("great2(0.5)")
    u = np.array([0.2, -0.35])
    pl = omn_plane(M, u, ("hprime", [1.0, 0.0]), ("hprime", [0.0, 1.0]))
    assert abs(sectional_OMN(pl) - 0.125) < 1e-9


def test_sectional_vertical_sixteenth():
    M = builtin_submanifold("plane3")
    u = np.array([0.1, 0.2, -0.4])
    pl = omn_plane(M, u, ("vertical", basis_T(4, 0, 1)), ("vertical", basis_T(4, 0, 2)))
    assert abs(sectional_OMN(pl) - 1.0 / 16.0) < 1e-12


def test_sectional_plane_horizontal_zero():
    M = builtin_submanifold("plane")
    u = np.array([0.3, -0.5])
    pl = omn_plane(M, u, ("hprime", [1.0, 0.4]), ("hprime", [-0.2, 1.0]))
    assert abs(sectional_OMN(pl)) < 1e-12


@pytest.mark.parametrize("name,u", [("catenoid", np.array([0.4, 0.2])), ("clifford", np.array([0.3, -0.7]))])
def test_sectional_horizontal_matches_curvature_route(name, u):
    M = builtin_submanifold(name)
    pl = omn_plane(M, u, ("hprime", [1.0, 0.3]), ("hprime", [-0.2, 1.0]))
    R = curvature_OMN(M, u, "hhh", pl.xc, pl.yc, pl.yc)
    assert abs(sectional_OMN(pl) - sasaki_mok_inner(R, pl.v1)) < 1e-6


@pytest.mark.parametrize("name,u", [("catenoid", np.array([0.4, 0.2])), ("great2(0.7)", np.array([0.25, -0.3]))])
def test_sectional_mixed_matches_curvature_route(name, u):
    # the quarter-of-the-square value: pairing R(X^{h'}, bar T) bar T back
    # against X^{h'} reproduces it, so the two routes agree
    M = builtin_submanifold(name)
    d = M.ambient.dim
    T = hm_split_mat(h_endo_field(M.p, d, seed=4)(M.frame_data(u)).val, M.p)[0]
    pl = omn_plane(M, u, ("hprime", [1.0, 0.3]), ("vertical", T))
    R = curvature_OMN(M, u, "hvv", pl.xc, pl.T, pl.T)
    val = sectional_OMN(pl)
    assert abs(val - sasaki_mok_inner(R, pl.v1)) < 1e-6
    if name.startswith("great2"):
        assert val > 1e-3


def test_sectional_mixed_and_vertical_nonnegative():
    rng = np.random.default_rng(2)
    for name, u in CURVED:
        M = builtin_submanifold(name)
        p, d = M.p, M.ambient.dim
        for _ in range(5):
            x = rng.normal(size=p)
            T = np.zeros((d, d))
            Tp = np.zeros((d, d))
            for i in range(d):
                for j in range(i + 1, d):
                    if (i < p) == (j < p):
                        T[i, j], Tp[i, j] = rng.normal(size=2)
                        T[j, i], Tp[j, i] = -T[i, j], -Tp[i, j]
            pl = omn_plane(M, u, ("hprime", x), ("vertical", T))
            assert sectional_OMN(pl) >= 0.0
            if np.max(np.abs(T @ Tp - Tp @ T)) > 1e-8:
                pl2 = omn_plane(M, u, ("vertical", T), ("vertical", Tp))
                assert sectional_OMN(pl2) >= 0.0


@pytest.mark.parametrize("kap", [0.1, 0.5, 2.0 / 3.0])
def test_sectional_nonnegative_space_form_range(kap):
    # totally geodesic base in a space form with curvature in [0, 2/3]:
    # every sampled plane of the three kinds has nonnegative curvature
    M = builtin_submanifold(f"great2({kap})")
    rng = np.random.default_rng(9)
    for u in domain_samples(M, 6, seed=1):
        x = rng.normal(size=2)
        y = rng.normal(size=2)
        T = np.zeros((3, 3))
        T[0, 1], T[1, 0] = 1.0, -1.0
        pl = omn_plane(M, u, ("hprime", x), ("hprime", y))
        assert sectional_OMN(pl) >= -1e-9
        plm = omn_plane(M, u, ("hprime", x), ("vertical", T))
        assert sectional_OMN(plm) >= -1e-9
        # the only block-diagonal verticals here are multiples of T, so no
        # vertical plane exists; mixed and horizontal cover the rest


def test_omn_plane_validates():
    M = builtin_submanifold("catenoid")
    u = np.array([0.4, 0.2])
    with pytest.raises(OmnError):
        omn_plane(M, u, ("hprime", [1.0, 0.0]), ("hprime", [2.0, 0.0]))
    with pytest.raises(OmnError):
        omn_plane(M, u, ("vertical", basis_T(3, 0, 2)), ("hprime", [1.0, 0.0]))
    # a vanishing first direction is refused, not normalised to NaN
    for spec1, spec2 in (
        (("hprime", [0.0, 0.0]), ("hprime", [1.0, 0.0])),
        (("hprime", [0.0, 0.0]), ("vertical", basis_T(3, 0, 1))),
        (("vertical", np.zeros((3, 3))), ("vertical", basis_T(3, 0, 1))),
    ):
        with pytest.raises(OmnError, match="vanishes"):
            omn_plane(M, u, spec1, spec2)
    pl = omn_plane(M, u, ("vertical", basis_T(3, 0, 1)), ("hprime", [1.0, 0.0]))
    assert pl.kind == "hv"
    assert abs(sasaki_mok_inner(pl.v1, pl.v2)) < 1e-10
    assert abs(sasaki_mok_inner(pl.v1, pl.v1) - 1.0) < 1e-10
    assert abs(sasaki_mok_inner(pl.v2, pl.v2) - 1.0) < 1e-10


# -- second fundamental form and mean curvature --------------------------------


def test_pi_symmetric_and_normal():
    for name, u in CURVED:
        M = builtin_submanifold(name)
        p = M.p
        X = tangent_exprs(p, "x")
        Y = tangent_exprs(p, "y")
        a = second_fundamental_OMN(M, u, "hh", X, Y)
        b = second_fundamental_OMN(M, u, "hh", Y, X)
        assert (a - b).norm() < 1e-8
        for gen in tangent_generators(M, u):
            assert abs(sasaki_mok_inner(a, gen)) < 1e-8


def test_pi_vertical_vertical_zero():
    for name, u in ALL_BUILTINS:
        M = builtin_submanifold(name)
        d = M.ambient.dim
        pi = second_fundamental_OMN(M, u, "vv", basis_T(d, 0, 1), basis_T(d, 0, 1))
        assert pi.norm() == 0.0


def test_pi_plane_zero():
    M = builtin_submanifold("plane")
    u = np.array([0.3, -0.5])
    pi = second_fundamental_OMN(M, u, "hh", ["1.0", "u2"], ["u1", "0.3"])
    assert pi.norm() < 1e-12


def test_mean_curvature_sphere2_value():
    M = builtin_submanifold("sphere2")
    for u in (np.array([0.9, 0.3]), np.array([1.6, -0.8])):
        rep = mean_curvature_OMN(M, u)
        assert rep.z_pairings.shape == (1,)
        assert abs(rep.z_pairings[0] + 2.0 / 3.0) < 1e-8
        assert np.max(np.abs(rep.t_pairings)) < 1e-8
        assert abs(rep.norm - 2.0 / 3.0) < 1e-8


def test_mean_curvature_plane_zero():
    M = builtin_submanifold("plane")
    rep = mean_curvature_OMN(M, np.array([0.3, -0.5]))
    assert rep.norm < 1e-12


def test_mean_curvature_pairings_match_generators():
    for name, u in [("sphere2", np.array([0.9, 0.3])), ("catenoid", np.array([0.4, 0.2])), ("clifford", np.array([0.3, -0.7]))]:
        M = builtin_submanifold(name)
        rep = mean_curvature_OMN(M, u)
        gens = normal_generators(M, u)
        n = M.n
        flat = list(rep.z_pairings) + list(rep.t_pairings.reshape(-1))
        for coeff, gen in zip(flat, gens):
            assert abs(coeff - sasaki_mok_inner(rep.H, gen)) < 1e-10


@pytest.mark.parametrize("name", [name for name, _ in ALL_BUILTINS] + ["cap"])
def test_mean_curvature_is_trace_of_second_fundamental_form(name):
    """H, assembled once from the frame sums, is the trace of the Pi that the
    registry checks against the projection of the ambient connection."""
    M = curved_cap() if name == "cap" else builtin_submanifold(name)
    for u in domain_samples(M, 3, seed=4):
        E = tilde_frame_fields(M.frame_data(u))
        trace = second_fundamental_OMN(M, u, "hh", E[0], E[0])
        for Ec in E[1:]:
            trace = trace + second_fundamental_OMN(M, u, "hh", Ec, Ec)
        H = mean_curvature_OMN(M, u).H
        assert np.max(np.abs(H.horizontal - trace.horizontal)) < 1e-12
        assert np.max(np.abs(H.vertical.mat - trace.vertical.mat)) < 1e-12


def test_mean_curvature_orthogonal_to_tangent_space():
    for name, u in CURVED:
        M = builtin_submanifold(name)
        rep = mean_curvature_OMN(M, u)
        for gen in tangent_generators(M, u):
            assert abs(sasaki_mok_inner(rep.H, gen)) < 1e-8


# -- verdicts -------------------------------------------------------------------


def test_is_minimal_plane():
    rep = theorem_check(builtin_submanifold("plane"), samples=40)
    assert rep.minimal
    assert rep.max_mean_curvature < 1e-12


def test_is_minimal_sphere2():
    rep = theorem_check(builtin_submanifold("sphere2"), samples=25)
    assert not rep.minimal
    assert rep.max_mean_curvature >= 2.0 / 3.0 - 1e-6


def test_is_minimal_great2():
    rep = theorem_check(builtin_submanifold("great2(0.5)"), samples=25)
    assert rep.minimal


def test_is_totally_geodesic_verdicts():
    rep = is_totally_geodesic(builtin_submanifold("plane"), samples=5)
    assert rep.totally_geodesic
    assert rep.r_condition_residual < 1e-12
    rep = is_totally_geodesic(builtin_submanifold("great2(0.5)"), samples=5)
    assert rep.totally_geodesic
    assert rep.base_pi_residual < 1e-10
    assert rep.r_condition_residual < 1e-10
    rep = is_totally_geodesic(builtin_submanifold("sphere2"), samples=5)
    assert not rep.totally_geodesic
    assert rep.max_pi_residual > 0.1
