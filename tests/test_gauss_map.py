import numpy as np
import pytest

from framelab import gauss_map as gm
from framelab import omn_geometry as og
from framelab.ambient import sphere_chart
from framelab.frame_bundle import FrameBundleError, nabla_ON, sasaki_mok_inner
from framelab.gauss_map import (
    GaussMapError,
    gauss_pushforward,
    grassmann_nabla,
    grassmann_vector,
    harmonicity_residuals,
    minimality_residuals,
    tension_field,
    tension_field_pullback,
    theorem_check,
)
from framelab.operators import basis_T, hm_split_mat, skew_inner
from framelab.submanifold import FramePointData, ImmersedSubmanifold, builtin_submanifold

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


def curved_cap():
    """Not minimal in the unit 3-sphere, so sum_e R_{S_e} e is nonzero here; on
    every builtin the ambient is flat, S vanishes or M is minimal in S^3."""
    comps = ["u1", "u2", "0.3*u1*u1+0.2*u2*u2"]
    return ImmersedSubmanifold(2, [[-0.6, 0.6], [-0.6, 0.6]], comps, sphere_chart(1.0, 3))


# -- grassmann_vector --------------------------------------------------------


def test_grassmann_vector_rejects_diagonal_blocks():
    M = builtin_submanifold("sphere2")
    bad = np.zeros((3, 3))
    bad[0, 1] = 1.0
    bad[1, 0] = -1.0
    with pytest.raises(GaussMapError):
        grassmann_vector(M, [1.0, 0.3], vertical=bad)


def test_grassmann_vector_arithmetic():
    M = builtin_submanifold("sphere2")
    u = np.array([1.0, 0.2])
    T = basis_T(3, 0, 2)
    v = grassmann_vector(M, u, horizontal=[0.1, 0.0, 0.0], vertical=T)
    w = 2.0 * v - v
    assert np.allclose(w.horizontal, v.horizontal)
    assert np.allclose(w.vertical.mat, v.vertical.mat)
    assert abs(skew_inner(T, T) - 1.0) < 1e-14


def test_grassmann_inner_vertical_is_trace_form():
    M = builtin_submanifold("plane3")
    u = np.array([0.1, 0.2, 0.3])
    T = basis_T(4, 1, 3)
    v = grassmann_vector(M, u, vertical=T)
    assert abs(sasaki_mok_inner(v, v) - 1.0) < 1e-12
    assert abs(v.norm() - 1.0) < 1e-12


def test_grassmann_inner_rejects_mismatched_points():
    M = builtin_submanifold("plane")
    v = grassmann_vector(M, [0.0, 0.0], horizontal=[1.0, 0.0, 0.0])
    w = grassmann_vector(M, [0.5, 0.0], horizontal=[1.0, 0.0, 0.0])
    with pytest.raises(FrameBundleError):
        sasaki_mok_inner(v, w)


# -- pushforward --------------------------------------------------------------


def test_pushforward_plane_has_no_vertical_part():
    M = builtin_submanifold("plane")
    v = gauss_pushforward(M, [0.3, -0.7], [1.0, 2.0])
    assert np.allclose(v.horizontal, [1.0, 2.0, 0.0])
    assert np.max(np.abs(v.vertical.mat)) == 0.0


def test_pushforward_circle_vertical_is_s_matrix():
    M = builtin_submanifold("circle")
    u = np.array([0.4])
    fd = M.frame_data(u)
    e1_chart = fd.C.val @ np.array([1.0])
    v = gauss_pushforward(M, u, e1_chart)
    assert np.max(np.abs(v.vertical.mat - fd.Smats.val[0])) < 1e-12
    h, m = hm_split_mat(v.vertical.mat, 1)
    assert np.max(np.abs(h)) == 0.0


def test_pushforward_rejects_normal_vectors():
    M = builtin_submanifold("sphere2")
    u = np.array([1.0, 0.5])
    fd = M.frame_data(u)
    normal = fd.ambient_components(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(FrameBundleError):
        gauss_pushforward(M, u, normal)


@pytest.mark.parametrize("name,u0", ALL_BUILTINS)
def test_pushforward_is_isometry_onto_deformed_metric(name, u0):
    M = builtin_submanifold(name)
    rng = np.random.default_rng(11)
    for u in og.domain_samples(M, 4, seed=3):
        fd = M.frame_data(u)
        x = rng.standard_normal(M.p)
        v = gauss_pushforward(M, u, x)
        gt = float(x @ fd.gt_chart.val @ x)
        assert abs(sasaki_mok_inner(v, v) - gt) < 1e-9


# -- connection ---------------------------------------------------------------


def test_nabla_plane_constant_fields_flat():
    M = builtin_submanifold("plane")
    u = np.array([0.2, -0.1])
    out = grassmann_nabla(M, u, "hh", ["u1", "0.5"], ["u2", "2.0*u1"])
    fd = M.frame_data(u)
    want = fd.J.val @ np.array([0.5, 2.0 * u[0]])
    assert np.allclose(out.horizontal, want)
    assert np.max(np.abs(out.vertical.mat)) == 0.0


@pytest.mark.parametrize("name,u0", ALL_BUILTINS)
def test_nabla_vertical_vertical_vanishes(name, u0):
    M = builtin_submanifold(name)
    fd = M.frame_data(u0)
    T = basis_T(fd.d, 0, fd.p) if fd.d > fd.p else basis_T(fd.d, 0, 1)
    out = grassmann_nabla(M, u0, "vv", T, T)
    assert out.norm() == 0.0


@pytest.mark.parametrize("name", ["great2(0.7)", "clifford"])
def test_nabla_mixed_horizontal_space_form_value(name):
    kap = 0.7 if name.startswith("great2") else 1.0
    M = builtin_submanifold(name)
    u = np.array([0.3, -0.4])
    fd = M.frame_data(u)
    T = basis_T(fd.d, 0, fd.p)
    x = np.array([0.7, -0.2])
    out = grassmann_nabla(M, u, "hv", fd.uspace.constant(x), T)
    xF = np.concatenate([fd.Dmat.val @ x, np.zeros(fd.d - fd.p)])
    want = fd.ambient_components(-kap * (T @ xF))
    assert np.max(np.abs(out.horizontal - want)) < 1e-7


@pytest.mark.parametrize("name,u0", CURVED)
def test_nabla_matches_off_diagonal_part_of_frame_bundle_connection(name, u0):
    """Forgetting the diagonal blocks intertwines the two bundle connections."""
    M = builtin_submanifold(name)
    fd = M.frame_data(u0)
    rng = np.random.default_rng(7)
    xc, yc = rng.standard_normal(M.p), rng.standard_normal(M.p)
    T = basis_T(fd.d, 0, fd.p)
    for case, a, b in [("hh", xc, yc), ("hv", xc, T), ("vh", T, yc)]:
        up = nabla_ON(M, u0, case, a, b)
        gr = grassmann_nabla(M, u0, case, a, b)
        assert np.max(np.abs(gr.horizontal - up.horizontal)) < 1e-12
        _, m_up = hm_split_mat(up.vertical.mat, fd.p)
        assert np.max(np.abs(gr.vertical.mat - m_up)) < 1e-12


# -- tension field ------------------------------------------------------------


def test_tension_plane_vanishes():
    M = builtin_submanifold("plane")
    assert tension_field(M, [0.4, -0.9]).norm() == 0.0


def test_tension_sphere2_norm():
    M = builtin_submanifold("sphere2")
    for u in [np.array([1.1, 0.3]), np.array([0.8, -0.5])]:
        tau = tension_field(M, u)
        assert abs(tau.norm() - 2.0 / 3.0) < 1e-12
        fd = M.frame_data(u)
        hfr = fd.frame_components(tau.horizontal)
        assert np.max(np.abs(hfr[: fd.p])) < 1e-12
        assert np.max(np.abs(tau.vertical.mat)) < 1e-12


@pytest.mark.parametrize("name,u0", CURVED + [("cap", np.array([0.3, -0.2]))])
def test_tension_two_routes_agree(name, u0):
    M = curved_cap() if name == "cap" else builtin_submanifold(name)
    tau = tension_field(M, u0)
    tau_b = tension_field_pullback(M, u0)
    assert (tau - tau_b).norm() < 1e-6


@pytest.mark.parametrize("name,u0", CURVED)
def test_tension_frame_rotation_invariance(name, u0):
    M = builtin_submanifold(name)
    rng = np.random.default_rng(19)
    tau = tension_field(M, u0)
    for _ in range(3):
        Q, _r = np.linalg.qr(rng.standard_normal((M.p, M.p)))
        tau_q = tension_field(M, u0, rotation=Q)
        assert (tau - tau_q).norm() < 1e-8


def test_tension_rejects_non_orthogonal_rotation():
    M = builtin_submanifold("sphere2")
    with pytest.raises(GaussMapError):
        tension_field(M, [1.0, 0.2], rotation=np.array([[1.0, 1.0], [0.0, 1.0]]))


# -- residuals ----------------------------------------------------------------


def test_residuals_plane_all_zero():
    M = builtin_submanifold("plane")
    assert harmonicity_residuals(M, [0.1, 0.9]) == (0.0, 0.0, 0.0)
    assert minimality_residuals(M, [0.1, 0.9]) == (0.0, 0.0)


def test_residuals_sphere2_first_condition():
    M = builtin_submanifold("sphere2")
    r = harmonicity_residuals(M, [1.1, 0.3])
    assert abs(r[0] - 2.0 / 3.0) < 1e-12
    assert max(r[1], r[2]) < 1e-12
    m = minimality_residuals(M, [1.1, 0.3])
    assert abs(m[0] - 2.0 / 3.0) < 1e-12


@pytest.mark.parametrize("name,u0", ALL_BUILTINS)
def test_first_residuals_are_the_same_expression(name, u0):
    M = builtin_submanifold(name)
    assert harmonicity_residuals(M, u0)[0] == minimality_residuals(M, u0)[0]


@pytest.mark.parametrize("name", ["sphere2", "catenoid", "clifford"])
def test_residual_vectors_match_mean_curvature_pairings(name):
    M = builtin_submanifold(name)
    for u in og.domain_samples(M, 3, seed=9):
        mc = og.mean_curvature_OMN(M, u)
        data = gm.residual_data(M, u)
        fd = M.frame_data(u)
        assert np.max(np.abs(mc.z_pairings - data.h1[fd.p:])) < 1e-8
        for A in range(fd.p):
            for j, al in enumerate(range(fd.p, fd.d)):
                want = skew_inner(data.m2, basis_T(fd.d, A, al))
                assert abs(mc.t_pairings[A, j] - want) < 1e-8


# -- verdicts -----------------------------------------------------------------


def test_is_harmonic_plane_and_sphere():
    plane = builtin_submanifold("plane")
    rep = theorem_check(plane, samples=40)
    assert rep.harmonic
    assert rep.max_harmonicity_residual < 1e-12
    sphere = builtin_submanifold("sphere2")
    rep = theorem_check(sphere, samples=40)
    assert not rep.harmonic
    assert rep.max_harmonicity_residual > 2.0 / 3.0 - 1e-6


def test_is_harmonic_great_sphere():
    M = builtin_submanifold("great2(0.5)")
    rep = theorem_check(M, samples=40)
    assert rep.harmonic


def test_theorem_check_is_one_sweep(monkeypatch):
    """theorem_check builds frames only at its own points and takes the
    frame trace twice at each: once for H, once for the residuals."""
    n = 6
    M = builtin_submanifold("sphere2")
    built, traces = [], []
    init, trace = FramePointData.__init__, og.frame_trace

    def counting_init(self, sub, u):
        built.append(np.array(u))
        init(self, sub, u)

    def counting_trace(*args, **kwargs):
        traces.append(args)
        return trace(*args, **kwargs)

    monkeypatch.setattr(FramePointData, "__init__", counting_init)
    monkeypatch.setattr(og, "frame_trace", counting_trace)
    theorem_check(M, samples=n, seed=3)
    assert len(built) == n
    assert np.array_equal(np.array(built), og.domain_samples(M, n, seed=3))
    assert len(traces) == 2 * n


def test_theorem_plane_both_true():
    rep = theorem_check(builtin_submanifold("plane"), samples=20)
    assert rep.minimal and rep.harmonic and rep.agree and rep.separated


def test_theorem_sphere2_both_false():
    rep = theorem_check(builtin_submanifold("sphere2"), samples=20)
    assert not rep.minimal
    assert not rep.harmonic
    assert rep.agree and rep.separated
    assert abs(rep.max_mean_curvature - 2.0 / 3.0) < 1e-9
    assert abs(rep.max_harmonicity_residual - 2.0 / 3.0) < 1e-9


@pytest.mark.parametrize("name", ["clifford", "catenoid"])
def test_theorem_minimal_examples_agree(name):
    rep = theorem_check(builtin_submanifold(name), samples=20)
    assert rep.agree
    assert rep.separated
    assert rep.max_mean_curvature < rep.tol or rep.max_mean_curvature >= 1e3 * rep.tol
    assert rep.m2_identity_residual < 1e-10
    assert rep.h2_recovery_residual < 1e-10


@pytest.mark.parametrize("name,u0", ALL_BUILTINS)
def test_two_sided_numerical_implication(name, u0):
    """Small harmonicity residuals force a small mean curvature and back,
    with a modest constant."""
    M = builtin_submanifold(name)
    for u in og.domain_samples(M, 5, seed=1):
        eps = max(harmonicity_residuals(M, u))
        mc = og.mean_curvature_OMN(M, u).norm
        assert mc <= 10.0 * eps + 1e-12
        assert eps <= 10.0 * mc + 1e-12
