import re

import numpy as np
import pytest

from framelab import omn_geometry as og
from framelab import operators as ops
from framelab.ambient import AmbientSpace, euclidean, sphere_chart
from framelab.frame_bundle import FrameBundleError, nabla_ON, nabla_ON_primed, normal_generators, sasaki_mok_inner
from framelab.gauss_map import (
    GaussMapError,
    gauss_pushforward,
    grassmann_vector,
    residual_data,
    tension_field,
    tension_field_pullback,
    theorem_check,
)
from framelab.jets import jet_einsum
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
    ("pseudosphere", np.array([0.9, 0.3])),
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
    fd = builtin_submanifold("sphere2").frame_data([1.0, 0.3])
    bad = np.zeros((3, 3))
    bad[0, 1] = 1.0
    bad[1, 0] = -1.0
    with pytest.raises(GaussMapError, match=re.escape("zero diagonal blocks, not at u = [1.0, 0.3]")):
        grassmann_vector(fd, vertical=bad)


def test_grassmann_vector_arithmetic():
    fd = builtin_submanifold("sphere2").frame_data(np.array([1.0, 0.2]))
    T = basis_T(3, 0, 2)
    v = grassmann_vector(fd, horizontal=[0.1, 0.0, 0.0], vertical=T)
    w = 2.0 * v - v
    assert np.allclose(w.horizontal, v.horizontal)
    assert np.allclose(w.vertical, v.vertical)
    assert abs(skew_inner(T, T) - 1.0) < 1e-14


def test_grassmann_inner_vertical_is_trace_form():
    fd = builtin_submanifold("plane3").frame_data(np.array([0.1, 0.2, 0.3]))
    T = basis_T(4, 1, 3)
    v = grassmann_vector(fd, vertical=T)
    assert abs(sasaki_mok_inner(v, v) - 1.0) < 1e-12
    assert abs(v.norm() - 1.0) < 1e-12


def test_grassmann_inner_rejects_mismatched_points():
    M = builtin_submanifold("plane")
    v = grassmann_vector(M.frame_data([0.0, 0.0]), horizontal=[1.0, 0.0, 0.0])
    w = grassmann_vector(M.frame_data([0.5, 0.0]), horizontal=[1.0, 0.0, 0.0])
    with pytest.raises(FrameBundleError):
        sasaki_mok_inner(v, w)


# -- pushforward --------------------------------------------------------------


def test_pushforward_plane_has_no_vertical_part():
    v = gauss_pushforward(builtin_submanifold("plane").frame_data([0.3, -0.7]), [1.0, 2.0])
    assert np.allclose(v.horizontal, [1.0, 2.0, 0.0])
    assert np.max(np.abs(v.vertical)) == 0.0


def test_pushforward_circle_vertical_is_s_matrix():
    fd = builtin_submanifold("circle").frame_data(np.array([0.4]))
    e1_chart = fd.C.val @ np.array([1.0])
    v = gauss_pushforward(fd, e1_chart)
    assert np.max(np.abs(v.vertical - fd.Smats.val[0])) < 1e-12
    h, m = hm_split_mat(v.vertical, 1)
    assert np.max(np.abs(h)) == 0.0


def test_pushforward_refuses_ambient_components_by_shape():
    """A tangent vector enters as its chart coefficients; a d-component
    vector is refused by its shape, a normal one among them."""
    fd = builtin_submanifold("sphere2").frame_data(np.array([1.0, 0.5]))
    normal = fd.E.val[:, 2]
    with pytest.raises(FrameBundleError, match=re.escape("shape (2,), after any stack axes, got (3,)")):
        gauss_pushforward(fd, normal)


@pytest.mark.parametrize("name,u0", ALL_BUILTINS)
def test_pushforward_is_isometry_onto_deformed_metric(name, u0):
    M = builtin_submanifold(name)
    rng = np.random.default_rng(11)
    for u in og.domain_samples(M, 4, seed=3):
        fd = M.frame_data(u)
        x = rng.standard_normal(M.p)
        v = gauss_pushforward(fd, x)
        gt = float(x @ fd.gt_chart.val @ x)
        assert abs(sasaki_mok_inner(v, v) - gt) < 1e-9


# -- connection ---------------------------------------------------------------
# The plane-bundle connection is the m-projection of nabla_ON, which keeps
# the horizontal part, so its closed forms are checked on nabla_ON.


def test_nabla_plane_constant_fields_flat():
    u = np.array([0.2, -0.1])
    fd = builtin_submanifold("plane").frame_data(u)
    out = nabla_ON(fd, "hh", ["u1", "0.5"], ["u2", "2.0*u1"])
    want = fd.J.val @ np.array([0.5, 2.0 * u[0]])
    assert np.allclose(fd.E.val @ out.horizontal, want)
    assert np.max(np.abs(out.vertical)) == 0.0


@pytest.mark.parametrize("name,u0", ALL_BUILTINS)
def test_nabla_vertical_vertical_vanishes(name, u0):
    fd = builtin_submanifold(name).frame_data(u0)
    T = basis_T(fd.d, 0, fd.p) if fd.d > fd.p else basis_T(fd.d, 0, 1)
    out = nabla_ON(fd, "vv", T, T)
    assert out.norm() == 0.0


@pytest.mark.parametrize("name", ["great2(0.7)", "clifford"])
def test_nabla_mixed_horizontal_space_form_value(name):
    kap = 0.7 if name.startswith("great2") else 1.0
    fd = builtin_submanifold(name).frame_data(np.array([0.3, -0.4]))
    T = basis_T(fd.d, 0, fd.p)
    x = np.array([0.7, -0.2])
    out = nabla_ON(fd, "hv", fd.uspace.constant(x), T)
    xF = np.concatenate([fd.Dmat.val @ x, np.zeros(fd.d - fd.p)])
    want = -kap * (T @ xF)
    assert np.max(np.abs(out.horizontal - want)) < 1e-7


@pytest.mark.parametrize("name,u0", CURVED)
def test_plane_connection_is_metric_and_torsion_free_along_the_pushforward(name, u0):
    """The plane-bundle connection, the m-projection of nabla_ON_primed as
    tension_field_pullback takes it, pulled back along the plane map: the
    derivative of the deformed metric g~(Y, Z) along X is the sum of its
    pairings with the pushforwards, and the derivatives of Y along X and of X
    along Y differ by the pushforward of [X, Y]."""
    fd = builtin_submanifold(name).frame_data(u0)
    p = fd.p
    Xf, Yf, Zf = ["u2", "1-u1", "u1*u2"][:p], ["u1*u2", "sin(u2)", "1"][:p], ["cos(u1)", "1-u1", "u2"][:p]
    plane_part = lambda v: grassmann_vector(fd, horizontal=v.horizontal, vertical=v.vertical * fd.mmask)
    along_X = lambda Yf: plane_part(nabla_ON_primed(fd, "hh", Xf, Yf))
    Xc, Yc, Zc = (ops.as_chart_field(fd, f, 1) for f in (Xf, Yf, Zf))

    f = (jet_einsum("i,ij->j", Yc, fd.gt_chart) * Zc).sum(-1)
    lhs = sum(Xc.val[a] * f.d(a).val for a in range(p))
    rhs = sasaki_mok_inner(along_X(Yf), gauss_pushforward(fd, Zc.val))
    rhs = rhs + sasaki_mok_inner(gauss_pushforward(fd, Yc.val), along_X(Zf))
    assert abs(lhs) > 1e-2
    assert abs(lhs - rhs) < 1e-12

    swapped = along_X(Yf) - plane_part(nabla_ON_primed(fd, "hh", Yf, Xf))
    assert swapped.norm() > 1e-2
    assert (swapped - gauss_pushforward(fd, ops.bracket_jet(fd, Xc, Yc).val)).norm() < 1e-12


# -- tension field ------------------------------------------------------------


def tension_at(M, u):
    """The closed-form tension at the frame over u, from that frame's trace."""
    fd = M.frame_data(u)
    return tension_field(fd, og.frame_trace(fd))


def residuals_at(M, u):
    """The residual vectors at the frame over u, from that frame's trace."""
    fd = M.frame_data(u)
    return residual_data(fd, og.frame_trace(fd))


def test_tension_plane_vanishes():
    assert tension_at(builtin_submanifold("plane"), [0.4, -0.9]).norm() == 0.0


def test_tension_sphere2_norm():
    M = builtin_submanifold("sphere2")
    for u in [np.array([1.1, 0.3]), np.array([0.8, -0.5])]:
        tau = tension_at(M, u)
        assert abs(tau.norm() - 2.0 / 3.0) < 1e-12
        assert np.max(np.abs(tau.horizontal[: M.p])) < 1e-12
        assert np.max(np.abs(tau.vertical)) < 1e-12


@pytest.mark.parametrize("name,u0", CURVED + [("cap", np.array([0.3, -0.2]))])
def test_tension_two_routes_agree(name, u0):
    fd = (curved_cap() if name == "cap" else builtin_submanifold(name)).frame_data(u0)
    tau = tension_field(fd, og.frame_trace(fd))
    tau_b = tension_field_pullback(fd)
    assert (tau - tau_b).norm() < 1e-6


@pytest.mark.parametrize("name,u0", CURVED)
def test_tension_frame_rotation_invariance(monkeypatch, name, u0):
    """The tension is a trace over a deformed-orthonormal frame, so it is the
    same when the frame sums run over a rotated frame."""
    M = builtin_submanifold(name)
    rng = np.random.default_rng(19)
    tau = tension_at(M, u0)
    frames = og.tilde_frame_fields
    for _ in range(3):
        Q, _r = np.linalg.qr(rng.standard_normal((M.p, M.p)))

        def rotated(fd, Q=Q):
            fs = frames(fd)
            return [sum((Q[A, B] * fs[A] for A in range(1, M.p)), Q[0, B] * fs[0])
                    for B in range(M.p)]

        monkeypatch.setattr(og, "tilde_frame_fields", rotated)
        tau_q = tension_at(M, u0)
        assert (tau - tau_q).norm() < 1e-8


# -- residuals ----------------------------------------------------------------


def test_residuals_plane_all_zero():
    data = residuals_at(builtin_submanifold("plane"), [0.1, 0.9])
    assert (data.r_h1, data.r_h2, data.r_h3, data.r_m2) == (0.0, 0.0, 0.0, 0.0)


def test_residuals_sphere2_first_condition():
    data = residuals_at(builtin_submanifold("sphere2"), [1.1, 0.3])
    assert abs(data.r_h1 - 2.0 / 3.0) < 1e-12
    assert max(data.r_h2, data.r_h3, data.r_m2) < 1e-12


TORUS_R, TORUS_r = 2.0, 0.7
TORUS = [f"({TORUS_R}+{TORUS_r}*cos(u2))*cos(u1)", f"({TORUS_R}+{TORUS_r}*cos(u2))*sin(u1)", f"{TORUS_r}*sin(u2)"]
TORUS_DOMAIN = [[-1.0, 1.0], [-1.2, 1.2]]
# S^2(0.8) x R: principal curvatures 1/0.8, 1/0.8 and 0.
K_SPHERE = 1.25
# The helix (cos t, sin t, t / 2) has curvature 1 / (1 + 1/4) = 0.8.
HELIX = ["cos(u1)", "sin(u1)", "0.5*u1"]


def torus_h1(u):
    k1, k2 = np.cos(u[:, 1]) / (TORUS_R + TORUS_r * np.cos(u[:, 1])), 1.0 / TORUS_r
    return np.abs(k1 / (1 + 2 * k1**2) + k2 / (1 + 2 * k2**2))


@pytest.mark.parametrize("components,domain,want", [
    pytest.param(TORUS, TORUS_DOMAIN, torus_h1, id="torus"),
    pytest.param(
        ["0.8*cos(u1)*sin(u2)", "0.8*sin(u1)*sin(u2)", "0.8*cos(u2)", "u3"],
        [[-1.0, 1.0], [0.4, 2.6], [-1.0, 1.0]], lambda u: 2 * K_SPHERE / (1 + 2 * K_SPHERE**2), id="sphere-x-line"),
    pytest.param(HELIX, [[-1.0, 1.0]], lambda u: 20 / 57, id="helix"),
])
def test_torus_h1_is_the_closed_form(components, domain, want):
    """In flat space the deformed metric is g + 2 III, so h1 = |sum_i k_i /
    (1 + 2 k_i^2)| over the principal curvatures of a hypersurface: on a
    torus of revolution k1 = cos u2 / (R + r cos u2) along the parallels and
    k2 = 1 / r along the meridians; on S^2(r) x R in R^4 (p = 3) they are
    1/r, 1/r and 0. A curve has one principal curvature, its curvature k
    along its principal normal, so on the helix in R^3 (codimension 2)
    h1 = k / (1 + 2 k^2) = 20/57."""
    M = ImmersedSubmanifold(len(domain), domain, components, euclidean(len(components)))
    u = og.domain_samples(M, 7, seed=0)
    fd = M.frame_data(u)
    assert np.max(np.abs(residual_data(fd, og.frame_trace(fd)).r_h1 - want(u))) <= 1e-13


def torus_m2(u):
    c = np.cos(u[:, 1])
    k1 = c / (TORUS_R + TORUS_r * c)
    return np.sqrt(2) * TORUS_R * np.abs(np.sin(u[:, 1])) / (TORUS_r * (TORUS_R + TORUS_r * c) ** 2 * (1 + 2 * k1**2))


def pseudosphere_m2(u):
    s = np.sinh(u[:, 0])
    H = (s**2 - 1) / (2 * np.sqrt(2) * s)
    return np.sqrt(2) * np.cosh(u[:, 0]) ** 4 / (4 * s**3 * (1 + 2 * H**2))


@pytest.mark.parametrize("make,want,bound", [
    pytest.param(lambda: ImmersedSubmanifold(2, TORUS_DOMAIN, TORUS, euclidean(3)), torus_m2, 1e-13, id="torus"),
    pytest.param(lambda: builtin_submanifold("pseudosphere"), pseudosphere_m2, 1e-12, id="pseudosphere"),
])
def test_m2_is_the_closed_form(make, want, bound):
    """On a surface in R^3, r_m2 = |grad_g sum_i arctan(sqrt(2) k_i)| over
    the principal curvatures. On the torus of revolution only k1 = cos u2 /
    (R + r cos u2) varies, along the meridians, where |d k1/ds| = R |sin u2|
    / (r (R + r cos u2)^2), so r_m2 = sqrt(2) R |sin u2| / (r (R + r cos
    u2)^2 (1 + 2 k1^2)). On the pseudosphere K = -1/2, so the sum is
    arctan(sqrt(2) H_M) with H_M = (sinh^2 u1 - 1) / (2 sqrt(2) sinh u1),
    and r_m2 = sqrt(2) cosh^4 u1 / (4 sinh^3 u1 (1 + 2 H_M^2))."""
    M = make()
    u = og.domain_samples(M, 25, seed=0)
    fd = M.frame_data(u)
    assert np.max(np.abs(residual_data(fd, og.frame_trace(fd)).r_m2 - want(u))) <= bound


def test_holomorphic_graph_in_r4_is_minimal_and_harmonic():
    """The graph of z -> z^2 in C^2 = R^4 is a complex curve, so minimal, with
    a normal bundle of rank 2: every residual vanishes and the theorem's
    verdicts agree."""
    M = ImmersedSubmanifold(2, [[-0.5, 0.5], [-0.5, 0.5]], ["u1", "u2", "u1*u1-u2*u2", "2*u1*u2"], euclidean(4))
    report = theorem_check(M, samples=25, seed=0)
    assert (report.minimal, report.harmonic, report.agree, report.separated) == (True, True, True, True)
    fd = M.frame_data(og.domain_samples(M, 25, seed=0))
    data = residual_data(fd, og.frame_trace(fd))
    assert max(data.r_h1.max(), data.r_h2.max(), data.r_h3.max(), data.r_m2.max()) <= 1e-13


def test_helix_is_live_in_the_normal_block():
    """The helix in R^3 has n = 2, so so(n) is not 0, as on no builtin (each
    has n = 1): neither minimal nor harmonic, with h3 and m2 of order 1
    (0.198 at every point)."""
    M = ImmersedSubmanifold(1, [[-1.0, 1.0]], HELIX, euclidean(3))
    report = theorem_check(M, samples=25, seed=0)
    assert (report.minimal, report.harmonic) == (False, False)
    fd = M.frame_data(og.domain_samples(M, 25, seed=0))
    data = residual_data(fd, og.frame_trace(fd))
    assert min(data.r_h3.min(), data.r_m2.min()) >= 0.1


def test_pseudosphere_is_live_in_h2_h3_and_m2_only():
    """The pseudosphere of K = -1/2 has k1 k2 = -1/2, so k_i / (1 + 2 k_i^2)
    cancel and h1 vanishes, while h2, h3 and m2 are of order 1: neither
    minimal nor harmonic, and the verdicts agree by a wide margin."""
    M = builtin_submanifold("pseudosphere")
    fd = M.frame_data(og.domain_samples(M, 25, seed=0))
    data = residual_data(fd, og.frame_trace(fd))
    assert data.r_h1.max() <= 1e-13
    assert min(data.r_h2.min(), data.r_h3.min(), data.r_m2.min()) >= 0.1
    report = theorem_check(M, samples=25, seed=0)
    assert (report.minimal, report.harmonic, report.agree, report.separated) == (False, False, True, True)


# Inputs of codimension 2, where the completion picks one of a circle of
# frames of the normal plane: the helix, the holomorphic graph of z -> z^2
# and a graph of no symmetry.
CODIM2 = {
    "helix": lambda: ImmersedSubmanifold(1, [[-1.0, 1.0]], HELIX, euclidean(3)),
    "holomorphic-graph": lambda: ImmersedSubmanifold(
        2, [[-0.5, 0.5]] * 2, ["u1", "u2", "u1*u1-u2*u2", "2*u1*u2"], euclidean(4)),
    "codim2-graph": lambda: ImmersedSubmanifold(
        2, [[-0.5, 0.5]] * 2, ["u1", "u2", "0.3*u1*u1+0.2*u1*u2", "0.25*u1*u2-0.1*u2^3+0.2*u2*u2"], euclidean(4)),
}


@pytest.mark.parametrize("name", CODIM2)
def test_residuals_do_not_see_the_normal_completion(name):
    """The structure group of O(M,N) is O(p) x O(n), so how the normal block
    is completed is a choice of gauge: the centre normals turned by a fixed
    angle, before any frame is built, turn every frame's normal block and
    move |H| and the four residual norms only at roundoff."""

    def frame_and_norms(M):
        fd = M.frame_data(og.domain_samples(M, 25, seed=0))
        trace = og.frame_trace(fd)
        data = residual_data(fd, trace)
        norms = [og.mean_curvature_OMN(fd, trace).norm(), data.r_h1, data.r_h2, data.r_h3, data.r_m2]
        return fd, np.stack(norms)

    M, turned = CODIM2[name](), CODIM2[name]()
    c, s = np.cos(0.7), np.sin(0.7)
    turned.normals = turned.normals @ np.array([[c, -s], [s, c]])
    fd, want = frame_and_norms(M)
    fd_turned, got = frame_and_norms(turned)
    assert np.min(np.abs(fd_turned.E.val[..., M.p:] - fd.E.val[..., M.p:]).max(axis=(-2, -1))) > 0.1
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("name,u0", ALL_BUILTINS)
def test_first_residuals_are_the_same_expression(name, u0):
    """The first minimality condition, the normal part of the mean
    curvature's horizontal part, is the first harmonicity condition h1."""
    fd = builtin_submanifold(name).frame_data(u0)
    trace = og.frame_trace(fd)
    hval = og.mean_curvature_OMN(fd, trace).horizontal
    h1 = residual_data(fd, trace).h1
    assert np.array_equal(hval[fd.p:], h1[fd.p:])
    assert not np.any(h1[: fd.p])


# The conformal metric exp(0.4 x1 + 0.2 x2 x3) delta on R^3, which is not a
# space form, and the cubic graph of no symmetry: with the pseudosphere, three
# hypersurfaces where h2 and m2 are of order 1, as on no default builtin.
CONFORMAL = "exp(0.4*x1+0.2*x2*x3)"
POINTWISE = {
    "pseudosphere": lambda: builtin_submanifold("pseudosphere"),
    "cubic-graph": lambda: ImmersedSubmanifold(
        2, [[-0.5, 0.5]] * 2, ["u1", "u2", "0.3*u1*u1+0.5*u1*u2*u2-0.2*u2^3+0.4*u1*u2"], euclidean(3)),
    "conformal-cap": lambda: ImmersedSubmanifold(
        2, [[-0.5, 0.5]] * 2, ["u1", "u2", "0.3*u1*u1+0.2*u2*u2"],
        AmbientSpace(3, [[CONFORMAL if i == j else "0" for j in range(3)] for i in range(3)])),
    "helix": lambda: ImmersedSubmanifold(1, [[-1.0, 1.0]], HELIX, euclidean(3)),
}


@pytest.mark.parametrize("name", POINTWISE)
def test_mean_curvature_is_the_residuals_pointwise(name):
    """The main theorem pointwise: H's horizontal part is h1 + h2, and for a
    hypersurface (n = 1) its vertical off-block is m2 P^-1, so there H = 0
    exactly where h1 = m2 = 0. H comes from mean_curvature_OMN and the
    residuals from residual_data, two assemblies of the frame trace. On the
    conformal cap, m2 without its curvature term misses by 2.3e-2 and h2
    without its curvature term by 7.8e-2. For n = 2 the vertical operator is
    not known, so the helix checks the horizontal part only. Each
    hypersurface is live: r_h2 + r_m2 reaches 0.1."""
    M = POINTWISE[name]()
    fd = M.frame_data(og.domain_samples(M, 25, seed=0))
    trace = og.frame_trace(fd)
    H = og.mean_curvature_OMN(fd, trace)
    data = residual_data(fd, trace)
    assert np.max(np.abs(H.horizontal - (data.h1 + data.h2))) <= 1e-12
    if fd.d - fd.p == 1:
        p = fd.p
        off = data.m2[..., p:, :p] @ np.linalg.inv(fd.Pfr.val)
        assert np.max(np.abs(H.vertical[..., p:, :p] - off)) <= 1e-12
        assert np.max(data.r_h2 + data.r_m2) >= 0.1


@pytest.mark.parametrize("name", ["sphere2", "catenoid", "clifford"])
def test_residual_vectors_match_mean_curvature_pairings(name):
    """H's coordinates on the normal generators: on the horizontal lifts of
    the normal frame vectors they are h1's normal part, and on the corrected
    verticals bar(T_{A alpha}) + (S_.)^h they are <m2, T_{A alpha}>."""
    M = builtin_submanifold(name)
    for u in og.domain_samples(M, 3, seed=9):
        fd = M.frame_data(u)
        trace = og.frame_trace(fd)
        H = og.mean_curvature_OMN(fd, trace)
        data = residual_data(fd, trace)
        gens = normal_generators(fd)
        n = fd.d - fd.p
        z = np.array([sasaki_mok_inner(H, gen) for gen in gens[:n]])
        assert np.max(np.abs(z - data.h1[fd.p:])) < 1e-8
        pairs = [(A, al) for A in range(fd.p) for al in range(fd.p, fd.d)]
        for (A, al), gen in zip(pairs, gens[n:], strict=True):
            want = skew_inner(data.m2, basis_T(fd.d, A, al))
            assert abs(sasaki_mok_inner(H, gen) - want) < 1e-8


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
    """theorem_check builds one frame holding all its points and takes the
    frame trace once there: H and the residuals read the same trace."""
    n = 6
    M = builtin_submanifold("sphere2")
    built, traces = [], []
    init, trace = FramePointData.__init__, og.frame_trace

    def counting_init(self, sub, u, order):
        built.append(np.array(u))
        init(self, sub, u, order)

    def counting_trace(*args, **kwargs):
        traces.append(args)
        return trace(*args, **kwargs)

    monkeypatch.setattr(FramePointData, "__init__", counting_init)
    monkeypatch.setattr(og, "frame_trace", counting_trace)
    theorem_check(M, samples=n, seed=3)
    assert len(built) == 1
    assert np.array_equal(built[0], og.domain_samples(M, n, seed=3))
    assert len(traces) == 1


@pytest.mark.parametrize("name", [name for name, _ in ALL_BUILTINS] + ["cap"])
def test_theorem_check_matches_pointwise(name):
    """The batched sweep reads the same maxima as the per-point functions."""
    M = curved_cap() if name == "cap" else builtin_submanifold(name)
    n, seed = 6, 4
    rep = theorem_check(M, samples=n, seed=seed)
    mean, harm = [], []
    for u in og.domain_samples(M, n, seed=seed):
        fd = M.frame_data(u)
        trace = og.frame_trace(fd)
        mean.append(og.mean_curvature_OMN(fd, trace).norm())
        data = residual_data(fd, trace)
        harm.append(max(data.r_h1, data.r_h2, data.r_h3))
    assert abs(rep.max_mean_curvature - max(mean)) <= 1e-13
    assert abs(rep.max_harmonicity_residual - max(harm)) <= 1e-13


def test_theorem_check_refuses_non_finite_residual(monkeypatch):
    """A NaN at one sample point raises and names the point; a plain max
    would drop it and could report a minimal subbundle."""
    M = builtin_submanifold("sphere2")
    bad = og.domain_samples(M, 5, seed=2)[3]
    trace = og.frame_trace

    def nan_at_bad_point(fd, *args, **kwargs):
        sums = trace(fd, *args, **kwargs)
        sums[0].coeffs[np.all(fd.u0 == bad, axis=-1)] = np.nan
        return sums

    monkeypatch.setattr(og, "frame_trace", nan_at_bad_point)
    with pytest.raises(GaussMapError, match=re.escape(str(bad.tolist()))):
        theorem_check(M, samples=5, seed=2)


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


@pytest.mark.parametrize("name,u0", ALL_BUILTINS)
def test_two_sided_numerical_implication(name, u0):
    """Small harmonicity residuals force a small mean curvature and back,
    with a modest constant."""
    M = builtin_submanifold(name)
    for u in og.domain_samples(M, 5, seed=1):
        fd = M.frame_data(u)
        trace = og.frame_trace(fd)
        data = residual_data(fd, trace)
        eps = max(data.r_h1, data.r_h2, data.r_h3)
        mc = og.mean_curvature_OMN(fd, trace).norm()
        assert mc <= 10.0 * eps + 1e-12
        assert eps <= 10.0 * mc + 1e-12
