import re

import numpy as np
import pytest

from framelab import operators as ops
from framelab.ambient import metric_at
from framelab.frame_bundle import (
    FrameBundleError,
    case_pairs,
    decompose_OMN,
    horizontal_lift_prime,
    lifted,
    nabla_ON,
    nabla_ON_primed,
    normal_generators,
    sasaki_mok_inner,
    tangent_generators,
)
from framelab.gauss_map import (
    grassmann_vector,
    implication_residuals,
    residual_data,
    tension_field,
)
from framelab.jets import jet_einsum
from framelab.omn_geometry import (
    OmnError,
    curvature_OMN,
    mean_curvature_OMN,
    nabla_OMN,
    omn_plane,
    second_fundamental_OMN,
    sectional_OMN,
)
from framelab.omn_geometry import frame_trace
from framelab.operators import basis_T, skew_inner
from framelab.submanifold import FrameError, builtin_submanifold

ALL_BUILTINS = [
    ("plane", np.array([0.3, -0.5])),
    ("plane3", np.array([0.2, 0.1, -0.4])),
    ("circle", np.array([0.4])),
    ("sphere2", np.array([1.1, 0.6])),
    ("catenoid", np.array([0.35, -0.2])),
    ("great2(0.5)", np.array([0.2, -0.4])),
    ("clifford", np.array([0.4, -0.7])),
]


def random_skew(rng, d):
    a = rng.normal(size=(d, d))
    return 0.5 * (a - a.T)


def varying_skew_field(mat):
    def field(fd):
        s = 1.0 + 0.4 * fd.uv[0]
        if fd.p > 1:
            s = s + 0.1 * fd.uv[0] * fd.uv[1]
        return s * fd.uspace.constant(mat)

    return field


# -- construction and the metric ---------------------------------------------


def test_lifted_rejects_symmetric_vertical():
    M = builtin_submanifold("sphere2")
    with pytest.raises(FrameBundleError, match="not antisymmetric"):
        lifted(M.frame_data(np.array([1.0, 0.5])), vertical=np.eye(3))


def test_horizontal_vertical_orthogonal():
    rng = np.random.default_rng(0)
    M = builtin_submanifold("clifford")
    u = np.array([0.4, -0.7])
    fd = M.frame_data(u)
    h = lifted(fd, horizontal=rng.normal(size=3))
    v = lifted(fd, vertical=random_skew(rng, 3))
    assert sasaki_mok_inner(h, v) == 0.0


@pytest.mark.parametrize(
    "name,u",
    [("great2(0.5)", np.array([0.2, -0.4])), ("clifford", np.array([0.4, -0.7]))],
)
def test_horizontal_lifts_pair_by_the_ambient_metric(name, u):
    """Einv converts an ambient vector to frame components, and on a curved
    ambient the metric pairs those by the identity as G pairs the ambient
    vectors at the base point."""
    rng = np.random.default_rng(9)
    M = builtin_submanifold(name)
    fd = M.frame_data(u)
    G = metric_at(M.ambient, fd.x0)
    assert np.max(np.abs(G - np.eye(3))) > 1e-2
    for _ in range(3):
        X, Y = rng.normal(size=(2, 3))
        got = sasaki_mok_inner(lifted(fd, horizontal=fd.Einv.val @ X), lifted(fd, horizontal=fd.Einv.val @ Y))
        assert abs(got - X @ G @ Y) < 1e-12


@pytest.mark.parametrize("name,u", ALL_BUILTINS)
def test_horizontal_lift_prime_takes_chart_coefficients_only(name, u):
    """A tangent vector enters as its p chart coefficients; its d ambient
    components are refused by shape where d differs from p."""
    rng = np.random.default_rng(10)
    fd = builtin_submanifold(name).frame_data(u)
    xc = rng.normal(size=fd.p)
    assert horizontal_lift_prime(fd, xc).norm() > 0.1
    if fd.d != fd.p:
        with pytest.raises(FrameBundleError, match=rf"shape \({fd.p},\).*got \({fd.d},\)"):
            horizontal_lift_prime(fd, fd.J.val @ xc)


@pytest.mark.parametrize("name,u", [b for b in ALL_BUILTINS if b[0] in ("sphere2", "catenoid")])
def test_horizontal_lift_prime_of_chart_input_has_no_normal_part(name, u):
    """Chart coefficients become tangent frame components through Dmat, so
    the normal components are exactly 0.0, not the roundoff of a trip
    through the ambient vector."""
    rng = np.random.default_rng(10)
    fd = builtin_submanifold(name).frame_data(u)
    for _ in range(5):
        v = horizontal_lift_prime(fd, rng.normal(size=fd.p))
        assert np.all(v.horizontal[fd.p :] == 0.0)


def test_vertical_basis_norm():
    fd = builtin_submanifold("sphere2").frame_data(np.array([1.0, 0.5]))
    t12 = lifted(fd, vertical=basis_T(3, 0, 1))
    assert abs(sasaki_mok_inner(t12, t12) - 1.0) < 1e-14


def test_circle_primed_lift_norm():
    """1 from the horizontal part plus 2 from the S-matrix."""
    fd = builtin_submanifold("circle").frame_data(np.array([0.3]))
    v = horizontal_lift_prime(fd, fd.C.val[:, 0])
    assert abs(sasaki_mok_inner(v, v) - 3.0) < 1e-12


def test_vertical_of_S_has_zero_diagonal_blocks():
    M = builtin_submanifold("catenoid")
    u = np.array([0.35, -0.2])
    fd = M.frame_data(u)
    smat = ops.s_field_matrix(fd, fd.uspace.constant(np.array([1.0, -0.5]))).val
    T_amb = fd.E.val @ smat @ fd.Einv.val
    v = lifted(fd, vertical=fd.Einv.val @ T_amb @ fd.E.val)
    p = fd.p
    assert np.max(np.abs(v.vertical[:p, :p])) < 1e-10
    assert np.max(np.abs(v.vertical[p:, p:])) < 1e-10
    assert np.max(np.abs(v.vertical - smat)) < 1e-10


def test_vertical_components_equivariance():
    """Conjugating the frame by a block rotation conjugates the components."""
    rng = np.random.default_rng(2)
    M = builtin_submanifold("clifford")
    u = np.array([0.4, -0.7])
    fd = M.frame_data(u)
    d, p = fd.d, fd.p
    T_amb = fd.E.val @ random_skew(rng, d) @ fd.Einv.val
    comps = fd.Einv.val @ T_amb @ fd.E.val
    g = np.eye(d)
    th = 0.8
    g[0, 0], g[0, 1], g[1, 0], g[1, 1] = np.cos(th), -np.sin(th), np.sin(th), np.cos(th)
    E_rot = fd.E.val @ g
    comps_rot = np.linalg.inv(E_rot) @ T_amb @ E_rot
    assert np.max(np.abs(comps_rot - g.T @ comps @ g)) < 1e-12


# -- the connection ------------------------------------------------------------


def test_nabla_ON_flat_reductions():
    """Euclidean ambient kills every curvature term."""
    rng = np.random.default_rng(3)
    M = builtin_submanifold("plane")
    u = np.array([0.2, -0.3])
    fd = M.frame_data(u)
    Xf, Yf = ["u2", "1-u1"], ["u1*u2", "u1"]
    T = random_skew(rng, 3)
    Tp = random_skew(rng, 3)

    hh = nabla_ON(fd, "hh", Xf, Yf)
    assert np.max(np.abs(hh.vertical)) < 1e-12

    vh = nabla_ON(fd, "vh", T, Xf)
    assert np.max(np.abs(vh.horizontal)) < 1e-12
    assert np.max(np.abs(vh.vertical)) < 1e-12

    hv = nabla_ON(fd, "hv", Xf, T)
    assert np.max(np.abs(hv.horizontal)) < 1e-12
    # constant frame components over the plane: nabla_X T = 0
    assert np.max(np.abs(hv.vertical)) < 1e-12

    vv = nabla_ON(fd, "vv", T, Tp)
    want = 0.5 * (Tp @ T - T @ Tp)
    assert np.max(np.abs(vv.vertical - want)) < 1e-12
    assert np.max(np.abs(vv.horizontal)) < 1e-12


def test_nabla_ON_vertical_commutator_value():
    """bar(T_12) against bar(T_13): the result is bar(T_23)/(2 sqrt 2)."""
    fd = builtin_submanifold("plane3").frame_data(np.array([0.2, 0.1, -0.4]))
    T, Tp = basis_T(4, 0, 1), basis_T(4, 0, 2)
    out = nabla_ON(fd, "vv", T, Tp)
    comm = Tp @ T - T @ Tp
    assert np.max(np.abs(comm - basis_T(4, 1, 2) / np.sqrt(2.0))) < 1e-15
    assert np.max(np.abs(out.vertical - 0.5 * comm)) < 1e-15


def test_nabla_ON_torsion_identity():
    """nabla_{X^h}Y^h - nabla_{Y^h}X^h = [X,Y]^h - bar(R(X,Y))."""
    for name, u in [("great2(0.5)", np.array([0.2, -0.4])), ("clifford", np.array([0.4, -0.7]))]:
        M = builtin_submanifold(name)
        fd = M.frame_data(u)
        Xf, Yf = ["u2", "1-u1"], ["u1*u2", "u1"]
        a = nabla_ON(fd, "hh", Xf, Yf)
        b = nabla_ON(fd, "hh", Yf, Xf)
        Xc = ops.as_chart_field(fd, Xf, 1)
        Yc = ops.as_chart_field(fd, Yf, 1)
        br = ops.full_frame_field(fd, ops.bracket_jet(fd, Xc, Yc).val).val
        diff_h = a.horizontal - b.horizontal
        assert np.max(np.abs(diff_h - br)) < 1e-7
        xfr = fd.Dmat.val @ Xc.val
        yfr = fd.Dmat.val @ Yc.val
        Rm = np.einsum("ijkl,k,l->ij", fd.Rfr.val[:, :, : fd.p, : fd.p], xfr, yfr)
        diff_v = a.vertical - b.vertical
        assert np.max(np.abs(diff_v + Rm)) < 1e-7


@pytest.mark.parametrize(
    "name,u",
    [("great2(0.5)", np.array([0.2, -0.4])), ("clifford", np.array([0.4, -0.7]))],
)
def test_nabla_ON_metric_compatibility(name, u):
    """Derivative of g_SM(V, W) along the adapted section against the
    connection applied to each side, curved ambient. The section velocity
    is X^h + bar(omega_X), so the derivative of Y^h + bar(T) along it is the
    sum of the four connection cases."""
    rng = np.random.default_rng(4)
    M = builtin_submanifold(name)
    fd = M.frame_data(u)
    d = fd.d
    Xf, YV, YW = ["u2", "1-u1"], ["u1*u2", "sin(u2)"], ["cos(u1)", "1-u1"]
    AV = varying_skew_field(random_skew(rng, d))
    AW = varying_skew_field(random_skew(rng, d))
    yframe = lambda Yf: ops.full_frame_field(fd, ops.as_chart_field(fd, Yf, 1))

    Xc = ops.as_chart_field(fd, Xf, 0)
    f = (yframe(YV) * yframe(YW)).sum(-1) - jet_einsum("ij,ji->", AV(fd), AW(fd))
    lhs = sum(Xc.val[a] * f.d(a).val for a in range(fd.p))

    omX = jet_einsum("a,aij->ij", Xc, fd.omega).val

    def along_section(Yf, T):
        out = nabla_ON(fd, "hh", Xf, Yf) + nabla_ON(fd, "hv", Xf, T)
        return out + nabla_ON(fd, "vh", omX, Yf) + nabla_ON(fd, "vv", omX, T)

    dV, dW = along_section(YV, AV), along_section(YW, AW)
    V0 = lifted(fd, horizontal=yframe(YV).val, vertical=AV(fd).val)
    W0 = lifted(fd, horizontal=yframe(YW).val, vertical=AW(fd).val)
    rhs = sasaki_mok_inner(dV, W0) + sasaki_mok_inner(V0, dW)
    assert abs(lhs) > 1e-2
    assert abs(lhs - rhs) < 1e-7


def primed_by_expansion(fd, case, *args):
    """nabla_ON_primed expanded bilinearly into nabla_ON cases, with
    X^{h'} = X^h + bar(S_X) both as direction and as field (reference)."""
    s_of = lambda Y: (lambda fd: ops.s_field_matrix(fd, ops.as_chart_field(fd, Y, 1)))
    if case == "hh":
        Xf, Yf = args
        sx, sy = s_of(Xf), s_of(Yf)
        out = nabla_ON(fd, "hh", Xf, Yf)
        out = out + nabla_ON(fd, "hv", Xf, sy)
        out = out + nabla_ON(fd, "vh", sx, Yf)
        return out + nabla_ON(fd, "vv", sx, sy)
    if case == "hv":
        Xf, T = args
        return nabla_ON(fd, "hv", Xf, T) + nabla_ON(fd, "vv", s_of(Xf), T)
    if case == "vh":
        T, Yf = args
        return nabla_ON(fd, "vh", T, Yf) + nabla_ON(fd, "vv", T, s_of(Yf))
    return nabla_ON(fd, "vv", *args)


@pytest.mark.parametrize("name,u", ALL_BUILTINS)
def test_nabla_ON_primed_is_its_bilinear_expansion(name, u):
    rng = np.random.default_rng(7)
    fd = builtin_submanifold(name).frame_data(u)
    p, d = fd.p, fd.d
    Xf = ["0.7+0.3*u1", "u2-0.4", "0.5*u1"][:p]
    Yf = ["u1*u1-0.2", "0.6", "u2+0.1*u1"][:p]
    T = varying_skew_field(random_skew(rng, d))
    Tp = varying_skew_field(random_skew(rng, d))
    for case, args in [("hh", (Xf, Yf)), ("hv", (Xf, T)), ("vh", (T, Yf)), ("vv", (T, Tp))]:
        got = nabla_ON_primed(fd, case, *args)
        want = primed_by_expansion(fd, case, *args)
        assert (got - want).norm() < 1e-13


def test_unknown_case_is_refused():
    fd = builtin_submanifold("sphere2").frame_data(np.array([1.1, 0.6]))
    with pytest.raises(FrameBundleError):
        case_pairs("hx", (["1.0", "0.0"], ["0.0", "1.0"]))
    for connection in (nabla_ON, nabla_ON_primed, nabla_OMN):
        with pytest.raises(FrameBundleError):
            connection(fd, "hx", ["1.0", "0.0"], ["0.0", "1.0"])


X2, T3 = [1.0, 0.0], basis_T(3, 0, 1)
# three points of sphere2
U3 = np.array([[1.1, 0.6], [1.0, 0.5], [0.9, 0.3]])
# a non-finite part is refused with the point named, so a sweep still says where
NAMES_POINT = re.escape("not finite at u = [1.1, 0.6]")
NAN_AT_SECOND = np.where(np.arange(3)[:, None] == 1, np.nan, np.ones((3, 3)))


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda M, fd: nabla_ON(fd, "hh", X2), FrameBundleError, "takes 2 arguments, got 1"),
        (lambda M, fd: nabla_OMN(fd, "hv", X2, T3, T3), FrameBundleError, "takes 2 arguments, got 3"),
        (lambda M, fd: second_fundamental_OMN(fd, "hh", X2), OmnError, "takes 2 arguments, got 1"),
        (lambda M, fd: second_fundamental_OMN(fd, "hv", X2, T3, T3), OmnError, "takes 2 arguments, got 3"),
        (lambda M, fd: curvature_OMN(fd, "hhh", X2, X2), OmnError, "takes 3 arguments, got 2"),
        (lambda M, fd: lifted(fd, horizontal=[1.0, 2.0]), FrameBundleError, re.escape("shape (3,)")),
        (lambda M, fd: lifted(fd, vertical=np.zeros((2, 2))), FrameBundleError, re.escape("shape (3, 3)")),
        (lambda M, fd: grassmann_vector(fd, vertical=np.zeros((2, 2))), FrameBundleError, re.escape("shape (3, 3)")),
        (lambda M, fd: lifted(fd, horizontal=[np.nan, 0.0, 0.0]), FrameBundleError, NAMES_POINT),
        (lambda M, fd: lifted(fd, vertical=np.full((3, 3), np.nan)), FrameBundleError, NAMES_POINT),
        (lambda M, fd: M.frame_data(np.ones((3, 3))), FrameError, re.escape("shape (2,) or (n, 2), got (3, 3)")),
        (lambda M, fd: M.frame_data(np.ones((2, 3, 2))), FrameError, re.escape("got (2, 3, 2)")),
        (lambda M, fd: lifted(M.frame_data(U3), horizontal=np.ones((2, 3))), FrameBundleError, re.escape("shape (3, 3) or (3,)")),
        (lambda M, fd: lifted(M.frame_data(U3), vertical=np.zeros((2, 3, 3))), FrameBundleError, re.escape("(3, 3, 3) or (3, 3)")),
        (lambda M, fd: lifted(M.frame_data(U3), horizontal=NAN_AT_SECOND), FrameBundleError, re.escape("at u = [1.0, 0.5]")),
        (
            lambda M, fd: omn_plane(M.frame_data(U3), ("hprime", [X2, X2, [0.0, 0.0]]), ("vertical", T3)),
            OmnError,
            re.escape("horizontal direction vanishes at u = [0.9, 0.3]"),
        ),
    ],
    ids=[
        "nabla_ON",
        "nabla_OMN",
        "second_fundamental_OMN-short",
        "second_fundamental_OMN-long",
        "curvature_OMN",
        "lifted-horizontal",
        "lifted-vertical",
        "grassmann_vector-vertical",
        "lifted-horizontal-not-finite",
        "lifted-vertical-not-finite",
        "frame_data-batch-shape",
        "frame_data-batch-ndim",
        "lifted-horizontal-batch",
        "lifted-vertical-batch",
        "lifted-batch-not-finite",
        "omn_plane-batch-vanishing",
    ],
)
def test_wrong_arity_or_shape_is_refused(call, error, match):
    """A wrong argument count, a wrong shape or a non-finite value raises the
    module's own error and names what was expected; on a batch, a value that
    fails at some points names the first of them."""
    M = builtin_submanifold("sphere2")
    fd = M.frame_data(np.array([1.1, 0.6]))
    with pytest.raises(error, match=match):
        call(M, fd)


@pytest.mark.parametrize("frames", ["two-manifolds-one-point", "one-manifold-two-point-sets"])
def test_vectors_at_different_frames_are_refused(frames):
    """A lifted vector holds its frame, and +, - and the Sasaki-Mok metric
    combine only vectors at the same frame object: one point of two
    manifolds, or two point sets of one manifold (of the same shape, so
    that the parts would combine silently), are different frames."""
    if frames == "two-manifolds-one-point":
        u = np.array([1.1, 0.6])
        fa, fb = (builtin_submanifold("sphere2").frame_data(u) for _ in range(2))
    else:
        M = builtin_submanifold("sphere2")
        fa, fb = M.frame_data(U3), M.frame_data(U3[::-1])
    v, w = lifted(fa, horizontal=[0.3, -1.0, 2.0]), lifted(fb, vertical=T3)
    for combine in (lambda a, b: a + b, lambda a, b: a - b, sasaki_mok_inner):
        with pytest.raises(FrameBundleError, match="lifted vectors live at different frames"):
            combine(v, w)
    # at one frame they combine: a horizontal and a vertical part are orthogonal
    assert np.all(sasaki_mok_inner(v, lifted(fa, vertical=T3)) == 0.0)


def lifted_parts(v):
    return v.horizontal, v.vertical


# Each function on the frame of the batch U3 against the same function on the
# frame of each point of it, as the parts it returns; every per-point input is
# the same at each point.
BATCH_CALLS = {
    "lifted": lambda fd: lifted_parts(lifted(fd, horizontal=[0.3, -1.0, 2.0], vertical=T3)),
    "nabla_OMN": lambda fd: lifted_parts(nabla_OMN(fd, "hv", ["u2", "1-u1*u2"], T3)),
    "curvature_OMN": lambda fd: lifted_parts(curvature_OMN(fd, "hhh", X2, ["u1", "u2"], [0.5, 0.2])),
    "mean_curvature_OMN": lambda fd: (
        lambda H: lifted_parts(H) + (H.norm(),)
    )(mean_curvature_OMN(fd, frame_trace(fd))),
    "tension_field": lambda fd: lifted_parts(tension_field(fd, frame_trace(fd))),
    "omn_plane": lambda fd: (
        lambda pl: lifted_parts(pl.v1) + lifted_parts(pl.v2) + (sectional_OMN(pl),)
    )(omn_plane(fd, ("hprime", X2), ("hprime", [0.3, 1.0]))),
}


@pytest.mark.parametrize("name", BATCH_CALLS)
def test_batch_agrees_with_pointwise(name):
    """On the frame of a batch each function gives, at every point, what it
    gives on that point's own frame."""
    M = builtin_submanifold("sphere2")
    batched = BATCH_CALLS[name](M.frame_data(U3))
    per_point = [BATCH_CALLS[name](M.frame_data(u)) for u in U3]
    for k, got in enumerate(batched):
        want = np.stack([np.asarray(parts[k]) for parts in per_point])
        assert np.shape(got) == want.shape, (name, k)
        assert np.max(np.abs(got - want)) <= 1e-13, (name, k)


def _scalars(fd):
    """Every scalar-per-point value of the frame-bundle modules at the frame fd."""
    v = lifted(fd, horizontal=[0.3, -1.0, 2.0], vertical=T3)
    T = np.broadcast_to(T3, fd.batch + T3.shape)
    planes = [omn_plane(fd, ("hprime", X2), spec) for spec in (("hprime", [0.3, 1.0]), ("vertical", T3))]
    trace = frame_trace(fd)
    data = residual_data(fd, trace)
    return (
        [skew_inner(T, T), sasaki_mok_inner(v, v), v.norm(), mean_curvature_OMN(fd, trace).norm()]
        + [sectional_OMN(pl) for pl in planes]
        + [data.r_h1, data.r_h2, data.r_h3, data.r_m2, *implication_residuals(data)]
    )


def test_scalars_have_the_batch_shape():
    """One point is the batch of shape (): a scalar per point is an array of
    the frame's batch shape, so a numpy scalar, which is a float, at one point."""
    M = builtin_submanifold("sphere2")
    for x in _scalars(M.frame_data(U3[0])):
        assert type(x) is np.float64 and isinstance(x, float)
    for x in _scalars(M.frame_data(U3)):
        assert isinstance(x, np.ndarray) and x.shape == (len(U3),)


# -- decomposition ---------------------------------------------------------------


def test_decompose_plane_tangent_untouched():
    fd = builtin_submanifold("plane").frame_data(np.array([0.2, -0.3]))
    v = lifted(fd, horizontal=fd.Einv.val @ np.array([1.0, 2.0, 0.0]))
    t, n = decompose_OMN(v)
    assert np.max(np.abs(t.horizontal - v.horizontal)) < 1e-12
    assert np.max(np.abs(t.vertical)) < 1e-12
    assert np.max(np.abs(n.horizontal)) < 1e-12
    assert np.max(np.abs(n.vertical)) < 1e-12


def test_decompose_circle_horizontal_lift():
    """e1^h splits into (1/3)e1^{h'} and the S-corrected remainder."""
    fd = builtin_submanifold("circle").frame_data(np.array([0.3]))
    e1 = fd.E.val[:, 0]
    t, n = decompose_OMN(lifted(fd, horizontal=fd.Einv.val @ e1))
    third = (1.0 / 3.0) * horizontal_lift_prime(fd, fd.C.val[:, 0])
    assert np.max(np.abs(t.horizontal - third.horizontal)) < 1e-12
    assert np.max(np.abs(t.vertical - third.vertical)) < 1e-12
    # e1 has frame components (1, 0)
    assert np.max(np.abs(n.horizontal - (2.0 / 3.0) * np.array([1.0, 0.0]))) < 1e-12
    smat = ops.s_field_matrix(fd, fd.uspace.constant(np.array([1.0]))).val
    assert np.max(np.abs(n.vertical + smat / 3.0)) < 1e-12


def test_decompose_h_type_vertical_is_tangent():
    fd = builtin_submanifold("plane3").frame_data(np.array([0.2, 0.1, -0.4]))
    v = lifted(fd, vertical=basis_T(4, 0, 1))
    t, n = decompose_OMN(v)
    assert np.max(np.abs(t.vertical - v.vertical)) < 1e-12
    assert np.max(np.abs(n.vertical)) < 1e-12
    assert np.max(np.abs(n.horizontal)) < 1e-12


@pytest.mark.parametrize("name,u", ALL_BUILTINS)
def test_decompose_reconstructs_and_orthogonal(name, u):
    rng = np.random.default_rng(5)
    fd = builtin_submanifold(name).frame_data(u)
    d = fd.d
    for _ in range(3):
        v = lifted(
            fd,
            horizontal=rng.normal(size=d),
            vertical=random_skew(rng, d),
        )
        t, n = decompose_OMN(v)
        assert np.max(np.abs(t.horizontal + n.horizontal - v.horizontal)) < 1e-12
        assert np.max(np.abs(t.vertical + n.vertical - v.vertical)) < 1e-12
        assert abs(sasaki_mok_inner(t, n)) < 1e-10
        t2, n2 = decompose_OMN(t)
        assert np.max(np.abs(t2.horizontal - t.horizontal)) < 1e-10
        assert np.max(np.abs(t2.vertical - t.vertical)) < 1e-10
        assert np.max(np.abs(n2.horizontal)) < 1e-10
        assert np.max(np.abs(n2.vertical)) < 1e-10


@pytest.mark.parametrize("name,u", ALL_BUILTINS)
def test_decompose_against_generators(name, u):
    """The tangent part pairs to zero with every normal generator and the
    normal part with every tangent generator."""
    rng = np.random.default_rng(6)
    fd = builtin_submanifold(name).frame_data(u)
    v = lifted(
        fd,
        horizontal=rng.normal(size=fd.d),
        vertical=random_skew(rng, fd.d),
    )
    t, n = decompose_OMN(v)
    for gen in normal_generators(fd):
        assert abs(sasaki_mok_inner(t, gen)) < 1e-10
    for gen in tangent_generators(fd):
        assert abs(sasaki_mok_inner(n, gen)) < 1e-10


@pytest.mark.parametrize("name,u", ALL_BUILTINS)
def test_generator_families_orthogonal(name, u):
    fd = builtin_submanifold(name).frame_data(u)
    tg = tangent_generators(fd)
    ng = normal_generators(fd)
    d = fd.d
    assert len(tg) + len(ng) == d + d * (d - 1) // 2
    for a in tg:
        for b in ng:
            assert abs(sasaki_mok_inner(a, b)) < 1e-10


def test_generator_counts():
    fd = builtin_submanifold("clifford").frame_data(np.array([0.4, -0.7]))
    assert len(tangent_generators(fd)) == 2 + 1  # p lifts + dim so(2), so(1) empty
    assert len(normal_generators(fd)) == 1 + 2  # one normal lift + p*n verticals
