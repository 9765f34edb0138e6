import re
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import qmc

from framelab import frame_bundle as fb
from framelab import jets
from framelab import omn_geometry as og
from framelab import operators as ops
from framelab import verify
from framelab.ambient import euclidean, sphere_chart
from framelab.frame_bundle import (
    LiftedVector,
    horizontal_lift_prime,
    normal_generators,
    sasaki_mok_inner,
    tangent_generators,
)
from framelab.gauss_map import theorem_check
from framelab.jets import Jet
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
from framelab.operators import L_op, basis_T
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


def test_nabla_omn_plane_is_flat_derivative():
    # flat base, trivial frame: the result is just the primed lift of X(Y)
    u = np.array([0.3, -0.4])
    fd = builtin_submanifold("plane").frame_data(u)
    got = nabla_OMN(fd, "hh", ["1.0", "0.0"], ["u2", "u1*u1"])
    # d/du1 of (u2, u1^2) along (1,0) is (0, 2 u1)
    want = horizontal_lift_prime(fd, np.array([0.0, 2.0 * u[0]]))
    assert (got - want).norm() < 1e-12


def test_nabla_omn_vertical_commutator():
    fd = builtin_submanifold("plane3").frame_data(np.array([0.1, 0.2, -0.4]))
    T = basis_T(4, 0, 1)
    Tp = basis_T(4, 0, 2)
    got = nabla_OMN(fd, "vv", T, Tp)
    want = 0.5 * (Tp @ T - T @ Tp)
    assert np.max(np.abs(got.vertical - want)) < 1e-14
    assert np.max(np.abs(got.horizontal)) < 1e-14


def test_nabla_omn_rejects_mixed_vertical():
    fd = builtin_submanifold("clifford").frame_data(np.array([0.4, -0.7]))
    with pytest.raises(OmnError):
        nabla_OMN(fd, "hv", ["1.0", "0.0"], basis_T(3, 0, 2))


# -- curvature ---------------------------------------------------------------


def test_curvature_plane_all_zero_except_pure_vertical():
    fd = builtin_submanifold("plane3").frame_data(np.array([0.1, 0.2, -0.4]))
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
        assert curvature_OMN(fd, case, *args).norm() < 1e-12
    # [T, Tp] lands on the (1,2) generator, so closing the bracket against T
    # itself is nonzero
    vvv = curvature_OMN(fd, "vvv", T, Tp, T)
    assert vvv.norm() > 1e-3


def test_curvature_pure_vertical_nested_commutator():
    fd = builtin_submanifold("plane3").frame_data(np.array([0.1, 0.2, -0.4]))
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
    got = curvature_OMN(fd, "vvv", T, Tp, Tpp)
    comm = T @ Tp - Tp @ T
    want = -0.25 * (comm @ Tpp - Tpp @ comm)
    assert np.max(np.abs(got.vertical - want)) == 0.0
    assert np.max(np.abs(got.horizontal)) == 0.0


def test_curvature_great2_space_form_closed_form():
    # on a totally geodesic plane in a curvature-kappa space form the
    # horizontal-horizontal-horizontal case collapses to a constant-curvature
    # tensor with the squared-curvature correction
    kap = 0.7
    fd = builtin_submanifold(f"great2({kap})").frame_data(np.array([0.25, -0.3]))
    rng = np.random.default_rng(7)
    Xc, Yc, Zc = rng.normal(size=(3, 2))
    got = curvature_OMN(fd, "hhh", Xc, Yc, Zc)
    gt = fd.gt_chart.val
    coef = kap - 1.5 * kap * kap
    chart = coef * ((Yc @ gt @ Zc) * Xc - (Xc @ gt @ Zc) * Yc)
    want = horizontal_lift_prime(fd, chart)
    assert (got - want).norm() < 1e-6
    assert got.norm() > 1e-2


@pytest.mark.parametrize("name,u", [("catenoid", np.array([0.4, 0.2])), ("clifford", np.array([0.3, -0.7]))])
def test_curvature_antisymmetry(name, u):
    fd = builtin_submanifold(name).frame_data(u)
    p, d = fd.p, fd.d
    X = tangent_exprs(p, "x")
    Y = tangent_exprs(p, "y")
    Z = tangent_exprs(p, "z")
    T = h_endo_field(p, d, seed=3)
    Tp = h_endo_field(p, d, seed=5)
    a = curvature_OMN(fd, "hhh", X, Y, Z)
    b = curvature_OMN(fd, "hhh", Y, X, Z)
    assert (a + b).norm() < 1e-6
    a = curvature_OMN(fd, "hhv", X, Y, T)
    b = curvature_OMN(fd, "hhv", Y, X, T)
    assert (a + b).norm() < 1e-6
    a = curvature_OMN(fd, "vvh", T, Tp, Z)
    b = curvature_OMN(fd, "vvh", Tp, T, Z)
    assert (a + b).norm() < 1e-6
    a = curvature_OMN(fd, "vvv", T, Tp, T)
    b = curvature_OMN(fd, "vvv", Tp, T, T)
    assert (a + b).norm() < 1e-12


# S^2(0.8) x R in R^4, p = 3: so(3) is not abelian, so the vertical-vertical
# curvature cases vvh and vvv are nonzero here. so(2) is, so both vanish on
# every input with p <= 2 and n <= 2.
SPHERE_X_LINE = ImmersedSubmanifold(
    3,
    [[-1.0, 1.0], [0.4, 2.6], [-1.0, 1.0]],
    ["0.8*cos(u1)*sin(u2)", "0.8*sin(u1)*sin(u2)", "0.8*cos(u2)", "u3"],
    euclidean(4),
    name="sphere-x-line",
)


def curvature_symmetry_sides(fd):
    """Both sides of the curvature tensor's symmetries that tie the cases no
    registry case reads (hhv, hvh, vvh, vvv) to hhh and hvv, on varying
    tangent fields X, Y, Z and block-diagonal fields T, T', T'', T''':

    <R(X,Y)T, Z> = -<R(X,Y)Z, T> = -<R(Z,T)X, Y>,
    <R(X,T)T', Z> = -<R(X,T)Z, T'>,
    <R(T,T')Z, X> = <R(Z,X)T, T'>,
    <R(T,T')T'', T'''> = <R(T'',T''')T, T'>.
    """
    p, d = fd.p, fd.d
    X, Y, Z = (tangent_exprs(p, which) for which in "xyz")
    T, Tp, Tpp, Tppp = (h_endo_field(p, d, seed=s) for s in (3, 5, 7, 9))
    R = lambda case, *args: curvature_OMN(fd, case, *args)
    hp = lambda F: horizontal_lift_prime(fd, ops.as_chart_field(fd, F, 0).val)
    bar = lambda S: fb.lifted(fd, vertical=ops.as_endo_field(fd, S, 0).val)
    ip = sasaki_mok_inner
    rxyt = ip(R("hhv", X, Y, T), hp(Z))
    return {
        "hhv-hhh": (rxyt, -ip(R("hhh", X, Y, Z), bar(T))),
        "hvh-hhv": (rxyt, -ip(R("hvh", Z, T, X), hp(Y))),
        "hvv-hvh": (ip(R("hvv", X, T, Tp), hp(Z)), -ip(R("hvh", X, T, Z), bar(Tp))),
        "vvh-hhv": (ip(R("vvh", T, Tp, Z), hp(X)), ip(R("hhv", Z, X, T), bar(Tp))),
        "vvv-pairs": (ip(R("vvv", T, Tp, Tpp), bar(Tppp)), ip(R("vvv", Tpp, Tppp, T), bar(Tp))),
    }


def test_curvature_cases_meet_through_the_tensor_symmetries():
    """Each symmetry holds at roundoff relative to its size at 4 points of
    every input, and each is live, |lhs| >= 1e-3, on at least one input:
    vvh and vvv only on S^2(0.8) x R."""
    inputs = [builtin_submanifold(n) for n in ("sphere2", "catenoid", "clifford", "great2(0.5)", "pseudosphere")]
    over, live = [], {}
    for M in inputs + [SPHERE_X_LINE]:
        for u in og.domain_samples(M, 4, seed=1):
            for rel, (lhs, rhs) in curvature_symmetry_sides(M.frame_data(u)).items():
                if not abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs)):
                    over.append((M.name, rel, u.tolist(), lhs - rhs))
                live[rel] = max(live.get(rel, 0.0), abs(lhs))
    assert over == []
    assert min(live.values()) >= 1e-3, live


# -- sectional curvature -------------------------------------------------------


def test_sectional_great2_half_horizontal():
    fd = builtin_submanifold("great2(0.5)").frame_data(np.array([0.2, -0.35]))
    pl = omn_plane(fd, ("hprime", [1.0, 0.0]), ("hprime", [0.0, 1.0]))
    assert abs(sectional_OMN(pl) - 0.125) < 1e-9


def test_sectional_vertical_sixteenth():
    fd = builtin_submanifold("plane3").frame_data(np.array([0.1, 0.2, -0.4]))
    pl = omn_plane(fd, ("vertical", basis_T(4, 0, 1)), ("vertical", basis_T(4, 0, 2)))
    assert abs(sectional_OMN(pl) - 1.0 / 16.0) < 1e-12


def test_sectional_plane_horizontal_zero():
    fd = builtin_submanifold("plane").frame_data(np.array([0.3, -0.5]))
    pl = omn_plane(fd, ("hprime", [1.0, 0.4]), ("hprime", [-0.2, 1.0]))
    assert abs(sectional_OMN(pl)) < 1e-12


def test_omn_plane_validates():
    fd = builtin_submanifold("catenoid").frame_data(np.array([0.4, 0.2]))
    with pytest.raises(OmnError):
        omn_plane(fd, ("hprime", [1.0, 0.0]), ("hprime", [2.0, 0.0]))
    with pytest.raises(OmnError):
        omn_plane(fd, ("vertical", basis_T(3, 0, 2)), ("hprime", [1.0, 0.0]))
    # a vanishing first direction is refused, not normalised to NaN
    for spec1, spec2 in (
        (("hprime", [0.0, 0.0]), ("hprime", [1.0, 0.0])),
        (("hprime", [0.0, 0.0]), ("vertical", basis_T(3, 0, 1))),
        (("vertical", np.zeros((3, 3))), ("vertical", basis_T(3, 0, 1))),
    ):
        with pytest.raises(OmnError, match="vanishes"):
            omn_plane(fd, spec1, spec2)
    pl = omn_plane(fd, ("vertical", basis_T(3, 0, 1)), ("hprime", [1.0, 0.0]))
    assert pl.kind == "hv"
    assert abs(sasaki_mok_inner(pl.v1, pl.v2)) < 1e-10
    assert abs(sasaki_mok_inner(pl.v1, pl.v1) - 1.0) < 1e-10
    assert abs(sasaki_mok_inner(pl.v2, pl.v2) - 1.0) < 1e-10


def test_omn_plane_batch_refusal_marks_its_points():
    """On a batch, a plane that cannot be built at some points is refused
    with those points in the error's where mask, the first one named."""
    M = builtin_submanifold("catenoid")
    U = domain_samples(M, 4, seed=2)
    x = np.array([[1.0, 0.0], [0.0, 0.0], [0.3, 1.0], [0.0, 0.0]])
    with pytest.raises(OmnError, match=re.escape(f"vanishes at u = {U[1].tolist()}")) as exc:
        omn_plane(M.frame_data(U), ("hprime", x), ("vertical", basis_T(3, 0, 1)))
    assert exc.value.where.tolist() == [False, True, False, True]


# -- second fundamental form and mean curvature --------------------------------


def test_pi_symmetric_and_normal():
    for name, u in CURVED:
        fd = builtin_submanifold(name).frame_data(u)
        X = tangent_exprs(fd.p, "x")
        Y = tangent_exprs(fd.p, "y")
        a = second_fundamental_OMN(fd, "hh", X, Y)
        b = second_fundamental_OMN(fd, "hh", Y, X)
        assert (a - b).norm() < 1e-8
        for gen in tangent_generators(fd):
            assert abs(sasaki_mok_inner(a, gen)) < 1e-8


def test_pi_vertical_vertical_zero():
    for name, u in ALL_BUILTINS:
        fd = builtin_submanifold(name).frame_data(u)
        pi = second_fundamental_OMN(fd, "vv", basis_T(fd.d, 0, 1), basis_T(fd.d, 0, 1))
        assert pi.norm() == 0.0


def test_pi_plane_zero():
    fd = builtin_submanifold("plane").frame_data(np.array([0.3, -0.5]))
    pi = second_fundamental_OMN(fd, "hh", ["1.0", "u2"], ["u1", "0.3"])
    assert pi.norm() < 1e-12


def _mean_curvature(fd):
    return mean_curvature_OMN(fd, og.frame_trace(fd))


def test_mean_curvature_sphere2_value():
    """On the unit sphere H pairs to -2/3 with the lift of the one normal
    vector and to 0 with the corrected off-diagonal verticals."""
    M = builtin_submanifold("sphere2")
    for u in (np.array([0.9, 0.3]), np.array([1.6, -0.8])):
        fd = M.frame_data(u)
        H = _mean_curvature(fd)
        z, *t = (sasaki_mok_inner(H, gen) for gen in normal_generators(fd))
        assert len(t) == 2
        assert abs(z + 2.0 / 3.0) < 1e-8
        assert np.max(np.abs(t)) < 1e-8
        assert abs(H.norm() - 2.0 / 3.0) < 1e-8


def test_mean_curvature_plane_zero():
    H = _mean_curvature(builtin_submanifold("plane").frame_data(np.array([0.3, -0.5])))
    assert H.norm() < 1e-12


@pytest.mark.parametrize("name", [name for name, _ in ALL_BUILTINS] + ["cap"])
def test_mean_curvature_is_trace_of_second_fundamental_form(name):
    """H, assembled once from the frame sums, is the trace of the Pi that the
    registry checks against the projection of the ambient connection."""
    M = curved_cap() if name == "cap" else builtin_submanifold(name)
    for u in domain_samples(M, 3, seed=4):
        fd = M.frame_data(u)
        E = tilde_frame_fields(fd)
        trace = second_fundamental_OMN(fd, "hh", E[0], E[0])
        for Ec in E[1:]:
            trace = trace + second_fundamental_OMN(fd, "hh", Ec, Ec)
        H = _mean_curvature(fd)
        assert np.max(np.abs(H.horizontal - trace.horizontal)) < 1e-12
        assert np.max(np.abs(H.vertical - trace.vertical)) < 1e-12


def test_mean_curvature_orthogonal_to_tangent_space():
    for name, u in CURVED:
        fd = builtin_submanifold(name).frame_data(u)
        H = _mean_curvature(fd)
        for gen in tangent_generators(fd):
            assert abs(sasaki_mok_inner(H, gen)) < 1e-8


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


def test_is_totally_geodesic_refuses_non_finite_residual(monkeypatch):
    """A NaN norm of Pi at one sample point raises and names the point; a
    plain max would drop it and report a totally geodesic subbundle."""
    M = builtin_submanifold("plane")
    bad = domain_samples(M, 4, seed=1)[2]
    pi = og.second_fundamental_OMN

    def nan_at_bad_point(fd, case, *args):
        got = pi(fd, case, *args)
        at = np.all(fd.u0 == bad, axis=-1)[..., None]
        return LiftedVector(fd, np.where(at, np.nan, got.horizontal), got.vertical)

    monkeypatch.setattr(og, "second_fundamental_OMN", nan_at_bad_point)
    with pytest.raises(OmnError, match=re.escape(str(bad.tolist()))):
        is_totally_geodesic(M, samples=4, seed=1)


@pytest.mark.parametrize("samples", [0, -3, 2.5, True])
def test_sampled_sweeps_refuse_a_bad_sample_count(samples):
    """A sweep over no points would give its verdict on no evidence: the
    sampler and every sampled sweep refuse a count that is not an integer
    >= 1 (a bool is refused, though it is an int), and run_suite refuses it
    before running any case."""
    M = builtin_submanifold("sphere2")
    with pytest.raises(OmnError, match="sample count must be an integer >= 1"):
        domain_samples(M, samples)
    with pytest.raises(OmnError, match="sample count"):
        is_totally_geodesic(M, samples=samples)
    with pytest.raises(OmnError, match="sample count"):
        theorem_check(M, samples=samples)
    with pytest.raises(verify.VerifyError, match="samples must be an integer >= 1"):
        verify.run_suite(["sphere2"], samples=samples)


@pytest.mark.parametrize("seed", [-1, 1.0, True, "1"])
def test_sampled_sweeps_refuse_a_bad_seed(seed):
    """A seed that is not an integer >= 0 is refused with the module's own
    error naming it, before it reaches the sampler; 1.0 would otherwise
    share the draw memoised for 1."""
    M = builtin_submanifold("sphere2")
    named = re.escape(f"seed must be an integer >= 0, got {seed!r}")
    with pytest.raises(OmnError, match=named):
        domain_samples(M, 3, seed=seed)
    with pytest.raises(OmnError, match=named):
        is_totally_geodesic(M, samples=3, seed=seed)
    with pytest.raises(OmnError, match=named):
        theorem_check(M, samples=3, seed=seed)
    with pytest.raises(verify.VerifyError, match=named):
        verify.run_suite(["sphere2"], samples=3, seed=seed)


def test_sample_draws_are_memoised_and_returned_fresh():
    """Each call returns a fresh writable array equal to the direct scrambled
    Halton draw, scaled to the manifold's own domain; mutating it changes no
    later call, and numpy integers give the same points as ints."""
    M, N = builtin_submanifold("sphere2"), builtin_submanifold("catenoid")
    assert M.p == N.p and not np.array_equal(M.chart_domain, N.chart_domain)
    first = domain_samples(M, 7, seed=4)
    again = domain_samples(M, np.int64(7), seed=np.int64(4))
    assert first is not again and first.flags.writeable and again.flags.writeable
    assert np.array_equal(first, again)
    first[:] = 0.0
    assert np.array_equal(domain_samples(M, 7, seed=4), again)
    unit = qmc.Halton(d=2, scramble=True, seed=4).random(7)
    for S, got in ((M, again), (N, domain_samples(N, 7, seed=4))):
        lo, hi = S.chart_domain[:, 0], S.chart_domain[:, 1]
        width = hi - lo
        assert np.array_equal(got, lo + 0.05 * width + unit * (1.0 - 2.0 * 0.05) * width)


@pytest.mark.parametrize("p", range(1, 10))
def test_sample_draw_is_scipy_scrambled_halton_byte_for_byte(p):
    """The sampler draws Owen's scrambled Halton points itself, in numpy;
    scipy.stats.qmc, which the package does not import, is the oracle here.
    Over a grid of sample counts and seeds the points are byte-equal to
    scipy's draw scaled to the domain, in the same memory layout, so a
    change to either scramble fails here before it moves a report. The
    domain is a stand-in box, as the sampler reads only p and the box."""
    box = SimpleNamespace(p=p, chart_domain=np.array([[-1.0 - 0.25 * k, 2.0 + k] for k in range(p)]))
    lo, width = box.chart_domain[:, 0], box.chart_domain[:, 1] - box.chart_domain[:, 0]
    for n in (1, 2, 7, 25, 400, 4096):
        for seed in (0, 1, 4, 301, 2**40):
            unit = qmc.Halton(d=p, scramble=True, seed=seed).random(n)
            want = lo + 0.05 * width + unit * (1.0 - 2.0 * 0.05) * width
            got = domain_samples(box, n, seed=seed)
            assert got.tobytes() == want.tobytes() and got.strides == want.strides, (n, seed)


# Every attribute of a frame, read before a product is counted, so that only
# the products of the call itself are.
FRAME_ATTRIBUTES = (
    "Gam", "R", "Einv", "omega", "g_chart", "C", "Dmat", "Smats", "Pfr",
    "Gam_chart", "gt_chart", "Gamt", "Rt_chart", "W", "Wchart", "Rfr",
)


# Jet x jet products of each reader of the test below on its fields, counted by the order they land at: [at order 0, at 1, at 2].
# A product lands above order 0 only where the reader differentiates what it
# forms: the fields it takes a derivative of, evaluated from their strings and
# callables at that order, and the frame fields a derivative reads (Y's frame
# components for nabla_X Y, S_Y for nabla_X S_Y, R'(Y, Z) for D_X R', Q_T(Y)
# for tilde_X Q_T(Y)). A term added to a derivative is formed at the
# derivative's order, and a term that is only read at its values at order 0.
PRODUCTS_BY_ORDER = {
    (fb.nabla_ON, "hh"): [6, 5],
    (fb.nabla_ON, "hv"): [6, 2],
    (fb.nabla_ON, "vh"): [2],
    (fb.nabla_ON, "vv"): [],
    (fb.nabla_ON_primed, "hh"): [13, 6],
    (fb.nabla_ON_primed, "hv"): [7, 2],
    (fb.nabla_ON_primed, "vh"): [3],
    (fb.nabla_ON_primed, "vv"): [],
    (nabla_OMN, "hh"): [11, 4],
    (nabla_OMN, "hv"): [14, 2],
    (nabla_OMN, "vh"): [10],
    (nabla_OMN, "vv"): [],
    (second_fundamental_OMN, "hh"): [18, 6],
    (second_fundamental_OMN, "hv"): [19, 2],
    (L_op, None): [15, 5],
    # of the frame trace, only the frame fields' frame components EF and
    # S_e, which jet_along differentiates, above order 0; the trace forms
    # omega_e, jet_along(e, e) and e (x) e once each
    (og.mean_curvature_OMN, None): [18, 2],
    (curvature_OMN, "hhh"): [39, 20],
    (curvature_OMN, "hhv"): [98, 34],
    (curvature_OMN, "hvh"): [54, 17],
    (curvature_OMN, "hvv"): [22, 2],
    (curvature_OMN, "vvh"): [50, 2],
    (curvature_OMN, "vvv"): [],
}


def test_value_readers_multiply_at_the_order_they_differentiate(monkeypatch):
    """A reader of values forms each jet x jet product at the order its
    result is read (PRODUCTS_BY_ORDER): none above the number of derivatives
    its formula takes, 1 for the connections, Pi, L and the mean curvature
    and 2 for the curvature of the subbundle, and at order 0 every term that
    is added to a derivative of lower order or read at its values only. Its
    fields, given as expression strings, constants and callables, enter at
    the order it differentiates them to, and the frame's jets are cut where
    they meet them."""
    M = builtin_submanifold("sphere2")
    fd = M.frame_data(domain_samples(M, 5, seed=1))
    for attr in FRAME_ATTRIBUTES:
        getattr(fd, attr)
    landed = []
    # a jet x jet product lands at the lower of its operands' orders; the
    # kernel is reached through Jet.__mul__ and jet_einsum, the latter
    # wrapped wherever a module binds it
    mul, einsum = Jet.__mul__, jets.jet_einsum

    def recording_mul(a, b):
        if isinstance(b, Jet):
            landed.append(min(a.valid, b.valid))
        return mul(a, b)

    def recording_einsum(sub, a, b):
        if isinstance(a, Jet) and isinstance(b, Jet):
            landed.append(min(a.valid, b.valid))
        return einsum(sub, a, b)

    monkeypatch.setattr(Jet, "__mul__", recording_mul)
    for name, mod in list(sys.modules.items()):
        if name.startswith("framelab.") and vars(mod).get("jet_einsum") is einsum:
            monkeypatch.setattr(mod, "jet_einsum", recording_einsum)
    X = ["u1*u2", "1.0-u1*u1"]
    Y = lambda uv: jets.jstack([uv[0] * uv[1] + 1.0, jets.jsin(uv[1])], axis=-1)
    Z = np.array([0.3, -0.8])
    T = lambda q: (1.0 + 0.3 * q.uv[0])[..., None, None] * basis_T(3, 0, 1)
    Tp = basis_T(3, 0, 1)
    pairs = {"hh": (X, Y), "hv": (X, T), "vh": (T, Z), "vv": (T, Tp)}
    triples = {
        "hhh": (X, Y, Z), "hhv": (X, Y, T), "hvh": (X, T, Z),
        "hvv": (X, T, Tp), "vvh": (T, Tp, Z), "vvv": (T, Tp, T),
    }
    fields = {**pairs, **triples}
    for (reader, case), want in PRODUCTS_BY_ORDER.items():
        landed.clear()
        if reader is og.mean_curvature_OMN:
            reader(fd, og.frame_trace(fd))
        elif reader is L_op:
            reader(fd, X, Y)
        else:
            reader(fd, case, *fields[case])
        got = [landed.count(k) for k in range(max(landed, default=-1) + 1)]
        assert got == want, (reader.__name__, case, got)