"""A frame built at a batch of points against frames built one point at a
time, and the errors a batch raises."""

import re

import numpy as np
import pytest

from framelab import operators as ops
from framelab.ambient import euclidean
from framelab.jets import Jet
from framelab.omn_geometry import domain_samples, frame_trace, mean_curvature_parts, tilde_frame_fields
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
        "mean_curvature_horizontal": mean_curvature_parts(fd, trace)[0],
        "mean_curvature_vertical": mean_curvature_parts(fd, trace)[1],
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
    # On a chart wide enough to hold u = pi/2 the frozen pivot e_1 is
    # parallel to the tangent there, and the breakdown names that point.
    M = ImmersedSubmanifold(1, [[-1.6, 1.6]], ["cos(u1)", "sin(u1)"], euclidean(2))
    U = np.array([[0.0], [0.5], [np.pi / 2], [-0.5]])
    with pytest.raises(FrameError, match=re.escape(f"pivot failure at vector 2 at {[np.pi / 2]}")):
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
