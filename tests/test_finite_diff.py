"""finite_diff against closed forms, on batched metric functions.

The metrics are plain numpy functions of a batch of points, the form in
which verify's FD quantities pass frame and ambient metrics to the module.
The functions before each took one call on its whole stencil tree are kept
here as the reference their values must equal bit for bit.
"""

import numpy as np
import pytest

from framelab import finite_diff
from framelab.omn_geometry import domain_samples
from framelab.submanifold import builtin_submanifold


def diag_metric(f):
    """The metric diag(1, f(x1)) as a batched function: (..., 2) -> (..., 2, 2)."""

    def g(U):
        U = np.asarray(U)
        out = np.zeros(U.shape[:-1] + (2, 2))
        out[..., 0, 0] = 1.0
        out[..., 1, 1] = f(U[..., 0])
        return out

    return g


polar = diag_metric(lambda r: r * r)  # at points (r, theta)
round_sphere = diag_metric(lambda t: np.sin(t) ** 2)  # at points (theta, phi)


POINTS = np.array([[1.3, 0.4], [0.7, -1.1], [2.0, 2.5]])


def test_polar_christoffels():
    """Gamma^r_{theta theta} = -r, Gamma^theta_{r theta} = Gamma^theta_{theta r}
    = 1/r, the rest 0, at every point of a batch and at one point."""
    r = POINTS[:, 0]
    want = np.zeros((len(r), 2, 2, 2))
    want[:, 0, 1, 1] = -r
    want[:, 1, 0, 1] = want[:, 1, 1, 0] = 1.0 / r
    got = finite_diff.christoffels(polar, POINTS, 1e-4)
    assert got.shape == (3, 2, 2, 2)
    assert np.max(np.abs(got - want)) < 1e-8
    assert np.array_equal(finite_diff.christoffels(polar, POINTS[1], 1e-4), got[1])


def test_round_sphere_sectional_curvature_is_one():
    """K = g(R(d_theta, d_phi) d_phi, d_theta) / (g_thth g_phph) = 1."""
    R = finite_diff.curvature(round_sphere, POINTS, 1e-3)
    assert R.shape == (3, 2, 2, 2, 2)
    g = round_sphere(POINTS)
    K = np.einsum("ni,ni->n", g[:, 0, :], R[:, :, 1, 0, 1]) / (g[:, 0, 0] * g[:, 1, 1])
    assert np.max(np.abs(K - 1.0)) < 1e-5


def test_one_call_per_stencil_level():
    """All stencil levels go into one call: each function calls its point
    function once, on u and its whole stencil tree, 1 + 2k points for
    value_and_diff and christoffels and 1 + 2k + 4k^2 for curvature.
    value_and_diff's value at u is bitwise f(u) alone, and its differences
    are the pre-change function's, at one point and at a batch."""
    shapes = []

    def metric(U):
        shapes.append(np.shape(U))
        return polar(U)

    for u, points in ((POINTS[0], 5), (POINTS, 15)):
        shapes.clear()
        value, diffs = finite_diff.value_and_diff(metric, u, 1e-4)
        assert shapes == [(points, 2)]
        assert value.shape == polar(u).shape and np.array_equal(value, polar(u))
        assert np.array_equal(diffs, _pre_change_central_diff(polar, u, 1e-4))
    shapes.clear()
    finite_diff.christoffels(metric, POINTS[0], 1e-4)
    assert shapes == [(5, 2)]
    shapes.clear()
    finite_diff.curvature(metric, POINTS[0], 1e-3)
    assert shapes == [(21, 2)]
    shapes.clear()
    finite_diff.curvature(metric, POINTS, 1e-3)
    assert shapes == [(63, 2)]


@pytest.mark.parametrize("metric", [polar, round_sphere], ids=["polar", "round-sphere"])
@pytest.mark.parametrize("u", [POINTS, POINTS[1]], ids=["batch", "point"])
def test_lowered_curvature_reads_g_at_u_from_its_one_call(metric, u):
    """lowered_curvature is curvature with its first index lowered by g at
    u, bit for bit as a second call of g at u would lower it, from one call."""
    shapes = []

    def counted(U):
        shapes.append(np.shape(U))
        return metric(U)

    got = finite_diff.lowered_curvature(counted, u, 1e-3)
    assert len(shapes) == 1
    want = np.einsum("...im,...mjkl->...ijkl", metric(u), finite_diff.curvature(metric, u, 1e-3))
    assert got.shape == want.shape and np.array_equal(got, want)


# -- the functions before they took one call, kept as the reference ------------


def _pre_change_central_diff(f, u, h):
    u = np.asarray(u, dtype=float)
    k = u.shape[-1]
    shift = h * np.eye(k)
    stencil = np.stack([u[..., None, :] + shift, u[..., None, :] - shift])
    vals = np.asarray(f(stencil.reshape(-1, k)))
    vals = vals.reshape(stencil.shape[:-1] + vals.shape[1:])
    return (vals[0] - vals[1]) / (2.0 * h)


def _pre_change_christoffels(g, u, h):
    """Christoffels by one call on the stencil and one at u."""
    dg = _pre_change_central_diff(g, u, h)
    low = 0.5 * (np.einsum("...abc->...cab", dg) + np.einsum("...abc->...cba", dg) - dg)
    return np.einsum("...dc,...cab->...dab", np.linalg.inv(g(np.asarray(u, dtype=float))), low)


def _pre_change_curvature(g, u, h):
    """Curvature by central differences of the nested Christoffels: four calls."""
    gam = lambda U: _pre_change_christoffels(g, U, h)
    G0 = gam(u)
    dG = np.einsum("...kilj->...ijkl", _pre_change_central_diff(gam, u, h))
    GG = np.einsum("...ikm,...mlj->...ijkl", G0, G0)
    return dG - np.swapaxes(dG, -1, -2) + GG - np.swapaxes(GG, -1, -2)


# Each one-call function beside its reference; the differences alone are
# value_and_diff's second value.
PRE_CHANGE = {
    "differences": (lambda f, u, h: finite_diff.value_and_diff(f, u, h)[1], _pre_change_central_diff),
    "christoffels": (finite_diff.christoffels, _pre_change_christoffels),
    "curvature": (finite_diff.curvature, _pre_change_curvature),
}


def _assert_pre_change_values(g, u, h):
    for name, (function, reference) in PRE_CHANGE.items():
        got, want = function(g, u, h), reference(g, u, h)
        assert got.shape == want.shape and np.array_equal(got, want), name


@pytest.mark.parametrize("metric", [polar, round_sphere], ids=["polar", "round-sphere"])
@pytest.mark.parametrize("h", [1e-4, 1e-3])
def test_closed_form_metrics_match_the_pre_change_functions(metric, h):
    """Bitwise the nested functions' values, batched and at one point."""
    _assert_pre_change_values(metric, POINTS, h)
    _assert_pre_change_values(metric, POINTS[1], h)


@pytest.mark.parametrize("name", ["sphere2", "clifford"])
@pytest.mark.parametrize("order", [1, 2])
def test_frame_metrics_match_the_pre_change_functions(name, order):
    """On g_chart of a frame built at the points asked for (whose values are
    laid out with a stride over the jet coefficients from order 2 up), the
    one-call functions are bitwise the nested ones, batched and at one point."""
    M = builtin_submanifold(name)
    g = lambda U: M.frame_data(U, order).g_chart.val
    U = domain_samples(M, 3, seed=1)
    for h in (1e-4, 1e-3):
        _assert_pre_change_values(g, U, h)
        _assert_pre_change_values(g, U[0], h)
