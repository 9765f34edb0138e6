"""finite_diff against closed forms, on batched metric functions.

The metrics are plain numpy functions of a batch of points, the form in
which verify's FD quantities pass frame and ambient metrics to the module.
"""

import numpy as np

from framelab import finite_diff


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
    """Each stencil level evaluates its shifted points in one batched call:
    Christoffels take the stencil and the point, curvature does so for the
    stencil's own Christoffels too."""
    shapes = []

    def metric(U):
        shapes.append(np.shape(U))
        return polar(U)

    finite_diff.christoffels(metric, POINTS[0], 1e-4)
    assert shapes == [(4, 2), (2,)]
    shapes.clear()
    finite_diff.curvature(metric, POINTS[0], 1e-3)
    assert shapes == [(4, 2), (2,), (16, 2), (4, 2)]
