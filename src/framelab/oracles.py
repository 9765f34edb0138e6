"""Finite-difference routes of the FD check: the second route to each of
verify.FD_QUANTITIES, which pairs it with a jet route of its own.

A route sees point values only. Each takes the submanifold M, the points u
of shape (p,) or (n, p), the step h and frame, where frame(U) is the frame
at a batch of points U built to the order the route reads, and hands
finite_diff point functions of three kinds of values: those of a frame
(g_chart, gt_chart, J, E and x0), those of the ambient metric (metric_at)
and those of the default fields X and Y, their coefficient expressions
evaluated at the points at order 0. Every value leads with u's batch axes,
() at one point (submanifold's batch convention).

The module may import numpy, finite_diff, jets, expr, ambient and
submanifold, and no other framelab module: not operators, frame_bundle,
omn_geometry, gauss_map or verify. So a route shares no code with the jet
route it checks beyond the frame's values; tests/test_layout.py holds it to
that.
"""

from __future__ import annotations

import numpy as np
from numpy._core.multiarray import c_einsum

from . import finite_diff
from .ambient import metric_at
from .expr import eval_expr, intern, parse
from .jets import get_space, jstack

__all__ = [
    "DEFAULT_X",
    "DEFAULT_Y",
    "fd_christoffels",
    "fd_connection",
    "fd_nabla_vec",
    "fd_curvature_ambient",
    "fd_curvature_prime",
]

# The chart fields X, Y of the FD check; a p-chart takes the first p, so entry
# k uses only u1..u(k+1).
DEFAULT_X = ["0.7+0.3*u1", "u2-0.4", "0.5*u1"] + [f"0.3+0.2*u{k}" for k in range(4, 9)]
DEFAULT_Y = ["u1*u1-0.2", "0.6", "u2+0.1*u1"] + [f"u{k - 1}*u{k}-0.1" for k in range(4, 9)]
# Both fields parsed and interned once; a p-chart evaluates the first p of
# each, whose entries read only u1..up.
_X = intern([parse(c, len(DEFAULT_X), var_prefix="u") for c in DEFAULT_X])
_Y = intern([parse(c, len(DEFAULT_Y), var_prefix="u") for c in DEFAULT_Y])


def _field_values(field, u) -> np.ndarray:
    """The values (..., p) of a chart field, _X or _Y, at the points u
    (..., p): its first p coefficient expressions evaluated at order 0."""
    p = u.shape[-1]
    space = get_space(p, 0)
    uv = space.variables(u)
    memo = {}
    return jstack([eval_expr(c, uv, space, memo) for c in field[:p]], axis=-1).val


def fd_christoffels(M, u, h, frame, attr: str):
    """FD route of the Christoffels of the chart metric attr ("g_chart" or
    "gt_chart"), shape (p, p, p)."""
    return finite_diff.christoffels(lambda U: getattr(frame(U), attr).val, u, h)


def fd_connection(M, u, h, frame, attr: str):
    """FD route of nabla_X Y in chart components for the Levi-Civita
    connection of the chart metric attr ("g_chart" or "gt_chart")."""
    # the stencil frames come first: frame_data refuses points that are not
    # the chart's before a field is evaluated at them
    gam = fd_christoffels(M, u, h, frame, attr)
    x0, y0 = _field_values(_X, u), _field_values(_Y, u)
    dY = finite_diff.central_diff(lambda U: _field_values(_Y, U), u, h)
    return c_einsum("...a,...ac->...c", x0, dY) + c_einsum("...cab,...a,...b->...c", gam, x0, y0)


def fd_nabla_vec(M, u, h, frame):
    """FD route of nabla_X Y in ambient components: the derivative of Y's
    ambient components along X plus the ambient Christoffels at phi(u)."""
    fd0 = frame(u)
    x0 = _field_values(_X, u)

    def yamb(U):
        return np.matmul(frame(U).J.val, _field_values(_Y, U)[..., None])[..., 0]

    gam = finite_diff.christoffels(lambda X: metric_at(M.ambient, X), fd0.x0, h)
    dY = np.matmul(x0[..., None, :], finite_diff.central_diff(yamb, u, h))[..., 0, :]
    Jx = np.matmul(fd0.J.val, x0[..., None])[..., 0]
    return dY + c_einsum("...ijk,...j,...k->...i", gam, Jx, yamb(u))


def fd_curvature_ambient(M, u, h, frame):
    """FD route of the ambient curvature in frame components, g(R(e_k, e_l) e_j, e_i)."""
    fd0 = frame(u)
    low = finite_diff.lowered_curvature(lambda X: metric_at(M.ambient, X), fd0.x0, h)
    E = fd0.E.val
    return c_einsum("...ijkl,...ia,...jb,...kc,...ld->...abcd", low, E, E, E, E)


def fd_curvature_prime(M, u, h, frame):
    """FD route of the chart curvature tensor of the induced metric, shape (p, p, p, p)."""
    return finite_diff.curvature(lambda U: frame(U).g_chart.val, u, h)
