"""Central finite differences of batched point functions: the oracle that
checks the exact-jet route to connection and curvature data.

A point function f maps points u of shape (..., k) to values of shape
(..., *value shape); `M.frame_data(U).g_chart.val` and `metric_at(N, X)`
are such functions. Each stencil level is one call of f on all its shifted
points. The module imports numpy only, so it shares no code with the route
it checks. Conventions are those of the ambient module: R^i_{jkl} =
d_k Gamma^i_{lj} - d_l Gamma^i_{kj} + Gamma^i_{km} Gamma^m_{lj} - Gamma^i_{lm} Gamma^m_{kj}.
"""

from __future__ import annotations

import numpy as np

__all__ = ["central_diff", "christoffels", "curvature"]


def central_diff(f, u, h: float) -> np.ndarray:
    """(f(u + h e_a) - f(u - h e_a)) / 2h for each coordinate a, stacked after
    u's batch axes: shape (..., k, *value shape). f gets all 2k shifted copies
    of every point in one call, as an array of shape (2 n k, k)."""
    u = np.asarray(u, dtype=float)
    k = u.shape[-1]
    shift = h * np.eye(k)
    stencil = np.stack([u[..., None, :] + shift, u[..., None, :] - shift])
    vals = np.asarray(f(stencil.reshape(-1, k)))
    vals = vals.reshape(stencil.shape[:-1] + vals.shape[1:])
    return (vals[0] - vals[1]) / (2.0 * h)


def christoffels(g, u, h: float) -> np.ndarray:
    """Gamma^i_{jk} of the metric function g at u, shape (..., k, k, k)."""
    dg = central_diff(g, u, h)  # [..., a, b, c] = d_a g_bc
    low = 0.5 * (np.einsum("...abc->...cab", dg) + np.einsum("...abc->...cba", dg) - dg)
    return np.einsum("...dc,...cab->...dab", np.linalg.inv(g(np.asarray(u, dtype=float))), low)


def curvature(g, u, h: float) -> np.ndarray:
    """R^i_{jkl} of the metric function g at u, shape (..., k, k, k, k): the
    Christoffels differenced with the same step h they are computed with."""
    gam = lambda U: christoffels(g, U, h)
    G0 = gam(u)
    dG = np.einsum("...kilj->...ijkl", central_diff(gam, u, h))  # d_k Gamma^i_{lj}
    GG = np.einsum("...ikm,...mlj->...ijkl", G0, G0)  # Gamma^i_{km} Gamma^m_{lj}
    return dG - np.swapaxes(dG, -1, -2) + GG - np.swapaxes(GG, -1, -2)
