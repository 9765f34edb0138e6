"""Central finite differences of batched point functions: the oracle that
checks the exact-jet route to connection and curvature data.

A point function f maps points u of shape (..., k) to values of shape
(..., *value shape); `M.frame_data(U).g_chart.val`, the chart metric read
off the immersion without a frame (`oracles.chart_metric(M, U)`) and
`metric_at(N, X)` are such functions. Each function here calls f exactly
once, on u and its whole stencil tree: value_and_diff and christoffels on
[u; u ± h e_a], curvature on [u; u ± h e_a; u ± h e_a ± h e_b]. The values
are split back by level as C-contiguous arrays, so f's values at u are read
from the same call: value_and_diff returns them beside the differences, a
metric function's values at u serve the inverse metric there, and
curvature takes the Christoffels at u and at its first level from the one
call; lowered_curvature lowers R's first index with the metric at u from
that call too. The module imports numpy only, so it shares no code with the
route it checks. Conventions are those of the ambient module: R^i_{jkl} =
d_k Gamma^i_{lj} - d_l Gamma^i_{kj} + Gamma^i_{km} Gamma^m_{lj} - Gamma^i_{lm} Gamma^m_{kj}.
"""

from __future__ import annotations

import numpy as np
from numpy._core.multiarray import c_einsum

__all__ = ["value_and_diff", "christoffels", "curvature", "lowered_curvature"]


def _shifted(u: np.ndarray, h: float) -> np.ndarray:
    """The 2k shifts of each point u (..., k): [0] holds u + h e_a and [1]
    u - h e_a, shape (2, ..., k, k) with a on the second-last axis."""
    shift = h * np.eye(u.shape[-1])
    return np.concatenate([(u[..., None, :] + shift)[None], (u[..., None, :] - shift)[None]])


def _one_call(f, levels: list) -> list:
    """f at the points of every level (..., k) in one call, on an array of
    shape (points, k); its values split back per level, C-contiguous, each
    leading with its level's point axes."""
    k = levels[0].shape[-1]
    vals = np.asarray(f(np.concatenate([x.reshape(-1, k) for x in levels])))
    out, start = [], 0
    for x in levels:
        end = start + x.size // k
        out.append(np.ascontiguousarray(vals[start:end]).reshape(x.shape[:-1] + vals.shape[1:]))
        start = end
    return out


def _diff(shifted_vals: np.ndarray, h: float) -> np.ndarray:
    """Central differences from values at _shifted points: shape (..., k, *value shape)."""
    return (shifted_vals[0] - shifted_vals[1]) / (2.0 * h)


def _gamma(g0: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Gamma^i_{jk} from the metric g0 (..., k, k) at the points and its
    central differences dg there, dg[..., a, b, c] = d_a g_bc."""
    low = 0.5 * (c_einsum("...abc->...cab", dg) + c_einsum("...abc->...cba", dg) - dg)
    return c_einsum("...dc,...cab->...dab", np.linalg.inv(g0), low)


def value_and_diff(f, u, h: float) -> tuple[np.ndarray, np.ndarray]:
    """f(u), shape (..., *value shape), and its central differences
    (f(u + h e_a) - f(u - h e_a)) / 2h for each coordinate a, stacked after
    u's batch axes: shape (..., k, *value shape). f gets u and all 2k shifted
    copies of every point in one call, so a frame function builds one frame
    for the stencil that christoffels builds and the value at u is that
    frame's."""
    u = np.asarray(u, dtype=float)
    f0, f1 = _one_call(f, [u, _shifted(u, h)])
    return f0, _diff(f1, h)


def christoffels(g, u, h: float) -> np.ndarray:
    """Gamma^i_{jk} of the metric function g at u, shape (..., k, k, k):
    one call of g on u and its 2k shifts."""
    return _gamma(*value_and_diff(g, u, h))


def curvature(g, u, h: float) -> np.ndarray:
    """R^i_{jkl} of the metric function g at u, shape (..., k, k, k, k): the
    Christoffels differenced with the same step h they are computed with.
    One call of g on u, its 2k shifts and their 2k shifts each gives the
    Christoffels at u and at the first level."""
    return _curvature(g, u, h)[1]


def lowered_curvature(g, u, h: float) -> np.ndarray:
    """R_{ijkl} = g_{im} R^m_{jkl} at u, shape (..., k, k, k, k): curvature's
    tensor with its first index lowered by g at u, the root of the same one
    call."""
    g0, R = _curvature(g, u, h)
    return c_einsum("...im,...mjkl->...ijkl", g0, R)


def _curvature(g, u, h: float) -> tuple[np.ndarray, np.ndarray]:
    """g at u and R^i_{jkl} there, from one call of g on the whole tree."""
    u = np.asarray(u, dtype=float)
    k = u.shape[-1]
    level1 = _shifted(u, h)
    g0, g1, g2 = _one_call(g, [u, level1, _shifted(level1.reshape(-1, k), h)])
    G0 = _gamma(g0, _diff(g1, h))
    G1 = _gamma(g1.reshape((-1,) + g1.shape[-2:]), _diff(g2, h))
    dG = _diff(G1.reshape(level1.shape[:-1] + G1.shape[1:]), h)
    dG = c_einsum("...kilj->...ijkl", dG)  # d_k Gamma^i_{lj}
    GG = c_einsum("...ikm,...mlj->...ijkl", G0, G0)  # Gamma^i_{km} Gamma^m_{lj}
    return g0, dG - np.swapaxes(dG, -1, -2) + GG - np.swapaxes(GG, -1, -2)
