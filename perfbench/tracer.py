"""Span tracing of framelab's layers, installed from outside the package.

`Tracer.install()` replaces each layer's public functions (the functions a
module lists in `__all__`) with a wrapper that records one span per call: a
name, a start, an end and the index of the enclosing span. The wrapper is
also put in place of every name another framelab module bound with
`from ... import`, so calls between layers are seen too. A few methods carry
the work that no public function exposes (jet products, frame lookups and
builds, ambient geometry) and are wrapped as well.

Spans stay in memory, in flat arrays, until `save()` writes them out. Self
time is a span's duration minus the durations of its direct children; spans
nest strictly because the run is single-threaded.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import math
import time
from array import array

import numpy as np

# Layers are framelab's modules, in the order of the exact-jet stack.
LAYERS = (
    "expr",
    "jets",
    "ambient",
    "submanifold",
    "operators",
    "frame_bundle",
    "omn_geometry",
    "gauss_map",
    "verify",
)

# Methods that do a layer's work behind its public functions: span name,
# module, class, attribute.
METHODS = (
    ("jets.mul", "jets", "Jet", "__mul__"),
    ("ambient.geometry_jets", "ambient", "AmbientSpace", "geometry_jets"),
    ("submanifold.frame_data", "submanifold", "ImmersedSubmanifold", "frame_data"),
    ("submanifold.frame_build", "submanifold", "FramePointData", "__init__"),
)

# Public operator and frame-bundle functions grouped by the operator they
# compute, so that one metric follows an operator however its code is split.
FAMILIES = {
    "operators.S": ("S_Tm_vector", "s_of_field", "s_field_matrix", "s_tm_tangent_jet"),
    "operators.P": ("P_op", "P_inverse", "modified_metric", "pinv_jet"),
    "operators.Q": ("Q_T", "q_t_chart_jet"),
    "operators.L": ("L_op",),
    "operators.R": ("R_T", "rt_matrix_jet", "curvature_prime", "curvature_prime_jet"),
    "operators.nabla": (
        "nabla_endo",
        "tilde_nabla",
        "endo_deriv_jet",
        "vec_nabla_prime_jet",
        "vec_tilde_nabla_jet",
    ),
    "operators.algebra": (
        "skew_inner",
        "hm_decompose",
        "basis_T",
        "as_chart_field",
        "frame_of_chart",
        "chart_of_frame",
    ),
    "frame_bundle.lift": (
        "lifted",
        "vertical_from_tensor",
        "vertical_from_frame_matrix",
        "horizontal_lift",
        "horizontal_lift_prime",
    ),
    "frame_bundle.metric": ("sasaki_mok_inner",),
    "frame_bundle.nabla_ON": ("nabla_ON", "nabla_ON_primed", "nabla_ON_section", "section_velocity"),
    "frame_bundle.decompose": ("decompose_OMN",),
    "frame_bundle.generators": ("tangent_generators", "normal_generators"),
}

CALLS_AND_SELF = (
    "jets.mul",
    "jets.jet_solve",
    "expr.eval_expr",
    "ambient.geometry_jets",
    "omn_geometry.mean_curvature_OMN",
    "omn_geometry.second_fundamental_OMN",
    "omn_geometry.curvature_OMN",
    "omn_geometry.sectional_OMN",
    "gauss_map.harmonicity_residuals",
    "gauss_map.tension_field",
)


def _prod(xs) -> int:
    return math.prod(int(x) for x in xs)


@functools.lru_cache(maxsize=None)
def product_pairs(space) -> int:
    """Unordered coefficient pairs (i <= j) whose degrees sum to at most the
    truncation order: the terms of one truncated jet product."""
    deg = sorted(sum(alpha) for alpha in space.multi_indices)
    n = len(deg)
    return sum(1 for i in range(n) for j in range(i, n) if deg[i] + deg[j] <= space.order)


def einsum_madds(sub: str, a_shape, b_shape, a_jet: bool, b_jet: bool, ncoeff: int, npairs: int) -> int:
    """Multiply-adds of one jet_einsum call, computed from operand shapes.

    One value-level product costs the product of every index extent. A
    jet-by-jet product forms it for each coefficient pair of the product
    table, twice (the table is unordered and both orders are summed); a
    jet-by-array product forms it once per Taylor coefficient.
    """
    lhs = sub.split("->")[0]
    extents: dict[str, int] = {}
    ellipses = []
    for s, shape in zip(lhs.split(","), (a_shape, b_shape)):
        letters = s.replace("...", "")
        lead = len(shape) - len(letters)
        if "..." in s:
            ellipses.append(tuple(shape[:lead]))
        for ch, n in zip(letters, shape[lead:]):
            extents[ch] = max(extents.get(ch, 1), int(n))
    size = _prod(extents.values()) * _prod(np.broadcast_shapes(*ellipses) if ellipses else ())
    if a_jet and b_jet:
        return 2 * npairs * size
    return ncoeff * size


class Tracer:
    """Records spans of framelab calls; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.einsum_madds = 0
        self.frame_data_hits = 0
        self.cache_clears = 0
        self._builds = 0
        self._madds_memo: dict = {}

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name: str):
        nid = self._id(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _wrap_einsum(self, fn):
        from framelab.jets import Jet

        inner = self.wrap(fn, "jets.jet_einsum")
        memo = self._madds_memo

        def jet_einsum(sub, a, b):
            a_jet, b_jet = isinstance(a, Jet), isinstance(b, Jet)
            sp = a.space if a_jet else (b.space if b_jet else None)
            a_shape = a.shape if a_jet else np.shape(a)
            b_shape = b.shape if b_jet else np.shape(b)
            key = (sub, a_shape, b_shape, a_jet, b_jet, id(sp))
            madds = memo.get(key)
            if madds is None and sp is not None:
                madds = memo[key] = einsum_madds(
                    sub, a_shape, b_shape, a_jet, b_jet, sp.ncoeff, product_pairs(sp)
                )
            self.einsum_madds += madds or 0
            return inner(sub, a, b)

        return jet_einsum

    def _wrap_frame_data(self, fn):
        inner = self.wrap(fn, "submanifold.frame_data")

        def frame_data(sub, *args, **kwargs):
            # The frame cache is a plain dict that is emptied when full; a
            # shrink across one lookup is such a clear. Without that dict no
            # clear is counted.
            before_len = len(getattr(sub, "_cache", ()))
            before_builds = self._builds
            try:
                fd = inner(sub, *args, **kwargs)
            finally:
                if len(getattr(sub, "_cache", ())) < before_len:
                    self.cache_clears += 1
            if self._builds == before_builds:
                self.frame_data_hits += 1
            return fd

        return frame_data

    def _wrap_frame_build(self, fn):
        inner = self.wrap(fn, "submanifold.frame_build")

        def __init__(*args, **kwargs):
            self._builds += 1
            return inner(*args, **kwargs)

        return __init__

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public functions and the METHODS above."""
        modules = {layer: importlib.import_module(f"framelab.{layer}") for layer in LAYERS}
        replace: dict[int, object] = {}
        for layer, mod in modules.items():
            for fname in getattr(mod, "__all__", ()):
                fn = getattr(mod, fname)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if (layer, fname) == ("jets", "jet_einsum"):
                    replace[id(fn)] = self._wrap_einsum(fn)
                else:
                    replace[id(fn)] = self.wrap(fn, f"{layer}.{fname}")
        for mod in modules.values():
            for attr, val in list(vars(mod).items()):
                new = replace.get(id(val))
                if new is not None and inspect.isfunction(val):
                    setattr(mod, attr, new)
        for name, layer, cls_name, attr in METHODS:
            cls = getattr(modules[layer], cls_name)
            fn = cls.__dict__[attr]
            if name == "submanifold.frame_data":
                new = self._wrap_frame_data(fn)
            elif name == "submanifold.frame_build":
                new = self._wrap_frame_build(fn)
            else:
                new = self.wrap(fn, name)
            for other, val in list(cls.__dict__.items()):
                if val is fn:
                    setattr(cls, other, new)
        verify = modules["verify"]
        verify.REGISTRY = tuple(
            dataclasses.replace(case, evaluator=self.wrap(case.evaluator, f"verify.case.{case.id}"))
            for case in verify.REGISTRY
        )

    # -- results -------------------------------------------------------------

    def arrays(self):
        n = len(self.start)
        name_id = np.frombuffer(self.name_id, dtype=np.int32, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        start = np.frombuffer(self.start, dtype=np.float64, count=n)
        end = np.frombuffer(self.end, dtype=np.float64, count=n)
        return name_id, parent, start, end

    def save(self, path) -> None:
        name_id, parent, start, end = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name_id=name_id, parent=parent, start=start, end=end
        )

    def per_layer(self, case_ids) -> dict[str, float]:
        """Per-layer metrics from the recorded spans, by metric name."""
        name_id, parent, start, end = self.arrays()
        n_names = len(self.names)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_t = dur - child
        calls = np.bincount(name_id, minlength=n_names)
        self_s = np.bincount(name_id, weights=self_t, minlength=n_names)
        incl_s = np.bincount(name_id, weights=dur, minlength=n_names)

        def stat(name, table):
            nid = self._name_ids.get(name)
            return float(table[nid]) if nid is not None else 0.0

        out: dict[str, float] = {}
        ein_calls = stat("jets.jet_einsum", calls)
        out["jets.jet_einsum.calls"] = ein_calls
        out["jets.jet_einsum.us_per_call"] = (
            1e6 * stat("jets.jet_einsum", self_s) / ein_calls if ein_calls else 0.0
        )
        out["jets.jet_einsum.madds"] = float(self.einsum_madds)
        for name in CALLS_AND_SELF:
            out[f"{name}.calls"] = stat(name, calls)
            out[f"{name}.self_s"] = stat(name, self_s)

        lookups = stat("submanifold.frame_data", calls)
        build_id = self._name_ids.get("submanifold.frame_build")
        build_ms = 1e3 * dur[name_id == build_id] if build_id is not None else np.empty(0)
        out["submanifold.frame_builds"] = float(build_ms.size)
        out["submanifold.frame_build_ms_p50"] = float(np.percentile(build_ms, 50)) if build_ms.size else 0.0
        out["submanifold.frame_build_ms_p90"] = float(np.percentile(build_ms, 90)) if build_ms.size else 0.0
        out["submanifold.frame_data.calls"] = lookups
        out["submanifold.cache_hit_ratio"] = self.frame_data_hits / lookups if lookups else 0.0
        out["submanifold.cache_clears"] = float(self.cache_clears)

        for family, members in FAMILIES.items():
            layer = family.split(".")[0]
            names = [f"{layer}.{m}" for m in members]
            out[f"{family}.calls"] = sum(stat(nm, calls) for nm in names)
            out[f"{family}.self_s"] = sum(stat(nm, self_s) for nm in names)

        for cid in case_ids:
            out[f"verify.case.{cid}.s"] = stat(f"verify.case.{cid}", incl_s)
        out["verify.fd_oracle.self_s"] = stat("verify.fd_oracle", self_s)
        out["verify.jet_value.self_s"] = stat("verify.jet_value", self_s)

        for layer in LAYERS:
            prefix = layer + "."
            out[f"layer.{layer}.self_s"] = sum(
                float(self_s[i]) for i, nm in enumerate(self.names) if nm.startswith(prefix)
            )
        out["trace.spans"] = float(len(dur))
        return out
