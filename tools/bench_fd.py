"""Layer timings of the FD check, base tree against this one, timed
interleaved, and their parity digests, written to BENCH_fd_check.json.

    git clone -q . ../parent && git -C ../parent checkout -q HEAD~1
    python tools/bench_fd.py --base ../parent/src

Both framelab source trees, the one under --base and the repository's
src/, are loaded into one process under two package names. Each row is
timed ROUNDS times per tree, the two trees alternated and the one that goes
first swapped every round, so drift of a shared host over seconds falls on
both alike. For each row the file holds each tree's median over the rounds,
the median over rounds of the ratio change / base, and in how many rounds
the change was faster. The rows:

- kernel_us: the time per call of Jet.__mul__ on (5,) jets and of
  jet_einsum("...ik,...kj->...ij") on (5, 3, 3) jets, in 2 variables, at
  orders 0-4;
- frame_build_ms: one FramePointData build at the first sample point of
  each default builtin, at orders 1-4, with every attribute that order
  serves read once (the attributes are built on first read);
- fd_relative_error_ms: the time per fd_relative_error call of each FD
  quantity at 5 sample points of each default builtin, on fresh
  submanifolds, so that every frame is built cold.

parity holds, per tree, SHA-256 digests of run_suite(samples=s,
seed=k).canonical_json() for s in {5, 25} and k in {0, 1}; of the 490
fd_relative_error values (the 7 default builtins x 5 points x 7 quantities,
seeds 0 and 1) as float64 bytes; and of every theorem_check field on the 7
builtins at 25 samples, seeds 0 and 3, with floats written by float.hex.
parity_equal says whether the two trees' digests agree. Only public
framelab names are used. BLAS and OpenMP pools are pinned to one thread, as
in the benchmark.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import timeit
from pathlib import Path
from types import SimpleNamespace

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_fd_check.json"
TREES = ("base", "change")
KERNEL_ORDERS = range(5)
FRAME_ORDERS = range(1, 5)
ROUNDS = 9
FD_POINTS = 5


def load_tree(src: Path, name: str) -> SimpleNamespace:
    """The framelab package under src, imported as the package `name`."""
    init = src.resolve() / "framelab" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    modules = ("jets", "submanifold", "omn_geometry", "gauss_map", "verify")
    return SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}") for m in modules})


def calls_per_timing(fn, target_s: float = 0.02) -> int:
    """How many calls of fn take about target_s."""
    timer = timeit.Timer(fn)
    number = 1
    while timer.timeit(number) < target_s and number < 1 << 20:
        number *= 2
    return number


def interleaved(time_once: dict, unit: float) -> dict:
    """Time both trees ROUNDS times each, alternated; time_once[tree]() is
    the seconds per call of one timing. Times are scaled by unit."""
    times = {tree: [] for tree in TREES}
    for r in range(ROUNDS):
        for tree in TREES if r % 2 == 0 else TREES[::-1]:
            times[tree].append(time_once[tree]())
    base, change = times["base"], times["change"]
    return {
        "base": statistics.median(base) * unit,
        "change": statistics.median(change) * unit,
        "ratio": statistics.median(c / b for b, c in zip(base, change)),
        "change_faster": sum(c < b for b, c in zip(base, change)),
    }


def per_call_timer(fns: dict) -> dict:
    """time_once for interleaved from plain callables, with the number of
    calls per timing set on the base tree."""
    number = calls_per_timing(fns["base"])
    return {tree: (lambda t=timeit.Timer(fn): t.timeit(number) / number) for tree, fn in fns.items()}


def kernel_timings(fl: dict) -> dict:
    out = {"mul": {}, "jet_einsum": {}}
    for order in KERNEL_ORDERS:
        mul, ein = {}, {}
        for tree, ns in fl.items():
            rng = np.random.default_rng(7)
            sp = ns.jets.get_space(2, order)
            a, b = (ns.jets.Jet(sp, rng.standard_normal((5, sp.ncoeff))) for _ in range(2))
            A, B = (ns.jets.Jet(sp, rng.standard_normal((5, 3, 3, sp.ncoeff))) for _ in range(2))
            mul[tree] = lambda a=a, b=b: a * b
            ein[tree] = lambda A=A, B=B, jets=ns.jets: jets.jet_einsum("...ik,...kj->...ij", A, B)
        out["mul"][str(order)] = interleaved(per_call_timer(mul), 1e6)
        out["jet_einsum"][str(order)] = interleaved(per_call_timer(ein), 1e6)
    return out


ATTRS = ("Gam", "R", "Einv", "omega", "g_chart", "C", "Dmat", "Smats", "Pfr",
         "Gam_chart", "gt_chart", "Gamt", "Rt_chart", "W", "Wchart", "Rfr")


def frame_builder(ns, name: str, order: int):
    """A call that builds the frame of builtin `name` at its first sample
    point to `order` and reads every attribute that order serves."""
    sm = ns.submanifold
    M = sm.builtin_submanifold(name)
    u = ns.omn_geometry.domain_samples(M, 1, seed=0)[0]
    probe = sm.FramePointData(M, u, order)
    served = []
    for attr in ATTRS:
        try:
            getattr(probe, attr)
        except sm.FrameError:
            continue
        served.append(attr)

    def build():
        fd = sm.FramePointData(M, u, order)
        for attr in served:
            getattr(fd, attr)

    return build


def frame_timings(fl: dict) -> dict:
    out = {}
    for name in fl["base"].verify.DEFAULT_BUILTINS:
        out[name] = {
            str(order): interleaved(per_call_timer({t: frame_builder(ns, name, order) for t, ns in fl.items()}), 1e3)
            for order in FRAME_ORDERS
        }
    return out


def fd_sweep(ns, q: str):
    """One timing: fd_relative_error of q at every sample point of every
    default builtin, on submanifolds made before the clock starts."""
    sm, verify = ns.submanifold, ns.verify
    points = {name: ns.omn_geometry.domain_samples(sm.builtin_submanifold(name), FD_POINTS, seed=0)
              for name in verify.DEFAULT_BUILTINS}

    def once():
        fresh = [(sm.builtin_submanifold(name), pts) for name, pts in points.items()]
        t0 = time.perf_counter()
        for M, pts in fresh:
            for u in pts:
                verify.fd_relative_error(M, q, u)
        return (time.perf_counter() - t0) / (len(fresh) * FD_POINTS)

    return once


def fd_timings(fl: dict) -> dict:
    return {q: interleaved({t: fd_sweep(ns, q) for t, ns in fl.items()}, 1e3) for q in fl["base"].verify.FD_QUANTITIES}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def parity(ns) -> dict:
    sm, og, verify = ns.submanifold, ns.omn_geometry, ns.verify
    out = {}
    for samples in (5, 25):
        for seed in (0, 1):
            report = verify.run_suite(samples=samples, seed=seed)
            out[f"canonical_json_s{samples}_k{seed}"] = _sha(report.canonical_json().encode())
    errors = []
    for seed in (0, 1):
        for name in verify.DEFAULT_BUILTINS:
            M = sm.builtin_submanifold(name)
            for u in og.domain_samples(M, FD_POINTS, seed=seed):
                errors.extend(float(verify.fd_relative_error(M, q, u)) for q in verify.FD_QUANTITIES)
    out["fd_errors"] = _sha(np.array(errors, dtype=np.float64).tobytes())
    out["fd_errors_count"] = len(errors)
    out["fd_errors_max"] = max(errors)
    fields = []
    for seed in (0, 3):
        for name in verify.DEFAULT_BUILTINS:
            rep = ns.gauss_map.theorem_check(sm.builtin_submanifold(name), samples=25, seed=seed)
            for f in dataclasses.fields(rep):
                v = getattr(rep, f.name)
                fields.append(f"{name}/{seed}/{f.name}=" + (v.hex() if isinstance(v, float) else repr(v)))
    out["theorem_fields"] = _sha("\n".join(fields).encode())
    out["theorem_fields_count"] = len(fields)
    return out


def source_commit(src: Path) -> str:
    """The commit of the tree holding src, with +dirty when src has changes."""
    try:
        head = subprocess.run(["git", "-C", str(src), "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(src), "status", "--porcelain", "--", "."],
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head + ("+dirty" if dirty else "")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", type=Path, required=True,
                    help="framelab source tree to compare against, e.g. the parent's src/")
    args = ap.parse_args(argv)
    srcs = {"base": args.base, "change": ROOT / "src"}
    fl = {tree: load_tree(src, f"framelab_{tree}") for tree, src in srcs.items()}

    t0 = time.perf_counter()
    doc = {
        "command": "python tools/bench_fd.py --base DIR",
        "source": {tree: source_commit(src) for tree, src in srcs.items()},
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "rounds": ROUNDS,
        "kernel_us": kernel_timings(fl),
        "frame_build_ms": frame_timings(fl),
        "fd_relative_error_ms": fd_timings(fl),
        "parity": {tree: parity(ns) for tree, ns in fl.items()},
    }
    doc["parity_equal"] = doc["parity"]["base"] == doc["parity"]["change"]
    doc["measured_s"] = time.perf_counter() - t0
    OUT.write_text(json.dumps(doc, indent=2) + "\n")
    fd = doc["fd_relative_error_ms"]
    print(json.dumps({"parity_equal": doc["parity_equal"], **{q: round(r["ratio"], 3) for q, r in fd.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
