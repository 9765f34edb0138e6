"""Layer timings of the FD check, base tree against this one, timed
interleaved, and their parity digests, written to BENCH_fd_check.json.

    git clone -q . ../parent && git -C ../parent checkout -q HEAD~1
    python tools/bench_fd.py --base ../parent/src

Both framelab source trees, the one under --base and the repository's
src/, are loaded into one process under two package names. Each row is
timed ROUNDS times per tree, the two trees alternated and the one that goes
first swapped every round, so drift of a shared host over seconds falls on
both alike. One timing lasts about TIMING_S or more: it repeats the call or
the pass as often as that takes on the base tree, so that a row resolves a
change of a few percent. For each row the file holds each tree's median over
the rounds, the median over rounds of the ratio change / base, and in how
many rounds the change was faster. The rows:

- kernel_us: the time per call of Jet.__mul__ on (5,) jets and of
  jet_einsum("...ik,...kj->...ij") on (5, 3, 3) jets, in 2 variables, at
  orders 0-4;
- frame_build_ms: one FramePointData build at the first sample point of
  each default builtin, at orders 1-4, with every attribute that order
  serves read once (the attributes are built on first read);
- fd_relative_error_ms: the time per fd_relative_error call of each FD
  quantity at 5 sample points of each of the fd_check workload's builtins
  (verify's default ones), on fresh submanifolds, so that every frame is
  built cold;
- fd_pass_ms: one whole pass of the benchmark's fd_check workload, every
  FD quantity at 5 points (seed 0) of each of its 7 builtins in its order,
  builtin by builtin and point by point, on fresh submanifolds.

fd_pass_counts holds, per tree, exact counts over one such pass:
FramePointData builds, AmbientSpace.metric_jets calls, the metric_at calls
of the FD routes among them (of oracles, or of verify in a tree that has no
oracles module), ImmersedSubmanifold.frame_data lookups,
operators.as_chart_field calls, the jet_pullback calls of submanifold (the
frame's G, Gam and R) and the metric entries ambient evaluates (its
eval_expr calls, those made when an ambient is made included).

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
TIMING_S = 0.2
FD_POINTS = 5
# The fd_check workload's builtins, pinned there and here in its order.
FD_CHECK_BUILTINS = ("plane", "plane3", "circle", "sphere2", "catenoid", "great2(0.5)", "clifford")


def load_tree(src: Path, name: str) -> SimpleNamespace:
    """The framelab package under src, imported as the package `name`, with
    its oracles module where the tree has one."""
    init = src.resolve() / "framelab" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    modules = ["jets", "ambient", "submanifold", "operators", "omn_geometry", "gauss_map", "verify"]
    if (init.parent / "oracles.py").exists():
        modules.append("oracles")
    return SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}") for m in modules})


def calls_per_timing(fn) -> int:
    """How many calls of fn take about TIMING_S."""
    timer = timeit.Timer(fn)
    number = 1
    while timer.timeit(number) < TIMING_S and number < 1 << 20:
        number *= 2
    return number


def interleaved(time_once: dict, unit: float) -> dict:
    """Time both trees ROUNDS times each, alternated; time_once[tree]() is
    the seconds per call of one timing, or a dict of them by row, and then
    the result is by row too. Times are scaled by unit."""
    times = {tree: [] for tree in TREES}
    for r in range(ROUNDS):
        for tree in TREES if r % 2 == 0 else TREES[::-1]:
            times[tree].append(time_once[tree]())
    base, change = times["base"], times["change"]
    if isinstance(base[0], dict):
        return {row: compared([b[row] for b in base], [c[row] for c in change], unit) for row in base[0]}
    return compared(base, change, unit)


def compared(base: list, change: list, unit: float) -> dict:
    """Each tree's median over the rounds, scaled by unit, the median ratio
    change / base of a round, and the rounds in which the change was faster."""
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


def per_pass_timer(passes: dict, calls: int = 1) -> dict:
    """time_once for interleaved from passes[tree] = (fresh, run): fresh()
    makes the inputs of one pass and run(inputs) is the pass. A timing makes
    the inputs of its passes before the clock starts and runs as many passes
    as take about TIMING_S on the base tree (one untimed pass there also
    warms the process); it gives the seconds per pass, or per call where a
    pass makes `calls` calls."""
    fresh, run = passes["base"]
    inputs = fresh()
    t0 = time.perf_counter()
    run(inputs)
    number = max(1, round(TIMING_S / (time.perf_counter() - t0)))

    def timer(fresh, run):
        def once():
            batches = [fresh() for _ in range(number)]
            t0 = time.perf_counter()
            for inputs in batches:
                run(inputs)
            return (time.perf_counter() - t0) / (number * calls)

        return once

    return {tree: timer(*p) for tree, p in passes.items()}


def fd_pass(ns, quantities) -> tuple:
    """A pass in the fd_check workload's order over the given FD quantities:
    fd_relative_error of each at every sample point (seed 0) of each of its
    builtins, on fresh submanifolds; (fresh, run) for per_pass_timer."""
    sm, verify = ns.submanifold, ns.verify
    points = {name: ns.omn_geometry.domain_samples(sm.builtin_submanifold(name), FD_POINTS, seed=0)
              for name in FD_CHECK_BUILTINS}

    def run(fresh):
        for M, pts in fresh:
            for u in pts:
                for q in quantities:
                    verify.fd_relative_error(M, q, u)

    return lambda: [(sm.builtin_submanifold(name), pts) for name, pts in points.items()], run


def fd_timings(fl: dict) -> dict:
    calls = len(FD_CHECK_BUILTINS) * FD_POINTS
    return {q: interleaved(per_pass_timer({t: fd_pass(ns, [q]) for t, ns in fl.items()}, calls), 1e3)
            for q in fl["base"].verify.FD_QUANTITIES}


def fd_pass_counts(ns) -> dict:
    """Exact counts over one fd_check pass of the tree ns, the making of its
    submanifolds included (each selects its pivots on the ambient metric), as
    the workload makes them; each is counted by wrapping the public name
    where its callers look it up."""
    sm, verify = ns.submanifold, ns.verify
    sites = {
        "frame_builds": (sm.FramePointData, "__init__"),
        "metric_jets_calls": (ns.ambient.AmbientSpace, "metric_jets"),
        "metric_at_calls": (getattr(ns, "oracles", verify), "metric_at"),
        "frame_data_lookups": (sm.ImmersedSubmanifold, "frame_data"),
        "as_chart_field_calls": (ns.operators, "as_chart_field"),
        "jet_pullback_calls": (sm, "jet_pullback"),
        "metric_evaluations": (ns.ambient, "eval_expr"),
    }
    counts = dict.fromkeys(sites, 0)
    saved = {row: getattr(owner, name) for row, (owner, name) in sites.items()}

    def counted(row, fn):
        def wrapper(*args, **kwargs):
            counts[row] += 1
            return fn(*args, **kwargs)

        return wrapper

    fresh, run = fd_pass(ns, verify.FD_QUANTITIES)
    try:
        for row, (owner, name) in sites.items():
            setattr(owner, name, counted(row, saved[row]))
        run(fresh())
    finally:
        for row, (owner, name) in sites.items():
            setattr(owner, name, saved[row])
    return counts


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
        "timing_s": TIMING_S,
        "kernel_us": kernel_timings(fl),
        "frame_build_ms": frame_timings(fl),
        "fd_relative_error_ms": fd_timings(fl),
        "fd_pass_ms": interleaved(per_pass_timer({t: fd_pass(ns, ns.verify.FD_QUANTITIES) for t, ns in fl.items()}), 1e3),
        "fd_pass_counts": {tree: fd_pass_counts(ns) for tree, ns in fl.items()},
        "parity": {tree: parity(ns) for tree, ns in fl.items()},
    }
    doc["parity_equal"] = doc["parity"]["base"] == doc["parity"]["change"]
    doc["measured_s"] = time.perf_counter() - t0
    OUT.write_text(json.dumps(doc, indent=2) + "\n")
    fd = doc["fd_relative_error_ms"]
    print(json.dumps({"parity_equal": doc["parity_equal"], "fd_pass": round(doc["fd_pass_ms"]["ratio"], 3),
                      **{q: round(r["ratio"], 3) for q, r in fd.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
