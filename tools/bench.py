"""Parity digests and exact work counts of a base framelab tree against this
one, written to BENCH_fd_check.json and BENCH_registry.json.

    git clone -q . ../parent && git -C ../parent checkout -q HEAD~1
    python tools/bench.py --base ../parent/src

An A/A run, `python tools/bench.py --base src`, compares the checkout with
itself: its parity_equal, products_equal and counts_equal read true.

This is a gate, not a timer: a refactor that should leave every report, FD
error and theorem field bitwise equal shows here whether it did, and a
change to the work it does shows in exact counts. Speed, start-up included,
is measured by perfbench/run.py, in alternated pairs of runs. --base takes
a tree from commit 16b82fd on: one with the oracles module and the
pseudosphere builtin.

Both framelab source trees, the one under --base and the repository's src/,
are loaded into one process under two package names. Both do the same work,
pinned here as perfbench/workload.py pins it: its BUILTINS in its order,
REGISTRY_SAMPLES, THEOREM_SAMPLES, FD_POINTS and the FD quantities of its
FD_TOL, so that a change to verify's defaults changes neither tree's work.

BENCH_fd_check.json:

- fd_pass_counts: per tree, exact counts over one pass of the benchmark's
  fd_check workload (fd_relative_error of every FD quantity at the FD_POINTS
  sample points, seed 0, of each builtin, on fresh submanifolds), the making
  of its submanifolds included: FramePointData builds,
  AmbientSpace.metric_jets calls, the oracles.metric_at calls of the FD
  routes among them, ImmersedSubmanifold.frame_data lookups,
  operators.as_chart_field calls, the jet_pullback calls of submanifold (the
  frame's G, Gam and R) and the metric entries ambient evaluates (its
  eval_expr calls, those made when an ambient is made included);
  counts_equal, whether the two trees' counts agree.

BENCH_registry.json:

- products: per tree, the jet x jet products (Jet.__mul__ and jet_einsum of
  two jets) of one pass of the benchmark's registry workload
  (run_suite(builtins=[name], samples=REGISTRY_SAMPLES) for each builtin,
  on fresh submanifolds) and of one pass of its theorem workload
  (theorem_check on each builtin at THEOREM_SAMPLES samples, on submanifolds
  whose frames a first check has built), both at seed COUNT_SEED, by the
  order they land at, the lower of their operands' orders, and
  products_equal, whether the two trees' counts agree.

Each count wraps a callable where its callers look it up: on its owner, and
jet_einsum in every module of the tree that binds it.

Both files hold parity, per tree: SHA-256 digests of
run_suite(builtins=BUILTINS, samples=s, seed=k).canonical_json() for s in
{5, 25} and k in {0, 1}; of run_suite(builtins=["pseudosphere", DINI],
samples=25, seed=k).canonical_json() for k in {0, 1}, Dini's surface in
euclidean(3) built from the tree's own classes; of the 490 fd_relative_error values (the builtins x
FD_POINTS points x FD quantities, seeds 0 and 1) as float64 bytes; and of
every theorem_check field on the builtins and on the pseudosphere builtin
at 25 samples, seeds 0 and 3, with floats written by float.hex.
parity_equal says whether the two trees' digests agree, and measured_s is
the wall time of the whole run. The last line printed holds parity_equal,
products_equal and counts_equal. Only public framelab names are used. BLAS
and OpenMP pools are pinned to one thread, as in the benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# The benchmark's work, as perfbench/workload.py pins it: its builtins in its
# order, its sample counts and the FD quantities of its FD_TOL.
BUILTINS = ("plane", "plane3", "circle", "sphere2", "catenoid", "great2(0.5)", "clifford")
FD_QUANTITIES = ("gamma_chart", "gamma_tilde", "nabla_vec", "nabla_prime_vec", "nabla_tilde_vec",
                 "curvature_ambient", "curvature_prime")
REGISTRY_SAMPLES = 5
THEOREM_SAMPLES = 25
FD_POINTS = 5
COUNT_SEED = 301
# Dini's surface on [-1, 1] x [0.5, 1.2]: K = -1/2, as on the pseudosphere
# builtin, so h2, h3 and m2 are of order 1 on both, as on no benchmark
# builtin, and the vertical parts the registry lifts are of order 1.
DINI = ["cos(u1)*sin(u2)", "sin(u1)*sin(u2)", "cos(u2)+log(tan(u2/2))+u1"]


def load_tree(src: Path, name: str) -> SimpleNamespace:
    """The framelab package under src, imported as the package `name`."""
    init = src.resolve() / "framelab" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    modules = ["expr", "jets", "ambient", "submanifold", "operators", "omn_geometry", "gauss_map", "verify",
               "oracles"]
    return SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}") for m in modules})


@contextlib.contextmanager
def counting(sites: list, count):
    """Within the block, the callable at each site (row, owner, name) is
    wrapped on its owner, where its callers look it up, to call
    count(row, *args) before it."""
    saved = [(owner, name, getattr(owner, name)) for _, owner, name in sites]

    def counted(row, fn):
        def wrapper(*args, **kwargs):
            count(row, *args)
            return fn(*args, **kwargs)

        return wrapper

    try:
        for row, owner, name in sites:
            setattr(owner, name, counted(row, getattr(owner, name)))
        yield
    finally:
        for owner, name, fn in reversed(saved):
            setattr(owner, name, fn)


def fd_pass(ns) -> None:
    """A pass of the fd_check workload of the tree ns: fd_relative_error of
    each FD quantity at every sample point (seed 0) of each builtin, on
    fresh submanifolds."""
    for name in BUILTINS:
        M = ns.submanifold.builtin_submanifold(name)
        for u in ns.omn_geometry.domain_samples(M, FD_POINTS, seed=0):
            for q in FD_QUANTITIES:
                ns.verify.fd_relative_error(M, q, u)


def fd_pass_counts(ns) -> dict:
    """Exact counts over one fd_check pass of the tree ns, the making of its
    submanifolds included, as the workload makes them."""
    sm = ns.submanifold
    sites = [
        ("frame_builds", sm.FramePointData, "__init__"),
        ("metric_jets_calls", ns.ambient.AmbientSpace, "metric_jets"),
        ("metric_at_calls", ns.oracles, "metric_at"),
        ("frame_data_lookups", sm.ImmersedSubmanifold, "frame_data"),
        ("as_chart_field_calls", ns.operators, "as_chart_field"),
        ("jet_pullback_calls", sm, "jet_pullback"),
        ("metric_evaluations", ns.ambient, "eval_expr"),
    ]
    counts = Counter()
    with counting(sites, lambda row, *args: counts.update([row])):
        fd_pass(ns)
    return {row: counts[row] for row, _, _ in sites}


def registry_pass(ns, seed: int) -> None:
    """A pass of the registry workload of the tree ns at seed: run_suite on
    each builtin alone, on fresh submanifolds."""
    for name in BUILTINS:
        ns.verify.run_suite(builtins=[name], samples=REGISTRY_SAMPLES, seed=seed)


def theorem_pass(ns, manifolds: list, seed: int) -> None:
    """A pass of the theorem workload of the tree ns at seed: theorem_check
    on each of the builtins' manifolds."""
    for M in manifolds:
        ns.gauss_map.theorem_check(M, samples=THEOREM_SAMPLES, seed=seed)


def product_counts(ns) -> dict:
    """The jet x jet products of one registry pass and of one theorem pass
    of the tree ns at COUNT_SEED, by the order they land at, and how many
    land at order 1 or more. The theorem pass runs on manifolds whose frame
    caches a first, uncounted pass filled, as the workload's set-up does."""
    jets = ns.jets
    package = jets.__name__.rpartition(".")[0] + "."
    binders = [mod for name, mod in list(sys.modules.items())
               if name.startswith(package) and vars(mod).get("jet_einsum") is jets.jet_einsum]
    sites = [("mul", jets.Jet, "__mul__")] + [("einsum", mod, "jet_einsum") for mod in binders]
    landed = []

    def count(row, *args):
        a, b = args[-2:]
        if isinstance(a, jets.Jet) and isinstance(b, jets.Jet):
            landed.append(min(a.valid, b.valid))

    manifolds = [ns.submanifold.builtin_submanifold(name) for name in BUILTINS]
    theorem_pass(ns, manifolds, COUNT_SEED)
    rows = {"registry": lambda: registry_pass(ns, COUNT_SEED),
            "theorem": lambda: theorem_pass(ns, manifolds, COUNT_SEED)}
    out = {}
    with counting(sites, count):
        for row, run in rows.items():
            landed.clear()
            run()
            by_order = {str(k): landed.count(k) for k in range(max(landed) + 1)}
            out[row] = {"by_order": by_order, "order_1_or_more": sum(k >= 1 for k in landed)}
    return out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def parity(ns) -> dict:
    sm, og, verify = ns.submanifold, ns.omn_geometry, ns.verify
    out = {}
    for samples in (5, 25):
        for seed in (0, 1):
            report = verify.run_suite(builtins=BUILTINS, samples=samples, seed=seed)
            out[f"canonical_json_s{samples}_k{seed}"] = _sha(report.canonical_json().encode())
    dini = sm.ImmersedSubmanifold(2, [[-1.0, 1.0], [0.5, 1.2]], DINI, ns.ambient.euclidean(3), name="dini")
    for seed in (0, 1):
        report = verify.run_suite(builtins=["pseudosphere", dini], samples=25, seed=seed)
        out[f"general_position_k{seed}"] = _sha(report.canonical_json().encode())
    errors = []
    for seed in (0, 1):
        for name in BUILTINS:
            M = sm.builtin_submanifold(name)
            for u in og.domain_samples(M, FD_POINTS, seed=seed):
                errors.extend(float(verify.fd_relative_error(M, q, u)) for q in FD_QUANTITIES)
    out["fd_errors"] = _sha(np.array(errors, dtype=np.float64).tobytes())
    out["fd_errors_count"] = len(errors)
    out["fd_errors_max"] = max(errors)
    fields = []
    for seed in (0, 3):
        # Beside them the pseudosphere builtin of K = -1/2, where h2, h3 and
        # m2 are of order 1 as on no benchmark builtin.
        for name in BUILTINS + ("pseudosphere",):
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
    ap = argparse.ArgumentParser(description=" ".join(__doc__.split("\n\n")[0].split()))
    ap.add_argument("--base", type=Path, required=True,
                    help="framelab source tree to compare against, e.g. the parent's src/")
    args = ap.parse_args(argv)
    srcs = {"base": args.base, "change": ROOT / "src"}
    fl = {tree: load_tree(src, f"framelab_{tree}") for tree, src in srcs.items()}

    def each(row) -> dict:
        return {tree: row(ns) for tree, ns in fl.items()}

    t0 = time.perf_counter()
    head = {"command": "python tools/bench.py --base DIR",
            "source": {tree: source_commit(src) for tree, src in srcs.items()}}
    counts = each(fd_pass_counts)
    fd_doc = {**head, "fd_pass_counts": counts, "counts_equal": counts["base"] == counts["change"]}
    products = each(product_counts)
    registry_doc = {
        **head,
        "samples": REGISTRY_SAMPLES,
        "theorem_samples": THEOREM_SAMPLES,
        "count_seed": COUNT_SEED,
        "products": products,
        "products_equal": products["base"] == products["change"],
    }
    digests = each(parity)
    measured_s = time.perf_counter() - t0
    for name, doc in (("BENCH_fd_check.json", fd_doc), ("BENCH_registry.json", registry_doc)):
        doc.update(parity=digests, parity_equal=digests["base"] == digests["change"], measured_s=measured_s)
        (ROOT / name).write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps({"parity_equal": fd_doc["parity_equal"], "products_equal": registry_doc["products_equal"],
                      "counts_equal": fd_doc["counts_equal"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
