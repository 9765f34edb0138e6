"""Parity of the values and exact work counts of a base framelab tree
against this one, written to BENCH_fd_check.json and BENCH_registry.json.

    git clone -q . ../parent && git -C ../parent checkout -q HEAD~1
    python tools/bench.py --base ../parent/src

An A/A run, `python tools/bench.py --base src`, compares the checkout with
itself: its parity_equal, products_equal and counts_equal read true.

This is a gate, not a timer: a refactor that should leave every report, FD
error and theorem field bitwise equal shows here whether it did, and which
values moved and by how much if not; a change to the work it does shows in
exact counts. Speed, start-up included, is measured by perfbench/run.py, in
alternated pairs of runs. --base takes a tree from commit 16b82fd on: one
with the oracles module and the pseudosphere builtin.

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
- The parity of the 490 fd_relative_error values: the builtins x FD_POINTS
  points x FD quantities at seeds 0 and 1, keyed
  fd_relative_error_k{seed}/{builtin}/{point}/{quantity}.

BENCH_registry.json:

- products: per tree, the jet x jet products (Jet.__mul__ and jet_einsum of
  two jets) of one pass of the benchmark's registry workload
  (run_suite(builtins=[name], samples=REGISTRY_SAMPLES) for each builtin,
  on fresh submanifolds) and of one pass of its theorem workload
  (theorem_check on each builtin at THEOREM_SAMPLES samples, on submanifolds
  whose frames a first check has built), both at seed COUNT_SEED, by the
  order they land at, the lower of their operands' orders, and
  products_equal, whether the two trees' counts agree.
- The parity of every value of 7 reports' canonical JSON:
  run_suite(builtins=BUILTINS, samples=s, seed=k) for s in {5, 25} and k in
  {0, 1}, keyed run_suite_s{s}_k{k}, and run_suite(builtins=["pseudosphere",
  DINI], samples=25, seed=k) for k in {0, 1, 2}, Dini's surface in
  euclidean(3) built from the tree's own classes, keyed
  general_position_k{k}. Seed 2 samples a point near Dini's rim where a
  frame completed by a coordinate axis is ill conditioned. A row's values
  are keyed by its run, case_id, builtin and ordinal among the rows of that
  (case, builtin) pair, then its field; a case's summary by
  run/summary/case_id and its field.
- The parity of the 128 theorem_check fields on the builtins and on the
  pseudosphere builtin at 25 samples, seeds 0 and 3, keyed
  theorem_check_k{seed}/{builtin}/{field}.

Each count wraps a callable where its callers look it up: on its owner, and
jet_einsum in every module of the tree that binds it.

The parity of each file (compare) holds its values' count per tree
(parity.compared), how many moved (parity.moved_count), the SHOWN largest
moves (parity.moved), each with its key, both values and |delta|, the moves
that are not a float change first, and per key pattern, with ordinals
written *, the count of its moves and their largest |delta| (parity.tally).
parity_equal says that no value moved, bit for bit, and parity_within that
every move is a float change of at most WITHIN * (1 + |base|), the quality
aim's bound on a refactor. measured_s is the wall time of the whole run. The
last line printed holds parity_equal and parity_within, each of both files,
products_equal and counts_equal. Only public framelab names are used. BLAS and OpenMP pools are
pinned to one thread, as in the benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import importlib.util
import json
import math
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
# The parity keys of the FD errors, which BENCH_fd_check.json compares;
# BENCH_registry.json compares the rest.
FD_KEY = "fd_relative_error"
# The quality aim's bound on a refactor's move of a value: its last bits.
WITHIN = 1e-14
# The moves each BENCH file lists.
SHOWN = 20
_MISSING = object()


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


def flatten(key: str, value, out: dict) -> None:
    """value into out as scalars keyed by their path under key: a dict's
    entries under their names, a list's or a tuple's under their indices.
    An empty one is one value, and a numpy scalar becomes a Python one."""
    if isinstance(value, dict) and value:
        for k, v in value.items():
            flatten(f"{key}/{k}", v, out)
    elif isinstance(value, (list, tuple)) and value:
        for i, v in enumerate(value):
            flatten(f"{key}/{i}", v, out)
    else:
        out[key] = value.item() if isinstance(value, np.generic) else value


def report_values(run: str, report, out: dict) -> None:
    """Every value of the report's canonical JSON into out, keyed by run:
    the header under run, each case's summary under run/summary/case_id, and
    each row under run/case_id/builtin/ordinal, its ordinal among the rows
    of that (case, builtin) pair, so that a row gone shows as keys missing,
    not as every later row moved."""
    header = json.loads(report.canonical_json())
    del header["summary"], header["results"]
    flatten(run, header, out)
    flatten(f"{run}/summary", report.summary(), out)
    ordinals = Counter()
    for row in report.results:
        pair = (row.case_id, row.builtin)
        flatten(f"{run}/{row.case_id}/{row.builtin}/{ordinals[pair]}", dataclasses.asdict(row), out)
        ordinals[pair] += 1


def parity(ns) -> dict:
    """Every value the parity gate compares of the tree ns, flat and keyed by
    where it comes from: the 7 reports, the fd_relative_error values under
    FD_KEY and the theorem_check fields."""
    sm, og, verify = ns.submanifold, ns.omn_geometry, ns.verify
    out = {}
    for samples in (5, 25):
        for seed in (0, 1):
            report = verify.run_suite(builtins=BUILTINS, samples=samples, seed=seed)
            report_values(f"run_suite_s{samples}_k{seed}", report, out)
    dini = sm.ImmersedSubmanifold(2, [[-1.0, 1.0], [0.5, 1.2]], DINI, ns.ambient.euclidean(3), name="dini")
    for seed in (0, 1, 2):
        report = verify.run_suite(builtins=["pseudosphere", dini], samples=25, seed=seed)
        report_values(f"general_position_k{seed}", report, out)
    for seed in (0, 1):
        for name in BUILTINS:
            M = sm.builtin_submanifold(name)
            for i, u in enumerate(og.domain_samples(M, FD_POINTS, seed=seed)):
                for q in FD_QUANTITIES:
                    out[f"{FD_KEY}_k{seed}/{name}/{i}/{q}"] = float(verify.fd_relative_error(M, q, u))
    for seed in (0, 3):
        # Beside them the pseudosphere builtin of K = -1/2, where h2, h3 and
        # m2 are of order 1 as on no benchmark builtin.
        for name in BUILTINS + ("pseudosphere",):
            rep = ns.gauss_map.theorem_check(sm.builtin_submanifold(name), samples=25, seed=seed)
            for f in dataclasses.fields(rep):
                flatten(f"theorem_check_k{seed}/{name}/{f.name}", getattr(rep, f.name), out)
    return out


def _same(a, b) -> bool:
    """Whether a and b would be written alike: floats bit for bit (one NaN
    equals another), anything else of one type and equal."""
    if isinstance(a, float) and isinstance(b, float):
        return a.hex() == b.hex()
    return type(a) is type(b) and a == b


def compare(base: dict, change: dict) -> dict:
    """The values of two flat maps that moved from base to change, as the
    three keys of a BENCH file.

    parity: compared, the count of values per tree; moved_count; moved, the
    SHOWN largest moves, each with its key, its base and change values (the
    one a tree lacks left out) and abs_delta, |change - base| of two floats
    and None otherwise; and tally, per key pattern (a key with each ordinal
    written *), the count of its moves and the largest abs_delta among them.
    The moves that are not a float change (of passed, error_kind or a
    string, or a key one tree lacks) come first, then the rest by abs_delta,
    largest first. parity_equal says that nothing moved, parity_within that
    every move is a float change of at most WITHIN * (1 + |base|).
    """
    moved, tally, within = [], {}, True
    for key in base.keys() | change.keys():
        a, b = base.get(key, _MISSING), change.get(key, _MISSING)
        if _same(a, b):
            continue
        move = {"key": key}
        move.update({tree: v for tree, v in (("base", a), ("change", b)) if v is not _MISSING})
        # a NaN on one side is no float change
        floats = isinstance(a, float) and isinstance(b, float) and not math.isnan(b - a)
        move["abs_delta"] = delta = abs(b - a) if floats else None
        within = within and floats and delta <= WITHIN * (1 + abs(a))
        moved.append(move)
        pattern = "/".join("*" if part.isdigit() else part for part in key.split("/"))
        row = tally.setdefault(pattern, {"moved": 0, "max_abs_delta": None})
        row["moved"] += 1
        if floats:
            row["max_abs_delta"] = max(row["max_abs_delta"] or 0.0, delta)
    moved.sort(key=lambda m: (m["abs_delta"] is not None, -(m["abs_delta"] or 0.0), m["key"]))
    return {
        "parity": {"compared": {"base": len(base), "change": len(change)}, "moved_count": len(moved),
                   "moved": moved[:SHOWN], "tally": dict(sorted(tally.items()))},
        "parity_equal": not moved,
        "parity_within": within,
    }


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
    values = each(parity)
    measured_s = time.perf_counter() - t0
    for name, doc, fd in (("BENCH_fd_check.json", fd_doc, True), ("BENCH_registry.json", registry_doc, False)):
        base, change = ({k: v for k, v in values[tree].items() if k.startswith(FD_KEY) is fd} for tree in fl)
        doc.update(compare(base, change), measured_s=measured_s)
        (ROOT / name).write_text(json.dumps(doc, indent=2) + "\n")
    docs = (fd_doc, registry_doc)
    print(json.dumps({"parity_equal": all(doc["parity_equal"] for doc in docs),
                      "parity_within": all(doc["parity_within"] for doc in docs),
                      "products_equal": registry_doc["products_equal"], "counts_equal": fd_doc["counts_equal"]}))
    return 0

if __name__ == "__main__":
    sys.exit(main())
