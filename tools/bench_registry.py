"""Wall time of each registry case and of a theorem pass, base tree against
this one, timed interleaved, their jet products by order and their parity
digests, written to BENCH_registry.json.

    git clone -q . ../parent && git -C ../parent checkout -q HEAD~1
    python tools/bench_registry.py --base ../parent/src

Both framelab source trees are loaded into one process, as in
tools/bench_fd.py, whose loader, interleaved timer and parity digests this
script uses. A pass is one pass of the benchmark's registry workload:
run_suite(builtins=[name], samples=SAMPLES, seed=SEED) for each default
builtin, on fresh submanifolds, so that every frame is built cold. One
timing is PASSES passes, long enough that a switch of a shared host between
fast and slow periods falls on a part of it; in it each registry case's
evaluator is wrapped to add its wall time to that case's total, and the
passes are timed too. The timings of the two trees are alternated over the
rounds, the one that goes first swapped every round.

case_ms holds, per case, each tree's median over the rounds of that total
per pass in ms, the median ratio change / base and in how many rounds the
change was faster; pass_ms the same for the whole pass, which holds the
frame builds of run_suite's plan as well. A case's time holds the building
of the per-point generators it draws from, which are built on first draw.

theorem_pass_ms is a pass of the benchmark's theorem workload, timed as it
times one: theorem_check on each default builtin at THEOREM_SAMPLES samples
(seed SEED), on submanifolds whose frames a first check has built, so that
no frame is built in the pass; one timing repeats the pass for about
bench_fd.TIMING_S on the base tree. products holds, per tree, the jet x jet
products (Jet.__mul__ and jet_einsum of two jets) of one registry pass and
one such theorem pass at seed COUNT_SEED, by the order they land at, the
lower of their operands' orders. parity and parity_equal are those of
tools/bench_fd.py. Only public framelab names are used.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from bench_fd import ROOT, ROUNDS, interleaved, load_tree, parity, per_call_timer, source_commit

OUT = ROOT / "BENCH_registry.json"
SAMPLES = 5
SEED = 0
PASSES = 3
THEOREM_SAMPLES = 25
COUNT_SEED = 301


def timed_pass(ns):
    """A timing of PASSES registry passes of the tree ns: seconds per pass
    by case id, and of the whole pass under "run_suite"."""
    verify = ns.verify
    totals = {case.id: 0.0 for case in verify.REGISTRY}

    def timed(case):
        def evaluator(*args):
            t0 = time.perf_counter()
            try:
                return case.evaluator(*args)
            finally:
                totals[case.id] += time.perf_counter() - t0

        return dataclasses.replace(case, evaluator=evaluator)

    registry = verify.REGISTRY
    wrapped = tuple(timed(case) for case in registry)

    def once():
        for case_id in totals:
            totals[case_id] = 0.0
        verify.REGISTRY = wrapped
        try:
            t0 = time.perf_counter()
            for _ in range(PASSES):
                for name in verify.DEFAULT_BUILTINS:
                    verify.run_suite(builtins=[name], samples=SAMPLES, seed=SEED)
            elapsed = time.perf_counter() - t0
        finally:
            verify.REGISTRY = registry
        return {row: t / PASSES for row, t in {**totals, "run_suite": elapsed}.items()}

    return once


def theorem_pass(ns, seed: int = SEED):
    """One theorem pass of the tree ns, as a call: theorem_check on each
    default builtin, on submanifolds whose frame caches a first check filled."""
    manifolds = [ns.submanifold.builtin_submanifold(name) for name in ns.verify.DEFAULT_BUILTINS]

    def run():
        for M in manifolds:
            ns.gauss_map.theorem_check(M, samples=THEOREM_SAMPLES, seed=seed)

    run()
    return run


def product_counts(ns) -> dict:
    """The jet x jet products of one registry pass and of one theorem pass
    of the tree ns at COUNT_SEED, by the order they land at, and how many
    land at order 1 or more. Jet.__mul__ is wrapped on the class and
    jet_einsum wherever a module of the tree binds it."""
    jets = ns.jets
    package = jets.__name__.rpartition(".")[0] + "."
    mul, einsum = jets.Jet.__mul__, jets.jet_einsum
    landed = []

    def counted_mul(a, b):
        if isinstance(b, jets.Jet):
            landed.append(min(a.valid, b.valid))
        return mul(a, b)

    def counted_einsum(sub, a, b):
        if isinstance(a, jets.Jet) and isinstance(b, jets.Jet):
            landed.append(min(a.valid, b.valid))
        return einsum(sub, a, b)

    binders = [mod for name, mod in sys.modules.items()
               if name.startswith(package) and vars(mod).get("jet_einsum") is einsum]
    theorem = theorem_pass(ns, COUNT_SEED)  # frames built before counting
    passes = {
        "registry": lambda: [ns.verify.run_suite(builtins=[name], samples=SAMPLES, seed=COUNT_SEED)
                             for name in ns.verify.DEFAULT_BUILTINS],
        "theorem": theorem,
    }
    out = {}
    try:
        jets.Jet.__mul__ = counted_mul
        for mod in binders:
            mod.jet_einsum = counted_einsum
        for row, run in passes.items():
            landed.clear()
            run()
            by_order = {str(k): landed.count(k) for k in range(max(landed) + 1)}
            out[row] = {"by_order": by_order, "order_1_or_more": sum(k >= 1 for k in landed)}
    finally:
        jets.Jet.__mul__ = mul
        for mod in binders:
            mod.jet_einsum = einsum
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", type=Path, required=True,
                    help="framelab source tree to compare against, e.g. the parent's src/")
    args = ap.parse_args(argv)
    srcs = {"base": args.base, "change": ROOT / "src"}
    fl = {tree: load_tree(src, f"framelab_{tree}") for tree, src in srcs.items()}

    t0 = time.perf_counter()
    passes = {tree: timed_pass(ns) for tree, ns in fl.items()}
    for once in passes.values():
        once()  # jet tables and parsed expressions, built once per process
    rows = interleaved(passes, 1e3)
    theorem = interleaved(per_call_timer({tree: theorem_pass(ns) for tree, ns in fl.items()}), 1e3)
    doc = {
        "command": "python tools/bench_registry.py --base DIR",
        "source": {tree: source_commit(src) for tree, src in srcs.items()},
        "rounds": ROUNDS,
        "samples": SAMPLES,
        "seed": SEED,
        "passes": PASSES,
        "theorem_samples": THEOREM_SAMPLES,
        "count_seed": COUNT_SEED,
        "pass_ms": rows.pop("run_suite"),
        "theorem_pass_ms": theorem,
        "case_ms": rows,
        "products": {tree: product_counts(ns) for tree, ns in fl.items()},
        "parity": {tree: parity(ns) for tree, ns in fl.items()},
    }
    doc["parity_equal"] = doc["parity"]["base"] == doc["parity"]["change"]
    doc["measured_s"] = time.perf_counter() - t0
    OUT.write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps({"parity_equal": doc["parity_equal"], "pass_ratio": round(doc["pass_ms"]["ratio"], 3),
                      "pass_change_faster": doc["pass_ms"]["change_faster"],
                      "theorem_ratio": round(theorem["ratio"], 3), "theorem_change_faster": theorem["change_faster"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
