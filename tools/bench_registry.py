"""Wall time of each registry case, base tree against this one, timed
interleaved, and their parity digests, written to BENCH_registry.json.

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
of the per-point generators it draws from, which are built on first draw. parity and parity_equal are those of
tools/bench_fd.py. Only public framelab names are used.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from bench_fd import ROOT, ROUNDS, interleaved, load_tree, parity, source_commit

OUT = ROOT / "BENCH_registry.json"
SAMPLES = 5
SEED = 0
PASSES = 3


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
    doc = {
        "command": "python tools/bench_registry.py --base DIR",
        "source": {tree: source_commit(src) for tree, src in srcs.items()},
        "rounds": ROUNDS,
        "samples": SAMPLES,
        "seed": SEED,
        "passes": PASSES,
        "pass_ms": rows.pop("run_suite"),
        "case_ms": rows,
        "parity": {tree: parity(ns) for tree, ns in fl.items()},
    }
    doc["parity_equal"] = doc["parity"]["base"] == doc["parity"]["change"]
    doc["measured_s"] = time.perf_counter() - t0
    OUT.write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps({"parity_equal": doc["parity_equal"], "pass_ratio": round(doc["pass_ms"]["ratio"], 3),
                      "pass_change_faster": doc["pass_ms"]["change_faster"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
