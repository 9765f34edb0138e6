"""framelab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload {registry,theorem,fd_check} --seed N --seconds S --trace {0,1}

Run from the repository root. Every process is one thread (BLAS and OpenMP
pools are pinned to 1) and each workload runs in processes of its own, so
peak memory belongs to that workload.

--trace 0 prints the end-to-end metrics of BENCHMARK.json. It starts
SETUP_RUNS - 1 processes that only set up, then one that sets up and runs
timed passes for S seconds; setup_s is the median set-up time of the
SETUP_RUNS processes. --trace 1 prints the per-layer metrics: it runs a
timed process with tracing off, then one with the span tracer installed,
and reports the traced process's layer counters and times, with the
tracing overhead as the ratio of the two processes' evals_per_s.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. A copy of the full result,
with the environment and the failure kinds, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5
# Every run must end within 180 s; children are stopped before that.
DEADLINE_S = 170.0

THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(THREAD_PINS)
    return env


def run_child(args, mode: str, deadline: float, spans: Path | None = None) -> dict:
    """Run perfbench/workload.py in its own process and return its result."""
    cmd = [
        sys.executable,
        str(HERE / "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for the {mode} process")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process stopped after {remaining:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} process printed no result")
    return json.loads(lines[-1])


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    setups = [run_child(args, "setup", deadline)["setup_s"] for _ in range(SETUP_RUNS - 1)]
    timed = run_child(args, "timed", deadline)
    setups.append(timed["setup_s"])
    metrics = {
        "evals_per_s": timed["evals_per_s"],
        "pass_share": 1.0 - timed["failed"] / timed["attempted"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    timed["setup_runs_s"] = setups
    return metrics, timed


def per_layer(args, deadline: float) -> tuple[dict, dict]:
    untraced = run_child(args, "timed", deadline)
    spans = HERE / "results" / f"spans-{args.workload}-seed{args.seed}.npz"
    traced = run_child(args, "traced", deadline, spans=spans)
    metrics = dict(traced.pop("per_layer"))
    metrics["trace.overhead_ratio"] = untraced["evals_per_s"] / traced["evals_per_s"]
    traced["untraced_evals_per_s"] = untraced["evals_per_s"]
    traced["correct"] = traced["correct"] and untraced["correct"]
    traced["spans_file"] = str(spans.relative_to(ROOT))
    return metrics, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one framelab benchmark workload.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    # Exit through subprocess.run, which then kills and waits for its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "framelab" / "__init__.py").is_file():
        print(f"framelab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("--seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        values, detail = (per_layer if args.trace else end_to_end)(args, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"metrics named in BENCHMARK.json were not measured: {missing}", file=sys.stderr)
        return 1
    extra = sorted(set(values) - {m["name"] for m in wanted})
    if extra:
        print(f"measured but not in BENCHMARK.json, left out: {extra}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    fail_share = detail["failed"] / detail["attempted"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  env {json.dumps(detail['env'])}")
    print(
        f"attempted {detail['attempted']}  completed {detail['completed']}  failed {detail['failed']}"
        f"  fail_share {fail_share:.4f}  correct {detail['correct']}"
    )
    for kind, n in detail["failure_kinds"].items():
        print(f"  failure {kind}: {n}")
    for msg in detail["wrong"]:
        print(f"  WRONG {msg}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")

    result = {
        "correct": bool(detail["correct"]),
        "attempted": int(detail["attempted"]),
        "failed": int(detail["failed"]),
        "metrics": metrics,
    }
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace, detail=detail)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
