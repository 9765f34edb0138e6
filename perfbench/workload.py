"""One benchmark workload in one process: set up, then time or trace it.

    python perfbench/workload.py --workload NAME --seed N --seconds S --mode MODE

MODE is `setup` (set up and stop), `timed` (set up, then run passes until S
seconds have gone, at least MIN_TIMED_PASSES of them) or `traced` (set up,
install the span tracer, then run one pass, so that every count is the
count of one pass). The last line of standard output is one JSON object
with the measurements; perfbench/run.py starts this script and reads that
line. The script needs `framelab` importable, e.g. with PYTHONPATH=src.

A pass runs one unit of work per builtin submanifold. Every pass of a run
repeats the same units with the same seed, so each unit does the same work
in every pass.

On a shared host the speed can switch between fast and slow periods of a
second or more: on a 2-vCPU 2.1 GHz Xeon VM a fixed numpy kernel took
0.048 s or 0.085 s, alternating, and identical units varied by 40%. So
every unit is timed between two runs of a fixed reference probe (small
numpy einsums, like the jet kernel, and no framelab code), and its time is
divided by the mean of the two probe times. evals_per_s is the evaluations
of one pass over the sum of the units' median probe-relative times, times
PROBE_NOMINAL_S: the throughput on a host where the probe takes
PROBE_NOMINAL_S. The plain median pass rate is kept in the details.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from framelab import gauss_map, verify  # noqa: E402
from framelab.omn_geometry import domain_samples  # noqa: E402
from framelab.submanifold import builtin_submanifold  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

MIN_TIMED_PASSES = 3

# The builtin submanifolds every workload runs on, one unit each: verify's
# DEFAULT_BUILTINS when this benchmark was written, pinned here so that a
# change to that default does not change the benchmark's work.
BUILTINS = ("plane", "plane3", "circle", "sphere2", "catenoid", "great2(0.5)", "clifford")

# About the probe's time in a fast period of a 2.1 GHz Xeon vCPU.
PROBE_NOMINAL_S = 0.015

# Sample points per registry case and builtin. run_suite's default of 25
# makes one pass take about 20 s; 5 keeps it near 5 s, so that a run holds
# several passes.
REGISTRY_SAMPLES = 5
# theorem_check's own sampling, the same in setup and in every timed pass so
# that the timed passes find their frames in the cache.
THEOREM_SAMPLES = 25
# Seeded points per builtin in fd_check.
FD_POINTS = 5

# verify.FD_QUANTITIES when this benchmark was written, each with the largest
# relative error accepted from fd_relative_error: 100 h^2 for the
# central-difference step h the oracle uses by default (1e-4 for quantities
# of first derivatives of the metric, 1e-3 for curvatures).
FD_TOL = {
    "gamma_chart": 1e-6,
    "gamma_tilde": 1e-6,
    "nabla_vec": 1e-6,
    "nabla_prime_vec": 1e-6,
    "nabla_tilde_vec": 1e-6,
    "curvature_ambient": 1e-4,
    "curvature_prime": 1e-4,
}

# The paper's theorem: O(M,N) is minimal exactly when the Gauss map is
# harmonic. These builtins are both; circle and sphere2 are neither.
MINIMAL_BUILTINS = frozenset({"plane", "plane3", "catenoid", "great2(0.5)", "clifford"})


@dataclass
class Outcome:
    """What some work attempted, completed and got wrong."""

    attempted: int = 0
    completed: int = 0
    failed: int = 0
    kinds: Counter = field(default_factory=Counter)
    wrong: list = field(default_factory=list)

    def fail(self, kind: str, n: int = 1) -> None:
        self.failed += n
        self.kinds[kind] += n

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.completed += other.completed
        self.failed += other.failed
        self.kinds.update(other.kinds)
        self.wrong.extend(other.wrong)


class Probe:
    """A fixed reference computation that measures how fast the host runs now."""

    def __init__(self, reps: int = 500):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((3, 3, 20))
        self.b = rng.standard_normal((3, 3, 20))
        self.pi = rng.integers(0, 20, 60)
        self.pj = rng.integers(0, 20, 60)
        self.starts = np.arange(0, 60, 3)
        self.reps = reps

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for _ in range(self.reps):
            prod = np.einsum("ijP,jkP->ikP", self.a[..., self.pi], self.b[..., self.pj])
            np.add.reduceat(prod, self.starts, axis=-1)
        return time.perf_counter() - t0


def warm_jet_tables(seed: int) -> None:
    """Set-up of registry and fd_check: one frame per builtin on a throwaway
    manifold, at the domain centre whatever the seed.

    This fills the process-wide jet-space tables, so the first timed pass
    costs what later ones do; the manifolds and their frame caches are
    dropped.
    """
    for name in BUILTINS:
        M = builtin_submanifold(name)
        M.frame_data(M.chart_domain.mean(axis=1))


# -- registry: verify.run_suite on each builtin, as the CLI runs it ------------


def registry_unit(state, seed: int, name: str) -> Outcome:
    out = Outcome()
    report = verify.run_suite(builtins=[name], samples=REGISTRY_SAMPLES, seed=seed)
    for row in report.results:
        out.attempted += 1
        if row.residual is not None:
            out.completed += 1
        if row.passed:
            continue
        if row.residual is None:
            out.fail(f"crash:{row.case_id}")
        elif row.error and row.error.startswith("vacuous"):
            out.fail(f"vacuous:{row.case_id}")
        else:
            out.fail(f"over_tol:{row.case_id}")
            out.wrong.append(
                f"{row.case_id} on {row.builtin} at {row.point}: residual {row.residual:.3e} >= tol {row.tol:.1e}"
            )
    return out


# -- theorem: gauss_map.theorem_check on each builtin, frames cached -------------


def theorem_setup(seed: int):
    manifolds = {name: builtin_submanifold(name) for name in BUILTINS}
    for M in manifolds.values():
        gauss_map.theorem_check(M, samples=THEOREM_SAMPLES, seed=seed)
    return manifolds


def theorem_unit(manifolds, seed: int, name: str) -> Outcome:
    out = Outcome()
    n = THEOREM_SAMPLES
    out.attempted += n
    try:
        rep = gauss_map.theorem_check(manifolds[name], samples=n, seed=seed)
    except Exception as exc:  # noqa: BLE001 - counted as a failure of this builtin
        out.fail(f"crash:{name}:{type(exc).__name__}", n)
        return out
    out.completed += n
    expect = name in MINIMAL_BUILTINS
    if (rep.minimal, rep.harmonic, rep.agree, rep.separated) != (expect, expect, True, True):
        out.fail(f"wrong_verdict:{name}", n)
        out.wrong.append(
            f"{name}: minimal={rep.minimal} harmonic={rep.harmonic} agree={rep.agree} "
            f"separated={rep.separated}, expected minimal=harmonic={expect}"
        )
    return out


# -- fd_check: every finite-difference oracle against its jet route --------------


def fd_unit(state, seed: int, name: str) -> Outcome:
    out = Outcome()
    M = builtin_submanifold(name)
    for u in domain_samples(M, FD_POINTS, seed=seed):
        for q, tol in FD_TOL.items():
            out.attempted += 1
            try:
                err = verify.fd_relative_error(M, q, u)
            except Exception as exc:  # noqa: BLE001 - counted as a failure of this call
                out.fail(f"crash:{q}:{type(exc).__name__}")
                continue
            out.completed += 1
            if not err < tol:
                out.fail(f"over_tol:{q}")
                out.wrong.append(f"{q} on {name} at {u.tolist()}: error {err:.3e} >= {tol:.0e}")
    return out


WORKLOADS = {
    "registry": (warm_jet_tables, registry_unit),
    "theorem": (theorem_setup, theorem_unit),
    "fd_check": (warm_jet_tables, fd_unit),
}


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "threads_env": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_passes(state, run_unit, seed: int, seconds: float, min_passes: int) -> dict:
    """Repeat identical passes over the builtins, timing every unit against the probe."""
    total = Outcome()
    relative: dict[str, list[float]] = {name: [] for name in BUILTINS}
    unit_evals: dict[str, int] = {}
    pass_rates = []
    probe_s = []
    probe = Probe()
    begin = time.perf_counter()
    while len(pass_rates) < min_passes or time.perf_counter() - begin < seconds:
        # A manifold and its cached frames refer to each other, so dropped
        # manifolds wait for the cyclic collector; collecting here makes
        # every pass start from the same heap, and peak memory that of one pass.
        gc.collect()
        evals, pass_s = 0, 0.0
        probe_before = probe()
        probe_s.append(probe_before)
        for name in BUILTINS:
            t0 = time.perf_counter()
            out = run_unit(state, seed, name)
            dt = time.perf_counter() - t0
            probe_after = probe()
            probe_s.append(probe_after)
            relative[name].append(2.0 * dt / (probe_before + probe_after))
            probe_before = probe_after
            if unit_evals.setdefault(name, out.completed) != out.completed:
                raise SystemExit(f"{name}: a repeated unit completed {out.completed}, not {unit_evals[name]}")
            total.add(out)
            evals += out.completed
            pass_s += dt
        pass_rates.append(evals / pass_s)
    pass_relative = sum(statistics.median(r) for r in relative.values())
    return {
        "evals_per_s": sum(unit_evals.values()) / (PROBE_NOMINAL_S * pass_relative),
        "median_pass_rate": statistics.median(pass_rates),
        "pass_rates": pass_rates,
        "probe_s_quartiles": statistics.quantiles(probe_s, n=4),
        "unit_relative_times": relative,
        "measured_s": time.perf_counter() - begin,
        "attempted": total.attempted,
        "completed": total.completed,
        "failed": total.failed,
        "failure_kinds": dict(sorted(total.kinds.items())),
        "wrong": total.wrong[:20],
        "correct": not total.wrong,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--mode", required=True, choices=("setup", "timed", "traced"))
    ap.add_argument("--spans", type=Path, help="where the traced mode writes its spans (.npz)")
    args = ap.parse_args(argv)

    setup, run_unit = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    state = setup(args.seed)
    result = {"setup_s": IMPORT_S + time.perf_counter() - t0, "env": environment()}
    if args.mode != "setup":
        tracer = None
        if args.mode == "traced":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        if args.mode == "timed":
            result.update(run_passes(state, run_unit, args.seed, args.seconds, MIN_TIMED_PASSES))
        else:
            result.update(run_passes(state, run_unit, args.seed, 0.0, 1))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            result["per_layer"] = tracer.per_layer(verify.registry_ids())
            if args.spans is not None:
                args.spans.parent.mkdir(parents=True, exist_ok=True)
                tracer.save(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
