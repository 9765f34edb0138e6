"""Layer timings, registry case timings, work counts and parity digests of
a base framelab tree against this one, timed interleaved, written to
BENCH_fd_check.json and BENCH_registry.json.

    git clone -q . ../parent && git -C ../parent checkout -q HEAD~1
    python tools/bench.py --base ../parent/src

An A/A run, `python tools/bench.py --base src`, compares the checkout with
itself: its parity_equal reads true, and its ratios show the noise of the
host.

Both framelab source trees, the one under --base and the repository's src/,
are loaded into one process under two package names. Both do the same work,
pinned here as perfbench/workload.py pins it: its BUILTINS in its order,
REGISTRY_SAMPLES, THEOREM_SAMPLES, FD_POINTS and the FD quantities of its
FD_TOL, so that a change to verify's defaults changes neither tree's work.
Every row runs on these, and so does parity.

The timing rule, one for every row. A row is a pass, (fresh, run): fresh()
makes the inputs of one pass and run(inputs) is the pass. One untimed pass
of each tree warms the process. A timing makes the inputs of its passes
before the clock starts and runs as many passes as take about TIMING_S on
the base tree, at least MIN_PASSES, so that a row resolves a change of a
few percent and a pass longer than TIMING_S / MIN_PASSES, such as a
registry pass, is not timed alone in one fast or slow spell of a shared
host; the number is scaled from a first timing on the base tree that
doubles the passes from one until they take TIMING_S / 10 or more. Each row
is timed ROUNDS times per tree, the two trees alternated and the one that
goes first swapped every round, so drift of a shared host over seconds
falls on both alike. For each row the files hold each tree's median over
the rounds, the median over rounds of the ratio change / base, and in how
many rounds the change was faster.

BENCH_fd_check.json:

- kernel_us: the time per call of Jet.__mul__ on (5,) jets and of
  jet_einsum("...ik,...kj->...ij") on (5, 3, 3) jets, in 2 variables, at
  orders 0-4;
- expr_eval_us: the time per evaluation of an expression list at one
  point, as a frame evaluates it: each builtin's immersion components at
  its first sample point (seed 0) at orders 1-4, and the diagonal entry of
  sphere_chart(1.0, 3) at order 3 at one point; a tree with expr.intern
  evaluates the list interned, with one memo per evaluation;
- frame_build_ms: one FramePointData build at the first sample point of
  each builtin, at orders 1-4, with every attribute that order serves read
  once (the attributes are built on first read);
- fd_relative_error_ms: the time per fd_relative_error call of each FD
  quantity at the FD_POINTS sample points (seed 0) of each builtin, on fresh
  submanifolds, so that every frame is built cold;
- fd_pass_ms: one pass of the benchmark's fd_check workload, every FD
  quantity at those points, builtin by builtin and point by point, on fresh
  submanifolds;
- fd_pass_counts: per tree, exact counts over one such pass, the making of
  its submanifolds included: FramePointData builds, AmbientSpace.metric_jets
  calls, the metric_at calls of the FD routes among them (of oracles, or of
  verify in a tree that has no oracles module), ImmersedSubmanifold.frame_data
  lookups, operators.as_chart_field calls, the jet_pullback calls of
  submanifold (the frame's G, Gam and R) and the metric entries ambient
  evaluates (its eval_expr calls, those made when an ambient is made
  included).

BENCH_registry.json:

- pass_ms: one pass of the benchmark's registry workload,
  run_suite(builtins=[name], samples=REGISTRY_SAMPLES, seed=SEED) for each
  builtin, on fresh submanifolds, so that every frame is built cold; it holds
  the frame builds of run_suite's plan as well;
- case_ms: per registry case, the wall time of its evaluator in such a pass
  (each evaluator is wrapped to add it to its case's total), the building of
  the per-point generators it draws from, built on first draw, included;
- theorem_pass_ms: one pass of the benchmark's theorem workload,
  theorem_check on each builtin at THEOREM_SAMPLES samples (seed SEED), on
  submanifolds whose frames a first check has built, so that no frame is
  built in the pass;
- products: per tree, the jet x jet products (Jet.__mul__ and jet_einsum of
  two jets) of one registry pass and one theorem pass at seed COUNT_SEED, by
  the order they land at, the lower of their operands' orders, and
  products_equal, whether the two trees' counts agree;
- startup_ms and startup_rss_mb: a fresh interpreter with the tree's src on
  PYTHONPATH imports framelab.verify; the wall time of that import, and the
  interpreter's peak resident set (VmHWM) after it. One untimed start
  of each tree, then ROUNDS starts each, alternated as the other rows are;
  change_faster counts the rounds in which the change was lower;
- startup_bytecode: per tree, whether the interpreter writes no bytecode
  (sys.flags.dont_write_bytecode, set by PYTHONDONTWRITEBYTECODE) and
  whether framelab/verify.py had bytecode before the import, at every timed
  start. Without bytecode each start compiles framelab from source, so part
  of the start-up time depends on the environment, not on the code.

Each count wraps a callable where its callers look it up: on its owner, and
jet_einsum in every module of the tree that binds it.

Both files hold parity, per tree, computed once: SHA-256 digests of
run_suite(builtins=BUILTINS, samples=s, seed=k).canonical_json() for s in
{5, 25} and k in {0, 1}; of the 490 fd_relative_error values (the builtins x
FD_POINTS points x FD quantities, seeds 0 and 1) as float64 bytes; and of
every theorem_check field on the builtins and on PSEUDOSPHERE at 25
samples, seeds 0 and 3, with floats written by float.hex. parity_equal says
whether the two trees' digests agree, and measured_s is the wall time of the
whole run. The last line printed holds parity_equal, products_equal and the
ratio change / base of each pass row. Only public framelab names are used.
BLAS and OpenMP pools are pinned to one thread, as in the benchmark.
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
import platform
import statistics
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
TREES = ("base", "change")
KERNEL_ORDERS = range(5)
FRAME_ORDERS = range(1, 5)
ROUNDS = 9
TIMING_S = 0.2
MIN_PASSES = 3
# The benchmark's work, as perfbench/workload.py pins it: its builtins in its
# order, its sample counts and the FD quantities of its FD_TOL.
BUILTINS = ("plane", "plane3", "circle", "sphere2", "catenoid", "great2(0.5)", "clifford")
FD_QUANTITIES = ("gamma_chart", "gamma_tilde", "nabla_vec", "nabla_prime_vec", "nabla_tilde_vec",
                 "curvature_ambient", "curvature_prime")
REGISTRY_SAMPLES = 5
THEOREM_SAMPLES = 25
FD_POINTS = 5
# The pseudosphere builtin of K = -1/2, where h2, h3 and m2 are of order 1 as
# on no benchmark builtin, by its arguments to ImmersedSubmanifold in
# euclidean(3): a tree without the builtin is digested on it too.
PSEUDOSPHERE = (2, [[0.4, 1.6], [-1.2, 1.2]],
                ["sqrt(2)*cos(u2)/cosh(u1)", "sqrt(2)*sin(u2)/cosh(u1)", "sqrt(2)*(u1-tanh(u1))"])
SEED = 0
COUNT_SEED = 301


def load_tree(src: Path, name: str) -> SimpleNamespace:
    """The framelab package under src, imported as the package `name`, with
    its oracles module where the tree has one."""
    init = src.resolve() / "framelab" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    modules = ["expr", "jets", "ambient", "submanifold", "operators", "omn_geometry", "gauss_map", "verify"]
    if (init.parent / "oracles.py").exists():
        modules.append("oracles")
    return SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}") for m in modules})


def interleaved(time_once: dict, unit: float) -> dict:
    """Time both trees ROUNDS times each, alternated; time_once[tree]() is
    the seconds of one timing, or a dict of them by row, and then the result
    is by row too. Times are scaled by unit."""
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


def nothing():
    """The inputs of a pass that needs no fresh ones."""


def passes(fresh, run, number: int) -> tuple:
    """The wall time of `number` passes, their inputs made before the clock
    starts, and what each pass returned."""
    batches = [fresh() for _ in range(number)]
    t0 = time.perf_counter()
    parts = [run(inputs) for inputs in batches]
    return time.perf_counter() - t0, parts


def timers(rows: dict, calls: int = 1) -> dict:
    """time_once for interleaved from rows[tree] = (fresh, run), by the
    timing rule of the module docstring: the seconds per pass, or per call
    where a pass makes `calls` calls. Where a pass returns its seconds by
    part, a timing gives those per pass as well, and the whole pass under
    "pass"."""
    for row in rows.values():
        passes(*row, 1)
    number = 1
    while (elapsed := passes(*rows["base"], number)[0]) < TIMING_S / 10:
        number *= 2
    number = max(MIN_PASSES, round(number * TIMING_S / elapsed))

    def timer(fresh, run):
        def once():
            elapsed, parts = passes(fresh, run, number)
            if parts[0] is None:
                return elapsed / (number * calls)
            return {"pass": elapsed / number, **{k: sum(p[k] for p in parts) / number for k in parts[0]}}

        return once

    return {tree: timer(*row) for tree, row in rows.items()}


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


def kernel_rows(ns, order: int) -> dict:
    """The Jet.__mul__ and jet_einsum rows of the tree ns at `order`."""
    jets = ns.jets
    rng = np.random.default_rng(7)
    sp = jets.get_space(2, order)
    a, b = (jets.Jet(sp, rng.standard_normal((5, sp.ncoeff))) for _ in range(2))
    A, B = (jets.Jet(sp, rng.standard_normal((5, 3, 3, sp.ncoeff))) for _ in range(2))

    def mul(_):
        a * b

    def einsum(_):
        jets.jet_einsum("...ik,...kj->...ij", A, B)

    return {"mul": (nothing, mul), "jet_einsum": (nothing, einsum)}


def kernel_timings(fl: dict) -> dict:
    out = {"mul": {}, "jet_einsum": {}}
    for order in KERNEL_ORDERS:
        rows = {tree: kernel_rows(ns, order) for tree, ns in fl.items()}
        for kernel, by_order in out.items():
            by_order[str(order)] = interleaved(timers({t: r[kernel] for t, r in rows.items()}), 1e6)
    return out


EXPR_ORDERS = range(1, 5)
# the sphere chart's diagonal entry: radius, dimension, point, order
SPHERE_ENTRY = (1.0, 3, (0.3, -0.2, 0.5), 3)


def evaluating(ns, exprs):
    """A function of (varjets, space) that evaluates the expression list as
    the tree ns evaluates a frame's or a metric's list: interned, with one
    memo per call, where the tree has expr.intern, and one at a time where
    it has not."""
    expr = ns.expr
    if not hasattr(expr, "intern"):
        return lambda uv, sp: [expr.eval_expr(e, uv, sp) for e in exprs]
    exprs = expr.intern(exprs)

    def shared(uv, sp):
        memo = {}
        return [expr.eval_expr(e, uv, sp, memo) for e in exprs]

    return shared


def expr_row(ns, exprs, point, order: int) -> tuple:
    """A pass that evaluates the expression list at the point to `order`."""
    point = np.asarray(point, dtype=float)
    sp = ns.jets.get_space(point.shape[-1], order)
    uv = sp.variables(point)
    run = evaluating(ns, exprs)

    def evaluate(_):
        run(uv, sp)

    return nothing, evaluate


def expr_lists(ns) -> dict:
    """The rows of expr_eval_us, (expressions, point, orders) by row: each
    builtin's components at its first sample point, and the sphere chart's
    diagonal entry."""
    sm = ns.submanifold
    out = {}
    for name in BUILTINS:
        M = sm.builtin_submanifold(name)
        out[name] = (M.components, ns.omn_geometry.domain_samples(M, 1, seed=0)[0], EXPR_ORDERS)
    radius, dim, x, order = SPHERE_ENTRY
    out["sphere_chart_entry"] = ([ns.ambient.sphere_chart(radius, dim).entries[0][0]], x, [order])
    return out


def expr_timings(fl: dict) -> dict:
    lists = {tree: expr_lists(ns) for tree, ns in fl.items()}
    out = {}
    for row, (_, _, orders) in lists["base"].items():
        out[row] = {str(order): interleaved(timers({tree: expr_row(ns, *lists[tree][row][:2], order)
                                                    for tree, ns in fl.items()}), 1e6)
                    for order in orders}
    return out


ATTRS = ("Gam", "R", "Einv", "omega", "g_chart", "C", "Dmat", "Smats", "Pfr",
         "Gam_chart", "gt_chart", "Gamt", "Rt_chart", "W", "Wchart", "Rfr")


def frame_build(ns, name: str, order: int) -> tuple:
    """A pass that builds the frame of builtin `name` at its first sample
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

    def build(_):
        fd = sm.FramePointData(M, u, order)
        for attr in served:
            getattr(fd, attr)

    return nothing, build


def fd_pass(ns, quantities) -> tuple:
    """A pass in the fd_check workload's order over the given FD quantities:
    fd_relative_error of each at every sample point (seed 0) of each
    builtin, on fresh submanifolds."""
    sm = ns.submanifold
    points = {name: ns.omn_geometry.domain_samples(sm.builtin_submanifold(name), FD_POINTS, seed=0)
              for name in BUILTINS}

    def run(fresh):
        for M, pts in fresh:
            for u in pts:
                for q in quantities:
                    ns.verify.fd_relative_error(M, q, u)

    return lambda: [(sm.builtin_submanifold(name), pts) for name, pts in points.items()], run


def fd_pass_counts(ns) -> dict:
    """Exact counts over one fd_check pass of the tree ns, the making of its
    submanifolds included, as the workload makes them."""
    sm = ns.submanifold
    sites = [
        ("frame_builds", sm.FramePointData, "__init__"),
        ("metric_jets_calls", ns.ambient.AmbientSpace, "metric_jets"),
        ("metric_at_calls", getattr(ns, "oracles", ns.verify), "metric_at"),
        ("frame_data_lookups", sm.ImmersedSubmanifold, "frame_data"),
        ("as_chart_field_calls", ns.operators, "as_chart_field"),
        ("jet_pullback_calls", sm, "jet_pullback"),
        ("metric_evaluations", ns.ambient, "eval_expr"),
    ]
    counts = Counter()
    fresh, run = fd_pass(ns, FD_QUANTITIES)
    with counting(sites, lambda row, *args: counts.update([row])):
        run(fresh())
    return {row: counts[row] for row, _, _ in sites}


def registry_pass(ns, seed: int = SEED) -> tuple:
    """A pass of the registry workload of the tree ns at seed, which returns
    the seconds of each case's evaluator in it by case id."""
    verify = ns.verify
    registry = verify.REGISTRY
    totals = {case.id: 0.0 for case in registry}

    def timed(case):
        def evaluator(*args):
            t0 = time.perf_counter()
            try:
                return case.evaluator(*args)
            finally:
                totals[case.id] += time.perf_counter() - t0

        return dataclasses.replace(case, evaluator=evaluator)

    wrapped = tuple(timed(case) for case in registry)

    def run(_):
        totals.update(dict.fromkeys(totals, 0.0))
        verify.REGISTRY = wrapped
        try:
            for name in BUILTINS:
                verify.run_suite(builtins=[name], samples=REGISTRY_SAMPLES, seed=seed)
        finally:
            verify.REGISTRY = registry
        return dict(totals)

    return nothing, run


def theorem_pass(ns, seed: int = SEED) -> tuple:
    """A pass of the theorem workload of the tree ns at seed: theorem_check
    on each builtin, on submanifolds whose frame caches a first check filled."""
    manifolds = [ns.submanifold.builtin_submanifold(name) for name in BUILTINS]

    def run(_):
        for M in manifolds:
            ns.gauss_map.theorem_check(M, samples=THEOREM_SAMPLES, seed=seed)

    run(None)
    return nothing, run


def product_counts(ns) -> dict:
    """The jet x jet products of one registry pass and of one theorem pass
    of the tree ns at COUNT_SEED, by the order they land at, and how many
    land at order 1 or more."""
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

    rows = {"registry": registry_pass(ns, COUNT_SEED), "theorem": theorem_pass(ns, COUNT_SEED)}
    out = {}
    with counting(sites, count):
        for row, (fresh, run) in rows.items():
            landed.clear()
            run(fresh())
            by_order = {str(k): landed.count(k) for k in range(max(landed) + 1)}
            out[row] = {"by_order": by_order, "order_1_or_more": sum(k >= 1 for k in landed)}
    return out


# The peak resident set is the interpreter's VmHWM, not its ru_maxrss: Linux
# carries the resident set of the process that forked it across exec into
# ru_maxrss, and this harness holds both trees.
# Whether the import compiles framelab from source shows in its time: the
# interpreter's dont_write_bytecode flag, and whether framelab/verify.py had
# bytecode before the import, looked up by path so as not to import first.
STARTUP = (
    "import importlib.util, json, os, pathlib, sys, time\n"
    "verify_py = pathlib.Path(os.environ['PYTHONPATH'], 'framelab', 'verify.py')\n"
    "bytecode = pathlib.Path(importlib.util.cache_from_source(str(verify_py))).exists()\n"
    "t0 = time.perf_counter()\n"
    "import framelab.verify\n"
    "ms = (time.perf_counter() - t0) * 1e3\n"
    "status = pathlib.Path('/proc/self/status').read_text().splitlines()\n"
    "kb = next(int(line.split()[1]) for line in status if line.startswith('VmHWM:'))\n"
    "print(json.dumps({'file': framelab.__file__, 'startup_ms': ms, 'startup_rss_mb': kb / 1024,\n"
    "                  'dont_write_bytecode': bool(sys.flags.dont_write_bytecode), 'bytecode_present': bytecode}))\n"
)
BYTECODE_KEYS = ("dont_write_bytecode", "bytecode_present")


def startup(src: Path):
    """One start of the tree under src: a fresh interpreter with src on
    PYTHONPATH imports framelab.verify and gives the import's wall time in
    ms and its peak resident set in MB, by row, and the BYTECODE_KEYS."""
    src = src.resolve()
    env = {**os.environ, "PYTHONPATH": str(src)}

    def once() -> dict:
        done = subprocess.run([sys.executable, "-c", STARTUP], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=True)
        out = json.loads(done.stdout)
        if not Path(out.pop("file")).is_relative_to(src):
            raise RuntimeError(f"framelab was not imported from {src}")
        return out

    return once


def startup_rows(srcs: dict) -> dict:
    """startup_ms and startup_rss_mb of the trees, after one untimed start
    of each, and startup_bytecode: per tree, each of the BYTECODE_KEYS held
    at every timed start."""
    starts = {tree: startup(src) for tree, src in srcs.items()}
    for once in starts.values():
        once()
    seen = {tree: [] for tree in starts}

    def timed(tree):
        def once() -> dict:
            out = starts[tree]()
            seen[tree].append({key: out.pop(key) for key in BYTECODE_KEYS})
            return out

        return once

    rows = interleaved({tree: timed(tree) for tree in starts}, 1.0)
    rows["startup_bytecode"] = {tree: {key: all(s[key] for s in flags) for key in BYTECODE_KEYS}
                                for tree, flags in seen.items()}
    return rows


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def parity(ns) -> dict:
    sm, og, verify = ns.submanifold, ns.omn_geometry, ns.verify
    out = {}
    for samples in (5, 25):
        for seed in (0, 1):
            report = verify.run_suite(builtins=BUILTINS, samples=samples, seed=seed)
            out[f"canonical_json_s{samples}_k{seed}"] = _sha(report.canonical_json().encode())
    errors = []
    for seed in (0, 1):
        for name in BUILTINS:
            M = sm.builtin_submanifold(name)
            for u in og.domain_samples(M, FD_POINTS, seed=seed):
                errors.extend(float(verify.fd_relative_error(M, q, u)) for q in FD_QUANTITIES)
    out["fd_errors"] = _sha(np.array(errors, dtype=np.float64).tobytes())
    out["fd_errors_count"] = len(errors)
    out["fd_errors_max"] = max(errors)
    inputs = {name: sm.builtin_submanifold for name in BUILTINS}
    inputs["pseudosphere"] = lambda _: sm.ImmersedSubmanifold(*PSEUDOSPHERE, ns.ambient.euclidean(3))
    fields = []
    for seed in (0, 3):
        for name, make in inputs.items():
            rep = ns.gauss_map.theorem_check(make(name), samples=25, seed=seed)
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

    def each(row, *args) -> dict:
        return {tree: row(ns, *args) for tree, ns in fl.items()}

    t0 = time.perf_counter()
    head = {"command": "python tools/bench.py --base DIR",
            "source": {tree: source_commit(src) for tree, src in srcs.items()}}
    calls = len(BUILTINS) * FD_POINTS
    fd_doc = {
        **head,
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "rounds": ROUNDS,
        "timing_s": TIMING_S,
        "kernel_us": kernel_timings(fl),
        "expr_eval_us": expr_timings(fl),
        "frame_build_ms": {name: {str(order): interleaved(timers(each(frame_build, name, order)), 1e3)
                                  for order in FRAME_ORDERS} for name in BUILTINS},
        "fd_relative_error_ms": {q: interleaved(timers(each(fd_pass, [q]), calls), 1e3) for q in FD_QUANTITIES},
        "fd_pass_ms": interleaved(timers(each(fd_pass, FD_QUANTITIES)), 1e3),
        "fd_pass_counts": each(fd_pass_counts),
    }
    cases = interleaved(timers(each(registry_pass)), 1e3)
    registry_doc = {
        **head,
        "rounds": ROUNDS,
        "samples": REGISTRY_SAMPLES,
        "seed": SEED,
        "timing_s": TIMING_S,
        "theorem_samples": THEOREM_SAMPLES,
        "count_seed": COUNT_SEED,
        "pass_ms": cases.pop("pass"),
        "theorem_pass_ms": interleaved(timers(each(theorem_pass)), 1e3),
        "case_ms": cases,
        "products": (products := each(product_counts)),
        "products_equal": products["base"] == products["change"],
        **startup_rows(srcs),
    }
    digests = each(parity)
    measured_s = time.perf_counter() - t0
    for name, doc in (("BENCH_fd_check.json", fd_doc), ("BENCH_registry.json", registry_doc)):
        doc.update(parity=digests, parity_equal=digests["base"] == digests["change"], measured_s=measured_s)
        (ROOT / name).write_text(json.dumps(doc, indent=2) + "\n")
    ratios = {"fd_pass": fd_doc["fd_pass_ms"], "registry_pass": registry_doc["pass_ms"],
              "theorem_pass": registry_doc["theorem_pass_ms"], "startup": registry_doc["startup_ms"]}
    print(json.dumps({"parity_equal": fd_doc["parity_equal"], "products_equal": registry_doc["products_equal"],
                      **{k: round(r["ratio"], 3) for k, r in ratios.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
