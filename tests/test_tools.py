"""tools/bench.py, the parity gate that compares a base tree with this one:
it starts and prints its help, runs the benchmark's pinned work, its counts
see a call at every site they wrap, its start-up row alternates the two
trees, imports the tree it names and says whether it was compiled from
source, and its parity digests the pseudosphere builtin on a tree that
predates it."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from framelab.ambient import euclidean
from framelab.gauss_map import theorem_check
from framelab.submanifold import ImmersedSubmanifold, builtin_submanifold

ROOT = Path(__file__).resolve().parent.parent


def load_by_path(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    return load_by_path("bench", ROOT / "tools" / "bench.py")


# tools/bench.py took over the work of the two former scripts, each named
# here with the file it wrote: the one script prints its help, which names
# that file, and the former script does not come back beside it.
@pytest.mark.parametrize("script, writes", [
    pytest.param("bench_fd.py", "BENCH_fd_check.json", id="bench_fd.py"),
    pytest.param("bench_registry.py", "BENCH_registry.json", id="bench_registry.py"),
])
def test_bench_script_prints_its_help(script, writes):
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench.py"), "--help"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "--base" in done.stdout
    assert writes in done.stdout
    assert not (ROOT / "tools" / script).exists()


def test_harness_runs_the_benchmark_work(bench):
    """The harness counts and digests the work the benchmark runs: the same
    builtins in the same order, sample counts and FD quantities."""
    workload = load_by_path("perfbench_workload", ROOT / "perfbench" / "workload.py")
    assert bench.BUILTINS == workload.BUILTINS
    assert bench.FD_QUANTITIES == tuple(workload.FD_TOL)
    for name in ("REGISTRY_SAMPLES", "THEOREM_SAMPLES", "FD_POINTS"):
        assert getattr(bench, name) == getattr(workload, name), name


def test_interleaved_swaps_the_first_tree_and_compares_round_by_round(bench, monkeypatch):
    """The start-up row alternates the trees: the tree that goes first swaps
    every round; the ratio is the median of the per-round ratios, not the
    ratio of the medians; a tie is no win."""
    base = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]
    change = [2.0, 1.0, 3.0, 8.0, 1.0, 12.0, 7.0, 4.0, 9.0]
    monkeypatch.setattr(bench, "ROUNDS", len(base))
    order = []

    def timer(tree, times, row=None):
        values = iter(times)

        def once():
            order.append(tree)
            return next(values) if row is None else {row: next(values)}

        return once

    got = bench.interleaved({"base": timer("base", base), "change": timer("change", change)}, 1e3)
    assert order == ["base", "change", "change", "base"] * 4 + ["base", "change"]
    assert got == {"base": 5e3, "change": 4e3, "ratio": 1.0, "change_faster": 3}

    got = bench.interleaved({"base": timer("base", base, "pass"), "change": timer("change", change, "pass")}, 1.0)
    assert got == {"pass": bench.compared(base, change, 1.0)}


def test_counts_see_a_call_at_every_site(bench):
    """Each count wraps a callable where the work's callers look it up; a
    site that no call reaches reads 0 and would hide the work it is meant to
    count. Both the registry and the theorem pass make products at order 1
    or more, the ones the kernel's order rules save."""
    ns = bench.load_tree(ROOT / "src", "framelab_counted")
    counts = bench.fd_pass_counts(ns)
    assert counts and all(n > 0 for n in counts.values()), counts
    products = bench.product_counts(ns)
    assert all(products[row]["order_1_or_more"] > 0 for row in ("registry", "theorem")), products


def test_startup_imports_the_tree_it_names(bench, tmp_path):
    """A start imports framelab from the tree it is given and no other, and
    gives the import's wall time and the interpreter's own peak memory, not
    that of the process that started it (here 128 MB of ballast, which
    ru_maxrss would report); a tree with no framelab fails rather than
    timing a different one."""
    ballast = b"\1" * (128 << 20)
    got = bench.startup(ROOT / "src")()
    assert set(got) == {"startup_ms", "startup_rss_mb", *bench.BYTECODE_KEYS}
    assert got["startup_ms"] > 0 and 0 < got["startup_rss_mb"] < len(ballast) / 2**20
    del ballast
    with pytest.raises(subprocess.CalledProcessError):
        bench.startup(tmp_path)()


@pytest.mark.parametrize("dont_write", [False, True])
def test_startup_says_whether_framelab_was_compiled_from_source(bench, tmp_path, monkeypatch, dont_write):
    """A start records the interpreter's dont_write_bytecode flag and whether
    framelab/verify.py had bytecode before the import: a tree with none has
    none at its first start, and has it at the next only where the
    interpreter writes bytecode."""
    shutil.copytree(ROOT / "src" / "framelab", tmp_path / "framelab", ignore=shutil.ignore_patterns("__pycache__"))
    if dont_write:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    else:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    once = bench.startup(tmp_path)
    first, second = once(), once()
    assert first["dont_write_bytecode"] is second["dont_write_bytecode"] is dont_write
    assert first["bytecode_present"] is False
    assert second["bytecode_present"] is not dont_write


def test_parity_pseudosphere_is_the_builtin(bench):
    """The pseudosphere parity digests, built from its arguments, is the
    builtin of that name: their theorem reports agree field by field."""
    built = ImmersedSubmanifold(*bench.PSEUDOSPHERE, euclidean(3))
    assert theorem_check(built, samples=5) == theorem_check(builtin_submanifold("pseudosphere"), samples=5)

