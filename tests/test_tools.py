"""tools/bench.py, the parity gate that compares a base tree with this one:
it starts and prints its help, runs the benchmark's pinned work, its counts
see a call at every site they wrap and are taken off again, it loads the
tree it names and no other, names the commit of a tree, compare finds the
values that moved and bounds them, and main writes the documented keys to
both BENCH files, prints the four gates alone and reports a tree that
differs."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

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
    """The harness counts and compares the work the benchmark runs: the same
    builtins in the same order, sample counts and FD quantities."""
    workload = load_by_path("perfbench_workload", ROOT / "perfbench" / "workload.py")
    assert bench.BUILTINS == workload.BUILTINS
    assert bench.FD_QUANTITIES == tuple(workload.FD_TOL)
    for name in ("REGISTRY_SAMPLES", "THEOREM_SAMPLES", "FD_POINTS"):
        assert getattr(bench, name) == getattr(workload, name), name


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


def test_load_tree_imports_the_tree_it_names(bench, tmp_path):
    """A tree loads under the package name it is given, every module the
    passes use from its own src, oracles among them; a tree with no
    framelab fails rather than loading a different one."""
    src = (ROOT / "src").resolve()
    ns = bench.load_tree(ROOT / "src", "framelab_named")
    for name, module in vars(ns).items():
        assert module.__name__ == f"framelab_named.{name}"
        assert Path(module.__file__).resolve().is_relative_to(src), module.__file__
    assert ns.oracles.metric_at is not None
    with pytest.raises(FileNotFoundError):
        bench.load_tree(tmp_path, "framelab_missing")


def test_counting_takes_its_wrappers_off_again(bench):
    """Within the block each wrapped site calls count with its row and the
    call's arguments before the callable; after it, even when the block
    raises, every site holds its own callable again."""
    class Owner:
        @staticmethod
        def double(x):
            return 2 * x

    original = Owner.double
    seen = []
    with pytest.raises(RuntimeError):
        with bench.counting([("doubles", Owner, "double")], lambda row, *args: seen.append((row, args))):
            assert Owner.double(3) == 6
            raise RuntimeError
    assert seen == [("doubles", (3,))]
    assert Owner.double is original


def test_source_commit_names_the_tree(bench, tmp_path):
    """The commit of the repository's src is its HEAD, marked dirty or not;
    a directory outside any repository reads unknown."""
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True, check=True).stdout.strip()
    assert bench.source_commit(ROOT / "src") in (head, head + "+dirty")
    assert bench.source_commit(tmp_path) == "unknown"


def test_compare_finds_equal_maps_equal(bench):
    """Two maps of the same values, a NaN among them, are equal and within
    the bound; compared counts each tree's values."""
    values = {"run/case/plane/0/residual": 1e-16, "run/case/plane/0/passed": True, "x": float("nan"), "e": None}
    got = bench.compare(values, dict(values))
    assert got == {"parity": {"compared": {"base": 4, "change": 4}, "moved_count": 0, "moved": [], "tally": {}},
                   "parity_equal": True, "parity_within": True}


@pytest.mark.parametrize("step, within", [(1e-15, True), (1e-13, False)])
def test_compare_bounds_a_float_move(bench, step, within):
    """A float that moves by 1e-15 keeps within WITHIN * (1 + |base|); one
    that moves by 1e-13 does not. Either is a move, and parity_equal is
    false."""
    base = {"run/case/plane/0/residual": 0.5, "run/case/plane/1/residual": 0.25}
    change = {**base, "run/case/plane/1/residual": 0.25 + step}
    got = bench.compare(base, change)
    assert got["parity_equal"] is False
    assert got["parity_within"] is within
    [move] = got["parity"]["moved"]
    assert move["key"] == "run/case/plane/1/residual"
    assert (move["base"], move["change"]) == (0.25, 0.25 + step)
    assert move["abs_delta"] == pytest.approx(step, rel=1e-2)
    assert got["parity"]["tally"] == {"run/case/plane/*/residual": {"moved": 1, "max_abs_delta": move["abs_delta"]}}


def test_compare_lists_a_flipped_verdict_and_a_missing_row_first(bench):
    """A passed that flips and a row one tree lacks are outside the bound,
    however small the float moves beside them, and come before the largest
    of those; the missing side's value is left out of its move."""
    base = {"run/case/plane/0/passed": True, "run/case/plane/0/residual": 1.0,
            "run/case/plane/1/residual": 2.0}
    change = {"run/case/plane/0/passed": False, "run/case/plane/0/residual": 1.0 + 2e-15}
    got = bench.compare(base, change)
    assert (got["parity_equal"], got["parity_within"]) == (False, False)
    assert got["parity"]["moved"] == [
        {"key": "run/case/plane/0/passed", "base": True, "change": False, "abs_delta": None},
        {"key": "run/case/plane/1/residual", "base": 2.0, "abs_delta": None},
        {"key": "run/case/plane/0/residual", "base": 1.0, "change": 1.0 + 2e-15, "abs_delta": pytest.approx(2e-15)},
    ]
    assert got["parity"]["moved_count"] == 3
    assert got["parity"]["compared"] == {"base": 3, "change": 2}


def test_main_reports_a_tree_that_differs(bench, tmp_path, monkeypatch, capsys):
    """Where the base tree's counts, products and values differ from the
    change's, both files and the last printed line say so: every gate
    reads false, and each file lists the moves of its own values."""
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    monkeypatch.setattr(bench, "load_tree", lambda src, name: name)
    for row in ("fd_pass_counts", "product_counts"):
        monkeypatch.setattr(bench, row, lambda ns: {"tree": ns})
    monkeypatch.setattr(bench, "parity", lambda ns: {f"{bench.FD_KEY}_k0/e": ns, "theorem_check_k0/f": ns})
    assert bench.main(["--base", str(tmp_path / "base")]) == 0
    fd_doc = json.loads((tmp_path / "BENCH_fd_check.json").read_text())
    registry_doc = json.loads((tmp_path / "BENCH_registry.json").read_text())
    assert fd_doc["counts_equal"] is fd_doc["parity_equal"] is fd_doc["parity_within"] is False
    assert registry_doc["products_equal"] is registry_doc["parity_equal"] is registry_doc["parity_within"] is False
    for doc, key in ((fd_doc, f"{bench.FD_KEY}_k0/e"), (registry_doc, "theorem_check_k0/f")):
        assert doc["parity"]["moved"] == [{"key": key, "base": "framelab_base", "change": "framelab_change",
                                           "abs_delta": None}]
    last = capsys.readouterr().out.splitlines()[-1]
    assert json.loads(last) == {"parity_equal": False, "parity_within": False, "products_equal": False,
                                "counts_equal": False}


def test_main_writes_the_documented_keys_and_prints_the_gates(bench, tmp_path, monkeypatch, capsys):
    """main writes both BENCH files with exactly the keys its docstring
    names, no timed row among them, and its last printed line holds the
    four gates and nothing else. The passes are stubbed, so only main's
    own assembly runs."""
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    monkeypatch.setattr(bench, "load_tree", lambda src, name: name)
    for row in ("fd_pass_counts", "product_counts", "parity"):
        monkeypatch.setattr(bench, row, lambda ns: {"stub": 1})
    assert bench.main(["--base", str(tmp_path / "base")]) == 0
    common = {"command", "source", "parity", "parity_equal", "parity_within", "measured_s"}
    fd_doc = json.loads((tmp_path / "BENCH_fd_check.json").read_text())
    assert set(fd_doc) == common | {"fd_pass_counts", "counts_equal"}
    registry_doc = json.loads((tmp_path / "BENCH_registry.json").read_text())
    assert set(registry_doc) == common | {"samples", "theorem_samples", "count_seed", "products", "products_equal"}
    for doc in (fd_doc, registry_doc):
        assert set(doc["parity"]) == {"compared", "moved_count", "moved", "tally"}
    assert fd_doc["parity"]["compared"] == {"base": 0, "change": 0}
    assert registry_doc["parity"]["compared"] == {"base": 1, "change": 1}
    last = capsys.readouterr().out.splitlines()[-1]
    assert json.loads(last) == {"parity_equal": True, "parity_within": True, "products_equal": True,
                                "counts_equal": True}
