"""The benchmark scripts under tools/ start: each parses its arguments and
prints its help. tools/bench_registry.py imports its loader, timer and
parity digests from tools/bench_fd.py, so an edit to one can break both.
The FD pass counts of tools/bench_fd.py see a call at every site they wrap."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["bench_fd.py", "bench_registry.py"])
def test_bench_script_prints_its_help(script):
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / script), "--help"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "--base" in done.stdout


def test_fd_pass_counts_see_a_call_at_every_site():
    """Each count of tools/bench_fd.py's fd_pass_counts wraps a name where
    the FD check's callers look it up; a site that no call reaches reads 0
    and would hide the work it is meant to count."""
    spec = importlib.util.spec_from_file_location("bench_fd", ROOT / "tools" / "bench_fd.py")
    bench_fd = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_fd)
    counts = bench_fd.fd_pass_counts(bench_fd.load_tree(ROOT / "src", "framelab_counted"))
    assert counts and all(n > 0 for n in counts.values()), counts
