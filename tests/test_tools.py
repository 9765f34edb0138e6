"""The benchmark scripts under tools/ start: each parses its arguments and
prints its help. tools/bench_registry.py imports its loader, timer and
parity digests from tools/bench_fd.py, so an edit to one can break both."""

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
