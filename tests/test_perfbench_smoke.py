"""The benchmark's smoke run and checker self-test pass on this checkout.

Both run `perfbench/run.py` in a subprocess from the repository root, as the
benchmark itself is run: `--smoke` puts a handful of queries of every
workload through their answer checkers (about 2 s), and `--selftest` makes
each checker reject a corrupted output.  A program change that breaks a
checker fails here first.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("flag,good", [("--smoke", "ok "), ("--selftest", "ok   ")])
def test_perfbench_run(flag, good):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", flag],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = done.stdout.splitlines()
    assert done.returncode == 0, done.stdout + done.stderr
    assert lines and all(line.startswith(good) for line in lines), done.stdout
