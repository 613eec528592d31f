"""The benchmark's smoke run and checker self-test pass on this checkout.

Both run `perfbench/run.py` in a subprocess from the repository root, as the
benchmark itself is run: `--smoke` puts a handful of queries of every
workload through their answer checkers (about 2 s), and `--selftest` makes
each checker reject a corrupted output.  A program change that breaks a
checker fails here first.  The per-layer metric names in BENCHMARK.json are
checked against the package's public functions without running a trace.
"""

from __future__ import annotations

import importlib
import inspect
import json
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


def _traced_functions() -> list[str]:
    """`<module>.<function>` for every per-layer metric that names one.

    Names of two parts (`trace.overhead_s`, `decomposition.descent_steps`)
    are counters of the whole run; every longer name ends in a figure of the
    function before it (`.calls`, `.self_s`, `.cells`, ...).
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    names = (m["name"].split(".") for m in spec)
    return sorted({".".join(parts[:-1]) for parts in names if len(parts) > 2})


@pytest.mark.parametrize("qualname", _traced_functions())
def test_per_layer_metric_names_a_public_function(qualname):
    """`--trace 1` fails the run when a metric's function is gone, and Tier-1
    never traces: a kernel renamed or merged away must fail here instead."""
    module, *path = qualname.split(".")
    mod = importlib.import_module(f"fpvanish.{'_kernels' if module == 'kernels' else module}")
    obj = mod
    for attr in path:
        assert not attr.startswith("_"), f"{qualname} is private, so it is not traced"
        obj = getattr(obj, attr, None)
        assert obj is not None, f"{mod.__name__} has no {'.'.join(path)}"
    # a class stands for its constructor (`decomposition.DecompositionPlan`)
    assert inspect.isfunction(obj) or inspect.isclass(obj), f"{qualname} is not a function"
    assert obj.__module__ == mod.__name__, f"{qualname} is not defined in {mod.__name__}"
