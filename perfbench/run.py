#!/usr/bin/env python3
"""The fpvanish benchmark: four query workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke      # every workload on a few queries
    python3 perfbench/run.py --selftest   # the checkers reject corrupted outputs

Workloads: covers, arith_search, additive_basis, twist_oracles (see README.md).
The program is run from this checkout's `src/` (nothing is installed); each
workload process is fresh and single-threaded (OMP_NUM_THREADS,
OPENBLAS_NUM_THREADS and MKL_NUM_THREADS are 1).

--trace 0: SETUP_SAMPLES - 1 set-up-only processes, then one process that
runs the workload's fixed query list in whole rounds until S seconds have
passed.  Prints wall_s (median round), query_p50_ms, query_p90_ms (over every
query of every round), setup_s (median of the set-ups) and peak_rss_mb.
--trace 1: an untraced process for S/2 seconds, then a traced process that
runs exactly one round; prints the per-layer metrics named in BENCHMARK.json
and trace.overhead_s (traced round minus the untraced median round).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Raw figures, the environment and the spans go
under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("covers", "arith_search", "additive_basis", "twist_oracles")
SETUP_SAMPLES = 5
DEADLINE = time.monotonic() + 170  # the whole run ends within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run or a workload process did not finish."""


def _env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _worker(workload: str, seed: int, seconds: float, tmpdir: Path, *flags: str) -> dict:
    """Run one worker process to its end and return its JSON result line."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--tmpdir", str(tmpdir)]
    args += list(flags)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args, "--t0", repr(t0)],
            env=_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(DEADLINE - t0, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} did not finish before the run's deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {' '.join(args)} printed nothing")
    return json.loads(lines[-1])


def _environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        **{var: "1" for var in THREAD_VARS},
    }


def _per_layer_spec() -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)["per_layer"]


def _measure(workload: str, seed: int, seconds: float, tmpdir: Path) -> tuple[dict, dict]:
    setups = [
        _worker(workload, seed, seconds, tmpdir, "--setup-only")["setup_s"]
        for _ in range(SETUP_SAMPLES - 1)
    ]
    main = _worker(workload, seed, seconds, tmpdir)
    setups.append(main["setup_s"])
    lat = main["latencies"]
    metrics = {
        "wall_s": (statistics.median(main["rounds"]), "s"),
        "query_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "query_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }
    raw = {"setups": setups, "rounds": main["rounds"], "problems": main["problems"]}
    return _result(main["correct"], main["attempted"], main["failed"], metrics), raw


def _traced(workload: str, seed: int, seconds: float, tmpdir: Path) -> tuple[dict, dict]:
    spec = _per_layer_spec()
    plain = _worker(workload, seed, seconds / 2, tmpdir)
    trace_path = OUT / f"trace-{workload}-seed{seed}.npz"
    traced = _worker(workload, seed, seconds, tmpdir, "--traced", "--trace-out", str(trace_path))
    values = dict(traced["trace"])
    values["trace.overhead_s"] = traced["rounds"][0] - statistics.median(plain["rounds"])
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise BenchError(f"the trace does not give {missing}")
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in spec}
    raw = {
        "untraced_rounds": plain["rounds"],
        "traced_round": traced["rounds"][0],
        "spans": values["trace.spans"],
        "problems": plain["problems"] + traced["problems"],
    }
    return (
        _result(
            plain["correct"] and traced["correct"],
            plain["attempted"] + traced["attempted"],
            plain["failed"] + traced["failed"],
            metrics,
        ),
        raw,
    )


def _result(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _smoke(tmpdir: Path) -> int:
    bad = 0
    for workload in WORKLOADS:
        t = time.monotonic()
        res = _worker(workload, 1, 0, tmpdir, "--smoke")
        ok = res["correct"] and res["failed"] == 0
        bad += not ok
        print(
            f"{'ok ' if ok else 'BAD'} {workload}: {res['attempted']} queries, "
            f"{res['failed']} failed, {time.monotonic() - t:.1f} s {res['problems']}"
        )
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="every workload on a few queries")
    ap.add_argument("--selftest", action="store_true", help="checkers must reject corrupted outputs")
    args = ap.parse_args()

    if not (ROOT / "src" / "fpvanish" / "__init__.py").is_file():
        print(f"error: no fpvanish sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    if args.selftest:
        return subprocess.run([sys.executable, str(HERE / "selftest.py")], env=_env(), cwd=ROOT).returncode
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")

    OUT.mkdir(exist_ok=True)
    tmpdir = OUT / f"tmp-{os.getpid()}"
    tmpdir.mkdir()
    try:
        if args.smoke:
            return _smoke(tmpdir)
        run = _traced if args.trace else _measure
        result, raw = run(args.workload, args.seed, args.seconds, tmpdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    record.update(result=result, raw=raw, environment=_environment())
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
