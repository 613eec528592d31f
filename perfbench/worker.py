"""One workload in one fresh single-threaded process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --t0 T
        [--setup-only] [--traced] [--smoke] --tmpdir DIR

Started by run.py with PYTHONPATH=src and one BLAS/OpenMP thread.  `--t0` is
the parent's CLOCK_MONOTONIC reading just before it started this process, so
setup_s covers interpreter start, imports, input generation and warm-up.
Prints one JSON line: the setup time, per-round query-list times, every
query latency, attempted/failed counts and the peak resident set.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--tmpdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--traced", action="store_true", help="trace exactly one round")
    ap.add_argument("--trace-out", default=None, help="where the traced run writes its spans")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    import workloads
    from checks import CheckFailed

    wl = workloads.build(args.workload, args.seed, args.tmpdir, smoke=args.smoke)
    problems: list[str] = []
    failed = wrong = 0

    def attempt(q) -> float:
        """Run one query (timed) and its check (untimed); returns its latency."""
        nonlocal failed, wrong
        t = time.perf_counter()
        try:
            out = q.run()
        except Exception as exc:  # the program failed this query: count it
            dt = time.perf_counter() - t
            failed += 1
            problems.append(f"{q.kind}: {type(exc).__name__}: {exc}")
            return dt
        dt = time.perf_counter() - t
        try:
            q.check(out)
        except CheckFailed as exc:
            wrong += 1
            problems.append(f"{q.kind}: wrong output: {exc}")
        return dt

    for q in wl.warmup:
        attempt(q)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.traced:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    failed = wrong = 0
    rounds: list[float] = []
    latencies: list[float] = []
    start = time.perf_counter()
    while not rounds or (tracer is None and not args.smoke and time.perf_counter() - start < args.seconds):
        total = 0.0
        for q in wl.queries:
            dt = attempt(q)
            latencies.append(dt)
            total += dt
        rounds.append(total)
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.metrics(n_queries=len(wl.queries))
        if args.trace_out:
            tracer.write(args.trace_out)
    result.update(
        rounds=rounds,
        latencies=latencies,
        attempted=len(latencies),
        failed=failed,
        correct=wrong == 0,
        problems=problems[:20],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
