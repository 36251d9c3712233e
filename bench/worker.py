"""One benchmark pass, in a fresh Python process.

Started by run.py, never imported by it.  It imports divlab from the
checkout's `src/`, generates the workload's inputs from the seed, runs the
job list once (closed loop, one job at a time, single-threaded), checks
every output and prints one JSON line for the parent.  pass_s is the sum of
the jobs' wall times; the output checks between jobs are not timed.

    {"ready": <time.monotonic() when set-up ended>, "pass_s": ..., "pass_ref_s": ...,
     "gauge_s": ..., "samples": ..., "rss_mb": ...,
     "jobs": [{"id", "wall_s", "ref_s", "problems"}], "layers": {...}, "trace_problems": [...]}

pass_ref_s and ref_s are rescaled to a reference machine speed (gauge.py);
gauge_s is the speed kernel's time right after set-up.  With --setup-only
it stops there and prints only "ready" and "gauge_s".
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans-out", type=Path)
    args = p.parse_args(argv)

    sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]
    import divlab

    if Path(divlab.__file__).resolve().parent != SRC_DIR / "divlab":
        raise SystemExit(f"imported divlab from {divlab.__file__}, not from {SRC_DIR}")
    import gauge
    import tracer as tracing
    import workloads

    work_dir = BENCH_DIR / ".work" / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        jobs = workloads.build(args.workload, args.seed, work_dir, smoke=args.smoke)
        ready = time.monotonic()
        speed = gauge.settle()
        if args.setup_only:
            print(json.dumps({"ready": ready, "gauge_s": speed}))
            return 0

        tracer = tracing.Tracer() if args.trace else None
        if tracer:
            tracer.install([workloads])
        results = []
        with gauge.Gauge() as meter:
            for job in jobs:
                if tracer:
                    tracer.begin_job(job.id)
                start = time.perf_counter()
                try:
                    out, problems = job.run(), []
                except Exception as exc:  # a job that raises is a failed job, not a crash
                    out, problems = None, [f"raised {exc!r}"]
                end = time.perf_counter()
                if tracer:
                    tracer.end_job()
                if not problems:
                    try:
                        problems = job.check(out)
                    except Exception as exc:
                        problems = [f"check raised {exc!r}"]
                results.append({"id": job.id, "wall_s": end - start, "span": (start, end),
                                "problems": problems})
        for r in results:
            r["ref_s"] = meter.rescale(*r.pop("span"))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    report = {
        "ready": ready,
        "pass_s": sum(r["wall_s"] for r in results),
        "pass_ref_s": sum(r["ref_s"] for r in results),
        "gauge_s": speed,
        "samples": len(meter.samples),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": results,
    }
    if tracer:
        left = tracer.uninstall([workloads])
        layers, problems = tracer.summary()
        report["layers"] = layers
        report["trace_problems"] = problems + [f"{name} not restored" for name in left]
        if args.spans_out:
            args.spans_out.parent.mkdir(parents=True, exist_ok=True)
            args.spans_out.write_text(json.dumps(tracer.dump()))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
