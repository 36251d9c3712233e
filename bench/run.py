"""divlab benchmark.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1 [--smoke]

Runs the workload's fixed job list in passes, each pass in a fresh Python
process (CLI users pay cold-start costs on every call, so no in-memory cache
may carry over between passes).  The loop is closed, with one client: the
next job starts only when the previous one has returned, and the next pass
only when the previous pass has exited.  Everything runs single-threaded,
with `--workers 1`.

Passes continue until another one would overrun `--seconds` (at least
three run).  setup_s and pass_s are wall times rescaled to a reference
machine speed measured in the same process (gauge.py), because this kind of
shared machine drifts by up to 2x; the raw wall times are reported next to
them.  With `--trace 0` the run reports the end-to-end metrics; with
`--trace 1` it alternates untraced and traced passes and reports the
per-layer metrics, the tracing overhead, and checks that the work counts
repeat exactly between traced passes of the same seed.  Every job's output
is checked; any failure makes the run exit 1.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  The full
run record is also written to bench/results/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing
import gauge

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
RESULTS_DIR = BENCH_DIR / "results"

WORKLOADS = ("heuristic-large", "exact-small", "verify-large")
MIN_PASSES = 3
SETUP_PROBES = 6  # set-up-only processes per untraced run, on top of the passes
HARD_LIMIT_S = 170  # every run ends well inside the 180 s a run may take

WHY = {
    "heuristic-large": (
        "local search edits one family move by move at n=252 and n=130, so the "
        "write-heavy degree bookkeeping does the work; exact search, stability "
        "and cross do none"
    ),
    "exact-small": (
        "branch-and-bound nodes, bitset universes and canonical forms on "
        "universes of at most 56 sets do the work; no family exceeds 35 members"
    ),
    "verify-large": (
        "read-only queries on fixed large families (co-degree tables, the "
        "2.6M-triple scan, file I/O, sweeps), the read-heavy counterpart of "
        "heuristic-large; search does none"
    ),
}

# Which end-to-end metric each layer metric should move, and on which
# workload; every workload not named should see no change.
PREDICTIONS = (
    (("search.max_c_diversity_heuristic.self_s", "search.heuristic.moves",
      "search.heuristic.moves_per_s"),
     ("pass_s",), ("heuristic-large",)),
    (tuple(f"constructions.{f}.self_s" for f in (
        "full_star", "family_fi", "family_triangle", "fano_families",
        "family_uvw", "example_t")),
     ("pass_s", "peak_rss_mb"), ("heuristic-large", "verify-large")),
    (("search.max_size_with_degree_cap.calls", "search.max_size_with_degree_cap.self_s",
      "search.exact.nodes", "search.exact.nodes_per_s", "search.exact.truncated_caps"),
     ("pass_s",), ("exact-small",)),
    (("cross.verify_lemma_fk.self_s", "cross.verify_hilton.self_s", "cross.pairs",
      "cross.shifts", "canonical.canonical_form.calls", "canonical.canonical_form.self_s"),
     ("pass_s",), ("exact-small",)),
    (("stability.find_stability_triple.self_s", "stability.triples_scanned",
      "stability.triples_per_s", "stability.triangle_decomposition.self_s",
      "stability.verify_lemma_key2.self_s", "family.Family.trace.calls",
      "family.Family.trace.self_s"),
     ("pass_s",), ("verify-large",)),
    (("family.Family.calls", "family.Family.self_s", "family.Family.is_intersecting.self_s"),
     ("pass_s", "peak_rss_mb"), ("verify-large", "heuristic-large")),
    (("formulas.check_theorem.calls", "formulas.check_theorem.self_s",
      "formulas.prop_binom_ratio.calls", "formulas.prop_binom_ratio.self_s",
      "sweeps.run_sweep.self_s", "sweeps.rows", "io.read_family.self_s",
      "io.write_family.self_s"),
     ("pass_s",), ("verify-large",)),
    (("cli.main.self_s",),  # small everywhere; a report-type refactor should leave it flat
     (), WORKLOADS),
)

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
OVERHEAD = "trace.overhead"
# Counts that must repeat exactly between two traced passes of one seed.
REPEATED_COUNTS = ("search.exact.nodes", "search.heuristic.moves", "stability.triples_scanned",
                   "cross.pairs", "cross.shifts", "sweeps.rows")


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in tracing.per_layer_names():
        if name.endswith((".self_s", ".total_s")):
            units[name] = "s"
        elif name in tracing.RATES:
            units[name] = "1/s"
        else:
            units[name] = "count"
    units[OVERHEAD] = "ratio"
    return units


# -- passes ----------------------------------------------------------------------


def spawn(args, *, traced=False, setup_only=False, spans_out=None, timeout=HARD_LIMIT_S) -> dict:
    """Run one worker process; its report, with setup_s and the process wall time.

    A worker that fails or times out yields {"error": ...}; a timed-out
    worker is killed and reaped before this returns.
    """
    cmd = [sys.executable, "-I", str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed)]
    cmd += ["--smoke"] * args.smoke + ["--trace"] * traced + ["--setup-only"] * setup_only
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        return {"error": f"pass timed out after {timeout:.0f} s",
                "wall": time.monotonic() - started}
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode != 0 or not lines:
            raise ValueError("no report")
        report = json.loads(lines[-1])
    except ValueError:  # json.JSONDecodeError is a ValueError
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"error": f"worker exit {proc.returncode}: {' | '.join(tail)}", "wall": wall}
    report["setup_s"] = report["ready"] - started
    report["wall"] = wall
    return report


def _traced_slot(index: int) -> bool:
    """Traced runs go untraced, traced, traced, then alternate, so the two
    traced passes the count check needs come first and the overhead pairs
    stay close in time."""
    return index in (1, 2) or (index > 2 and index % 2 == 0)


def run_passes(args) -> tuple[list[dict], list[dict]]:
    """Set-up probes and passes until the next pass would overrun --seconds."""
    start = time.monotonic()
    probes = [] if args.trace else [spawn(args, setup_only=True) for _ in range(SETUP_PROBES)]
    passes: list[dict] = []
    walls: dict[bool, list[float]] = {False: [], True: []}
    while True:
        traced = bool(args.trace) and _traced_slot(len(passes))
        elapsed = time.monotonic() - start
        if len(passes) >= MIN_PASSES:
            if elapsed + statistics.median(walls[traced] or walls[not traced]) > args.seconds:
                break
        remaining = HARD_LIMIT_S - elapsed
        if remaining < 5:
            break
        spans = (RESULTS_DIR / f"spans-{args.workload}-seed{args.seed}-pass{len(passes)}.json"
                 if traced else None)
        report = spawn(args, traced=traced, spans_out=spans, timeout=remaining)
        report["traced"] = traced
        passes.append(report)
        walls[traced].append(report["wall"])
        if "error" in report:
            break
    return probes, passes


# -- aggregation -----------------------------------------------------------------


def tail_percentile(values: list[float]) -> dict:
    """The highest of p50..p99 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return {"percentile": p, "value": statistics.quantiles(values, n=100)[p - 1],
                    "samples": n}
    return {"percentile": None, "value": None, "samples": n,
            "note": "fewer than 20 passes: no percentile has ten passes beyond it"}


def summarize(args, probes: list[dict], passes: list[dict]) -> dict:
    """Metrics, failure counts and problems of one run."""
    problems = [p["error"] for p in probes + passes if "error" in p]
    good = [p for p in passes if "error" not in p]
    attempted = sum(len(p["jobs"]) for p in good) + (len(passes) - len(good))
    failed = len(passes) - len(good)
    job_walls: dict[str, list[float]] = {}
    for p in good:
        for job in p["jobs"]:
            job_walls.setdefault(job["id"], []).append(job["wall_s"])
            if job["problems"]:
                failed += 1
                problems.append(f"{job['id']}: {'; '.join(job['problems'])}")
    summary = {
        "attempted": max(attempted, 1),
        "failed": failed,
        "problems": problems,
        "job_wall_s": {job: statistics.median(v) for job, v in job_walls.items()},
    }
    plain = [p for p in good if not p["traced"]]
    walls = [p["pass_s"] for p in plain]
    measured = [p for p in probes + good if "error" not in p]
    # reported with their units, but not gated: the raw wall times follow the
    # machine's speed swings, and error_rate is 0 whenever the run is correct
    summary["reported"] = {
        "setup_wall_s": (statistics.median(p["setup_s"] for p in measured)
                         if measured else None, "s"),
        "pass_wall_s": (statistics.median(walls) if walls else None, "s"),
        "gauge_s": (statistics.median(p["gauge_s"] for p in measured) if measured else None, "s"),
        "error_rate": (failed / summary["attempted"], "ratio"),
    }
    if args.trace:
        traced = [p for p in good if p["traced"]]
        for p in traced:
            problems += p["trace_problems"]
        for name in REPEATED_COUNTS:
            seen = {p["layers"][name] for p in traced}
            if len(seen) > 1:
                problems.append(f"{name} differs between traced passes of one seed: {sorted(seen)}")
        metrics = {name: statistics.median(p["layers"][name] for p in traced)
                   for name in tracing.per_layer_names()} if traced else {}
        if traced and plain:
            metrics[OVERHEAD] = (statistics.median(p["pass_ref_s"] for p in traced)
                                 / statistics.median(p["pass_ref_s"] for p in plain))
        summary["units"] = per_layer_units()
    else:
        setups = [p["setup_s"] * gauge.REFERENCE_S / p["gauge_s"] for p in measured]
        metrics = {
            "setup_s": statistics.median(setups),
            "pass_s": statistics.median(p["pass_ref_s"] for p in plain),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain),
        } if plain else {}
        summary["units"] = END_TO_END_UNITS
        summary["setup_samples"] = len(setups)
        summary["pass_s_tail"] = tail_percentile([p["pass_ref_s"] for p in plain])
    summary["metrics"] = metrics
    missing = set(summary["units"]) - set(metrics)
    if missing:
        problems.append(f"metrics not measured: {sorted(missing)}")
    summary["correct"] = not problems
    return summary


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:  # the checkout may not be a git repository; never look above it
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu,
            "git_sha": sha}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="reduced job sizes, for the benchmark's self-tests")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (ROOT / "src" / "divlab" / "__init__.py").is_file():
        print(f"error: no divlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    probes, passes = run_passes(args)
    summary = summarize(args, probes, passes)
    units = summary["units"]
    record = {
        "workload": args.workload,
        "why": WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "loop": "closed, one client, one fresh process per pass, --workers 1",
        "passes": sum("error" not in p and not p["traced"] for p in passes),
        "traced_passes": sum("error" not in p and p["traced"] for p in passes),
        **machine(),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in summary["metrics"].items()},
        "reported": {name: {"value": value, "unit": unit}
                     for name, (value, unit) in summary["reported"].items()},
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "problems": summary["problems"][:20],
        "job_wall_s": summary["job_wall_s"],
        "predictions": [{"layer_metrics": list(layer), "end_to_end": list(e2e),
                         "workloads": list(where)} for layer, e2e, where in PREDICTIONS],
    }
    if not args.trace:
        record["setup_samples"] = summary["setup_samples"]
        record["pass_s_tail"] = summary["pass_s_tail"]

    print(f"workload {args.workload} seed {args.seed}: {record['passes']} untraced and "
          f"{record['traced_passes']} traced passes ({record['loop']})")
    for name, entry in record["metrics"].items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    for name, (value, unit) in summary["reported"].items():
        if value is not None:
            print(f"  {name} = {value:.6g} {unit} (not gated)")
    print(f"  {summary['failed']} of {summary['attempted']} jobs failed")
    for problem in summary["problems"][:20]:
        print(f"  FAILED: {problem}")
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"run record in {out.relative_to(ROOT)}: nproc {record['nproc']}, "
          f"Python {record['python']}, {record['cpu']}, git {record['git_sha'] or 'unknown'}")
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
