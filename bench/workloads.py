"""Workload job lists for the divlab benchmark.

A job is one call into divlab's public API (the CLI in-process, or a
library function where the CLI has no entry point) plus a check of its
output.  Every expected value below is a closed form or a proved fact about
the families involved, never a number recorded from an earlier run, and no
check pins a node, pair or move count: those are the program's own effort,
which optimisations are meant to change.

Inputs are drawn from the benchmark seed only; divlab sees the generated
arguments, never the seed stream itself.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Any, Callable

import divlab
import divlab.cli
import divlab.io

# Heuristic budget per search.  Criterion 8 uses 100000, but a pass of three
# such searches takes about 20 s, so a run would hold a single pass; at 20000
# the full-star restart still does most of the (252,3,5/4) work.
HEURISTIC_BUDGET = 20_000
SMOKE_HEURISTIC_BUDGET = 400

# Exact (7,3) maxima of gamma_C, and exact (8,3) maximum sizes under a
# degree cap.  Cap 2 allows at most 4 pairwise-intersecting triples (each
# element can serve one intersecting pair, and a triple meets at most three
# others); the K4 edge labelling attains it.
EXACT_73 = {Fraction(1): Fraction(5), Fraction(5, 4): Fraction(15, 4),
            Fraction(3, 2): Fraction(5, 2), Fraction(2): Fraction(1)}
CAP_83 = {7: 10, 8: 12, 9: 13}
SMOKE_CAP_83 = {2: 4}

# (pass, flagged) rows per sweep at its default grid.
SWEEP_COUNTS = {"formula-matrix": (2008, 42), "prop28": (63203, 0),
                "chain12": (240, 0), "example-t-gamma": (21, 32)}
SMOKE_SWEEPS = ("chain12", "example-t-gamma")

# Criterion 7's example-t grid: (k, ell, n).
EXAMPLE_T_GRID = tuple(
    (k, ell, n)
    for k, ell, ns in ((3, 2, (16, 22)), (4, 2, (18, 24)), (4, 3, (18, 24)),
                       (5, 2, (20, 26)), (5, 3, (20, 26)), (6, 2, (22, 28)),
                       (6, 3, (22, 28)))
    for n in ns
)


@dataclass
class Job:
    """One timed call (`run`) and the check of its result (`check` returns
    the list of problems found; empty means correct)."""

    id: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]


def cli_json(argv: list[str]) -> tuple[int, Any]:
    """Run one divlab subcommand in-process; (exit code, parsed --json report)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = divlab.cli.main([*argv, "--json"])
    text = buffer.getvalue()
    return code, json.loads(text) if text else None


def _expect(problems: list[str], label: str, got, want) -> None:
    if got != want:
        problems.append(f"{label}: got {got!r}, expected {want!r}")


def _cli_ok(out, verdict: str) -> list[str]:
    code, report = out
    problems: list[str] = []
    _expect(problems, "exit code", code, 0)
    if report is None:
        return problems + ["no JSON report"]
    _expect(problems, "verdict", report["verdict"], verdict)
    return problems


def build(workload: str, seed: int, work_dir: Path, smoke: bool = False) -> list[Job]:
    """Generate the workload's inputs from `seed` and return its job list."""
    rng = random.Random(seed)
    if workload == "heuristic-large":
        return _heuristic_large(rng, smoke)
    if workload == "exact-small":
        return _exact_small(rng, smoke)
    if workload == "verify-large":
        return _verify_large(rng, work_dir, smoke)
    raise ValueError(f"unknown workload {workload!r}")


def _heuristic_large(rng: random.Random, smoke: bool) -> list[Job]:
    budget = SMOKE_HEURISTIC_BUDGET if smoke else HEURISTIC_BUDGET
    jobs = []
    for n, k, c in ((252, 3, Fraction(5, 4)), (252, 3, Fraction(1)), (130, 3, Fraction(1))):
        base = comb(n - 3, k - 2)
        triangle = (3 - 2 * c) * base
        # (3-2C) C(n-3,k-2) for 1 < C < 3/2 (n >= 42k/(3-2C)); C(n-3,k-2) for C = 1 (n > 36k)
        bound = triangle if c > 1 else Fraction(base)
        argv = ["search", "max-cdiv", "--n", str(n), "--k", str(k), "--c", str(c),
                "--heuristic", "--budget", str(budget), "--seed", str(rng.randrange(2**31)),
                "--workers", "1", "--witness"]

        def check(out, c=c, triangle=triangle, bound=bound):
            problems = _cli_ok(out, "within-bound")
            if problems:
                return problems
            report = out[1]
            best = Fraction(report["values"]["best"])
            if not triangle <= best <= bound:
                problems.append(f"best {best} outside [{triangle}, {bound}]")
            if report["nodes"] < budget:
                problems.append(f"{report['nodes']} moves, budget {budget}")
            witness = divlab.io.family_from_dict(report["witness_family"])
            if not witness.is_intersecting():
                problems.append("witness family is not intersecting")
            _expect(problems, "witness gamma_C", witness.c_diversity(c), best)
            return problems

        jobs.append(Job(f"search n={n} k={k} C={c}", lambda argv=argv: cli_json(argv), check))
    return jobs


def _exact_small(rng: random.Random, smoke: bool) -> list[Job]:
    jobs = []
    chart = {Fraction(2): EXACT_73[Fraction(2)]} if smoke else EXACT_73
    for c, want in chart.items():
        def check(res, want=want):
            problems: list[str] = []
            _expect(problems, "max gamma_C", res.best_value, want)
            _expect(problems, "exact", res.exact, True)
            return problems

        jobs.append(Job(
            f"exact (7,3) C={c}",
            lambda c=c: divlab.search.max_c_diversity(7, 3, c, "exact", workers=1),
            check,
        ))
    for cap, want in (SMOKE_CAP_83 if smoke else CAP_83).items():
        def check(res, want=want):
            problems: list[str] = []
            _expect(problems, "size", res.size, want)
            _expect(problems, "exact", res.exact, True)
            return problems

        jobs.append(Job(
            f"cap (8,3) cap={cap}",
            lambda cap=cap: divlab.search.max_size_with_degree_cap(8, 3, cap, override_guard=True),
            check,
        ))

    perm_values = list(range(1, 8))
    rng.shuffle(perm_values)
    perm = dict(zip(range(1, 8), perm_values))
    found: dict[str, Any] = {}

    def extremal():
        found["value"], found["winners"] = divlab.search.extremal_c_diversity_families(
            7, 3, Fraction(5, 4))
        return found["value"], found["winners"]

    def extremal_check(out):
        problems: list[str] = []
        _expect(problems, "extremal value", out[0], Fraction(15, 4))
        if not out[1]:
            problems.append("no extremal family returned")
        return problems

    def forms():
        found["forms"] = [divlab.canonical_form(w) for w in found["winners"]]
        return found["forms"]

    def forms_check(out):
        return [] if len(set(out)) == 1 else [f"{len(set(out))} isomorphism classes, expected 1"]

    def relabeled_forms():
        return [divlab.canonical_form(w.relabel(perm)) for w in found["winners"]]

    def relabeled_check(out):
        bad = sum(a != b for a, b in zip(out, found["forms"]))
        return [f"{bad} relabeled forms differ from their originals"] if bad else []

    jobs += [
        Job("extremal (7,3) C=5/4", extremal, extremal_check),
        Job("canonical forms", forms, forms_check),
        Job("canonical forms relabeled", relabeled_forms, relabeled_check),
        Job("lemma fk m=6 l=2", lambda: cli_json(["lemma", "fk", "--m", "6", "--l", "2"]),
            lambda out: _cli_ok(out, "pass")),
        Job("lemma hilton n=6 a=b=2",
            lambda: cli_json(["lemma", "hilton", "--n", "6", "--a", "2", "--b", "2",
                              "--exhaustive"]),
            lambda out: _cli_ok(out, "pass")),
    ]
    return jobs


def _sample_kernels(ell: int) -> list[list[int]]:
    """Three distinct pairwise-intersecting ell-sets inside [4, ell+4]."""
    return [list(range(4, ell + 4)),
            list(range(4, ell + 3)) + [ell + 4],
            list(range(4, ell + 2)) + [ell + 3, ell + 4]]


def _stability_check(n: int, k: int, triple, outside: int, missing: int, alpha_zero: bool):
    def check(out):
        problems = _cli_ok(out, "pass")
        if problems:
            return problems
        values = out[1]["values"]
        _expect(problems, "triple", tuple(values["triple"]), tuple(triple))
        _expect(problems, "outside", values["outside"], outside)
        _expect(problems, "missing", values["missing"], missing)
        if alpha_zero:  # alpha = 0, so the hypotheses reduce to n >= 36k
            _expect(problems, "hypotheses_hold", values["hypotheses_hold"], n >= 36 * k)
        return problems
    return check


def _construct_check(size: int):
    def check(out):
        problems = _cli_ok(out, "constructed")
        if not problems:
            _expect(problems, "size", out[1]["values"]["size"], size)
        return problems
    return check


def _verify_large(rng: random.Random, work_dir: Path, smoke: bool) -> list[Job]:
    n_big = 40 if smoke else 252
    n_tri = 40 if smoke else 110
    k = 3
    t = tuple(sorted(rng.sample(range(1, n_big + 1), 3)))
    base = comb(n_big - 3, k - 2)
    uvw, tri = str(work_dir / "uvw.json"), str(work_dir / "triangle.json")
    grid = EXAMPLE_T_GRID[:2] if smoke else EXAMPLE_T_GRID

    construct = [
        Job(f"construct uvw n={n_big}",
            lambda: cli_json(["construct", "--family", "uvw", "--n", str(n_big), "--k", str(k),
                              "--t", ",".join(map(str, t)), "--out", uvw]),
            _construct_check(3 * base)),
        Job(f"construct triangle n={n_tri}",
            lambda: cli_json(["construct", "--family", "triangle", "--n", str(n_tri),
                              "--k", str(k), "--out", tri]),
            _construct_check(3 * comb(n_tri - 3, k - 2))),
    ]
    stability = [
        Job(f"stability uvw n={n_big}", lambda: cli_json(["stability", uvw]),
            _stability_check(n_big, k, t, 0, 0, True)),
        Job(f"stability triangle n={n_tri}", lambda: cli_json(["stability", tri]),
            _stability_check(n_tri, k, (1, 2, 3), 0, 0, True)),
    ]
    for gk, ell, gn in grid:
        path = str(work_dir / f"example-t-{gn}-{gk}-{ell}.json")
        size = 3 * (comb(gn - 3, gk - 2) - comb(gn - 3 - ell, gk - 2)) + 3 * comb(
            gn - 3 - ell, gk - 1 - ell)
        construct.append(Job(
            f"construct example-t n={gn} k={gk} ell={ell}",
            lambda gn=gn, gk=gk, ell=ell, path=path: cli_json(
                ["construct", "--family", "example-t", "--n", str(gn), "--k", str(gk),
                 "--kernels", json.dumps(_sample_kernels(ell)), "--out", path]),
            _construct_check(size)))
        stability.append(Job(
            f"stability example-t n={gn} k={gk} ell={ell}",
            lambda path=path: cli_json(["stability", path]),
            _stability_check(gn, gk, (1, 2, 3), 3 * comb(gn - 3 - ell, gk - ell - 1),
                             3 * comb(gn - 3 - ell, gk - 2), False)))

    def measure_check(out):
        problems = _cli_ok(out, "measured")
        if problems:
            return problems
        values = out[1]["values"]
        want = {"size": 3 * base, "delta": 2 * base, "delta_witness": t[0], "gamma": base,
                "intersecting": True, "gamma_c": str(Fraction(base, 2))}
        for key, value in want.items():
            _expect(problems, key, values[key], value)
        return problems

    def main_check(out):
        problems = _cli_ok(out, "satisfied")
        if problems:
            return problems
        values = out[1]["values"]
        _expect(problems, "lhs", values["lhs"], str(Fraction(base, 2)))
        _expect(problems, "tight", values["tight"], True)
        # n >= 42k/(3-2C) with C = 5/4
        _expect(problems, "hypotheses_hold", values["hypotheses_hold"], n_big >= 84 * k)
        return problems

    def fw2_check(out):
        problems = _cli_ok(out, "satisfied")
        if problems:
            return problems
        values = out[1]["values"]
        _expect(problems, "lhs", values["lhs"], str(base))
        _expect(problems, "tight", values["tight"], True)
        _expect(problems, "note", values["note"], f"extremal: triangle-sandwich at triple {t}")
        return problems

    def decomposition():
        fam = divlab.io.read_family(uvw)
        return len(fam), divlab.triangle_decomposition(fam, t)

    def decomposition_check(out):
        size, dec = out
        problems: list[str] = []
        counts = (dec.f_uv, dec.f_uw, dec.f_vw, dec.g_u, dec.g_v, dec.g_w, dec.h, dec.m)
        _expect(problems, "traces", counts, (0,) * 8)
        _expect(problems, "size identity", dec.size_identity(), size)
        return problems

    def key2():
        return divlab.verify_lemma_key2(divlab.io.read_family(uvw), t[1], t[2])

    def key2_check(rep):
        problems: list[str] = []
        _expect(problems, "ok", rep.ok, True)
        _expect(problems, "witness w", rep.witness_w, t[0])
        _expect(problems, "traces", (rep.empty_trace, rep.singleton_traces), (0, (0, 0, 0)))
        return problems

    queries = [
        Job("measure uvw", lambda: cli_json(["measure", uvw, "--c", "5/4"]), measure_check),
        Job("verify main uvw",
            lambda: cli_json(["verify", "--theorem", "main", "--c", "5/4", "--family", uvw]),
            main_check),
        Job("verify fw2 uvw", lambda: cli_json(["verify", "--theorem", "fw2", "--family", uvw]),
            fw2_check),
        Job("triangle_decomposition uvw", decomposition, decomposition_check),
        Job("verify_lemma_key2 uvw", key2, key2_check),
    ]

    sweeps = []
    for name in (SMOKE_SWEEPS if smoke else tuple(SWEEP_COUNTS)):
        config = work_dir / f"sweep-{name}.json"
        config.write_text(json.dumps({"sweeps": [{"name": name}]}))
        passed, flagged = SWEEP_COUNTS[name]

        def sweep_check(out, passed=passed, flagged=flagged):
            problems = _cli_ok(out, "pass")
            if not problems:
                _expect(problems, "pass/flagged/fail",
                        tuple(out[1]["values"][s] for s in ("pass", "flagged", "fail")),
                        (passed, flagged, 0))
            return problems

        sweeps.append(Job(f"sweep {name}", lambda config=config: cli_json(["sweep", str(config)]),
                          sweep_check))
    return construct + stability + queries + sweeps
