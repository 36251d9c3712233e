"""Command-line front end.

Exit codes: 0 = success / bound satisfied (or hypotheses out of range,
reported as such); 2 = genuine violation or counterexample found;
1 = usage or input error.
"""
from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import __version__
from . import constructions as cons
from . import formulas as fx
from . import sweeps
from .cross import verify_hilton, verify_lemma_fk
from .io import (
    FamilyFormatError,
    dump_json,
    family_to_dict,
    read_family,
    sha256_file,
    write_family,
)
from .search import max_c_diversity
from .stability import find_stability_triple

OK, USAGE_ERROR, VIOLATION = 0, 1, 2


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # read -p/q as a negative fraction, as argparse reads -p and -.5
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")

    def error(self, message):  # usage errors are exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _ratio(text: str) -> Fraction:
    try:
        return fx.parse_ratio(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _triple(text: str) -> tuple[int, int, int]:
    parts = [int(p) for p in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected u,v,w, got {text!r}")
    return tuple(parts)  # type: ignore[return-value]


@functools.cache
def build_parser() -> _Parser:
    """The ``divlab`` argument parser, built on the first call and returned
    by every later one: callers in one process share it and must not mutate
    it.  Each ``parse_args`` call makes a fresh namespace."""
    p = _Parser(prog="divlab", description=__doc__)
    p.add_argument("--version", action="version", version=f"divlab {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a named family and write it")
    c.add_argument(
        "--family",
        required=True,
        choices=list(_BUILDERS),
    )
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--i", type=int)
    c.add_argument("--t", type=_triple, metavar="u,v,w")
    c.add_argument("--m", type=int)
    c.add_argument("--center", type=int, default=1)
    c.add_argument("--kernels", help='JSON like "[[4,5],[4,5],[4,5]]"')
    c.add_argument("--out", required=True)
    _common(c)

    m = sub.add_parser("measure", help="size, degrees and diversity of a family file")
    m.add_argument("family", metavar="FILE")
    m.add_argument("--c", type=_ratio, metavar="P/Q")
    _common(m)

    v = sub.add_parser("verify", help="evaluate a theorem inequality on a family")
    v.add_argument("--theorem", required=True, choices=list(fx.THEOREMS))
    v.add_argument("--i", type=int)
    v.add_argument("--c", type=_ratio, metavar="P/Q")
    v.add_argument("--family", required=True, metavar="FILE")
    _common(v)

    s = sub.add_parser("search", help="maximize C-diversity")
    ssub = s.add_subparsers(dest="search_command", required=True)
    mc = ssub.add_parser("max-cdiv")
    mc.add_argument("--n", type=int, required=True)
    mc.add_argument("--k", type=int, required=True)
    mc.add_argument("--c", type=_ratio, required=True, metavar="P/Q")
    mode = mc.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true")
    mode.add_argument("--heuristic", action="store_true")
    mc.add_argument("--budget", type=int)
    mc.add_argument("--seed", type=int, default=0)
    mc.add_argument("--workers", type=int, default=1,
                    help="accepted (>= 1) and recorded in the manifest, but unused: "
                         "search runs in one process")
    mc.add_argument("--witness", action="store_true", help="include the best family in the report")
    _common(mc)

    st = sub.add_parser("stability", help="stability triple and bounds for a family file")
    st.add_argument("family", metavar="FILE")
    st.add_argument("--d", type=int, default=36)
    _common(st)

    le = sub.add_parser("lemma", help="brute-force lemma oracles")
    lsub = le.add_subparsers(dest="lemma_command", required=True)
    fk = lsub.add_parser("fk")
    fk.add_argument("--m", type=int, required=True)
    fk.add_argument("--l", type=int, required=True)
    fk.add_argument("--method", choices=["auto", "exhaustive", "pruned"], default="auto")
    _common(fk)
    hi = lsub.add_parser("hilton")
    hi.add_argument("--n", type=int, required=True)
    hi.add_argument("--a", type=int, required=True)
    hi.add_argument("--b", type=int, required=True)
    hi.add_argument("--exhaustive", action="store_true")
    hi.add_argument("--trials", type=int, default=200)
    hi.add_argument("--seed", type=int, default=0)
    _common(hi)

    sw = sub.add_parser("sweep", help="run grid checks from a config file")
    sw.add_argument("config", metavar="CONFIG")
    sw.add_argument("--out", help="write the row matrix as CSV")
    _common(sw)
    return p


def _common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="machine-readable report on stdout")
    p.add_argument("--manifest", metavar="FILE", help="write a reproducibility manifest")


@dataclass
class Report:
    """What a subcommand found: its verdict, its rendered values, the human
    lines made from those values, and any further top-level JSON keys
    (``nodes``, ``stats``, ``witness_family``) in output order."""

    verdict: str
    values: dict
    human: list[str]
    extra: dict = field(default_factory=dict)


def _kernels(text: str) -> cons.KernelTriple:
    try:
        parts = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested past the recursion limit
        raise ValueError(f"--kernels is not JSON: {exc}") from exc
    if not (isinstance(parts, list) and len(parts) == 3 and all(
        isinstance(part, list)
        and all(isinstance(e, int) and not isinstance(e, bool) for e in part)
        for part in parts
    )):
        raise ValueError("--kernels must be a JSON list of three element lists")
    for part in parts:
        if len(set(part)) < len(part):
            raise ValueError(f"--kernels: kernel {part} repeats an element")
    return cons.KernelTriple(*(frozenset(part) for part in parts))


# family name -> (the option it needs, if any; builder)
_BUILDERS = {
    "star": (None, lambda a: cons.full_star(a.n, a.k, a.center)),
    "fi": ("--i", lambda a: cons.family_fi(a.n, a.k, a.i)),
    "triangle": (None, lambda a: cons.family_triangle(a.n, a.k)),
    "uvw": ("--t u,v,w", lambda a: cons.family_uvw(a.n, a.k, a.t)),
    "uvw-star": ("--t u,v,w", lambda a: cons.family_uvw_star(a.n, a.k, a.t)),
    "lex": ("--m", lambda a: cons.lex_family(a.n, a.k, a.m)),
    "fano-l": (None, lambda a: cons.fano_l(a.n, a.k)),
    "fano-lplus": (None, lambda a: cons.fano_lplus(a.n, a.k)),
    "example-t": ("--kernels", lambda a: cons.example_t(a.n, a.k, _kernels(a.kernels))),
}


def _cmd_construct(args) -> Report:
    needs, build = _BUILDERS[args.family]
    if needs and getattr(args, needs.split()[0][2:]) is None:
        raise ValueError(f"--family {args.family} needs {needs}")
    fam = build(args)
    write_family(fam, args.out)
    delta, witness = fam.max_degree()
    values = {
        "family": args.family, "n": args.n, "k": args.k, "size": len(fam),
        "delta": delta, "witness": witness, "out": args.out,
    }
    return Report("constructed", values, [
        f"wrote {values['family']} family on (n={values['n']}, k={values['k']}) "
        f"with {values['size']} sets to {values['out']}"
    ])


def _cmd_measure(args) -> Report:
    fam = read_family(args.family)
    delta, witness = fam.max_degree()
    values = {
        "n": fam.n, "k": fam.k, "size": len(fam),
        "delta": delta, "delta_witness": witness,
        "gamma": len(fam) - delta,
        "intersecting": fam.is_intersecting(),
    }
    if len(fam):
        values["rho"] = fx.ratio_str(fam.rho())
    if args.c is not None:
        values["c"] = fx.ratio_str(args.c)
        values["gamma_c"] = fx.ratio_str(fam.c_diversity(args.c))
    human = [
        f"|F| = {values['size']}",
        f"Delta = {values['delta']}"
        + ("" if values["delta_witness"] is None else f" (at element {values['delta_witness']})"),
        f"gamma = {values['gamma']}",
        f"intersecting = {values['intersecting']}",
    ]
    if "rho" in values:
        human.append(f"rho = {values['rho']}")
    if "c" in values:
        human.append(f"gamma_C (C={values['c']}) = {values['gamma_c']}")
    return Report("measured", values, human)


def _cmd_verify(args) -> Report:
    fam = read_family(args.family)
    v = fx.check_theorem(fam, args.theorem, i=args.i, c=args.c)
    verdict = (
        "violation" if v.violated()
        else "satisfied" if v.satisfied
        else "hypotheses-not-applicable"
    )
    values = {
        "name": v.name,
        "hypotheses_hold": v.hypotheses_hold,
        "lhs": fx.ratio_str(v.lhs),
        "rhs": fx.ratio_str(v.rhs),
        "direction": v.direction,
        "satisfied": v.satisfied,
        "tight": v.tight,
        "note": v.note,
    }
    human = [
        f"{values['name']}: lhs {values['lhs']} {values['direction']} rhs {values['rhs']} -> "
        f"{'satisfied' if values['satisfied'] else 'VIOLATED'}"
        + (" (tight)" if values["tight"] else "")
        + ("" if values["hypotheses_hold"] else " [hypotheses do not hold]")
    ]
    if values["note"]:
        human.append(values["note"])
    return Report(verdict, values, human)


def _listed(items) -> str:
    return ", ".join(map(str, items)) or "none"


def _cmd_search(args) -> Report:
    mode = "exact" if args.exact else "heuristic"
    result = max_c_diversity(
        args.n, args.k, args.c, mode,
        budget=args.budget, seed=args.seed, workers=args.workers,
    )
    bound, hyp, label = fx.gamma_c_bound(args.c, args.n, args.k)
    exceeded = bound is not None and result.best_value > bound
    if exceeded and hyp:
        verdict = "counterexample"
    elif bound is None or not hyp:
        verdict = "hypotheses-not-applicable" if not exceeded else "exceeds-inapplicable-bound"
    else:
        verdict = "within-bound"
    values = {
        "n": args.n, "k": args.k, "c": fx.ratio_str(args.c), "mode": mode,
        "best": fx.ratio_str(result.best_value),
        "exact": result.exact,
        "bound": fx.ratio_str(bound) if bound is not None else None,
        "bound_kind": label,
        "bound_hypotheses_hold": hyp,
        "degree_cap_used": result.degree_cap_used,
        "best_size": len(result.best_family),
    }
    extra = {"nodes": result.nodes_explored, "stats": result.stats}
    if args.witness:
        extra["witness_family"] = family_to_dict(result.best_family)
    searched = mode
    if mode == "exact" and not values["exact"]:
        searched = "exact search, budget hit: lower bound"
    human = [
        f"max gamma_C over (n={values['n']}, k={values['k']}), C={values['c']} [{searched}]: "
        f"{values['best']} with |F|={values['best_size']}",
        f"bound {values['bound_kind']}: {values['bound'] or 'n/a'} -> {verdict}",
    ]
    st = result.stats
    if mode == "exact":
        human.append(
            f"{result.nodes_explored} nodes in {len(st['caps'])} cap searches "
            "[cap (floor) size/nodes]: " + _listed(
                f"{run['cap']} ({run['floor']}) "
                f"{'none' if run['size'] is None else run['size']}/{run['nodes']}"
                for run in st["caps"]
            )
            + f"; skipped caps: {_listed(st['skipped'])}"
            + f"; truncated caps: {_listed(st['truncated'])}"
        )
    else:
        human.append(
            f"{result.nodes_explored} moves in {st['slots']} slots, {st['restarts']} restarts; "
            "accepted/tried: " + ", ".join(
                f"{kind} {st['accepted'][kind]}/{st['tried'][kind]}" for kind in st["tried"]
            )
        )
    return Report(verdict, values, human, extra)


def _cmd_stability(args) -> Report:
    fam = read_family(args.family)
    rep = find_stability_triple(fam, args.d)
    genuine = rep.hypotheses_hold and not (rep.pass_14 and rep.pass_15)
    values = {
        "alpha": fx.ratio_str(rep.alpha),
        "d": rep.d,
        "triple": list(rep.triple),
        "outside": rep.outside,
        "missing": rep.missing,
        "bound_outside": fx.ratio_str(rep.bound_outside),
        "bound_missing": fx.ratio_str(rep.bound_missing),
        "pass_14": rep.pass_14,
        "pass_15": rep.pass_15,
        "hypotheses_hold": rep.hypotheses_hold,
        "lemma41_empty_ok": rep.lemma41_empty_ok,
        "lemma41_singles_ok": rep.lemma41_singles_ok,
    }
    human = [
        f"triple {tuple(values['triple'])}: outside={values['outside']} "
        f"(bound {values['bound_outside']}), "
        f"missing={values['missing']} (bound {values['bound_missing']})",
        f"alpha={values['alpha']}, hypotheses_hold={values['hypotheses_hold']}",
        f"scanned {rep.triples_scanned} triples; lemma 4.1: "
        f"empty ok={values['lemma41_empty_ok']}, singles ok={values['lemma41_singles_ok']}",
    ]
    return Report("violation" if genuine else "pass", values, human, {"nodes": rep.triples_scanned})


def _cmd_lemma(args) -> Report:
    if args.lemma_command == "fk":
        rep = verify_lemma_fk(args.m, args.l, method=args.method)
        values = {
            "m": rep.m, "l": rep.ell, "threshold": rep.threshold,
            "cap": rep.cap, "method": rep.method,
        }
        run = f"fk({values['m']},{values['l']}) [{values['method']}]"
        checked = f"{rep.pairs_checked} pair checks"
    else:
        rep = verify_hilton(
            args.n, args.a, args.b,
            exhaustive=args.exhaustive, trials=args.trials, seed=args.seed,
        )
        values = {
            "n": rep.n, "a": rep.a, "b": rep.b,
            "exhaustive": rep.exhaustive,
            "shifts_checked": rep.shifts_checked,
        }
        run = (
            f"hilton({values['n']},{values['a']},{values['b']}) "
            f"[{'exhaustive' if values['exhaustive'] else 'randomized'}]"
        )
        checked = f"{rep.pairs_checked} pairs, {values['shifts_checked']} shift routes"
    verdict = "pass" if rep.ok else "counterexample"
    return Report(verdict, values, [f"{run}: {verdict} after {checked}"], {"nodes": rep.pairs_checked})


def _cmd_sweep(args) -> Report:
    try:
        config = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
        raise FamilyFormatError(f"cannot read sweep config: {exc}") from exc
    items = config.get("sweeps") if isinstance(config, dict) else None
    if not isinstance(items, list) or not all(
        isinstance(item, dict) and isinstance(item.get("name"), str) for item in items
    ):
        raise FamilyFormatError('sweep config must be {"sweeps": [{"name": ...}, ...]}')
    # each sweep's rows are counted, and turned into CSV lines for --out, as
    # run_sweep returns them; no list of every sweep's rows is kept
    counts = {"pass": 0, "flagged": 0, "fail": 0}
    lines = [",".join(sweeps.Row._fields)]
    for item in items:
        params = {key: value for key, value in item.items() if key != "name"}
        rows = sweeps.run_sweep(item["name"], **params)
        for row in rows:
            counts[row.status] += 1
        if args.out:
            lines += [",".join(map(str, row)) for row in rows]
    checks = sum(counts.values())
    human = [
        f"{checks} checks: {counts['pass']} pass, "
        f"{counts['flagged']} flagged (hypothesis out of range), {counts['fail']} fail"
    ]
    if args.out:
        Path(args.out).write_text("\n".join(lines) + "\n")
        human.append(f"matrix written to {args.out}")
    verdict = "violation" if counts["fail"] else "pass"
    return Report(verdict, counts, human, {"nodes": checks})


# subcommand -> (handler, the argument naming the input file it reads, if any)
_HANDLERS = {
    "construct": (_cmd_construct, None),
    "measure": (_cmd_measure, "family"),
    "verify": (_cmd_verify, "family"),
    "search": (_cmd_search, None),
    "stability": (_cmd_stability, "family"),
    "lemma": (_cmd_lemma, None),
    "sweep": (_cmd_sweep, "config"),
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    started = time.monotonic()
    handler, input_arg = _HANDLERS[args.command]
    try:
        report = handler(args)
        elapsed = int((time.monotonic() - started) * 1000)
        doc = {"verdict": report.verdict, "values": report.values, **report.extra,
               "elapsed_ms": elapsed}
        # the manifest first: a run whose manifest cannot be written prints no report
        if args.manifest:
            manifest = {
                "argv": argv,
                "version": __version__,
                "inputs": {input_arg: sha256_file(getattr(args, input_arg))} if input_arg else {},
                # only search and lemma hilton take --seed; only search takes --workers
                "seed": getattr(args, "seed", None),
                "workers": getattr(args, "workers", None),
                "elapsed_ms": elapsed,
                "summary": {k: v for k, v in doc.items() if k not in ("witness_family", "elapsed_ms")},
            }
            Path(args.manifest).write_text(dump_json(manifest))
        if args.json:
            sys.stdout.write(dump_json(doc))
        else:
            for line in report.human:
                print(line)
    except (FamilyFormatError, OSError, ValueError) as exc:
        print(f"divlab: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return VIOLATION if report.verdict in ("violation", "counterexample") else OK


if __name__ == "__main__":
    sys.exit(main())
