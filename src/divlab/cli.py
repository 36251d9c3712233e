"""Command-line front end.

Exit codes: 0 = success / bound satisfied (or hypotheses out of range,
reported as such); 2 = genuine violation or counterexample found;
1 = usage or input error.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__
from . import constructions as cons
from . import formulas as fx
from . import sweeps
from .cross import verify_hilton, verify_lemma_fk
from .io import (
    FamilyFormatError,
    build_manifest,
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


def build_parser() -> _Parser:
    p = _Parser(prog="divlab", description=__doc__)
    p.add_argument("--version", action="version", version=f"divlab {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a named family and write it")
    c.add_argument(
        "--family",
        required=True,
        choices=[
            "star", "fi", "triangle", "uvw", "uvw-star", "lex",
            "fano-l", "fano-lplus", "example-t",
        ],
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
    mc.add_argument("--workers", type=int, default=1)
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


def _emit(args, report: dict, human: list[str]) -> None:
    if args.json:
        sys.stdout.write(dump_json(report))
    else:
        for line in human:
            print(line)


def _finish(args, argv, report, human, inputs, *, seed=None, workers=None, started) -> None:
    elapsed = int((time.monotonic() - started) * 1000)
    report["elapsed_ms"] = elapsed
    _emit(args, report, human)
    if args.manifest:
        digests = {name: sha256_file(path) for name, path in inputs.items()}
        summary = {k: v for k, v in report.items() if k not in ("witness_family", "elapsed_ms")}
        manifest = build_manifest(
            argv=argv, version=__version__, inputs=digests, seed=seed,
            workers=workers, elapsed_ms=elapsed, summary=summary,
        )
        Path(args.manifest).write_text(dump_json(manifest))


def _cmd_construct(args, argv, started) -> int:
    name = args.family
    n, k = args.n, args.k
    if name == "star":
        fam = cons.full_star(n, k, args.center)
    elif name == "fi":
        if args.i is None:
            raise ValueError("--family fi needs --i")
        fam = cons.family_fi(n, k, args.i)
    elif name == "triangle":
        fam = cons.family_triangle(n, k)
    elif name in ("uvw", "uvw-star"):
        if args.t is None:
            raise ValueError(f"--family {name} needs --t u,v,w")
        build = cons.family_uvw if name == "uvw" else cons.family_uvw_star
        fam = build(n, k, args.t)
    elif name == "lex":
        if args.m is None:
            raise ValueError("--family lex needs --m")
        fam = cons.lex_family(n, k, args.m)
    elif name == "fano-l":
        fam = cons.fano_families(n, k)[0]
    elif name == "fano-lplus":
        fam = cons.fano_families(n, k)[1]
    else:
        if args.kernels is None:
            raise ValueError("--family example-t needs --kernels")
        parts = json.loads(args.kernels)
        if not (isinstance(parts, list) and len(parts) == 3):
            raise ValueError("--kernels must be a JSON list of three element lists")
        kern = cons.KernelTriple(*(frozenset(p) for p in parts))
        fam = cons.example_t(n, k, kern)
    write_family(fam, args.out)
    delta, witness = fam.max_degree()
    report = {
        "verdict": "constructed",
        "values": {
            "family": name, "n": n, "k": k, "size": len(fam),
            "delta": delta, "witness": witness, "out": args.out,
        },
    }
    human = [f"wrote {name} family on (n={n}, k={k}) with {len(fam)} sets to {args.out}"]
    _finish(args, argv, report, human, {}, started=started)
    return OK


def _cmd_measure(args, argv, started) -> int:
    fam = read_family(args.family)
    delta, witness = fam.max_degree()
    values = {
        "n": fam.n, "k": fam.k, "size": len(fam),
        "delta": delta, "delta_witness": witness,
        "gamma": len(fam) - delta,
        "intersecting": fam.is_intersecting(),
    }
    human = [
        f"|F| = {len(fam)}",
        f"Delta = {delta} (at element {witness})",
        f"gamma = {len(fam) - delta}",
    ]
    if len(fam):
        values["rho"] = fx.ratio_str(fam.rho())
        human.append(f"rho = {values['rho']}")
    if args.c is not None:
        gc = fam.c_diversity(args.c)
        values["c"] = fx.ratio_str(args.c)
        values["gamma_c"] = fx.ratio_str(gc)
        human.append(f"gamma_C (C={values['c']}) = {values['gamma_c']}")
    report = {"verdict": "measured", "values": values}
    _finish(args, argv, report, human, {"family": args.family}, started=started)
    return OK


def _cmd_verify(args, argv, started) -> int:
    fam = read_family(args.family)
    v = fx.check_theorem(fam, args.theorem, i=args.i, c=args.c)
    verdict = (
        "violation" if v.violated()
        else "satisfied" if v.satisfied
        else "hypotheses-not-applicable"
    )
    report = {
        "verdict": verdict,
        "values": {
            "name": v.name,
            "hypotheses_hold": v.hypotheses_hold,
            "lhs": fx.ratio_str(v.lhs),
            "rhs": fx.ratio_str(v.rhs),
            "direction": v.direction,
            "satisfied": v.satisfied,
            "tight": v.tight,
            "note": v.note,
        },
    }
    human = [
        f"{v.name}: lhs {fx.ratio_str(v.lhs)} {v.direction} rhs {fx.ratio_str(v.rhs)} -> "
        f"{'satisfied' if v.satisfied else 'VIOLATED'}"
        + (" (tight)" if v.tight else "")
        + ("" if v.hypotheses_hold else " [hypotheses do not hold]")
    ]
    if v.note:
        human.append(v.note)
    _finish(args, argv, report, human, {"family": args.family}, started=started)
    return VIOLATION if v.violated() else OK


def _applicable_bound(c: Fraction, n: int, k: int):
    """(bound, hypotheses_hold, label) for the regime containing C."""
    if c == 1:
        return Fraction(fx.binom(n - 3, k - 2)), n > 36 * k, "diversity<=C(n-3,k-2)"
    if 1 < c < Fraction(3, 2):
        threshold, bound = fx.main_bound(c, n, k)
        return bound, k >= 3 and Fraction(n) >= threshold, "triangle-bound"
    if Fraction(3, 2) <= c < Fraction(7, 3):
        # only an asymptotic threshold is known, so never claim a violation
        return fx.mpw_bound(c, n, k), False, "fano-bound(asymptotic)"
    return None, False, "none"


def _cmd_search(args, argv, started) -> int:
    mode = "exact" if args.exact else "heuristic"
    result = max_c_diversity(
        args.n, args.k, args.c, mode,
        budget=args.budget, seed=args.seed, workers=args.workers,
    )
    bound, hyp, label = _applicable_bound(args.c, args.n, args.k)
    exceeded = bound is not None and result.best_value > bound
    if exceeded and hyp:
        verdict = "counterexample"
    elif bound is None or not hyp:
        verdict = "hypotheses-not-applicable" if not exceeded else "exceeds-inapplicable-bound"
    else:
        verdict = "within-bound"
    report = {
        "verdict": verdict,
        "values": {
            "n": args.n, "k": args.k, "c": fx.ratio_str(args.c), "mode": mode,
            "best": fx.ratio_str(result.best_value),
            "exact": result.exact,
            "bound": fx.ratio_str(bound) if bound is not None else None,
            "bound_kind": label,
            "bound_hypotheses_hold": hyp,
            "degree_cap_used": result.degree_cap_used,
            "best_size": len(result.best_family),
        },
        "nodes": result.nodes_explored,
    }
    if args.witness:
        report["witness_family"] = family_to_dict(result.best_family)
    searched = mode
    if mode == "exact" and not result.exact:
        searched = "exact search, budget hit: lower bound"
    human = [
        f"max gamma_C over (n={args.n}, k={args.k}), C={fx.ratio_str(args.c)} [{searched}]: "
        f"{fx.ratio_str(result.best_value)} with |F|={len(result.best_family)}",
        f"bound {label}: {fx.ratio_str(bound) if bound is not None else 'n/a'} -> {verdict}",
    ]
    _finish(
        args, argv, report, human, {},
        seed=args.seed, workers=args.workers, started=started,
    )
    return VIOLATION if verdict == "counterexample" else OK


def _cmd_stability(args, argv, started) -> int:
    fam = read_family(args.family)
    rep = find_stability_triple(fam, args.d)
    genuine = rep.hypotheses_hold and not (rep.pass_14 and rep.pass_15)
    report = {
        "verdict": "violation" if genuine else "pass",
        "values": {
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
            "scan_exhaustive": rep.scan_exhaustive,
            "lemma41_empty_ok": rep.lemma41_empty_ok,
            "lemma41_singles_ok": rep.lemma41_singles_ok,
        },
        "nodes": rep.triples_scanned,
    }
    human = [
        f"triple {rep.triple}: outside={rep.outside} (bound {fx.ratio_str(rep.bound_outside)}), "
        f"missing={rep.missing} (bound {fx.ratio_str(rep.bound_missing)})",
        f"alpha={fx.ratio_str(rep.alpha)}, hypotheses_hold={rep.hypotheses_hold}, "
        f"scan_exhaustive={rep.scan_exhaustive}",
    ]
    _finish(args, argv, report, human, {"family": args.family}, started=started)
    return VIOLATION if genuine else OK


def _cmd_lemma(args, argv, started) -> int:
    if args.lemma_command == "fk":
        rep = verify_lemma_fk(args.m, args.l, method=args.method)
        report = {
            "verdict": "pass" if rep.ok else "counterexample",
            "values": {
                "m": rep.m, "l": rep.ell, "threshold": rep.threshold,
                "cap": rep.cap, "method": rep.method,
            },
            "nodes": rep.pairs_checked,
        }
        human = [
            f"fk({rep.m},{rep.ell}) [{rep.method}]: {report['verdict']} "
            f"after {rep.pairs_checked} pair checks"
        ]
        _finish(args, argv, report, human, {}, started=started)
        return OK if rep.ok else VIOLATION
    rep = verify_hilton(
        args.n, args.a, args.b,
        exhaustive=args.exhaustive, trials=args.trials, seed=args.seed,
    )
    report = {
        "verdict": "pass" if rep.ok else "counterexample",
        "values": {
            "n": rep.n, "a": rep.a, "b": rep.b,
            "exhaustive": rep.exhaustive,
            "shifts_checked": rep.shifts_checked,
        },
        "nodes": rep.pairs_checked,
    }
    human = [
        f"hilton({rep.n},{rep.a},{rep.b}) "
        f"[{'exhaustive' if rep.exhaustive else 'randomized'}]: {report['verdict']} "
        f"after {rep.pairs_checked} pairs, {rep.shifts_checked} shift routes"
    ]
    _finish(args, argv, report, human, {}, seed=args.seed, started=started)
    return OK if rep.ok else VIOLATION


def _cmd_sweep(args, argv, started) -> int:
    try:
        config = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise FamilyFormatError(f"cannot read sweep config: {exc}") from exc
    items = config.get("sweeps") if isinstance(config, dict) else None
    if not isinstance(items, list) or not all(
        isinstance(item, dict) and isinstance(item.get("name"), str) for item in items
    ):
        raise FamilyFormatError('sweep config must be {"sweeps": [{"name": ...}, ...]}')
    all_rows = []
    for item in items:
        params = {key: value for key, value in item.items() if key != "name"}
        all_rows.extend(sweeps.run_sweep(item["name"], **params))
    counts = {"pass": 0, "flagged": 0, "fail": 0}
    for row in all_rows:
        counts[row.status] += 1
    if args.out:
        lines = ["check,n,k,params,quantity,formula,measured,status,note"]
        lines += [
            f"{r.check},{r.n},{r.k},{r.params},{r.quantity},{r.formula},{r.measured},{r.status},{r.note}"
            for r in all_rows
        ]
        Path(args.out).write_text("\n".join(lines) + "\n")
    report = {
        "verdict": "violation" if counts["fail"] else "pass",
        "values": counts,
        "nodes": len(all_rows),
    }
    human = [
        f"{len(all_rows)} checks: {counts['pass']} pass, "
        f"{counts['flagged']} flagged (hypothesis out of range), {counts['fail']} fail"
    ]
    if args.out:
        human.append(f"matrix written to {args.out}")
    _finish(args, argv, report, human, {"config": args.config}, started=started)
    return VIOLATION if counts["fail"] else OK


_HANDLERS = {
    "construct": _cmd_construct,
    "measure": _cmd_measure,
    "verify": _cmd_verify,
    "search": _cmd_search,
    "stability": _cmd_stability,
    "lemma": _cmd_lemma,
    "sweep": _cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    started = time.monotonic()
    try:
        return _HANDLERS[args.command](args, argv, started)
    except (FamilyFormatError, FileNotFoundError, ValueError) as exc:
        print(f"divlab: error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
