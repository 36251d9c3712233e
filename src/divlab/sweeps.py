"""Grid checks: formula-vs-enumeration matrix and the inequality sweeps.

Each row carries a status: "pass" (exact agreement), "flagged" (the closed
form's attainment hypothesis fails, e.g. the maximum degree is realized off
the assumed support at small n), or "fail" (a genuine disagreement, which
no sweep is ever expected to produce).
"""
from __future__ import annotations

import inspect
import math
from fractions import Fraction
from typing import NamedTuple

from . import constructions as cons
from . import formulas as fx
from .family import Family


class Row(NamedTuple):
    check: str
    n: int
    k: int
    params: str
    quantity: str
    formula: int
    measured: int
    status: str
    note: str = ""


def _measure_rows(
    check: str,
    fam: Family,
    params: str,
    size_formula: int,
    delta_formula: int | None,
    support: tuple[int, ...],
) -> list[Row]:
    """Compare |F|, Delta, gamma against closed forms with the flag policy."""
    n, k = fam.n, fam.k
    intersecting = fam.is_intersecting()
    rows = [
        Row(
            check, n, k, params, "size", size_formula, len(fam),
            "pass" if size_formula == len(fam) else "fail",
        ),
        Row(
            check, n, k, params, "intersecting", 1, int(intersecting),
            "pass" if intersecting else "fail",
        ),
    ]
    if n >= 2 * k:
        ekr_ok = len(fam) <= fx.binom(n - 1, k - 1)
        rows.append(
            Row(
                check, n, k, params, "ekr", 1, int(ekr_ok),
                "pass" if ekr_ok else "fail",
            )
        )
    if delta_formula is None:
        return rows
    delta, witness = fam.max_degree()
    gamma_formula = size_formula - delta_formula
    for quantity, formula, measured in (
        ("delta", delta_formula, delta),
        ("gamma", gamma_formula, len(fam) - delta),
    ):
        if formula == measured:
            rows.append(Row(check, n, k, params, quantity, formula, measured, "pass"))
            continue
        support_deg = max(fam.degree(x) for x in support)
        off_support = witness not in support and delta > support_deg
        if support_deg == delta_formula and off_support:
            rows.append(
                Row(
                    check, n, k, params, quantity, formula, measured, "flagged",
                    note=f"max degree attained at {witness}, off the assumed support",
                )
            )
        else:
            rows.append(Row(check, n, k, params, quantity, formula, measured, "fail"))
    return rows


def formula_matrix(n_max: int = 14, k_max: int = 5) -> list[Row]:
    """Every constructor on the grid, enumerated and compared exactly."""
    rows: list[Row] = []
    for n in range(2, n_max + 1):
        for k in range(1, min(k_max, n) + 1):
            star = cons.full_star(n, k, 1)
            rows += _measure_rows(
                "star", star, "center=1", fx.star_size(n, k), fx.star_size(n, k), (1,)
            )
            if k >= 2 and n >= 3:
                for i in range(3, min(k + 1, n) + 1):
                    fi = cons.family_fi(n, k, i)
                    rows += _measure_rows(
                        "fi", fi, f"i={i}", fx.fi_size(n, k, i), fx.fi_delta(n, k, i), (1,)
                    )
                tri = cons.family_triangle(n, k)
                rows += _measure_rows(
                    "triangle", tri, "T=(1,2,3)",
                    fx.triangle_size(n, k), fx.triangle_delta(n, k), (1, 2, 3),
                )
                if n >= 7:
                    shifted_t = (2, 4, 7)
                    uvw = cons.family_uvw(n, k, shifted_t)
                    rows += _measure_rows(
                        "uvw", uvw, "T=(2,4,7)",
                        fx.triangle_size(n, k), fx.triangle_delta(n, k), shifted_t,
                    )
                star_t = cons.family_uvw_star(n, k, (1, 2, 3))
                rows += _measure_rows(
                    "uvw-star", star_t, "T=(1,2,3)",
                    fx.uvw_star_size(n, k),
                    fx.triangle_delta(n, k) + fx.binom(n - 3, k - 3),
                    (1, 2, 3),
                )
            if n >= 7 and k >= 3:
                fl, flp = cons.fano_families(n, k)
                rows += _measure_rows(
                    "fano-l", fl, "", fx.fano_l_size(n, k), fx.fano_l_delta(n, k),
                    tuple(range(1, 8)),
                )
                rows += _measure_rows(
                    "fano-lplus", flp, "", fx.fano_lplus_size(n, k),
                    fx.fano_lplus_delta(n, k), tuple(range(1, 8)),
                )
            if k >= 3:
                for ell in range(2, k):
                    if ell + 4 > n:
                        continue
                    fam = cons.example_t(n, k, cons.sample_kernels(ell))
                    rows += _measure_rows(
                        "example-t", fam, f"ell={ell}",
                        fx.example_t_size(n, k, ell),
                        fx.example_t_size(n, k, ell) - fx.example_t_gamma(n, k, ell),
                        (1, 2, 3),
                    )
            total = math.comb(n, k)
            for m in sorted({0, 1, total // 2, total}):
                lex = cons.lex_family(n, k, m)
                rows.append(
                    Row(
                        "lex", n, k, f"m={m}", "size", m, len(lex),
                        "pass" if len(lex) == m else "fail",
                    )
                )
    return rows


def chain_rows(n_max: int = 40, k_max: int = 8, enum_n_max: int = 14) -> list[Row]:
    """The size chain |F_3| = |F_4| < |F_5| < ... < |F_{k+1}| < C(n-1,k-1)
    for n > 2k, by formula, confirmed by enumeration at small n."""
    rows: list[Row] = []
    for k in range(2, k_max + 1):
        for n in range(2 * k + 1, n_max + 1):
            sizes = [fx.fi_size(n, k, i) for i in range(3, k + 2)]
            ok = sizes[-1] < fx.binom(n - 1, k - 1)
            if len(sizes) >= 2:
                ok = ok and sizes[0] == sizes[1]
                ok = ok and all(sizes[j] < sizes[j + 1] for j in range(1, len(sizes) - 1))
            rows.append(
                Row("chain12", n, k, "formula", "chain", 1, int(ok), "pass" if ok else "fail")
            )
            if n <= enum_n_max:
                enum_sizes = [len(cons.family_fi(n, k, i)) for i in range(3, k + 2)]
                agree = enum_sizes == sizes
                rows.append(
                    Row(
                        "chain12", n, k, "enumeration", "chain-sizes",
                        1, int(agree), "pass" if agree else "fail",
                    )
                )
    return rows


def prop28_rows(n_max: int = 200, k_max: int = 12) -> list[Row]:
    """C(n-i,k) >= (n-ik)/n C(n,k) over the whole valid grid."""
    rows: list[Row] = []
    for k in range(1, k_max + 1):
        for n in range(k, n_max + 1):
            i = 0
            while n > i * k:
                scaled_lhs, scaled_rhs = fx.binom_ratio_sides(n, k, i)
                ok = scaled_lhs <= scaled_rhs
                rows.append(Row("prop28", n, k, f"i={i}", "ratio", 1, int(ok), "pass" if ok else "fail"))
                i += 1
    return rows


def example_t_gamma_rows(n_max: int = 14, k_max: int = 5) -> list[Row]:
    """The displayed gamma formula of the three-block example vs measurement;
    disagreements where the maximum degree sits off [3] are flagged.

    Deliberately uses three equal kernels (the degenerate shape): for
    ell = 2 the shared kernel elements outdegree [3] at every n, so this
    sweep charts where the formula's attainment hypothesis fails."""
    rows: list[Row] = []
    for n in range(6, n_max + 1):
        for k in range(3, min(k_max, n) + 1):
            for ell in range(2, k):
                if 3 + ell > n:
                    continue
                kern = cons.KernelTriple.uniform(tuple(range(4, 4 + ell)))
                fam = cons.example_t(n, k, kern)
                formula = fx.example_t_gamma(n, k, ell)
                measured = fam.diversity()
                if formula == measured:
                    status, note = "pass", ""
                else:
                    _, witness = fam.max_degree()
                    status = "flagged" if witness not in (1, 2, 3) else "fail"
                    note = f"max degree attained at {witness}"
                rows.append(
                    Row("example-t-gamma", n, k, f"ell={ell}", "gamma", formula, measured, status, note)
                )
    return rows


def stability_rhs_rows(n: int = 200, k: int = 5, d_values: tuple[int, ...] = (36, 40, 44)) -> list[Row]:
    """Right sides of the two stability bounds: nonnegative and monotone in alpha."""
    rows: list[Row] = []
    alphas = [Fraction(t, 10) for t in range(0, 11)]
    for d in d_values:
        prev = (Fraction(-1), Fraction(-1))
        ok = True
        for a in alphas:
            out_rhs, miss_rhs = fx.stability_rhs(a, n, k, d)
            if out_rhs < 0 or miss_rhs < 0 or out_rhs < prev[0] or miss_rhs < prev[1]:
                ok = False
            prev = (out_rhs, miss_rhs)
        rows.append(
            Row("stability-rhs", n, k, f"d={d}", "monotone", 1, int(ok), "pass" if ok else "fail")
        )
    return rows


SWEEPS = {
    "formula-matrix": formula_matrix,
    "chain12": chain_rows,
    "prop28": prop28_rows,
    "example-t-gamma": example_t_gamma_rows,
    "stability-rhs": stability_rhs_rows,
}


def _fits(value, default) -> bool:
    """Whether a config value has the type of a parameter's default.

    A bool is not an int here, and a tuple default takes a list (JSON has
    no tuples) whose items fit the default's first item.
    """
    if isinstance(default, tuple):
        return isinstance(value, (list, tuple)) and all(_fits(v, default[0]) for v in value)
    if isinstance(value, bool) and not isinstance(default, bool):
        return False
    return isinstance(value, type(default))


def run_sweep(name: str, **kwargs) -> list[Row]:
    if name not in SWEEPS:
        raise ValueError(f"unknown sweep {name!r}; choose from {sorted(SWEEPS)}")
    known = inspect.signature(SWEEPS[name]).parameters
    unknown = sorted(set(kwargs) - set(known))
    if unknown:
        raise ValueError(f"sweep {name!r} has no parameter {unknown}; choose from {list(known)}")
    for key, value in kwargs.items():
        default = known[key].default
        if not _fits(value, default):
            raise ValueError(
                f"sweep {name!r} parameter {key!r} must have the type of its "
                f"default {default!r}, got {value!r}"
            )
    return SWEEPS[name](**kwargs)
