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


def _flagged(fam: Family, delta_formula: int, support: tuple[int, ...]) -> bool:
    """The attainment rule for a closed form that disagrees with its
    measurement: flagged when the formula's Delta is right on the assumed
    support and the maximum degree sits higher, off it; else a failure."""
    delta, witness = fam.max_degree()
    support_deg = max(fam.degree(x) for x in support)
    return support_deg == delta_formula and witness not in support and delta > support_deg


def _measure_rows(
    check: str,
    fam: Family,
    params: str,
    size_formula: int,
    delta_formula: int,
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
    delta, witness = fam.max_degree()
    gamma_formula = size_formula - delta_formula
    for quantity, formula, measured in (
        ("delta", delta_formula, delta),
        ("gamma", gamma_formula, len(fam) - delta),
    ):
        if formula == measured:
            status, note = "pass", ""
        elif _flagged(fam, delta_formula, support):
            status, note = "flagged", f"max degree attained at {witness}, off the assumed support"
        else:
            status, note = "fail", ""
        rows.append(Row(check, n, k, params, quantity, formula, measured, status, note))
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
    for k in range(2, min(k_max, (n_max - 1) // 2) + 1):
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
    for k in range(1, min(k_max, n_max) + 1):
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
    a disagreement is flagged by _measure_rows' rule, with Delta's formula
    |F| - gamma on the support [3].

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
                    delta_formula = fx.example_t_size(n, k, ell) - formula
                    status = "flagged" if _flagged(fam, delta_formula, (1, 2, 3)) else "fail"
                    note = f"max degree attained at {fam.max_degree()[1]}"
                rows.append(
                    Row("example-t-gamma", n, k, f"ell={ell}", "gamma", formula, measured, status, note)
                )
    return rows


def stability_rhs_rows(n: int = 200, k: int = 5, d_values: tuple[int, ...] = (36, 40, 44)) -> list[Row]:
    """Right sides of the two stability bounds: nonnegative and monotone in
    alpha.  A d below 0 is refused: it makes both right sides negative."""
    if any(d < 0 for d in d_values):
        raise ValueError(f"sweep 'stability-rhs' needs every d >= 0, got {list(d_values)}")
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


def _bits(n: int, r: int) -> int:
    """A bound on the bits of C(n, r): min(r, n - r) factors of at most n."""
    return min(r, n - r) * n.bit_length() if 0 <= r <= n else 0


def _formula_matrix_work(n_max: int, k_max: int):
    for n in range(2, n_max + 1):
        yield 1
        for k in range(1, min(k_max, n) + 1):
            sets = fx.star_size(n, k)
            if k >= 2 and n >= 3:
                sets += sum(fx.fi_size(n, k, i) for i in range(3, min(k + 1, n) + 1))
                sets += (2 if n >= 7 else 1) * fx.triangle_size(n, k) + fx.uvw_star_size(n, k)
            if n >= 7 and k >= 3:
                sets += fx.fano_l_size(n, k) + fx.fano_lplus_size(n, k)
            sets += sum(fx.example_t_size(n, k, ell) for ell in range(2, k) if ell + 4 <= n)
            total = math.comb(n, k)
            yield sets + sum({0, 1, total // 2, total})


def _chain12_work(n_max: int, k_max: int, enum_n_max: int):
    for k in range(2, min(k_max, (n_max - 1) // 2) + 1):
        yield (n_max - 2 * k) * k  # per n: a row and k - 1 closed-form sizes
        for n in range(2 * k + 1, min(n_max, enum_n_max) + 1):
            yield 1 + sum(fx.fi_size(n, k, i) for i in range(3, k + 2))


def _prop28_work(n_max: int, k_max: int):
    for k in range(1, min(k_max, n_max) + 1):
        q, r = divmod(n_max, k)  # ceil(n/k) rows per n: sum them over [1, n_max], less [1, k)
        yield k * q * (q + 1) // 2 + r * (q + 1) - (k - 1)


def _example_t_gamma_work(n_max: int, k_max: int):
    for n in range(6, n_max + 1):
        yield 1 + sum(fx.example_t_size(n, k, ell) for k in range(3, min(k_max, n) + 1)
                      for ell in range(2, k) if 3 + ell <= n)


def _stability_rhs_work(n: int, k: int, d_values: tuple[int, ...]):
    for d in d_values:  # a row, and 11 values of alpha of two binomials each
        yield 1 + 11 * (_bits(n - 3, k - 2) + _bits(n - d + 3, k - d + 3))


# Each sweep's work, from its parameters alone: a unit per grid point, row,
# closed form evaluated, set built and bit of a binomial, in the order the
# sweep meets them, so that summing stops soon after passing any limit.
_WORK = {
    "formula-matrix": _formula_matrix_work,
    "chain12": _chain12_work,
    "prop28": _prop28_work,
    "example-t-gamma": _example_t_gamma_work,
    "stability-rhs": _stability_rhs_work,
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
    """The rows of sweep `name`.  Unknown or mistyped parameters are refused,
    and so is a grid of more than MAX_SETS steps (`_WORK`), before any row."""
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
    work = 0
    for step in _WORK[name](**{key: p.default for key, p in known.items()} | kwargs):
        work += step
        if work > cons.MAX_SETS:
            raise ValueError(
                f"guard: sweep {name!r} refused: it takes more than {cons.MAX_SETS} steps "
                f"(grid points, rows, closed forms, sets built and binomial bits)"
            )
    return SWEEPS[name](**kwargs)
