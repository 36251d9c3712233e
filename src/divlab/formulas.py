"""Closed-form sizes, degrees and bound predicates, all in exact arithmetic.

Every inequality is decided over ints/Fractions; verdicts carry both sides
so callers can report tightness.  Out-of-hypothesis inputs yield a verdict
with hypotheses_hold=False instead of an error, so parameter sweeps can
chart where hypotheses fail.
"""
from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .family import Family, elements_of, trace_counter

_RATIO_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def binom(n: int, k: int) -> int:
    """C(n, k) with the convention that out-of-range values are 0."""
    if k < 0 or k > n or n < 0:
        return 0
    return math.comb(n, k)


def parse_ratio(text: str) -> Fraction:
    """Parse an exact rational written as "p/q" or "p"; decimals are rejected."""
    text = text.strip()
    if not _RATIO_RE.match(text):
        raise ValueError(f"not an exact rational (want p/q): {text!r}")
    return Fraction(text)


def ratio_str(value: Fraction | int) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)


@dataclass(frozen=True)
class BoundVerdict:
    """One evaluated inequality: satisfied iff lhs <direction> rhs."""

    name: str
    hypotheses_hold: bool
    lhs: Fraction
    rhs: Fraction
    satisfied: bool
    tight: bool
    direction: str = "<="
    note: str = ""

    @staticmethod
    def compare(name: str, lhs, rhs, *, hypotheses_hold: bool = True,
                direction: str = "<=", note: str = "") -> "BoundVerdict":
        lhs, rhs = Fraction(lhs), Fraction(rhs)
        if direction == "<=":
            ok = lhs <= rhs
        elif direction == "<":
            ok = lhs < rhs
        else:
            raise ValueError(f"unknown direction {direction!r}")
        return BoundVerdict(name, hypotheses_hold, lhs, rhs, ok, lhs == rhs, direction, note)

    def violated(self) -> bool:
        """A genuine violation: hypotheses hold but the inequality fails."""
        return self.hypotheses_hold and not self.satisfied


# -- closed forms for the named constructions -------------------------------

def star_size(n: int, k: int) -> int:
    return binom(n - 1, k - 1)


def fi_size(n: int, k: int, i: int) -> int:
    return binom(n - 1, k - 1) - binom(n - i, k - 1) + binom(n - i, k - i + 1)


def fi_delta(n: int, k: int, i: int) -> int:
    """Degree of element 1 in F_i (the maximum for n > 2k): every member
    through 1 meets [2,i], so this is C(n-1,k-1) - C(n-i,k-1)."""
    return binom(n - 1, k - 1) - binom(n - i, k - 1)


def fi_gamma(n: int, k: int, i: int) -> int:
    """|F_i(1-bar)| = C(n-i, k-i+1)."""
    return binom(n - i, k - i + 1)


def hm_size(n: int, k: int) -> int:
    """The Hilton-Milner size C(n-1,k-1) - C(n-k-1,k-1) + 1."""
    return binom(n - 1, k - 1) - binom(n - k - 1, k - 1) + 1


def triangle_size(n: int, k: int) -> int:
    return 3 * binom(n - 3, k - 2)


def triangle_delta(n: int, k: int) -> int:
    return 2 * binom(n - 3, k - 2)


def uvw_star_size(n: int, k: int) -> int:
    return 3 * binom(n - 3, k - 2) + binom(n - 3, k - 3)


def fano_l_size(n: int, k: int) -> int:
    return 7 * binom(n - 7, k - 3)


def fano_l_delta(n: int, k: int) -> int:
    return 3 * binom(n - 7, k - 3)


def fano_lplus_size(n: int, k: int) -> int:
    return 7 * binom(n - 7, k - 3) + 28 * binom(n - 7, k - 4)


def fano_lplus_delta(n: int, k: int) -> int:
    return 3 * binom(n - 7, k - 3) + 16 * binom(n - 7, k - 4)


def example_t_size(n: int, k: int, ell: int) -> int:
    return 3 * (binom(n - 3, k - 2) - binom(n - 3 - ell, k - 2)) + 3 * binom(
        n - 3 - ell, k - 1 - ell
    )


def example_t_gamma(n: int, k: int, ell: int) -> int:
    """Displayed diversity of the three-block example; assumes the maximum
    degree is attained on [3], which can fail at small n."""
    return (
        binom(n - 3, k - 2)
        - binom(n - 3 - ell, k - 2)
        + 2 * binom(n - 3 - ell, k - ell - 1)
    )


def example_t_outside(n: int, k: int, ell: int) -> int:
    """|T \\ F*_123| = 3 C(n-3-ell, k-ell-1)."""
    return 3 * binom(n - 3 - ell, k - ell - 1)


def example_t_missing(n: int, k: int, ell: int) -> int:
    """|F_123 \\ T| = 3 C(n-3-ell, k-2)."""
    return 3 * binom(n - 3 - ell, k - 2)


# -- headline bounds ---------------------------------------------------------

def main_bound(c: Fraction, n: int, k: int) -> tuple[Fraction, Fraction]:
    """(n-threshold 42k/(3-2C), bound (3-2C) C(n-3,k-2)) for 1 < C < 3/2."""
    c = Fraction(c)
    if not 1 < c < Fraction(3, 2):
        raise ValueError(f"C must lie in (1, 3/2), got {c}")
    return Fraction(42 * k) / (3 - 2 * c), (3 - 2 * c) * binom(n - 3, k - 2)


def mpw_bound(c: Fraction, n: int, k: int) -> Fraction:
    """Fano-regime C-diversity bound, piecewise over 3/2 <= C < 7/3."""
    c = Fraction(c)
    if not Fraction(3, 2) <= c < Fraction(7, 3):
        raise ValueError(f"C must lie in [3/2, 7/3), got {c}")
    value = (7 - 3 * c) * binom(n - 7, k - 3)
    if c < Fraction(7, 4):
        value += (28 - 16 * c) * binom(n - 7, k - 4)
    return value


def gamma_c_bound(c: Fraction, n: int, k: int) -> tuple[Fraction | None, bool, str]:
    """(bound, hypotheses_hold, kind): the published bound on gamma_C for
    the regime containing C, and whether its hypotheses hold at (n, k)."""
    if c == 1:
        return Fraction(binom(n - 3, k - 2)), n > 36 * k, "diversity<=C(n-3,k-2)"
    if 1 < c < Fraction(3, 2):
        threshold, bound = main_bound(c, n, k)
        return bound, k >= 3 and Fraction(n) >= threshold, "triangle-bound"
    if Fraction(3, 2) <= c < Fraction(7, 3):
        # only an asymptotic threshold is known, so never claim a violation
        return mpw_bound(c, n, k), False, "fano-bound(asymptotic)"
    return None, False, "none"


def fano_lower_threshold(c: Fraction, k: int) -> Fraction:
    """2(k-2)/(3-2C): below this n the Fano family beats the triangle bound."""
    c = Fraction(c)
    if not 1 < c < Fraction(3, 2):
        raise ValueError(f"C must lie in (1, 3/2), got {c}")
    return Fraction(2 * (k - 2)) / (3 - 2 * c)


def fano_beats_triangle(c: Fraction, n: int, k: int) -> BoundVerdict:
    """Exact test of gamma_C(F_L) > (3-2C) C(n-3,k-2) by the closed forms."""
    c = Fraction(c)
    lhs = (3 - 2 * c) * binom(n - 3, k - 2)
    rhs = (7 - 3 * c) * binom(n - 7, k - 3)
    return BoundVerdict.compare(
        "fano-beats-triangle", lhs, rhs, direction="<",
        hypotheses_hold=1 < c < Fraction(3, 2) and n >= 7 and k >= 3,
    )


def stability_rhs(alpha: Fraction, n: int, k: int, d: int) -> tuple[Fraction, Fraction]:
    """Right sides of the two stability bounds for given alpha, n, k, d."""
    alpha = Fraction(alpha)
    tail = Fraction(d * alpha, 2) * binom(n - d + 3, k - d + 3)
    return tail, 3 * alpha * binom(n - 3, k - 2) + 3 * tail


# -- theorem checks on a concrete family -------------------------------------

THEOREMS = ("ekr", "hm", "frankl", "diversity", "fw2", "fw3", "main")


def check_theorem(
    fam: Family,
    which: str,
    *,
    i: int | None = None,
    c: Fraction | None = None,
) -> BoundVerdict:
    """Evaluate one of the named theorem inequalities on an intersecting family.

    Hypothesis clauses are evaluated and reported; a verdict with
    hypotheses_hold=False is informational, not a violation.
    """
    if not fam.is_intersecting():
        raise ValueError("theorem checks require an intersecting family")
    n, k = fam.n, fam.k
    size = len(fam)
    delta = fam.max_degree()[0]

    if which == "ekr":
        return BoundVerdict.compare(
            "ekr", size, binom(n - 1, k - 1), hypotheses_hold=n >= 2 * k > 0
        )
    if which == "hm":
        hyp = n > 2 * k >= 4 and not fam.is_star()
        return BoundVerdict.compare("hm", size, hm_size(n, k), hypotheses_hold=hyp)
    if which == "frankl":
        if i is None:
            raise ValueError("frankl needs the index i")
        hyp = n > 2 * k >= 4 and 3 <= i <= k + 1 and delta <= fi_delta(n, k, i)
        return BoundVerdict.compare(
            f"frankl(i={i})", size, fi_size(n, k, i), hypotheses_hold=hyp
        )
    if which == "diversity":
        if i is None:
            raise ValueError("diversity needs the index i")
        hyp = n > 2 * k >= 4 and 3 <= i <= k + 1 and size - delta >= fi_gamma(n, k, i)
        return BoundVerdict.compare(
            f"diversity(i={i})", size, fi_size(n, k, i), hypotheses_hold=hyp
        )
    if which == "fw2":
        bound, hyp, _ = gamma_c_bound(Fraction(1), n, k)
        v = BoundVerdict.compare("fw2", size - delta, bound, hypotheses_hold=hyp)
        if v.tight:
            t = sandwich_triple(fam)
            note = (
                f"extremal: triangle-sandwich at triple {t}" if t else "tight but not a triangle sandwich"
            )
            return BoundVerdict(v.name, v.hypotheses_hold, v.lhs, v.rhs, v.satisfied,
                                v.tight, v.direction, note)
        return v
    if which == "fw3":
        hyp = size >= 36 * binom(n - 3, k - 3) and n >= 24 * k and size > 0
        lhs = Fraction(2, 3) - Fraction(k, n)
        rhs = fam.rho() if size else Fraction(0)
        return BoundVerdict.compare("fw3", lhs, rhs, hypotheses_hold=hyp, direction="<")
    if which == "main":
        if c is None:
            raise ValueError("main needs the constant C")
        c = Fraction(c)
        bound, hyp, kind = gamma_c_bound(c, n, k)
        if kind != "triangle-bound":
            bound, hyp = Fraction(0), False
        return BoundVerdict.compare(
            f"main(C={ratio_str(c)})", fam.c_diversity(c), bound, hypotheses_hold=hyp
        )
    raise ValueError(f"unknown theorem {which!r}; expected one of {THEOREMS}")


def sandwich_triple(fam: Family) -> tuple[int, int, int] | None:
    """A triple T with F_uvw <= F <= F*_uvw, if one exists.

    A valid T shares >= 2 elements with the first member, so candidates are
    pairs inside it extended by an arbitrary third element.  T is valid iff
    no member meets it in fewer than two elements (F <= F*_uvw) and all
    3 C(n-3,k-2) sets meeting it in exactly two are members (F_uvw <= F).
    """
    if not fam.members:
        return None
    cells = trace_counter(fam)
    full = 3 * binom(fam.n - 3, fam.k - 2)
    first = elements_of(fam.members[0])
    for pair in itertools.combinations(first, 2):
        for w in range(1, fam.n + 1):
            if w in pair:
                continue
            t = tuple(sorted((*pair, w)))
            h, g_u, g_v, g_w, m_uv, m_uw, m_vw, _ = cells(t)
            if h + g_u + g_v + g_w == 0 and m_uv + m_uw + m_vw == full:
                return t
    return None


# -- cross-intersecting lemma bounds ------------------------------------------

def cross_lemma_bounds(
    n: int, a: int, b: int, d: int, size_a: int, size_b: int
) -> tuple[BoundVerdict, BoundVerdict, BoundVerdict]:
    """Verdicts (key0, key, sum) for the three cross-intersecting inequalities.

    key0: |B| <= C(n-d, b-d); key: |A| + C(n-d,a)/C(n-d,b-d) |B| <= C(n,a);
    both under the lex-prefix hypothesis |A| >= sum_{j<=d} C(n-j, a-1) with
    d < b.  sum: |A|/C(n,a) + |B|/C(n,b) <= 1 under n >= a+b.
    """
    if d < 1:
        raise ValueError("d must be positive")
    prefix = sum(binom(n - j, a - 1) for j in range(1, d + 1))
    hyp_key = n >= a + b and d < b and size_a >= prefix
    key0 = BoundVerdict.compare("cross-key0", size_b, binom(n - d, b - d), hypotheses_hold=hyp_key)
    denom = binom(n - d, b - d)
    lhs_key = Fraction(size_a) + (
        Fraction(binom(n - d, a), denom) * size_b if denom else Fraction(0)
    )
    key = BoundVerdict.compare(
        "cross-key", lhs_key, binom(n, a), hypotheses_hold=hyp_key and denom > 0
    )
    lhs_sum = Fraction(size_a, binom(n, a)) + Fraction(size_b, binom(n, b))
    total = BoundVerdict.compare("cross-sum", lhs_sum, 1, hypotheses_hold=n >= a + b)
    return key0, key, total


def binom_ratio_sides(n: int, k: int, i: int) -> tuple[int, int]:
    """Both sides of C(n-i, k) >= (n-ik)/n C(n,k) times n, as integers:
    ((n-ik) C(n,k), n C(n-i,k)); the bound holds iff the first is <= the second."""
    return (n - i * k) * binom(n, k), n * binom(n - i, k)


def prop_binom_ratio(n: int, k: int, i: int) -> BoundVerdict:
    """C(n-i, k) >= (n-ik)/n C(n,k) for n > ik, by cross-multiplication."""
    if n <= i * k:
        raise ValueError(f"requires n > ik, got n={n}, i={i}, k={k}")
    scaled_lhs, scaled_rhs = binom_ratio_sides(n, k, i)
    return BoundVerdict(
        f"binom-ratio(i={i})", True, Fraction(scaled_lhs, n), Fraction(scaled_rhs, n),
        scaled_lhs <= scaled_rhs, scaled_lhs == scaled_rhs,
    )
