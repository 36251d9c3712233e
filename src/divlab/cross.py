"""Brute-force oracles for the cross-intersecting lemmas.

Families of l-sets are bitsets over the complete l-uniform Family (the
lex-ordered l-sets of [n]), so pair enumeration and degree counts reduce to
ands and popcounts.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .family import Family, comb_capped, iter_ksets, union
from .constructions import MAX_SETS, lex_family, shift_states
from .formulas import binom

# The most (A, B) pairs exhaustive Hilton mode may face, by `_pair_bound`.
HILTON_EXHAUSTIVE_PAIRS = 1 << 25


@dataclass
class FkReport:
    m: int
    ell: int
    threshold: int
    cap: int
    ok: bool
    pairs_checked: int
    method: str
    counterexample: tuple[Family, Family] | None = None


def verify_lemma_fk(m: int, ell: int, method: str = "auto") -> FkReport:
    """Exhaustively test: cross-intersecting A,B over [m] with
    |A|,|B| >= 5 C(m-2,l-2) admit a j with |A(j-bar)|,|B(j-bar)| <= C(m-2,l-2).

    "exhaustive" enumerates every qualifying pair.  "pruned" checks, per A,
    only the maximal compatible B: the conclusion is antitone in B, so that
    single pair decides all of them.  "auto" picks exhaustive up to 10
    candidate sets and pruned above; any other method is refused.
    """
    if method not in ("auto", "exhaustive", "pruned"):
        raise ValueError(f"method must be 'auto', 'exhaustive' or 'pruned', got {method!r}")
    if m < 2 * ell or ell < 2:
        raise ValueError("requires m >= 2*ell and ell >= 2")
    size = comb_capped(m, ell, 16)
    if size > 16:
        raise ValueError(f"guard: C({m},{ell}) candidate sets, more than the 16-set guard")
    if method == "auto":
        method = "exhaustive" if size <= 10 else "pruned"
    u = Family(m, ell, iter_ksets(m, ell))
    missing = [u.full ^ col for col in u.cols[1:]]  # the sets without each element
    threshold = 5 * binom(m - 2, ell - 2)
    cap = binom(m - 2, ell - 2)
    pairs = 0

    def good_j_exists(a_picked: int, b_picked: int) -> bool:
        for w in missing:
            if (a_picked & w).bit_count() <= cap and (b_picked & w).bit_count() <= cap:
                return True
        return False

    for a_picked, compat in enumerate(u.meeting_each()):
        if a_picked.bit_count() < threshold or compat.bit_count() < threshold:
            continue
        b_picked = compat
        while True:  # pruned: compat alone; exhaustive: every submask of it
            if b_picked.bit_count() >= threshold:
                pairs += 1
                if not good_j_exists(a_picked, b_picked):
                    return FkReport(
                        m, ell, threshold, cap, False, pairs, method,
                        (u.subfamily(a_picked), u.subfamily(b_picked)),
                    )
            if method == "pruned" or b_picked == 0:
                break
            b_picked = (b_picked - 1) & compat
    return FkReport(m, ell, threshold, cap, True, pairs, method)


def cross_max_compatible(n: int, a: int, b: int, size_a: int) -> int:
    """Number of b-sets of [n] meeting every member of the lex prefix L(n,a,size_a)."""
    if n < a + b:
        raise ValueError("requires n >= a + b")
    if comb_capped(n, b, 2_000_000) > 2_000_000:
        raise ValueError(f"guard: C({n},{b}) too large to enumerate")
    prefix = lex_family(n, a, size_a).members
    u = Family(n, b, iter_ksets(n, b))
    compatible = u.full
    for m in prefix:  # the b-sets meeting m, off the incidence columns
        compatible &= union(u.cols, m)
    return compatible.bit_count()


@dataclass
class HiltonReport:
    n: int
    a: int
    b: int
    exhaustive: bool
    pairs_checked: int
    shifts_checked: int
    ok: bool
    counterexample: tuple[Family, Family] | None = None


def _lex_limits(cross: list[int], size_b: int) -> list[int]:
    """limits[s] = the largest t for which the lex prefixes of sizes s and t
    are cross-intersecting, read off the lex-indexed table cross[i] (the
    b-sets disjoint from a-set i): the first b-set disjoint from some of the
    first s a-sets, or every b-set when there is none."""
    limits = [size_b]
    bad = 0
    for row in cross:
        bad |= row
        limits.append((bad & -bad).bit_length() - 1 if bad else size_b)
    return limits


def _pair_bound(n: int, a: int, b: int) -> int:
    """An upper bound on the cross-intersecting pairs (A, B) of a-set and
    b-set families of [n].  A = {} allows every B; any other A allows only
    the b-sets meeting its first member, which C(n-a, b) b-sets miss.  The
    count is symmetric in a and b, so the smaller bound holds."""
    def one(a: int, b: int) -> int:
        size_a, size_b = math.comb(n, a), math.comb(n, b)
        return (1 << size_b) + (((1 << size_a) - 1) << (size_b - math.comb(n - a, b)))
    return min(one(a, b), one(b, a))


def _shift_route_ok(n: int, a_masks: tuple[int, ...], b_masks: tuple[int, ...]) -> bool:
    """Iterated simultaneous shifts must preserve cross-intersection throughout."""
    return all(all(x & y for x in am for y in bm)
               for am, bm in shift_states(n, (set(a_masks), set(b_masks))))


def verify_hilton(
    n: int,
    a: int,
    b: int,
    *,
    exhaustive: bool = False,
    trials: int = 200,
    seed: int = 0,
    shift_sample_stride: int = 64,
) -> HiltonReport:
    """Check that lex prefixes of the sizes of any cross-intersecting pair are
    again cross-intersecting, and that simultaneous shifting preserves the
    cross-intersecting property along the way.

    Exhaustive mode enumerates every pair (A over all a-set families in
    ascending bitset order, B over the subsets of the sets compatible with
    A) and runs the shift route on the pairs whose place in that order is a
    multiple of shift_sample_stride; trial mode runs it on every pair.  The
    route is skipped where A or B is empty or the lex test failed.  A cross
    table of more than MAX_SETS entries, or an exhaustive run facing more
    than HILTON_EXHAUSTIVE_PAIRS pairs, is refused before any table is
    built, and so is a trial count or a stride below 1.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if shift_sample_stride < 1:
        raise ValueError(f"shift_sample_stride must be >= 1, got {shift_sample_stride}")
    if n < a + b:
        raise ValueError("requires n >= a + b")
    if comb_capped(n, a, MAX_SETS) * comb_capped(n, b, MAX_SETS) > MAX_SETS:
        raise ValueError(
            f"guard: the cross table has C({n},{a})*C({n},{b}) entries, "
            f"more than the {MAX_SETS}-set guard"
        )
    bound = _pair_bound(n, a, b) if exhaustive else 0
    if bound > HILTON_EXHAUSTIVE_PAIRS:
        raise ValueError(
            f"guard: exhaustive mode may face up to {bound} pairs, "
            f"above the {HILTON_EXHAUSTIVE_PAIRS}-pair guard"
        )
    ua, ub = Family(n, a, iter_ksets(n, a)), Family(n, b, iter_ksets(n, b))
    cross = ub.disjoint_from(ua.members)
    lex_limit = _lex_limits(cross, len(ub))
    rng = random.Random(seed)

    def candidate_pairs():
        if exhaustive:
            for a_picked, compat in enumerate(ub.meeting_each(cross)):
                b_picked = compat
                while True:  # every submask of compat
                    yield a_picked, b_picked
                    if b_picked == 0:
                        break
                    b_picked = (b_picked - 1) & compat
        else:
            for _ in range(trials):
                a_picked = rng.getrandbits(len(ua))
                yield a_picked, ub.meeting(a_picked, cross) & rng.getrandbits(len(ub))

    pairs = shifts = 0
    for a_picked, b_picked in candidate_pairs():
        pairs += 1
        ok = b_picked.bit_count() <= lex_limit[a_picked.bit_count()]
        if ok and a_picked and b_picked and (not exhaustive or pairs % shift_sample_stride == 0):
            shifts += 1
            ok = _shift_route_ok(n, ua.subfamily(a_picked).members, ub.subfamily(b_picked).members)
        if not ok:
            return HiltonReport(
                n, a, b, exhaustive, pairs, shifts, False,
                (ua.subfamily(a_picked), ub.subfamily(b_picked)),
            )
    return HiltonReport(n, a, b, exhaustive, pairs, shifts, True)
