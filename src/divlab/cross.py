"""Brute-force oracles for the cross-intersecting lemmas.

Families of l-sets are bitsets over the complete l-uniform Family (the
lex-ordered l-sets of [n]), so pair enumeration and degree counts reduce to
ands and popcounts.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .family import Family, comb_capped, compatible_sets, elements_of, iter_ksets
from .constructions import MAX_SETS, lex_family
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


def _good_j_exists(missing: list[int], cap: int, a_picked: int, b_picked: int) -> bool:
    """Some j has at most `cap` members of A and of B in missing[j], the
    bitset of the sets without element j + 1."""
    for w in missing:
        if (a_picked & w).bit_count() <= cap and (b_picked & w).bit_count() <= cap:
            return True
    return False


def verify_lemma_fk(m: int, ell: int, method: str = "auto") -> FkReport:
    """Exhaustively test: cross-intersecting A,B over [m] with
    |A|,|B| >= 5 C(m-2,l-2) admit a j with |A(j-bar)|,|B(j-bar)| <= C(m-2,l-2).

    "exhaustive" enumerates every qualifying pair.  "pruned" checks, per A,
    only the maximal compatible B: the conclusion is antitone in B, so that
    single pair decides all of them.  "auto" picks exhaustive up to 10
    candidate sets and pruned above; any other method is refused.  A walks
    in ascending order over the A whose compatible set is nonempty
    (`Family.meeting_nonempty`): the threshold is at least 5, since
    C(m-2,l-2) >= 1 for l >= 2, so an A with no compatible set has no
    qualifying B.
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
    for a_picked, compat in u.meeting_nonempty(u.disjoint_from(u.members)):
        if a_picked.bit_count() < threshold or compat.bit_count() < threshold:
            continue
        b_picked = compat
        while True:  # pruned: compat alone; exhaustive: every submask of it
            if b_picked.bit_count() >= threshold:
                pairs += 1
                if not _good_j_exists(missing, cap, a_picked, b_picked):
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
    return sum(1 for _ in compatible_sets(lex_family(n, a, size_a), b))


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


def _shift_tables(ua: Family, ub: Family) -> list[tuple[int, dict[int, int]]]:
    """For each shift S_ij (i < j), in sweep order, on the members of the
    complete families ua and ub joined into one index space (ub's member x
    at index len(ua) + x): the bitset of the members that hold j but not i,
    and each one's index after the shift (j replaced by i)."""
    members = ua.members + ub.members
    index = {(x < len(ua), m): x for x, m in enumerate(members)}
    cols = [a_col | b_col << len(ua) for a_col, b_col in zip(ua.cols, ub.cols)]
    tables = []
    for i in range(1, ua.n):
        for j in range(i + 1, ua.n + 1):
            swap, src = 1 << (i - 1) | 1 << (j - 1), cols[j] & ~cols[i]
            tables.append((src, {x - 1: index[x <= len(ua), members[x - 1] ^ swap]
                                 for x in elements_of(src)}))
    return tables


def _shifted(picked: int, moving: int, image: dict[int, int]) -> int:
    """One shift on a bitset of member indices: each moving member goes to
    its image unless the image is already picked."""
    out = picked
    while moving:
        low = moving & -moving
        moving ^= low
        to = 1 << image[low.bit_length() - 1]
        if not picked & to:
            out ^= low | to
    return out


def _shift_route_ok(route: tuple[list, list[int]], a_picked: int, b_picked: int) -> bool:
    """Iterated simultaneous shifts must preserve cross-intersection throughout.
    route = (the _shift_tables of the a-sets and b-sets, the cross table),
    and A, B are bitsets of member indices, joined as in the tables.  The
    shifts S_ij sweep in order until a whole sweep changes neither side;
    after each shift that changes one, no row cross[x] with x in A may meet
    B."""
    tables, cross = route
    width = len(cross)
    picked = a_picked | b_picked << width
    changed = True
    while changed:
        changed = False
        for src, image in tables:
            moving = picked & src
            if not moving:
                continue
            nxt = _shifted(picked, moving, image)
            if nxt == picked:
                continue
            picked, changed = nxt, True
            rest, b_picked = picked & ((1 << width) - 1), picked >> width
            while rest:
                low = rest & -rest
                if cross[low.bit_length() - 1] & b_picked:
                    return False
                rest ^= low
    return True


def _submask(compat: int, value: int) -> int:
    """The bits of `value` deposited, low to high, into the set bits of
    `compat`: for value = 2^p - 1 - j, with p = popcount(compat), the jth
    submask of compat in descending order (j = 0 is compat itself)."""
    out = 0
    while value:
        low = compat & -compat
        if value & 1:
            out |= low
        compat ^= low
        value >>= 1
    return out


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

    Exhaustive mode checks every pair (A over all a-set families in
    ascending bitset order, B over the subsets of the sets compatible with
    A, from the largest down), counting each A's pairs in closed form, and
    runs the shift route on the pairs whose place in that order is a
    multiple of shift_sample_stride; trial mode runs it on every pair.  The
    route is skipped where A or B is empty or the lex test failed.  A cross
    table of more than MAX_SETS entries, a side of more than MAX_SETS/n
    sets (a trial peels a random A one member at a time, each step on an
    int as wide as that side), or an exhaustive run facing more than
    HILTON_EXHAUSTIVE_PAIRS pairs, is refused before any table is built,
    and so is a trial count or a stride below 1.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if shift_sample_stride < 1:
        raise ValueError(f"shift_sample_stride must be >= 1, got {shift_sample_stride}")
    if n < a + b:
        raise ValueError("requires n >= a + b")
    size_a, size_b = comb_capped(n, a, MAX_SETS), comb_capped(n, b, MAX_SETS)
    if size_a * size_b > MAX_SETS:
        raise ValueError(
            f"guard: the cross table has C({n},{a})*C({n},{b}) entries, "
            f"more than the {MAX_SETS}-set guard"
        )
    if max(size_a, size_b) * n > MAX_SETS:
        raise ValueError(f"guard: one side has {max(size_a, size_b)} sets, more than "
                         f"MAX_SETS/n = {MAX_SETS // n} at n={n}")
    bound = _pair_bound(n, a, b) if exhaustive else 0
    if bound > HILTON_EXHAUSTIVE_PAIRS:
        raise ValueError(
            f"guard: exhaustive mode may face up to {bound} pairs, "
            f"above the {HILTON_EXHAUSTIVE_PAIRS}-pair guard"
        )
    ua, ub = Family(n, a, iter_ksets(n, a)), Family(n, b, iter_ksets(n, b))
    cross = ub.disjoint_from(ua.members)
    lex_limit = _lex_limits(cross, len(ub))
    route = None  # the shift tables, built at the first route
    pairs = shifts = 0

    def routed(a_picked: int, b_picked: int) -> bool:
        nonlocal route, shifts
        if route is None:
            route = (_shift_tables(ua, ub), cross)
        shifts += 1
        return _shift_route_ok(route, a_picked, b_picked)

    def report(a_picked: int, b_picked: int) -> HiltonReport:
        return HiltonReport(
            n, a, b, exhaustive, pairs, shifts, False,
            (ua.subfamily(a_picked), ub.subfamily(b_picked)),
        )

    if not exhaustive:
        rng = random.Random(seed)
        for pairs in range(1, trials + 1):
            a_picked = rng.getrandbits(len(ua))
            b_picked = ub.meeting(a_picked, cross) & rng.getrandbits(len(ub))
            if b_picked.bit_count() > lex_limit[a_picked.bit_count()] or (
                    a_picked and b_picked and not routed(a_picked, b_picked)):
                return report(a_picked, b_picked)
        return HiltonReport(n, a, b, exhaustive, pairs, shifts, True)

    # Each A pairs with the 2^p submasks B of compat (p = popcount(compat)),
    # walked in descending order from compat itself, and the lex test is
    # monotone in |B|: compat alone decides it.  The pair at place `place`
    # of the walk (counted from 1) is routed when place is a multiple of the
    # stride, unless A or B is empty; B = {} comes last in each A's run.
    # An A with compat = {} has that one pair alone: only the A with a
    # nonempty compat are visited (meeting_nonempty), and the others are
    # counted in bulk.
    stride = shift_sample_stride
    last = -1  # the last A visited
    for a_picked, compat in ub.meeting_nonempty(cross):
        pairs += a_picked - last - 1
        last = a_picked
        p = compat.bit_count()
        if p > lex_limit[a_picked.bit_count()]:
            pairs += 1
            return report(a_picked, compat)
        start, pairs = pairs, pairs + (1 << p)
        if a_picked:
            for place in range(start - start % stride + stride, pairs, stride):
                b_picked = _submask(compat, pairs - place)
                if not routed(a_picked, b_picked):
                    pairs = place
                    return report(a_picked, b_picked)
    pairs += ua.full - last
    return HiltonReport(n, a, b, exhaustive, pairs, shifts, True)
