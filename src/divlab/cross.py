"""Brute-force oracles for the cross-intersecting lemmas.

Families of l-sets are bitsets over a family.Universe (the lex-ordered
l-sets of [n]), so pair enumeration and degree counts reduce to ands and
popcounts.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .family import Family, Universe, cross_intersecting, disjointness, iter_ksets
from .constructions import lex_family, shift_masks
from .formulas import binom


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
    single pair decides all of them.
    """
    if m < 2 * ell or ell < 2:
        raise ValueError("requires m >= 2*ell and ell >= 2")
    size = binom(m, ell)
    if size > 16:
        raise ValueError(f"guard: C({m},{ell})={size} candidate sets is too many")
    if method == "auto":
        method = "exhaustive" if size <= 10 else "pruned"
    u = Universe(m, ell)
    threshold = 5 * binom(m - 2, ell - 2)
    cap = binom(m - 2, ell - 2)
    pairs = 0

    def good_j_exists(a_picked: int, b_picked: int) -> bool:
        for e in range(1, m + 1):
            w = u.avoids[e]
            if (a_picked & w).bit_count() <= cap and (b_picked & w).bit_count() <= cap:
                return True
        return False

    for a_picked in range(1, u.full + 1):
        if a_picked.bit_count() < threshold:
            continue
        compat = u.meeting(a_picked)
        if compat.bit_count() < threshold:
            continue
        b_picked = compat
        while True:  # pruned: compat alone; exhaustive: every submask of it
            if b_picked.bit_count() >= threshold:
                pairs += 1
                if not good_j_exists(a_picked, b_picked):
                    return FkReport(
                        m, ell, threshold, cap, False, pairs, method,
                        (u.family(a_picked), u.family(b_picked)),
                    )
            if method == "pruned" or b_picked == 0:
                break
            b_picked = (b_picked - 1) & compat
    return FkReport(m, ell, threshold, cap, True, pairs, method)


def cross_max_compatible(n: int, a: int, b: int, size_a: int) -> int:
    """Number of b-sets of [n] meeting every member of the lex prefix L(n,a,size_a)."""
    if n < a + b:
        raise ValueError("requires n >= a + b")
    if math.comb(n, b) > 2_000_000:
        raise ValueError(f"guard: C({n},{b}) too large to enumerate")
    prefix = lex_family(n, a, size_a).members
    return sum(1 for cand in iter_ksets(n, b) if all(cand & m for m in prefix))


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


def _lex_pair_ok(n: int, a: int, b: int) -> dict[tuple[int, int], bool]:
    table = {}
    ca, cb = math.comb(n, a), math.comb(n, b)
    for s in range(ca + 1):
        la = lex_family(n, a, s)
        for t in range(cb + 1):
            table[(s, t)] = cross_intersecting(la, lex_family(n, b, t))
    return table


def _shift_route_ok(n: int, a_masks: tuple[int, ...], b_masks: tuple[int, ...]) -> bool:
    """Iterated simultaneous shifts must preserve cross-intersection throughout."""
    am, bm = set(a_masks), set(b_masks)
    changed = True
    while changed:
        changed = False
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                na, nb = shift_masks(am, i, j), shift_masks(bm, i, j)
                if na != am or nb != bm:
                    am, bm = na, nb
                    changed = True
                    if any(not x & y for x in am for y in bm):
                        return False
    return True


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

    Exhaustive mode enumerates every pair (A over all a-set families, B over
    the subsets of the sets compatible with A); the shift route is run on
    every pair when few, else on a deterministic stride sample.
    """
    if n < a + b:
        raise ValueError("requires n >= a + b")
    ua, ub = Universe(n, a), Universe(n, b)
    cross = disjointness(ua.masks, ub.masks)
    lex_ok = _lex_pair_ok(n, a, b)
    rng = random.Random(seed)

    def candidate_pairs():
        if exhaustive:
            for a_picked in range(ua.full + 1):
                compat = b_picked = ub.meeting(a_picked, cross)
                while True:  # every submask of compat
                    yield a_picked, b_picked
                    if b_picked == 0:
                        break
                    b_picked = (b_picked - 1) & compat
        else:
            for _ in range(trials):
                a_picked = rng.getrandbits(len(ua.masks))
                yield a_picked, ub.meeting(a_picked, cross) & rng.getrandbits(len(ub.masks))

    pairs = shifts = 0
    for a_picked, b_picked in candidate_pairs():
        pairs += 1
        ok = lex_ok[(a_picked.bit_count(), b_picked.bit_count())]
        if ok and a_picked and b_picked and (not exhaustive or pairs % shift_sample_stride == 0):
            shifts += 1
            ok = _shift_route_ok(n, ua.family(a_picked).members, ub.family(b_picked).members)
        if not ok:
            return HiltonReport(
                n, a, b, exhaustive, pairs, shifts, False,
                (ua.family(a_picked), ub.family(b_picked)),
            )
    return HiltonReport(n, a, b, exhaustive, pairs, shifts, True)
