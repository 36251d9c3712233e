"""Exact and heuristic maximization of C-diversity over intersecting families.

Exact mode decomposes by maximum-degree cap: gamma_C is not monotone under
supersets for C > 1, but within a fixed cap |F|-maximization is, so a
branch-and-bound over the lex order of k-sets is sound.  One driver
(`_walk_caps`) runs the caps in order for both the best value and the
extremal families; it keeps the incumbent, the winners and the stats.  A
cap that cannot beat the incumbent is skipped, and the others are searched
only above the size that would beat it (`_cap_floor`).  Within a cap a
subtree is cut when an upper bound on its sizes (the candidates, the
cap's size ceiling, and the room each picked set leaves) cannot reach
what the node needs.  The skip test and that cut read one ceiling per
cap (`_cap_ceiling`): the most sets a family under the cap can have when
it must beat the floor.  Every search branches only on the sets that are
lex-first in their orbit under the relabelings fixing every picked set
(`_cap_tables`).  Heuristic mode is seeded local search and never claims
exactness.  Every entry point makes one input check (`_check_input`:
1 <= k <= n, budget >= 1), and both modes start from the empty family,
whose gamma_C is 0, so neither reports a value below 0.
"""
from __future__ import annotations

import math
import random
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache, partial

from . import constructions as cons
from .constructions import MAX_SETS
from .family import Family, check_element_bits, comb_capped, elements_of, iter_ksets, union
from .formulas import fano_l_size, fano_lplus_size, fi_size, hm_size, star_size, triangle_size

DEFAULT_NODE_BUDGET = 5_000_000
DEFAULT_MOVE_BUDGET = 100_000
EXACT_UNIVERSE_GUARD = 40


@dataclass(frozen=True)
class SearchResult:
    best_family: Family
    best_value: Fraction
    exact: bool
    nodes_explored: int
    degree_cap_used: int | None = None
    stats: dict | None = None


@dataclass
class CapSearch:
    """Outcome of one max-|F| search under a degree cap.

    `size` and `family` are None when no family beats the search's `floor`.
    """

    size: int | None
    family: Family | None
    exact: bool
    nodes: int
    optima: list[Family] | None = None
    floor: int = -1


def _check_input(n: int, k: int, budget: int | None) -> None:
    """The check every search entry point makes: k-sets with k >= 1 (at k = 0
    the one set is empty) and a node or move budget of at least 1."""
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if not 1 <= k <= n:
        raise ValueError(f"uniformity k={k} out of range for n={n}")


def _check_exact_input(n: int, k: int, budget: int | None, override_guard: bool) -> None:
    _check_input(n, k, budget)
    if not override_guard and comb_capped(n, k, EXACT_UNIVERSE_GUARD) > EXACT_UNIVERSE_GUARD:
        raise ValueError(
            f"guard: exact search refused: C({n},{k}) is more than the "
            f"{EXACT_UNIVERSE_GUARD}-set guard (pass override_guard=True)"
        )


def max_size_with_degree_cap(
    n: int,
    k: int,
    cap: int,
    *,
    budget: int | None = None,
    collect_optima: bool = False,
    override_guard: bool = False,
    floor: int = -1,
) -> CapSearch:
    """Exact maximum size of an intersecting k-family on [n] with max degree <= cap.

    Branch-and-bound over the lex order; a nonempty optimum can always be
    relabeled to contain {1,...,k}, so that member is forced at the root.
    Each node branches only on the sets that are lex-first in their orbit
    under the relabelings fixing every picked set (`_cap_tables`).  Let G
    be the lex-first root-holding member of a class of isomorphic largest
    families.  If g fixes the picked sets X_0..X_d of a node on G's path
    and g(X_{d+1}) < X_{d+1}, then g(G) < G is in the class and holds the
    root; so every node on that path is kept.  The search returns the
    family a full search does, visits no node it does not, and (when
    collecting) keeps a subsequence of its optima holding every class.
    Only sizes above `floor` count: the search starts with that incumbent
    and no other, since its first descent is the greedy leaf, and returns
    no family (size None) when nothing beats it.  A maximum
    above the floor comes back with the same family and optima as without
    a floor, since no ancestor of the first maximal node is ever cut.

    A node is cut when an upper bound on the sets its descendants can add
    falls short of what they need: the candidates left, the cap's ceiling
    (`_cap_ceiling`, the most sets a family under the cap with more than
    `floor` sets can have) less the size, or the room of some picked set
    A.  Each later set meets A in some e of A, and at most
    min(cap - deg(e), |candidates holding e|) later sets hold e, so the
    room of A is the sum of these over A.  A node only needs families of
    more than `floor` sets, so each is a true bound: it never cuts an
    ancestor of the first maximal node in lex DFS order, nor (when
    collecting) of any maximal node, and the result is the same as with
    the candidate bound alone.
    """
    _check_exact_input(n, k, budget, override_guard)
    limit = DEFAULT_NODE_BUDGET if budget is None else budget
    if cap <= 0:
        if floor >= 0:
            return CapSearch(None, None, True, 0, [] if collect_optima else None, floor)
        empty = Family(n, k)
        return CapSearch(0, empty, True, 0, [empty] if collect_optima else None, floor)

    ceiling = _cap_ceiling(n, k, cap, floor)
    u, later, elems, keep, firsts = _cap_tables(n, k)
    cols, full = u.cols, u.full
    slack = [cap] * (n + 1)  # cap minus the degree, per element
    path: list[int] = []  # the picked sets, in order

    def take(i: int, rest: int) -> int:
        """Pick set i; the sets of `rest` that may still follow it."""
        path.append(i)
        cands = rest & later[i]
        for e in elems[i]:
            slack[e] -= 1
            if not slack[e]:
                cands &= ~cols[e]
        return cands

    def drop(i: int) -> None:
        path.pop()
        for e in elems[i]:
            slack[e] += 1

    best, best_size = 0, floor
    all_best: list[int] = []  # the picked sets of each node at best_size, in DFS order
    nodes = 0
    out_of_budget = False

    def descend(picked: int, size: int, cands: int, together: int) -> None:
        nonlocal best_size, best, nodes, out_of_budget
        nodes += 1
        if nodes > limit:
            out_of_budget = True
            return
        if size > best_size:
            best_size = size
            best = picked
            if collect_optima:
                all_best.clear()
        if collect_optima and size == best_size > floor:
            all_best.append(picked)
        # the sets a descendant must add to beat the floor and the best (to
        # tie the best when collecting); cut when a bound says it cannot
        need = max(floor, best_size - collect_optima) + 1 - size
        if min(cands.bit_count(), ceiling - size) < need:
            return
        # room: each later set meets every picked set A in some e of A, and
        # at most min(slack[e], |cands with e|) later sets hold e
        room = [free if free < (held := (cands & col).bit_count()) else held
                for free, col in zip(slack, cols)]
        at = room.__getitem__
        for a in path:
            if sum(map(at, elems[a])) < need:
                return
        todo = cands & firsts(together)  # the lex-first set of each orbit
        while todo:  # branch in lex order
            if out_of_budget:
                return
            low = todo & -todo
            todo ^= low
            i = low.bit_length() - 1
            descend(picked | low, size + 1, take(i, cands), together & keep[i])
            drop(i)

    # root forcing: set 0 is {1,...,k}
    descend(1, 1, take(0, full), keep[0])

    optima = None
    if collect_optima:
        optima = sorted((u.subfamily(p) for p in all_best), key=lambda f: f.members)
    if not best:
        return CapSearch(None, None, not out_of_budget, nodes, optima, floor)
    return CapSearch(best_size, u.subfamily(best), not out_of_budget, nodes, optima, floor)


@lru_cache(maxsize=1)
def _cap_tables(n: int, k: int):
    """The tables of every cap search over the k-sets of [n], built once:
    the universe `u` in lex order (whose `cols` give the sets holding each
    element), `later` (the sets after set i that meet it), `elems` (each
    set's elements) and the orbit rule's `keep` and `firsts`.  None depends
    on the cap and none is written after the build, so every cap of a walk,
    the extremal walk and back-to-back searches at one (n, k) share one
    build and one `firsts` memo.  The tables of the last (n, k) live until
    a search at another (n, k) replaces them.

    The relabelings that fix every picked set permute each atom (a class of
    elements in exactly the same picked sets) freely, so the orbit of a set
    B holds every set with the same number of elements in each atom, and
    its lex-first member takes the first elements of each atom.  B is that
    member iff it holds no e of an atom without some earlier p of the same
    atom: swapping p and e would give an earlier set.

    Two elements share an atom iff no picked set holds exactly one of
    them, so a node keeps its atoms as the bitset `together` of the pairs
    p < e that no picked set splits (bit (p-1)n + e-1), and picking set i
    ANDs in keep[i], the pairs that set i does not split.  firsts(together)
    is the bitset of the sets that are lex-first in their orbit, memoized
    by the atom partition, so it holds at most Bell(n) entries.  At the
    root {1,...,k} these are the sets [j] + {k+1, ..., 2k-j}, 0 <= j <= k,
    that fit in [n].
    """
    u = Family(n, k, iter_ksets(n, k))
    cols, full = u.cols, u.full
    later = [union(cols, m) >> (i + 1) << (i + 1) for i, m in enumerate(u.members)]
    elems = [elements_of(m) for m in u.members]
    every = (1 << n) - 1
    keep = []
    for m in u.members:
        together = 0
        for p in range(1, n + 1):
            side = m if m >> (p - 1) & 1 else every ^ m  # the elements on p's side of m
            together |= (side >> p) << (p + (p - 1) * n)  # the pairs (p, e > p) on it
        keep.append(together)

    @cache
    def firsts(together: int) -> int:
        breaks = 0  # the sets holding some e but not an earlier p of its atom
        for bit in elements_of(together):
            p, e = divmod(bit - 1, n)
            breaks |= cols[e + 1] & (full ^ cols[p + 1])
        return full ^ breaks

    return u, later, elems, keep, firsts


def unconstrained_max(n: int, k: int) -> int:
    """Largest intersecting family: C(n-1,k-1) for n >= 2k, else all of C(n,k)."""
    return math.comb(n - 1, k - 1) if n >= 2 * k else math.comb(n, k)


def _cap_ceiling(n: int, k: int, cap: int, floor: int) -> int:
    """The most sets an intersecting k-family on [n] with max degree <= cap
    and more than `floor` sets can have.

    That is at most the unconstrained maximum and n*cap/k, and for cap >= 1
    also 1 + k(cap - 1): every other member meets a fixed member A in one
    of its k elements, each in at most cap - 1 others.  When floor >= cap
    the family has more sets than its max degree, so it is no star, and
    for n > 2k it has at most hm_size(n, k) sets (Hilton-Milner).
    """
    top = min(unconstrained_max(n, k), n * cap // k)
    if cap >= 1:
        top = min(top, 1 + k * (cap - 1))
    if floor >= cap and n > 2 * k:
        top = min(top, hm_size(n, k))
    return top


def _cap_floor(
    n: int, k: int, c: Fraction, cap: int, incumbent: Fraction, collect_optima: bool
) -> int | None:
    """The size a family under `cap` must beat to matter, or None to skip the cap.

    With max degree <= cap, gamma_C > incumbent needs |F| > incumbent + C*cap
    (>= when collecting ties); the cap is skipped when no family with more
    sets than that floor fits under it (`_cap_ceiling`).
    """
    need = incumbent + c * cap
    floor = math.ceil(need) - 1 if collect_optima else math.floor(need)
    if _cap_ceiling(n, k, cap, floor) <= floor:
        return None
    return floor


def _walk_caps(
    n: int,
    k: int,
    c: Fraction,
    *,
    budget: int | None,
    override_guard: bool,
    collect_optima: bool,
) -> tuple[Fraction, list[Family], int, dict]:
    """The best gamma_C, its winners, its cap and the stats, over caps 0, 1, ...

    The one exact cap loop.  The incumbent starts at the empty family's 0,
    which is the first winner; each cap is skipped or searched above the
    floor `_cap_floor` gives, and each family found (each optimum when
    collecting) is measured once.  A direct search keeps the first family
    at the best value: its floor already asks for more than the incumbent.
    A collecting search keeps every tie, and refuses a truncated cap, whose
    optima may be missing some.  `stats` lists each cap searched (its floor,
    nodes, size or None when nothing beat the floor, and exact flag), the
    caps skipped and the caps that hit the node budget.

    The input and guard checks come first, since every cap may be skipped.
    C < 0 is refused: a cap's largest family need not have the largest
    max degree under it, so max-|F| per cap no longer decides gamma_C.
    """
    _check_exact_input(n, k, budget, override_guard)
    c = Fraction(c)
    if c < 0:
        raise ValueError(f"exact search needs C >= 0, got {c}")
    best, winners, best_cap = Fraction(0), [Family(n, k)], 0
    runs: list[dict] = []
    skipped: list[int] = []
    for cap in range(0, math.comb(n - 1, k - 1) + 1):
        floor = _cap_floor(n, k, c, cap, best, collect_optima)
        if floor is None:
            skipped.append(cap)
            continue
        res = max_size_with_degree_cap(
            n, k, cap, budget=budget, collect_optima=collect_optima,
            override_guard=override_guard, floor=floor,
        )
        runs.append({"cap": cap, "floor": floor, "nodes": res.nodes,
                     "size": res.size, "exact": res.exact})
        if collect_optima and not res.exact:
            raise RuntimeError("budget exceeded while collecting extremal families")
        if res.family is None:
            continue
        for fam in res.optima if collect_optima else [res.family]:
            value = fam.c_diversity(c)
            if value > best:
                best, winners, best_cap = value, [fam], cap
            elif value == best and fam not in winners:
                winners.append(fam)
    stats = {
        "caps": runs,
        "skipped": skipped,
        "truncated": [run["cap"] for run in runs if not run["exact"]],
    }
    return best, winners, best_cap, stats


def max_c_diversity_exact(
    n: int,
    k: int,
    c: Fraction,
    *,
    budget: int | None = None,
    override_guard: bool = False,
) -> SearchResult:
    """Exact max of |F| - C max-degree by iterating over degree caps
    (`_walk_caps`, whose stats it reports)."""
    best, winners, cap, stats = _walk_caps(
        n, k, c, budget=budget, override_guard=override_guard, collect_optima=False
    )
    return SearchResult(
        winners[0], best, not stats["truncated"], sum(run["nodes"] for run in stats["caps"]),
        degree_cap_used=cap, stats=stats,
    )


def extremal_c_diversity_families(
    n: int,
    k: int,
    c: Fraction,
    *,
    budget: int | None = None,
    override_guard: bool = False,
) -> tuple[Fraction, list[Family]]:
    """Exact maximum C-diversity with each isomorphism class of the
    families attaining it, at least once (a class may come back twice).

    Every maximizer has maximal size at its own degree cap, and each cap
    search collects every class of size-optima, so re-measuring them
    catches every class.  The winners are a subsequence, in order, of a
    full search's: every maximizer holding {1,...,k}.  The floors keep
    ties, so the winners come in the same order as without them.
    """
    best, winners, _, _ = _walk_caps(
        n, k, c, budget=budget, override_guard=override_guard, collect_optima=True
    )
    return best, winners


# -- heuristic local search ----------------------------------------------------


def _seed_plan(n: int, k: int) -> list:
    """The known extremal candidates nonempty at (n, k), in seed order, as
    (size by closed form, builder) pairs; nothing is built."""
    plan = [(star_size(n, k), partial(cons.full_star, n, k))]
    if k >= 2 and n >= 3:
        plan += [(fi_size(n, k, 3), partial(cons.family_fi, n, k, 3)),
                 (triangle_size(n, k), partial(cons.family_triangle, n, k))]
    if n >= 7 and k >= 3:
        plan.append((fano_l_size(n, k), partial(cons.fano_l, n, k)))
        if k >= 4:  # F_L+ is F_L at k = 3, so it is not built
            plan.append((fano_lplus_size(n, k), partial(cons.fano_lplus, n, k)))
    return [(size, build) for size, build in plan if size]


def canonical_seeds(n: int, k: int) -> list[Family]:
    """The known extremal candidates, whenever constructible at (n, k)."""
    return [build() for _, build in _seed_plan(n, k)]


def _start_state(n: int, members, degrees=None) -> tuple:
    """A slot's starting state: (members, live, deg, count, delta).

    `members` is a list, so a uniform pick and a swap-removal are O(1), and
    `live` the set of its masks, for an O(1) membership test.  `deg[x]` is
    the degree of element x (deg[0] is 0) and `count[d]` the number of
    elements of degree d, so a removal lowers Delta by one exactly when
    `count[Delta]` falls to 0.  `members` is any iterable of masks, or,
    when the degrees are given (`degrees[x-1]` for element x, as
    `Family.degrees` has them), a sorted list that the state takes over: a
    seed's state decodes none of its members and makes no copy of them.
    """
    if degrees is None:
        members = sorted(members)
        deg = [0] * (n + 1)
        for m in members:
            for e in elements_of(m):
                deg[e] += 1
    else:
        deg = [0, *degrees]
    count: defaultdict[int, int] = defaultdict(int)
    for d in deg[1:]:
        count[d] += 1
    return members, set(members), deg, count, max(deg)


_GREEDY_TRIES = 60  # random k-sets a random start tries to add


def _greedy_random(n: int, k: int, rng: random.Random) -> set[int]:
    first = rng.randrange(n) + 1
    mask = 1 << (first - 1)
    for e in rng.sample([*range(1, first), *range(first + 1, n + 1)], k - 1):
        mask |= 1 << (e - 1)
    fam = {mask}
    for _ in range(_GREEDY_TRIES):
        cand = 0
        sample = rng.sample(range(1, n + 1), k)
        for e in sample:
            cand |= 1 << (e - 1)
        if cand not in fam and all(cand & m for m in fam):
            fam.add(cand)
    return fam


def max_c_diversity_heuristic(
    n: int,
    k: int,
    c: Fraction,
    *,
    budget: int | None = None,
    seed: int = 0,
) -> SearchResult:
    """Seeded local search (add/remove/swap accepting strict improvement).

    One restart slot per canonical seed and as many (at least four) random
    ones share the budget and run in order in one process.  The result is
    deterministic for a given (seed, budget), and is the empty family when
    every slot ends below 0, or at once when `_cap_floor` closes every cap.
    `stats` counts the slots run, the random restarts (after 400 rejected
    moves in a row) and the moves tried and accepted per kind.  An (n, k)
    whose star seed has more than MAX_SETS sets is refused before any set is
    built, and so is one where building a seed would be refused (the seed
    guards are checked on `_seed_plan`'s sizes before the caps are walked).
    """
    c = Fraction(c)
    _check_input(n, k, budget)
    budget = DEFAULT_MOVE_BUDGET if budget is None else budget
    if comb_capped(n - 1, k - 1, MAX_SETS) > MAX_SETS:
        raise ValueError(
            f"guard: heuristic search refused: the star seed has C({n - 1},{k - 1}) sets, "
            f"more than the {MAX_SETS}-set guard"
        )
    # the seeds' own guards, read off their sizes before the cap walk, so a
    # search whose seeds would be refused is refused even where no seed is
    # built; every binomial in those sizes is at most the star's, capped above
    largest = max(size for size, _ in _seed_plan(n, k))
    if largest > MAX_SETS:
        raise ValueError(
            f"guard: heuristic search refused: a seed has {largest} sets, "
            f"more than the {MAX_SETS}-set guard"
        )
    check_element_bits(largest, k, n)
    # exact mode's cap floor with ties kept, skipping a cap whose ceiling is
    # at most the floor; once C*cap exceeds the largest intersecting family
    # it closes every later cap too, and so it does at every cap when
    # C >= k >= 2 (the ceiling's degree term 1 + k(cap - 1) < C*cap) or
    # C*k > n (its capacity term n*cap/k < C*cap)
    cap = 1
    while _cap_floor(n, k, c, cap, Fraction(0), True) is None:
        if c * cap > unconstrained_max(n, k) or c >= k > 1 or c * k > n:
            starts, budgets = [], []  # no nonempty family reaches 0: build no seed, run no slot
            break
        cap += 1
    else:
        # each seed as its sorted member list, which its slot's state takes
        # over, and its degrees, read off its trace plan; the seed families are
        # freed here, so a slot holds one copy of the members
        starts = [(sorted(s.members), s.degrees) for s in canonical_seeds(n, k)]
        starts += [None] * max(4, len(starts))  # the random slots
        slots = len(starts)
        per = max(1, budget // slots)
        budgets = [per] * (slots - 1) + [max(1, budget - per * (slots - 1))]
    # a running max with a structural tie-break; it starts from the empty
    # family at score 0, as exact mode does, and () sorts before every
    # nonempty family
    best = (0, ())
    restarts, tried, taken = 0, [0, 0, 0], [0, 0, 0]
    for idx, (start, moves) in enumerate(zip(starts, budgets)):
        found, again, slot_tried, slot_taken = _run_restart(
            n, k, c, start, moves, seed * 7919 + idx
        )
        best = max(best, found)
        restarts += again
        tried = [x + y for x, y in zip(tried, slot_tried)]
        taken = [x + y for x, y in zip(taken, slot_taken)]
    stats = {
        "slots": len(budgets),
        "restarts": restarts,
        "tried": dict(zip(_MOVE_KINDS, tried)),
        "accepted": dict(zip(_MOVE_KINDS, taken)),
    }
    fam = Family(n, k, best[1])
    return SearchResult(fam, fam.c_diversity(c), False, sum(budgets), stats=stats)


_MOVE_KINDS = ("add", "remove", "swap")  # the move indices of _run_restart


def _keep_best(best: tuple | None, score: int, members: list[int], live: set[int]) -> tuple:
    """Snapshot an abandoned state, at `score`, if it beats the best so far.

    Every accepted move strictly raises the score, so a state is at its best
    when it is abandoned, and snapshotting only then keeps the best score and
    the first state to reach it.  The state is not used after this, so a
    snapshot empties its member set and sorts its own member list: a
    seed-sized snapshot is made beside neither the set nor a sorted copy.
    """
    if best is None or score > best[0]:
        live.clear()
        members.sort()
        return score, tuple(members)
    return best


def _run_restart(n: int, k: int, c: Fraction, start, moves: int, rng_seed: int):
    """One slot: local search from `start`, a seed's (sorted member list,
    degrees), or from a random start when None, for `moves` moves.  Returns
    the best (score, sorted members), the random restarts, and the moves
    tried and accepted per kind.  Every start is nonempty, and no move
    empties a family: only a family of two or more members loses one.

    The score is q|F| - p*Delta for C = p/q, an exact integer proxy for
    gamma_C.  Each move rolls its kind: add (always when |F| <= 1), remove
    or swap.  remove and swap first take out a random victim; add and swap
    then draw a random k-set through a random element of a random member
    and put it in if it is new, meets every member and strictly raises the
    score.  A remove is kept if it strictly raises the score; a rejected
    remove or swap puts the victim back, last in the list.  After 400
    rejected moves in a row the state is snapshotted (`_keep_best`) and
    replaced by a random start.

    The whole move runs in this one frame on local state, and each element
    an add or a removal touches moves by one degree, so a move costs O(k)
    beyond the compatibility scan.  Every index is drawn as CPython's
    `randrange(size)` and `choice` draw it (3.10 on): getrandbits(width),
    redrawn while it is size or more, width being size.bit_length().  So
    the search reads the same random stream as one that calls them, and a
    candidate's elements are drawn as randrange(n), redrawn while taken.
    """
    rng = random.Random(rng_seed)
    rand, getrandbits = rng.random, rng.getrandbits
    p, q = c.numerator, c.denominator
    n_width, k_width = n.bit_length(), k.bit_length()
    if start is None:
        start = (_greedy_random(n, k, rng),)
    members, live, deg, count, delta = _start_state(n, *start)
    size = len(members)
    best = None
    tried = [0, 0, 0]
    taken = [0, 0, 0]
    restarts = 0
    since_accept = 0
    for _ in range(moves):
        roll = rand()
        old = q * size - p * delta
        if roll < 0.5 or size <= 1:
            move = 0
        else:
            move = 1 if roll < 0.75 else 2
            # take out members[i], the last member filling its slot
            width = size.bit_length()
            i = getrandbits(width)
            while i >= size:
                i = getrandbits(width)
            victim = members[i]
            live.remove(victim)
            last = members.pop()
            size -= 1
            if last != victim:
                members[i] = last
            victim_elems = elements_of(victim)
            for e in victim_elems:
                d = deg[e]
                count[d] -= 1
                deg[e] = d = d - 1
                count[d] += 1
            if not count[delta]:  # the peak emptied: Delta falls by one
                delta -= 1
        if move == 1:
            accepted = q * size - p * delta > old
        else:
            # the anchor x: element j of a random member, found by clearing
            # the member's j lowest bits
            width = size.bit_length()
            i = getrandbits(width)
            while i >= size:
                i = getrandbits(width)
            anchor = members[i]
            j = getrandbits(k_width)
            while j >= k:
                j = getrandbits(k_width)
            for _ in range(j):
                anchor &= anchor - 1
            mask = anchor & -anchor
            drawn = [mask.bit_length()]
            for _ in range(k - 1):
                r = getrandbits(n_width)
                while r >= n or mask >> r & 1:
                    r = getrandbits(n_width)
                mask |= 1 << r
                drawn.append(r + 1)
            # Delta after the add; the O(k) score test before the O(|F|) scan
            top = delta
            for e in drawn:
                if deg[e] >= top:
                    top = deg[e] + 1
            accepted = (
                q * (size + 1) - p * top > old
                and mask not in live
                and all(map(mask.__and__, members))
            )
            if accepted:
                live.add(mask)
                members.append(mask)
                size += 1
                for e in drawn:
                    d = deg[e]
                    count[d] -= 1
                    deg[e] = d = d + 1
                    count[d] += 1
                delta = top
        if move and not accepted:
            live.add(victim)
            members.append(victim)
            size += 1
            for e in victim_elems:
                d = deg[e]
                count[d] -= 1
                deg[e] = d = d + 1
                count[d] += 1
                if d > delta:
                    delta = d
        tried[move] += 1
        if accepted:
            taken[move] += 1
            since_accept = 0
        else:
            since_accept += 1
            if since_accept > 400:
                best = _keep_best(best, q * size - p * delta, members, live)
                members, live, deg, count, delta = _start_state(n, _greedy_random(n, k, rng))
                size = len(members)
                restarts += 1
                since_accept = 0
    return _keep_best(best, q * size - p * delta, members, live), restarts, tried, taken


def max_c_diversity(
    n: int,
    k: int,
    c: Fraction,
    mode: str = "exact",
    *,
    budget: int | None = None,
    seed: int = 0,
    workers: int = 1,
    override_guard: bool = False,
) -> SearchResult:
    """Front door: exact degree-cap decomposition or seeded local search.

    Both modes run in one process.  `workers` must be >= 1 and is otherwise
    unused: no result depends on it.
    """
    c = Fraction(c)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if mode == "exact":
        return max_c_diversity_exact(n, k, c, budget=budget, override_guard=override_guard)
    if mode == "heuristic":
        return max_c_diversity_heuristic(n, k, c, budget=budget, seed=seed)
    raise ValueError(f"unknown mode {mode!r}")
