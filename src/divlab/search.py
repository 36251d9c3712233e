"""Exact and heuristic maximization of C-diversity over intersecting families.

Exact mode decomposes by maximum-degree cap: gamma_C is not monotone under
supersets for C > 1, but within a fixed cap |F|-maximization is, so a
branch-and-bound over the lex order of k-sets is sound.  A cap that cannot
beat the best gamma_C found so far is skipped, and the others are searched
only above the size that would beat it (`_cap_floor`).  Within a cap a
subtree is cut when an upper bound on its sizes (the candidates, the
degree capacity, and the room each picked set leaves) cannot reach what
the node needs.  Heuristic mode is seeded local search and never claims
exactness.  Both modes take 1 <= k <= n and start from the empty family,
whose gamma_C is 0, so neither reports a value below 0.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .constructions import MAX_SETS
from .family import Family, comb_capped, elements_of, iter_ksets, mask_of
from .formulas import hm_size

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


def _check_k(n: int, k: int) -> None:
    """Both modes search k-sets with k >= 1: at k = 0 the one set is empty."""
    if not 1 <= k <= n:
        raise ValueError(f"uniformity k={k} out of range for n={n}")


def _check_exact_input(n: int, k: int, override_guard: bool) -> None:
    _check_k(n, k)
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
    Unless collecting, the root then branches only on the lex-first set of
    each orbit of its stabilizer (`_root_orbit_reps`); the search returns
    the same family as a full root, with fewer nodes.
    Only sizes above `floor` count: the search starts with that incumbent
    and returns no family (size None) when nothing beats it.  A maximum
    above the floor comes back with the same family and optima as without
    a floor, since no ancestor of the first maximal node is ever cut.

    A node is cut when an upper bound on the sets its descendants can add
    falls short of what they need: the candidates left, the degree capacity
    left over k, or the room of some picked set A.  Each later set meets A
    in some e of A, and at most min(cap - deg(e), |candidates holding e|)
    later sets hold e, so the room of A is the sum of these over A.  Each
    is a true bound, so it never cuts an ancestor of the first maximal node
    in lex DFS order, nor (when collecting) of any maximal node: the result
    is the same as with the candidate and capacity bounds alone.
    """
    _check_exact_input(n, k, override_guard)
    limit = DEFAULT_NODE_BUDGET if budget is None else budget
    if cap <= 0:
        if floor >= 0:
            return CapSearch(None, None, True, 0, [] if collect_optima else None, floor)
        empty = Family(n, k)
        return CapSearch(0, empty, True, 0, [empty] if collect_optima else None, floor)

    u = Family(n, k, iter_ksets(n, k))
    disjoint, cols = u.disjoint, u.cols
    missing = [u.full ^ col for col in cols]  # the sets without each element
    elems = [elements_of(m) for m in u.members]
    slack = [cap] * (n + 1)  # cap minus the degree, per element
    path: list[int] = []  # the picked sets, in order

    def take(i: int, rest: int) -> int:
        """Pick set i; the sets of `rest` that may still follow it."""
        path.append(i)
        cands = rest & ~disjoint[i]
        for e in elems[i]:
            slack[e] -= 1
            if not slack[e]:
                cands &= missing[e]
        return cands

    def drop(i: int) -> None:
        path.pop()
        for e in elems[i]:
            slack[e] += 1

    # greedy incumbent for pruning power: the leftmost leaf of the search
    best = 0
    cands = u.full
    while cands:
        low = cands & -cands
        best |= low
        cands = take(low.bit_length() - 1, cands ^ low)
    for i in elements_of(best):
        drop(i - 1)
    best_size = best.bit_count()
    if best_size <= floor:
        best, best_size = 0, floor
    all_best = [best] if collect_optima and best else []
    nodes = 0
    out_of_budget = False

    def descend(picked: int, size: int, cands: int, capacity: int, branch: int = -1) -> None:
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
        if min(cands.bit_count(), capacity // k) < need:
            return
        # room: each later set meets every picked set A in some e of A, and
        # at most min(slack[e], |cands with e|) later sets hold e
        room = [free if free < (held := (cands & col).bit_count()) else held
                for free, col in zip(slack, cols)]
        at = room.__getitem__
        for a in path:
            if sum(map(at, elems[a])) < need:
                return
        while cands:  # branch in lex order on the sets of `branch`
            if out_of_budget:
                return
            low = cands & -cands
            cands ^= low
            if low & branch:
                i = low.bit_length() - 1
                descend(picked | low, size + 1, take(i, cands), capacity - k)
                drop(i)

    # root forcing: set 0 is {1,...,k}
    reps = -1 if collect_optima else _root_orbit_reps(u)
    descend(1, 1, take(0, u.full ^ 1), n * cap - k, reps)

    optima = None
    if collect_optima:
        optima = sorted(
            (u.subfamily(p) for p in set(all_best) if p.bit_count() == best_size),
            key=lambda f: f.members,
        )
    if not best:
        return CapSearch(None, None, not out_of_budget, nodes, optima, floor)
    return CapSearch(best_size, u.subfamily(best), not out_of_budget, nodes, optima, floor)


def _root_orbit_reps(u: Family) -> int:
    """Bitset of the sets rep_j = [j] + {k+1, ..., 2k-j}, 0 < j < k, that fit in [n].

    The stabilizer S_k x S_{n-k} of the root [k] sorts the other k-sets into
    orbits by j = |B & [k]|, and rep_j is the lex-first set of its orbit;
    the sets before it all meet [k] in more than j elements.  An optimum
    whose non-root members meet [k] in at most j elements, some in exactly
    j, relabels to one holding rep_j and none of the sets before it, so
    its branch suffices.  The first largest family in lex DFS order lies
    under such a branch, and that subtree is searched as before.
    """
    n, k = u.n, u.k
    reps = 0
    for j in range(k - 1, 0, -1):
        if 2 * k - j <= n:
            reps |= 1 << u.members.index(mask_of([*range(1, j + 1), *range(k + 1, 2 * k - j + 1)]))
    return reps


def unconstrained_max(n: int, k: int) -> int:
    """Largest intersecting family: C(n-1,k-1) for n >= 2k, else all of C(n,k)."""
    return math.comb(n - 1, k - 1) if n >= 2 * k else math.comb(n, k)


def _cap_floor(
    n: int, k: int, c: Fraction, cap: int, incumbent: Fraction, collect_optima: bool
) -> int | None:
    """The size a family under `cap` must beat to matter, or None to skip the cap.

    With max degree <= cap, gamma_C > incumbent needs |F| > incumbent + C*cap
    (>= when collecting ties), while |F| <= min(unconstrained max, n*cap/k),
    and for cap >= 1 also |F| <= 1 + k(cap - 1): every other member meets a
    fixed member A in one of its k elements, each in at most cap - 1 others.
    For C >= 1 a star scores |F|(1 - C) <= 0, so when the floor asks for
    gamma_C > 0 (always when not collecting, since the incumbent is >= 0)
    only a non-star counts, and for n > 2k it has |F| <= hm_size(n, k).
    """
    need = incumbent + c * cap
    floor = math.ceil(need) - 1 if collect_optima else math.floor(need)
    top = min(unconstrained_max(n, k), n * cap // k)
    if cap >= 1:
        top = min(top, 1 + k * (cap - 1))
    if c >= 1 and n > 2 * k and (incumbent > 0 or not collect_optima):
        top = min(top, hm_size(n, k))
    if top <= floor:
        return None
    return floor


def _cap_searches(
    n: int,
    k: int,
    c: Fraction,
    *,
    budget: int | None,
    override_guard: bool,
    collect_optima: bool = False,
) -> Iterator[tuple[int, CapSearch | None]]:
    """(cap, max-|F| search under that cap, or None if skipped) for caps 0, 1, ...

    The incumbent starts at the empty family's value 0 and rises with every
    family found; each cap is skipped or searched above the floor
    `_cap_floor` gives.  Yielding one cap at a time keeps a single optima
    list alive.

    The input and guard checks come first, since every cap may be skipped.
    C < 0 is refused: a cap's largest family need not have the largest
    max degree under it, so max-|F| per cap no longer decides gamma_C.
    """
    _check_exact_input(n, k, override_guard)
    if c < 0:
        raise ValueError(f"exact search needs C >= 0, got {c}")
    incumbent = Fraction(0)
    for cap in range(0, math.comb(n - 1, k - 1) + 1):
        floor = _cap_floor(n, k, c, cap, incumbent, collect_optima)
        if floor is None:
            yield cap, None
            continue
        res = max_size_with_degree_cap(
            n, k, cap, budget=budget, collect_optima=collect_optima,
            override_guard=override_guard, floor=floor,
        )
        yield cap, res
        if res.family is not None:
            for fam in res.optima if collect_optima else [res.family]:
                incumbent = max(incumbent, fam.c_diversity(c))


def max_c_diversity_exact(
    n: int,
    k: int,
    c: Fraction,
    *,
    budget: int | None = None,
    override_guard: bool = False,
) -> SearchResult:
    """Exact max of |F| - C max-degree by iterating over degree caps.

    `stats` lists each cap searched (its floor, nodes, size or None when
    nothing beat the floor, and exact flag), the caps skipped by the
    incumbent, and the caps that hit the node budget.
    """
    c = Fraction(c)
    best_val = Fraction(0)  # the empty family, at cap 0
    best_fam = Family(n, k)
    best_cap = 0
    runs: list[dict] = []
    skipped: list[int] = []
    for cap, res in _cap_searches(n, k, c, budget=budget, override_guard=override_guard):
        if res is None:
            skipped.append(cap)
            continue
        runs.append({"cap": cap, "floor": res.floor, "nodes": res.nodes,
                     "size": res.size, "exact": res.exact})
        if res.family is None:
            continue
        value = res.family.c_diversity(c)
        if value > best_val:
            best_val, best_fam, best_cap = value, res.family, cap
    stats = {
        "caps": runs,
        "skipped": skipped,
        "truncated": [run["cap"] for run in runs if not run["exact"]],
    }
    return SearchResult(
        best_fam, best_val, not stats["truncated"], sum(run["nodes"] for run in runs),
        degree_cap_used=best_cap, stats=stats,
    )


def extremal_c_diversity_families(
    n: int,
    k: int,
    c: Fraction,
    *,
    budget: int | None = None,
    override_guard: bool = False,
) -> tuple[Fraction, list[Family]]:
    """Exact maximum C-diversity together with every family attaining it.

    Every maximizer has maximal size at its own degree cap, so collecting
    all size-optima per cap and re-measuring catches them all (up to the
    root relabeling, which canonical forms absorb).  The floors keep ties
    with the incumbent, and a maximizer first appears at the cap equal to
    its max degree, so the winners come in the same order as without them.
    """
    c = Fraction(c)
    best_val = Fraction(0)  # the empty family, which cap 0 always collects
    winners: list[Family] = []
    for _, res in _cap_searches(
        n, k, c, budget=budget, override_guard=override_guard, collect_optima=True
    ):
        if res is None:
            continue
        if not res.exact:
            raise RuntimeError("budget exceeded while collecting extremal families")
        for fam in res.optima:
            value = fam.c_diversity(c)
            if value > best_val:
                best_val = value
                winners = [fam]
            elif value == best_val and fam not in winners:
                winners.append(fam)
    return best_val, winners


# -- heuristic local search ----------------------------------------------------


def canonical_seeds(n: int, k: int) -> list[Family]:
    """The known extremal candidates, whenever constructible at (n, k)."""
    from . import constructions as cons

    seeds: list[Family] = [cons.full_star(n, k)]
    if k >= 2 and n >= 3:
        seeds.append(cons.family_fi(n, k, 3))
        seeds.append(cons.family_triangle(n, k))
    if n >= 7 and k >= 3:
        fl, flp = cons.fano_families(n, k)
        seeds.append(fl)
        if k >= 4:
            seeds.append(flp)
    return [s for s in seeds if len(s)]


class _LocalState:
    """Mutable family with incremental size/degree/score bookkeeping.

    Members sit in a list with a position map, so a uniform pick, a
    membership test and a (swap-)removal are O(1) and a move costs O(k)
    beyond the compatibility scan.
    """

    __slots__ = ("n", "k", "p", "q", "members", "pos", "deg", "delta")

    def __init__(self, n: int, k: int, c: Fraction, members):
        self.n, self.k = n, k
        self.p, self.q = c.numerator, c.denominator
        self.members = sorted(members)
        self.pos = {m: i for i, m in enumerate(self.members)}
        self.deg = [0] * (n + 1)
        for m in self.members:
            for e in elements_of(m):
                self.deg[e] += 1
        self.delta = max(self.deg) if self.members else 0

    def __contains__(self, mask: int) -> bool:
        return mask in self.pos

    def pick(self, rng: random.Random) -> int:
        return self.members[rng.randrange(len(self.members))]

    def score(self) -> int:
        """q|F| - p*Delta; exact integer proxy for gamma_C."""
        return self.q * len(self.members) - self.p * self.delta

    def add(self, mask: int) -> None:
        self.pos[mask] = len(self.members)
        self.members.append(mask)
        for e in elements_of(mask):
            self.deg[e] += 1
            if self.deg[e] > self.delta:
                self.delta = self.deg[e]

    def remove(self, mask: int) -> None:
        slot = self.pos.pop(mask)
        last = self.members.pop()
        if last != mask:
            self.members[slot] = last
            self.pos[last] = slot
        peak = False
        for e in elements_of(mask):
            if self.deg[e] == self.delta:
                peak = True
            self.deg[e] -= 1
        if peak:
            self.delta = max(self.deg) if self.members else 0

    def add_score(self, mask: int) -> int:
        new_delta = self.delta
        for e in elements_of(mask):
            if self.deg[e] + 1 > new_delta:
                new_delta = self.deg[e] + 1
        return self.q * (len(self.members) + 1) - self.p * new_delta

    def compatible(self, mask: int) -> bool:
        for m in self.members:
            if not m & mask:
                return False
        return True


def _random_candidate(state: _LocalState, rng: random.Random) -> int | None:
    """A random k-set through a random element of a random member."""
    if not state.members:
        return None
    x = rng.choice(elements_of(state.pick(rng)))
    mask = 1 << (x - 1)
    for _ in range(state.k - 1):
        bit = 1 << rng.randrange(state.n)
        while mask & bit:
            bit = 1 << rng.randrange(state.n)
        mask |= bit
    return mask


_GREEDY_TRIES = 60  # random k-sets a random start tries to add


def _greedy_random(n: int, k: int, rng: random.Random) -> set[int]:
    start = 1 << rng.randrange(n)
    mask = start
    for e in rng.sample([e for e in range(1, n + 1) if not mask >> (e - 1) & 1], k - 1):
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
    budget: int = DEFAULT_MOVE_BUDGET,
    seed: int = 0,
) -> SearchResult:
    """Seeded local search (add/remove/swap accepting strict improvement).

    One restart slot per canonical seed and as many (at least four) random
    ones share the budget and run in order in one process.  The result is
    deterministic for a given (seed, budget), and is the empty family when
    every slot ends below 0, or at once when `_cap_floor` closes every cap.
    `stats` counts the slots run, the random restarts (after 400 rejected
    moves in a row) and the moves tried and accepted per kind.  An (n, k)
    whose star seed has more than MAX_SETS sets is refused before any set is built.
    """
    c = Fraction(c)
    _check_k(n, k)
    if comb_capped(n - 1, k - 1, MAX_SETS) > MAX_SETS:
        raise ValueError(
            f"guard: heuristic search refused: the star seed has C({n - 1},{k - 1}) sets, "
            f"more than the {MAX_SETS}-set guard"
        )
    starts = [s.members for s in canonical_seeds(n, k)]
    starts += [None] * max(4, len(starts))  # the random slots
    slots = len(starts)
    per = max(1, budget // slots)
    budgets = [per] * (slots - 1) + [max(1, budget - per * (slots - 1))]
    # exact mode's cap bound with ties kept; once C*cap exceeds the largest
    # intersecting family it closes every later cap too
    cap = 1
    while _cap_floor(n, k, c, cap, Fraction(0), True) is None:
        if c * cap > unconstrained_max(n, k):
            budgets = []  # no nonempty family reaches 0: run no slot
            break
        cap += 1
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


_MOVE_KINDS = ("add", "remove", "swap")  # the move indices of _move


def _keep_best(best: tuple | None, state: _LocalState) -> tuple:
    """Snapshot an abandoned state if it beats the best so far.

    Every accepted move strictly raises the score, so a state is at its best
    when it is abandoned, and snapshotting only then keeps the best score and
    the first state to reach it.
    """
    score = state.score()
    if best is None or score > best[0]:
        return score, tuple(sorted(state.members))
    return best


def _move(state: _LocalState, rng: random.Random) -> tuple[int, bool]:
    """Try one random move; return its index in _MOVE_KINDS and whether it was kept.

    add and swap put in a random candidate, remove and swap first take out
    a random victim; a move is kept only if it strictly raises the score,
    and a rejected remove or swap puts the victim back (last in the list).
    """
    roll = rng.random()
    move = 0 if roll < 0.5 or len(state.members) <= 1 else 1 if roll < 0.75 else 2
    old = state.score()
    if move:
        victim = state.pick(rng)
        state.remove(victim)
    if move == 1:
        accepted = state.score() > old
    else:
        cand = _random_candidate(state, rng)
        accepted = (
            cand is not None
            and cand not in state
            and state.compatible(cand)
            and state.add_score(cand) > old
        )
        if accepted:
            state.add(cand)
    if move and not accepted:
        state.add(victim)
    return move, accepted


def _run_restart(n: int, k: int, c: Fraction, start, moves: int, rng_seed: int):
    """One slot: local search from `start` (a random start when None) for
    `moves` moves.  Returns the best (score, sorted members), the random
    restarts, and the moves tried and accepted per kind."""
    rng = random.Random(rng_seed)
    state = _LocalState(n, k, c, start if start is not None else _greedy_random(n, k, rng))
    best = None
    tried = [0, 0, 0]
    taken = [0, 0, 0]
    restarts = 0
    since_accept = 0
    for _ in range(moves):
        move, accepted = _move(state, rng)
        tried[move] += 1
        if accepted:
            taken[move] += 1
            since_accept = 0
        else:
            since_accept += 1
            if since_accept > 400:
                best = _keep_best(best, state)
                state = _LocalState(n, k, c, _greedy_random(n, k, rng))
                restarts += 1
                since_accept = 0
    return _keep_best(best, state), restarts, tried, taken


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
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if mode == "exact":
        return max_c_diversity_exact(n, k, c, budget=budget, override_guard=override_guard)
    if mode == "heuristic":
        return max_c_diversity_heuristic(
            n, k, c, budget=DEFAULT_MOVE_BUDGET if budget is None else budget, seed=seed
        )
    raise ValueError(f"unknown mode {mode!r}")
