"""Exact and heuristic maximization of C-diversity over intersecting families.

Exact mode decomposes by maximum-degree cap: gamma_C is not monotone under
supersets for C > 1, but within a fixed cap |F|-maximization is, so a
branch-and-bound over the lex order of k-sets is sound.  Heuristic mode is
seeded local search and never claims exactness.
"""
from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .family import Family, Universe, elements_of

DEFAULT_NODE_BUDGET = 5_000_000
EXACT_UNIVERSE_GUARD = 40
HEURISTIC_SEED_GUARD = 1_000_000


def node_budget(budget: int | None = None) -> int:
    if budget is not None:
        return budget
    env = os.environ.get("DIVLAB_BUDGET")
    return int(env) if env else DEFAULT_NODE_BUDGET


@dataclass(frozen=True)
class SearchResult:
    best_family: Family
    best_value: Fraction
    exact: bool
    nodes_explored: int
    degree_cap_used: int | None = None
    seed: int | None = None
    stats: dict | None = None


@dataclass
class CapSearch:
    """Outcome of one max-|F| search under a degree cap."""

    size: int
    family: Family
    exact: bool
    nodes: int
    optima: list[Family] | None = None


def max_size_with_degree_cap(
    n: int,
    k: int,
    cap: int,
    *,
    budget: int | None = None,
    collect_optima: bool = False,
    override_guard: bool = False,
) -> CapSearch:
    """Exact maximum size of an intersecting k-family on [n] with max degree <= cap.

    Branch-and-bound over the lex order; a nonempty optimum can always be
    relabeled to contain {1,...,k}, so that member is forced at the root.
    """
    if not 0 <= k <= n:
        raise ValueError(f"uniformity k={k} out of range for n={n}")
    universe_size = math.comb(n, k)
    if universe_size > EXACT_UNIVERSE_GUARD and not override_guard:
        raise ValueError(
            f"exact search refused: C({n},{k})={universe_size} exceeds the "
            f"{EXACT_UNIVERSE_GUARD}-set guard (pass override_guard=True)"
        )
    limit = node_budget(budget)
    if cap <= 0 or k == 0:
        empty = Family(n, k)
        return CapSearch(0, empty, True, 0, [empty] if collect_optima else None)

    u = Universe(n, k)
    elems = [elements_of(m) for m in u.masks]
    deg = [0] * (n + 1)

    def take(i: int, rest: int) -> int:
        """Add set i to the degrees; the sets of `rest` that may still follow it."""
        cands = rest & ~u.disjoint[i]
        for e in elems[i]:
            deg[e] += 1
            if deg[e] == cap:
                cands &= u.avoids[e]
        return cands

    def drop(i: int) -> None:
        for e in elems[i]:
            deg[e] -= 1

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
    all_best = [best] if collect_optima else []
    nodes = 0
    out_of_budget = False

    def descend(picked: int, size: int, cands: int, capacity: int) -> None:
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
        if collect_optima and size == best_size:
            all_best.append(picked)
        bound = size + min(cands.bit_count(), capacity // k)
        if bound < best_size or (not collect_optima and bound == best_size):
            return
        while cands:  # branch in lex order
            if out_of_budget:
                return
            low = cands & -cands
            cands ^= low
            i = low.bit_length() - 1
            descend(picked | low, size + 1, take(i, cands), capacity - k)
            drop(i)

    # root forcing: set 0 is {1,...,k}
    descend(1, 1, take(0, u.full ^ 1), n * cap - k)

    optima = None
    if collect_optima:
        optima = sorted(
            (u.family(p) for p in set(all_best) if p.bit_count() == best_size),
            key=lambda f: f.members,
        )
    return CapSearch(best_size, u.family(best), not out_of_budget, nodes, optima)


def unconstrained_max(n: int, k: int) -> int:
    """Largest intersecting family: C(n-1,k-1) for n >= 2k, else all of C(n,k)."""
    return math.comb(n - 1, k - 1) if n >= 2 * k else math.comb(n, k)


def _pool_size(workers: int, tasks: int) -> int:
    return min(workers, tasks, os.cpu_count() or 1)


def _cap_slot(args: tuple) -> CapSearch:
    n, k, cap, budget, override_guard = args
    return max_size_with_degree_cap(
        n, k, cap, budget=budget, override_guard=override_guard
    )


def _cap_searches(
    n: int,
    k: int,
    *,
    budget: int | None,
    override_guard: bool,
    workers: int = 1,
    collect_optima: bool = False,
) -> Iterator[tuple[int, CapSearch]]:
    """(cap, max-|F| search under that cap) for caps 0, 1, ... in order.

    Sequentially the loop stops once a size reaches the unconstrained
    maximum; a pool runs every cap, and the merge cannot depend on
    scheduling.  Yielding one cap at a time keeps a single optima list alive.
    """
    caps = range(0, math.comb(n - 1, k - 1) + 1)
    if workers > 1:
        import multiprocessing as mp

        with mp.Pool(_pool_size(workers, len(caps))) as pool:
            results = pool.map(
                _cap_slot, [(n, k, cap, budget, override_guard) for cap in caps]
            )
        yield from enumerate(results)
        return
    ceiling = unconstrained_max(n, k)
    for cap in caps:
        res = max_size_with_degree_cap(
            n, k, cap, budget=budget, collect_optima=collect_optima,
            override_guard=override_guard,
        )
        yield cap, res
        if res.size >= ceiling:
            return


def max_c_diversity_exact(
    n: int,
    k: int,
    c: Fraction,
    *,
    budget: int | None = None,
    workers: int = 1,
    override_guard: bool = False,
) -> SearchResult:
    """Exact max of |F| - C max-degree by iterating over degree caps."""
    c = Fraction(c)
    best_val: Fraction | None = None
    best_fam = Family(n, k)
    best_cap = 0
    exact = True
    total_nodes = 0
    for cap, res in _cap_searches(
        n, k, budget=budget, override_guard=override_guard, workers=workers
    ):
        exact = exact and res.exact
        total_nodes += res.nodes
        value = res.family.c_diversity(c) if res.size else Fraction(0)
        if best_val is None or value > best_val:
            best_val, best_fam, best_cap = value, res.family, cap
    assert best_val is not None
    return SearchResult(best_fam, best_val, exact, total_nodes, degree_cap_used=best_cap)


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
    root relabeling, which canonical forms absorb).
    """
    c = Fraction(c)
    best_val: Fraction | None = None
    winners: list[Family] = []
    for _, res in _cap_searches(
        n, k, budget=budget, override_guard=override_guard, collect_optima=True
    ):
        if not res.exact:
            raise RuntimeError("budget exceeded while collecting extremal families")
        for fam in res.optima or []:
            value = fam.c_diversity(c) if len(fam) else Fraction(0)
            if best_val is None or value > best_val:
                best_val = value
                winners = [fam]
            elif value == best_val and fam not in winners:
                winners.append(fam)
    assert best_val is not None
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
    budget: int = 100_000,
    seed: int = 0,
    workers: int = 1,
) -> SearchResult:
    """Seeded local search (add/remove/swap accepting strict improvement).

    Deterministic for a given (seed, budget); the worker count only splits
    restarts and never changes the merged result.  `stats` counts the restart
    slots, the random restarts (after 400 rejected moves in a row) and the
    moves tried and accepted per kind.  An (n, k) whose star seed has more
    than HEURISTIC_SEED_GUARD sets is refused before any set is built.
    """
    c = Fraction(c)
    if not 1 <= k <= n:
        raise ValueError(f"uniformity k={k} out of range for n={n}")
    star = math.comb(n - 1, k - 1)
    if star > HEURISTIC_SEED_GUARD:
        raise ValueError(
            f"heuristic search refused: the star seed has C({n - 1},{k - 1})={star} "
            f"sets, above the {HEURISTIC_SEED_GUARD}-set guard"
        )
    specs = _restart_specs(n, k, c, budget, seed)
    if workers > 1:
        import multiprocessing as mp

        with mp.Pool(_pool_size(workers, len(specs))) as pool:
            outcomes = pool.map(_run_restart, specs)
    else:
        outcomes = [_run_restart(s) for s in specs]

    # merge is a pure max with a structural tie-break, so scheduling order
    # can never change the result
    best_score, best_members, _, _ = max(outcomes, key=lambda o: (o[0], o[1]))
    moves = sum(o[2] for o in outcomes)
    restarts, *counts = (sum(col) for col in zip(*(o[3] for o in outcomes)))
    stats = {
        "slots": len(specs),
        "restarts": restarts,
        "tried": dict(zip(_MOVE_KINDS, counts[:3])),
        "accepted": dict(zip(_MOVE_KINDS, counts[3:])),
    }
    fam = Family(n, k, best_members)
    value = fam.c_diversity(c) if len(fam) else Fraction(0)
    return SearchResult(fam, value, False, moves, seed=seed, stats=stats)


def _restart_specs(n, k, c, budget, seed):
    seeds = canonical_seeds(n, k)
    extra = max(4, len(seeds))
    slots = len(seeds) + extra
    per = max(1, budget // slots)
    specs = []
    used = 0
    for idx in range(slots):
        this = per if idx < slots - 1 else max(1, budget - used)
        used += this
        start = tuple(seeds[idx].members) if idx < len(seeds) else None
        specs.append((n, k, c.numerator, c.denominator, start, this, seed * 7919 + idx))
    return specs


_MOVE_KINDS = ("add", "remove", "swap")  # the move indices of _run_restart


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


def _run_restart(spec):
    n, k, p, q, start, moves, rng_seed = spec
    c = Fraction(p, q)
    rng = random.Random(rng_seed)
    state = _LocalState(n, k, c, start if start is not None else _greedy_random(n, k, rng))
    best = None
    tried = [0, 0, 0]
    taken = [0, 0, 0]
    restarts = 0
    since_accept = 0
    used = 0
    while used < moves:
        used += 1
        roll = rng.random()
        if roll < 0.5 or len(state.members) <= 1:
            move = 0
            cand = _random_candidate(state, rng)
            accepted = (
                cand is not None
                and cand not in state
                and state.compatible(cand)
                and state.add_score(cand) > state.score()
            )
            if accepted:
                state.add(cand)
        elif roll < 0.75:
            move = 1
            victim = state.pick(rng)
            old = state.score()
            state.remove(victim)
            accepted = state.score() > old
            if not accepted:
                state.add(victim)
        else:
            move = 2
            victim = state.pick(rng)
            old = state.score()
            state.remove(victim)
            cand = _random_candidate(state, rng)
            accepted = (
                cand is not None
                and cand not in state
                and state.compatible(cand)
                and state.add_score(cand) > old
            )
            if accepted:
                state.add(cand)
            else:
                state.add(victim)
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
    best_score, best_members = _keep_best(best, state)
    return best_score, best_members, used, (restarts, *tried, *taken)


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
    """Front door: exact degree-cap decomposition or seeded local search."""
    c = Fraction(c)
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if mode == "exact":
        return max_c_diversity_exact(
            n, k, c, budget=budget, workers=workers, override_guard=override_guard
        )
    if mode == "heuristic":
        return max_c_diversity_heuristic(
            n, k, c, budget=100_000 if budget is None else budget, seed=seed, workers=workers
        )
    raise ValueError(f"unknown mode {mode!r}")
