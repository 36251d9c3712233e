import math
import random
from fractions import Fraction

import pytest

from divlab import search
from divlab.canonical import canonical_form
from divlab.constructions import MAX_SETS, family_triangle, fano_families
from divlab.family import Family, iter_ksets, mask_of
from divlab.search import (
    canonical_seeds,
    extremal_c_diversity_families,
    max_c_diversity,
    max_size_with_degree_cap,
    unconstrained_max,
)
from helpers import all_intersecting_families, brute_max_size_with_cap


def test_degree_cap_tiny():
    assert max_size_with_degree_cap(5, 2, 1).size == 1
    res = max_size_with_degree_cap(5, 2, 2)
    assert res.size == 3
    assert res.family.sets() == [(1, 2), (1, 3), (2, 3)]
    assert res.exact


def test_degree_cap_against_brute_force():
    # independent oracle: scan every subset of the universe; (4,3) and (6,4)
    # have no set meeting the root in one element, so no rep_1
    for n, k in ((4, 2), (5, 2), (4, 3), (5, 3), (5, 4), (6, 4)):
        for cap in range(0, math.comb(n - 1, k - 1) + 1):
            got = max_size_with_degree_cap(n, k, cap)
            assert got.size == brute_max_size_with_cap(n, k, cap), (n, k, cap)


def test_collect_optima_are_all_rooted_maxima():
    # independent oracle: every intersecting family, filtered by the cap;
    # the search forces {1..k}, so exactly the maxima containing it come back
    for n, k in ((5, 2), (6, 2), (5, 3)):
        families = list(all_intersecting_families(n, k))
        root = mask_of(range(1, k + 1))
        for cap in range(0, math.comb(n - 1, k - 1) + 1):
            under = [f for f in families if f.max_degree()[0] <= cap]
            top = max(len(f) for f in under)
            want = sorted(
                {f for f in under if len(f) == top and (root in f or top == 0)},
                key=lambda f: f.members,
            )
            got = max_size_with_degree_cap(n, k, cap, collect_optima=True)
            assert got.size == top, (n, k, cap)
            assert got.optima == want, (n, k, cap)


def test_degree_cap_reaches_ekr_maximum():
    for n, k in ((6, 2), (7, 2), (6, 3), (7, 3)):
        cap = math.comb(n - 1, k - 1)
        res = max_size_with_degree_cap(n, k, cap)
        assert res.size == unconstrained_max(n, k) == math.comb(n - 1, k - 1)
        assert res.family.is_intersecting()


def test_exact_guard_and_budget():
    with pytest.raises(ValueError):
        max_size_with_degree_cap(8, 3, 5)  # C(8,3) = 56 > 40
    res = max_size_with_degree_cap(8, 3, 5, override_guard=True, budget=50)
    assert not res.exact  # budget exhausted is flagged, not hidden
    assert res.family.is_intersecting()
    # the flag propagates through the cap loop
    starved = max_c_diversity(6, 3, Fraction(5, 4), "exact", budget=5)
    assert not starved.exact
    assert starved.best_family.is_intersecting()


def test_max_c_diversity_exact_small():
    res = max_c_diversity(5, 2, Fraction(5, 4), "exact")
    assert res.exact
    assert res.best_value == Fraction(1, 2)
    assert len(res.best_family) == 3
    assert res.best_family.max_degree()[0] == 2


def test_max_c_diversity_seven_three():
    # the maximum plain diversity on (7,3) is 5, strictly above the Fano
    # value 4; confirmed here by an independent direct DFS oracle
    from helpers import brute_max_diversity

    assert brute_max_diversity(7, 3) == 5
    res = max_c_diversity(7, 3, Fraction(1), "exact")
    assert res.exact
    assert res.best_value == 5
    fam = res.best_family
    assert fam.is_intersecting()
    assert len(fam) - fam.max_degree()[0] == 5
    fano, _ = fano_families(7, 3)
    assert fano.diversity() == 4
    # soundness: a fresh recount at the winning cap reproduces the value
    again = max_size_with_degree_cap(7, 3, res.degree_cap_used)
    assert again.size - res.degree_cap_used >= 5 or again.size == len(fam)


def test_exact_search_determinism():
    a = max_c_diversity(6, 2, Fraction(5, 4), "exact")
    b = max_c_diversity(6, 2, Fraction(5, 4), "exact")
    assert a.best_value == b.best_value
    assert a.best_family == b.best_family
    assert a.nodes_explored == b.nodes_explored


def test_extremal_families_are_triangles():
    value, fams = extremal_c_diversity_families(6, 2, Fraction(5, 4))
    assert value == Fraction(1, 2)
    canons = {canonical_form(f) for f in fams}
    assert canons == {canonical_form(family_triangle(6, 2))}


def test_canonical_seeds():
    seeds = canonical_seeds(12, 4)
    kinds = {len(s) for s in seeds}
    assert len(seeds) == 5  # star, F_3, triangle, F_L, F_L+
    assert all(s.is_intersecting() for s in seeds)
    assert len(kinds) >= 3
    assert len(canonical_seeds(10, 2)) == 3  # no Fano families below k=3


def test_heuristic_reaches_triangle_seed():
    c = Fraction(5, 4)
    res = max_c_diversity(20, 3, c, "heuristic", budget=4000, seed=3)
    assert not res.exact
    assert res.best_value >= family_triangle(20, 3).c_diversity(c)
    assert res.best_family.is_intersecting()
    assert res.best_family.c_diversity(c) == res.best_value


def test_heuristic_reproducible_and_worker_independent():
    c = Fraction(5, 4)
    one = max_c_diversity(16, 3, c, "heuristic", budget=3000, seed=11)
    two = max_c_diversity(16, 3, c, "heuristic", budget=3000, seed=11)
    assert one.best_value == two.best_value
    assert one.best_family == two.best_family
    pooled = max_c_diversity(16, 3, c, "heuristic", budget=3000, seed=11, workers=2)
    assert pooled.best_value == one.best_value
    assert pooled.best_family == one.best_family
    # the move counts are part of the deterministic result, too
    assert one.stats == two.stats == pooled.stats
    assert sum(one.stats["tried"].values()) == one.nodes_explored == 3000
    assert all(one.stats["accepted"][kind] <= one.stats["tried"][kind] for kind in one.stats["tried"])
    assert one.stats["slots"] == 8


def test_unknown_mode():
    with pytest.raises(ValueError):
        max_c_diversity(6, 2, Fraction(5, 4), "sideways")


def test_exact_soundness_recheck():
    # every exact result re-verifies: witness intersecting, and a fresh
    # recount at the winning cap reproduces the value
    for n, k, c in ((5, 2, Fraction(5, 4)), (6, 2, Fraction(11, 10)), (7, 2, Fraction(7, 5)), (6, 3, Fraction(5, 4))):
        res = max_c_diversity(n, k, c, "exact")
        assert res.exact
        assert res.best_family.is_intersecting()
        assert res.best_family.c_diversity(c) == res.best_value
        again = max_size_with_degree_cap(n, k, res.degree_cap_used)
        assert again.family.c_diversity(c) == res.best_value


def test_node_budget_default():
    # no budget means the default one, which (8,3) at cap 7 stays under
    full = max_size_with_degree_cap(8, 3, 7, override_guard=True)
    assert full.exact and full.size == 10
    assert full.nodes <= search.DEFAULT_NODE_BUDGET
    # an explicit budget wins: the search stops at its first node past it
    cut = max_size_with_degree_cap(8, 3, 7, override_guard=True, budget=99)
    assert not cut.exact and cut.nodes <= 100


def test_front_door_rejects_bad_budget_and_workers():
    for mode in ("exact", "heuristic"):
        for bad in (0, -5):
            with pytest.raises(ValueError, match="budget"):
                max_c_diversity(5, 2, Fraction(5, 4), mode, budget=bad)
            with pytest.raises(ValueError, match="workers"):
                max_c_diversity(5, 2, Fraction(5, 4), mode, workers=bad)
    # a small budget is kept, not replaced by the default (each of the
    # seven restarts still gets one move)
    assert max_c_diversity(8, 2, Fraction(1), "heuristic", budget=1).nodes_explored == 7


def _recount(state: search._LocalState) -> Family:
    """Check the state's bookkeeping against a fresh Family; return that Family."""
    fam = Family(state.n, state.k, state.members)
    assert len(fam) == len(state.members)  # no duplicates
    assert sorted(state.pos) == sorted(state.members)
    assert all(state.members[i] == m for m, i in state.pos.items())
    assert state.deg[1:] == list(fam.degrees)
    delta = fam.max_degree()[0] if len(fam) else 0
    assert state.delta == delta
    assert state.score() == state.q * len(fam) - state.p * delta
    return fam


def test_local_state_matches_recount():
    # seeded random add/remove sequences, down to the empty family and back
    for n, k, c, seed in ((7, 3, Fraction(5, 4), 1), (9, 2, Fraction(1), 2), (6, 3, Fraction(3, 2), 3)):
        rng = random.Random(seed)
        universe = list(iter_ksets(n, k))
        start = rng.sample(universe, 5)
        state = search._LocalState(n, k, c, start)
        _recount(state)
        for _ in range(400):
            if state.members and (rng.random() < 0.5 or len(state.members) == len(universe)):
                # the last slot, the only member, or a random one
                victim = state.members[-1] if rng.random() < 0.3 else state.pick(rng)
                state.remove(victim)
                assert victim not in state
            else:
                cand = rng.choice([m for m in universe if m not in state])
                assert state.add_score(cand) == _score_with(state, cand)
                state.add(cand)
                assert cand in state
            _recount(state)
        while state.members:
            state.remove(state.members[0])
            _recount(state)
        assert state.delta == 0 and state.score() == 0


def _score_with(state: search._LocalState, cand: int) -> int:
    fam = Family(state.n, state.k, [*state.members, cand])
    return state.q * len(fam) - state.p * fam.max_degree()[0]


def test_restart_outcomes_are_sound():
    # each slot on its own, the shrinking star slot included: the score is
    # q|F| - p*Delta of the returned members, which form an intersecting family
    for n, k, c in ((16, 3, Fraction(5, 4)), (20, 3, Fraction(1))):
        seeds = canonical_seeds(n, k)
        starts = [s.members for s in seeds] + [None] * max(4, len(seeds))
        for seed in (0, 1, 5):
            for idx, start in enumerate(starts):
                (score, members), restarts, tried, taken = search._run_restart(
                    n, k, c, start, 250, seed * 7919 + idx)
                fam = Family(n, k, members)
                assert len(fam) == len(members) and fam.is_intersecting()
                assert score == c.denominator * len(fam) - c.numerator * fam.max_degree()[0]
                assert sum(tried) == 250
                assert all(a <= t for a, t in zip(taken, tried)) and restarts >= 0
                if start is not None:  # never worse than its seed
                    first = Family(n, k, start)
                    assert score >= c.denominator * len(first) - c.numerator * first.max_degree()[0]


def test_random_candidate_meets_anchor():
    for n, k in ((9, 3), (5, 5), (6, 1), (30, 4)):
        rng = random.Random(n * k)
        anchor = mask_of(range(1, k + 1))
        state = search._LocalState(n, k, Fraction(1), [anchor])
        for _ in range(200):
            cand = search._random_candidate(state, rng)
            assert cand.bit_count() == k and cand & anchor
            assert cand < 1 << n
    empty = search._LocalState(6, 2, Fraction(1), [])
    assert search._random_candidate(empty, random.Random(0)) is None


def test_heuristic_refuses_oversized_star(monkeypatch):
    def fail(*args):
        raise AssertionError("a seed family was built")

    monkeypatch.setattr(search, "canonical_seeds", fail)
    assert math.comb(9999, 3) > MAX_SETS
    for n, k in ((10000, 4), (10**9, 2)):
        with pytest.raises(ValueError, match="guard"):
            max_c_diversity(n, k, Fraction(5, 4), "heuristic", budget=10)
    for n, k in ((6, 0), (5, 6)):
        with pytest.raises(ValueError, match="out of range"):
            max_c_diversity(n, k, Fraction(5, 4), "heuristic", budget=10)
