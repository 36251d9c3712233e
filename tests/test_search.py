import math
import random
from collections import Counter
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
from helpers import all_intersecting_families, brute_max_size_with_cap, reference_run_restart


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


def test_collect_optima_cover_every_class_of_maxima():
    # independent oracle: every intersecting family, filtered by the cap;
    # the search forces {1..k} and branches on one set per orbit, so the
    # optima are maxima containing it, each once and sorted by members, and
    # they hold every isomorphism class of maxima
    for n, k in ((5, 2), (6, 2), (5, 3)):
        families = list(all_intersecting_families(n, k))
        root = mask_of(range(1, k + 1))
        for cap in range(0, math.comb(n - 1, k - 1) + 1):
            under = [f for f in families if f.max_degree()[0] <= cap]
            top = max(len(f) for f in under)
            maxima = [f for f in under if len(f) == top]
            got = max_size_with_degree_cap(n, k, cap, collect_optima=True)
            assert got.size == top, (n, k, cap)
            assert all(f in maxima and (root in f or top == 0) for f in got.optima), (n, k, cap)
            assert sorted(set(got.optima), key=lambda f: f.members) == got.optima, (n, k, cap)
            assert {canonical_form(f) for f in got.optima} == {
                canonical_form(f) for f in maxima}, (n, k, cap)


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


def test_seed_sizes_match_the_built_seeds():
    # the heuristic checks the seed guards on the plan's sizes before it builds
    # any seed, and the plan leaves out the seeds whose size is 0
    for n in range(1, 13):
        for k in range(1, n + 1):
            plan = search._seed_plan(n, k)
            assert [size for size, _ in plan] == [len(build()) for _, build in plan], (n, k)
            assert [len(s) for s in canonical_seeds(n, k)] == [size for size, _ in plan]


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


def test_heuristic_budget_default(monkeypatch):
    # a direct call with no budget runs the default move budget, read when
    # the call is made
    monkeypatch.setattr(search, "DEFAULT_MOVE_BUDGET", 300)
    c = Fraction(5, 4)
    default = search.max_c_diversity_heuristic(10, 3, c, budget=None, seed=4)
    given = search.max_c_diversity_heuristic(10, 3, c, budget=300, seed=4)
    assert default.nodes_explored == 300
    assert (default.best_value, default.best_family, default.nodes_explored, default.stats) == (
        given.best_value, given.best_family, given.nodes_explored, given.stats)
    assert max_c_diversity(10, 3, c, "heuristic", seed=4).stats == given.stats


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


def _score(n: int, k: int, c: Fraction, members) -> int:
    """q|F| - p*Delta of the members, recounted from a fresh Family."""
    fam = Family(n, k, members)
    assert len(fam) == len(members)  # no duplicates
    return c.denominator * len(fam) - c.numerator * fam.max_degree()[0]


def test_local_state_matches_recount():
    # a slot's starting state, from masks and from a seed's degrees
    for n, k, c, seed in ((7, 3, Fraction(5, 4), 1), (9, 2, Fraction(1), 2), (6, 3, Fraction(3, 2), 3)):
        rng = random.Random(seed)
        start = rng.sample(list(iter_ksets(n, k)), 5)
        fam = Family(n, k, start)
        taken = sorted(start)
        for members, live, deg, count, delta in (search._start_state(n, start),
                                                 search._start_state(n, taken, fam.degrees)):
            assert members == taken and live == set(taken)
            assert deg == [0, *fam.degrees] and delta == fam.max_degree()[0]
            assert {d: x for d, x in count.items() if x} == Counter(deg[1:])
        # a seed's state takes its member list over, copying nothing
        assert search._start_state(n, taken, fam.degrees)[0] is taken
        # the state after each number of moves: the degrees, Delta and the
        # score kept move by move equal a recount of the members returned
        for moves in range(1, 300):
            (score, members), _, _, _ = search._run_restart(
                n, k, c, (sorted(start), fam.degrees), moves, seed)
            assert list(members) == sorted(members)
            assert score == _score(n, k, c, members), moves


def test_restart_outcomes_are_sound():
    # each slot on its own, the shrinking star slot included: the score is
    # q|F| - p*Delta of the returned members, which form an intersecting family
    for n, k, c in ((16, 3, Fraction(5, 4)), (20, 3, Fraction(1))):
        seeds = canonical_seeds(n, k)
        for seed in (0, 1, 5):
            # a seed's state takes its member list over, so each run gets its own
            starts = [(sorted(s.members), s.degrees) for s in seeds] + [None] * max(4, len(seeds))
            for idx, start in enumerate(starts):
                (score, members), restarts, tried, taken = search._run_restart(
                    n, k, c, start, 250, seed * 7919 + idx)
                fam = Family(n, k, members)
                assert len(fam) == len(members) and fam.is_intersecting()
                assert score == c.denominator * len(fam) - c.numerator * fam.max_degree()[0]
                assert sum(tried) == 250
                assert all(a <= t for a, t in zip(taken, tried)) and restarts >= 0
                if start is not None:  # never worse than its seed
                    first = seeds[idx]
                    assert score >= c.denominator * len(first) - c.numerator * first.max_degree()[0]


def test_random_candidate_meets_anchor():
    # from one member at C = 0 the first move adds the candidate drawn
    # through the anchor, a k-set of [n] meeting it, unless it is the anchor
    for n, k in ((9, 3), (5, 5), (6, 1), (30, 4)):
        anchor = mask_of(range(1, k + 1))
        one = Family(n, k, [anchor])
        for rng_seed in range(200):
            (score, members), _, _, _ = search._run_restart(
                n, k, Fraction(0), ([anchor], one.degrees), 1, rng_seed)
            assert anchor in members and score == len(members)
            for cand in members:
                assert cand.bit_count() == k and cand & anchor and cand < 1 << n


def _below(getrandbits, size: int) -> int:
    """The index draw the move loop makes: getrandbits(width), redrawn while
    it is size or more, width being size.bit_length()."""
    width = size.bit_length()
    r = getrandbits(width)
    while r >= size:
        r = getrandbits(width)
    return r


def test_index_draws_match_randrange_and_choice():
    # the search draws indices by rejection on getrandbits; that is the stream
    # randrange(n) and choice read, draw for draw, so the rest of it is unchanged
    for n in (1, 2, 3, 7, 64, 65, 252, 31375):
        for seed in range(3):
            ours, theirs = random.Random(seed), random.Random(seed)
            seq = tuple(range(10, 10 + n))
            for _ in range(300):
                assert _below(ours.getrandbits, n) == theirs.randrange(n), n
                assert seq[_below(ours.getrandbits, n)] == theirs.choice(seq), n
            assert ours.random() == theirs.random()
    # the loop's member picks, at 63 to 66 members across the draw width's
    # step at 64, read the stream as the reference's choice does
    start = list(iter_ksets(9, 3))[:64]
    for rng_seed in range(5):
        assert search._run_restart(
            9, 3, Fraction(3, 2), (sorted(start), Family(9, 3, start).degrees), 300, rng_seed
        ) == reference_run_restart(9, 3, Fraction(3, 2), start, 300, rng_seed)


def _same_slot(n: int, k: int, c: Fraction, seed: Family | None, moves: int, rng_seed: int) -> tuple:
    got = search._run_restart(
        n, k, c, None if seed is None else (sorted(seed.members), seed.degrees), moves, rng_seed)
    assert got == reference_run_restart(
        n, k, c, None if seed is None else seed.members, moves, rng_seed), (n, k, c, moves, rng_seed)
    return got


def test_slot_budgets_at_the_restart_edge():
    # from one member at C = 1 every move is a rejected add (it raises |F| and
    # Delta by one each), so the 400-reject restart fires on move 401 exactly
    one = Family(20, 3, [mask_of((1, 2, 3))])
    for moves in (1, 400, 401, 402, 801, 802):
        for rng_seed in range(3):
            _, restarts, _, _ = _same_slot(20, 3, Fraction(1), one, moves, rng_seed)
            if moves <= 401:
                assert restarts == (moves == 401)
            _same_slot(252, 3, Fraction(5, 4), None, moves, rng_seed)


def test_slots_at_k_equal_n_and_extreme_c():
    # k = n: every state holds the one k-set, so every move is a rejected add;
    # C = 0 keeps every new compatible set, and C >= k keeps every removal
    # that lowers Delta
    for n in range(1, 7):
        for c in (Fraction(0), Fraction(1), Fraction(n), Fraction(n + 1)):
            for idx, seed in enumerate([None, *canonical_seeds(n, n)]):
                (_, members), _, _, _ = _same_slot(n, n, c, seed, 900, n * 10 + idx)
                assert members == ((1 << n) - 1,)
    for n, k in ((6, 2), (9, 3), (12, 4), (30, 5)):
        for c in (Fraction(0), Fraction(k), Fraction(k + 1)):
            for idx, seed in enumerate([None, *canonical_seeds(n, k)]):
                _same_slot(n, k, c, seed, 700, n * 10 + idx)


def test_canonical_seeds_build_fano_lplus_only_from_k_4(monkeypatch):
    # at k = 3 F_L+ is F_L, so only F_L is built; the seeds are unchanged
    from divlab import constructions as cons

    want = {(n, k): canonical_seeds(n, k) for n in (7, 9, 12) for k in (3, 4)}
    assert [len(s) for s in want[12, 4]] == [size for size, _ in search._seed_plan(12, 4)]
    for n in (7, 9, 12):
        fl, flp = fano_families(n, 3)
        assert fl == flp and want[n, 3][-1] == fl
        # after the star, F_3 and the triangle; F_L is empty at (7, 4), so it is dropped
        assert want[n, 4][3:] == [f for f in fano_families(n, 4) if len(f)]

    def fail(*args):
        raise AssertionError("F_L+ was built at k = 3")

    monkeypatch.setattr(cons, "fano_lplus", fail)
    for n in (7, 9, 12):
        assert canonical_seeds(n, 3) == want[n, 3]
        with pytest.raises(AssertionError):
            canonical_seeds(n, 4)


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
