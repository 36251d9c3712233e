"""C-aware exact search: cap floors against floor-free searches, the room
bound against the bound-only reference search, and the cap loop against an
exhaustive oracle."""
import functools
import math
from fractions import Fraction

import pytest

from divlab.family import Family, elements_of, iter_ksets, mask_of
from divlab.formulas import hm_size
from divlab.search import (
    _cap_floor,
    _cap_searches,
    _root_orbit_reps,
    extremal_c_diversity_families,
    max_c_diversity,
    max_size_with_degree_cap,
)
from helpers import (
    all_intersecting_families,
    brute_c_diversity_optima,
    reference_max_size_with_degree_cap,
)

CASES = [(4, 2), (5, 2), (6, 2), (7, 2), (5, 3), (6, 3)]
C_GRID = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(11, 10), Fraction(5, 4),
          Fraction(3, 2), Fraction(2), Fraction(3)]


@functools.lru_cache(maxsize=None)
def _families(n, k):
    return tuple(all_intersecting_families(n, k))


@pytest.mark.parametrize("n,k", CASES)
def test_floor_matches_floor_free_search(n, k):
    pruned = False
    for cap in range(math.comb(n - 1, k - 1) + 1):
        for collect in (False, True):
            free = max_size_with_degree_cap(n, k, cap, collect_optima=collect)
            top = free.size
            for floor in sorted({-1, 0, 1, top - 2, top - 1, top, top + 1, top + 3} - {-2, -3}):
                got = max_size_with_degree_cap(n, k, cap, collect_optima=collect, floor=floor)
                assert got.exact and got.floor == floor, (n, k, cap, floor)
                assert got.nodes <= free.nodes, (n, k, cap, floor)
                pruned = pruned or got.nodes < free.nodes
                if top > floor:
                    assert (got.size, got.family, got.optima) == (top, free.family, free.optima)
                else:
                    assert got.size is None and got.family is None, (n, k, cap, floor)
                    assert got.optima == ([] if collect else None)
    assert pruned


def test_floor_with_budget_hit_is_flagged():
    res = max_size_with_degree_cap(7, 3, 5, budget=20, floor=9)
    assert not res.exact and res.nodes <= 21
    assert res.size is None or (res.size > 9 and res.family.is_intersecting())


@pytest.mark.parametrize("n,k", CASES)
def test_exact_search_matches_oracle(n, k):
    root = mask_of(range(1, k + 1))
    caps = list(range(math.comb(n - 1, k - 1) + 1))
    for c in C_GRID:
        best, attaining = brute_c_diversity_optima(_families(n, k), c)
        res = max_c_diversity(n, k, c, "exact")
        assert res.exact and res.best_value == best, (n, k, c)
        assert res.best_family in attaining
        assert res.best_family.max_degree()[0] <= res.degree_cap_used
        # every cap is searched or skipped, once, and the nodes add up
        stats = res.stats
        assert sorted([run["cap"] for run in stats["caps"]] + stats["skipped"]) == caps
        assert sum(run["nodes"] for run in stats["caps"]) == res.nodes_explored
        assert stats["truncated"] == []
        value, winners = extremal_c_diversity_families(n, k, c)
        assert value == best, (n, k, c)
        # the search forces {1..k}, so exactly the maximizers containing it
        # (and the empty family, when it wins) come back, each once
        assert len(winners) == len(set(winners))
        assert set(winners) == {f for f in attaining if root in f or not len(f)}, (n, k, c)


def test_exact_result_is_independent_of_workers():
    # exact mode runs its caps in order in one process, so the whole result,
    # nodes and stats included, is the same for every worker count
    for n, k in CASES:
        for c in C_GRID:
            serial = max_c_diversity(n, k, c, "exact")
            for workers in (2, 4):
                assert max_c_diversity(n, k, c, "exact", workers=workers) == serial, (n, k, c)


def test_exact_search_refuses_negative_c():
    # at n = 2k the triangle and the star both have C(n-1,k-1) sets; for
    # C < 0 the star wins, but a cap's first largest family is the triangle
    for search in (
        lambda c: max_c_diversity(4, 2, c, "exact"),
        lambda c: extremal_c_diversity_families(4, 2, c),
    ):
        with pytest.raises(ValueError, match="C >= 0"):
            search(Fraction(-1))
    assert not max_c_diversity(4, 2, Fraction(-1), "heuristic", budget=50).exact


def test_input_checks_precede_cap_skipping():
    # at C = 100 every cap of (20,3) and of (5,6) would be skipped
    with pytest.raises(ValueError, match="guard"):
        max_c_diversity(20, 3, Fraction(100), "exact")
    with pytest.raises(ValueError, match="out of range"):
        max_c_diversity(5, 6, Fraction(100), "exact")
    with pytest.raises(ValueError, match="guard"):
        extremal_c_diversity_families(20, 3, Fraction(100))
    assert max_c_diversity(20, 3, Fraction(100), "exact", override_guard=True).best_value == 0


@pytest.mark.parametrize("n,k", CASES)
def test_heuristic_stays_between_the_empty_family_and_the_exact_maximum(n, k):
    # both modes start from the empty family at 0, so no heuristic report
    # falls below it, and none exceeds the exact maximum
    for c in (Fraction(1, 2), Fraction(1), Fraction(5, 4), Fraction(3, 2), Fraction(2), Fraction(3)):
        exact = max_c_diversity(n, k, c, "exact")
        for seed in range(3):
            heur = max_c_diversity(n, k, c, "heuristic", budget=2000, seed=seed)
            assert 0 <= heur.best_value <= exact.best_value, (n, k, c, seed)
            assert heur.best_family.c_diversity(c) == heur.best_value, (n, k, c, seed)


def test_heuristic_returns_the_empty_family_when_every_set_loses():
    # at (8,3), C = 5/2 the cap bound leaves cap 4 open, so the restarts
    # run, but none ends at 0 or above; only the merge picks the empty
    # family, and the moves and their counts are the ones the search made
    tried = [(1070, 472, 458), (933, 527, 540), (1005, 496, 499)]
    accepted = [(4, 48, 0), (1, 48, 2), (3, 45, 0)]
    for seed in range(3):
        res = max_c_diversity(8, 3, Fraction(5, 2), "heuristic", budget=2000, seed=seed)
        assert res.best_value == 0 and res.best_family == Family(8, 3)
        assert res.nodes_explored == 2000
        assert res.stats == {
            "slots": 8, "restarts": 0,
            "tried": dict(zip(("add", "remove", "swap"), tried[seed])),
            "accepted": dict(zip(("add", "remove", "swap"), accepted[seed])),
        }


def test_heuristic_makes_no_move_when_every_cap_is_closed():
    # for C >= k >= 2 no nonempty family reaches gamma_C >= 0, and
    # _cap_floor with ties kept closes every cap before any move is made
    zeros = {"add": 0, "remove": 0, "swap": 0}
    for n, k in ((5, 2), (9, 3)):
        res = max_c_diversity(n, k, Fraction(3), "heuristic", budget=2000)
        assert res.best_value == 0 and res.best_family == Family(n, k)
        assert res.nodes_explored == 0
        assert res.stats == {"slots": 0, "restarts": 0, "tried": zeros, "accepted": zeros}
    # a single set ties the empty family at (6,1), C = 1: cap 1 stays open
    res = max_c_diversity(6, 1, Fraction(1), "heuristic", budget=2000)
    assert res.best_value == 0 and len(res.best_family) == 1
    # an open cap keeps every restart's one move at budget 1
    res = max_c_diversity(8, 2, Fraction(1), "heuristic", budget=1)
    assert res.nodes_explored == 7 and res.stats["slots"] == 7


def test_k_0_is_refused_by_every_entry_point():
    # at k = 0 the one k-set is empty, and {empty set} (size 1, max degree 0)
    # is a family the cap searches never build; every entry point refuses k = 0
    # with the same message
    for search in (
        lambda: max_c_diversity(3, 0, Fraction(1), "exact"),
        lambda: max_c_diversity(3, 0, Fraction(1), "heuristic"),
        lambda: max_size_with_degree_cap(3, 0, 1),
        lambda: extremal_c_diversity_families(3, 0, Fraction(1)),
    ):
        with pytest.raises(ValueError, match=r"^uniformity k=0 out of range for n=3$"):
            search()


def test_exact_stats_are_deterministic():
    a = max_c_diversity(7, 3, Fraction(5, 4), "exact")
    b = max_c_diversity(7, 3, Fraction(5, 4), "exact")
    assert a.stats == b.stats
    assert set(a.stats) == {"caps", "skipped", "truncated"}
    assert all(set(run) == {"cap", "floor", "nodes", "size", "exact"} for run in a.stats["caps"])
    assert a.best_value == Fraction(15, 4) and a.degree_cap_used == 5
    assert a.nodes_explored < 82_017  # the count with a full root at every cap
    assert 0 in a.stats["skipped"] and a.stats["skipped"][-1] == 15
    (cap5,) = [run for run in a.stats["caps"] if run["cap"] == 5]
    assert {"cap": 5, "floor": 9, "nodes": cap5["nodes"], "size": 10, "exact": True} == cap5
    starved = max_c_diversity(7, 3, Fraction(5, 4), "exact", budget=50)
    assert not starved.exact
    assert starved.stats["truncated"] == [
        run["cap"] for run in starved.stats["caps"] if run["nodes"] > 50
    ]


# -- root orbit pruning: a direct search branches the root only on orbit
# representatives; a collecting search keeps the full root


@pytest.mark.parametrize("n,k", [(4, 3), (5, 3), (6, 3), (7, 3), (5, 4), (6, 4), (7, 4), (8, 4)])
def test_root_orbit_reps_are_lex_first_of_each_orbit(n, k):
    root = mask_of(range(1, k + 1))
    firsts = {}
    for mask in iter_ksets(n, k):  # lex order
        firsts.setdefault((mask & root).bit_count(), mask)
    want = [firsts[j] for j in range(1, k) if j in firsts]
    u = Family(n, k, iter_ksets(n, k))
    assert sorted(u.members[i - 1] for i in elements_of(_root_orbit_reps(u))) == sorted(want)


@pytest.mark.parametrize("n,k", CASES + [(6, 4)])
def test_pruned_root_matches_full_root(n, k):
    for cap in range(math.comb(n - 1, k - 1) + 1):
        top = max_size_with_degree_cap(n, k, cap).size
        for floor in sorted({-1, 0, 1, top - 2, top - 1, top, top + 1, top + 3} - {-2, -3}):
            direct = max_size_with_degree_cap(n, k, cap, floor=floor)
            full = max_size_with_degree_cap(n, k, cap, collect_optima=True, floor=floor)
            assert (direct.size, direct.family, direct.exact) == (
                full.size, full.family, full.exact), (n, k, cap, floor)
            assert direct.nodes <= full.nodes, (n, k, cap, floor)


# -- the room bound and the degree and Hilton-Milner cap bounds: the same
# results as the reference search, which prunes by candidates and capacity only


def _same_as_reference(n, k, cap, collect, floor):
    ref = reference_max_size_with_degree_cap(n, k, cap, collect_optima=collect, floor=floor)
    got = max_size_with_degree_cap(
        n, k, cap, collect_optima=collect, floor=floor, override_guard=True)
    assert got.exact and got.floor == floor
    assert (got.size, got.family, got.optima) == (ref.size, ref.family, ref.optima), (
        n, k, cap, collect, floor)
    assert got.nodes <= ref.nodes, (n, k, cap, collect, floor)
    return got, ref


def _floors(top):
    return sorted({-1, 0, top - 1, top, top + 1})


@pytest.mark.parametrize("n,k", CASES + [(7, 3)])
def test_room_bound_matches_reference(n, k):
    pruned = False
    for cap in range(math.comb(n - 1, k - 1) + 1):
        top = reference_max_size_with_degree_cap(n, k, cap).size
        for collect in (False, True):
            for floor in _floors(top):
                got, ref = _same_as_reference(n, k, cap, collect, floor)
                pruned = pruned or got.nodes < ref.nodes
    assert pruned


@pytest.mark.parametrize("cap,top", [(7, 10), (8, 12), (9, 13)])
def test_room_bound_matches_reference_83(cap, top):
    for floor in _floors(top):
        got, ref = _same_as_reference(8, 3, cap, False, floor)
        if floor == -1:
            assert got.size == top
            assert 2 * got.nodes <= ref.nodes  # at most half the nodes
    # collecting below top - 1 gives the same ties as at top - 1, at about 3 s each
    for floor in (top - 1, top, top + 1):
        _same_as_reference(8, 3, cap, True, floor)


@pytest.mark.parametrize("n,k", CASES)
def test_collecting_keeps_the_empty_family_at_cap_0(n, k):
    # 1 + k(cap - 1) is negative at cap 0, where the empty family has size 0
    for c in C_GRID:
        cap, res = next(_cap_searches(n, k, c, budget=None, override_guard=False,
                                      collect_optima=True))
        assert cap == 0 and res is not None and res.optima == [Family(n, k)], (n, k, c)
    value, winners = extremal_c_diversity_families(6, 3, Fraction(2))
    assert value == 0 and Family(6, 3) in winners


@pytest.mark.parametrize("n,k", CASES)
def test_cap_size_bounds_hold_on_every_intersecting_family(n, k):
    for fam in _families(n, k):
        if len(fam):
            assert len(fam) <= 1 + k * (fam.max_degree()[0] - 1), fam
        if n > 2 * k and not fam.is_star():
            assert len(fam) <= hm_size(n, k), fam


def test_hilton_milner_bound_applies_only_where_a_star_cannot_count():
    # at (7,3), C = 1 a star of 14 or 15 sets ties the empty family at 0, so
    # a collecting search with incumbent 0 keeps caps 14 and 15 although
    # hm_size(7,3) = 13; a direct search, or an incumbent above 0, needs a non-star
    assert hm_size(7, 3) == 13
    for cap in (14, 15):
        assert _cap_floor(7, 3, Fraction(1), cap, Fraction(0), True) == cap - 1
        assert _cap_floor(7, 3, Fraction(1), cap, Fraction(0), False) is None
    for collect in (False, True):
        assert _cap_floor(7, 3, Fraction(1), 9, Fraction(5), collect) is None
    # below C = 1 the full star scores 15 - 15/2 > 6
    assert _cap_floor(7, 3, Fraction(1, 2), 15, Fraction(6), False) == 13


def test_93_at_five_quarters_is_exact():
    res = max_c_diversity(9, 3, Fraction(5, 4), "exact", override_guard=True)
    assert res.best_value == Fraction(15, 4) and res.exact
    assert res.stats["truncated"] == []
