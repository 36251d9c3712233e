"""C-aware exact search: cap floors against floor-free searches, the room
bound against the bound-only reference search, and the cap loop against an
exhaustive oracle."""
import functools
import itertools
import math
import operator
import random
from fractions import Fraction

import pytest

from divlab import search
from divlab.canonical import canonical_form
from divlab.family import Family, elements_of, iter_ksets, mask_of
from divlab.formulas import hm_size
from divlab.search import (
    _cap_ceiling,
    _cap_floor,
    _cap_tables,
    extremal_c_diversity_families,
    max_c_diversity,
    max_c_diversity_exact,
    max_c_diversity_heuristic,
    max_size_with_degree_cap,
)
from helpers import (
    all_intersecting_families,
    brute_c_diversity_optima,
    reference_every_cap_closed,
    reference_max_size_with_degree_cap,
)

CASES = [(4, 2), (5, 2), (6, 2), (7, 2), (5, 3), (6, 3)]
C_GRID = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(11, 10), Fraction(5, 4),
          Fraction(3, 2), Fraction(2), Fraction(3)]


@functools.lru_cache(maxsize=None)
def _families(n, k):
    return tuple(all_intersecting_families(n, k))


def _forms(families):
    return {canonical_form(f) for f in families}


def _covers_every_class(got, ref):
    """`got` is a collecting search with `ref`'s size, family and exact
    flag, whose optima are an ordered subsequence of `ref`'s holding every
    isomorphism class of them."""
    assert (got.size, got.family, got.exact) == (ref.size, ref.family, ref.exact)
    rest = iter(ref.optima)
    assert all(f in rest for f in got.optima)
    assert _forms(got.optima) == _forms(ref.optima)


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


@pytest.mark.parametrize("n,k", CASES)
def test_extremal_winners_cover_every_class(n, k):
    # the search forces {1..k} and branches on one set per orbit, so each
    # winner is a maximizer containing {1..k} (or the empty family), once,
    # and every isomorphism class of maximizers comes back
    root = mask_of(range(1, k + 1))
    for c in C_GRID:
        best, attaining = brute_c_diversity_optima(_families(n, k), c)
        value, winners = extremal_c_diversity_families(n, k, c)
        assert value == best, (n, k, c)
        assert len(winners) == len(set(winners))
        assert all(f in attaining and (root in f or not len(f)) for f in winners), (n, k, c)
        assert _forms(winners) == _forms(attaining), (n, k, c)


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


def test_heuristic_builds_no_seed_when_every_cap_is_closed(monkeypatch):
    # the cap walk runs before the seeds are built, so a search that makes
    # no move never builds the star seed either
    def no_seeds(n, k):
        raise AssertionError(f"seeds built at ({n},{k})")

    monkeypatch.setattr(search, "canonical_seeds", no_seeds)
    for n, k in ((5, 2), (9, 3)):
        res = max_c_diversity(n, k, Fraction(3), "heuristic", budget=2000)
        assert res.best_value == 0 and res.best_family == Family(n, k) and res.nodes_explored == 0
    with pytest.raises(AssertionError, match="seeds built"):
        max_c_diversity(6, 1, Fraction(1), "heuristic", budget=10)


def test_heuristic_closes_every_cap_exactly_where_the_walk_does():
    # the closed-form stop (C >= k >= 2, or C*k > n) never closes a search
    # that the cap-by-cap walk leaves open, and misses none it closes
    grid = sorted({Fraction(p, q) for p in range(15) for q in (1, 2, 3)})
    closed = 0
    for n in range(1, 11):
        for k in range(1, n + 1):
            for c in grid:
                want = reference_every_cap_closed(n, k, c)
                res = max_c_diversity(n, k, c, "heuristic", budget=1)
                assert (res.stats["slots"] == 0) == want, (n, k, c)
                closed += want
    assert closed


def test_heuristic_stops_the_cap_walk_at_the_first_cap(monkeypatch):
    # the walk would step through 166,501 caps at (1001, 3, 3) and 7 caps at
    # (7, 3, 5/2); C >= k >= 2 and C*k > n each close every cap at once
    calls = []

    def counted(*args):
        calls.append(args)
        return _cap_floor(*args)

    monkeypatch.setattr(search, "_cap_floor", counted)
    for n, k, c in ((1001, 3, Fraction(3)), (7, 3, Fraction(5, 2))):
        calls.clear()
        res = max_c_diversity(n, k, c, "heuristic", budget=10)
        assert len(calls) <= 2, (n, k, c)
        assert res.best_value == 0 and res.best_family == Family(n, k)
        assert res.nodes_explored == 0


def test_heuristic_refuses_what_its_seeds_would_before_the_cap_walk(monkeypatch):
    # where every cap is closed no seed is built, yet a seed the guards refuse
    # still refuses the search: the star of (10^6, 2) by its 2*10^12
    # element-bits, F_3 of (28, 21) by its 1,012,000 sets
    def no_walk(*args):
        raise AssertionError("cap walked")

    monkeypatch.setattr(search, "_cap_floor", no_walk)
    with pytest.raises(ValueError, match=r"^guard: 999999 sets of 2 elements on n=1000000"):
        max_c_diversity(10**6, 2, Fraction(2), "heuristic", budget=10)
    with pytest.raises(ValueError, match=r"^guard: heuristic search refused: a seed has 1012000 sets"):
        max_c_diversity(28, 21, Fraction(3), "heuristic", budget=10)


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


@pytest.mark.parametrize("budget", [0, -1])
def test_bad_budget_is_refused_by_every_entry_point(budget):
    # budgets below 1 are refused with the same message before any search,
    # by library calls as by the CLI
    for search in (
        lambda: max_c_diversity(7, 3, Fraction(5, 4), "exact", budget=budget),
        lambda: max_c_diversity(7, 3, Fraction(5, 4), "heuristic", budget=budget),
        lambda: max_c_diversity_exact(7, 3, Fraction(5, 4), budget=budget),
        lambda: max_c_diversity_heuristic(10, 3, Fraction(5, 4), budget=budget),
        lambda: max_size_with_degree_cap(7, 3, 5, budget=budget),
        lambda: extremal_c_diversity_families(7, 3, Fraction(5, 4), budget=budget),
    ):
        with pytest.raises(ValueError, match=rf"^budget must be >= 1, got {budget}$"):
            search()


def test_extremal_search_refuses_a_truncated_cap():
    # a cap search that hits the budget may miss optima, so the winners
    # would be incomplete; a direct search reports the cap as truncated
    with pytest.raises(RuntimeError, match="^budget exceeded while collecting extremal families$"):
        extremal_c_diversity_families(7, 3, Fraction(5, 4), budget=50)
    assert max_c_diversity_exact(7, 3, Fraction(5, 4), budget=50).stats["truncated"]


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


# -- orbit pruning: a cap search, collecting or not, branches at every node
# only on the lex-first set of each orbit of the relabelings that fix every
# picked set


@pytest.mark.parametrize("n,k", [(4, 3), (5, 3), (6, 3), (7, 3), (5, 4), (6, 4), (7, 4), (8, 4)])
def test_root_orbit_reps_are_lex_first_of_each_orbit(n, k):
    # at the root [k] the orbits are the classes of |B & [k]|
    root = mask_of(range(1, k + 1))
    firsts = {}
    for mask in iter_ksets(n, k):  # lex order
        firsts.setdefault((mask & root).bit_count(), mask)
    u, *_, keep, rule = _cap_tables(n, k)
    assert sorted(u.members[i - 1] for i in elements_of(rule(keep[0]))) == sorted(firsts.values())


@pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (6, 2), (5, 3), (6, 3), (6, 4)])
def test_orbit_rule_matches_brute_force_orbits(n, k):
    # along random paths of picked sets, the sets the rule keeps are the
    # lex-first sets of the orbits under every permutation of [n] that maps
    # each picked set to itself
    rng = random.Random(n * 10 + k)
    u, *_, keep, rule = _cap_tables(n, k)
    index = {m: i for i, m in enumerate(u.members)}
    perms = [(0, *g) for g in itertools.permutations(range(1, n + 1))]  # g[e]: the image of e

    def image(g, m):
        return mask_of(g[e] for e in elements_of(m))

    for _ in range(20):
        path = rng.sample(range(len(u)), rng.randint(1, 4))
        fixing = [g for g in perms if all(image(g, u.members[i]) == u.members[i] for i in path)]
        want = 0
        for i, m in enumerate(u.members):
            if all(index[image(g, m)] >= i for g in fixing):
                want |= 1 << i
        together = functools.reduce(operator.and_, (keep[i] for i in path))
        assert rule(together) == want, (n, k, path)


@pytest.mark.parametrize("n,k", CASES + [(6, 4)])
def test_pruned_root_matches_full_root(n, k):
    # against the reference search, which when collecting branches on
    # every candidate below the root
    for cap in range(math.comb(n - 1, k - 1) + 1):
        top = max_size_with_degree_cap(n, k, cap).size
        for floor in sorted({-1, 0, 1, top - 2, top - 1, top, top + 1, top + 3} - {-2, -3}):
            full = reference_max_size_with_degree_cap(n, k, cap, collect_optima=True, floor=floor)
            direct = max_size_with_degree_cap(n, k, cap, floor=floor)
            assert (direct.size, direct.family, direct.exact) == (
                full.size, full.family, full.exact), (n, k, cap, floor)
            assert direct.nodes <= full.nodes, (n, k, cap, floor)
            got = max_size_with_degree_cap(n, k, cap, collect_optima=True, floor=floor)
            _covers_every_class(got, full)
            assert got.nodes <= full.nodes, (n, k, cap, floor)


# -- the room bound and the degree and Hilton-Milner cap bounds: the same
# results as the reference search, which prunes by candidates and capacity only


def _same_as_reference(n, k, cap, collect, floor):
    ref = reference_max_size_with_degree_cap(n, k, cap, collect_optima=collect, floor=floor)
    got = max_size_with_degree_cap(
        n, k, cap, collect_optima=collect, floor=floor, override_guard=True)
    assert got.exact and got.floor == floor
    if collect:
        _covers_every_class(got, ref)
    else:
        assert (got.size, got.family, got.optima) == (ref.size, ref.family, ref.optima), (
            n, k, cap, floor)
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
        floor = _cap_floor(n, k, c, 0, Fraction(0), True)
        assert floor is not None, (n, k, c)
        res = max_size_with_degree_cap(n, k, 0, collect_optima=True, floor=floor)
        assert res.optima == [Family(n, k)], (n, k, c)
    value, winners = extremal_c_diversity_families(6, 3, Fraction(2))
    assert value == 0 and Family(6, 3) in winners


@pytest.mark.parametrize("n,k", CASES)
def test_cap_size_bounds_hold_on_every_intersecting_family(n, k):
    for fam in _families(n, k):
        if len(fam):
            assert len(fam) <= 1 + k * (fam.max_degree()[0] - 1), fam
        if n > 2 * k and not fam.is_star():
            assert len(fam) <= hm_size(n, k), fam


@pytest.mark.parametrize("n,k", CASES)
def test_cap_ceiling_holds_on_every_intersecting_family(n, k):
    # a family with max degree Delta fits under every cap >= Delta and has
    # more than every floor below its size; the ceiling reads only those
    shapes = {(len(fam), fam.max_degree()[0]) for fam in _families(n, k)}
    for size, delta in shapes:
        for cap in range(delta, math.comb(n - 1, k - 1) + 1):
            for floor in range(-1, size):
                assert size <= _cap_ceiling(n, k, cap, floor), (n, k, size, delta, cap, floor)


def test_heuristic_runs_no_slot_where_the_ceiling_closes_every_cap():
    # at (6,2), C = 5/3 a star scores (1 - C)|F| < 0 and the triangle
    # 3 - 2C < 0; the ceiling's Hilton-Milner term (3 sets, once the floor
    # reaches the cap) closes every cap, though neither closed-form stop holds
    res = max_c_diversity(6, 2, Fraction(5, 3), "heuristic")
    assert res.best_value == 0 and res.best_family == Family(6, 2)
    assert res.nodes_explored == 0 and res.stats["slots"] == 0


def test_full_star_cap_stops_at_the_unconstrained_maximum():
    # the ceiling at (7,3), cap 15 is C(6,2) = 15, so once the full star is
    # found nothing else is searched (1,062 nodes with the capacity bound)
    res = max_size_with_degree_cap(7, 3, 15)
    assert res.size == 15 == math.comb(6, 2) and res.exact
    assert res.family.is_star() and res.nodes < 1062


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


def _k3_chart(n, c):
    """max{(3-2C)(n-3), 10-5C, 7-3C, 0}: F_123, the 2-(6,3,2) design and the
    Fano plane (n >= 7 only), or the empty family."""
    terms = [(3 - 2 * c) * (n - 3), 10 - 5 * c, Fraction(0)]
    if n >= 7:
        terms.append(7 - 3 * c)
    return max(terms)


@pytest.mark.parametrize("n", [6, 7, 8, 9, 10])
def test_k3_chart_matches_exact_search(n):
    # a chart, not a verdict: the formula is an unproved prediction for
    # k = 3, n >= 6, C >= 1, and no check_theorem row rests on it; this pins
    # it against the exact search wherever the search finishes
    for c in (Fraction(1), Fraction(11, 10), Fraction(5, 4), Fraction(7, 5),
              Fraction(3, 2), Fraction(2)):
        res = max_c_diversity(n, 3, c, "exact", override_guard=True)
        assert res.exact and not res.stats["truncated"], (n, c)
        assert res.best_value == _k3_chart(n, c) == res.best_family.c_diversity(c), (n, c)


# -- the cap search's tables: one build per (n, k), shared by every search there


def _cap_runs(n, k):
    return [(n, k, cap, collect) for cap in range(math.comb(n - 1, k - 1) + 1)
            for collect in (False, True)]


def _cap_search(n, k, cap, collect):
    return max_size_with_degree_cap(n, k, cap, collect_optima=collect, override_guard=True)


def test_cap_search_does_not_depend_on_the_searches_before_it():
    # every search at one (n, k) shares the tables and the firsts memo, so
    # each is compared with a search that built them afresh
    runs = _cap_runs(6, 3) + _cap_runs(7, 3)
    want = {}
    for run in runs:
        _cap_tables.cache_clear()
        want[run] = _cap_search(*run)
    others = itertools.cycle([(5, 2, 2), (8, 3, 3), (6, 4, 4)])
    interleaved = []
    for pair in itertools.zip_longest(_cap_runs(6, 3), _cap_runs(7, 3)):
        interleaved += [run for run in pair if run]
    for order in (runs, runs[::-1], interleaved):
        _cap_tables.cache_clear()
        for run in order:
            if order is interleaved:
                n, k, cap = next(others)
                _cap_search(n, k, cap, False)
            assert _cap_search(*run) == want[run], run


def test_one_exact_walk_builds_the_tables_once():
    for walk in (lambda: max_c_diversity(7, 3, Fraction(5, 4), "exact"),
                 lambda: extremal_c_diversity_families(7, 3, Fraction(5, 4))):
        _cap_tables.cache_clear()
        walk()
        assert _cap_tables.cache_info().misses == 1
