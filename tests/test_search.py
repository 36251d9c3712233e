import math
import multiprocessing
import os
from fractions import Fraction

import pytest

from divlab.canonical import canonical_form
from divlab.constructions import family_triangle, fano_families
from divlab.search import (
    canonical_seeds,
    extremal_c_diversity_families,
    max_c_diversity,
    max_size_with_degree_cap,
    unconstrained_max,
)
from divlab.family import mask_of
from helpers import all_intersecting_families, brute_max_size_with_cap


def test_degree_cap_tiny():
    assert max_size_with_degree_cap(5, 2, 1).size == 1
    res = max_size_with_degree_cap(5, 2, 2)
    assert res.size == 3
    assert res.family.sets() == [(1, 2), (1, 3), (2, 3)]
    assert res.exact


def test_degree_cap_against_brute_force():
    # independent oracle: scan every subset of the universe
    for n, k in ((4, 2), (5, 2), (5, 3)):
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
    # the worker pool splits cap searches; values and witnesses must match
    pooled = max_c_diversity(6, 2, Fraction(5, 4), "exact", workers=2)
    assert pooled.best_value == a.best_value
    assert pooled.best_family == a.best_family
    assert pooled.degree_cap_used == a.degree_cap_used


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


def test_node_budget_env(monkeypatch):
    from divlab.search import node_budget, DEFAULT_NODE_BUDGET

    monkeypatch.delenv("DIVLAB_BUDGET", raising=False)
    assert node_budget() == DEFAULT_NODE_BUDGET
    monkeypatch.setenv("DIVLAB_BUDGET", "1234")
    assert node_budget() == 1234
    assert node_budget(99) == 99  # explicit argument wins


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


class _RecordingPool:
    """Stands in for multiprocessing.Pool: records its size, maps in-process."""

    sizes: list[int] = []

    def __init__(self, size):
        self.sizes.append(size)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return [fn(item) for item in items]


def test_pool_size_is_capped(monkeypatch):
    monkeypatch.setattr(multiprocessing, "Pool", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    c = Fraction(5, 4)
    serial_exact = max_c_diversity(5, 2, c, "exact")
    serial_heur = max_c_diversity(10, 3, c, "heuristic", budget=200, seed=1)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    exact = max_c_diversity(5, 2, c, "exact", workers=10**6)
    heur = max_c_diversity(10, 3, c, "heuristic", budget=200, seed=1, workers=10**6)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    max_c_diversity(5, 2, c, "exact", workers=10**6)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    max_c_diversity(5, 2, c, "exact", workers=10**6)
    # exact: one task per cap 0..4; heuristic: one per restart slot (8 here)
    assert _RecordingPool.sizes == [5, 8, 3, 1]
    assert (exact.best_value, exact.best_family) == (serial_exact.best_value, serial_exact.best_family)
    assert (heur.best_value, heur.best_family) == (serial_heur.best_value, serial_heur.best_family)
