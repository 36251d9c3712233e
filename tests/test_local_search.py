"""The heuristic's local search against the reference local search in
helpers.py: the same random stream, slot by slot, so the same scores,
members, restarts and move counts."""
import random
from fractions import Fraction

import pytest

from divlab import search
from divlab.family import Family
from divlab.search import canonical_seeds
from helpers import reference_greedy_random, reference_run_restart

C_VALUES = (Fraction(0), Fraction(1), Fraction(5, 4), Fraction(3, 2), Fraction(2), Fraction(3))


def _same_slot(n: int, k: int, c: Fraction, seed, moves: int, rng_seed: int) -> tuple:
    """Run one slot from `seed` (a Family, or None for a random start) both
    ways, check that they agree, and return the outcome."""
    got = search._run_restart(
        n, k, c, None if seed is None else (sorted(seed.members), seed.degrees), moves, rng_seed)
    want = reference_run_restart(n, k, c, None if seed is None else seed.members, moves, rng_seed)
    assert got == want, (n, k, c, moves, rng_seed)
    return got


@pytest.mark.parametrize("n, k, c", [(252, 3, Fraction(5, 4)), (252, 3, Fraction(1)),
                                     (130, 3, Fraction(1))])
def test_benchmark_shapes_match_reference(n, k, c):
    # every slot of a budget-20000 search, as max_c_diversity_heuristic splits it,
    # and the search's merged result
    budget, seed = 20000, 1
    seeds = canonical_seeds(n, k)
    starts = seeds + [None] * max(4, len(seeds))
    per = budget // len(starts)
    budgets = [per] * (len(starts) - 1) + [budget - per * (len(starts) - 1)]
    best, restarts, tried, taken = (0, ()), 0, [0, 0, 0], [0, 0, 0]
    for idx, (start, moves) in enumerate(zip(starts, budgets)):
        found, again, slot_tried, slot_taken = _same_slot(n, k, c, start, moves, seed * 7919 + idx)
        best = max(best, found)
        restarts += again
        tried = [x + y for x, y in zip(tried, slot_tried)]
        taken = [x + y for x, y in zip(taken, slot_taken)]
    res = search.max_c_diversity_heuristic(n, k, c, budget=budget, seed=seed)
    assert res.best_family == Family(n, k, best[1])
    assert res.best_value == res.best_family.c_diversity(c) == Fraction(best[0], c.denominator)
    assert res.stats == {"slots": len(starts), "restarts": restarts,
                         "tried": dict(zip(search._MOVE_KINDS, tried)),
                         "accepted": dict(zip(search._MOVE_KINDS, taken))}


def test_every_seed_matches_reference():
    # each canonical seed and a random start at every (n <= 30, k <= 5), one C each
    for n in range(1, 31):
        for k in range(1, min(5, n) + 1):
            c = C_VALUES[(n + k) % len(C_VALUES)]
            for idx, seed in enumerate([None, *canonical_seeds(n, k)]):
                _same_slot(n, k, c, seed, 300, n * 100 + k * 10 + idx)


@pytest.mark.parametrize("n", [3, 7, 252, 50_000])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_greedy_random_matches_reference(n, k):
    # the start's other k - 1 elements are drawn from the same list, so
    # every draw, the family and the generator's state after it agree
    for rng_seed in range(5):
        got_rng, want_rng = random.Random(rng_seed), random.Random(rng_seed)
        assert search._greedy_random(n, k, got_rng) == reference_greedy_random(n, k, want_rng)
        assert got_rng.getstate() == want_rng.getstate(), (n, k, rng_seed)


pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_restart_matches_reference(data):
    n = data.draw(st.integers(1, 30), label="n")
    k = data.draw(st.integers(1, min(5, n)), label="k")
    c = data.draw(st.sampled_from(C_VALUES), label="c")
    seed = data.draw(st.sampled_from([None, *canonical_seeds(n, k)]), label="seed")
    moves = data.draw(st.integers(1, 3000), label="moves")
    rng_seed = data.draw(st.integers(0, 2**32), label="rng_seed")
    _same_slot(n, k, c, seed, moves, rng_seed)
