import math
import random

import pytest

from divlab.constructions import full_star, lex_family
from divlab.cross import (
    HILTON_EXHAUSTIVE_PAIRS,
    _lex_limits,
    _pair_bound,
    cross_max_compatible,
    verify_hilton,
    verify_lemma_fk,
)
from divlab.family import Family, cross_intersecting, iter_ksets
from divlab.formulas import binom, cross_lemma_bounds
from helpers import brute_cross_max_compatible, brute_lex_pair_ok, random_cross_pair


def test_fk_small_vacuous():
    # on [5], |A| >= 5 forces a disjoint pair inside A, which caps any
    # compatible B at 4 sets: no pair meets both size hypotheses
    for m in (4, 5):
        rep = verify_lemma_fk(m, 2, method="exhaustive")
        assert rep.ok
        assert rep.counterexample is None
        assert rep.pairs_checked == 0


def test_fk_six_two_pruned():
    rep = verify_lemma_fk(6, 2, method="pruned")
    assert rep.ok
    # exactly the six full stars qualify (the only intersecting 2-graphs
    # on [6] with at least five edges)
    assert rep.pairs_checked == 6


def test_fk_star_pair_direct():
    # the star pair of the lemma statement: j = center works trivially
    star = full_star(6, 2, 1)
    assert len(star.avoid(1)) == 0 <= binom(4, 0)


def test_fk_guards():
    with pytest.raises(ValueError):
        verify_lemma_fk(3, 2)
    with pytest.raises(ValueError):
        verify_lemma_fk(8, 2)  # C(8,2) = 28 candidate sets is over the guard


def test_cross_max_compatible():
    assert cross_max_compatible(6, 2, 2, 3) == 5
    assert cross_max_compatible(6, 2, 2, 0) == binom(6, 2)
    assert cross_max_compatible(8, 3, 3, 36) == 6  # the tight lemma configuration
    # the guard never computes C(10^6, 500000): it stops at C(10^6, 2)
    with pytest.raises(ValueError, match="^guard: C"):
        cross_max_compatible(10**6, 2, 500000, 1)


def test_cross_max_compatible_matches_pairwise_scan():
    # the column count against the pairwise scan, on random (n, a, b, size_a)
    # with the empty and the full prefix always included
    rng = random.Random(16)
    for _ in range(60):
        n = rng.randint(2, 9)
        a = rng.randint(1, n - 1)
        b = rng.randint(1, n - a)
        top = math.comb(n, a)
        for size_a in (0, top, rng.randint(0, top)):
            assert cross_max_compatible(n, a, b, size_a) == \
                brute_cross_max_compatible(n, a, b, size_a), (n, a, b, size_a)


def test_cross_max_matches_lemma_bound_on_tight_prefixes():
    # whenever |A| is exactly the d-prefix sum, the compatible count equals
    # the lemma bound C(n-d, b-d)
    for n in range(5, 11):
        for a in range(2, 5):
            for b in range(2, 5):
                if n < a + b:
                    continue
                for d in range(1, b):
                    size_a = sum(binom(n - j, a - 1) for j in range(1, d + 1))
                    if size_a > math.comb(n, a):
                        continue
                    got = cross_max_compatible(n, a, b, size_a)
                    assert got == binom(n - d, b - d), (n, a, b, d)


def test_lex_pair_of_sizes_stays_cross_intersecting():
    a = Family.from_sets(4, 2, [[1, 2]])
    b = Family.from_sets(4, 2, [[1, 3], [2, 3]])
    assert cross_intersecting(a, b)
    la, lb = lex_family(4, 2, len(a)), lex_family(4, 2, len(b))
    assert la.sets() == [(1, 2)] and lb.sets() == [(1, 2), (1, 3)]
    assert cross_intersecting(la, lb)


def test_lex_limits_match_the_prefix_table():
    # every (n, a, b) that verify_hilton accepts with n <= 8
    for n in range(2, 9):
        for a in range(1, n):
            for b in range(1, n - a + 1):
                ua, ub = Family(n, a, iter_ksets(n, a)), Family(n, b, iter_ksets(n, b))
                limits = _lex_limits(ub.disjoint_from(ua.members), len(ub))
                table = brute_lex_pair_ok(n, a, b)
                assert table == {(s, t): t <= limits[s] for s, t in table}, (n, a, b)


def test_hilton_exhaustive_small():
    rep = verify_hilton(5, 2, 2, exhaustive=True)
    assert rep.ok and rep.exhaustive
    assert rep.counterexample is None
    assert rep.pairs_checked > 5000
    assert rep.shifts_checked > 0


def test_hilton_pair_bound_covers_every_exhaustive_run():
    # pairs_checked counts every cross-intersecting pair of a full run
    for n in range(1, 6):
        for a in range(n + 1):
            for b in range(n - a + 1):
                rep = verify_hilton(n, a, b, exhaustive=True, shift_sample_stride=1 << 20)
                assert rep.ok and rep.pairs_checked <= _pair_bound(n, a, b), (n, a, b)
    assert _pair_bound(6, 2, 2) <= HILTON_EXHAUSTIVE_PAIRS < _pair_bound(8, 2, 1)
    # the pair guard binds exhaustive mode only
    assert verify_hilton(8, 2, 1, trials=5).pairs_checked == 5


def test_hilton_randomized_deterministic():
    one = verify_hilton(6, 2, 2, trials=80, seed=4)
    two = verify_hilton(6, 2, 2, trials=80, seed=4)
    assert one.ok and two.ok
    assert one.pairs_checked == two.pairs_checked == 80
    assert one.shifts_checked == two.shifts_checked


def test_hilton_star_pairs():
    # a star against itself maps to lex prefixes of the same sizes
    star = full_star(6, 2, 1)
    rep_sizes = (len(star), len(star))
    la = lex_family(6, 2, rep_sizes[0])
    lb = lex_family(6, 2, rep_sizes[1])
    assert cross_intersecting(star, star)
    assert cross_intersecting(la, lb)


def test_cor22_on_generated_pairs():
    rng = random.Random(13)
    for _ in range(60):
        a, b = random_cross_pair(rng, 6, 2, 2)
        _, _, total = cross_lemma_bounds(6, 2, 2, 1, len(a), len(b))
        assert total.satisfied


def test_cross_t_intersecting_dichotomy():
    # for cross 2-intersecting pairs of 3-sets with |A| <= |B|, either
    # |B| <= C(n,1) or |A| <= C(n,0); exhaustive over subsets at n=6
    from itertools import combinations

    from divlab.family import Family, iter_ksets

    n, k, t = 6, 3, 2
    universe = list(iter_ksets(n, k))
    rng = random.Random(77)
    for _ in range(300):
        picked = [m for m in universe if rng.random() < 0.4]
        fam_a = Family(n, k, picked)
        compat = [m for m in universe if all((m & x).bit_count() >= t for x in picked)]
        fam_b = Family(n, k, [m for m in compat if rng.random() < 0.7])
        small, large = sorted((len(fam_a), len(fam_b)))
        if small == 0:
            continue
        assert large <= binom(n, k - t) or small <= binom(n, k - t - 1)
