import math
import random
from itertools import combinations

import pytest

from divlab import cross
from divlab.constructions import MAX_SETS, full_star, lex_family, shift_masks
from divlab.cross import (
    HILTON_EXHAUSTIVE_PAIRS,
    _lex_limits,
    _pair_bound,
    _shift_route_ok,
    _shift_tables,
    _shifted,
    _submask,
    cross_max_compatible,
    verify_hilton,
    verify_lemma_fk,
)
from divlab.family import Family, comb_capped, cross_intersecting, iter_ksets
from divlab.formulas import binom, cross_lemma_bounds
from helpers import (
    brute_cross_max_compatible,
    brute_lex_pair_ok,
    random_cross_pair,
    reference_fk_walk,
    reference_hilton_walk,
    reference_shift_route_ok,
)


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


def test_fk_six_two_exhaustive_matches_pruned():
    # (6,2) is the smallest m with a qualifying pair, so the only case here
    # where exhaustive mode walks the submasks of a compatible B
    exhaustive = verify_lemma_fk(6, 2, method="exhaustive")
    pruned = verify_lemma_fk(6, 2, method="pruned")
    assert exhaustive.ok and pruned.ok
    assert exhaustive.pairs_checked == pruned.pairs_checked == 6


def test_fk_star_pair_direct():
    # the star pair of the lemma statement: j = center works trivially
    star = full_star(6, 2, 1)
    assert len(star.avoid(1)) == 0 <= binom(4, 0)


def test_fk_guards():
    with pytest.raises(ValueError):
        verify_lemma_fk(3, 2)
    with pytest.raises(ValueError):
        verify_lemma_fk(8, 2)  # C(8,2) = 28 candidate sets is over the guard


@pytest.mark.parametrize("method", ["exhaustive", "pruned"])
@pytest.mark.parametrize("nth", [1, 2, 3, 5, 6, 7])
def test_fk_counterexample_is_the_nth_checked_pair(monkeypatch, method, nth):
    # no accepted input fails the lemma, so the hook is made to fail at the
    # nth pair it checks: the report names the nth pair of the reference
    # walk, which pins the ascending A order of the walk over meeting_nonempty
    want = list(reference_fk_walk(6, 2, method))
    assert len(want) == 6
    real, checked = cross._good_j_exists, []

    def hook(missing, cap, a_picked, b_picked):
        checked.append((a_picked, b_picked))
        return len(checked) != nth and real(missing, cap, a_picked, b_picked)

    monkeypatch.setattr(cross, "_good_j_exists", hook)
    rep = verify_lemma_fk(6, 2, method=method)
    assert checked == want[:nth]
    assert rep.pairs_checked == len(checked)
    if nth > len(want):
        assert rep.ok and rep.counterexample is None
    else:
        u = Family(6, 2, iter_ksets(6, 2))
        a_picked, b_picked = want[nth - 1]
        assert not rep.ok
        assert rep.counterexample == (u.subfamily(a_picked), u.subfamily(b_picked))


def test_cross_max_compatible():
    assert cross_max_compatible(6, 2, 2, 3) == 5
    assert cross_max_compatible(6, 2, 2, 0) == binom(6, 2)
    assert cross_max_compatible(8, 3, 3, 36) == 6  # the tight lemma configuration
    # the guard never computes C(10^6, 500000): it stops at C(10^6, 2)
    with pytest.raises(ValueError, match="^guard: C"):
        cross_max_compatible(10**6, 2, 500000, 1)
    # 10^6 candidate 1-sets on 10^6 elements pass the set guard but not the
    # element-bit guard: refused before any candidate is made
    with pytest.raises(ValueError, match="^guard:"):
        cross_max_compatible(10**6, 1, 1, 1)


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
    # every pair and every 64th route, pinned up to (7,2,1)
    for args, counts in (((5, 2, 2), (6212, 62)), ((6, 2, 2), (89126, 318)),
                         ((7, 2, 1), (2097741, 10))):
        rep = verify_hilton(*args, exhaustive=True)
        assert rep.ok and rep.exhaustive
        assert rep.counterexample is None
        assert (rep.pairs_checked, rep.shifts_checked) == counts, args


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


def test_hilton_refuses_trials_below_1():
    for trials in (0, -3):
        with pytest.raises(ValueError, match=rf"^trials must be >= 1, got {trials}$"):
            verify_hilton(6, 2, 2, trials=trials)


def test_hilton_refuses_stride_below_1():
    for stride in (0, -1):
        for exhaustive in (True, False):
            with pytest.raises(ValueError, match=rf"^shift_sample_stride must be >= 1, got {stride}$"):
                verify_hilton(4, 2, 2, exhaustive=exhaustive, shift_sample_stride=stride)


def test_fk_refuses_unknown_method():
    with pytest.raises(ValueError, match=r"^method must be 'auto', 'exhaustive' or 'pruned', got 'bogus'$"):
        verify_lemma_fk(4, 2, method="bogus")
    for method in ("auto", "exhaustive", "pruned"):
        assert verify_lemma_fk(4, 2, method=method).ok


def _nth_route_pair(n, a, b, stride, nth):
    """The pair on which exhaustive Hilton runs its nth shift route, and the
    pairs counted up to it (the lex test passes on every pair, so it is left
    out)."""
    routes = 0
    for a_picked, b_picked, place in reference_hilton_walk(n, a, b):
        if a_picked and b_picked and place % stride == 0:
            routes += 1
            if routes == nth:
                return _families(n, a, b, a_picked, b_picked), place
    return None


def _families(n, a, b, a_picked, b_picked):
    ua, ub = Family(n, a, iter_ksets(n, a)), Family(n, b, iter_ksets(n, b))
    return ua.subfamily(a_picked), ub.subfamily(b_picked)


@pytest.mark.parametrize("n, a, b, stride, nth", [
    (4, 2, 2, 1, 1), (4, 2, 2, 1, 40), (5, 2, 2, 1, 1000), (5, 2, 2, 64, 62),
    (6, 2, 2, 64, 1), (6, 2, 2, 64, 200), (5, 1, 3, 7, 30),
])
def test_hilton_counterexample_is_the_first_failing_pair(monkeypatch, n, a, b, stride, nth):
    # a route that fails at its nth call: the run stops on the same pair, with
    # the same count, as the walk over ascending A and descending submasks B
    calls = 0

    def route(*args):
        nonlocal calls
        calls += 1
        return calls != nth

    monkeypatch.setattr(cross, "_shift_route_ok", route)
    rep = verify_hilton(n, a, b, exhaustive=True, shift_sample_stride=stride)
    assert not rep.ok and rep.shifts_checked == nth
    assert (rep.counterexample, rep.pairs_checked) == _nth_route_pair(n, a, b, stride, nth)


@pytest.mark.parametrize("n, a, b, size_a, stride", [
    (4, 2, 2, 0, 64), (4, 2, 2, 1, 1), (5, 2, 2, 3, 7), (6, 2, 2, 2, 64),
    (6, 2, 2, 5, 7), (5, 1, 3, 1, 1), (7, 2, 1, 3, 64),
])
def test_hilton_lex_failure_is_the_first_failing_pair(monkeypatch, n, a, b, size_a, stride):
    # with the lex limit for |A| = size_a lowered by one, the run stops on the
    # first pair of the ascending-A, descending-B walk that breaks it, with
    # the same pair count and the routes run before it
    def lowered(table, size_b):
        limits = _lex_limits(table, size_b)
        limits[size_a] -= 1
        return limits

    monkeypatch.setattr(cross, "_lex_limits", lowered)
    limits = lowered(Family(n, b, iter_ksets(n, b)).disjoint_from(list(iter_ksets(n, a))),
                     math.comb(n, b))
    routes, want = 0, None
    for a_picked, b_picked, place in reference_hilton_walk(n, a, b):
        if b_picked.bit_count() > limits[a_picked.bit_count()]:
            want = (_families(n, a, b, a_picked, b_picked), place, routes)
            break
        routes += bool(a_picked and b_picked and place % stride == 0)
    rep = verify_hilton(n, a, b, exhaustive=True, shift_sample_stride=stride)
    assert not rep.ok
    assert (rep.counterexample, rep.pairs_checked, rep.shifts_checked) == want


def test_submask_is_the_jth_in_descending_order():
    # against every submask of every compat below 2^10, sorted
    for compat in range(1 << 10):
        bits = [1 << i for i in range(10) if compat >> i & 1]
        subs = sorted((sum(pick) for r in range(len(bits) + 1)
                       for pick in combinations(bits, r)), reverse=True)
        top = (1 << len(bits)) - 1
        assert [_submask(compat, top - j) for j in range(len(subs))] == subs, compat


def _guarded(n_max):
    """Every (n, a, b) that verify_hilton's guards admit in trial mode, n <= n_max."""
    for n in range(1, n_max + 1):
        for a in range(n + 1):
            for b in range(n - a + 1):
                if comb_capped(n, a, MAX_SETS) * comb_capped(n, b, MAX_SETS) <= MAX_SETS:
                    yield n, a, b


def test_shift_tables_move_like_shift_masks():
    # each table's moves, on single sets and on random subfamilies of both
    # sides, against shift_masks on each side's mask set
    rng = random.Random(41)
    for n, a, b in _guarded(7):
        ua, ub = Family(n, a, iter_ksets(n, a)), Family(n, b, iter_ksets(n, b))
        shifts = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
        tables = _shift_tables(ua, ub)
        assert len(tables) == len(shifts)
        width = len(ua) + len(ub)
        picks = [1 << x for x in range(width)] + [rng.getrandbits(width) for _ in range(8)]
        for (i, j), (src, image) in zip(shifts, tables):
            for picked in picks:
                got = _shifted(picked, picked & src, image)
                for u, side, moved in ((ua, picked, got), (ub, picked >> len(ua), got >> len(ua))):
                    want = shift_masks({m for x, m in enumerate(u.members) if side >> x & 1}, i, j)
                    assert set(u.subfamily(moved & u.full).members) == want, (n, a, b, i, j, picked)


def test_shift_route_matches_mask_set_route():
    # the index-bitset route against the mask-set route on random (A, B):
    # cross-intersecting pairs, arbitrary pairs and pairs with an empty side
    rng = random.Random(43)
    for n, a, b in _guarded(7):
        ua, ub = Family(n, a, iter_ksets(n, a)), Family(n, b, iter_ksets(n, b))
        table = ub.disjoint_from(ua.members)
        route = (_shift_tables(ua, ub), table)
        for trial in range(24):
            a_picked = rng.getrandbits(len(ua)) & rng.getrandbits(len(ua))
            b_picked = rng.getrandbits(len(ub))
            if trial % 2:
                b_picked &= ub.meeting(a_picked, table)
            if trial % 8 == 0:
                a_picked, b_picked = (0, b_picked) if trial % 16 else (a_picked, 0)
            want = reference_shift_route_ok(n, ua.subfamily(a_picked).members,
                                            ub.subfamily(b_picked).members)
            assert _shift_route_ok(route, a_picked, b_picked) == want, (n, a, b, a_picked, b_picked)


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
