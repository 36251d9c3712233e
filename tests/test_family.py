import random
import time
from fractions import Fraction

import pytest

from divlab.family import (
    MAX_SETS,
    Family,
    addable_sets,
    cross_intersecting,
    elements_of,
    is_saturated,
    mask_of,
    saturate,
)
from divlab.constructions import family_triangle, family_uvw, family_uvw_star, full_star
from divlab.formulas import binom
from helpers import brute_matching, brute_shadow, random_family


def test_mask_roundtrip():
    assert mask_of([1, 3, 7]) == 0b1000101
    assert elements_of(0b1000101) == (1, 3, 7)
    assert elements_of(0) == ()


def test_family_validation():
    with pytest.raises(ValueError):
        Family(5, 3, [mask_of([1, 2])])  # wrong cardinality
    with pytest.raises(ValueError):
        Family(4, 2, [mask_of([4, 5])])  # out of range
    with pytest.raises(ValueError):
        Family.from_sets(5, 2, [[1, 1]])  # repeated element
    with pytest.raises(ValueError):
        Family(0, 0, [])


def test_members_sorted_lexicographically():
    fam = Family.from_sets(5, 2, [[2, 3], [1, 4], [1, 2], [4, 5]])
    assert fam.sets() == [(1, 2), (1, 4), (2, 3), (4, 5)]
    # structural equality regardless of input order
    assert fam == Family.from_sets(5, 2, [[4, 5], [1, 2], [2, 3], [1, 4]])


def test_member_order_on_every_n_and_k():
    # one mask byte and several, every uniformity
    rng = random.Random(7)
    for n in range(1, 71):
        for k in range(n + 1):
            ms = {mask_of(rng.sample(range(1, n + 1), k)) for _ in range(8)}
            assert Family(n, k, ms).members == tuple(sorted(ms, key=elements_of)), (n, k)


def test_ground_set_guard():
    with pytest.raises(ValueError, match="guard"):
        Family(MAX_SETS + 1, 1)
    assert Family(MAX_SETS, 1, [1 << (MAX_SETS - 1)]).sets() == [(MAX_SETS,)]


def test_is_intersecting():
    assert full_star(6, 3, 1).is_intersecting()
    assert not Family.from_sets(6, 3, [[1, 2, 3], [4, 5, 6]]).is_intersecting()
    tri = family_triangle(10, 3)
    assert tri.is_intersecting()
    # independent pairwise scan
    assert all(
        set(a) & set(b) for a in tri.sets() for b in tri.sets()
    )
    assert Family(5, 2).is_intersecting()  # empty family, by convention


def test_degrees_triangle():
    tri = family_triangle(6, 3)
    assert len(tri) == 9  # 3 C(3,1)
    assert tri.degree(1) == 6
    assert tri.degree(4) == 3
    assert tri.max_degree() == (6, 1)
    with pytest.raises(ValueError):
        tri.degree(0)
    with pytest.raises(ValueError):
        tri.degree(7)


def test_degrees_edge_cases():
    empty = Family(6, 3)
    assert all(empty.degree(x) == 0 for x in range(1, 7))
    assert empty.max_degree() == (0, None)
    star = full_star(9, 4, 1)
    assert star.max_degree() == (binom(8, 3), 1)


def test_diversity_measures():
    tri = family_triangle(10, 3)
    assert len(tri) == 21 and tri.max_degree()[0] == 14
    assert tri.diversity() == 7 == binom(7, 1)
    assert tri.c_diversity(Fraction(5, 4)) == Fraction(7, 2)
    star = full_star(8, 3, 2)
    assert star.diversity() == 0
    assert star.rho() == 1
    assert star.c_diversity(Fraction(5, 4)) == -Fraction(len(star), 4)
    with pytest.raises(ValueError):
        Family(5, 2).rho()


def test_trace_examples():
    fam = Family.from_sets(5, 3, [[1, 2, 3], [1, 4, 5], [2, 4, 5]])
    assert fam.trace([1], [1]).sets() == [(2, 3), (4, 5)]
    assert fam.trace([], [1]).sets() == [(2, 4, 5)]
    assert fam.link(1) == fam.trace([1], [1])
    assert fam.avoid(1) == fam.trace([], [1])
    with pytest.raises(ValueError):
        fam.trace([2], [1])  # P not inside Q


def test_trace_identity_and_oracle():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(4, 9)
        k = rng.randint(2, min(4, n - 1))
        fam = random_family(rng, n, k)
        x = rng.randint(1, n)
        assert len(fam) == len(fam.link(x)) + len(fam.avoid(x))
        # general trace against a direct filter
        q = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, 3))))
        p = tuple(e for e in q if rng.random() < 0.5)
        got = fam.trace(p, q)
        pm, qm = mask_of(p), mask_of(q)
        expect = sorted(m & ~qm for m in fam.members if m & qm == pm)
        assert sorted(got.members) == expect
        assert got.k == k - len(p)


def test_shadow():
    single = Family.from_sets(4, 3, [[1, 2, 3]])
    assert single.shadow(2).sets() == [(1, 2), (1, 3), (2, 3)]
    tri = family_triangle(8, 3)
    assert tri.shadow(3) == tri  # identity at full size
    # Sperner, cross-multiplied in exact integers
    sh = tri.shadow(2)
    assert len(sh) * binom(8, 3) >= len(tri) * binom(8, 2)
    rng = random.Random(3)
    for _ in range(20):
        fam = random_family(rng, 7, 3)
        ell = rng.randint(0, 3)
        assert set(fam.shadow(ell).members) == brute_shadow(fam, ell)
    with pytest.raises(ValueError):
        tri.shadow(4)


def test_cross_intersecting():
    a = Family.from_sets(4, 2, [[1, 2]])
    b = Family.from_sets(4, 2, [[1, 3], [2, 3]])
    assert cross_intersecting(a, b)
    a3 = Family.from_sets(5, 3, [[1, 2, 3]])
    b3 = Family.from_sets(5, 3, [[1, 2, 4]])
    assert cross_intersecting(a3, b3, t=2)
    assert not cross_intersecting(a3, b3, t=3)
    with pytest.raises(ValueError):
        cross_intersecting(a, b3)


def test_matching_number():
    fam = Family.from_sets(4, 2, [[1, 2], [3, 4], [1, 3]])
    assert fam.matching_number() == 2
    assert family_triangle(9, 3).matching_number() == 1
    assert Family(5, 2).matching_number() == 0
    rng = random.Random(11)
    for _ in range(30):
        fam = random_family(rng, rng.randint(4, 8), rng.randint(2, 3), 0.25)
        nu = fam.matching_number()
        assert nu == brute_matching(fam)
        assert len(fam) <= nu * binom(fam.n - 1, fam.k - 1)


def test_saturation():
    seed = Family.from_sets(7, 3, [[1, 2, 3]])
    closed = saturate(seed)
    assert closed.is_intersecting()
    assert is_saturated(closed)
    assert set(seed.members) <= set(closed.members)
    # full stars are saturated once n reaches 2k, not below
    assert is_saturated(full_star(7, 3, 1))
    assert is_saturated(full_star(6, 3, 1))
    assert not is_saturated(full_star(5, 3, 1))
    tri = family_triangle(10, 3)
    assert not is_saturated(tri)
    assert mask_of([1, 2, 3]) in addable_sets(tri)  # the triple itself is addable
    assert set(family_uvw(10, 4, (1, 2, 3)).members) <= set(
        family_uvw_star(10, 4, (1, 2, 3)).members
    )
    with pytest.raises(ValueError):
        saturate(Family.from_sets(6, 3, [[1, 2, 3], [4, 5, 6]]))
    # C(600,3) candidates are refused before any is made, and before the
    # intersection test, which alone takes over a second on this star
    big = full_star(600, 3)
    for query in (is_saturated, saturate):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^guard: C"):
            query(big)
        assert time.perf_counter() - start < 2


def test_fact_degree_exchange():
    # deg(u) >= deg(v) forces |F(u, v-bar)| >= |F(u-bar, v)|, on every pair
    # of every constructed family plus random ones
    from divlab.constructions import family_fi, family_uvw_star, fano_families

    rng = random.Random(23)
    fams = [
        family_triangle(9, 3),
        full_star(8, 3, 1),
        family_fi(9, 4, 4),
        family_uvw_star(9, 3, (2, 5, 8)),
        *fano_families(9, 3),
    ]
    fams += [random_family(rng, 8, 3) for _ in range(20)]
    for fam in fams:
        for u in range(1, fam.n + 1):
            for v in range(1, fam.n + 1):
                if u == v or fam.degree(u) < fam.degree(v):
                    continue
                keep_u = len(fam.trace([u], [u, v]))
                keep_v = len(fam.trace([v], [u, v]))
                assert keep_u >= keep_v


def test_adding_degree_neutral_set_bumps_c_diversity():
    fam = Family.from_sets(6, 3, [[1, 2, 3], [1, 4, 5]])
    c = Fraction(5, 4)
    extra = mask_of([2, 4, 6])  # meets both members through slack elements
    grown = Family(6, 3, fam.members + (extra,))
    assert grown.is_intersecting()
    assert grown.max_degree()[0] == fam.max_degree()[0]
    assert grown.c_diversity(c) == fam.c_diversity(c) + 1


def test_relabel():
    tri = family_triangle(6, 3)
    ident = {e: e for e in range(1, 7)}
    assert tri.relabel(ident) == tri
    swap = {1: 4, 4: 1, 2: 5, 5: 2, 3: 6, 6: 3}
    moved = tri.relabel(swap)
    assert len(moved) == len(tri)
    assert moved == family_uvw(6, 3, (4, 5, 6))
    with pytest.raises(ValueError):
        tri.relabel({1: 1})
