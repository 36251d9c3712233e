import itertools
import random
import tracemalloc

import pytest

from divlab import constructions
from divlab import family as family_module
from divlab.constructions import (
    FANO_LINES,
    MAX_SETS,
    KernelTriple,
    example_t,
    family_fi,
    family_triangle,
    family_uvw,
    family_uvw_star,
    fano_families,
    fano_l,
    fano_lplus,
    full_star,
    lex_family,
    sample_kernels,
    shift,
    shift_closure,
)
from divlab.family import Family, cross_intersecting, mask_of
from divlab.formulas import (
    binom,
    example_t_outside,
    example_t_size,
    fano_l_delta,
    fano_l_size,
    fano_lplus_delta,
    fano_lplus_size,
    fi_gamma,
    triangle_size,
)
from helpers import brute_degrees, brute_named_family, random_cross_pair, random_intersecting


def test_full_star():
    assert full_star(4, 2, 1).sets() == [(1, 2), (1, 3), (1, 4)]
    star = full_star(10, 3, 1)
    assert len(star) == binom(9, 2) == 36
    assert star.is_intersecting()
    with pytest.raises(ValueError):
        full_star(5, 2, 6)


def test_family_fi():
    assert len(family_fi(10, 3, 3)) == 36 - 21 + 7 == 22
    assert len(family_fi(10, 3, 4)) == 36 - 15 + 1 == 22
    f3 = family_fi(10, 3, 3)
    assert len(f3.avoid(1)) == 7 == fi_gamma(10, 3, 3)
    assert f3.is_intersecting()
    for i in (2, 5):
        with pytest.raises(ValueError):
            family_fi(10, 3, i)


def test_uvw_families():
    tri = family_triangle(6, 3)
    assert len(tri) == 9 == triangle_size(6, 3)
    assert family_triangle(5, 2).sets() == [(1, 2), (1, 3), (2, 3)]
    base = family_uvw(10, 4, (2, 5, 9))
    star_t = family_uvw_star(10, 4, (2, 5, 9))
    onlyt = set(star_t.members) - set(base.members)
    assert len(onlyt) == binom(7, 1)  # exactly the sets containing T
    tmask = mask_of((2, 5, 9))
    assert all(m & tmask == tmask for m in onlyt)
    with pytest.raises(ValueError):
        family_uvw(8, 3, (1, 1, 2))


def test_fi3_is_the_closed_triple_family():
    # F_3 and the family of k-sets meeting {1,2,3} at least twice coincide
    # as set systems, for every uniformity
    for n, k in ((7, 3), (9, 4), (11, 5)):
        assert family_fi(n, k, 3) == family_uvw_star(n, k, (1, 2, 3))


def test_lex_family():
    assert lex_family(5, 2, 4).sets() == [(1, 2), (1, 3), (1, 4), (1, 5)]
    assert lex_family(4, 2, 3).sets() == [(1, 2), (1, 3), (1, 4)]
    # nesting and the prefix property: the m-th family is an initial segment
    universe = sorted(itertools.combinations(range(1, 7), 3))
    for m in range(len(universe) + 1):
        fam = lex_family(6, 3, m)
        assert fam.sets() == universe[:m]
        if m:
            assert set(lex_family(6, 3, m - 1).members) < set(fam.members)
    with pytest.raises(ValueError):
        lex_family(5, 2, 11)
    # the element-bit guard admits m * k * n up to MAX_ELEMENT_BITS, no more
    wide = lex_family(100_000, 50_000, 2).members
    assert [m.bit_count() for m in wide] == [50_000] * 2 and wide[1].bit_length() == 50_001
    with pytest.raises(ValueError, match="guard"):
        lex_family(100_000, 50_000, 3)


def test_shift_examples():
    assert shift(Family.from_sets(3, 2, [[2, 3]]), 1, 2).sets() == [(1, 3)]
    collided = shift(Family.from_sets(3, 2, [[2, 3], [1, 3]]), 1, 2)
    assert collided == Family.from_sets(3, 2, [[2, 3], [1, 3]])
    with pytest.raises(ValueError):
        shift(family_triangle(6, 3), 3, 2)


def test_shift_preservation():
    rng = random.Random(17)
    for _ in range(40):
        fam = random_intersecting(rng, rng.randint(5, 8), rng.randint(2, 3))
        i = rng.randint(1, fam.n - 1)
        j = rng.randint(i + 1, fam.n)
        moved = shift(fam, i, j)
        assert len(moved) == len(fam)
        assert moved.k == fam.k
        assert moved.is_intersecting()
    for _ in range(20):
        a, b = random_cross_pair(rng, 6, 2, 2)
        i = rng.randint(1, 5)
        j = rng.randint(i + 1, 6)
        assert cross_intersecting(shift(a, i, j), shift(b, i, j))


def test_shift_closure_reaches_fixed_point():
    rng = random.Random(29)
    for _ in range(10):
        fam = random_intersecting(rng, 7, 3)
        stable = shift_closure(fam)
        assert len(stable) == len(fam)
        assert stable.is_intersecting()
        for i in range(1, 7):
            for j in range(i + 1, 8):
                assert shift(stable, i, j) == stable


def test_fano_lines_invariants():
    for a, b in itertools.combinations(FANO_LINES, 2):
        assert len(a & b) == 1
    for point in range(1, 8):
        assert sum(1 for line in FANO_LINES if point in line) == 3


def test_fano_families():
    fl, _ = fano_families(10, 3)
    assert len(fl) == 7 == fano_l_size(10, 3)
    assert fl.max_degree()[0] == 3 == fano_l_delta(10, 3)
    _, flp = fano_families(11, 4)
    assert len(flp) == 56 == fano_lplus_size(11, 4)
    assert flp.max_degree()[0] == 28 == fano_lplus_delta(11, 4)
    assert fl.is_intersecting() and flp.is_intersecting()
    # at (7,3) the family is the Fano plane itself
    plane, _ = fano_families(7, 3)
    assert {frozenset(s) for s in plane.sets()} == set(FANO_LINES)
    with pytest.raises(ValueError):
        fano_families(6, 3)


def test_fano_deltas_are_the_degrees_of_the_points_of_the_plane():
    # fano_l_delta and fano_lplus_delta are the degree of each point of [7];
    # each element outside [7] has the degree below, and Delta is the larger
    off_plane = 0
    for n in range(7, 17):
        for k in range(3, n + 1):
            for build, point, outside in (
                (fano_l, fano_l_delta(n, k), 7 * binom(n - 8, k - 4)),
                (fano_lplus, fano_lplus_delta(n, k),
                 7 * binom(n - 8, k - 4) + 28 * binom(n - 8, k - 5)),
            ):
                degrees = brute_degrees(build(n, k))
                assert degrees == (point,) * 7 + (outside,) * (n - 7), (build, n, k)
                off_plane += outside > point
            if fano_l_size(n, k):  # F_L is empty when k - 3 > n - 7
                larger = 7 * binom(n - 8, k - 4) > fano_l_delta(n, k)
                assert larger == (7 * (k - 3) > 3 * (n - 7)), (n, k)
    assert off_plane == 55


def test_fano_constructors_match_the_pair_and_their_definitions():
    for n in range(7, 13):
        for k in range(3, 7):
            pair = (fano_l(n, k), fano_lplus(n, k))
            assert pair == fano_families(n, k), (n, k)
            assert pair == tuple(brute_named_family(name, n, k) for name in ("fano-l", "fano-lplus"))
    for build in (fano_l, fano_lplus):
        with pytest.raises(ValueError, match="n >= 7"):
            build(6, 3)
        with pytest.raises(ValueError, match="k >= 3"):
            build(9, 2)


def test_example_t():
    kern = KernelTriple.uniform((4, 5))
    fam = example_t(10, 3, kern)
    assert len(fam) == 9 == example_t_size(10, 3, 2)
    assert fam.is_intersecting()
    # measured values; the displayed gamma formula assumes the max degree
    # sits on [3], which fails here (element 4 has degree 6)
    assert fam.max_degree() == (6, 4)
    assert fam.diversity() == 3
    outside = sum(1 for m in fam.members if (m & 0b111).bit_count() <= 1)
    assert outside == 3 == example_t_outside(10, 3, 2)
    with pytest.raises(ValueError):
        example_t(10, 3, KernelTriple(frozenset({4, 5}), frozenset({6, 7}), frozenset({4, 6})))
    with pytest.raises(ValueError):
        example_t(10, 3, KernelTriple.uniform((1, 5)))
    with pytest.raises(ValueError):
        example_t(10, 3, KernelTriple.uniform((4, 5, 6)))  # kernel size must stay below k


def test_example_t_unequal_kernels():
    kern = KernelTriple(frozenset({4, 5}), frozenset({5, 6, 7}), frozenset({4, 6}))
    assert kern.common_size() is None  # sizes differ: no closed gamma form
    fam = example_t(12, 4, kern)
    assert fam.is_intersecting()
    per_block = [
        binom(9, 2) - binom(9 - len(a), 2) + binom(9 - len(a), 3 - len(a))
        for a in kern.parts()
    ]
    assert len(fam) == sum(per_block)


def test_constructors_always_intersecting():
    rng = random.Random(41)
    for _ in range(25):
        n = rng.randint(7, 12)
        k = rng.randint(2, 5)
        fams = [full_star(n, k), family_triangle(n, k), family_uvw_star(n, k, (1, 2, 3))]
        if k >= 2:
            fams.append(family_fi(n, k, rng.randint(3, k + 1)))
        if k >= 3:
            fams.extend(fano_families(n, k))
            ell = rng.randint(2, k - 1)
            if 3 + ell <= n:
                fams.append(example_t(n, k, KernelTriple.uniform(tuple(range(4, 4 + ell)))))
        for fam in fams:
            assert fam.is_intersecting()


def _named_grid(n_max: int):
    """(name, n, k, params, built family) for every valid parameter choice."""
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            for center in range(1, n + 1):
                yield "star", n, k, {"center": center}, full_star(n, k, center)
            for i in range(3, min(k + 1, n) + 1):
                yield "fi", n, k, {"i": i}, family_fi(n, k, i)
            if k >= 2:
                for triple in itertools.combinations(range(1, n + 1), 3):
                    yield "uvw", n, k, {"triple": triple}, family_uvw(n, k, triple)
                    yield "uvw-star", n, k, {"triple": triple}, family_uvw_star(n, k, triple)
            if n >= 7 and k >= 3:
                fl, flp = fano_families(n, k)
                yield "fano-l", n, k, {}, fl
                yield "fano-lplus", n, k, {}, flp
            for ell in range(2, k):
                shapes = []
                if ell + 4 <= n:
                    shapes.append(sample_kernels(ell))
                if ell + 3 <= n:
                    shapes.append(KernelTriple.uniform(tuple(range(4, 4 + ell))))
                for kernels in shapes:
                    yield "example-t", n, k, {"kernels": kernels}, example_t(n, k, kernels)


def test_constructors_match_their_definitions():
    seen = set()
    for name, n, k, params, fam in _named_grid(10):
        assert fam == brute_named_family(name, n, k, **params), (name, n, k, params)
        seen.add(name)
    assert seen == {"star", "fi", "uvw", "uvw-star", "fano-l", "fano-lplus", "example-t"}


def test_wide_one_set_family_holds_no_mask_per_element():
    # the builder must hold the elements outside the core as indices: one
    # n-bit mask per element would take about n^2/16 bytes
    tracemalloc.start()
    try:
        star = full_star(40000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert star.sets() == [(1,)]
    assert peak < 4 * 2**20, peak


def test_size_guard_fires_before_any_family_is_built(monkeypatch):
    def fail(*args):
        raise AssertionError("a Family was built")

    monkeypatch.setattr(constructions, "Family", fail)
    for build in (
        lambda: full_star(200, 10),
        lambda: family_fi(60, 30, 31),
        lambda: family_fi(40, 30, 31),
        lambda: family_triangle(300, 5),
        lambda: family_uvw_star(300, 5, (1, 2, 3)),
        lambda: fano_families(300, 6),
        lambda: example_t(60, 30, sample_kernels(28)),
        lambda: lex_family(100, 5, MAX_SETS + 1),
        lambda: full_star(10**6, 2),  # 999,999 sets, 2 * 10^12 element-bits
    ):
        with pytest.raises(ValueError, match="guard"):
            build()


def test_size_guard_admits_families_up_to_the_limit(monkeypatch):
    monkeypatch.setattr(constructions, "MAX_SETS", 36)
    assert len(full_star(10, 3)) == 36
    with pytest.raises(ValueError, match=r"at least 45 sets after \d+ traces tested, above the 36-set guard"):
        full_star(11, 3)
    # the traces to test count against the guard as well, before any is tested
    with pytest.raises(ValueError, match=r"needs 0 \+ C\(23, 20\) core traces tested, above the 36"):
        example_t(24, 21, KernelTriple.uniform(tuple(range(4, 24))))
    assert len(lex_family(10, 3, 36)) == 36
    with pytest.raises(ValueError, match="guard"):
        lex_family(10, 3, 37)


def _plan_grid(n_max: int):
    """(name, n, k, params, built family) for every constructor built from a
    trace plan, at every (n, k) with n <= n_max: stars at both ends of [n],
    F_i at every i, one triple of each uvw shape, both Fano families, and
    example-t with sample and unequal kernels."""
    unequal = KernelTriple(frozenset({4, 5}), frozenset({5, 6, 7}), frozenset({4, 6}))
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            for center in sorted({1, n}):
                yield "star", n, k, {"center": center}, full_star(n, k, center)
            for i in range(3, min(k + 1, n) + 1):
                yield "fi", n, k, {"i": i}, family_fi(n, k, i)
            if k >= 2 and n >= 3:
                yield "uvw", n, k, {"triple": (1, 2, 3)}, family_triangle(n, k)
                triple = (1, n // 2 + 1, n)
                yield "uvw", n, k, {"triple": triple}, family_uvw(n, k, triple)
                yield "uvw-star", n, k, {"triple": triple}, family_uvw_star(n, k, triple)
            if n >= 7 and k >= 3:
                yield "fano-l", n, k, {}, fano_l(n, k)
                yield "fano-lplus", n, k, {}, fano_lplus(n, k)
            shapes = [sample_kernels(ell) for ell in range(2, k) if ell + 4 <= n]
            if k >= 4 and n >= 7:
                shapes.append(unequal)
            for kernels in shapes:
                yield "example-t", n, k, {"kernels": kernels}, example_t(n, k, kernels)


def test_plan_degrees_match_brute_force(monkeypatch):
    # a constructed family's degrees come from its trace plan, so neither the
    # degrees nor Delta and its witness build a column
    def fail(*args):
        raise AssertionError("columns were built")

    monkeypatch.setattr(family_module, "columns", fail)
    seen, shapes = set(), set()
    for name, n, k, params, fam in _plan_grid(15):
        want = brute_degrees(brute_named_family(name, n, k, **params))
        assert fam.degrees == want, (name, n, k, params)
        top = max(want)
        assert fam.max_degree() == ((top, want.index(top) + 1) if len(fam) else (0, None))
        seen.add(name)
        shapes |= {"k=1"} if k == 1 else set()
        shapes |= {"k=n"} if k == n else set()
        shapes |= {"n<2k"} if n < 2 * k else set()
    assert seen == {"star", "fi", "uvw", "uvw-star", "fano-l", "fano-lplus", "example-t"}
    assert shapes == {"k=1", "k=n", "n<2k"}


def test_overlapping_trace_plan_is_refused():
    # two stars on [5] share the sets holding both centers: 8 sets planned, 7 made
    with pytest.raises(ValueError, match="overlapping blocks: 7 distinct sets of 8 planned"):
        constructions._by_trace(5, 2, [(0b1, bool), (0b10, bool)])
