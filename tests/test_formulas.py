import random
from fractions import Fraction

import pytest

from divlab.constructions import (
    example_t,
    family_fi,
    family_triangle,
    family_uvw,
    fano_families,
    full_star,
    sample_kernels,
)
from divlab.family import Family, mask_of
from divlab.formulas import (
    THEOREMS,
    BoundVerdict,
    binom,
    check_theorem,
    cross_lemma_bounds,
    fano_beats_triangle,
    fano_lower_threshold,
    gamma_c_bound,
    main_bound,
    mpw_bound,
    parse_ratio,
    prop_binom_ratio,
    ratio_str,
    sandwich_triple,
    stability_rhs,
)
from divlab.sweeps import prop28_rows
from helpers import (
    brute_sandwich_triple,
    random_intersecting,
    reference_binom_ratio,
    reference_check_main,
    reference_gamma_c_bound,
    reference_prop28_rows,
)


def test_binom_conventions():
    assert binom(9, 2) == 36
    assert binom(5, 7) == 0
    assert binom(5, -1) == 0
    assert binom(-2, 0) == 0
    # the stability tail term vanishes identically once d >= k+4
    n, k, d = 50, 4, 8
    assert binom(n - d + 3, k - d + 3) == 0


def test_parse_ratio():
    assert parse_ratio("5/4") == Fraction(5, 4)
    assert parse_ratio("-3") == Fraction(-3)
    assert parse_ratio(" 7/5 ") == Fraction(7, 5)
    for bad in ("1.25", "5/0", "a/b", "1/2/3", ""):
        with pytest.raises(ValueError):
            parse_ratio(bad)
    assert ratio_str(Fraction(6, 4)) == "3/2"
    assert ratio_str(Fraction(4, 2)) == "2"


def test_main_bound():
    threshold, bound = main_bound(Fraction(5, 4), 252, 3)
    assert threshold == 252
    assert bound == Fraction(249, 2)
    # C -> 1 recovers the plain diversity bound C(n-3, k-2)
    near_one = Fraction(1001, 1000)
    _, b = main_bound(near_one, 40, 4)
    assert b == (3 - 2 * near_one) * binom(37, 2)
    for c in (Fraction(1), Fraction(3, 2), Fraction(2)):
        with pytest.raises(ValueError):
            main_bound(c, 40, 4)


def test_check_ekr_tight_on_star():
    v = check_theorem(full_star(10, 3, 1), "ekr")
    assert v.hypotheses_hold and v.satisfied and v.tight
    assert v.lhs == 36 == v.rhs


def test_check_hm_tight_on_hilton_milner():
    fam = family_fi(10, 3, 4)  # i = k+1
    v = check_theorem(fam, "hm")
    assert v.hypotheses_hold and v.satisfied and v.tight
    assert v.rhs == binom(9, 2) - binom(6, 2) + 1 == 22
    star = full_star(10, 3, 1)
    vstar = check_theorem(star, "hm")
    assert not vstar.hypotheses_hold  # stars are excluded by hypothesis


def test_check_frankl_and_diversity():
    for i in (3, 4):
        fam = family_fi(12, 3, i)
        v = check_theorem(fam, "frankl", i=i)
        assert v.hypotheses_hold and v.satisfied and v.tight
        vd = check_theorem(fam, "diversity", i=i)
        assert vd.hypotheses_hold and vd.satisfied and vd.tight
    with pytest.raises(ValueError):
        check_theorem(family_triangle(10, 3), "frankl")


def test_check_fw2():
    tri = family_triangle(109, 3)  # n > 36k
    v = check_theorem(tri, "fw2")
    assert v.hypotheses_hold and v.satisfied and v.tight
    assert "triangle-sandwich" in v.note
    star = full_star(109, 3, 1)
    vs = check_theorem(star, "fw2")
    assert vs.satisfied and not vs.tight


def test_fw2_needs_k_at_least_1():
    # a k = 0 family holds at most the empty set, whose diversity 1 exceeds
    # C(n-3, -2) = 0 at every n; the C = 1 row's hypotheses exclude k = 0,
    # and keep k = 1 and 2, where the theorem holds trivially
    for n in (1, 5, 36, 37, 200):
        bound, hyp, _ = gamma_c_bound(Fraction(1), n, 0)
        assert (bound, hyp) == (0, False)
        v = check_theorem(Family(n, 0, [0]), "fw2")
        assert not v.hypotheses_hold and not v.satisfied
    for k in (1, 2):
        assert gamma_c_bound(Fraction(1), 36 * k + 1, k)[1]
        assert not gamma_c_bound(Fraction(1), 36 * k, k)[1]
        star = full_star(36 * k + 1, k)
        v = check_theorem(star, "fw2")
        assert v.hypotheses_hold and v.satisfied


def test_check_fw3():
    star = full_star(100, 4, 1)
    v = check_theorem(star, "fw3")
    assert v.hypotheses_hold  # |F| >= 36 C(97,1) and n >= 24k
    assert len(star) >= 36 * binom(97, 1)
    assert v.satisfied  # 2/3 - 4/100 < rho = 1
    assert v.lhs == Fraction(2, 3) - Fraction(4, 100)


def test_check_main_tight_at_threshold():
    tri = family_triangle(252, 3)
    v = check_theorem(tri, "main", c=Fraction(5, 4))
    assert v.hypotheses_hold and v.satisfied and v.tight
    assert v.lhs == Fraction(249, 2)


def test_check_main_matches_written_out_bound():
    # threshold and bound now come from main_bound inside 1 < C < 3/2;
    # outside it the bound is 0 and the hypotheses fail, as before
    grid = [Fraction(0), Fraction(1), Fraction(11, 10), Fraction(5, 4), Fraction(7, 5),
            Fraction(3, 2), Fraction(2), Fraction(-1)]
    fams = [family_triangle(252, 3), family_triangle(12, 3), full_star(9, 4),
            fano_families(10, 3)[0], Family(7, 3), family_triangle(300, 4)]
    for fam in fams:
        for c in grid:
            got = check_theorem(fam, "main", c=c)
            want = reference_check_main(fam, c)
            assert (got.hypotheses_hold, got.lhs, got.rhs, got.satisfied, got.tight) == \
                (want.hypotheses_hold, want.lhs, want.rhs, want.satisfied, want.tight), (fam, c)


def test_gamma_c_bound_regimes_match_written_out_bounds():
    # one owner of the regime: the search verdict reads gamma_c_bound, and
    # check_theorem's fw2 (its C = 1 row) and main (its 1 < C < 3/2 rows,
    # bound 0 and hypotheses false elsewhere) read the same rows
    grid = [Fraction(-1), Fraction(0), Fraction(1), Fraction(11, 10), Fraction(5, 4),
            Fraction(7, 5), Fraction(3, 2), Fraction(2), Fraction(7, 3), Fraction(3)]
    for k in range(0, 6):
        ns = {36 * k, 36 * k + 1, 5}
        for c in grid:
            if 1 < c < Fraction(3, 2):
                edge = -(-42 * k // (3 - 2 * c))
                ns |= {edge - 1, edge}
        for n in sorted(n for n in ns if n >= max(k, 1)):
            one_set = Family.from_sets(n, k, [range(1, k + 1)])
            fw2 = check_theorem(one_set, "fw2")
            assert (fw2.rhs, fw2.hypotheses_hold) == gamma_c_bound(Fraction(1), n, k)[:2]
            for c in grid:
                row = gamma_c_bound(c, n, k)
                assert row == reference_gamma_c_bound(c, n, k), (c, n, k)
                main = check_theorem(one_set, "main", c=c)
                if row[2] == "triangle-bound":
                    assert (main.rhs, main.hypotheses_hold) == row[:2], (c, n, k)
                else:
                    assert (main.rhs, main.hypotheses_hold) == (0, False), (c, n, k)


def test_check_theorem_requires_intersecting():
    bad = Family.from_sets(6, 3, [[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        check_theorem(bad, "ekr")
    with pytest.raises(ValueError):
        check_theorem(full_star(8, 3), "no-such-theorem")


def test_check_theorem_refuses_constants_it_would_drop():
    # only main takes C, and only frankl and diversity take i; every other
    # pairing is refused, before the family is even read
    tri = family_triangle(10, 3)
    bad = Family.from_sets(6, 3, [[1, 2, 3], [4, 5, 6]])
    for which in THEOREMS:
        kwargs = {"i": 3} if which in ("frankl", "diversity") else {}
        if which == "main":
            kwargs["c"] = Fraction(5, 4)
        check_theorem(tri, which, **kwargs)
        if which != "main":
            for fam in (tri, bad):
                with pytest.raises(ValueError, match=f"^theorem {which} takes no constant C"):
                    check_theorem(fam, which, c=Fraction(3), **kwargs)
        if which not in ("frankl", "diversity"):
            for fam in (tri, bad):
                with pytest.raises(ValueError, match=f"^theorem {which} takes no index i"):
                    check_theorem(fam, which, i=3, **kwargs)


def test_mpw_bound():
    v = mpw_bound(Fraction(8, 5), 11, 4)
    assert v == Fraction(56, 5)
    _, flp = fano_families(11, 4)
    assert flp.c_diversity(Fraction(8, 5)) == v
    # branch boundary: the C(n-7,k-4) term vanishes at C = 7/4
    c = Fraction(7, 4)
    assert mpw_bound(c, 12, 4) == (7 - 3 * c) * binom(5, 1)
    v2 = mpw_bound(Fraction(9, 4), 12, 4)
    assert v2 == Fraction(5, 4)
    fl, _ = fano_families(12, 4)
    assert fl.c_diversity(Fraction(9, 4)) == v2
    with pytest.raises(ValueError):
        mpw_bound(Fraction(7, 3), 12, 4)


def test_fano_lower_threshold():
    assert fano_lower_threshold(Fraction(7, 5), 100) == 980
    # below the threshold the Fano family beats the triangle bound
    v = fano_beats_triangle(Fraction(7, 5), 900, 100)
    assert v.hypotheses_hold and v.satisfied
    # far above it the triangle wins
    v2 = fano_beats_triangle(Fraction(7, 5), 5000, 100)
    assert not v2.satisfied
    # threshold blows up as C approaches 3/2
    assert fano_lower_threshold(Fraction(1499, 1000), 10) == 8000
    with pytest.raises(ValueError):
        fano_lower_threshold(Fraction(3, 2), 10)


def test_cross_lemma_bounds():
    key0, key, total = cross_lemma_bounds(8, 3, 3, 2, 36, 6)
    assert key0.hypotheses_hold and key0.satisfied and key0.tight
    assert 36 == binom(7, 2) + binom(6, 2)  # the prefix hypothesis is exactly met
    assert key.satisfied
    assert total.satisfied
    # two copies of a star give equality in the sum bound when n = 2k
    n, k = 6, 3
    s = binom(n - 1, k - 1)
    _, _, tot = cross_lemma_bounds(n, k, k, 1, s, s)
    assert tot.satisfied and tot.tight
    # with sizeB = 0 the key inequality degenerates to sizeA <= C(n,a)
    _, key_b0, _ = cross_lemma_bounds(8, 3, 3, 2, 36, 0)
    assert key_b0.lhs == 36 and key_b0.rhs == binom(8, 3)


def test_prop_binom_ratio():
    v = prop_binom_ratio(10, 3, 2)
    assert v.satisfied
    assert binom(8, 3) == 56 and Fraction(4, 10) * binom(10, 3) == 48
    v0 = prop_binom_ratio(10, 3, 0)
    assert v0.satisfied and v0.tight
    with pytest.raises(ValueError):
        prop_binom_ratio(6, 3, 2)


def test_prop_binom_ratio_matches_fraction_oracle():
    for n in range(1, 61):
        for k in range(0, 7):
            i = 0
            while n > i * k and i <= n:
                v, ref = prop_binom_ratio(n, k, i), reference_binom_ratio(n, k, i)
                assert v == ref, (n, k, i)
                i += 1


def test_prop28_rows_match_fraction_oracle():
    assert prop28_rows() == reference_prop28_rows()


def test_stability_rhs_monotone():
    for d in (36, 40):
        prev = (Fraction(-1), Fraction(-1))
        for t in range(0, 11):
            alpha = Fraction(t, 10)
            out_rhs, miss_rhs = stability_rhs(alpha, 150, 4, d)
            assert out_rhs >= 0 and miss_rhs >= 0
            assert out_rhs >= prev[0] and miss_rhs >= prev[1]
            prev = (out_rhs, miss_rhs)


def test_sandwich_triple():
    tri = family_uvw(9, 4, (2, 5, 7))
    assert sandwich_triple(tri) == (2, 5, 7)
    # a strict sandwich: the triangle plus one set containing T
    grown = Family(9, 4, tri.members + (mask_of([2, 5, 7, 9]),))
    assert sandwich_triple(grown) == (2, 5, 7)
    assert sandwich_triple(full_star(9, 4, 1)) is None
    # removing a triangle member breaks the lower containment
    broken = Family(9, 4, tri.members[1:])
    assert sandwich_triple(broken) is None
    # the co-degree test against the member-scanning oracle
    fams = [tri, grown, full_star(9, 4, 1), broken, example_t(16, 3, sample_kernels(2))]
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(3, 9)
        fams.append(random_intersecting(rng, n, rng.randint(1, min(4, n))))
    for fam in fams:
        assert sandwich_triple(fam) == brute_sandwich_triple(fam), fam


def test_prop28_full_sweep():
    # the whole valid grid n <= 200, k <= 12, every i with n > ik
    from divlab.sweeps import prop28_rows

    rows = prop28_rows(200, 12)
    assert rows and all(r.status == "pass" for r in rows)


def test_fw2_on_construction_grid_above_36k():
    from divlab.constructions import example_t, family_uvw_star, sample_kernels

    for k, ns in ((2, (73, 75, 80)), (3, (109, 112))):
        for n in ns:
            fams = [full_star(n, k, 1), family_triangle(n, k)]
            fams += [family_fi(n, k, i) for i in range(3, k + 2)]
            fams.append(family_uvw_star(n, k, (1, 2, 3)))
            if k >= 3:
                fams.extend(fano_families(n, k))
                fams.append(example_t(n, k, sample_kernels(2)))
            for fam in fams:
                v = check_theorem(fam, "fw2")
                assert v.hypotheses_hold and v.satisfied
                if v.tight:
                    assert "triangle-sandwich" in v.note


def test_bound_verdict_direction():
    v = BoundVerdict.compare("demo", 1, 2, direction="<")
    assert v.satisfied and not v.tight
    eq = BoundVerdict.compare("demo", 2, 2, direction="<")
    assert not eq.satisfied and eq.tight
    assert eq.violated()
    off = BoundVerdict.compare("demo", 3, 2, hypotheses_hold=False)
    assert not off.satisfied and not off.violated()
