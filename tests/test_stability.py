import random

import pytest

from divlab import stability
from divlab.constructions import (
    KernelTriple,
    example_t,
    family_triangle,
    family_uvw,
    family_uvw_star,
    fano_families,
    full_star,
    sample_kernels,
)
from divlab.family import Family, trace_counter
from divlab.formulas import binom, example_t_missing, example_t_outside
from divlab.stability import (
    find_stability_triple,
    triangle_decomposition,
    verify_lemma_key2,
)
from helpers import brute_stability_key, random_family, triangle_with_disjoint_pair


def test_sample_kernels_shape():
    kt = sample_kernels(2)
    assert kt.parts() == (frozenset({4, 5}), frozenset({4, 6}), frozenset({5, 6}))
    kt3 = sample_kernels(3)
    assert kt3.common_size() == 3
    kt3.validate(12, 5)


def test_decomposition_pure_triangle():
    dec = triangle_decomposition(family_triangle(10, 3), (1, 2, 3))
    assert (dec.f_uv, dec.f_uw, dec.f_vw) == (0, 0, 0)
    assert (dec.g_u, dec.g_v, dec.g_w) == (0, 0, 0)
    assert dec.h == 0 and dec.m == 0


def test_decomposition_uvw_star():
    fam = family_uvw_star(10, 4, (1, 2, 3))
    dec = triangle_decomposition(fam, (1, 2, 3))
    assert dec.m == binom(7, 1) == 7
    assert dec.f_uv == dec.f_uw == dec.f_vw == 0
    assert dec.h == 0


def test_decomposition_example_t():
    fam = example_t(10, 3, KernelTriple.uniform((4, 5)))
    dec = triangle_decomposition(fam, (1, 2, 3))
    assert dec.f_uv == dec.f_uw == dec.f_vw == binom(7, 1) - 2 == 5
    assert dec.g_u == dec.g_v == dec.g_w == 1
    assert dec.h == 0 and dec.m == 0


def test_decomposition_identities_random():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(5, 9)
        k = rng.randint(2, 4)
        fam = random_family(rng, n, k)
        t = tuple(sorted(rng.sample(range(1, n + 1), 3)))
        dec = triangle_decomposition(fam, t)
        assert dec.size_identity() == len(fam)
        u, v, w = t
        assert dec.degree_identity("u") == fam.degree(u)
        assert dec.degree_identity("v") == fam.degree(v)
        assert dec.degree_identity("w") == fam.degree(w)
        assert dec.outside() == sum(
            1
            for m in fam.members
            if sum(1 for x in t if m >> (x - 1) & 1) <= 1
        )
    with pytest.raises(ValueError):
        triangle_decomposition(family_triangle(8, 3), (1, 1, 2))


def test_stability_pure_triangle():
    fam = family_triangle(12, 3)
    rep = find_stability_triple(fam, 36)
    assert rep.triple == (1, 2, 3)
    assert rep.alpha == 0
    assert rep.outside == 0 and rep.missing == 0
    assert rep.pass_14 and rep.pass_15
    assert rep.triples_scanned == binom(12, 3)
    # n >= dk fails at n=12, so the hypotheses are reported out of range
    assert not rep.hypotheses_hold


def test_stability_full_star():
    rep = find_stability_triple(full_star(10, 3, 1), 36)
    assert rep.alpha == 1
    assert not rep.hypotheses_hold  # degenerate case still reports


def test_stability_example_t_recovers_construction_triple():
    for k, ell, n in ((3, 2, 16), (4, 2, 18), (4, 3, 18), (5, 3, 20)):
        fam = example_t(n, k, sample_kernels(ell))
        rep = find_stability_triple(fam, 36)
        assert rep.triple == (1, 2, 3), (k, ell, n)
        assert rep.outside == example_t_outside(n, k, ell)
        assert rep.missing == example_t_missing(n, k, ell)
        assert rep.lemma41_singles_ok


def test_stability_example_t_larger_probe():
    # reduced-n stand-in for instances with n in the hundreds; the equal
    # kernel triple {4,5,6} is fine at ell=3 (unlike ell=2, where shared
    # kernel elements outweigh the triple)
    n, k, ell = 40, 5, 3
    for kernels in (sample_kernels(ell), KernelTriple.uniform((4, 5, 6))):
        fam = example_t(n, k, kernels)
        rep = find_stability_triple(fam, 36)
        assert rep.triple == (1, 2, 3)
        assert rep.outside == example_t_outside(n, k, ell) == 3 * binom(n - 6, 1)
        assert rep.missing == example_t_missing(n, k, ell) == 3 * binom(n - 6, 3)


def test_stability_equal_kernels_pick_blended_triple():
    # with all three kernels equal at ell=2 the construction is degenerate:
    # the triple {1,4,5} meets more members twice than {1,2,3} does
    fam = example_t(16, 3, KernelTriple.uniform((4, 5)))
    rep = find_stability_triple(fam, 36)
    assert rep.triple == (1, 4, 5)
    dec_construction = triangle_decomposition(fam, (1, 2, 3))
    assert rep.outside < dec_construction.outside()


def test_stability_requires_nonempty():
    with pytest.raises(ValueError):
        find_stability_triple(Family(8, 3), 36)
    with pytest.raises(ValueError, match="n >= 3"):
        find_stability_triple(Family.from_sets(2, 2, [(1, 2)]), 36)


def test_stability_hypotheses_need_intersecting():
    # n = 110 >= 36k and alpha = 0, so only non-intersection voids the theorem
    fam = triangle_with_disjoint_pair(110)
    assert len(fam) == 321 and not fam.is_intersecting()
    rep = find_stability_triple(fam, 36)
    assert rep.triple == (1, 2, 3)
    assert rep.alpha == 0
    assert (rep.outside, rep.missing) == (2, 2)
    assert not rep.pass_14
    assert not rep.hypotheses_hold


def test_stability_triangle_k4_hypotheses_skip_pair_scan(monkeypatch):
    # outside == 0 already certifies an intersecting family, so the
    # O(|F|^2) pair check must not run on an exact triangle (n = 36k)
    fam = family_triangle(144, 4)

    def unexpected(self):
        raise AssertionError("is_intersecting called although outside == 0")

    monkeypatch.setattr(Family, "is_intersecting", unexpected)
    rep = find_stability_triple(fam, 36)
    assert (rep.triple, rep.outside, rep.missing, rep.alpha) == ((1, 2, 3), 0, 0, 0)
    assert rep.hypotheses_hold and rep.pass_14 and rep.pass_15


def test_stability_exhaustive_above_300():
    # the scan is exhaustive at every n: every triple is decided, either
    # evaluated or excluded by the degree-sum bound
    fam = family_triangle(310, 3)
    rep = find_stability_triple(fam, 36)
    assert rep.triple == (1, 2, 3)
    assert rep.outside == 0 and rep.missing == 0
    assert rep.hypotheses_hold and rep.pass_14 and rep.pass_15
    assert rep.triples_scanned == binom(310, 3)


def test_stability_degree_bound_prunes_scan(monkeypatch):
    # on the triangle, {1,2,3} has outside 0 and every other triple's degree
    # sum proves outside > 0, so nearly nothing else is evaluated
    calls = []

    def counting(fam):
        cells = trace_counter(fam)
        return lambda t: calls.append(t) or cells(t)

    monkeypatch.setattr(stability, "trace_counter", counting)
    rep = find_stability_triple(family_triangle(310, 3), 36)
    assert rep.triple == (1, 2, 3)
    assert 0 < len(calls) < 10


@pytest.mark.parametrize("fam", [
    family_uvw(60, 3, (17, 30, 41)),
    family_triangle(110, 3),
    example_t(60, 4, sample_kernels(2)),
    full_star(40, 3, 1),
    fano_families(60, 3)[0],
    example_t(16, 3, KernelTriple.uniform((4, 5))),
], ids=["uvw-60", "triangle-110", "example-t-60-4-2", "star-40", "fano-l-60",
        "example-t-16-equal"])
def test_stability_scan_matches_unpruned_on_constructions(fam):
    # the star, Fano-L and equal-kernel families tie on outside across
    # many triples, so the scan must visit every tie to keep the lex-first
    rep = find_stability_triple(fam, 36)
    assert (rep.outside, rep.missing, rep.triple) == brute_stability_key(fam)
    assert rep.triples_scanned == binom(fam.n, 3)


@pytest.mark.parametrize("n", [8, 200_000])
def test_stability_k_at_most_one_takes_first_triple(n):
    # no member of a k <= 1 family meets a triple twice, so every triple
    # ties at (|F|, 0) and the degree-sum bound never stops a scan
    fams = [full_star(n, 1), Family(n, 0, [0])]
    if n < 10:
        fams.append(Family.from_sets(n, 1, [[2], [5], [n]]))
    for fam in fams:
        rep = find_stability_triple(fam, 36)
        assert (rep.outside, rep.missing, rep.triple) == (len(fam), 0, (1, 2, 3))
        assert rep.triples_scanned == binom(n, 3)
        if n < 10:
            assert (rep.outside, rep.missing, rep.triple) == brute_stability_key(fam)


def test_lemma_key2_triangle():
    fam = family_triangle(60, 4)
    rep = verify_lemma_key2(fam, 1, 2)
    assert rep.hypotheses_hold
    assert rep.link_size == binom(57, 2) == 1596
    assert rep.link_threshold == 5 * binom(56, 1) == 280
    assert rep.witness_w == 3
    assert rep.ok
    assert rep.empty_trace == 0
    assert rep.singleton_traces == (0, 0, 0)


def test_lemma_key2_star_hypothesis_fails():
    star = full_star(30, 3, 1)
    rep = verify_lemma_key2(star, 1, 2)
    assert not rep.hypotheses_hold
    assert rep.link_size == 0
    assert not rep.ok


def test_lemma_key2_fano_probe():
    fl, _ = fano_families(40, 4)
    u = fl.max_degree()[1]
    v = 8 if u != 8 else 9
    rep = verify_lemma_key2(fl, u, v)
    # measurement only: the report must be well-formed either way
    assert rep.hypotheses_hold == (rep.link_size >= rep.link_threshold)
    with pytest.raises(ValueError):
        verify_lemma_key2(fl, v, u)  # v is not a max-degree element
    for bad_v in (u, 41):  # v = u, and v outside [1, 40]
        with pytest.raises(ValueError, match=f"v={bad_v} "):
            verify_lemma_key2(fl, u, bad_v)
