import functools
import itertools
import random

import pytest

from divlab.canonical import _Canonicalizer, are_isomorphic, canonical_form
from divlab.constructions import (
    FANO_LINES,
    family_triangle,
    family_uvw,
    fano_families,
    full_star,
)
from divlab.family import Family, iter_ksets
from helpers import brute_swap_classes, random_family, reference_canonical_form


def random_perm(rng, n):
    return dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n)))


def test_relabeled_triangles_agree():
    a = family_uvw(8, 3, (1, 2, 3))
    b = family_uvw(8, 3, (4, 5, 6))
    assert canonical_form(a) == canonical_form(b)
    assert are_isomorphic(a, b)


def test_stars_agree():
    assert canonical_form(full_star(9, 3, 1)) == canonical_form(full_star(9, 3, 9))


def test_permutation_invariance():
    rng = random.Random(99)
    base = [
        family_triangle(9, 3),
        full_star(8, 3, 2),
        fano_families(9, 3)[0],
        random_family(rng, 8, 3, 0.25),
    ]
    for fam in base:
        canon = canonical_form(fam)
        for _ in range(100):
            moved = fam.relabel(random_perm(rng, fam.n))
            assert canonical_form(moved) == canon


def test_idempotent():
    rng = random.Random(5)
    for _ in range(20):
        fam = random_family(rng, 7, 3, 0.3)
        canon = canonical_form(fam)
        assert canonical_form(canon) == canon


def test_distinguishes_same_degree_sequence():
    # two 2-regular 2-graphs on [6]: a 6-cycle vs two disjoint triangles;
    # vertex refinement alone cannot split them
    cycle = Family.from_sets(6, 2, [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [1, 6]])
    triangles = Family.from_sets(6, 2, [[1, 2], [1, 3], [2, 3], [4, 5], [4, 6], [5, 6]])
    assert sorted(cycle.degrees) == sorted(triangles.degrees)
    assert canonical_form(cycle) != canonical_form(triangles)
    assert not are_isomorphic(cycle, triangles)


def test_empty_and_mismatched():
    assert canonical_form(Family(5, 2)) == Family(5, 2)
    assert not are_isomorphic(Family(5, 2), Family(6, 2))
    assert not are_isomorphic(full_star(6, 2, 1), family_triangle(6, 2))


# Families where no transposition is an automorphism, so only automorphisms
# found at equal leaves can prune: the 2-(6,3,2) design (group order 60),
# the Fano plane (168) and the Petersen graph as a 2-family on [10] (120).
_DESIGN = Family.from_sets(6, 3, [
    [1, 2, 3], [1, 2, 4], [1, 3, 5], [1, 4, 6], [1, 5, 6],
    [2, 3, 6], [2, 4, 5], [2, 5, 6], [3, 4, 5], [3, 4, 6],
])
_FANO = Family.from_sets(7, 3, FANO_LINES)
_PAIRS = list(itertools.combinations(range(5), 2))
_PETERSEN = Family.from_sets(10, 2, [
    [i + 1, j + 1] for i, j in itertools.combinations(range(10), 2)
    if not set(_PAIRS[i]) & set(_PAIRS[j])
])
_NAMED = {"design": _DESIGN, "fano": _FANO, "petersen": _PETERSEN}


@pytest.mark.parametrize("name", sorted(_NAMED))
def test_no_transposition_families_match_reference(name):
    fam = _NAMED[name]
    ref, _ = reference_canonical_form(fam)
    assert canonical_form(fam) == ref
    rng = random.Random(name)
    for _ in range(20):
        assert canonical_form(fam.relabel(random_perm(rng, fam.n))) == ref


def test_leaf_automorphisms_prune_the_design():
    # the reference visits one leaf per automorphism of the design
    search = _Canonicalizer(_DESIGN)
    search.run()
    _, ref_leaves = reference_canonical_form(_DESIGN)
    assert ref_leaves == 60
    assert search.leaves < ref_leaves


def test_full_star_keeps_transposition_pruning():
    search = _Canonicalizer(full_star(12, 2))
    search.run()
    assert search.leaves == 1


def test_orbit_reps_match_brute_force_classes(monkeypatch):
    # every target cell met while canonicalizing; the oracle tests every
    # pair of the cell and closes the swap relation transitively
    cells = []
    orbit_reps = _Canonicalizer._orbit_reps

    def recording(self, cell):
        cells.append((self, list(cell)))
        return orbit_reps(self, cell)

    monkeypatch.setattr(_Canonicalizer, "_orbit_reps", recording)
    rng = random.Random(31)
    fams = [full_star(9, 3), family_triangle(9, 3), fano_families(9, 3)[0]]
    fams += [random_family(rng, rng.randint(3, 8), rng.randint(1, 3), rng.random())
             for _ in range(60)]
    for fam in fams:
        canonical_form(fam)
    assert len(cells) > 100
    for search, cell in cells:
        swaps = functools.partial(_Canonicalizer._swap_is_automorphism, search)
        tested = []
        search._swap_is_automorphism = lambda a, b: tested.append((a, b)) or swaps(a, b)
        reps = orbit_reps(search, cell)
        assert len(tested) <= len(cell) * (len(cell) - 1) // 2
        classes = brute_swap_classes(cell, swaps)
        assert reps == [cls[0] for cls in classes]
        # the swap relation is already transitive: a class is a clique
        for cls in classes:
            assert all(swaps(a, b) for a, b in itertools.combinations(cls, 2))


def _random_cubic(rng: random.Random, n: int) -> Family:
    """A random 3-regular graph on [n] as a 2-family, by pairing stubs."""
    while True:
        stubs = [v for v in range(1, n + 1) for _ in range(3)]
        rng.shuffle(stubs)
        edges = {tuple(sorted(stubs[i:i + 2])) for i in range(0, 3 * n, 2)}
        if len(edges) == 3 * n // 2 and all(a != b for a, b in edges):
            return Family.from_sets(n, 2, edges)


def test_regular_graphs_match_reference():
    # refinement cannot split a regular graph, and most random ones are
    # rigid, so the search reaches many leaves with distinct tuples: a
    # wrong generator or a wrongly skipped child changes the form
    rng = random.Random(12)
    for n in (8, 10, 10, 12, 12, 14, 14, 16):
        fam = _random_cubic(rng, n)
        ref, _ = reference_canonical_form(fam)
        for _ in range(3):
            assert canonical_form(fam.relabel(random_perm(rng, n))) == ref


pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_matches_reference_search(data):
    n = data.draw(st.integers(1, 8), label="n")
    k = data.draw(st.integers(0, n), label="k")
    members = data.draw(st.sets(st.sampled_from(list(iter_ksets(n, k)))), label="members")
    fam = Family(n, k, members)
    ref, _ = reference_canonical_form(fam)
    assert canonical_form(fam) == ref
    for _ in range(2):
        perm = data.draw(st.permutations(range(1, n + 1)), label="perm")
        assert canonical_form(fam.relabel(dict(zip(range(1, n + 1), perm)))) == ref
