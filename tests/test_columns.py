"""The incidence-column engine against the pair scans it replaced."""
import itertools
import math
import random

import pytest

from divlab import family as family_module
from divlab.family import (
    LANE_WIDTH_PER_ELEMENT,
    Family,
    addable_sets,
    cross_intersecting,
    iter_ksets,
    mask_of,
)
from helpers import (
    brute_columns,
    brute_cross_intersecting,
    brute_degrees,
    brute_disjointness,
    brute_is_intersecting,
    brute_is_star,
    random_family,
)

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# the oracle for addable_sets walks every k-set, so drawn families check it
# on universes up to this size; every edge family checks it
_ADDABLE_UNIVERSE = 5000


def _check_queries(fam: Family, other: Family, addable: bool = True) -> None:
    """Every column query on `fam` (and the pair fam, other) equals its oracle;
    `addable_sets` too when `addable` is set and `fam` is intersecting."""
    assert len(fam.cols) == fam.n + 1 and fam.cols[0] == 0
    assert fam.cols == brute_columns(fam)
    assert fam.degrees == brute_degrees(fam)
    assert fam.is_star() == brute_is_star(fam)
    assert fam.is_intersecting() == brute_is_intersecting(fam)
    for t in (1, 2):
        assert cross_intersecting(fam, other, t) == brute_cross_intersecting(fam, other, t)
    xs, ys = list(fam.members), list(other.members)
    assert other.disjoint_from(xs) == brute_disjointness(xs, ys)
    assert fam.disjoint == brute_disjointness(xs, xs)
    if addable and fam.is_intersecting():
        members = set(fam.members)
        assert addable_sets(fam) == [
            c for c in iter_ksets(fam.n, fam.k) if c not in members and all(c & m for m in fam)
        ]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_columns_match_pair_scans(data):
    n = data.draw(st.integers(1, 7), label="n")
    k, k2 = (data.draw(st.integers(0, n), label=label) for label in ("k", "k2"))
    fam, other = (
        Family(n, size, data.draw(st.sets(st.sampled_from(list(iter_ksets(n, size)))), label=label))
        for size, label in ((k, "members"), (k2, "other"))
    )
    _check_queries(fam, other)


def _draw_family(data, n: int, label: str) -> Family:
    """A k-uniform family on [n], k drawn too, of up to 12 k-sets drawn as masks."""
    k = data.draw(st.integers(0, n), label=f"{label} k")
    ksets = st.permutations(range(1, n + 1)).map(lambda order: mask_of(order[:k]))
    return Family(n, k, data.draw(st.sets(ksets, max_size=min(12, math.comb(n, k))), label=label))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_columns_match_pair_scans_on_wider_masks(data):
    # n from 8 to 20 spans one to three byte lanes, with a partial last lane;
    # each k-set is drawn as a mask, so no list of every k-set is made
    n = data.draw(st.integers(8, 20), label="n")
    fam, other = (_draw_family(data, n, label) for label in ("members", "other"))
    _check_queries(fam, other, addable=math.comb(n, fam.k) <= _ADDABLE_UNIVERSE)


_W = LANE_WIDTH_PER_ELEMENT


def _first(n: int, k: int, size: int) -> list[int]:
    """The first `size` k-subsets of [n] in lex order."""
    return list(itertools.islice(iter_ksets(n, k), size))


_EDGE = {
    "empty": Family(5, 2),
    "k0-empty": Family(4, 0),
    "k0-emptyset": Family(4, 0, [0]),
    "one-member": Family(5, 3, [mask_of((2, 4, 5))]),
    "n1": Family(1, 1, [1]),
    "n1-empty": Family(1, 1),
    "n1-k0": Family(1, 0, [0]),
    "idle-elements": Family.from_sets(9, 2, [(1, 2), (1, 3), (2, 3)]),
    "disjoint-pair": Family.from_sets(9, 2, [(1, 2), (3, 4)]),
    "wide": Family(300, 2, [mask_of((1, 300)), mask_of((2, 300)), mask_of((1, 2))]),
    # one full lane, a partial second lane, two full lanes and a partial third
    "n8-7sets": Family(8, 3, _first(8, 3, 7)),
    "n8-8sets": Family(8, 7, iter_ksets(8, 7)),
    "n9-9sets": Family(9, 8, iter_ksets(9, 8)),
    "n16-8sets": Family(16, 5, _first(16, 5, 8)),
    "n16-9sets": Family.from_sets(16, 2, [(1, 16), (2, 15), (3, 14), (4, 13), (5, 12),
                                          (6, 11), (7, 10), (8, 9), (8, 16)]),
    "n17-7sets": Family.from_sets(17, 3, [(1, 9, 17), (2, 10, 17), (3, 11, 17), (4, 12, 17),
                                          (5, 13, 17), (6, 14, 17), (7, 15, 16)]),
    # elements 9..16 lie in no member: the second lane is all zero
    "n24-zero-lane": Family.from_sets(24, 2, [(1, 2), (1, 17), (2, 24), (8, 17)]),
    # at k = 2, n = 2w is the widest family read by byte lanes and n = 2w + 1
    # the narrowest read member by member (w = LANE_WIDTH_PER_ELEMENT)
    "lane-widest": Family.from_sets(2 * _W, 2, [(1, 2 * _W), (1, _W), (_W, _W + 1),
                                                (_W + 1, 2 * _W), (2, 3)]),
    "member-narrowest": Family.from_sets(2 * _W + 1, 2, [(1, 2 * _W + 1), (1, _W), (_W, _W + 1),
                                                         (_W + 1, 2 * _W + 1), (2, 3)]),
}


@pytest.mark.parametrize("name", sorted(_EDGE))
def test_columns_on_edge_families(name):
    fam = _EDGE[name]
    for other in _EDGE.values():
        if other.n == fam.n:
            _check_queries(fam, other)


def test_the_width_rule_picks_the_path(monkeypatch):
    # a dense family (n <= wk) is read by byte lanes, a wider one member by member
    by_member = family_module._columns_by_member
    read = []

    def spy(n, masks):
        read.append(n)
        return by_member(n, masks)

    monkeypatch.setattr(family_module, "_columns_by_member", spy)
    for k in (1, 2, 3):
        for n in (_W * k, _W * k + 1):
            fam = Family(n, k, [(1 << k) - 1, ((1 << k) - 1) << (n - k)])
            assert fam.cols == brute_columns(fam)
    assert read == [_W + 1, 2 * _W + 1, 3 * _W + 1]


def test_columns_across_join_chunks():
    # the lane rows are joined 4096 members at a time: one more member
    # crosses a chunk boundary, and the whole (16,5) universe spans two chunks
    chunk = family_module._LANE_CHUNK
    for fam in (Family(16, 5, _first(16, 5, chunk + 1)), Family(16, 5, iter_ksets(16, 5))):
        assert len(fam) > chunk
        assert fam.cols == brute_columns(fam)


def test_intersection_decided_by_shape_matches_pair_scans(monkeypatch):
    # any a-set and b-set of [n] meet in at least a + b - n elements, so
    # is_intersecting on n < 2k and cross_intersecting at a + b - n >= t
    # answer without building a column; elsewhere the columns still decide
    rng = random.Random(2811)
    fams = []
    for n in range(1, 9):
        for k in range(n + 1):
            fams.append(Family(n, k))
            fams.append(random_family(rng, n, k, 0.5))
            fams.append(Family(n, k, iter_ksets(n, k)))
    assert any(f.n == 2 * f.k - 1 and len(f) > 1 for f in fams)
    assert any(f.n == 2 * f.k and not brute_is_intersecting(f) for f in fams)
    built = []
    real = family_module.columns

    def spy(n, masks, k):
        built.append((n, k))
        return real(n, masks, k)

    monkeypatch.setattr(family_module, "columns", spy)

    def fresh(fam: Family) -> Family:  # a copy with no cached columns
        return Family(fam.n, fam.k, fam.members)

    for fam in fams:
        built.clear()
        assert fresh(fam).is_intersecting() == brute_is_intersecting(fam), fam
        assert (built == []) == (not fam.k or fam.n < 2 * fam.k), fam
        for other in fams:
            if other.n != fam.n:
                continue
            for t in (0, 1, 2, 3):
                built.clear()
                want = brute_cross_intersecting(fam, other, t)
                assert cross_intersecting(fresh(fam), fresh(other), t) == want, (fam, other, t)
                if fam.k + other.k - fam.n >= t:
                    assert want and built == [], (fam, other, t)
