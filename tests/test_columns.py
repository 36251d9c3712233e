"""The incidence-column engine against the pair scans it replaced."""
import pytest

from divlab.family import Family, addable_sets, cross_intersecting, iter_ksets, mask_of
from helpers import (
    brute_cross_intersecting,
    brute_degrees,
    brute_disjointness,
    brute_is_intersecting,
    brute_is_star,
)

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def _check_queries(fam: Family, other: Family) -> None:
    """Every column query on `fam` (and the pair fam, other) equals its oracle."""
    assert len(fam.cols) == fam.n + 1 and fam.cols[0] == 0
    for e in range(1, fam.n + 1):
        assert fam.cols[e] == sum(1 << i for i, m in enumerate(fam.members) if m >> (e - 1) & 1)
    assert fam.degrees == brute_degrees(fam)
    assert fam.is_star() == brute_is_star(fam)
    assert fam.is_intersecting() == brute_is_intersecting(fam)
    for t in (1, 2):
        assert cross_intersecting(fam, other, t) == brute_cross_intersecting(fam, other, t)
    xs, ys = list(fam.members), list(other.members)
    assert other.disjoint_from(xs) == brute_disjointness(xs, ys)
    assert fam.disjoint == brute_disjointness(xs, xs)
    if fam.is_intersecting():
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
}


@pytest.mark.parametrize("name", sorted(_EDGE))
def test_columns_on_edge_families(name):
    fam = _EDGE[name]
    for other in _EDGE.values():
        if other.n == fam.n:
            _check_queries(fam, other)

