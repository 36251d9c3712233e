"""The complete k-uniform Family as a universe of subfamily bitsets, its
membership test and the k-set enumeration, against direct scans."""
import itertools

import pytest

from divlab.family import Family, iter_ksets, mask_of

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def _ksets(n, k):
    return [set(c) for c in itertools.combinations(range(1, n + 1), k)]


def _bits(picked):
    return [i for i in range(picked.bit_length()) if picked >> i & 1]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_universe_matches_pairwise_scans(data):
    n = data.draw(st.integers(1, 6), label="n")
    a = data.draw(st.integers(0, n), label="a")
    b = data.draw(st.integers(0, n), label="b")
    ua, ub = Family(n, a, iter_ksets(n, a)), Family(n, b, iter_ksets(n, b))
    sets_a, sets_b = _ksets(n, a), _ksets(n, b)
    assert list(ua.members) == [mask_of(s) for s in sets_a]
    assert ua.full == (1 << len(sets_a)) - 1

    cross = ub.disjoint_from(ua.members)
    for i, x in enumerate(sets_a):
        assert _bits(cross[i]) == [j for j, y in enumerate(sets_b) if not x & y]
        assert _bits(ua.disjoint[i]) == [j for j, y in enumerate(sets_a) if not x & y]

    picked = data.draw(st.integers(0, ua.full), label="picked")
    chosen = [sets_a[i] for i in _bits(picked)]
    assert _bits(ua.meeting(picked)) == [
        j for j, y in enumerate(sets_a) if all(x & y for x in chosen)
    ]
    assert _bits(ub.meeting(picked, cross)) == [
        j for j, y in enumerate(sets_b) if all(x & y for x in chosen)
    ]
    fam = ua.subfamily(picked)
    assert (fam.n, fam.k) == (n, a)
    assert fam.sets() == sorted(tuple(sorted(x)) for x in chosen)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_membership_reads_the_columns(data):
    n = data.draw(st.integers(1, 7), label="n")
    k = data.draw(st.integers(0, n), label="k")
    members = data.draw(st.sets(st.sampled_from(list(iter_ksets(n, k)))), label="members")
    # masks of every size, some with bits beyond [n]
    probes = data.draw(st.lists(st.integers(0, (1 << (n + 2)) - 1), max_size=20), label="probes")
    for fam in (Family(n, k, members), Family(n, k), Family(n, 0, [0])):
        for mask in [*probes, *iter_ksets(n, fam.k), 0, 1 << n, (1 << (n + 1)) - 1, -1]:
            assert (mask in fam) == (mask in set(fam.members)), (fam, mask)


def test_iter_ksets_matches_combinations():
    for n in range(0, 11):
        for k in range(0, n + 2):
            want = [sum(1 << b for b in c) for c in itertools.combinations(range(n), k)]
            assert list(iter_ksets(n, k)) == want, (n, k)
    with pytest.raises(ValueError):
        list(iter_ksets(3, -1))


def test_iter_ksets_wide_masks_in_linear_time():
    # each mask is a fixed number of big-int operations, so five masks of
    # 500,000 elements on [1,000,000] come at once (one |= per element
    # would take minutes)
    n, k = 1_000_000, 500_000
    first = list(itertools.islice(iter_ksets(n, k), 5))
    run = (1 << (k - 1)) - 1  # elements 1..k-1
    assert first == [(1 << k) - 1] + [run | 1 << (k - 1 + j) for j in range(1, 5)]
