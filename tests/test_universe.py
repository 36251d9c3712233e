"""Family.Universe, disjointness and the k-set enumeration against direct
scans."""
import itertools

import pytest

from divlab.family import Universe, disjointness, iter_ksets, mask_of

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
    ua, ub = Universe(n, a), Universe(n, b)
    sets_a, sets_b = _ksets(n, a), _ksets(n, b)
    assert ua.masks == [mask_of(s) for s in sets_a]
    assert ua.full == (1 << len(sets_a)) - 1

    cross = disjointness(ua.masks, ub.masks)
    for i, x in enumerate(sets_a):
        assert _bits(cross[i]) == [j for j, y in enumerate(sets_b) if not x & y]
        assert _bits(ua.disjoint[i]) == [j for j, y in enumerate(sets_a) if not x & y]
    assert ua.avoids[0] == ua.full
    for e in range(1, n + 1):
        assert _bits(ua.avoids[e]) == [i for i, x in enumerate(sets_a) if e not in x]

    picked = data.draw(st.integers(0, ua.full), label="picked")
    chosen = [sets_a[i] for i in _bits(picked)]
    assert _bits(ua.meeting(picked)) == [
        j for j, y in enumerate(sets_a) if all(x & y for x in chosen)
    ]
    assert _bits(ub.meeting(picked, cross)) == [
        j for j, y in enumerate(sets_b) if all(x & y for x in chosen)
    ]
    fam = ua.family(picked)
    assert (fam.n, fam.k) == (n, a)
    assert fam.sets() == sorted(tuple(sorted(x)) for x in chosen)


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
