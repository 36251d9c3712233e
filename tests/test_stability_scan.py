"""The degree-pruned stability scan against the unpruned oracle."""
import pytest

from divlab.family import Family, iter_ksets
from divlab.formulas import binom
from divlab.stability import find_stability_triple
from helpers import brute_stability_key

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_scan_matches_unpruned(data):
    # arbitrary members, so non-intersecting families and ties are common
    n = data.draw(st.integers(3, 9), label="n")
    k = data.draw(st.integers(1, n), label="k")
    ksets = list(iter_ksets(n, k))
    picked = data.draw(st.sets(st.sampled_from(ksets), min_size=1), label="members")
    fam = Family(n, k, picked)
    rep = find_stability_triple(fam, 36)
    assert (rep.outside, rep.missing, rep.triple) == brute_stability_key(fam)
    assert rep.triples_scanned == binom(n, 3)
