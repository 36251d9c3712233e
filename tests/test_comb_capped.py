"""The capped binomial the size guards use, against math.comb."""
import math

import pytest

from divlab.family import comb_capped

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@settings(max_examples=400, deadline=None)
@given(
    n=st.integers(0, 300),
    r=st.integers(-5, 305),
    cap=st.one_of(st.integers(-2, 2000), st.integers(0, 10**90)),
)
def test_comb_capped_is_exact_up_to_the_cap_and_a_lower_bound_above(n, r, cap):
    exact = math.comb(n, r) if r >= 0 else 0
    got = comb_capped(n, r, cap)
    if exact <= cap:
        assert got == exact
    else:
        assert cap < got <= exact


def test_comb_capped_stops_early_on_huge_binomials():
    # C(10**6, 5*10**5) has some 300,000 digits; the loop stops at C(10**6, 1)
    assert comb_capped(10**6, 5 * 10**5, 1000) == 10**6
    assert comb_capped(10**6, 5 * 10**5, 10**6) == math.comb(10**6, 2)
