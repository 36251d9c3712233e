"""family.trace_counter and triangle_decomposition against Family.trace, the
reference both replace."""
import itertools

import pytest

from divlab.family import Family, iter_ksets, trace_counter
from divlab.formulas import binom
from divlab.stability import TriangleDecomposition, triangle_decomposition

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

_PARTS = ((), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cells_match_trace(data):
    n = data.draw(st.integers(3, 8), label="n")
    k = data.draw(st.integers(1, min(4, n)), label="k")
    ksets = list(iter_ksets(n, k))
    picked = data.draw(st.sets(st.sampled_from(ksets)), label="members")
    fam = Family(n, k, picked)
    cells = trace_counter(fam)
    for t in itertools.combinations(range(1, n + 1), 3):
        want = tuple(len(fam.trace([t[i] for i in p], t)) for p in _PARTS)
        assert cells(t) == want, t
        h, g_u, g_v, g_w, m_uv, m_uw, m_vw, m = want
        base = binom(n - 3, k - 2)
        assert triangle_decomposition(fam, t) == TriangleDecomposition(
            n, k, t, base - m_uv, base - m_uw, base - m_vw, g_u, g_v, g_w, h, m), t
    for pair in itertools.combinations(range(1, n + 1), 2):
        empty, only_u, only_v, both = (
            len(fam.trace(p, pair)) for p in ((), pair[:1], pair[1:], pair)
        )
        assert cells((0, *pair)) == (empty, 0, only_u, only_v, 0, 0, both, 0), pair
