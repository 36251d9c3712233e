"""The family writer and the family reader against the element-by-element
versions they replaced (the oracles in helpers)."""
import pytest

from divlab.family import Family, mask_of
from divlab.io import family_from_dict, write_family
from helpers import reference_family_from_dict, reference_family_text

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402


@st.composite
def families(draw, n_max=70):
    n = draw(st.integers(1, n_max), label="n")
    k = draw(st.integers(0, n), label="k")
    sets = draw(st.lists(st.sets(st.integers(1, n), min_size=k, max_size=k), max_size=40))
    return Family(n, k, map(mask_of, sets))


@settings(max_examples=200, deadline=None)
@given(families())
@example(Family(5, 0))  # the empty family at k = 0
@example(Family(5, 0, [0]))  # the empty set, the one 0-set
@example(Family(3, 2))  # the empty family
def test_writer_matches_generic_encoder(tmp_path_factory, fam):
    path = tmp_path_factory.mktemp("w") / "f.json"
    write_family(fam, path)
    assert path.read_bytes() == reference_family_text(fam).encode()


def _elements(n):
    return st.one_of(
        st.integers(-1, n + 1), st.booleans(), st.floats(allow_nan=False),
        st.lists(st.integers(1, n), max_size=2), st.none(), st.text(max_size=1),
    )


@st.composite
def family_data(draw):
    """Parsed family files, mostly almost valid: good sets from a small pool
    (so duplicates are common) mixed with unsorted, repeated, out-of-range,
    wrongly sized and wrongly typed ones, and now and then bad sizes."""
    n = draw(st.integers(1, 7), label="n")
    k = draw(st.integers(0, n), label="k")
    good = st.permutations(range(1, n + 1)).map(lambda p: sorted(p[:k]))
    bad = st.one_of(
        st.lists(st.integers(1, n), min_size=k, max_size=k),  # unsorted or repeated
        st.lists(st.integers(-1, n + 2), min_size=max(k - 1, 0), max_size=k + 1),
        st.lists(_elements(n), max_size=k + 1),
        st.one_of(st.integers(), st.none(), st.text(max_size=2), st.tuples(st.integers(1, n))),
    )
    sets = draw(st.lists(st.one_of(good, good, good, good, good, bad), max_size=12))
    data = {"n": n, "k": k, "sets": sets}
    if draw(st.integers(0, 9)) == 5:  # (not 0, which hypothesis favours)
        key = draw(st.sampled_from(["n", "k", "sets"]))
        data[key] = draw(st.one_of(st.integers(-1, 9), st.booleans(), st.floats(), st.none(),
                                   st.lists(st.integers(), max_size=2)))
    if draw(st.integers(0, 19)) == 5:
        del data[draw(st.sampled_from(["n", "k", "sets"]))]
    return data


def _outcome(reader, data):
    try:
        fam = reader(data)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return fam.n, fam.k, fam.members


@settings(max_examples=800, deadline=None)
@given(family_data())
@example({"n": 5, "k": 2, "sets": [[1, 2], [2, 3], [3, 1], [9, 9]]})  # bad set after good ones
@example({"n": 5, "k": 2, "sets": [[1, 2], [1, 2.0]]})  # float element
@example({"n": 5, "k": 2, "sets": [[1, 2], [True, 2]]})  # bool element
@example({"n": 5, "k": 2, "sets": [[2, 3], [[1], 2]]})  # nested list
@example({"n": 5, "k": 2, "sets": [[4, 5], [6, 1]]})  # out of range and unsorted
@example({"n": 5, "k": 2, "sets": [[2, 3], [2, 2]]})  # repeated element
@example({"n": 5, "k": 2, "sets": [[2, 3], [1, 4], [2, 3]]})  # duplicate set
@example({"n": 5, "k": 0, "sets": [[], []]})  # duplicate empty set
@example([{"n": 5}])  # not an object
def test_reader_matches_elementwise_reader(data):
    assert _outcome(family_from_dict, data) == _outcome(reference_family_from_dict, data)
