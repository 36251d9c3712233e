"""The family writer, the family reader and Family's member order against
the versions they replaced (the oracles in helpers)."""
import pytest

from divlab.constructions import example_t, full_star, sample_kernels
from divlab.family import Family, elements_of, iter_ksets, mask_of
from divlab.io import family_from_dict, write_family
from helpers import brute_family_from_dict, reference_family_from_dict, reference_family_text

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
@example(Family(5, 1, [1, 4, 16]))
@example(example_t(28, 6, sample_kernels(3)))  # 16,698 sets
@example(full_star(40, 3))
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


@st.composite
def family_files(draw):
    """Parsed family files on n <= 12: distinct k-sets in lex order, the
    same sets shuffled, or either with bad sets put in at random places
    (a repeat, an unsorted or wrongly sized set, an element out of range
    or of the wrong type, a set that is no list)."""
    n = draw(st.integers(1, 12), label="n")
    k = draw(st.integers(0, n), label="k")
    picked = draw(st.lists(st.sampled_from(list(iter_ksets(n, k))), unique=True, max_size=30))
    sets = [list(elements_of(m)) for m in sorted(picked, key=elements_of)]
    if draw(st.booleans()):
        sets = draw(st.permutations(sets))
    good = list(sets)
    for _ in range(draw(st.integers(0, 2), label="bad sets")):
        s = list(draw(st.sampled_from(good))) if good else [1] * k
        kind = draw(st.sampled_from(["repeat", "unsorted", "size", "range", "type", "not a list"]))
        if kind == "unsorted" and k >= 2:
            s = s[::-1]
        elif kind == "size":
            s = s[1:] if s and draw(st.booleans()) else s + [draw(st.integers(1, n))]
        elif kind == "range" and s:
            s[draw(st.integers(0, k - 1))] = draw(st.sampled_from([0, -1, n + 1, 10**30]))
        elif kind == "type" and s:
            s[draw(st.integers(0, k - 1))] = draw(st.sampled_from([True, 1.0, "1", None, [1]]))
        elif kind == "not a list":
            s = draw(st.sampled_from([tuple(s), "x", 5, None, {}]))
        sets.insert(draw(st.integers(0, len(sets))), s)
    return {"n": n, "k": k, "sets": sets}


@settings(max_examples=600, deadline=None)
@given(family_files())
@example({"n": 5, "k": 2, "sets": [[2, 3], [1, 2], [2, 3]]})  # a repeat after an out-of-order pair
@example({"n": 5, "k": 0, "sets": [[]]})
@example({"n": 5, "k": 0, "sets": [[], []]})
@example({"n": 5, "k": 2, "sets": []})
@example({"n": 5, "k": 2, "sets": [[1, 2], "x"]})
@example({"n": 5, "k": 2, "sets": [[1, 2], [3, 1], [9, 9]]})  # two bad sets: the first is named
def test_reader_matches_per_set_reader(data):
    assert _outcome(family_from_dict, data) == _outcome(brute_family_from_dict, data)


@st.composite
def member_lists(draw):
    """Masks of k-subsets of [n], n <= 12, in the order drawn, repeats kept."""
    n = draw(st.integers(1, 12), label="n")
    k = draw(st.integers(0, n), label="k")
    return n, k, draw(st.lists(st.sampled_from(list(iter_ksets(n, k))), max_size=40))


@settings(max_examples=300, deadline=None)
@given(member_lists(), st.sampled_from(["as drawn", "sorted", "reversed", "generator"]))
def test_member_order_matches_sorted_set(drawn, shape):
    n, k, ms = drawn
    want = tuple(sorted(set(ms), key=elements_of))
    if shape == "sorted":
        ms = list(want)
    elif shape == "reversed":
        ms = list(want)[::-1]
    fam = Family(n, k, (m for m in ms) if shape == "generator" else ms)
    assert fam.members == want

