import json
import re

import pytest

from divlab import family
from divlab.constructions import MAX_SETS, family_triangle
from divlab.io import (
    FamilyFormatError,
    dump_json,
    family_from_dict,
    read_family,
    sha256_file,
    write_family,
)


def test_roundtrip(tmp_path):
    fam = family_triangle(9, 3)
    path = tmp_path / "f.json"
    write_family(fam, path)
    assert read_family(path) == fam
    data = json.loads(path.read_text())
    assert data["n"] == 9 and data["k"] == 3
    assert data["sets"][0] == [1, 2, 4]  # 1-indexed, lex-sorted on disk


class _Row(list):
    """A list subclass, which the reader takes as a set."""


def test_reader_rejections():
    good = {"n": 5, "k": 2, "sets": [[1, 2], [2, 3]]}
    assert family_from_dict(good).sets() == [(1, 2), (2, 3)]
    assert family_from_dict({"n": 5, "k": 2, "sets": [_Row([2, 3]), [1, 2]]}).sets() == [(1, 2), (2, 3)]
    assert family_from_dict({"n": 5, "k": 0, "sets": [[]]}).sets() == [()]
    assert len(family_from_dict({"n": 5, "k": 2, "sets": []})) == 0
    bad_cases = [
        ({"n": 5, "k": 2}, "missing key 'sets'"),
        ({"n": 5, "k": 2, "sets": [[1, 2], [1, 2]]}, "duplicate set [1, 2]"),
        ({"n": 5, "k": 2, "sets": [[2, 3], [1, 2], [2, 3]]}, "duplicate set [2, 3]"),  # after an out-of-order pair
        ({"n": 5, "k": 0, "sets": [[], []]}, "duplicate set []"),
        ({"n": 5, "k": 2, "sets": [[2, 1]]}, "set [2, 1] is not strictly increasing"),
        ({"n": 5, "k": 2, "sets": [[1, 1]]}, "set [1, 1] is not strictly increasing"),
        ({"n": 5, "k": 2, "sets": [[1, 2, 3]]}, "set [1, 2, 3] has 3 elements, expected 2"),
        ({"n": 5, "k": 2, "sets": [[0, 2]]}, "set [0, 2] has elements outside [1,5]"),
        ({"n": 5, "k": 2, "sets": [[4, 6]]}, "set [4, 6] has elements outside [1,5]"),
        ({"n": 5, "k": 2, "sets": [[True, 2]]}, "set [True, 2] must be a list of integers"),
        ({"n": 5, "k": 2, "sets": ["x"]}, "set 'x' must be a list of integers"),
        ({"n": 5, "k": 2, "sets": [1, 2]}, "set 1 must be a list of integers"),
        ({"n": 5, "k": 2, "sets": {"a": 1}}, "sets must be a list of lists"),
        ({"n": "5", "k": 2, "sets": []}, "n and k must be integers"),
        ({"n": 5, "k": 7, "sets": []}, "invalid sizes n=5, k=7"),
        ([1, 2, 3], "family file must be a JSON object"),
    ]
    for data, message in bad_cases:
        with pytest.raises(FamilyFormatError, match=f"^{re.escape(message)}$"):
            family_from_dict(data)


def test_reader_refuses_huge_ground_set_before_reading_sets():
    # the bad set would be reported first if the sets were read before the guard
    with pytest.raises(ValueError, match="guard"):
        family_from_dict({"n": MAX_SETS + 1, "k": 1, "sets": [["x"], [MAX_SETS + 1]]})


def test_reader_refuses_element_bits_before_reading_sets(monkeypatch):
    # 3 sets of 2 elements on [4] are 24 element-bits; the bad set is never read
    monkeypatch.setattr(family, "MAX_ELEMENT_BITS", 23)
    with pytest.raises(ValueError, match="guard: 3 sets of 2 elements on n=4 read 24 element-bits"):
        family_from_dict({"n": 4, "k": 2, "sets": [[1, 2], [1, 3], ["x"]]})
    monkeypatch.setattr(family, "MAX_ELEMENT_BITS", 24)
    assert len(family_from_dict({"n": 4, "k": 2, "sets": [[1, 2], [1, 3], [2, 3]]})) == 3


def test_read_family_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(FamilyFormatError):
        read_family(path)


def test_dump_json_deterministic():
    payload = {"b": 1, "a": [1, 2], "r": "5/4"}
    assert dump_json(payload) == dump_json(dict(payload))
    assert dump_json(payload).endswith("\n")


def test_sha256(tmp_path):
    path = tmp_path / "x.json"
    write_family(family_triangle(8, 3), path)
    first = sha256_file(path)
    assert first == sha256_file(path)
    assert len(first) == 64
