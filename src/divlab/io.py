"""Family files, file digests and deterministic JSON emission.

Family files are 1-indexed JSON: {"n": int, "k": int, "sets": [[...], ...]}
with strictly increasing inner lists; everything else is rejected.
"""
from __future__ import annotations

import hashlib
import json
import operator
from itertools import repeat
from pathlib import Path
from typing import Any

from .family import Family, check_element_bits, check_ground_set, elements_of, mask_of


class FamilyFormatError(ValueError):
    """Raised for malformed family files."""


def family_to_dict(fam: Family) -> dict[str, Any]:
    return {"n": fam.n, "k": fam.k, "sets": [list(s) for s in fam.sets()]}


def family_from_dict(data: Any) -> Family:
    """The family a parsed family file describes.

    Every set must be a list of integers, of length k, inside [1,n],
    strictly increasing and not a duplicate.  The sets are checked in bulk,
    a column of the family at a time; only when a check fails are they read
    again one at a time, in file order, to report the first bad one.  A
    ground set, or a total of len(sets) * k * n element-bits, above its
    guard is refused (ValueError) before any set is read.
    """
    if not isinstance(data, dict):
        raise FamilyFormatError("family file must be a JSON object")
    for key in ("n", "k", "sets"):
        if key not in data:
            raise FamilyFormatError(f"missing key {key!r}")
    n, k, sets = data["n"], data["k"], data["sets"]
    if not isinstance(n, int) or not isinstance(k, int) or isinstance(n, bool) or isinstance(k, bool):
        raise FamilyFormatError("n and k must be integers")
    if n < 1 or not 0 <= k <= n:
        raise FamilyFormatError(f"invalid sizes n={n}, k={k}")
    check_ground_set(n)
    if not isinstance(sets, list):
        raise FamilyFormatError("sets must be a list of lists")
    check_element_bits(len(sets), k, n)
    masks = _masks(n, k, sets)
    if masks is None:
        _reject_set(n, k, sets)
    fam = Family(n, k, masks)
    if len(fam) < len(masks):  # some set repeats
        _reject_set(n, k, sets)
    return fam


def _masks(n: int, k: int, sets: list) -> list[int] | None:
    """The masks of `sets`, or None if some set is not a list of k integers
    inside [1,n] in strictly increasing order.  The sets are read a column
    at a time (element j of every set), so each check and each mask bit is
    one C-level pass over a column, and at most two columns are held."""
    if not all(map(isinstance, sets, repeat(list))) or set(map(len, sets)) - {k}:
        return None
    masks = [0] * len(sets)  # element e sets bit e; the masks are shifted down at the end
    for j in range(k):
        col = list(map(operator.itemgetter(j), sets))
        if set(map(type, col)) - {int} or col and not (1 <= min(col) and max(col) <= n):
            return None
        if j and not all(map(operator.lt, prev, col)):
            return None
        masks = list(map(operator.or_, masks, map(operator.lshift, repeat(1), col)))
        prev = col
    return list(map(operator.rshift, masks, repeat(1)))


def _reject_set(n: int, k: int, sets: list) -> None:
    """Raise for the first set, in file order, that a family file may not hold."""
    seen = set()
    for s in sets:
        if not isinstance(s, list) or not set(map(type, s)) <= {int}:
            raise FamilyFormatError(f"set {s!r} must be a list of integers")
        if len(s) != k:
            raise FamilyFormatError(f"set {s} has {len(s)} elements, expected {k}")
        if s and not 1 <= min(s) <= max(s) <= n:
            raise FamilyFormatError(f"set {s} has elements outside [1,{n}]")
        if not all(map(operator.lt, s, s[1:])):
            raise FamilyFormatError(f"set {s} is not strictly increasing")
        m = mask_of(s)
        if m in seen:
            raise FamilyFormatError(f"duplicate set {s}")
        seen.add(m)


def dump_json(data: Any) -> str:
    """Deterministic rendering: insertion-ordered keys, fixed separators."""
    return json.dumps(data, indent=2, separators=(",", ": ")) + "\n"


def write_family(fam: Family, path: str | Path) -> None:
    """Write the bytes of dump_json(family_to_dict(fam)), each set through
    one row template, a row at a time."""
    # the k = 0 row is the empty set's "[]"
    row = ",\n    [" + ",".join(["\n      %d"] * fam.k) + ("\n    ]" if fam.k else "]")
    rows = map(row.__mod__, map(elements_of, fam.members))
    with open(path, "w") as out:
        out.write(f'{{\n  "n": {fam.n},\n  "k": {fam.k},\n  "sets": [')
        if fam.members:
            out.write("\n" + next(rows)[2:])  # the first row has no separator
            out.writelines(rows)
            out.write("\n  ")
        out.write("]\n}\n")


def read_family(path: str | Path) -> Family:
    try:
        data = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested past the recursion limit
        raise FamilyFormatError(f"{path}: not valid JSON ({exc})") from exc
    return family_from_dict(data)


def sha256_file(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
