"""Family files, file digests and deterministic JSON emission.

Family files are 1-indexed JSON: {"n": int, "k": int, "sets": [[...], ...]}
with strictly increasing inner lists; everything else is rejected.
"""
from __future__ import annotations

import hashlib
import json
import operator
from pathlib import Path
from typing import Any

from .family import Family, check_element_bits, check_ground_set, mask_of


class FamilyFormatError(ValueError):
    """Raised for malformed family files."""


def family_to_dict(fam: Family) -> dict[str, Any]:
    return {"n": fam.n, "k": fam.k, "sets": [list(s) for s in fam.sets()]}


def family_from_dict(data: Any) -> Family:
    """The family a parsed family file describes.

    Each set is checked once, in file order, and the first bad one is
    reported: a list of integers, of length k, inside [1,n], strictly
    increasing, not a duplicate.  A ground set, or a total of len(sets) * k
    * n element-bits, above its guard is refused (ValueError) before any set
    is read.
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
    masks = set()
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
        if m in masks:
            raise FamilyFormatError(f"duplicate set {s}")
        masks.add(m)
    return Family(n, k, masks)


def dump_json(data: Any) -> str:
    """Deterministic rendering: insertion-ordered keys, fixed separators."""
    return json.dumps(data, indent=2, separators=(",", ": ")) + "\n"


def write_family(fam: Family, path: str | Path) -> None:
    """Write the bytes of dump_json(family_to_dict(fam)), joined directly."""
    if not fam.members:
        sets = "[]"
    elif fam.k == 0:  # the one member is the empty set
        sets = "[\n    []\n  ]"
    else:
        sets = (
            json.dumps(fam.sets())
            .replace("], [", "\n    ],\n    [\n      ")
            .replace(", ", ",\n      ")
            .replace("[[", "[\n    [\n      ")
            .replace("]]", "\n    ]\n  ]")
        )
    Path(path).write_text(f'{{\n  "n": {fam.n},\n  "k": {fam.k},\n  "sets": {sets}\n}}\n')


def read_family(path: str | Path) -> Family:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FamilyFormatError(f"{path}: not valid JSON ({exc})") from exc
    return family_from_dict(data)


def sha256_file(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
