"""Family files, file digests and deterministic JSON emission.

Family files are 1-indexed JSON: {"n": int, "k": int, "sets": [[...], ...]}
with strictly increasing inner lists; everything else is rejected.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

from .family import Family


class FamilyFormatError(ValueError):
    """Raised for malformed family files."""


def family_to_dict(fam: Family) -> dict[str, Any]:
    return {"n": fam.n, "k": fam.k, "sets": [list(s) for s in fam.sets()]}


def family_from_dict(data: Any) -> Family:
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
    if not isinstance(sets, list):
        raise FamilyFormatError("sets must be a list of lists")
    seen = set()
    for s in sets:
        if not isinstance(s, list) or not all(isinstance(e, int) and not isinstance(e, bool) for e in s):
            raise FamilyFormatError(f"set {s!r} must be a list of integers")
        if len(s) != k:
            raise FamilyFormatError(f"set {s} has {len(s)} elements, expected {k}")
        if any(not 1 <= e <= n for e in s):
            raise FamilyFormatError(f"set {s} has elements outside [1,{n}]")
        if any(s[i] >= s[i + 1] for i in range(len(s) - 1)):
            raise FamilyFormatError(f"set {s} is not strictly increasing")
        key = tuple(s)
        if key in seen:
            raise FamilyFormatError(f"duplicate set {s}")
        seen.add(key)
    return Family.from_sets(n, k, sets)


def dump_json(data: Any) -> str:
    """Deterministic rendering: insertion-ordered keys, fixed separators."""
    return json.dumps(data, indent=2, separators=(",", ": ")) + "\n"


def write_family(fam: Family, path: str | Path) -> None:
    Path(path).write_text(dump_json(family_to_dict(fam)))


def read_family(path: str | Path) -> Family:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FamilyFormatError(f"{path}: not valid JSON ({exc})") from exc
    return family_from_dict(data)


def sha256_file(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
