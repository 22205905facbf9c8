"""Reading and writing semigroup sets as JSON, plus digests and CSV output.

The interchange format is a single JSON object:

    {"degree": 3, "kind": "partial", "elements": [[0, null, 2], ...]}

Images are 0-based; ``null`` marks a point outside the domain of a partial
map (full maps may not contain it).  Loading is strict — anything that
would silently build the wrong semigroup is a ValueError.
"""

from __future__ import annotations

import csv
import hashlib
import json

from .semigroups import FULL, PARTIAL, SemigroupSet
from .transform import PartialTransformation, Transformation, _checked_degree, _raw


def to_jsonable(S: SemigroupSet) -> dict:
    rows = []
    if S.kind == FULL:
        for a in S:
            rows.append(list(a.img))
    else:
        n = S.degree
        for a in S:
            rows.append([None if v == n else v for v in a.img])
    return {"degree": S.degree, "kind": S.kind, "elements": rows}


def dumps_semigroup(S: SemigroupSet) -> str:
    """Canonical text form: sorted keys, no whitespace, canonical element order."""
    return json.dumps(to_jsonable(S), sort_keys=True, separators=(",", ":"))


def semigroup_digest(S: SemigroupSet) -> str:
    return hashlib.sha256(dumps_semigroup(S).encode("ascii")).hexdigest()


def load_semigroup(obj) -> SemigroupSet:
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    extra = set(obj) - {"degree", "kind", "elements"}
    if extra:
        raise ValueError(f"unexpected keys: {sorted(extra)}")
    missing = {"degree", "kind", "elements"} - set(obj)
    if missing:
        raise ValueError(f"missing keys: {sorted(missing)}")
    n = obj["degree"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"degree must be a positive integer, got {n!r}")
    _checked_degree(n)  # a point and the sentinel must fit in a byte
    kind = obj["kind"]
    if kind not in (FULL, PARTIAL):
        raise ValueError(f"kind must be 'full' or 'partial', got {kind!r}")
    rows = obj["elements"]
    if not isinstance(rows, list) or not rows:
        raise ValueError("elements must be a non-empty list")
    cls = Transformation if kind == FULL else PartialTransformation
    elems = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ValueError(f"element {i} must be a list of {n} images")
        img = _row_image(row, n, kind == PARTIAL)
        if img is None:
            for v in row:
                if v is None:
                    if kind == FULL:
                        raise ValueError(f"element {i}: null image in a full map")
                elif not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                    raise ValueError(f"element {i}: image {v!r} out of range 0..{n - 1}")
            img = cls(row).img  # the row is good but holds an int subclass
        elems.append(_raw(cls, img))
    S = SemigroupSet(elems)
    if len(S) != len(rows):
        raise ValueError("elements contain duplicates")
    return S


def _row_image(row: list, n: int, partial: bool) -> bytes | None:
    """The images of one on-disk row (null as the sentinel n), or None.

    None means some value is not an ``int`` in ``[0, n)`` (or null, in a
    partial row); the caller then finds it value by value.  The checks here
    make no Python call per value, since a file can hold ξ(n) rows.
    """
    if partial and None in row:
        if n in row:  # the in-memory sentinel spelled on disk
            return None
        row = [n if v is None else v for v in row]
        top = n
    else:
        top = n - 1
    if set(map(type, row)) == {int} and min(row) >= 0 and max(row) <= top:
        return bytes(row)
    return None


def load_semigroup_file(path: str) -> SemigroupSet:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    return load_semigroup(obj)


def write_semigroup_file(S: SemigroupSet, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_semigroup(S))
        fh.write("\n")


def write_xi_csv(rows, path: str) -> None:
    """Write (n, alpha, xi) rows with a header."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "alpha", "xi"])
        for r in rows:
            w.writerow([r[0], r[1], r[2]])


def dumps_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
