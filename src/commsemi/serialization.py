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
from itertools import chain

from .semigroups import FULL, PARTIAL, SemigroupSet, _from_images
from .transform import PartialTransformation, Transformation, _checked_degree


def dumps_semigroup(S: SemigroupSet) -> str:
    """Canonical text form: sorted keys, no whitespace, canonical element order.

    The text is what ``json.dumps(..., sort_keys=True, separators=(",", ":"))``
    gives for the interchange object, written straight from the image bytes:
    each byte is spelled through one table for the degree, in which the
    sentinel n (only in partial maps) is ``null``.  The text's SHA-256 is kept on the
    set for :func:`semigroup_digest`; the set is immutable, so it stays valid.
    """
    n = S.degree
    spell = [*map(str, range(n)), "null"].__getitem__
    rows = "],[".join([",".join(map(spell, img)) for img in S.images])
    text = f'{{"degree":{n},"elements":[[{rows}]],"kind":"{S.kind}"}}'
    S._digest = hashlib.sha256(text.encode("ascii")).hexdigest()
    return text


def semigroup_digest(S: SemigroupSet) -> str:
    """SHA-256 of the canonical text, kept on the set from its last dump."""
    if S._digest is None:
        dumps_semigroup(S)
    return S._digest


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
    imgs = _good_rows(rows, n, kind == PARTIAL)
    if imgs is None:
        imgs = []
        for i, row in enumerate(rows):  # some row is bad: find it and say why
            if not isinstance(row, list) or len(row) != n:
                raise ValueError(f"element {i} must be a list of {n} images")
            for v in row:
                if v is None:
                    if kind == FULL:
                        raise ValueError(f"element {i}: null image in a full map")
                elif not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                    raise ValueError(f"element {i}: image {v!r} out of range 0..{n - 1}")
            imgs.append(cls(row).img)  # the row is good but holds an int subclass
    S = _from_images(cls, imgs)
    if len(S) != len(rows):
        raise ValueError("elements contain duplicates")
    return S


def _good_rows(rows: list, n: int, partial: bool) -> list[bytes] | None:
    """The images of every on-disk row (null as the sentinel n), or None.

    None means some row is not a list of n values that are each an ``int``
    in ``[0, n)`` or, in a partial file, null; the caller then finds it row
    by row.  The checks run over all rows at once in C, since a file can
    hold ξ(n) rows.
    """
    if set(map(type, rows)) != {list} or set(map(len, rows)) != {n}:
        return None
    types = set(map(type, chain.from_iterable(rows)))
    if partial:
        if not types <= {int, type(None)}:
            return None
        image = {v: v for v in range(n)}
        image[None] = n
        try:
            return [bytes(map(image.__getitem__, row)) for row in rows]
        except KeyError:  # out of range, or the in-memory sentinel n spelled on disk
            return None
    if types != {int}:
        return None
    try:
        imgs = list(map(bytes, rows))
    except ValueError:  # a value outside 0..255: the row-by-row path names it
        return None
    return imgs if max(map(max, imgs)) < n else None


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
