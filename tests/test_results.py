"""RESULTS.json: one row per claim, kind and degree of ``oracle.CLAIMS``.

Each row is one line of sorted-key JSON: the claim, kind and degree n; the
published value (``expected``, null where nothing is published) and the
computed one, encoded as ``verify --json`` encodes them; ``match`` (null
where nothing is published); ``method``; the number of witness sets (the
maximizers, for a search); the SHA-256 of their newline-joined semigroup
digests; and their tags, space-joined in the order they are returned.

The rows cover every degree of each search, girth and knit at 2..7 and at
255, and xi-table at 20.  Regenerate the table with

    PYTHONPATH=src python tests/test_results.py > RESULTS.json

The tests recompute every row but those in SLOW and compare it, byte for
byte, with the committed line; CI recomputes all of them and diffs the file.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from pathlib import Path

import pytest

from commsemi import cli, oracle
from commsemi.serialization import semigroup_digest

RESULTS = Path(__file__).resolve().parent.parent / "RESULTS.json"
REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"

# Over a second each, so left to CI's full regeneration.
SLOW = {("null-max", "full", 7), ("unique-idem-max", "full", 7)}


def keys():
    """(claim, kind, n) of every row, in the table's order."""
    for name, claim in oracle.CLAIMS.items():
        for kind, (lo, hi) in claim.degrees.items():
            if name == "xi-table":
                degrees = [hi]  # its rows 1..20 hold every smaller table
            elif claim.certified_from < math.inf:
                degrees = [*range(lo, 8), hi]  # searched at 2, certified at 3..7 and 255
            else:
                degrees = range(lo, hi + 1)
            for n in degrees:
                yield name, kind, n


def row(name: str, kind: str, n: int) -> str:
    """The table's line for one key, computed from the live code."""
    claim = oracle.CLAIMS[name]
    computed, witnesses, tags = claim.compute(n, kind)
    try:
        expected = oracle.expected_value(name, n, kind)
        match = computed == expected
    except ValueError:
        expected = match = None
    digests = "\n".join(semigroup_digest(T) for T in witnesses)
    fields = {
        "claim": name,
        "kind": kind,
        "n": n,
        "expected": cli._jsonable_value(expected),
        "computed": cli._jsonable_value(computed),
        "match": match,
        "method": "certificate" if n >= claim.certified_from else "search",
        "witnesses": len(witnesses),
        "witness_sha256": hashlib.sha256(digests.encode("utf-8")).hexdigest(),
        "tags": " ".join(tags),
    }
    return json.dumps(fields, sort_keys=True)


@functools.cache
def committed() -> dict[tuple[str, str, int], str]:
    """The committed lines of RESULTS.json, keyed as :func:`keys`, in file order."""
    lines = RESULTS.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "[" and lines[-1] == "]"
    table = {}
    for line in lines[1:-1]:
        line = line.removesuffix(",")
        fields = json.loads(line)
        table[fields["claim"], fields["kind"], fields["n"]] = line
    return table


@pytest.mark.parametrize(
    "key", [key for key in keys() if key not in SLOW], ids=lambda key: "{}-{}-{}".format(*key)
)
def test_row_is_recomputed(key):
    assert row(*key) == committed()[key]


def test_one_row_per_registry_degree():
    # widening a claim's degrees without adding its rows fails here
    assert list(committed()) == list(keys())
    assert len(committed()) == 97
    assert SLOW <= set(committed())


def test_every_published_value_matches():
    rows = [json.loads(line) for line in committed().values()]
    unpublished = [(r["claim"], r["kind"], r["n"]) for r in rows if r["match"] is None]
    assert unpublished == [("comm-max", "full", 1), ("comm-max", "partial", 1)]
    assert all(r["match"] is True for r in rows if r["match"] is not None)


def test_perfbench_verify_references_are_rows():
    # every reference has at most 40 witnesses, so `verify --json`'s
    # witness_digests[:40], which perfbench hashes, is the whole list
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["verify"]
    assert len(reference) == 15
    for name, pinned in reference.items():
        claim, n, kind = name.rsplit("-", 2)
        fields = json.loads(committed()[claim, kind, int(n)])
        assert fields["witnesses"] <= 40, name
        assert pinned == {k: fields[k] for k in ("computed", "witness_sha256")}, name


if __name__ == "__main__":
    print("[\n" + ",\n".join(row(*key) for key in keys()) + "\n]")
