"""Hypothesis properties of the element product, the embedding of partial
maps, the set container, the canonical JSON form, the structure predicates
and the commuting relation, on both kinds.

Each test skips where hypothesis is not installed.
"""

import hashlib
import json

import pytest

from commsemi.graphs import commuting_rows
from commsemi.semigroups import SemigroupSet, closure, idempotents, is_group, is_nilpotent, is_null
from commsemi.serialization import dumps_semigroup, load_semigroup, semigroup_digest
from commsemi.transform import PartialTransformation, Transformation, _raw, embed_partial, product
from test_semigroups import loop_is_group, loop_is_nilpotent, loop_is_null

SETTINGS = dict(max_examples=200, deadline=None, database=None, derandomize=True)


def hypothesis_and_maps():
    """hypothesis, and a strategy for (kind, degree, k maps) with k from 1 to 5
    unless ``count`` fixes it, the kind drawn from ``kinds`` and the degree
    from 1 to ``max_degree``.

    Partial maps are drawn with ``None`` as the undefined image, so the
    constructors' own checks run on every draw.
    """
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def maps(draw, count=None, kinds=(Transformation, PartialTransformation), max_degree=6):
        cls = draw(st.sampled_from(kinds))
        n = draw(st.integers(1, max_degree))
        values = st.integers(0, n - 1)
        if cls is PartialTransformation:
            values = values | st.none()
        k = count if count is not None else draw(st.integers(1, 5))
        return cls, n, [cls(draw(st.lists(values, min_size=n, max_size=n))) for _ in range(k)]

    return hypothesis, maps


def apply(a, x):
    """x·a for a point x, or None for ⊥ (also when x is None)."""
    return None if x is None else a(x)


def test_product_is_associative_and_keeps_the_kind():
    hypothesis, maps = hypothesis_and_maps()

    @hypothesis.settings(**SETTINGS)
    @hypothesis.given(maps(count=3))
    def prop(case):
        cls, n, (a, b, c) = case
        ab = product(a, b)
        assert type(ab) is cls and ab.degree == n
        assert [ab(x) for x in range(n)] == [apply(b, a(x)) for x in range(n)]
        assert product(ab, c) == product(a, product(b, c))
        other = PartialTransformation if cls is Transformation else Transformation
        stranger = other.identity(n)
        for x, y in ((a, stranger), (stranger, a)):
            with pytest.raises(TypeError, match="the kinds must match"):
                product(x, y)

    prop()


def test_embed_partial_is_an_injective_homomorphism():
    hypothesis, maps = hypothesis_and_maps()

    @hypothesis.settings(**SETTINGS)
    @hypothesis.given(maps(count=2, kinds=(PartialTransformation,)))
    def prop(case):
        _, n, (a, b) = case
        ea, eb = embed_partial(a), embed_partial(b)
        assert type(ea) is Transformation and ea.degree == n + 1
        assert embed_partial(product(a, b)) == product(ea, eb)
        assert (ea == eb) == (a == b)

    prop()


def test_set_is_its_image_bytes():
    # the container keeps one image per distinct element, in canonical order,
    # and builds its element objects once
    hypothesis, maps = hypothesis_and_maps()

    @hypothesis.settings(**SETTINGS)
    @hypothesis.given(maps())
    def prop(case):
        cls, n, elems = case
        S = SemigroupSet(elems)
        assert S.images == tuple(sorted({a.img for a in elems}))
        assert S.kind == ("full" if cls is Transformation else "partial") and S.degree == n
        first = S.elements
        assert first == tuple(sorted(set(elems))) and S.elements is first
        assert list(S) == list(first) and S[0] is first[0]
        # duplicates collapse
        T = SemigroupSet([*reversed(elems), *elems])
        assert T == S and hash(T) == hash(S) and len(T) == len(set(elems))
        # membership needs the kind as well as the bytes
        other = PartialTransformation if cls is Transformation else Transformation
        assert all(a in S for a in elems)
        assert not any(_raw(other, a.img) in S for a in elems)
        assert SemigroupSet([_raw(other, a.img) for a in elems]) != S
        # mixed kinds still raise
        with pytest.raises(TypeError, match="same kind"):
            SemigroupSet([*elems, other.identity(n)])

    prop()
    assert Transformation([0, 1]) not in SemigroupSet([PartialTransformation([0, 1])])
    assert PartialTransformation([0, 1]) not in SemigroupSet([Transformation([0, 1])])


def reference_jsonable(S):
    """The canonical object as the writer used to build it: one list per element,
    with the sentinel n of a partial map as None."""
    n = S.degree
    rows = [[None if v == n else v for v in a.img] for a in S]
    return {"degree": n, "kind": S.kind, "elements": rows}


def test_canonical_json_round_trips():
    # degrees up to 13: two-digit values, and at partial degree 10 the sentinel
    # 10 (null) next to degree 11's point 10
    hypothesis, maps = hypothesis_and_maps()
    seen = set()

    @hypothesis.settings(**SETTINGS)
    @hypothesis.given(maps(max_degree=13))
    def prop(case):
        cls, n, elems = case
        S = SemigroupSet(elems)
        digest = semigroup_digest(SemigroupSet(elems))  # with no dump before it
        text = dumps_semigroup(S)
        want = json.dumps(reference_jsonable(S), sort_keys=True, separators=(",", ":"))
        assert text == want
        assert digest == semigroup_digest(S) == hashlib.sha256(want.encode("ascii")).hexdigest()
        T = load_semigroup(json.loads(text))
        assert T == S and T.kind == S.kind and T.degree == n
        assert dumps_semigroup(T) == text
        seen.add((cls, n >= 11 if cls is Transformation else n >= 10))

    prop()
    kinds = (Transformation, PartialTransformation)
    assert seen == {(cls, big) for cls in kinds for big in (False, True)}


# the object-level reference loops take |S|² element products; larger closures
# (up to a few thousand maps here) get the implications only
REFERENCE_SIZE = 150


def test_structure_predicates_imply_their_idempotents():
    # null ⇒ nilpotent; nilpotent ⇒ one idempotent, the zero; group ⇒ one idempotent;
    # and is_null, is_group, is_nilpotent equal their object-level references both ways
    hypothesis, maps = hypothesis_and_maps()
    seen = set()
    compared = set()

    @hypothesis.settings(**SETTINGS)
    @hypothesis.given(maps())
    def prop(case):
        S = closure(case[2])
        es = idempotents(S)
        null, nilpotent, group = is_null(S)[0], is_nilpotent(S), is_group(S)
        assert nilpotent or not null
        if nilpotent:
            (z,) = es
            assert all(z * a == z == a * z for a in S)
        if group:
            assert len(es) == 1
        flags = {"null": null, "nilpotent": nilpotent, "group": group}
        seen.update((name, len(S) > 1) for name, flag in flags.items() if flag)
        if len(S) <= REFERENCE_SIZE:
            assert is_null(S) == loop_is_null(S), S.elements
            assert group == loop_is_group(S), S.elements
            assert nilpotent == loop_is_nilpotent(S), S.elements
            if len(S) > 1:
                compared.update({("null", null), ("group", group), ("nilpotent", nilpotent)})

    prop()
    # no implication holds only because its premise never occurs on a set of 2+
    assert {(name, True) for name in ("null", "nilpotent", "group")} <= seen, seen
    # both outcomes of each rule meet their references on sets of 2+
    names = ("null", "group", "nilpotent")
    assert compared == {(name, flag) for name in names for flag in (True, False)}


def test_commuting_rows_match_the_products():
    # a map commutes with its square and with its own repeats, so every
    # pool has edges; the draws must also meet pairs that do not commute
    hypothesis, maps = hypothesis_and_maps()
    missing = []

    @hypothesis.settings(**SETTINGS)
    @hypothesis.given(maps())
    def prop(case):
        elems = case[2]
        pool = [*elems, *(a * a for a in elems), *elems[:2]]
        rows = commuting_rows(pool)
        for i, a in enumerate(pool):
            want = sum(1 << j for j, b in enumerate(pool) if j != i and a * b == b * a)
            assert rows[i] == want
        missing.append(len(pool) * (len(pool) - 1) - sum(row.bit_count() for row in rows))

    prop()
    assert max(missing) > 0
