import itertools
import random

import pytest

from commsemi.semigroups import (
    ClosureLimitExceeded,
    SemigroupSet,
    center,
    classify_small_abelian_group,
    closure,
    enumerate_full,
    enumerate_partial,
    enumerate_sym,
    has_unique_idempotent,
    idempotents,
    image_union,
    is_group,
    is_nilpotent,
    is_null,
    restrict_set,
    unique_idempotent,
)
from commsemi.transform import PartialTransformation, Transformation

# the worked 7-element example used throughout: a degree-7 commutative
# semigroup with unique idempotent of rank 3
EXAMPLE_IMGS = [
    (0, 6, 3, 3, 3, 3, 6),
    (0, 6, 3, 3, 3, 2, 6),
    (0, 6, 3, 3, 3, 4, 6),
    (3, 0, 6, 6, 6, 6, 0),
    (6, 3, 0, 0, 0, 0, 3),
    (6, 2, 0, 0, 0, 0, 3),
    (6, 4, 0, 0, 0, 0, 3),
]


def example_semigroup():
    return SemigroupSet([Transformation(img) for img in EXAMPLE_IMGS])


def brute_closure(gens, prod):
    items = set(gens)
    while True:
        new = {prod(a, b) for a in items for b in items} - items
        if not new:
            return items
        items |= new


class TestSemigroupSet:
    def test_canonical_sorted_dedup(self):
        a = Transformation([1, 0])
        b = Transformation([0, 0])
        S = SemigroupSet([a, b, a])
        assert S.elements == (b, a)
        assert len(S) == 2
        assert a in S and b in S

    def test_rejects_mixed_kinds_and_degrees(self):
        with pytest.raises(TypeError):
            SemigroupSet([Transformation([0, 1]), PartialTransformation([0, 1])])
        with pytest.raises(ValueError):
            SemigroupSet([Transformation([0, 1]), Transformation([0, 1, 2])])
        with pytest.raises(ValueError):
            SemigroupSet([])

    def test_flags_cached(self):
        S = example_semigroup()
        assert S.is_closed()
        assert S.is_commutative()
        T = SemigroupSet([Transformation([1, 2, 0])])
        assert not T.is_closed()

    def test_identity_element(self):
        assert SemigroupSet([Transformation([0, 0])]).identity_element() == Transformation.identity(2)
        E = SemigroupSet([PartialTransformation.empty(2)])
        assert E.identity_element() == PartialTransformation.identity(2)


class TestClosure:
    def test_cyclic_c3(self):
        S = closure([Transformation([1, 2, 0])])
        assert len(S) == 3
        assert Transformation.identity(3) in S
        assert S.is_closed() and S.is_commutative()

    def test_klein_four(self):
        S = closure([Transformation([1, 0, 3, 2]), Transformation([2, 3, 0, 1])])
        assert len(S) == 4
        assert is_group(S)
        assert classify_small_abelian_group(S) == "C2xC2"

    def test_single_nilpotent_chain(self):
        a = Transformation([0, 0, 1, 2])
        S = closure([a])
        assert [tuple(t.img) for t in S.elements] == [
            (0, 0, 0, 0),
            (0, 0, 0, 1),
            (0, 0, 1, 2),
        ]

    def test_matches_brute_force_sampled(self):
        rng = random.Random(3)
        for _ in range(60):
            n = rng.randint(2, 5)
            gens = [
                Transformation(tuple(rng.randrange(n) for _ in range(n)))
                for _ in range(rng.randint(1, 2))
            ]
            S = closure(gens)
            expected = brute_closure(gens, lambda a, b: a * b)
            assert set(S.elements) == expected

    def test_limit(self):
        # two generators of Sym_4 reach 24 > 10 elements
        gens = [Transformation([1, 0, 2, 3]), Transformation([1, 2, 3, 0])]
        with pytest.raises(ClosureLimitExceeded):
            closure(gens, limit=10)
        assert len(closure(gens)) == 24

    def test_empty_generators_rejected(self):
        with pytest.raises(ValueError):
            closure([])


class TestCenter:
    def test_full_degree_3(self):
        Z = center(enumerate_full(3))
        assert [tuple(a.img) for a in Z] == [(0, 1, 2)]

    def test_partial_degree_3(self):
        Z = center(enumerate_partial(3))
        assert len(Z) == 2
        assert PartialTransformation.empty(3) in Z
        assert PartialTransformation.identity(3) in Z

    def test_commutative_center_is_everything(self):
        S = example_semigroup()
        assert center(S) == S

    def test_requires_closed(self):
        with pytest.raises(ValueError):
            center(SemigroupSet([Transformation([1, 2, 0])]))


class TestIdempotents:
    def test_counts(self):
        assert len(idempotents(enumerate_full(2))) == 3
        assert len(idempotents(enumerate_full(3))) == 10
        assert len(idempotents(enumerate_full(4))) == 41
        assert len(idempotents(enumerate_full(5))) == 196
        # partial identities alone give 2^n; constant maps add more
        assert len(idempotents(enumerate_partial(2))) == 6

    def test_counts_match_brute(self):
        for n in (2, 3, 4):
            S = enumerate_full(n)
            brute = [a for a in S if a * a == a]
            assert idempotents(S) == brute

    def test_unique_idempotent(self):
        S = example_semigroup()
        assert has_unique_idempotent(S)
        assert unique_idempotent(S) == Transformation([0, 6, 3, 3, 3, 3, 6])
        with pytest.raises(ValueError):
            unique_idempotent(enumerate_full(2))


class TestStructurePredicates:
    def test_null(self):
        z = Transformation([0, 0, 0])
        a = Transformation([0, 0, 1])
        S = SemigroupSet([z, a])
        ok, zero = is_null(S)
        assert ok and zero == z
        ok, zero = is_null(example_semigroup())
        assert not ok and zero is None

    def test_nilpotent_but_not_null(self):
        a = Transformation([0, 0, 1, 2])
        S = closure([a])
        assert is_nilpotent(S)
        ok, _ = is_null(S)
        assert not ok

    def test_group_with_small_identity(self):
        # C_2 whose identity is not id_X
        a = Transformation([1, 0, 0])
        S = closure([a])
        assert len(S) == 2
        assert is_group(S)
        assert unique_idempotent(S) == Transformation([0, 1, 1])
        assert classify_small_abelian_group(S) == "C2"

    def test_not_group(self):
        assert not is_group(SemigroupSet([Transformation([0, 0]), Transformation([0, 1])]))
        assert not is_group(enumerate_full(2))

    def test_classification(self):
        c4 = closure([Transformation([1, 2, 3, 0])])
        assert classify_small_abelian_group(c4) == "C4"
        c5 = closure([Transformation([1, 2, 3, 4, 0])])
        assert classify_small_abelian_group(c5) == "OTHER"
        c1 = SemigroupSet([Transformation([0, 0])])
        assert classify_small_abelian_group(c1) == "C1"
        c3 = closure([Transformation([1, 2, 0])])
        assert classify_small_abelian_group(c3) == "C3"
        assert classify_small_abelian_group(enumerate_full(2)) == "OTHER"


class TestEnumeration:
    def test_sizes(self):
        assert len(enumerate_full(1)) == 1
        assert len(enumerate_full(2)) == 4
        assert len(enumerate_full(3)) == 27
        assert len(enumerate_partial(1)) == 2
        assert len(enumerate_partial(2)) == 9
        assert len(enumerate_partial(3)) == 64
        assert len(enumerate_sym(3)) == 6
        assert len(enumerate_sym(4)) == 24

    def test_flags_preset(self):
        S = enumerate_full(3)
        assert S.is_closed()
        assert not S.is_commutative()

    def test_caps(self):
        with pytest.raises(ValueError):
            enumerate_full(8)
        with pytest.raises(ValueError):
            enumerate_partial(6)
        with pytest.raises(ValueError):
            enumerate_sym(9)
        assert len(enumerate_partial(6, force=True)) == 7**6

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            enumerate_full(0)


class TestRestrictSet:
    def test_example_restricts_to_c3(self):
        S = example_semigroup()
        G = restrict_set(S, [0, 3, 6])
        assert len(G) == 3
        assert is_group(G)
        assert classify_small_abelian_group(G) == "C3"
        assert [tuple(a.img) for a in G.elements] == [(0, 1, 2), (1, 2, 0), (2, 0, 1)]

    def test_restriction_of_commutative_is_commutative(self):
        rng = random.Random(9)
        for _ in range(40):
            n = rng.randint(2, 6)
            a = Transformation(tuple(rng.randrange(n) for _ in range(n)))
            S = closure([a])
            pts = sorted(set(itertools.chain.from_iterable(t.image() for t in S)))
            G = restrict_set(S, pts)
            assert G.is_commutative()
            assert len(G) <= len(S)

    def test_requires_invariant_subset(self):
        with pytest.raises(ValueError):
            restrict_set(example_semigroup(), [0, 1])


def test_image_union_example():
    assert image_union(example_semigroup()) == (0, 2, 3, 4, 6)
