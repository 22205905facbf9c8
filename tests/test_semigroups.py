import itertools
import random

import pytest

from commsemi.extremal import abelian_witness, e_ix, null_max, omega_pn, xi_alpha
from commsemi.semigroups import (
    MAX_FULL_DEGREE,
    MAX_PARTIAL_DEGREE,
    MAX_SYM_DEGREE,
    ClosureLimitExceeded,
    SemigroupSet,
    _closure_images,
    center,
    classify_small_abelian_group,
    closure,
    enumerate_full,
    enumerate_partial,
    enumerate_sym,
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
    """Every pairwise product, round after round, until nothing is new."""
    items, new = set(), set(gens)
    while new:
        old, items = items, items | new
        new = {prod(a, b) for a in items for b in new} | {prod(b, a) for a in old for b in new}
        new -= items
    return items


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

    def test_order_is_the_element_order(self):
        # the keyed sort on image bytes against sorting by the elements' own __lt__
        rng = random.Random(8)
        pools = [list(enumerate_full(3)), list(enumerate_partial(3))]
        for n in (2, 4, 6):
            for cls, values in (
                (Transformation, list(range(n))),
                (PartialTransformation, [*range(n), None]),
            ):
                draws = [cls(rng.choice(values) for _ in range(n)) for _ in range(30)]
                pools.append(draws + rng.choices(draws, k=15))
        for xs in pools:
            rng.shuffle(xs)
            assert SemigroupSet(xs).elements == tuple(sorted(set(xs)))

    def test_rejects_non_maps(self):
        with pytest.raises(TypeError, match="unsupported element type int"):
            SemigroupSet([1, 2])
        for mixed in ([Transformation([0, 1]), 1], [1, PartialTransformation([0, None])]):
            with pytest.raises(TypeError, match="unsupported element type int"):
                SemigroupSet(mixed)

    def test_flags_cached(self):
        S = example_semigroup()
        assert S.is_closed()
        assert S.is_commutative()
        T = SemigroupSet([Transformation([1, 2, 0])])
        assert not T.is_closed()


def pairwise_closed(S):
    """Every product ab of two elements lies in S, by object products."""
    members = set(S.elements)
    return all(a * b in members for a in S.elements for b in S.elements)


def pairwise_commutative(S):
    """ab = ba for every pair of elements, by object products."""
    return all(a * b == b * a for a in S.elements for b in S.elements)


class TestPredicatesOnImageBytes:
    """is_closed and is_commutative test pairs on image bytes; both must agree
    with an object-level loop over every pair, on sets without cached flags."""

    @staticmethod
    def cases():
        yield SemigroupSet(enumerate_full(3).elements)
        yield SemigroupSet(enumerate_partial(3).elements)
        rng = random.Random(11)
        for cls, n, values in (
            (Transformation, 3, [0, 1, 2]),
            (Transformation, 4, [0, 1, 2, 3]),
            (PartialTransformation, 3, [0, 1, 2, None]),
            (PartialTransformation, 4, [0, 1, 2, 3, None]),
        ):
            for _ in range(40):
                gens = [cls(rng.choice(values) for _ in range(n)) for _ in range(rng.randint(1, 3))]
                S = closure(gens)
                yield SemigroupSet(S.elements)  # closed; commutative or not
                kept = [a for a in S.elements if rng.random() < 0.7] or [S[0]]
                yield SemigroupSet(kept)  # often not closed
                stray = cls(rng.choice(values) for _ in range(n))
                yield SemigroupSet([*S.elements, stray])  # one element breaks it, or none

    def test_match_the_object_level_pair_loops(self):
        seen = set()
        for S in self.cases():
            closed, commutative = S.is_closed(), S.is_commutative()
            assert closed == pairwise_closed(S), S.elements
            assert commutative == pairwise_commutative(S), S.elements
            seen.add((S.kind, closed, commutative))
        # every outcome of both predicates occurs for both kinds
        assert seen == {
            (kind, closed, comm)
            for kind in ("full", "partial")
            for closed in (False, True)
            for comm in (False, True)
        }


# Object-level references for the structure predicates: the searches for a
# zero, an identity and inverses, and the element-order loop, by products of
# element pairs.


def loop_is_null(S):
    z = S[0] * S[0]
    if all(a * b == z for a in S for b in S):
        return True, z
    return False, None


def loop_is_nilpotent(S):
    zeros = [z for z in S if all(z * a == z == a * z for a in S)]
    if not zeros:
        return False
    current, target = set(S.elements), {zeros[0]}
    for _ in range(len(S)):
        if current == target:
            return True
        nxt = {a * b for a in S for b in current}
        if nxt == current:
            return current == target
        current = nxt
    return current == target


def loop_is_group(S):
    if not pairwise_closed(S):
        return False
    es = [e for e in S if all(e * a == a == a * e for a in S)]
    return bool(es) and all(any(a * b == es[0] == b * a for b in S) for a in S)


def loop_classify(S):
    if not loop_is_group(S) or not pairwise_commutative(S):
        return "OTHER"
    if len(S) != 4:
        return {1: "C1", 2: "C2", 3: "C3"}.get(len(S), "OTHER")
    e = next(c for c in S if all(c * a == a for a in S))
    orders = []
    for a in S:
        p, k = a, 1
        while p != e:
            p, k = p * a, k + 1
        orders.append(k)
    return "C4" if max(orders) == 4 else "C2xC2"


class TestStructurePredicatesOnImageBytes:
    """is_null, is_nilpotent, is_group and classify_small_abelian_group read
    products off image bytes by their characterisations; each must agree
    with its object-level reference loop."""

    @staticmethod
    def cases():
        yield from TestPredicatesOnImageBytes.cases()
        # index 2, period 2: the one idempotent, [2, 3, 2, 3] (⊥ at the partial
        # map's last point), is neither an identity nor a zero: no group, not nilpotent
        yield closure([Transformation([1, 2, 3, 2])])
        yield closure([PartialTransformation([1, 2, 3, 2, None])])
        yield closure([Transformation([1, 0, 3, 2]), Transformation([2, 3, 0, 1])])  # Klein
        yield closure([Transformation([1, 2, 3, 0])])  # C4
        yield enumerate_sym(3)  # a group that is not abelian
        # right zero: ab = b, so aS = S for every a, but Sa = {a}
        yield closure([Transformation.constant(3, x) for x in range(3)])
        yield closure([Transformation([0, 0, 1, 2])])  # nilpotent, not null
        for n in (4, 5, 6):
            yield null_max(n)
            yield omega_pn(n, list(range(xi_alpha(n + 1).alpha - 1)))
            yield e_ix(n)
            yield abelian_witness(n)

    def test_match_the_reference_loops(self):
        seen = set()
        for S in self.cases():
            group = is_group(S)
            assert group == loop_is_group(S), S.elements
            seen.add(("group", group))
            if not S.is_closed():
                continue
            null, nilpotent, tag = is_null(S), is_nilpotent(S), classify_small_abelian_group(S)
            assert null == loop_is_null(S), S.elements
            assert nilpotent == loop_is_nilpotent(S), S.elements
            assert tag == loop_classify(S), S.elements
            seen |= {("null", null[0]), ("nilpotent", nilpotent), ("tag", tag)}
        assert seen == {
            *((name, flag) for name in ("group", "null", "nilpotent") for flag in (False, True)),
            *(("tag", tag) for tag in ("C1", "C2", "C3", "C4", "C2xC2", "OTHER")),
        }

    def test_predicates_require_closed(self):
        S = SemigroupSet([Transformation([1, 2, 0])])
        for predicate in (is_null, is_nilpotent):
            with pytest.raises(ValueError, match="requires a product-closed set"):
                predicate(S)
        assert not is_group(S)


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
        # both kinds, 1-3 generators that need not commute or be distinct;
        # degree 5 only for 1-2 full maps, which keeps the brute force small
        rng = random.Random(3)
        for _ in range(150):
            cls = rng.choice([Transformation, PartialTransformation])
            k = rng.randint(1, 3)
            n = rng.randint(2, 5 if cls is Transformation and k < 3 else 4)
            values = [*range(n), None] if cls is PartialTransformation else list(range(n))
            gens = [cls(rng.choice(values) for _ in range(n)) for _ in range(k)]
            S = closure(gens)
            expected = brute_closure(gens, lambda a, b: a * b)
            assert set(S.elements) == expected
            assert S.kind == ("partial" if cls is PartialTransformation else "full")

    def test_sampler_kernel_matches_closure(self):
        # the unique-idempotent sampler calls the image kernel directly
        rng = random.Random(21)
        for _ in range(200):
            cls = rng.choice([Transformation, PartialTransformation])
            n = rng.randint(2, 6)
            values = [*range(n), None] if cls is PartialTransformation else list(range(n))
            gens = [cls(rng.choice(values) for _ in range(n)) for _ in range(rng.randint(1, 3))]
            distinct = [g.img for g in dict.fromkeys(gens)]
            imgs = _closure_images(distinct, None)
            assert len(imgs) == len(set(imgs))
            assert [a.img for a in closure(gens)] == sorted(imgs)
            with pytest.raises(ClosureLimitExceeded):
                _closure_images(distinct, len(imgs) - 1)
            assert _closure_images(distinct, len(imgs)) == imgs

    def test_limit_raises_exactly_above_the_size(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(2, 4)
            gens = [
                Transformation(rng.randrange(n) for _ in range(n))
                for _ in range(rng.randint(1, 3))
            ]
            size = len(brute_closure(gens, lambda a, b: a * b))
            for limit in {1, len(set(gens)), size - 1, size, size + 1} - {0}:
                if size > limit:
                    with pytest.raises(ClosureLimitExceeded):
                        closure(gens, limit=limit)
                else:
                    assert len(closure(gens, limit=limit)) == size

    def test_mixed_kinds_rejected(self):
        a, b = Transformation([1, 0]), PartialTransformation([1, None])
        for gens in ([a, b], [b, a], [a, a, b]):
            with pytest.raises(TypeError, match="the kinds must match"):
                closure(gens)

    def test_mixed_degrees_rejected(self):
        for gens in (
            [Transformation([1, 0]), Transformation([1, 2, 0])],
            [PartialTransformation([None, 0, 1]), PartialTransformation([0, None])],
        ):
            with pytest.raises(ValueError, match="degree mismatch"):
                closure(gens)

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
        assert center(S) == S.elements

    def test_empty_center(self):
        constants = closure([Transformation.constant(3, x) for x in range(3)])
        assert len(constants) == 3
        assert center(constants) == ()

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
        for S in (*map(enumerate_full, (2, 3, 4)), *map(enumerate_partial, (2, 3))):
            brute = [a for a in S if a * a == a]
            assert idempotents(S) == brute

    def test_unique_idempotent(self):
        S = example_semigroup()
        assert len(idempotents(S)) == 1
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
        for enumerate_kind, cap in (
            (enumerate_full, MAX_FULL_DEGREE),
            (enumerate_partial, MAX_PARTIAL_DEGREE),
            (enumerate_sym, MAX_SYM_DEGREE),
        ):
            with pytest.raises(ValueError, match=f"degree {cap + 1} exceeds the .* cap {cap}$"):
                enumerate_kind(cap + 1)

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
