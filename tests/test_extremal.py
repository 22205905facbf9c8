"""Tests for the ξ/α arithmetic and the extremal-semigroup builders."""

import random

import pytest

from commsemi.extremal import (
    _check_null_shape,
    abelian_witness,
    burns_goldsmith_order,
    e_ix,
    gamma,
    knit_witness,
    null_max,
    null_plus_identity,
    null_semigroup,
    omega_pn,
    xi_alpha,
    xi_table,
)
from commsemi.semigroups import SemigroupSet, idempotents, is_group, is_null, unique_idempotent
from commsemi.transform import PartialTransformation, Transformation, _raw, product

# (n, alpha, xi) for n = 1..20, frozen.
XI_TABLE_20 = [
    (1, 1, 1),
    (2, 2, 1),
    (3, 2, 2),
    (4, 2, 4),
    (5, 3, 9),
    (6, 3, 27),
    (7, 3, 81),
    (8, 4, 256),
    (9, 4, 1024),
    (10, 4, 4096),
    (11, 4, 16384),
    (12, 5, 78125),
    (13, 5, 390625),
    (14, 5, 1953125),
    (15, 6, 10077696),
    (16, 6, 60466176),
    (17, 6, 362797056),
    (18, 6, 2176782336),
    (19, 7, 13841287201),
    (20, 7, 96889010407),
]


class TestXiAlpha:
    def test_table_frozen(self):
        assert xi_table(20) == XI_TABLE_20

    def test_small_values(self):
        assert xi_alpha(1) == (1, 1, 1)
        # t = 1 and t = 2 tie at n = 2; alpha is the larger t
        assert xi_alpha(2) == (2, 2, 1)
        assert xi_alpha(5) == (5, 3, 9)
        assert xi_alpha(8) == (8, 4, 256)

    def test_matches_brute_argmax(self):
        for n in range(1, 60):
            values = [t ** (n - t) for t in range(1, n + 1)]
            best = max(values)
            _, alpha, xi = xi_alpha(n)
            assert xi == best
            assert values[alpha - 1] == best
            assert all(v < best for v in values[alpha:])

    def test_growth_invariants(self):
        table = xi_table(200)
        assert table[0].xi == table[1].xi == 1
        for prev, cur in zip(table[1:], table[2:]):
            assert cur.xi > prev.xi
            assert cur.alpha - prev.alpha in (0, 1)
        # from degree 7 on, the null bound beats the idempotent count 2^(n-1)
        for n in range(7, 201):
            assert 2 ** (n - 1) < table[n - 1].xi + 1
        # and 2^n loses to xi(n+1) from degree 6 on
        for n in range(6, 200):
            assert 2**n < table[n].xi + 1

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            xi_alpha(0)
        with pytest.raises(ValueError):
            xi_alpha(-3)
        with pytest.raises(ValueError):
            xi_table(0)


class TestGamma:
    def test_frozen_degree_3(self):
        G = gamma(3, 0)
        assert [tuple(a.img) for a in G] == [(0, 0, 0), (0, 0, 2), (0, 1, 0), (0, 1, 2)]

    def test_shape(self):
        for n in range(2, 7):
            for x in (0, n - 1):
                G = gamma(n, x)
                assert len(G) == 2 ** (n - 1)
                assert G.is_closed()
                assert G.is_commutative()
                assert idempotents(G) == list(G.elements)
                assert Transformation.identity(n) in G
                assert Transformation.constant(n, x) in G
                assert all(a.img[x] == x for a in G)

    def test_rejects_bad_point(self):
        with pytest.raises(ValueError):
            gamma(4, 4)
        with pytest.raises(ValueError):
            gamma(4, -1)


class TestNullBuilders:
    def test_frozen_degree_4(self):
        S = null_semigroup(4, [0, 1])
        assert [tuple(a.img) for a in S] == [
            (0, 0, 0, 0),
            (0, 0, 0, 1),
            (0, 0, 1, 0),
            (0, 0, 1, 1),
        ]

    def test_any_base_tuple(self):
        S = null_semigroup(5, [3, 1])
        assert len(S) == 2**3
        assert is_null(S) == (True, Transformation.constant(5, 3))
        assert unique_idempotent(S) == Transformation.constant(5, 3)

    def test_random_bases(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(2, 7)
            t = rng.randint(1, n)
            pts = rng.sample(range(n), t)
            S = null_semigroup(n, pts)
            assert len(S) == t ** (n - t)
            assert is_null(S) == (True, Transformation.constant(n, pts[0]))
            assert unique_idempotent(S) == Transformation.constant(n, pts[0])

    def test_null_max_sizes(self):
        for n, _, xi in XI_TABLE_20[:8]:
            S = null_max(n)
            assert len(S) == xi
            assert is_null(S) == (True, Transformation.constant(n, 0))

    def test_null_max_degree_2_is_one_constant(self):
        S = null_max(2)
        assert [tuple(a.img) for a in S] == [(0, 0)]

    def test_null_max_needs_alpha_points(self):
        with pytest.raises(ValueError):
            null_max(4, [0, 1, 2])  # alpha(4) = 2
        with pytest.raises(ValueError):
            null_max(5, [0, 0, 1])

    def test_null_semigroup_rejects_bad_points(self):
        with pytest.raises(ValueError):
            null_semigroup(4, [])
        with pytest.raises(ValueError):
            null_semigroup(4, [1, 4])


class TestOmega:
    def test_frozen_degree_3(self):
        S = omega_pn(3, [0])
        expected = [
            PartialTransformation([None, 0, 0]),
            PartialTransformation([None, 0, None]),
            PartialTransformation([None, None, 0]),
            PartialTransformation([None, None, None]),
        ]
        assert list(S.elements) == expected

    def test_sizes_and_zero(self):
        for n in range(2, 7):
            _, alpha, xi = xi_alpha(n + 1)
            S = omega_pn(n, list(range(alpha - 1)))
            assert len(S) == xi
            assert is_null(S) == (True, PartialTransformation.empty(n))
            assert unique_idempotent(S) == PartialTransformation.empty(n)

    def test_rejects_degree_0(self):
        with pytest.raises(ValueError, match="positive integer"):
            omega_pn(0, [])

    def test_base_set_shape_errors(self):
        with pytest.raises(ValueError):
            omega_pn(4, [0, 0])
        with pytest.raises(ValueError):
            omega_pn(4, [4])
        # alpha(5) - 1 = 2, so a singleton B is the wrong size at degree 4
        with pytest.raises(ValueError):
            omega_pn(4, [0])


class TestNullShapeCertificate:
    def test_full_failures(self):
        good = Transformation([0, 0, 1])
        not_to_x1 = Transformation([0, 1, 0])  # base point 1 is not sent to 0
        outside = Transformation([0, 0, 2])  # image point 2 is not a base point
        assert _check_null_shape([good], [0, 1]) is None
        assert _check_null_shape([good, not_to_x1], [0, 1]) == not_to_x1
        assert _check_null_shape([good, outside, not_to_x1], [0, 1]) == outside

    def test_partial_failures(self):
        # Ω({0}) on 3 points is the shape on (⊥, 0) with ⊥ = 3
        good = PartialTransformation([None, 0, None])
        defined_on_b = PartialTransformation([0, 0, None])
        outside = PartialTransformation([None, 1, None])
        assert _check_null_shape([good], [3, 0]) is None
        assert _check_null_shape([good, defined_on_b], [3, 0]) == defined_on_b
        assert _check_null_shape([good, outside], [3, 0]) == outside
        # ⊥ is a point every map fixes, so it cannot be a base point sent to x1
        assert _check_null_shape([PartialTransformation([0, 0, 0])], [0, 3]) is not None

    def test_builders_pass(self):
        assert _check_null_shape(null_max(6, [4, 1, 2]), [4, 1, 2]) is None
        assert _check_null_shape(omega_pn(5, [1, 3]), [5, 1, 3]) is None

    def test_certified_sets_are_null(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @st.composite
        def near_shape(draw):
            """A kind, a degree n, points (⊥ = n is a point of partial maps) and
            maps that are mostly in the shape, so that both outcomes are common."""
            cls = draw(st.sampled_from([Transformation, PartialTransformation]))
            n = draw(st.integers(1, 5))
            slots = n + (cls is PartialTransformation)
            points = draw(
                st.lists(st.integers(0, slots - 1), min_size=1, max_size=slots, unique=True)
            )
            anything = st.integers(0, slots - 1)
            cells = [
                (st.just(points[0]) if y in points else st.sampled_from(points)) | anything
                for y in range(n)
            ]
            imgs = draw(st.lists(st.tuples(*cells), min_size=1, max_size=5))
            return cls, n, points, [_raw(cls, bytes(img)) for img in imgs]

        @hypothesis.settings(max_examples=200, deadline=None, database=None, derandomize=True)
        @hypothesis.given(near_shape())
        def prop(case):
            cls, n, points, elems = case
            bad = _check_null_shape(elems, points)
            if bad is None:
                zero = _raw(cls, bytes([points[0]]) * n)
                assert all(product(a, b) == zero for a in elems for b in elems)
            else:
                assert bad in elems

        prop()


class TestEIX:
    def test_size_and_flags(self):
        for n in range(1, 6):
            S = e_ix(n)
            assert len(S) == 2**n
            assert S.is_closed()
            assert S.is_commutative()
            assert idempotents(S) == list(S.elements)
            assert PartialTransformation.identity(n) in S
            assert PartialTransformation.empty(n) in S

    def test_rejects_degree_0(self):
        with pytest.raises(ValueError, match="positive integer"):
            e_ix(0)

    def test_products_intersect_domains(self):
        n = 3
        S = e_ix(n)
        for a in S:
            for b in S:
                dom = set(a.domain()) & set(b.domain())
                assert a * b == PartialTransformation.identity_on(n, dom)


class TestAbelian:
    def test_orders_frozen(self):
        assert {n: burns_goldsmith_order(n) for n in range(2, 13)} == {
            2: 2,
            3: 3,
            4: 4,
            5: 6,
            6: 9,
            7: 12,
            8: 18,
            9: 27,
            10: 36,
            11: 54,
            12: 81,
        }

    def test_order_needs_two_points(self):
        with pytest.raises(ValueError):
            burns_goldsmith_order(1)
        with pytest.raises(ValueError):
            abelian_witness(0)

    def test_witness_attains_the_order(self):
        for n in range(2, 8):
            S = abelian_witness(n)
            assert len(S) == burns_goldsmith_order(n)
            assert is_group(S)
            # built without a closure: recheck on a copy without its flags
            T = SemigroupSet(S.elements)
            assert T.is_closed() and T.is_commutative()
            assert all(a.is_permutation() for a in S)


class TestNullPlusIdentity:
    def test_sizes(self):
        for n, _, xi in XI_TABLE_20[1:8]:
            S = null_plus_identity(n)
            assert len(S) == xi + 1
            assert S.is_closed()
            assert S.is_commutative()
            assert Transformation.identity(n) in S
            assert len(idempotents(S)) == 2

    def test_rejects_degree_1(self):
        # T_1 is {id}: the null maximum already is the identity
        with pytest.raises(ValueError, match="degree at least 2"):
            null_plus_identity(1)


class TestKnitWitness:
    def test_products_collapse(self):
        for n in range(3, 7):
            a1, a2 = knit_witness(n)
            assert a1 != a2
            assert a1 * a1 == a1 * a2 == a2 * a1 == a2 * a2 == a1
            assert a1 != Transformation.identity(n)
            assert a2 != Transformation.identity(n)

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            knit_witness(2)
