"""Tests for the ξ/α arithmetic and the extremal-semigroup builders."""

import hashlib
import itertools
import random

import pytest

from commsemi.extremal import (
    _check_null_shape,
    _null_maps,
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
from commsemi.serialization import semigroup_digest
from commsemi.transform import PartialTransformation, Transformation, _raw, product

def loop_null_maps(cls, n, points):
    """The null maps as the builders made them with a loop: one product over
    the free points' values, written into one image list, in that order."""
    pts = list(points)
    free = [y for y in range(n) if y not in pts]
    img = [pts[0]] * n
    out = []
    for choice in itertools.product(pts, repeat=len(free)):
        for y, v in zip(free, choice):
            img[y] = v
        out.append(_raw(cls, bytes(img)))
    return out


def loop_null_shape(elems, points):
    """The null-shape certificate element by element, as a reference."""
    x1 = points[0]
    pts = frozenset(points)
    for a in elems:
        img = a.img + bytes([len(a.img)])
        if any(img[p] != x1 for p in points) or not pts.issuperset(a.img):
            return a
    return None


def imgs_of(elems):
    return [a.img for a in elems]


def sorted_imgs(elems):
    return [a.img for a in sorted(elems, key=lambda a: a.img)]


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


class TestNullMapsMatchTheLoop:
    """The null builders take their images from one itertools.product over
    per-point slots; they must equal the loop's images, one by one and in
    order, and so must every set and digest built from them."""

    def test_every_base_tuple_up_to_degree_6(self):
        for n in range(1, 7):
            alpha = xi_alpha(n).alpha
            for t in range(1, n + 1):
                for pts in itertools.permutations(range(n), t):
                    loop = loop_null_maps(Transformation, n, pts)
                    assert _null_maps(Transformation, n, pts) == imgs_of(loop), (n, pts)
                    assert [a.img for a in null_semigroup(n, pts)] == sorted_imgs(loop)
                    if t == alpha:
                        assert [a.img for a in null_max(n, pts)] == sorted_imgs(loop)
                        if n >= 2:
                            with_id = [*loop, Transformation.identity(n)]
                            assert [a.img for a in null_plus_identity(n, pts)] == sorted_imgs(
                                with_id
                            )

    def test_every_partial_base_tuple_up_to_degree_6(self):
        # ⊥ = n is a point only as x₁; the shape without ⊥ is built too
        for n in range(1, 7):
            b_size = xi_alpha(n + 1).alpha - 1
            for t in range(0, n + 1):
                for bs in itertools.permutations(range(n), t):
                    for pts in [(n, *bs)] + ([bs] if bs else []):
                        loop = loop_null_maps(PartialTransformation, n, pts)
                        assert _null_maps(PartialTransformation, n, pts) == imgs_of(loop), (n, pts)
                    if t == b_size and list(bs) == sorted(bs):
                        loop = loop_null_maps(PartialTransformation, n, (n, *bs))
                        assert [a.img for a in omega_pn(n, bs)] == sorted_imgs(loop)

    def test_seeded_base_tuples_up_to_degree_12(self):
        rng = random.Random(2024)
        for n in range(7, 13):
            pts = rng.sample(range(n), xi_alpha(n).alpha)
            loop = loop_null_maps(Transformation, n, pts)
            assert _null_maps(Transformation, n, pts) == imgs_of(loop), (n, pts)
            assert [a.img for a in null_max(n, pts)] == sorted_imgs(loop)
            if n <= 10:
                B = rng.sample(range(n), xi_alpha(n + 1).alpha - 1)
                loop = loop_null_maps(PartialTransformation, n, [n, *sorted(B)])
                assert [a.img for a in omega_pn(n, B)] == sorted_imgs(loop)
                short = rng.sample(range(n), 2)
                for cls, tup in ((Transformation, short), (PartialTransformation, [n, *short])):
                    loop = loop_null_maps(cls, n, tup)
                    assert _null_maps(cls, n, tup) == imgs_of(loop), (n, tup)

    def test_builder_digests_pinned(self):
        # canonical-JSON digests of the builders' outputs, fixed before the
        # builders and the writer moved to whole-image bytes
        digests = []
        for n in range(1, 13):
            digests.append(semigroup_digest(null_max(n)))
            if n >= 2:
                digests.append(semigroup_digest(null_plus_identity(n)))
            if n <= 10:
                B = range(xi_alpha(n + 1).alpha - 1)
                digests.append(semigroup_digest(omega_pn(n, B)))
        for n in range(1, 7):
            for pts in itertools.permutations(range(n), xi_alpha(n).alpha):
                digests.append(semigroup_digest(null_max(n, pts)))
                if n >= 2:
                    digests.append(semigroup_digest(null_plus_identity(n, pts)))
            for B in itertools.combinations(range(n), xi_alpha(n + 1).alpha - 1):
                digests.append(semigroup_digest(omega_pn(n, B)))
        assert len(digests) == 471
        assert (
            hashlib.sha256("".join(digests).encode("ascii")).hexdigest()
            == "c7ff02392b0c1353c6f5d03c3b85d972a6c041de6de15ee315db104cbe4bb63c"
        )


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

    def test_one_bad_element_last_of_xi_10_full_maps(self):
        pts = [7, 2, 9, 0]  # ξ(10) = 4^6 maps
        elems = list(null_max(10, pts))
        assert len(elems) == 4096 and _check_null_shape(elems, pts) is None
        good = list(elems[-1].img)
        # base points 2 and 0 sent off x₁, free points 5 and 1 sent off the points
        for y, v in ((2, 9), (0, 2), (5, 3), (1, 1)):
            img = list(good)
            img[y] = v
            bad = Transformation(img)
            assert _check_null_shape([*elems, bad], pts) is bad
            assert _check_null_shape([*elems[:100], bad, *elems[100:]], pts) is bad
        # another degree: judged element by element, as the reference does
        for other in (_raw(Transformation, bytes([7] * 11)), _raw(Transformation, bytes([5] * 9))):
            mixed = [*elems, other]
            assert _check_null_shape(mixed, pts) is loop_null_shape(mixed, pts)
        # ⊥ = 10 as a later point: every map fixes ⊥, so the first map fails
        assert _check_null_shape(elems, [*pts, 10]) is elems[0]

    def test_one_bad_element_last_of_xi_10_partial_maps(self):
        B = [1, 4, 6]  # Ω(B) at degree 9 has ξ(10) = 4^6 maps
        elems = list(omega_pn(9, B))
        pts = [9, *B]
        assert len(elems) == 4096 and _check_null_shape(elems, pts) is None
        good = list(elems[-1].img)
        for y, v in ((4, 1), (6, 6), (0, 0), (8, 2)):  # defined on B, or an image off B
            img = list(good)
            img[y] = v
            bad = _raw(PartialTransformation, bytes(img))
            assert _check_null_shape([*elems, bad], pts) is bad
        # ⊥ given as a non-first point: no map sends ⊥ anywhere but ⊥
        for later in ([1, 9, 4, 6], [1, 4, 6, 9]):
            assert _check_null_shape(elems, later) is elems[0]
            assert loop_null_shape(elems, later) is elems[0]

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
            assert bad is loop_null_shape(elems, points)
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
                assert a * b == PartialTransformation([x if x in dom else None for x in range(n)])


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
            assert all(len(set(a.img)) == n for a in S)


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
