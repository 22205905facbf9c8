import itertools
import random

import pytest

from commsemi.transform import (
    PartialTransformation,
    Transformation,
    compose,
    compose_partial,
    embed_partial,
    is_idempotent,
    omega_power,
    product,
    restrict,
)


def all_full(n):
    return [Transformation(img) for img in itertools.product(range(n), repeat=n)]


def all_partial(n):
    maps = []
    for img in itertools.product(range(n + 1), repeat=n):
        maps.append(PartialTransformation(tuple(None if v == n else v for v in img)))
    return maps


def test_composition_is_right_action():
    # x(ab) = (xa)b: apply a first, then b
    a = Transformation([1, 2, 0])
    b = Transformation([0, 0, 2])
    ab = compose(a, b)
    for x in range(3):
        assert ab(x) == b(a(x))
    assert tuple(ab.img) == (0, 2, 0)
    assert (a * b).img == ab.img


def test_composition_associative_exhaustive_t3():
    maps = all_full(3)
    for a in maps:
        for b in maps:
            ab = compose(a, b)
            for c in maps:
                assert compose(ab, c) == compose(a, compose(b, c))


def test_composition_associative_sampled_t7():
    rng = random.Random(11)
    for _ in range(300):
        a, b, c = (
            Transformation(tuple(rng.randrange(7) for _ in range(7))) for _ in range(3)
        )
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_partial_composition_drops_points():
    # 0 -> 1 under a, but 1 is outside dom(b), so 0 leaves the domain
    a = PartialTransformation([1, None, 2])
    b = PartialTransformation([0, None, 1])
    ab = compose_partial(a, b)
    assert tuple(ab.img) == (3, 3, 1)
    assert ab.domain() == (2,)
    assert (a * b) == ab


def test_partial_composition_associative_exhaustive_p2():
    maps = all_partial(2)
    for a in maps:
        for b in maps:
            ab = compose_partial(a, b)
            for c in maps:
                assert compose_partial(ab, c) == compose_partial(a, compose_partial(b, c))


def test_product_dispatches_on_kind():
    t = Transformation([0, 0])
    p = PartialTransformation([None, 1])
    assert product(t, t) == compose(t, t)
    assert product(p, p) == compose_partial(p, p)
    with pytest.raises(TypeError):
        product(t, p)


def test_empty_map_is_absorbing():
    empty = PartialTransformation.empty(3)
    assert empty.img == bytes([3, 3, 3])
    assert empty.domain() == ()
    for img in itertools.product(range(4), repeat=3):
        b = PartialTransformation(tuple(None if v == 3 else v for v in img))
        assert compose_partial(empty, b) == empty
        assert compose_partial(b, empty) == empty


def test_identity_and_constant():
    ident = Transformation.identity(4)
    c2 = Transformation.constant(4, 2)
    assert tuple(ident.img) == (0, 1, 2, 3)
    assert tuple(c2.img) == (2, 2, 2, 2)
    a = Transformation([3, 1, 0, 2])
    assert compose(ident, a) == a == compose(a, ident)
    assert compose(a, c2) == c2
    assert compose(c2, a) == Transformation.constant(4, a(2))


def test_partial_identity_on():
    e = PartialTransformation([None, 1, None, 3])
    assert tuple(e.img) == (4, 1, 4, 3)
    assert is_idempotent(e)
    assert e.domain() == (1, 3)
    assert e.image() == (1, 3)


def test_rank():
    assert Transformation([0, 0, 0]).rank() == 1
    assert Transformation([1, 0, 2]).rank() == 3
    assert PartialTransformation([None, None, 1]).rank() == 1
    assert PartialTransformation.empty(5).rank() == 0


def test_validation_errors():
    with pytest.raises(ValueError):
        Transformation([0, 3])  # image out of range
    with pytest.raises(ValueError):
        Transformation([])
    with pytest.raises(ValueError):
        PartialTransformation([3, 0])  # beyond the degree-2 sentinel
    with pytest.raises(ValueError):
        compose(Transformation([0]), Transformation([0, 1]))


def test_bool_images_rejected():
    # bool is an int subclass; True must not pass for the point 1
    for bad in ([True, 0], [0, False]):
        with pytest.raises(ValueError):
            Transformation(bad)
        with pytest.raises(ValueError):
            PartialTransformation(bad)
    with pytest.raises(ValueError):
        PartialTransformation([None, True])


def test_partial_rejects_sentinel_spelling():
    # the stored sentinel (= degree) is not a point; undefined is spelled None
    with pytest.raises(ValueError):
        PartialTransformation([2, 0])
    a = PartialTransformation([None, 1, None])
    with pytest.raises(ValueError):
        PartialTransformation(a.img)
    assert PartialTransformation([None, 0]).img == bytes([2, 0])


def test_degree_guard():
    # images are bytes, so points and the partial sentinel must stay below 256
    assert Transformation(range(255)).degree == 255
    assert PartialTransformation([None] * 255).degree == 255
    with pytest.raises(ValueError):
        Transformation(range(256))
    with pytest.raises(ValueError):
        PartialTransformation([None] * 256)


def test_canonical_order_full_vs_partial():
    # lex order on image tuples; undefined sorts greatest, so the empty map is last
    maps = sorted(all_partial(2))
    assert tuple(maps[0].img) == (0, 0)
    assert maps[-1] == PartialTransformation.empty(2)
    ts = sorted(all_full(2))
    assert [tuple(t.img) for t in ts] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_full_and_partial_maps_never_equal():
    assert Transformation([0, 1]) != PartialTransformation([0, 1])
    assert hash(Transformation([0, 1])) != hash(PartialTransformation([0, 1]))


# -- omega_power -------------------------------------------------------------


def brute_omega(a):
    seen = [a]
    while True:
        nxt = product(seen[-1], a)
        if is_idempotent(nxt):
            return nxt
        seen.append(nxt)


def test_omega_power_frozen_example():
    a = Transformation([1, 0, 0])
    assert omega_power(a) == Transformation([0, 1, 1])
    with pytest.raises(TypeError):
        omega_power((1, 0, 0))


def test_omega_power_of_permutation_is_identity():
    assert omega_power(Transformation([1, 2, 0])) == Transformation.identity(3)
    assert omega_power(Transformation([1, 0, 2])) == Transformation.identity(3)


def test_omega_power_long_cycle_lcm():
    # cycles of length 2, 3 and 5: the idempotent power is a^30
    img = [1, 0, 3, 4, 2, 6, 7, 8, 9, 5]
    a = Transformation(img)
    e = omega_power(a)
    assert e == Transformation.identity(10)
    p = a
    for _ in range(29):
        p = compose(p, a)
    assert p == e


def test_omega_power_matches_brute_force_exhaustive_t3():
    for a in all_full(3):
        assert omega_power(a) == brute_omega(a)


def test_omega_power_matches_brute_force_exhaustive_p2():
    for a in all_partial(2):
        assert omega_power(a) == brute_omega(a)


def test_omega_power_matches_brute_force_sampled():
    rng = random.Random(5)
    for _ in range(400):
        n = rng.randint(2, 8)
        a = Transformation(tuple(rng.randrange(n) for _ in range(n)))
        assert omega_power(a) == brute_omega(a)
    for _ in range(200):
        n = rng.randint(2, 6)
        a = PartialTransformation(
            tuple(rng.choice([None] + list(range(n))) for _ in range(n))
        )
        assert omega_power(a) == brute_omega(a)
    # degree 255, where ⊥ = 255 fills a one-byte table: a tail of 238 points
    # into cycles of lengths 2, 3, 5 and 7 (index 238, period 210) ...
    cycles = [1, 0, 3, 4, 2, 6, 7, 8, 9, 5, *range(11, 17), 10]
    a = Transformation([*cycles, 0, *range(17, 254)])
    assert omega_power(a) == brute_omega(a) != Transformation.identity(255)
    # ... and a partial map whose points fall into cycles of lengths 3 and 5
    # along a tail of 100, or into ⊥ along a tail of 147 (index 147, period 15)
    a = PartialTransformation([1, 2, 0, 4, 5, 6, 7, 3, 0, *range(8, 107), None, *range(108, 254)])
    assert omega_power(a) == brute_omega(a)


def test_omega_power_is_idempotent_and_in_cyclic_subsemigroup():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(2, 7)
        a = Transformation(tuple(rng.randrange(n) for _ in range(n)))
        e = omega_power(a)
        assert is_idempotent(e)
        powers = {a}
        p = a
        for _ in range(3 * n):
            p = compose(p, a)
            powers.add(p)
        assert e in powers


# -- restriction and embedding -----------------------------------------------


def test_restrict_reindexes_ascending():
    a = Transformation([0, 6, 3, 3, 3, 3, 6])
    r = restrict(a, [0, 3, 6])
    assert tuple(r.img) == (0, 1, 2)
    b = Transformation([3, 0, 6, 6, 6, 6, 0])
    assert tuple(restrict(b, [0, 3, 6]).img) == (1, 2, 0)


def test_restrict_rejects_non_invariant_subset():
    a = Transformation([1, 2, 0])
    with pytest.raises(ValueError):
        restrict(a, [0, 1])
    with pytest.raises(ValueError):
        restrict(a, [])


def test_embed_partial_frozen():
    b = PartialTransformation([1, None, 0])
    assert tuple(embed_partial(b).img) == (1, 3, 0, 3)


def test_embed_partial_multiplicative_and_injective_p3():
    maps = all_partial(3)
    embedded = [embed_partial(b) for b in maps]
    assert len(set(embedded)) == len(maps)
    for b1, t1 in zip(maps, embedded):
        for b2, t2 in zip(maps, embedded):
            assert embed_partial(compose_partial(b1, b2)) == compose(t1, t2)
