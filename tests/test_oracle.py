"""Exhaustive-search cross-checks of the frozen extremal values."""

import hashlib
import itertools
import random
from collections import Counter

import pytest

from commsemi.extremal import abelian_witness, e_ix, gamma, null_max, omega_pn, xi_alpha
from commsemi.oracle import (
    ABELIAN_ORDERS,
    _checked_set,
    _omega_classes,
    _tag_commutative,
    _tag_null,
    closure_check_stats,
    expected_value,
    max_abelian_subgroup,
    max_commutative,
    max_commutative_idempotent,
    max_null,
    max_unique_idempotent,
    random_commutative_unique_idem,
    reset_closure_stats,
)
from commsemi.semigroups import (
    ClosureLimitExceeded,
    SemigroupSet,
    classify_small_abelian_group,
    closure,
    enumerate_full,
    enumerate_partial,
    idempotents,
    is_group,
    is_null,
    unique_idempotent,
)
from commsemi.serialization import semigroup_digest
from commsemi.transform import PartialTransformation, Transformation, _raw, omega_power, product


def holds(result, S):
    """True iff S appears among the result's maximizers."""
    return any(M.elements == S.elements for M in result.maximizers)


class TestMaxCommutative:
    def test_full_2(self):
        r = max_commutative(2, "full")
        assert r.size == 2
        assert Counter(r.tags) == {"GAMMA:0": 1, "GAMMA:1": 1, "GROUP:C2": 1}

    def test_full_3(self):
        r = max_commutative(3, "full")
        assert r.size == 4
        assert Counter(r.tags) == {"GAMMA:0": 1, "GAMMA:1": 1, "GAMMA:2": 1}
        for x in range(3):
            assert holds(r, gamma(3, x))

    def test_full_4(self):
        r = max_commutative(4, "full")
        assert r.size == 8
        assert Counter(r.tags) == {f"GAMMA:{x}": 1 for x in range(4)}
        for x in range(4):
            assert holds(r, gamma(4, x))

    def test_partial_2_and_3(self):
        r = max_commutative(2, "partial")
        assert (r.size, r.tags) == (4, ("EIX",))
        assert r.maximizers[0].elements == e_ix(2).elements
        r = max_commutative(3, "partial")
        assert (r.size, r.tags) == (8, ("EIX",))
        assert r.maximizers[0].elements == e_ix(3).elements

    def test_commutative_input_shortcut(self):
        assert max_commutative(1, "full") == (1, (gamma(1, 0),), ("GAMMA:0",))
        r = max_commutative(1, "partial")
        assert (r.size, r.tags) == (2, ("EIX",))


class TestMaxCommutativeIdempotent:
    def test_full_up_to_5(self):
        for n in range(2, 6):
            r = max_commutative_idempotent(n, "full")
            assert r.size == 2 ** (n - 1)
            assert Counter(r.tags) == {f"GAMMA:{x}": 1 for x in range(n)}

    def test_partial_up_to_4(self):
        for n in range(2, 5):
            r = max_commutative_idempotent(n, "partial")
            assert r.size == 2**n
            assert r.tags == ("EIX",)
            assert r.maximizers[0].elements == e_ix(n).elements


class TestMaxUniqueIdempotent:
    def test_full_small(self):
        assert max_unique_idempotent(2, "full")[::2] == (2, ("GROUP:C2",))
        assert max_unique_idempotent(3, "full")[::2] == (3, ("GROUP:C3",))

    def test_full_4_inventory(self):
        r = max_unique_idempotent(4, "full")
        assert r.size == 4
        assert len(r.maximizers) == 19
        tags = Counter(r.tags)
        assert tags["GROUP:C4"] == 3
        assert tags["GROUP:C2xC2"] == 4
        null_tags = [t for t in r.tags if t.startswith("NULL:N(")]
        assert len(null_tags) == 12 == len(set(null_tags))
        for M in r.maximizers:
            assert len(idempotents(M)) == 1

    def test_full_5_all_null(self):
        r = max_unique_idempotent(5, "full")
        assert r.size == 9
        assert len(r.maximizers) == 30
        assert all(t.startswith("NULL:N(") for t in r.tags)
        assert len(set(r.tags)) == 30

    def test_partial_inventories(self):
        r = max_unique_idempotent(2, "partial")
        assert r.size == 2
        assert Counter(r.tags) == {
            "GROUP:C2": 1,
            "NULL:OMEGA(0)": 1,
            "NULL:OMEGA(1)": 1,
        }
        r = max_unique_idempotent(3, "partial")
        assert r.size == 4
        assert Counter(r.tags) == {f"NULL:OMEGA({b})": 1 for b in range(3)}
        r = max_unique_idempotent(4, "partial")
        assert r.size == 9
        assert Counter(r.tags) == {
            f"NULL:OMEGA({a},{b})": 1 for a in range(4) for b in range(a + 1, 4)
        }


@pytest.mark.parametrize("enum, n", [(enumerate_full, 4), (enumerate_partial, 3)], ids=["T4", "P3"])
def test_omega_classes_match_omega_power(enum, n):
    classes = _omega_classes(enum(n))
    expected = {}
    for a in enum(n):
        expected.setdefault(omega_power(a), []).append(a)
    assert list(classes.items()) == list(expected.items())  # keys, key order, member order


class TestMaxNull:
    def test_full_2(self):
        r = max_null(2, "full")
        assert r.size == 1
        # singleton idempotents: the two constants and the identity
        assert r.tags == ("NULL:N(0;1)", "ID", "NULL:N(1;0)")

    def test_full_3(self):
        r = max_null(3, "full")
        assert r.size == 2
        assert Counter(r.tags) == {
            f"NULL:N({x};{y})": 1 for x in range(3) for y in range(3) if x != y
        }

    def test_full_4(self):
        r = max_null(4, "full")
        assert r.size == 4
        assert len(r.maximizers) == 12
        assert all(t.startswith("NULL:N(") for t in r.tags)
        for x in range(4):
            for y in range(4):
                if x != y:
                    assert holds(r, null_max(4, [x, y]))

    def test_partial_2_and_3(self):
        r = max_null(2, "partial")
        assert r.size == 2
        assert Counter(r.tags) == {"NULL:OMEGA(0)": 1, "NULL:OMEGA(1)": 1}
        r = max_null(3, "partial")
        assert r.size == 4
        assert Counter(r.tags) == {f"NULL:OMEGA({b})": 1 for b in range(3)}
        for b in range(3):
            assert holds(r, omega_pn(3, [b]))


# Every maximizer of the four clique searches at the cheap degrees:
# (search, n, kind, size, space-joined tags, SHA-256 of the newline-joined
# semigroup digests of the maximizers, in the order returned).
PINNED_MAXIMIZERS = [
    (max_commutative, 1, "full", 1,
     "GAMMA:0",
     "8d3a229eb60a4613bac82504ad3198495370887b768e955f0ddf8777440741fc"),
    (max_commutative, 2, "full", 2,
     "GAMMA:0 GROUP:C2 GAMMA:1",
     "e31b1cf741e7d4fac2414b761f629aa0f1c9bea3978d1c7c0f11b2f2f3ba0340"),
    (max_commutative, 3, "full", 4,
     "GAMMA:0 GAMMA:1 GAMMA:2",
     "95634023d93db7c43dd6e79e296c5c4f10e0ea79d7b3df64bfef89324607f6b0"),
    (max_commutative, 4, "full", 8,
     "GAMMA:0 GAMMA:1 GAMMA:2 GAMMA:3",
     "4b4d55dcdbb33b084b20be08f54867bd4661064061191473a4335422d0eebe43"),
    (max_commutative, 1, "partial", 2,
     "EIX",
     "14f7f02a1d5ade08e6b4ca4afc1b727950ed5313f9ca95b90fe063ebcefa88ea"),
    (max_commutative, 2, "partial", 4,
     "EIX",
     "14fab69fa2a3a500597c682921cec4d1fe2cad7397642b148fb51debbf8f7f6f"),
    (max_commutative, 3, "partial", 8,
     "EIX",
     "ef6e411e546e13c2766bc9f65d103d3766e002a5e41f887f8d811a3c69b58049"),
    (max_commutative_idempotent, 1, "full", 1,
     "GAMMA:0",
     "8d3a229eb60a4613bac82504ad3198495370887b768e955f0ddf8777440741fc"),
    (max_commutative_idempotent, 2, "full", 2,
     "GAMMA:0 GAMMA:1",
     "47ab172ef183a7f9567c7ba3bd693284d6ef17bd09a45b299a3e54e444bccdcd"),
    (max_commutative_idempotent, 3, "full", 4,
     "GAMMA:0 GAMMA:1 GAMMA:2",
     "95634023d93db7c43dd6e79e296c5c4f10e0ea79d7b3df64bfef89324607f6b0"),
    (max_commutative_idempotent, 4, "full", 8,
     "GAMMA:0 GAMMA:1 GAMMA:2 GAMMA:3",
     "4b4d55dcdbb33b084b20be08f54867bd4661064061191473a4335422d0eebe43"),
    (max_commutative_idempotent, 1, "partial", 2,
     "EIX",
     "14f7f02a1d5ade08e6b4ca4afc1b727950ed5313f9ca95b90fe063ebcefa88ea"),
    (max_commutative_idempotent, 2, "partial", 4,
     "EIX",
     "14fab69fa2a3a500597c682921cec4d1fe2cad7397642b148fb51debbf8f7f6f"),
    (max_commutative_idempotent, 3, "partial", 8,
     "EIX",
     "ef6e411e546e13c2766bc9f65d103d3766e002a5e41f887f8d811a3c69b58049"),
    (max_unique_idempotent, 1, "full", 1,
     "GROUP:C1",
     "8d3a229eb60a4613bac82504ad3198495370887b768e955f0ddf8777440741fc"),
    (max_unique_idempotent, 2, "full", 2,
     "GROUP:C2",
     "8f5f2b672d82deab65deeb348d4935599cbf1569fd9af3768c10b7e7021f211d"),
    (max_unique_idempotent, 3, "full", 3,
     "GROUP:C3",
     "a90eb54129aae51c2d5aad9da7bb397b9710f145db09510b40d88fbb2898541e"),
    (max_unique_idempotent, 4, "full", 4,
     (
         "NULL:N(0;1) NULL:N(0;2) NULL:N(0;3) GROUP:C2xC2 GROUP:C2xC2 "
         "GROUP:C2xC2 GROUP:C2xC2 GROUP:C4 GROUP:C4 GROUP:C4 NULL:N(1;0) "
         "NULL:N(1;2) NULL:N(1;3) NULL:N(2;1) NULL:N(3;1) NULL:N(2;0) "
         "NULL:N(2;3) NULL:N(3;2) NULL:N(3;0)"
     ),
     "73b84636cabacbacc17072cc50a436a72a834527fc6f3be93c486da43db82456"),
    (max_unique_idempotent, 1, "partial", 1,
     "GROUP:C1 GROUP:C1",
     "3fba01fcdc3fcc34e0c2b1cc4d8bc93091e336a2db2bc078c15d9508dd2fee8b"),
    (max_unique_idempotent, 2, "partial", 2,
     "GROUP:C2 NULL:OMEGA(1) NULL:OMEGA(0)",
     "9d59da04660a9f752552bcc4a0c59f7a3fd25309d9c9f8a51bf397cb604855ad"),
    (max_unique_idempotent, 3, "partial", 4,
     "NULL:OMEGA(1) NULL:OMEGA(2) NULL:OMEGA(0)",
     "417dc428268086ea332ced66685c7131f3fd4af5fa44a845426e09374ff7dd77"),
    (max_null, 1, "full", 1,
     "ID",
     "8d3a229eb60a4613bac82504ad3198495370887b768e955f0ddf8777440741fc"),
    (max_null, 2, "full", 1,
     "NULL:N(0;1) ID NULL:N(1;0)",
     "fd93daee5d9a927a74bfe5e89b67816f8b6d03b8268384750cd5173c013a9c0b"),
    (max_null, 3, "full", 2,
     (
         "NULL:N(0;1) NULL:N(0;2) NULL:N(1;0) NULL:N(1;2) NULL:N(2;1) "
         "NULL:N(2;0)"
     ),
     "e0ba66d7c42e735351e0c92421c3654ffbfb0125c05ff3b5780677083faee7ea"),
    (max_null, 4, "full", 4,
     (
         "NULL:N(0;1) NULL:N(0;2) NULL:N(0;3) NULL:N(1;0) NULL:N(1;2) "
         "NULL:N(1;3) NULL:N(2;1) NULL:N(3;1) NULL:N(2;0) NULL:N(2;3) "
         "NULL:N(3;2) NULL:N(3;0)"
     ),
     "f7254a9de7b63b09432e56774f5706772e069807682a943d3b9e785b6d9b8db4"),
    (max_null, 1, "partial", 1,
     "NULL:? NULL:OMEGA(0)",
     "3fba01fcdc3fcc34e0c2b1cc4d8bc93091e336a2db2bc078c15d9508dd2fee8b"),
    (max_null, 2, "partial", 2,
     "NULL:OMEGA(1) NULL:OMEGA(0)",
     "e72714cf75d14c3546bbbd11b8507c0a8bcce5aa79dded1fdd04ed245857a2d2"),
    (max_null, 3, "partial", 4,
     "NULL:OMEGA(1) NULL:OMEGA(2) NULL:OMEGA(0)",
     "417dc428268086ea332ced66685c7131f3fd4af5fa44a845426e09374ff7dd77"),
]


@pytest.mark.parametrize("search, n, kind, size, tags, digest", PINNED_MAXIMIZERS)
def test_pinned_maximizers(search, n, kind, size, tags, digest):
    r = search(n, kind)
    assert r.size == size
    assert " ".join(r.tags) == tags
    joined = "\n".join(semigroup_digest(T) for T in r.maximizers)
    assert hashlib.sha256(joined.encode("utf-8")).hexdigest() == digest


def brute_tag_commutative(T):
    """The commutative tag computed by trying every Γ(n, x)."""
    n = T.degree
    if T.kind == "full":
        for x in range(n):
            if T == gamma(n, x):
                return f"GAMMA:{x}"
    elif T == e_ix(n):
        return "EIX"
    if is_group(T):
        return "GROUP:" + classify_small_abelian_group(T)
    return "OTHER"


def brute_tag_null(T):
    """The null tag computed by building every candidate N(x1; rest) or Ω(B)."""
    n = T.degree
    if T.kind == "full":
        if len(T) == 1 and T.elements[0] == Transformation.identity(n):
            return "ID"
        t = xi_alpha(n).alpha
        for x1 in range(n):
            for rest in itertools.combinations([y for y in range(n) if y != x1], t - 1):
                if T == null_max(n, [x1, *rest]):
                    return f"NULL:N({x1};{','.join(map(str, rest))})"
    else:
        t = xi_alpha(n + 1).alpha
        for B in itertools.combinations(range(n), t - 1):
            if T == omega_pn(n, B):
                return f"NULL:OMEGA({','.join(map(str, B))})"
    return "NULL:?"


# (search, kind, top degree, maximizers tagged over degrees 1..top)
TAGGED_SEARCHES = [
    (max_null, "full", 5, 52),
    (max_null, "partial", 4, 13),
    (max_unique_idempotent, "full", 5, 43),
    (max_unique_idempotent, "partial", 4, 13),
    (max_commutative, "full", 5, 16),
    (max_commutative, "partial", 4, 4),
    (max_commutative_idempotent, "full", 6, 21),
    (max_commutative_idempotent, "partial", 5, 5),
]


class TestTags:
    @pytest.mark.parametrize("search, kind, top, count", TAGGED_SEARCHES)
    def test_match_brute_force(self, search, kind, top, count):
        null = search in (max_null, max_unique_idempotent)
        seen = 0
        for n in range(1, top + 1):
            for T in search(n, kind).maximizers:
                if not null:
                    assert _tag_commutative(T) == brute_tag_commutative(T)
                elif is_null(T)[0]:
                    assert _tag_null(T) == brute_tag_null(T)
                else:
                    continue
                seen += 1
        assert seen == count

    def test_proper_subsets_are_unnamed(self):
        for N in (null_max(4, [2, 0]), null_max(5, [1, 4, 3]), omega_pn(4, [0, 2])):
            zero = product(N[0], N[0])
            for drop in N:
                if drop == zero:
                    continue
                T = SemigroupSet([a for a in N if a != drop])
                assert _tag_null(T) == brute_tag_null(T) == "NULL:?"

    def test_other_null_sets(self):
        # null, but with more base points than a named maximum has
        T = SemigroupSet([Transformation.constant(3, 0)])
        assert _tag_null(T) == brute_tag_null(T) == "NULL:?"
        T = SemigroupSet([PartialTransformation([None, None, 0])])
        assert _tag_null(T) == brute_tag_null(T) == "NULL:?"


class TestMaxAbelianSubgroup:
    def test_matches_the_orders(self):
        for n in range(2, 7):
            r = max_abelian_subgroup(n)
            assert r.size == ABELIAN_ORDERS[n]
            assert r.tags == (f"ABELIAN:{r.size}",)
            (M,) = r.maximizers
            assert is_group(M) and M.is_commutative()
            assert len(abelian_witness(n)) == r.size

    def test_range(self):
        with pytest.raises(ValueError):
            max_abelian_subgroup(1)
        with pytest.raises(ValueError):
            max_abelian_subgroup(7)


def object_level_sampler(n, seed):
    """The sampler as it was before it drew and commute-tested on image
    bytes: Transformation objects from ``randrange``, commute test by
    ``product``.  Kept verbatim as the reference for the draws."""
    if n < 2:
        raise ValueError(f"degree must be at least 2, got {n}")
    rng = random.Random(seed)
    ident = Transformation.identity(n)
    best = None
    for batch in range(2000):
        if best is not None and batch >= 60:
            break
        want = rng.randint(1, 3)
        gens = []
        tries = 0
        while len(gens) < want and tries < 25:
            tries += 1
            cand = _raw(Transformation, bytes([rng.randrange(n) for _ in range(n)]))
            if all(product(cand, g) == product(g, cand) for g in gens):
                gens.append(cand)
        if not gens:
            continue
        try:
            S = closure(gens, limit=400)
        except ClosureLimitExceeded:
            continue
        es = idempotents(S)
        if len(es) != 1 or es[0] == ident:
            continue
        if not S.is_commutative():  # cannot happen: commuting generators
            raise RuntimeError("closure of commuting generators is not commutative")
        if best is None or len(S) > len(best):
            best = S
    if best is None:
        raise RuntimeError(
            f"could not generate a unique-idempotent semigroup of degree {n} "
            f"after 2000 attempts (seed {seed})"
        )
    return best


class TestRandomGenerator:
    def test_same_draws_as_the_object_level_sampler(self):
        for seed in range(300):
            n = 2 + seed % 5
            S = random_commutative_unique_idem(n, seed)
            assert S.elements == object_level_sampler(n, seed).elements, seed
            unflagged = SemigroupSet(S.elements)
            assert unflagged.is_closed() and unflagged.is_commutative(), seed

    def test_deterministic(self):
        a = random_commutative_unique_idem(5, 123)
        b = random_commutative_unique_idem(5, 123)
        assert a.elements == b.elements

    def test_invariants(self):
        sizes = set()
        for seed in range(40):
            n = 2 + seed % 5
            S = random_commutative_unique_idem(n, seed)
            assert S.is_closed()
            assert S.is_commutative()
            assert len(idempotents(S)) == 1
            assert unique_idempotent(S) != Transformation.identity(n)
            sizes.add(len(S))
        assert len(sizes) > 1

    def test_pinned_outputs(self):
        # the 60 outputs, digest by digest; the stream is `random`'s, so the
        # pin also holds the sampler to the same draws on every Python version
        digests = "".join(
            semigroup_digest(random_commutative_unique_idem(2 + i % 5, i)) for i in range(60)
        )
        assert (
            hashlib.sha256(digests.encode("ascii")).hexdigest()
            == "1715edbc851f4bf3bd88845ac8da2c873fdb0641994549f5a8a4b2f347278279"
        )

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            random_commutative_unique_idem(1, 0)

    def test_degree_checked_before_drawing(self):
        with pytest.raises(ValueError, match="degree must be between 1 and 255"):
            random_commutative_unique_idem(256, 0)


class TestCaps:
    def test_degree_caps(self):
        with pytest.raises(ValueError):
            max_commutative(6, "full")
        with pytest.raises(ValueError):
            max_commutative(5, "partial")
        with pytest.raises(ValueError):
            max_commutative_idempotent(7, "full")
        with pytest.raises(ValueError):
            max_unique_idempotent(7, "full")
        with pytest.raises(ValueError):
            max_unique_idempotent(6, "partial")
        with pytest.raises(ValueError):
            max_null(7, "full")
        with pytest.raises(ValueError):
            max_null(6, "partial")

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            max_commutative(3, "sym")
        with pytest.raises(ValueError):
            max_null(0, "full")


class TestClosureStats:
    @pytest.mark.parametrize(
        "search", [max_commutative, max_commutative_idempotent, max_unique_idempotent, max_null]
    )
    def test_one_check_per_maximizer(self, search):
        # only the final maximizers are checked, not the ties of pools
        # that a larger clique later beats
        for n, kind in ((4, "full"), (3, "partial")):
            reset_closure_stats()
            r = search(n, kind)
            assert closure_check_stats() == {"checks": len(r.maximizers), "violations": 0}

    @pytest.mark.parametrize(
        "elements, message",
        [
            (
                [Transformation([1, 1, 1]), Transformation([0, 0, 0])],
                "a=Transformation([0, 0, 0]) b=Transformation([1, 1, 1]) "
                "ab=Transformation([1, 1, 1]) ba=Transformation([0, 0, 0]) member=True",
            ),
            (
                [Transformation([1, 0, 2])],
                "a=Transformation([1, 0, 2]) b=Transformation([1, 0, 2]) "
                "ab=Transformation([0, 1, 2]) ba=Transformation([0, 1, 2]) member=False",
            ),
            (
                [PartialTransformation([0, None]), PartialTransformation([None, 1]),
                 PartialTransformation([0, 1])],
                "a=PartialTransformation([0, None]) b=PartialTransformation([None, 1]) "
                "ab=PartialTransformation([None, None]) ba=PartialTransformation([None, None]) "
                "member=False",
            ),
        ],
        ids=["not-commuting", "not-closed", "partial-not-closed"],
    )
    def test_failure_names_the_first_bad_pair(self, elements, message):
        reset_closure_stats()
        with pytest.raises(RuntimeError) as info:
            _checked_set(elements, context="a test")
        assert str(info.value) == "closure check failed in a test: " + message
        assert closure_check_stats() == {"checks": 1, "violations": 1}

    def test_counting(self):
        reset_closure_stats()
        assert closure_check_stats() == {"checks": 0, "violations": 0}
        max_commutative(2, "full")
        stats = closure_check_stats()
        assert stats["checks"] >= 3
        assert stats["violations"] == 0


class TestExpectedValue:
    def test_published_values(self):
        assert expected_value("comm-max", 4, "full") == 8
        assert expected_value("comm-max", 5, "partial") == 32
        assert expected_value("idem-max", 10, "full") == 512
        assert expected_value("idem-max", 3, "partial") == 8
        assert expected_value("unique-idem-max", 3, "full") == 3
        assert expected_value("unique-idem-max", 4, "full") == 4
        assert expected_value("unique-idem-max", 5, "full") == 9
        assert expected_value("unique-idem-max", 20, "full") == 96889010407
        assert expected_value("unique-idem-max", 4, "partial") == 9
        assert expected_value("null-max", 8, "full") == 256
        assert expected_value("null-max", 7, "partial") == 256
        assert expected_value("abelian-max", 12, "full") == 81
        assert expected_value("pclique", 6, "full") == 31
        assert expected_value("pclique", 5, "partial") == 30
        assert expected_value("girth", 2, "full") == float("inf")
        assert expected_value("girth", 5, "partial") == 3
        assert expected_value("knit", 2, "full") is None
        assert expected_value("knit", 3, "full") == 1
        table = expected_value("xi-table", 20, "full")
        assert len(table) == 20
        assert table[-1] == (20, 7, 96889010407)

    def test_out_of_range(self):
        for claim, n, kind in [
            ("comm-max", 7, "full"),
            ("comm-max", 6, "partial"),
            ("idem-max", 0, "full"),
            ("unique-idem-max", 21, "full"),
            ("unique-idem-max", 20, "partial"),
            ("null-max", 21, "full"),
            ("abelian-max", 5, "partial"),
            ("abelian-max", 13, "full"),
            ("pclique", 7, "full"),
            ("girth", 1, "full"),
            ("knit", 0, "full"),
            ("xi-table", 21, "full"),
            ("chromatic", 3, "full"),
            ("comm-max", 3, "sym"),
        ]:
            with pytest.raises(ValueError):
                expected_value(claim, n, kind)
