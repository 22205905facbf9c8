"""Exhaustive-search cross-checks of the frozen extremal values."""

import hashlib
import itertools
import random
from collections import Counter

import pytest

from commsemi import cli, oracle
from commsemi.extremal import (
    abelian_witness,
    e_ix,
    gamma,
    knit_witness,
    null_max,
    omega_pn,
    xi_alpha,
)
from commsemi.graphs import (
    RowReader,
    build,
    commuting_rows,
    girth,
    knit_degree,
    max_clique,
    max_clique_bits,
)
from commsemi.oracle import (
    ABELIAN_ORDERS,
    CLAIMS,
    _certify,
    _checked_set,
    _class_pools,
    _class_reps,
    _conjugates,
    _generators,
    _omega_class,
    _omega_classes,
    _search,
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
    _commute_with_all,
    _idempotent_images,
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
import test_results


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


def omega_classes(S):
    """S grouped by ω-power, one element at a time: keys and members in S's order."""
    classes = {}
    for a in S:
        classes.setdefault(omega_power(a), []).append(a)
    return classes


def conjugate(a, s):
    """σ⁻¹aσ by two products, for the permutation σ with image ``s``."""
    cls = type(a)
    inverse = sorted(range(len(s)), key=s.__getitem__)
    return product(product(cls(inverse), a), cls(s))


def partitions(m):
    """The number of partitions of m, by counting multisets of parts."""
    return sum(
        1
        for k in range(m + 1)
        for parts in itertools.combinations_with_replacement(range(1, m + 1), k)
        if sum(parts) == m
    )


def representative_of(n, kind):
    """Each idempotent's :func:`_class_reps` representative, by conjugating each
    representative by all n! permutations."""
    cls = Transformation if kind == "full" else PartialTransformation
    return {
        conjugate(_raw(cls, r), s).img: r
        for r in _class_reps(n, kind)
        for s in itertools.permutations(range(n))
    }


def layout(monkeypatch, n, kind, block):
    """The maps that :func:`_class_pools` lays out for its row reader, in order."""
    orders = []

    def spy(order, degree):
        orders.append(list(order))
        return RowReader(order, degree)

    monkeypatch.setattr(oracle, "RowReader", spy)
    next(_class_pools(n, kind, block))
    monkeypatch.undo()
    (order,) = orders
    return order


ORBIT_DEGREES = [(enumerate_full, "full", 4), (enumerate_partial, "partial", 3)]


class TestOrbits:
    """The premise of the orbit search: conjugation keeps every pool's clique number."""

    @pytest.mark.parametrize(
        "enum, kind, n",
        [*ORBIT_DEGREES, (enumerate_full, "full", 5), (enumerate_partial, "partial", 4)],
        ids=["T4", "P3", "T5", "P4"],
    )
    def test_made_class_is_the_enumerated_class(self, enum, kind, n):
        # every idempotent's class, made from it, against the maps of that ω-power
        S = enum(n)
        classes = omega_classes(S)
        assert len(classes) == len(_idempotent_images(S.images, n))
        for f, members in classes.items():
            made = _omega_class(f.img)
            assert len(made) == len(set(made))
            assert set(made) == {a.img for a in members}

    @pytest.mark.parametrize("enum, kind, n", ORBIT_DEGREES, ids=["T4", "P3"])
    def test_one_class_per_conjugacy_class(self, enum, kind, n):
        # keyed by the representative of each class, in order
        got = list(_omega_classes(n, kind))
        assert [f.img for f, _ in got] == _class_reps(n, kind)
        assert all([a.img for a in members] == _omega_class(f.img) for f, members in got)
        cls = Transformation if kind == "full" else PartialTransformation
        assert all(type(a) is cls for f, members in got for a in [f, *members])

    @pytest.mark.parametrize(
        "enum, kind, top", [(enumerate_full, "full", 5), (enumerate_partial, "partial", 4)]
    )
    def test_one_representative_per_conjugacy_class(self, enum, kind, top):
        # the classes found by conjugating every idempotent by all n! permutations:
        # p(n) of them in T_n; in P_n, the points sent to ⊥ are any m ≤ n of them,
        # and the rest are split as a partition of n − m
        for n in range(1, top + 1):
            classes = {
                frozenset(conjugate(f, s).img for s in itertools.permutations(range(n)))
                for f in idempotents(enum(n))
            }
            reps = _class_reps(n, kind)
            assert [sum(r in c for r in reps) for c in classes] == [1] * len(classes)
            assert len(reps) == len(classes)
            sizes = range(0 if kind == "partial" else n, n + 1)  # points not sent to ⊥
            assert len(classes) == sum(map(partitions, sizes))
        assert [partitions(n) for n in range(1, 7)] == [1, 2, 3, 5, 7, 11]

    @pytest.mark.parametrize("enum, kind, n", ORBIT_DEGREES, ids=["T4", "P3"])
    def test_conjugate_pools_share_clique_numbers(self, enum, kind, n):
        def omega(pool):
            return max_clique_bits(commuting_rows(pool))[0]

        def null_omega(z, pool):
            items = [a for a in pool if a * a == z == a * z == z * a]
            adj = [
                sum(1 << j for j, b in enumerate(items) if j != i and a * b == z == b * a)
                for i, a in enumerate(items)
            ]
            return max_clique_bits(adj)[0]

        S = enum(n)
        reps = {f.img: (f, pool) for f, pool in _omega_classes(n, kind)}
        representative = representative_of(n, kind)
        classes = omega_classes(S)
        assert len(classes) > len(reps)
        for f, pool in classes.items():
            g, rep = reps[representative[f.img]]
            assert omega(pool) == omega(rep)
            assert null_omega(f, pool) == null_omega(g, rep)

    @pytest.mark.parametrize("enum, kind, n", ORBIT_DEGREES, ids=["T4", "P3"])
    def test_conjugates_walk_lists_what_every_permutation_lists(self, enum, kind, n):
        # one σ per conjugate, walked by (0 1) and (0 1 … n−1), against all n! of them
        pools = list(_class_pools(n, kind, _omega_class))
        pools += [(f, items, commuting_rows(items)) for f, items in _omega_classes(n, kind)]
        for f, items, adj in pools:
            cliques = [[items[i] for i in K] for K in max_clique_bits(adj, ties=True)[1]]
            bytes_cliques = [[a.img for a in K] for K in cliques]
            walked = [(g, frozenset(K)) for g, K in _conjugates(f.img, bytes_cliques)]
            every = {
                (conjugate(f, s).img, frozenset(conjugate(a, s).img for a in K))
                for s in itertools.permutations(range(n))
                for K in cliques
            }
            assert set(walked) == every
            # each conjugate once, with each clique once
            assert len(walked) == len({g for g, _ in every}) * len(cliques)


def whole_pool(S):
    """Every maximum clique of the commuting graph on all of S, as a search result.

    The route that the class pools replaced: one search over every row.
    """
    items = S.elements
    size, cliques, _ = max_clique_bits(commuting_rows(items), ties=True)
    sets = sorted((SemigroupSet([items[i] for i in K]) for K in cliques), key=lambda T: T.images)
    return size, tuple(sets), tuple(map(_tag_commutative, sets))


def idempotent_pool(enum):
    return lambda n: SemigroupSet(idempotents(enum(n)))


# (search, its whole pool at degree n, kind, top degree compared)
CLASS_POOL_CASES = [
    (max_commutative, enumerate_full, "full", 5),
    (max_commutative, enumerate_partial, "partial", 4),
    (max_commutative_idempotent, idempotent_pool(enumerate_full), "full", 6),
    (max_commutative_idempotent, idempotent_pool(enumerate_partial), "partial", 5),
]


class TestClassPools:
    """comm-max and idem-max search one pool per conjugacy class of idempotents."""

    @pytest.mark.parametrize("search, pool, kind, top", CLASS_POOL_CASES)
    def test_same_result_as_the_whole_pool(self, search, pool, kind, top):
        for n in range(1, top + 1):
            assert search(n, kind) == whole_pool(pool(n)), n

    @pytest.mark.parametrize(
        "enum, n, kind",
        [(enumerate_full, 3, "full"), (enumerate_full, 4, "full"), (enumerate_partial, 3, "partial")],
        ids=["T3", "T4", "P3"],
    )
    def test_every_maximum_clique_against_networkx(self, enum, n, kind):
        nx = pytest.importorskip("networkx")
        S = enum(n)
        G = nx.Graph()
        G.add_nodes_from(S.images)
        G.add_edges_from(
            (a.img, b.img) for a, b in itertools.combinations(S, 2) if a * b == b * a
        )
        cliques = list(nx.find_cliques(G))
        size = max(map(len, cliques))
        r = max_commutative(n, kind)
        assert r.size == size
        assert {frozenset(T.images) for T in r.maximizers} == {
            frozenset(K) for K in cliques if len(K) == size
        }
        assert len(r.maximizers) == len(set(r.maximizers))

    @pytest.mark.parametrize(
        "n, kind, block",
        [(4, "full", _omega_class), (3, "partial", _omega_class), (5, "full", lambda e: [e])],
        ids=["T4", "P3", "E(T5)"],
    )
    def test_pool_order_does_not_matter(self, n, kind, block):
        # each pool's floor is the best size so far, which ties still reach
        pools = list(_class_pools(n, kind, block))
        assert len(pools) > 2

        def search(pools):
            return _search(pools, "a test", _tag_commutative, lambda T, _: True)

        want = search(pools)
        rng = random.Random(7)
        for _ in range(6):
            rng.shuffle(pools)
            assert search(pools) == want

    def test_pools_cover_one_class_each(self):
        # keys: the representative of each class of non-central idempotents, then the identity
        pools = list(_class_pools(5, "full", _omega_class))
        keys = [f.img for f, _, _ in pools]
        identity = Transformation.identity(5).img
        assert keys[-1] == identity
        assert sorted(keys[:-1]) == sorted(set(_class_reps(5, "full")) - {identity})
        assert len(pools[-1][1]) == 120  # the permutations, whose ω-power is the identity

    @pytest.mark.parametrize(
        "enum, kind, n",
        [*ORBIT_DEGREES, (enumerate_full, "full", 5), (enumerate_partial, "partial", 4)],
        ids=["T4", "P3", "T5", "P4"],
    )
    def test_omega_layout_is_every_map_once_one_span_per_class(self, monkeypatch, enum, kind, n):
        order = layout(monkeypatch, n, kind, _omega_class)
        S = enum(n)
        assert sorted(order) == list(S.images)
        representative = representative_of(n, kind)
        cls = S.element_class
        labels = [representative[omega_power(_raw(cls, a)).img] for a in order]
        assert [r for r, _ in itertools.groupby(labels)] == _class_reps(n, kind)

    @pytest.mark.parametrize(
        "enum, kind, top", [(enumerate_full, "full", 6), (enumerate_partial, "partial", 5)]
    )
    def test_idempotent_layout_is_every_idempotent_once(self, monkeypatch, enum, kind, top):
        for n in range(1, top + 1):
            order = layout(monkeypatch, n, kind, lambda e: [e])
            assert sorted(order) == _idempotent_images(enum(n).images, n)

    def test_idempotent_layout_sizes(self, monkeypatch):
        # Σ_k C(n,k)·k^(n−k) idempotents in T_n, and Σ_k C(n,k)·(k+1)^(n−k) in P_n
        def sizes(kind, top):
            return [len(layout(monkeypatch, n, kind, lambda e: [e])) for n in range(1, top + 1)]

        assert sizes("full", 7) == [1, 3, 10, 41, 196, 1057, 6322]
        assert sizes("partial", 6) == [2, 6, 23, 104, 537, 3100]


class TestPclique:
    @pytest.mark.parametrize(
        "enum, kind, degrees",
        [(enumerate_full, "full", range(2, 6)), (enumerate_partial, "partial", range(2, 5))],
    )
    def test_witness_is_the_clique_search_witness(self, enum, kind, degrees):
        # the least maximizer minus the center, in canonical order, is the
        # clique that one search of the whole commuting graph finds first
        for n in degrees:
            S = enum(n)
            old = max_clique(build(S))
            size, (witness,), _ = CLAIMS["pclique"].compute(n, kind)
            assert size == old.size
            assert witness == SemigroupSet([S.elements[i] for i in old.witness])

    def test_center_is_sought_in_the_first_maximizer_only(self, monkeypatch):
        # the center lies in every maximizer, so no other map is tested
        tested = []
        routine = oracle._commute_with_all

        def spy(candidates, pool):
            candidates = list(candidates)
            tested.append(candidates)
            return routine(candidates, pool)

        monkeypatch.setattr(oracle, "_commute_with_all", spy)
        size, _, _ = CLAIMS["pclique"].compute(5, "full")
        assert size == 15
        assert tested == [list(max_commutative(5, "full").maximizers[0].images)]

    def test_witness_is_the_least_maximizer_minus_the_center(self):
        r = max_commutative(4, "partial")
        size, (witness,), _ = CLAIMS["pclique"].compute(4, "partial")
        center = {PartialTransformation([0, 1, 2, 3]), PartialTransformation.empty(4)}
        assert size == r.size - 2
        assert witness == min(
            (SemigroupSet([a for a in T if a not in center]) for T in r.maximizers),
            key=lambda T: T.images,
        )


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


# Every maximizer of the four clique searches at the cheap degrees, comm-max
# at T6, idem-max at T7 and P6, and the unique-idempotent and null searches at
@pytest.mark.parametrize(
    "key",
    [
        (claim, kind, n)
        for claim in ("comm-max", "idem-max", "unique-idem-max", "null-max")
        for kind, n in (("full", 5), ("partial", 4))
    ],
)
def test_omega_searches_enumerate_nothing(monkeypatch, key):
    # each class is made from one idempotent, so T_n and P_n are never listed
    def refuse(n):
        raise AssertionError(f"enumerated the monoid of degree {n}")

    monkeypatch.setattr(oracle, "enumerate_full", refuse)
    monkeypatch.setattr(oracle, "enumerate_partial", refuse)
    monkeypatch.setattr(oracle, "enumerate_sym", refuse)
    assert test_results.row(*key) == test_results.committed()[key]


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
        for n in range(2, 8):
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
            max_abelian_subgroup(8)


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

    @pytest.mark.parametrize(
        "n, seeds", [(7, 5), (8, 5), (16, 4), (32, 3), (64, 3), (128, 2), (255, 2)]
    )
    def test_same_draws_at_every_draw_width(self, n, seeds):
        # points of 3 to 8 bits; past n = 40 a batch's 25 candidates need
        # more than one block of words, so a top-up reads several blocks
        for seed in range(seeds):
            S = random_commutative_unique_idem(n, seed)
            assert S.elements == object_level_sampler(n, seed).elements, seed

    @pytest.mark.parametrize("words", [1, 2, 3, 7, 64])
    def test_same_draws_whatever_the_block_size(self, monkeypatch, words):
        # with blocks this small, nearly every batch tops up, and blocks end
        # inside candidates and inside runs of rejected words
        monkeypatch.setattr(oracle, "_WORDS", words)
        for seed in range(10):
            n = 2 + seed % 5
            S = random_commutative_unique_idem(n, seed)
            assert S.elements == object_level_sampler(n, seed).elements, seed

    @staticmethod
    def _add_a_stranger(monkeypatch):
        """Make every closure hold one more map, a transposition that fails to
        commute with a generator: no idempotent, so the screen still passes."""
        real = oracle._closure_images

        def closure_and_a_stranger(gens, limit):
            imgs = real(gens, limit)
            n = len(gens[0])
            for i, j in itertools.combinations(range(n), 2):
                t = bytearray(range(n))
                t[i], t[j] = j, i
                t = _raw(Transformation, bytes(t))
                for g in gens:
                    g = _raw(Transformation, g)
                    if product(g, t) != product(t, g):
                        return imgs + [t.img]
            return imgs  # every generator is id, which commutes with all

        monkeypatch.setattr(oracle, "_closure_images", closure_and_a_stranger)

    def test_generator_check_fires(self, monkeypatch):
        self._add_a_stranger(monkeypatch)
        monkeypatch.setattr(oracle, "_all_commute", lambda imgs, tables: True)
        with pytest.raises(RuntimeError, match="closure of commuting generators is not commutative"):
            random_commutative_unique_idem(5, 0)

    def test_pairwise_check_of_a_new_best_fires(self, monkeypatch):
        self._add_a_stranger(monkeypatch)
        monkeypatch.setattr(oracle, "_commutes_with", lambda *args: iter([True]))
        with pytest.raises(RuntimeError, match="closure of commuting generators is not commutative"):
            random_commutative_unique_idem(5, 0)

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


class TestStreamFacts:
    """The facts of CPython's ``random`` that the sampler reads its words by."""

    def test_wide_getrandbits_is_successive_words_least_significant_first(self):
        for seed in range(20):
            for m in (1, 2, 3, 5, 1024):
                wide, narrow = random.Random(seed), random.Random(seed)
                words = [narrow.getrandbits(32) for _ in range(m)]
                assert wide.getrandbits(32 * m) == sum(w << (32 * i) for i, w in enumerate(words))
                assert wide.getrandbits(32) == narrow.getrandbits(32)  # still in step

    @pytest.mark.parametrize("k", range(2, 9))
    def test_narrow_getrandbits_is_the_top_of_a_word(self, k):
        narrow, word = random.Random(k), random.Random(k)
        for _ in range(2000):
            assert narrow.getrandbits(k) == word.getrandbits(32) >> (32 - k)

    def test_randint_1_3_is_the_first_2_bit_draw_below_3(self):
        for seed in range(300):
            rng, bits = random.Random(seed), random.Random(seed)
            r = bits.getrandbits(2)
            while r == 3:
                r = bits.getrandbits(2)
            assert rng.randint(1, 3) == 1 + r, seed
            assert rng.getrandbits(32) == bits.getrandbits(32), seed  # still in step


SEARCHED_DEGREES = [("full", n) for n in range(2, 7)] + [("partial", n) for n in range(2, 6)]


class TestCertificates:
    """Girth and knit past n = 2 by checked certificates, centrality by the generators."""

    @pytest.mark.parametrize("kind, n", SEARCHED_DEGREES)
    def test_agree_with_the_searches(self, kind, n):
        S = enumerate_full(n) if kind == "full" else enumerate_partial(n)
        assert CLAIMS["girth"].compute(n, kind) == (girth(build(S)), (), ())
        assert CLAIMS["knit"].compute(n, kind) == (knit_degree(S, 4), (), ())

    @pytest.mark.parametrize(
        "kind, n", [("full", n) for n in range(1, 7)] + [("partial", n) for n in range(1, 6)]
    )
    def test_generators_find_the_center(self, kind, n):
        S = enumerate_full(n) if kind == "full" else enumerate_partial(n)
        by_generators = _commute_with_all(S.images, _generators(n, kind))
        assert by_generators == _commute_with_all(S.images, S.images)

    def test_neither_enumerates_nor_searches(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("enumerated or searched")

        for name in ("enumerate_full", "enumerate_partial", "build", "girth", "knit_degree"):
            monkeypatch.setattr(oracle, name, refuse)
        for kind in ("full", "partial"):
            for n in (3, 4, 7, 50, 255):
                assert CLAIMS["girth"].compute(n, kind) == (3, (), ())
                assert CLAIMS["knit"].compute(n, kind) == (1, (), ())

    @pytest.mark.parametrize("n", [3, 5, 255])
    def test_a_central_map_fails_the_check(self, n, monkeypatch):
        # each path below passes every other rule: only its central map is wrong
        ident, empty = bytes(range(n)), bytes([n] * n)
        sent_to_0 = [bytes(0 if x == y else x for x in range(n)) for y in (1, 2)]
        undefined_at = [bytes(n if x == y else x for x in range(n)) for y in (0, 1)]
        nilpotent = bytes([1] + [n] * (n - 1))  # 0 ↦ 1, squares to ∅
        for kind, path, left in [
            ("full", [ident, *sent_to_0], False),
            ("partial", [ident, *undefined_at], False),
            ("partial", [empty, *undefined_at], False),
            ("partial", [empty, nilpotent], True),
        ]:
            claim = "knit" if left else "girth"
            with pytest.raises(RuntimeError, match=f"{claim} certificate fails its check"):
                _certify(claim, n, kind, path, left)
            with monkeypatch.context() as m:
                m.setattr(oracle, "_commute_with_all", lambda maps, pool: [False] * len(maps))
                _certify(claim, n, kind, path, left)

    @pytest.mark.parametrize("n", [3, 5, 255])
    def test_each_rule_is_checked(self, n):
        def sends(pairs):  # the map of T_n that sends each x to y for (x, y) in pairs, else fixes x
            return bytes(dict(pairs).get(x, x) for x in range(n))

        e1, e2, e12 = sends({1: 0}), sends({2: 0}), sends({1: 0, 2: 0})
        c0, to_2 = bytes(n), sends({1: 2})  # c0 commutes with e1 and to_2; they do not commute
        _certify("girth", n, "full", [e1, e2, e12], left=False)
        _certify("knit", n, "full", [a.img for a in knit_witness(n)], left=True)
        for path, left in [
            ([e1, e1, e2], False),  # repeats a map
            ([e1, to_2, c0], False),  # its first step does not commute
            ([e1, c0, to_2], False),  # does not close
            ([e1, e2], True),  # e1·e1 = e1 but e2·e1 = e12
        ]:
            with pytest.raises(RuntimeError, match="certificate fails its check"):
                _certify("knit" if left else "girth", n, "full", path, left)

    def test_a_failed_certificate_exits_1_without_a_search(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("fell back to a search")

        for name in ("enumerate_full", "enumerate_partial", "build", "girth", "knit_degree"):
            monkeypatch.setattr(oracle, name, refuse)
        empty_and_nilpotent = (PartialTransformation.empty(5), PartialTransformation([1] + [None] * 4))
        monkeypatch.setattr(oracle, "knit_witness", lambda n: empty_and_nilpotent)
        with pytest.raises(RuntimeError, match="knit certificate fails its check"):
            CLAIMS["knit"].compute(5, "partial")
        assert cli.run(["verify", "--claim", "knit", "--n", "5", "--kind", "partial"]) == 1
        assert "knit certificate fails its check" in capsys.readouterr().err


class TestCaps:
    def test_degree_caps(self):
        with pytest.raises(ValueError):
            max_commutative(7, "full")
        with pytest.raises(ValueError):
            max_commutative(6, "partial")
        with pytest.raises(ValueError):
            max_commutative_idempotent(9, "full")
        with pytest.raises(ValueError):
            max_commutative_idempotent(8, "partial")
        with pytest.raises(ValueError, match="capped"):
            CLAIMS["pclique"].compute(6, "partial")
        with pytest.raises(ValueError):
            max_unique_idempotent(8, "full")
        with pytest.raises(ValueError):
            max_unique_idempotent(7, "partial")
        with pytest.raises(ValueError):
            max_null(8, "full")
        with pytest.raises(ValueError):
            max_null(7, "partial")
        with pytest.raises(ValueError, match="capped"):
            CLAIMS["girth"].compute(256, "full")
        with pytest.raises(ValueError, match="capped"):
            CLAIMS["knit"].compute(256, "partial")

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
