"""Tests for commuting graphs, clique search, girth, and left paths."""

import gc
import hashlib
import math
import random
import struct
from collections import Counter

import pytest

from commsemi import cli, oracle
from commsemi.extremal import e_ix, gamma, knit_witness
from commsemi.graphs import (
    CommGraph,
    RowReader,
    _bits_to_list,
    _color_bits,
    _color_sort,
    _degeneracy_order,
    build,
    commuting_rows,
    girth,
    graph_to_dot,
    knit_degree,
    max_clique,
    max_clique_bits,
    shortest_left_path,
    write_adjacency,
)
from commsemi.oracle import CLAIMS, max_abelian_subgroup, max_commutative, max_null
from commsemi.serialization import semigroup_digest, write_semigroup_file
from commsemi.semigroups import (
    ClosureLimitExceeded,
    SemigroupSet,
    center,
    closure,
    enumerate_full,
    enumerate_partial,
    enumerate_sym,
    idempotents,
)
from commsemi.transform import (
    PartialTransformation,
    Transformation,
    omega_power,
    product,
)
from commsemi.trees import SemiTree, _relabel


def graph_of(n, edges):
    """A bare CommGraph over n synthetic vertices (source is a dummy)."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return CommGraph(enumerate_full(2), tuple(range(n)), adj, ())


def random_graph(rng, n, p):
    """A seeded G(n, p) bitset adjacency list."""
    return graph_of(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    ).adj


def cycle_edges(n):
    return [(i, (i + 1) % n) for i in range(n)]


def girth_cases(rng):
    """Seeded sparse graphs of girth 3–9 and ∞, vertices shuffled.

    C4–C9, K3,3, the Petersen graph, and random trees with and without one
    chord.
    """
    shapes = [(n, cycle_edges(n)) for n in range(4, 10)]
    shapes.append((6, [(u, v) for u in range(3) for v in range(3, 6)]))
    petersen = cycle_edges(5) + [(i, i + 5) for i in range(5)]
    shapes.append((10, petersen + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]))
    for _ in range(10):
        n = rng.randint(3, 16)
        tree = [(v, rng.randrange(v)) for v in range(1, n)]
        shapes.append((n, tree))
        while True:
            u, v = rng.sample(range(n), 2)
            if (u, v) not in tree and (v, u) not in tree:
                break
        shapes.append((n, tree + [(u, v)]))
    for n, edges in shapes:
        perm = list(range(n))
        rng.shuffle(perm)
        yield graph_of(n, [(perm[u], perm[v]) for u, v in edges]).adj


def reference_girth(adj):
    """Girth by definition: min over edges uv of 1 + dist(u, v) in G − uv."""
    n = len(adj)
    best = math.inf
    for u in range(n):
        for v in range(u + 1, n):
            if not adj[u] >> v & 1:
                continue
            dist = {u: 0}
            frontier = [u]
            while frontier and v not in dist:
                nxt = []
                for x in frontier:
                    for y in range(n):
                        if adj[x] >> y & 1 and {x, y} != {u, v} and y not in dist:
                            dist[y] = dist[x] + 1
                            nxt.append(y)
                frontier = nxt
            if v in dist:
                best = min(best, 1 + dist[v])
    return best


def pair_rows(items):
    """The commuting relation by its definition: ab = ba, pair by pair."""
    rows = [0] * len(items)
    for i, a in enumerate(items):
        for j in range(i + 1, len(items)):
            b = items[j]
            if product(a, b) == product(b, a):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def strip_order(adj, n):
    """Degeneracy order by definition: strip the least (degree, index) vertex."""
    alive = (1 << n) - 1
    order = []
    while alive:
        live = [u for u in range(n) if alive >> u & 1]
        v = min(live, key=lambda u: ((adj[u] & alive).bit_count(), u))
        order.append(v)
        alive ^= 1 << v
    return order


def strict_max_clique(adj):
    """Reference: the same branch-and-bound cut at ``<=``, with one witness.

    It cuts every branch that can at best tie the incumbent and keeps the
    first largest clique it meets, so its witness is the first maximum
    clique in search order.  Returns ``(size, witness, nodes)``.
    """
    n = len(adj)
    if n == 0:
        return 0, [], 0
    best = []

    def expand(P_bits, P_list, R):
        nodes = 1
        order, bounds = _color_sort(P_list, adj)
        for idx in range(len(order) - 1, -1, -1):
            if len(R) + bounds[idx] <= len(best):
                break
            v = order[idx]
            new_bits = P_bits & adj[v]
            if new_bits:
                nodes += expand(new_bits, _bits_to_list(new_bits), R + [v])
            elif len(R) + 1 > len(best):
                best[:] = R + [v]
            P_bits &= ~(1 << v)
        return nodes

    nodes = expand((1 << n) - 1, list(reversed(_degeneracy_order(adj, n))), [])
    return len(best), sorted(best), nodes


def unpruned_max_cliques(adj, target):
    """Every ``target``-clique in lexicographic order, with no universal-vertex skip."""
    out = []

    def rec(P_bits, R):
        if len(R) == target:
            out.append(tuple(R))
            return
        need = target - len(R)
        if P_bits.bit_count() < need:
            return
        P_list = _bits_to_list(P_bits)
        _, bounds = _color_sort(P_list, adj)
        if bounds and bounds[-1] < need:
            return
        for v in P_list:
            P_bits ^= 1 << v
            rec(P_bits & adj[v], R + [v])

    if target == 0:
        return [()] if not adj else []
    rec((1 << len(adj)) - 1, [])
    return out


def assert_matches_references(adj):
    """One witness as the strict search finds it, and every maximum clique on request.

    Without ``ties`` the search keeps the strict search's witness and visits
    no more nodes; with ``ties`` its first clique is that witness and it
    lists every maximum clique.
    """
    size, witness, nodes = strict_max_clique(adj)
    assert max_clique_bits(adj)[:2] == (size, [witness])
    assert max_clique_bits(adj)[2] <= nodes
    got, cliques, _ = max_clique_bits(adj, ties=True)
    assert (got, cliques[0]) == (size, witness)
    assert all(clique == sorted(clique) for clique in cliques)
    assert sorted(map(tuple, cliques)) == unpruned_max_cliques(adj, size)


def cocktail_party_semigroup(k):
    """A closed set of 3k + 1 partial maps whose commuting graph has 2^k maximum cliques.

    On the points p_i, q_i, r_i = 3i, 3i + 1, 3i + 2 it holds a_i: p_i -> q_i,
    b_i: q_i -> r_i, c_i: p_i -> r_i and the empty map.  Every product is
    empty but a_i b_i = c_i, so the non-central elements are the a_i and
    b_i, and only a_i and b_i fail to commute: the cocktail-party graph,
    whose maximum cliques take one of a_i, b_i for each i.
    """
    n = 3 * k
    maps = [PartialTransformation([None] * n)]
    for i in range(k):
        for src, dst in ((3 * i, 3 * i + 1), (3 * i + 1, 3 * i + 2), (3 * i, 3 * i + 2)):
            img = [None] * n
            img[src] = dst
            maps.append(PartialTransformation(img))
    return SemigroupSet(maps)


def with_universal_vertices(rng, adj):
    """adj with up to three random vertices joined to every other vertex."""
    n = len(adj)
    for u in rng.sample(range(n), rng.randint(0, min(3, n))):
        adj[u] = ((1 << n) - 1) ^ (1 << u)
        for w in range(n):
            if w != u:
                adj[w] |= 1 << u
    return adj


def naive_max_cliques(adj):
    """All maximum cliques by checking every vertex subset."""
    n = len(adj)
    best, out = 0, []
    for mask in range(1, 1 << n):
        ok = True
        m = mask
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            if adj[v] & mask != mask ^ low:
                ok = False
                break
        if ok:
            size = mask.bit_count()
            if size > best:
                best, out = size, [mask]
            elif size == best:
                out.append(mask)
    cliques = set()
    for mask in out:
        members = []
        while mask:
            low = mask & -mask
            mask ^= low
            members.append(low.bit_length() - 1)
        cliques.add(tuple(members))
    return best, cliques


class TestBuild:
    def test_full_degree_2(self):
        g = build(enumerate_full(2))
        assert g.vertex_count == 3
        assert g.edge_count == 0
        # the identity sits at global index 1 and is the whole center
        assert g.center_indices == (1,)
        assert g.source.elements[1] == Transformation.identity(2)
        assert g.vertices == (0, 2, 3)

    def test_partial_degree_2(self):
        g = build(enumerate_partial(2))
        assert g.vertex_count == 7
        assert g.edge_count == 1
        centre = {g.source.elements[i] for i in g.center_indices}
        assert centre == {
            PartialTransformation.empty(2),
            PartialTransformation.identity(2),
        }
        # the unique edge joins the two one-point partial identities
        u, w = [v for v in range(7) if g.adj[v]]
        assert g.adj[u] == 1 << w
        assert {g.element(u), g.element(w)} == {
            PartialTransformation([0, None]),
            PartialTransformation([None, 1]),
        }

    def test_full_degree_3(self):
        g = build(enumerate_full(3))
        assert g.vertex_count == 26
        assert max_clique(g).size == 3

    def test_rejects_commutative(self):
        with pytest.raises(ValueError):
            build(gamma(3, 0))

    def test_rejects_non_closed(self):
        with pytest.raises(ValueError):
            build(SemigroupSet([Transformation([1, 2, 0])]))

    def test_commuting_rows_symmetry(self):
        S = enumerate_full(3)
        rows = commuting_rows(S.elements)
        for i in range(len(S)):
            assert not rows[i] >> i & 1
            for j in range(len(S)):
                assert rows[i] >> j & 1 == rows[j] >> i & 1


def rows_digest(pools):
    """SHA-256 over the rows of each pool in turn, each row ⌈|pool|/8⌉ bytes little-endian."""
    digest = hashlib.sha256()
    for pool in pools:
        width = (len(pool) + 7) // 8
        for row in commuting_rows(pool):
            digest.update(row.to_bytes(width, "little"))
    return digest.hexdigest()


def omega_classes(S):
    """The members of S grouped by ω-power, classes and members in S's order."""
    classes = {}
    for a in S:
        classes.setdefault(omega_power(a), []).append(a)
    return list(classes.values())


class TestCommutingRows:
    """The bit-sliced builder against the pair-by-pair definition."""

    @pytest.mark.parametrize(
        "pools, digest",
        [
            (
                lambda: [enumerate_full(5).elements],
                "5f0f08192a815274dd231c67501eb0f65995008ef2e0528ef7c8375dcd8c59da",
            ),
            (
                lambda: [enumerate_partial(4).elements],
                "b37dcab9a72ad9895ad3f7796488f425d627aab7e2911c78fc38def70179e2ff",
            ),
            (
                lambda: [idempotents(enumerate_full(6))],
                "a3093050c19501ad69493a7394cb4c2c08e27e31186c390b0207e316313fa2cf",
            ),
            (
                lambda: [[a for a in enumerate_sym(6) if a != Transformation.identity(6)]],
                "cc6baf20903296a414f59451bf098dfd2d30eb556323dfaea0f12a677cd5118e",
            ),
            (
                lambda: omega_classes(enumerate_full(5)),
                "e703b7629490b17778975ca1f5f65ed5040c5cc6075c315440395a51007378f3",
            ),
        ],
        ids=["T5", "P4", "T6-idempotents", "Sym6-id", "T5-omega-classes"],
    )
    def test_rows_pinned_bit_for_bit(self, pools, digest):
        # recorded from the image-trie walk this builder replaced
        assert rows_digest(pools()) == digest

    def test_whole_monoids(self):
        for S in (enumerate_full(3), enumerate_full(4), enumerate_partial(3), enumerate_partial(4)):
            assert commuting_rows(S.elements) == pair_rows(S.elements)

    def test_idempotents_and_omega_classes(self):
        pool = list(idempotents(enumerate_full(5)))
        assert commuting_rows(pool) == pair_rows(pool)
        classes = omega_classes(enumerate_full(4))
        assert len(classes) == 41
        for cls in classes:
            assert commuting_rows(cls) == pair_rows(cls)

    def test_symmetric_group_without_identity(self):
        pool = enumerate_sym(5).elements[1:]
        assert Transformation.identity(5) not in pool
        assert commuting_rows(pool) == pair_rows(pool)

    def test_shuffled_order(self):
        rng = random.Random(11)
        for S in (enumerate_full(4), enumerate_partial(3)):
            pool = list(S.elements)
            rng.shuffle(pool)
            assert commuting_rows(pool) == pair_rows(pool)

    def test_random_pools(self):
        rng = random.Random(3)
        for n in (7, 8, 9):
            for cls, values in (
                (Transformation, list(range(n))),
                (PartialTransformation, [*range(n), None]),
            ):
                pool = []
                for _ in range(12):
                    a = cls(rng.choice(values) for _ in range(n))
                    # a's powers and ω-power commute with it; repeats are kept
                    pool += [a, a * a, a * a * a, omega_power(a)]
                rows = commuting_rows(pool)
                assert rows == pair_rows(pool)
                assert sum(row.bit_count() for row in rows) > 3 * len(pool)

    def test_sparse_partial_maps_of_degree_255(self):
        # 170 maps, each defined at one of 255 points
        S = cocktail_party_semigroup(85)
        pool = [S.elements[i] for i in build(S).vertices]
        assert len(pool) == 170 and pool[0].degree == 255
        assert commuting_rows(pool) == pair_rows(pool)

    def test_empty_and_single(self):
        assert commuting_rows([]) == []
        assert commuting_rows([Transformation([1, 0])]) == [0]
        assert commuting_rows([PartialTransformation([None, 0])]) == [0]

    def test_mixed_kind_or_degree_raises(self):
        full, partial = Transformation([1, 0]), PartialTransformation([1, 0])
        with pytest.raises(TypeError, match="kinds must match"):
            commuting_rows([full, full, partial])
        with pytest.raises(TypeError, match="kinds must match"):
            commuting_rows([partial, full])
        with pytest.raises(ValueError, match="degree mismatch: 2 vs 3"):
            commuting_rows([full, Transformation([0, 1, 2])])
        with pytest.raises(TypeError, match="cannot multiply tuple by tuple"):
            commuting_rows([(1, 0), full])


class TestDegeneracyOrder:
    def test_random_graphs(self):
        rng = random.Random(8)
        assert _degeneracy_order([], 0) == []
        for n in (1, 2, 5, 9):
            assert _degeneracy_order([0] * n, n) == list(range(n))
            complete = graph_of(n, [(u, v) for u in range(n) for v in range(u + 1, n)]).adj
            assert _degeneracy_order(complete, n) == list(range(n))
        for _ in range(40):
            n = rng.randint(1, 30)
            adj = random_graph(rng, n, rng.choice([0.1, 0.3, 0.6, 0.9]))
            assert _degeneracy_order(adj, n) == strip_order(adj, n)

    def test_commuting_graphs(self):
        for S in (enumerate_full(4), enumerate_partial(3)):
            adj = build(S).adj
            assert _degeneracy_order(adj, len(adj)) == strip_order(adj, len(adj))

    def test_degrees_over_many_planes(self):
        # maximum degrees from 19 to 147 need 5 to 8 planes of counters, so
        # removals carry across several powers of two
        rng = random.Random(21)
        planes = set()
        for n in (40, 70, 100, 150):
            for p in (0.3, 0.6, 0.95):
                adj = random_graph(rng, n, p)
                planes.add(max(row.bit_count() for row in adj).bit_length())
                assert _degeneracy_order(adj, n) == strip_order(adj, n)
        assert planes == {5, 6, 7, 8}

    def test_stars(self):
        # K_{1,m} for m around a power of two: stripping the leaves counts
        # the hub's degree down across that power, carrying over every plane
        for j in range(1, 7):
            for m in (2**j - 1, 2**j, 2**j + 1):
                for hub in (0, m // 2, m):
                    adj = graph_of(m + 1, [(hub, u) for u in range(m + 1) if u != hub]).adj
                    order = _degeneracy_order(adj, m + 1)
                    assert order == strip_order(adj, m + 1)

    def test_isolated_vertices(self):
        rng = random.Random(34)
        for _ in range(30):
            n = rng.randint(2, 60)
            adj = random_graph(rng, n, rng.choice([0.2, 0.5, 0.9]))
            for u in rng.sample(range(n), rng.randint(1, n)):
                for w in _bits_to_list(adj[u]):
                    adj[w] &= ~(1 << u)
                adj[u] = 0
            assert _degeneracy_order(adj, n) == strip_order(adj, n)


    def test_full_4_witness_is_pinned(self):
        r = max_clique(build(enumerate_full(4)))
        assert (r.size, r.witness) == (7, (0, 3, 8, 11, 16, 19, 24))


def peeled_bits(bits):
    """The set-bit indices, ascending, by peeling the lowest bit at a time."""
    out = []
    while bits:
        low = bits & -bits
        bits ^= low
        out.append(low.bit_length() - 1)
    return out


class TestBitsToList:
    """The digit scan lists what peeling one low bit at a time lists."""

    def test_zero_and_single_bits(self):
        assert _bits_to_list(0) == peeled_bits(0) == []
        for i in (0, 1, 7, 63, 64, 1000, (1 << 20) + 3):
            assert _bits_to_list(1 << i) == peeled_bits(1 << i) == [i]

    def test_random_ints(self):
        rng = random.Random(29)
        for _ in range(300):
            bits = rng.getrandbits(rng.randint(1, 3000))
            if rng.random() < 0.5:
                bits &= rng.getrandbits(bits.bit_length() + 1)  # sparser
            assert _bits_to_list(bits) == peeled_bits(bits)

    def test_wider_than_two_to_the_twenty(self):
        rng = random.Random(31)
        width = (1 << 20) + 77
        sparse = rng.sample(range(width), 300)
        bits = sum(1 << i for i in sparse) | 1 << (width - 1)
        assert _bits_to_list(bits) == peeled_bits(bits) == sorted({*sparse, width - 1})
        # dense: one peel per set bit would copy the whole int each time
        dense = bytes(rng.getrandbits(8) for _ in range(width // 8))
        bits = int.from_bytes(dense, "little")
        assert _bits_to_list(bits) == [
            8 * k + j for k, byte in enumerate(dense) for j in range(8) if byte >> j & 1
        ]


class TestColorBits:
    """The class-at-a-time coloring is the greedy coloring of an ascending list."""

    def test_random_graphs(self):
        rng = random.Random(13)
        assert _color_bits(0, []) == ([], [])
        for _ in range(200):
            n = rng.randint(1, 80)
            adj = random_graph(rng, n, rng.choice([0.1, 0.3, 0.5, 0.7, 0.95]))
            P = rng.getrandbits(n)
            assert _color_bits(P, adj) == _color_sort(_bits_to_list(P), adj)

    def test_subsets_of_commuting_rows(self):
        rng = random.Random(17)
        for S in (enumerate_full(4), enumerate_partial(3)):
            adj = commuting_rows(S.elements)
            n = len(adj)
            for _ in range(40):
                P = rng.getrandbits(n)
                if rng.random() < 0.5:
                    P &= rng.getrandbits(n)  # sparser
                assert _color_bits(P, adj) == _color_sort(_bits_to_list(P), adj)
            # a vertex's neighbourhood, as the search colors it below the root
            for v in rng.sample(range(n), 20):
                assert _color_bits(adj[v], adj) == _color_sort(_bits_to_list(adj[v]), adj)


class TestSearchTrajectory:
    """The search tree on the graphs the oracle and the benchmark search.

    Node counts and witnesses move whenever the root order, the colorings
    or the cuts change, even when the clique number does not.
    """

    @pytest.mark.parametrize(
        "S, vertices, size, nodes, ties, tie_nodes",
        [
            (lambda: enumerate_full(5), 3124, 15, 29, 5, 110),
            (lambda: enumerate_partial(4), 623, 14, 15, 1, 17),
        ],
        ids=["T5-Z", "P4-Z"],
    )
    def test_nodes_and_witness(self, S, vertices, size, nodes, ties, tie_nodes):
        adj = build(S()).adj
        assert len(adj) == vertices
        one = max_clique_bits(adj)
        every = max_clique_bits(adj, ties=True)
        assert (one[0], len(one[1]), one[2]) == (size, 1, nodes)
        assert (every[0], len(every[1]), every[2]) == (size, ties, tie_nodes)
        assert every[1][0] == one[1][0]

    @pytest.mark.parametrize(
        "n, size, digest",
        [
            (6, 9, "2074369ba7b950b775111eafa38ff6497c484da09b0650742653e440c431c1ec"),
            (7, 12, "1b1e607a22f79ebd99501ab46d6853140d71ed84d9d5f497077ce1cb3e8d32fd"),
        ],
    )
    def test_abelian_witness_is_pinned(self, n, size, digest):
        r = max_abelian_subgroup(n)
        digests = "\n".join(semigroup_digest(T) for T in r.maximizers)
        assert r.size == size
        assert hashlib.sha256(digests.encode("utf-8")).hexdigest() == digest


class TestNetworkxCrossCheck:
    """Clique numbers and girths against networkx, where it is installed."""

    @staticmethod
    def cases():
        rng = random.Random(21)
        for S in (enumerate_full(3), enumerate_full(4), enumerate_partial(3)):
            yield build(S).adj
        for _ in range(20):
            yield random_graph(rng, rng.randint(0, 25), rng.choice([0.08, 0.2, 0.5]))
        yield from girth_cases(random.Random(22))

    @staticmethod
    def to_networkx(nx, adj):
        G = nx.Graph()
        G.add_nodes_from(range(len(adj)))
        for u, row in enumerate(adj):
            G.add_edges_from((u, w) for w in range(u + 1, len(adj)) if row >> w & 1)
        return G

    def test_clique_number(self):
        nx = pytest.importorskip("networkx")
        for adj in self.cases():
            _, size = nx.max_weight_clique(self.to_networkx(nx, adj), weight=None)
            assert max_clique_bits(adj)[0] == size

    def test_girth(self):
        nx = pytest.importorskip("networkx")
        for adj in self.cases():
            g = CommGraph(enumerate_full(2), tuple(range(len(adj))), adj, ())
            assert girth(g) == nx.girth(self.to_networkx(nx, adj))


class TestCliqueSearch:
    def test_against_subset_enumeration(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(1, 13)
            p = rng.choice([0.15, 0.4, 0.7])
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < p
            ]
            adj = graph_of(n, edges).adj
            best, want = naive_max_cliques(adj)
            size, cliques, nodes = max_clique_bits(adj, ties=True)
            assert size == best
            assert nodes >= 1
            assert len(cliques) == len(want)
            assert set(map(tuple, cliques)) == want

    @pytest.mark.parametrize(
        "rows",
        [
            lambda: commuting_rows(enumerate_full(4).elements),
            lambda: commuting_rows(enumerate_partial(3).elements),
            lambda: commuting_rows(enumerate_partial(4).elements),
            lambda: commuting_rows(enumerate_full(5).elements),
            lambda: build(enumerate_full(5)).adj,
            lambda: build(enumerate_partial(4)).adj,
            lambda: build(enumerate_sym(6)).adj,
        ],
        ids=["T4", "P3", "P4", "T5", "T5-Z", "P4-Z", "Sym6-id"],
    )
    def test_universal_vertex_skip_keeps_output_and_order(self, rows):
        # whole semigroups: the center (the identity, the empty map) is
        # universal; a graph without its center (∖Z, Sym6 ∖ {id}) has ties
        # that the search must walk and the strict search cuts
        assert_matches_references(rows())

    def test_universal_vertex_skip_on_random_graphs(self):
        rng = random.Random(11)
        for _ in range(1000):
            n = rng.randint(1, 14)
            adj = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
            assert_matches_references(with_universal_vertices(rng, adj))

    def test_floor(self):
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randint(1, 14)
            adj = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
            size, cliques, _ = max_clique_bits(adj, ties=True)
            # a floor at the clique number keeps every maximum clique
            assert max_clique_bits(adj, size, ties=True)[:2] == (size, cliques)
            # without ties, no clique beats that floor
            assert max_clique_bits(adj, size)[:2] == (size, [])
            # a floor above it cuts them all and is returned as the size
            for ties in (False, True):
                assert max_clique_bits(adj, size + 1, ties)[:2] == (size + 1, [])

    def test_empty_graph(self):
        for ties in (False, True):
            assert max_clique_bits([], 0, ties) == (0, [[]], 0)
            assert max_clique_bits([], 1, ties) == (1, [], 0)

    def test_edgeless_graph(self):
        assert max_clique_bits([0, 0, 0]) == (1, [[0]], 1)
        size, cliques, _ = max_clique_bits([0, 0, 0], ties=True)
        assert size == 1
        assert sorted(cliques) == [[0], [1], [2]]

    def test_one_witness_among_exponentially_many_ties(self):
        # 2^40 maximum cliques: listing them would never end, and one
        # witness is cut out of the colour bound in a few nodes per level
        k = 40
        S = cocktail_party_semigroup(k)
        assert S.is_closed() and not S.is_commutative()
        g = build(S)
        assert g.vertex_count == 2 * k
        res = max_clique(g)
        assert res.size == k
        assert res.nodes_explored <= 2 * k
        chosen = [S.elements[i] for i in res.witness]
        assert all(product(a, b) == product(b, a) for a in chosen for b in chosen)
        # the listing itself, at a size it can finish: 2^4 ties
        assert len(max_clique_bits(build(cocktail_party_semigroup(4)).adj, ties=True)[1]) == 16

    def test_clique_command_on_a_file_with_2_to_the_40_ties(self, capsys, tmp_path):
        # 121 elements: far below the file commands' element cap
        path = tmp_path / "cocktail.json"
        write_semigroup_file(cocktail_party_semigroup(40), str(path))
        assert cli.run(["graph", str(path), "--clique"]) == 0
        out = capsys.readouterr().out
        assert "vertices: 80" in out
        assert "clique number: 40" in out

    def test_clique_command_on_a_file_of_degree_255(self, capsys, tmp_path):
        # 256 maps, each defined at one point: the sparsest rows at the top degree
        path = tmp_path / "cocktail-85.json"
        write_semigroup_file(cocktail_party_semigroup(85), str(path))
        assert cli.run(["graph", str(path), "--clique"]) == 0
        out = capsys.readouterr().out
        assert "vertices: 170" in out
        assert "clique number: 85" in out

    def test_gamma_cliques_present_in_full_3(self):
        S = enumerate_full(3)
        g = build(S)
        local = {v: l for l, v in enumerate(g.vertices)}
        ident = Transformation.identity(3)
        size, found, _ = max_clique_bits(g.adj, ties=True)
        assert size == 3
        for x in range(3):
            want = sorted(local[S.elements.index(a)] for a in gamma(3, x) if a != ident)
            assert want in found
        for clique in found:
            for i, u in enumerate(clique):
                for w in clique[i + 1 :]:
                    assert g.adj[u] >> w & 1


class TestMaxCommSubsemigroup:
    """Maximum cliques of the commuting graph plus the centre, as searched by
    ``oracle.max_commutative``, are the paper's extremal subsemigroups."""

    def test_full_3_is_a_gamma(self):
        r = max_commutative(3, "full")
        assert r.size == 4
        for T in r.maximizers:
            assert len(T) == 4
            assert T.is_closed() and T.is_commutative()
            assert any(T.elements == gamma(3, x).elements for x in range(3))

    def test_full_4_is_a_gamma(self):
        r = max_commutative(4, "full")
        assert r.size == 8
        for T in r.maximizers:
            assert len(T) == 8
            assert any(T.elements == gamma(4, x).elements for x in range(4))

    def test_partial_3_is_the_partial_identities(self):
        r = max_commutative(3, "partial")
        assert r.size == 8
        (T,) = r.maximizers
        assert len(T) == 8
        assert T.elements == e_ix(3).elements


class TestGirth:
    def test_synthetic_graphs(self):
        five_cycle = [(i, (i + 1) % 5) for i in range(5)]
        assert girth(graph_of(5, five_cycle)) == 5
        six_cycle = [(i, (i + 1) % 6) for i in range(6)]
        assert girth(graph_of(6, six_cycle)) == 6
        assert girth(graph_of(6, six_cycle + [(0, 3)])) == 4
        path = [(0, 1), (1, 2), (2, 3)]
        assert girth(graph_of(4, path)) == math.inf
        k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        assert girth(graph_of(4, k4)) == 3
        assert girth(graph_of(3, [])) == math.inf

    def test_sparse_graphs_against_the_definition(self):
        seen = set()
        for adj in girth_cases(random.Random(22)):
            want = reference_girth(adj)
            assert girth(CommGraph(enumerate_full(2), tuple(range(len(adj))), adj, ())) == want
            seen.add(want)
        assert seen == {3, 4, 5, 6, 7, 8, 9, math.inf}

    def test_transformation_graphs(self):
        assert girth(build(enumerate_full(2))) == math.inf
        assert girth(build(enumerate_partial(2))) == math.inf
        assert girth(build(enumerate_full(3))) == 3
        assert girth(build(enumerate_full(4))) == 3
        assert girth(build(enumerate_partial(3))) == 3

    @pytest.mark.parametrize(
        "kind, n", [("full", n) for n in range(2, 7)] + [("partial", n) for n in range(2, 6)]
    )
    def test_rows_on_demand_against_every_row(self, kind, n):
        S = enumerate_full(n) if kind == "full" else enumerate_partial(n)
        central = set(center(S))
        verts = [a for a in S if a not in central]
        g = build(S)
        assert [S.elements[i] for i in g.vertices] == verts
        every = CommGraph(S, g.vertices, commuting_rows(verts), g.center_indices)
        assert girth(g) == girth(every) == (math.inf if S.degree == 2 else 3)

    @pytest.mark.parametrize("kind, n", [("full", 5), ("full", 6), ("partial", 4), ("partial", 5)])
    def test_girth_makes_at_most_three_rows(self, kind, n, monkeypatch):
        S = enumerate_full(n) if kind == "full" else enumerate_partial(n)
        made = count_rows_made(monkeypatch)
        g = build(S)
        assert made == []  # build makes no row
        assert girth(g) == 3
        assert 1 <= len(made) <= 3


# pclique's size and its witness's digest at every accepted degree
PCLIQUE_WITNESSES = [
    ("full", 2, 1, "70bf3322eec6f3ee3803295f299f80ccc6ccad71ceee4dded325fd11fc12ff71"),
    ("full", 3, 3, "5f76d537226e992bdd8e9f6380a0d648533ba316e37befe2ffac90da52acedc5"),
    ("full", 4, 7, "168e11e837fb72c9b843575c95ba6f6dc9b56af761b63af7bda267407dd6003d"),
    ("full", 5, 15, "a53fe868ce3bb5cd0a3a03d7a6cca761502f1beb3bd11a6f0803b2e4854111bf"),
    ("full", 6, 31, "f678b95fdb4c9de5c93e184facaeb883d8bfaccd42c195ce5fb876c999ca5c76"),
    ("partial", 2, 2, "7bf09bb888dc27f371206ef4e52c2c2ec35782779a962e084dab80cca333ba1e"),
    ("partial", 3, 6, "b4bac5a1650529c5be1bc82f14002fe28135186aa4977965f28a267cc18b5fc0"),
    ("partial", 4, 14, "48ac2e166f248f4f9d51998fec1310b3879b62d07c4611a18948558a012b9bd3"),
    ("partial", 5, 30, "30e62d5c73578f7fafda810ae4618c81d003c100141c289ee52b7284dbb5b35d"),
]


@pytest.mark.parametrize(
    "kind, n, size, digest",
    PCLIQUE_WITNESSES,
    ids=[f"{'T' if kind == 'full' else 'P'}{n}" for kind, n, _, _ in PCLIQUE_WITNESSES],
)
def test_centrality_results_at_every_accepted_degree(kind, n, size, digest):
    # center, build, knit and pclique all decide centrality by one routine
    S = enumerate_full(n) if kind == "full" else enumerate_partial(n)
    cls = S.element_class
    want = [cls.identity(n)] + ([cls.empty(n)] if kind == "partial" else [])
    assert list(center(S)) == want
    g = build(S)
    assert [S.elements[i] for i in g.center_indices] == want
    assert len(g.vertices) == len(S) - len(want)
    path = shortest_left_path(S)
    assert path == (None if n == 2 else [cls([0] * n), cls([0] * (n - 1) + [1])])
    clique, (witness,) = CLAIMS["pclique"].compute(n, kind)
    assert (clique, semigroup_digest(witness)) == (size, digest)


@pytest.mark.parametrize(
    "kind, n, size, digest",
    PCLIQUE_WITNESSES,
    ids=[f"{'T' if kind == 'full' else 'P'}{n}" for kind, n, _, _ in PCLIQUE_WITNESSES],
)
def test_pclique_enumerates_nothing(monkeypatch, kind, n, size, digest):
    # its center is found by the generators of T_n or P_n, not by listing them
    def refuse(n):
        raise AssertionError(f"enumerated the monoid of degree {n}")

    monkeypatch.setattr(oracle, "enumerate_full", refuse)
    monkeypatch.setattr(oracle, "enumerate_partial", refuse)
    clique, (witness,) = CLAIMS["pclique"].compute(n, kind)
    assert (clique, semigroup_digest(witness)) == (size, digest)


def count_rows_made(monkeypatch):
    """The pool indices of every row a RowReader makes from now on, in order."""
    made = []
    make = RowReader._row

    def counted(self, i):
        made.append(i)
        return make(self, i)

    monkeypatch.setattr(RowReader, "_row", counted)
    return made


class TestRowReader:
    def test_each_row_is_made_once(self, monkeypatch):
        made = count_rows_made(monkeypatch)
        S = enumerate_full(4)
        g = build(S)
        rows = g.rows
        assert len(rows) == 255 and made == []
        assert rows[7] == rows[7] == rows[-248]
        assert made == [7]
        assert girth(g) == girth(g) == 3
        first = list(made)
        assert girth(g) == 3 and made == first
        adj = g.adj
        assert type(adj) is list and adj is g.adj
        assert g.edge_count == sum(map(int.bit_count, adj)) // 2
        assert sorted(made) == list(range(255))
        assert adj == commuting_rows([S.elements[i] for i in g.vertices])

    def test_out_of_range(self):
        rows = build(enumerate_full(3)).rows
        with pytest.raises(IndexError):
            rows[len(rows)]
        with pytest.raises(IndexError):
            rows[-len(rows) - 1]

    @pytest.mark.parametrize(
        "S, adj_digest, dump_digest",
        [
            (
                enumerate_full(3),
                "f7e9fa2aa7f9366be0490833d8806cc037e34773710d1d7b8e4226c27fcc040f",
                "99212f60b54e4a2aaa6aa7bd4c3239827131ee8f79dd1816c1102326c73f3a69",
            ),
            (
                enumerate_full(4),
                "7d7e752d8f18fe4f4fbe9f70be633615d36fd36267fb768a5a9552a95b9b51fe",
                "e1f7f250115c34261d60a181a0f3ff0ac8486381748b550bda904f579470fc69",
            ),
            (
                enumerate_partial(3),
                "3de538e25e4f224a922a1c232523f04f88019a58f4464480cc20e898898f58eb",
                "2aa11e3b4d8f932715151c2b628ea50988b08aed1d1f7e9b9e1ad0a5ebcd01fc",
            ),
        ],
        ids=["full-3", "full-4", "partial-3"],
    )
    def test_adjacency_and_dump_pinned(self, S, adj_digest, dump_digest, tmp_path, capsys):
        g = build(S)
        width = (g.vertex_count + 7) // 8
        rows = b"".join(row.to_bytes(width, "little") for row in g.adj)
        assert hashlib.sha256(rows).hexdigest() == adj_digest
        path, dump = tmp_path / "s.json", tmp_path / "s.adj"
        write_semigroup_file(S, str(path))
        assert cli.run(["graph", str(path), "--adj", str(dump)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(dump.read_bytes()).hexdigest() == dump_digest


def definition_knit_degree(S, max_len):
    """Knit degree by the definition (Araújo, Kinyon & Konieczny 2011), by brute force.

    The fewest edges of a path a₁ – … – aₘ of distinct non-central elements,
    each commuting with the next, with a₁·aᵢ = aₘ·aᵢ for every i.  Every
    simple path of 1, 2, … edges is tried, with object-level products.
    """
    elems = list(S)
    verts = [a for a in elems if any(a * b != b * a for b in elems)]
    adj = {a: [b for b in verts if b != a and a * b == b * a] for a in verts}

    def paths(path, edges):
        if len(path) == edges + 1:
            yield path
            return
        for b in adj[path[-1]]:
            if b not in path:
                yield from paths(path + [b], edges)

    for edges in range(1, max_len + 1):
        for a in verts:
            for p in paths([a], edges):
                if all(p[0] * c == p[-1] * c for c in p):
                    return edges
    return None


def random_closures(seed, count, limit):
    """Seeded non-commutative closures of 2–3 random maps, degree 3–4, both kinds."""
    rng = random.Random(seed)
    while count:
        n = rng.choice((3, 4))
        if rng.random() < 0.5:
            gens = [Transformation([rng.randrange(n) for _ in range(n)]) for _ in range(3)]
        else:
            points = [None, *range(n)]
            gens = [PartialTransformation([rng.choice(points) for _ in range(n)]) for _ in range(3)]
        try:
            S = closure(gens[: rng.randint(2, 3)], limit=limit)
        except ClosureLimitExceeded:
            continue
        if not S.is_commutative():
            count -= 1
            yield S


class TestLeftPaths:
    def test_none_at_degree_2(self):
        assert shortest_left_path(enumerate_full(2), max_len=4) is None
        assert shortest_left_path(enumerate_partial(2), max_len=3) is None
        assert knit_degree(enumerate_full(2)) is None

    def test_full_3_and_4(self):
        assert shortest_left_path(enumerate_full(3)) == list(knit_witness(3))
        assert knit_degree(enumerate_full(3)) == 1
        assert knit_degree(enumerate_full(4)) == 1

    def test_partial_3(self):
        path = shortest_left_path(enumerate_partial(3))
        assert path == [
            PartialTransformation([0, 0, 0]),
            PartialTransformation([0, 0, 1]),
        ]
        assert knit_degree(enumerate_partial(3)) == 1

    def test_path_property_holds(self):
        S = enumerate_full(3)
        path = shortest_left_path(S)
        first, last = path[0], path[-1]
        assert first != last
        for a in path:
            assert first * a == last * a

    def test_rejects_commutative(self):
        with pytest.raises(ValueError):
            shortest_left_path(gamma(4, 0))

    def test_against_the_definition(self):
        kinds = Counter()
        for S in random_closures(2024, 400, 60):
            path = shortest_left_path(S, max_len=4)
            expected = definition_knit_degree(S, 4)
            assert (None if path is None else len(path) - 1) == expected
            if path is not None:
                assert len(set(path)) == len(path)
                assert all(any(a * b != b * a for b in S) for a in path)
                assert all(a * b == b * a for a, b in zip(path, path[1:]))
                assert all(path[0] * a == path[-1] * a for a in path)
            kinds[S.kind, expected] += 1
        # the sample reaches both kinds, with and without a left path
        assert set(kinds) >= {("full", 1), ("partial", 1), ("full", None), ("partial", None)}

    def test_knit_degree_2(self):
        full = closure([Transformation(img) for img in ([0, 0, 0], [2, 2, 1], [0, 0, 2])])
        partial = closure(
            [PartialTransformation(img) for img in ([0, 1, 0], [1, 2, 1], [1, 1, 1])]
        )
        for S in (full, partial):
            assert len(S) == 7
            assert shortest_left_path(S, max_len=1) is None
            assert knit_degree(S, max_len=4) == definition_knit_degree(S, 4) == 2
        assert shortest_left_path(full) == [
            Transformation([0, 0, 2]),
            Transformation([2, 2, 2]),
            Transformation([1, 1, 2]),
        ]
        assert shortest_left_path(partial) == [
            PartialTransformation([0, 1, 0]),
            PartialTransformation([1, 1, 1]),
            PartialTransformation([2, 1, 2]),
        ]

    def test_rejects_empty_length_range(self):
        for max_len in (0, -3):
            with pytest.raises(ValueError, match="at least 1"):
                knit_degree(enumerate_full(3), max_len=max_len)


def read_adjacency_file(path):
    """The ``write_adjacency`` layout: an ``<BBxxI`` header (degree, kind
    code, vertex count), then one little-endian row of ⌈n/8⌉ bytes each."""
    with open(path, "rb") as fh:
        blob = fh.read()
    degree, kind_code, n = struct.unpack_from("<BBxxI", blob)
    row_bytes = (n + 7) // 8
    assert len(blob) == 8 + n * row_bytes
    rows = [
        int.from_bytes(blob[8 + v * row_bytes : 8 + (v + 1) * row_bytes], "little")
        for v in range(n)
    ]
    return degree, kind_code, n, rows


class TestSerialization:
    def test_adjacency_round_trip(self, tmp_path):
        g = build(enumerate_full(3))
        path = str(tmp_path / "t3.adj")
        write_adjacency(g, path)
        assert read_adjacency_file(path) == (3, 0, 26, g.adj)
        g = build(enumerate_partial(2))
        write_adjacency(g, path)
        assert read_adjacency_file(path) == (2, 1, 7, g.adj)

    def test_dot_output(self):
        g = build(enumerate_partial(2))
        dot = graph_to_dot(g)
        assert dot.startswith("// commuting graph: kind=partial degree=2 ")
        assert "vertices=7 edges=1" in dot
        assert "graph commuting {" in dot
        # undefined points render as "-" and values 1-based
        assert '[label="[- -]"]' not in dot  # the empty map is central
        assert '[label="[1 -]"]' in dot
        assert dot.count(" -- ") == 1
        assert dot.endswith("}\n")

    @pytest.mark.parametrize(
        "S, sha",
        [
            (enumerate_full(3), "56c9b436811f2aae37e36853518e4bc47415a325dbe97a085b49ca42f8cd6769"),
            (enumerate_partial(3), "8c7a74331835e57ebcb7a27444d7bc6ebf9b3b7dc9e722f2b9d1d605a410699f"),
            (enumerate_full(4), "719f8940664c9c0d53814242dc7784264bc31f62aca8289b8a3f9039724de18e"),
        ],
    )
    def test_dot_bytes_frozen(self, S, sha):
        assert hashlib.sha256(graph_to_dot(build(S)).encode()).hexdigest() == sha

    def test_dot_reads_the_rows_a_fixed_number_of_times(self, monkeypatch):
        # reading g.adj per vertex made the export quadratic in the vertex count
        calls = []
        read_all = RowReader.read_all
        monkeypatch.setattr(RowReader, "read_all", lambda self: calls.append(1) or read_all(self))
        counts = []
        for n in (3, 4):
            calls.clear()
            graph_to_dot(build(enumerate_full(n)))
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0


T3_ROWS = commuting_rows(enumerate_full(3).elements)


@pytest.mark.parametrize(
    "call",
    [
        lambda: max_clique_bits(T3_ROWS),
        lambda: max_clique_bits(T3_ROWS, 4),
        lambda: max_clique_bits(T3_ROWS, ties=True),
        lambda: shortest_left_path(enumerate_full(3)),
        lambda: _relabel(SemiTree(((0, 1, 2), (0, 1, 0), (2, 0, 1)))),
        lambda: max_null(4, "full"),
        lambda: commuting_rows(enumerate_full(4).elements),
        lambda: commuting_rows(enumerate_partial(3).elements),
    ],
    ids=[
        "max_clique_bits",
        "max_clique_bits_floor",
        "max_clique_bits_ties",
        "shortest_left_path",
        "relabel",
        "max_null",
        "commuting_rows_T4",
        "commuting_rows_P3",
    ],
)
def test_recursive_searches_leave_no_reference_cycles(call):
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()
