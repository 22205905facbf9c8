"""Tests for commuting graphs, clique search, girth, and left paths."""

import math
import random

import pytest

from commsemi.extremal import e_ix, gamma, knit_witness
from commsemi.graphs import (
    CommGraph,
    all_max_cliques_bits,
    build,
    commuting_rows,
    girth,
    graph_to_dot,
    knit_degree,
    max_clique,
    max_clique_bits,
    read_adjacency,
    shortest_left_path,
    write_adjacency,
)
from commsemi.oracle import max_commutative
from commsemi.semigroups import SemigroupSet, enumerate_full, enumerate_partial
from commsemi.transform import PartialTransformation, Transformation


def graph_of(n, edges):
    """A bare CommGraph over n synthetic vertices (source is a dummy)."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return CommGraph(enumerate_full(2), tuple(range(n)), adj, ())


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
            best, cliques = naive_max_cliques(adj)
            size, witness, nodes = max_clique_bits(adj)
            assert size == best
            assert tuple(sorted(witness)) in cliques
            assert nodes >= 1
            assert set(all_max_cliques_bits(adj, best)) == cliques

    def test_edgeless_graph(self):
        adj = [0, 0, 0]
        assert max_clique_bits(adj)[0] == 1
        assert all_max_cliques_bits(adj, 1) == [(0,), (1,), (2,)]

    def test_gamma_cliques_present_in_full_3(self):
        S = enumerate_full(3)
        g = build(S)
        local = {v: l for l, v in enumerate(g.vertices)}
        ident = Transformation.identity(3)
        found = all_max_cliques_bits(g.adj, 3)
        for x in range(3):
            want = tuple(
                sorted(local[S.elements.index(a)] for a in gamma(3, x) if a != ident)
            )
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

    def test_transformation_graphs(self):
        assert girth(build(enumerate_full(2))) == math.inf
        assert girth(build(enumerate_partial(2))) == math.inf
        assert girth(build(enumerate_full(3))) == 3
        assert girth(build(enumerate_full(4))) == 3
        assert girth(build(enumerate_partial(3))) == 3


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

    def test_rejects_empty_length_range(self):
        for max_len in (0, -3):
            with pytest.raises(ValueError, match="at least 1"):
                knit_degree(enumerate_full(3), max_len=max_len)


class TestSerialization:
    def test_adjacency_round_trip(self, tmp_path):
        g = build(enumerate_full(3))
        path = str(tmp_path / "t3.adj")
        write_adjacency(g, path)
        degree, kind, n, rows = read_adjacency(path)
        assert (degree, kind, n) == (3, "full", 26)
        assert rows == g.adj

    def test_bad_files(self, tmp_path):
        short = tmp_path / "short.adj"
        short.write_bytes(b"\x03")
        with pytest.raises(ValueError):
            read_adjacency(str(short))

        g = build(enumerate_full(2))
        good = tmp_path / "good.adj"
        write_adjacency(g, str(good))
        blob = good.read_bytes()

        bad_kind = tmp_path / "kind.adj"
        bad_kind.write_bytes(blob[:1] + b"\x07" + blob[2:])
        with pytest.raises(ValueError):
            read_adjacency(str(bad_kind))

        truncated = tmp_path / "trunc.adj"
        truncated.write_bytes(blob[:-1])
        with pytest.raises(ValueError):
            read_adjacency(str(truncated))

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
