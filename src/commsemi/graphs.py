"""Commuting graphs and their statistics.

The commuting graph of a non-commutative semigroup has the non-central
elements as vertices and an edge between distinct elements that commute.
Adjacency lives in Python-int bitsets (bit v of row u = edge u–v), which
keeps the branch-and-bound clique search allocation-free in the hot path.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Sequence

from .semigroups import SemigroupSet
from .transform import product

INFINITY = math.inf

_HEADER = struct.Struct("<BBxxI")  # degree, kind code, pad, vertex count
_KIND_CODE = {"full": 0, "partial": 1}
_KIND_NAME = {0: "full", 1: "partial"}


@dataclass
class CommGraph:
    """Vertices are indices into ``source.elements``; adjacency is local bitsets."""

    source: SemigroupSet
    vertices: tuple[int, ...]
    adj: list[int]
    center_indices: tuple[int, ...]

    @property
    def degree(self) -> int:
        return self.source.degree

    @property
    def kind(self) -> str:
        return self.source.kind

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def element(self, local: int):
        return self.source.elements[self.vertices[local]]


@dataclass(frozen=True)
class CliqueResult:
    size: int
    witness: tuple[int, ...]  # element indices into the source SemigroupSet
    nodes_explored: int


def commuting_rows(items: Sequence) -> list[int]:
    """Bit matrix over ``items``: bit j of row i set iff items i ≠ j commute."""
    m = len(items)
    rows = [0] * m
    for i in range(m):
        a = items[i]
        for j in range(i + 1, m):
            b = items[j]
            if product(a, b).img == product(b, a).img:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def build(S: SemigroupSet) -> CommGraph:
    """Commuting graph on S ∖ Z(S); rejects commutative input (empty vertex set)."""
    if not S.is_closed():
        raise ValueError("the commuting graph is defined for product-closed sets")
    if S.is_commutative():
        raise ValueError(
            "commutative input has an empty commuting graph (every element is central)"
        )
    rows = commuting_rows(S.elements)
    m = len(S)
    full = (1 << m) - 1
    vertices = tuple(i for i in range(m) if rows[i] | (1 << i) != full)
    center = tuple(i for i in range(m) if rows[i] | (1 << i) == full)
    index_of = {g: l for l, g in enumerate(vertices)}
    adj = [0] * len(vertices)
    for l, g in enumerate(vertices):
        for other in _bits_to_list(rows[g]):
            if other in index_of:
                adj[l] |= 1 << index_of[other]
    return CommGraph(S, vertices, adj, center)


def _bits_to_list(bits: int) -> list[int]:
    out = []
    while bits:
        low = bits & -bits
        bits ^= low
        out.append(low.bit_length() - 1)
    return out


def _degeneracy_order(adj: Sequence[int], n: int) -> list[int]:
    """Repeatedly strip a minimum-degree vertex; returns the removal order."""
    alive = (1 << n) - 1
    deg = [(adj[v] & alive).bit_count() for v in range(n)]
    order = []
    for _ in range(n):
        v = min((u for u in range(n) if alive >> u & 1), key=lambda u: (deg[u], u))
        order.append(v)
        alive &= ~(1 << v)
        for u in _bits_to_list(adj[v] & alive):
            deg[u] -= 1
    return order


def _color_sort(P_list: Sequence[int], adj: Sequence[int]) -> tuple[list[int], list[int]]:
    """Greedy coloring; returns vertices grouped by color with 1-based bounds."""
    class_bits: list[int] = []
    classes: list[list[int]] = []
    for v in P_list:
        av = adj[v]
        for k in range(len(classes)):
            if not class_bits[k] & av:
                classes[k].append(v)
                class_bits[k] |= 1 << v
                break
        else:
            classes.append([v])
            class_bits.append(1 << v)
    order: list[int] = []
    bounds: list[int] = []
    for k, cls in enumerate(classes):
        for v in cls:
            order.append(v)
            bounds.append(k + 1)
    return order, bounds


def max_clique_bits(adj: Sequence[int]) -> tuple[int, list[int], int]:
    """Exact maximum clique on a bitset adjacency list.

    Branch-and-bound in the style of Tomita: candidates are greedily
    colored, explored in reverse color order, and a branch is cut when the
    clique so far plus the color bound cannot beat the incumbent.  Root
    candidates are taken in reverse degeneracy order, which colors dense
    cores first.  Fully deterministic.
    """
    n = len(adj)
    if n == 0:
        return 0, [], 0
    best_size = 0
    best: list[int] = []
    nodes = 0
    R: list[int] = []

    def expand(P_bits: int, P_list: list[int]) -> None:
        nonlocal best_size, best, nodes
        nodes += 1
        order, bounds = _color_sort(P_list, adj)
        for idx in range(len(order) - 1, -1, -1):
            if len(R) + bounds[idx] <= best_size:
                return
            v = order[idx]
            R.append(v)
            new_bits = P_bits & adj[v]
            if new_bits:
                expand(new_bits, _bits_to_list(new_bits))
            elif len(R) > best_size:
                best_size = len(R)
                best = R.copy()
            R.pop()
            P_bits &= ~(1 << v)

    root = list(reversed(_degeneracy_order(adj, n)))
    expand((1 << n) - 1, root)
    return best_size, sorted(best), nodes


def all_max_cliques_bits(adj: Sequence[int], target: int) -> list[tuple[int, ...]]:
    """Every clique of exactly the maximum size ``target``, each found once.

    Vertices are chosen in ascending order inside a clique, so no clique is
    produced twice; a branch survives only while the color bound keeps
    ``target`` reachable.  ``target`` must be the true maximum (a larger
    clique would make the outputs non-maximal, a smaller one is rejected by
    the pruning).
    """
    n = len(adj)
    if target == 0:
        return [()] if n == 0 else []
    above = [~((1 << (v + 1)) - 1) for v in range(n)]
    out: list[tuple[int, ...]] = []
    R: list[int] = []

    def rec(P_bits: int) -> None:
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
            R.append(v)
            rec(P_bits & adj[v] & above[v])
            R.pop()

    rec((1 << n) - 1)
    return out


def max_clique(g: CommGraph) -> CliqueResult:
    size, local, nodes = max_clique_bits(g.adj)
    witness = tuple(sorted(g.vertices[v] for v in local))
    return CliqueResult(size, witness, nodes)


def girth(g: CommGraph) -> float | int:
    """Length of a shortest cycle, or math.inf in a forest.

    One breadth-first search per root; every non-tree edge (u, w) seen from
    root v yields the candidate d[u] + d[w] + 1, and the minimum over all
    roots is exact because every shortest cycle is seen from its own
    vertices.  Stops instantly once a triangle is known.
    """
    n = g.vertex_count
    if n == 0:
        return INFINITY
    neighbors = [_bits_to_list(row) for row in g.adj]
    best: float | int = INFINITY
    for root in range(n):
        dist = {root: 0}
        parent = {root: -1}
        frontier = [root]
        while frontier and best > 3:
            nxt = []
            for u in frontier:
                if 2 * dist[u] >= best - 1:
                    continue
                for w in neighbors[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        nxt.append(w)
                    elif w != parent[u]:
                        cand = dist[u] + dist[w] + 1
                        if cand < best:
                            best = cand
            frontier = nxt
        if best == 3:
            return 3
    return best


def shortest_left_path(S: SemigroupSet, max_len: int = 4) -> list | None:
    """Shortest path whose two endpoints act identically on all its vertices.

    Searched by iterative deepening over paths of non-central elements in
    canonical order, so the standard witness pair — the two lexicographically
    first maps — is found immediately when it qualifies.  Returns the path
    as elements, or None if no qualifying path of length ≤ max_len exists.
    """
    if max_len < 1:
        raise ValueError(f"the searched path length must be at least 1, got {max_len}")
    if not S.is_closed():
        raise ValueError("left paths are defined for product-closed sets")
    if S.is_commutative():
        raise ValueError(
            "commutative input has an empty commuting graph (every element is central)"
        )
    elems = S.elements
    central_memo: dict[int, bool] = {}

    def central(i: int) -> bool:
        if i not in central_memo:
            a = elems[i]
            central_memo[i] = all(product(a, b) == product(b, a) for b in elems)
        return central_memo[i]

    commute_memo: dict[tuple[int, int], bool] = {}

    def commute(i: int, j: int) -> bool:
        key = (i, j) if i < j else (j, i)
        if key not in commute_memo:
            a, b = elems[key[0]], elems[key[1]]
            commute_memo[key] = product(a, b) == product(b, a)
        return commute_memo[key]

    m = len(elems)

    def is_left_path(path: list[int]) -> bool:
        first, last = elems[path[0]], elems[path[-1]]
        return all(product(first, elems[i]) == product(last, elems[i]) for i in path)

    for length in range(1, max_len + 1):
        # depth-first over vertex sequences of `length` edges
        def extend(path: list[int]) -> list[int] | None:
            if len(path) == length + 1:
                return path.copy() if is_left_path(path) else None
            tail = path[-1]
            for j in range(m):
                if j in path or central(j) or not commute(tail, j):
                    continue
                path.append(j)
                found = extend(path)
                path.pop()
                if found:
                    return found
            return None

        for start in range(m):
            if central(start):
                continue
            found = extend([start])
            if found:
                return [elems[i] for i in found]
    return None


def knit_degree(S: SemigroupSet, max_len: int = 4) -> int | None:
    """Length of a shortest left path, or None if none exists within max_len."""
    path = shortest_left_path(S, max_len)
    return None if path is None else len(path) - 1


def _vertex_label(a) -> str:
    vals = [("-" if v == a.degree else str(v + 1)) for v in a.img]
    return "[" + " ".join(vals) + "]"


def graph_to_dot(g: CommGraph) -> str:
    lines = [
        f"// commuting graph: kind={g.kind} degree={g.degree} "
        f"vertices={g.vertex_count} edges={g.edge_count}",
        "graph commuting {",
        "  node [shape=box fontsize=10];",
    ]
    for v in range(g.vertex_count):
        lines.append(f'  v{v} [label="{_vertex_label(g.element(v))}"];')
    for v in range(g.vertex_count):
        for w in _bits_to_list(g.adj[v]):
            if w > v:
                lines.append(f"  v{v} -- v{w};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_adjacency(g: CommGraph, path: str) -> None:
    """Binary dump: 8-byte header, then one little-endian bit row per vertex."""
    n = g.vertex_count
    row_bytes = (n + 7) // 8
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(g.degree, _KIND_CODE[g.kind], n))
        for row in g.adj:
            fh.write(row.to_bytes(row_bytes, "little"))


def read_adjacency(path: str) -> tuple[int, str, int, list[int]]:
    """Inverse of write_adjacency: (degree, kind, vertex count, bitset rows)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise ValueError("adjacency file too short for its header")
    degree, kind_code, n = _HEADER.unpack_from(blob)
    if kind_code not in _KIND_NAME:
        raise ValueError(f"unknown kind code {kind_code}")
    row_bytes = (n + 7) // 8
    expected = _HEADER.size + n * row_bytes
    if len(blob) != expected:
        raise ValueError(f"adjacency file has {len(blob)} bytes, expected {expected}")
    rows = []
    for v in range(n):
        off = _HEADER.size + v * row_bytes
        rows.append(int.from_bytes(blob[off : off + row_bytes], "little"))
    return degree, _KIND_NAME[kind_code], n, rows
