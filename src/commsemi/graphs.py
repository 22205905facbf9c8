"""Commuting graphs and their statistics.

The commuting graph of a non-commutative semigroup has the non-central
elements as vertices and an edge between distinct elements that commute.
Adjacency lives in Python-int bitsets (bit v of row u = edge u–v), which
keeps the branch-and-bound clique search allocation-free in the hot path.
The commuting relation is read bit-sliced (:class:`RowReader`): one pass
over the pool makes, for every point and value, the bitset of the items
that send that point to that value, and each row is a few big-int ANDs and
ORs of those columns, made the first time it is read.  One
branch-and-bound, rooted in a degeneracy order kept in bit-sliced degree
counters, finds one maximum clique or, on request, every one
(:func:`max_clique_bits`); its colorings below the root are built a class
at a time on the bit rows.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
import struct
from dataclasses import dataclass
from typing import Sequence

from .semigroups import SemigroupSet, _commute_with_all, _commutes_with
from .transform import _FILL, _label, _raw, product

INFINITY = math.inf

_HEADER = struct.Struct("<BBxxI")  # degree, kind code, pad, vertex count
_KIND_CODE = {"full": 0, "partial": 1}
_BINARY = b"0" * 256  # a translate table to "0"; with slot v set to "1" it marks value v


@dataclass
class CommGraph:
    """Vertices are indices into ``source.elements``; adjacency is local bitsets.

    ``rows`` is a plain list of bit rows or a :class:`RowReader` that makes
    each row when it is first read.
    """

    source: SemigroupSet
    vertices: tuple[int, ...]
    rows: Sequence[int]
    center_indices: tuple[int, ...]

    @property
    def adj(self) -> list[int]:
        """Every bit row, as a list: the rows not read yet are made now."""
        rows = self.rows
        return rows.read_all() if isinstance(rows, RowReader) else rows

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


class RowReader:
    """The commuting relation on a pool of image bytes, one bit row at a time.

    Bit j of row i is set iff maps i ≠ j commute.  b commutes with a iff
    b(a(x)) = a(b(x)) for every point x.  Read column by column, with
    ``col[x][v]`` the bitset of the maps b with b(x) = v::

        row(a) = ⋀_x ⋁_v col[x][v] & col[a(x)][a(v)]

    over the values v that occur in column x.  A partial map is a full map
    of X ∪ {⊥} that fixes the sentinel ⊥ = n, as
    :func:`~commsemi.transform.product` treats it, so ``col[n] = {n: all}``
    and one loop serves both kinds.  The columns are built once; each row
    is a few big-int ANDs and ORs of them, made when it is first read (it
    stops as soon as it is empty) and then kept.  All images must be valid
    maps of one kind and degree n; nothing checks it.
    """

    __slots__ = ("_joined", "_sentinel", "_everyone", "_col", "_rows")

    def __init__(self, images: Sequence[bytes], n: int):
        self._sentinel = bytes([n])
        self._everyone = everyone = (1 << len(images)) - 1
        # map j is bit j: reversed, the first character of a column is the top bit
        self._joined = joined = b"".join(reversed(images))
        col = []
        for x in range(n):
            column = joined[x::n]
            bits = {}
            for v in set(column):
                # "1" where the column holds v and "0" elsewhere: a binary numeral
                bits[v] = int(column.translate(_BINARY[:v] + b"1" + _BINARY[v + 1 :]), 2)
            col.append(bits)
        col.append({n: everyone})
        self._col = col
        self._rows: list[int | None] = [None] * len(images)

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i: int) -> int:
        row = self._rows[i]
        if row is None:
            row = self._rows[i] = self._row(range(len(self._rows))[i])
        return row

    def read_all(self) -> list[int]:
        """Every row, in the reader's own list: each is made once."""
        rows = self._rows
        for i, row in enumerate(rows):
            if row is None:
                rows[i] = self._row(i)
        return rows

    def _row(self, i: int) -> int:
        n = len(self._col) - 1
        end = (len(self._rows) - i) * n  # map i's images end here in the reversed join
        a = self._joined[end - n : end] + self._sentinel
        col = self._col
        row = self._everyone
        for x in range(n):
            target = col[a[x]]
            meet = 0
            for v, bits in col[x].items():
                meet |= bits & target.get(a[v], 0)
            row &= meet
            if not row:
                break
        return row & ~(1 << i)


def commuting_rows(items: Sequence) -> list[int]:
    """Bit matrix over ``items``: bit j of row i set iff items i ≠ j commute.

    Every row of a :class:`RowReader` on the items' images.  All items
    must share one kind and degree.
    """
    if not items:
        return []
    first = items[0]
    product(first, first)  # raises, with product's message, unless the first item is a map
    cls, n = type(first), len(first.img)
    for item in items:
        if type(item) is not cls or len(item.img) != n:
            product(first, item)  # raises on a mixed kind or degree, with product's message
    return RowReader([item.img for item in items], n).read_all()


def build(S: SemigroupSet) -> CommGraph:
    """Commuting graph on S ∖ Z(S); rejects commutative input (empty vertex set).

    The center is found on image bytes, and the rows are read on demand.
    """
    if not S.is_closed():
        raise ValueError("the commuting graph is defined for product-closed sets")
    if S.is_commutative():
        raise ValueError(
            "commutative input has an empty commuting graph (every element is central)"
        )
    central = _commute_with_all(S.images, S.images)
    noncentral = list(map(operator.not_, central))
    vertices = tuple(itertools.compress(range(len(S)), noncentral))
    center_indices = tuple(itertools.compress(range(len(S)), central))
    rows = RowReader(list(itertools.compress(S.images, noncentral)), S.degree)
    return CommGraph(S, vertices, rows, center_indices)


def _bits_to_list(bits: int) -> list[int]:
    """The set bits' indices, ascending, from one scan of the digits (no int copy per bit)."""
    return [m.start() for m in re.finditer("1", bin(bits)[:1:-1])]


def _degeneracy_order(adj: Sequence[int], n: int) -> list[int]:
    """Repeatedly strip the vertex of least (degree, index); the removal order.

    The degrees are bit-sliced, so that every step is word-parallel as in
    San Segundo et al.'s bitset BBMC (*Comput. Oper. Res.* 2011): with
    k = max_degree.bit_length() and top = 2^k - 1, bit u of ``plane[j]``
    is bit j of top - deg(u).  The live vertices of least degree are those
    with the most of that value, found by narrowing the live set from the
    top plane down, and the lowest of them has the least index.  Stripping
    v adds one to the value of every live neighbour at once, by a carry
    rippled over the planes.  So the order costs O(|V| log Δ) big-int
    operations and no Python step per edge.
    """
    alive = (1 << n) - 1
    deg = [(adj[v] & alive).bit_count() for v in range(n)]
    k = max(deg, default=0).bit_length()
    top = (1 << k) - 1
    values = [top - d for d in reversed(deg)]  # vertex n - 1 first: the top bit
    plane = [int(bytes(48 + (x >> j & 1) for x in values), 2) for j in range(k)]
    order = []
    for _ in range(n):
        cand = alive
        for j in range(k - 1, -1, -1):
            narrowed = cand & plane[j]
            if narrowed:
                cand = narrowed
        low = cand & -cand
        v = low.bit_length() - 1
        order.append(v)
        alive ^= low
        carry = adj[v] & alive
        for j in range(k):
            if not carry:
                break
            old = plane[j]
            plane[j] = old ^ carry
            carry &= old
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


def _color_bits(P_bits: int, adj: Sequence[int]) -> tuple[list[int], list[int]]:
    """``_color_sort`` of P's vertices in ascending order, one color class at a time.

    Greedy coloring of an ascending list puts each vertex in the first class
    with no neighbour of it, so class k takes, lowest first, every vertex
    left by classes 1..k-1 that no earlier member of class k is adjacent to.
    Each member costs a few big-int operations, not one test per class.
    """
    order: list[int] = []
    bounds: list[int] = []
    k = 0
    while P_bits:
        k += 1
        Q = P_bits
        while Q:
            low = Q & -Q
            v = low.bit_length() - 1
            order.append(v)
            bounds.append(k)
            P_bits ^= low
            Q = (Q ^ low) & ~adj[v]
    return order, bounds


def max_clique_bits(
    adj: Sequence[int], floor: int = 0, ties: bool = False
) -> tuple[int, list[list[int]], int]:
    """Maximum cliques on a bitset adjacency list, by branch-and-bound.

    Tomita-style (MCS, *J. Global Optim.* 2010): candidates are greedily
    colored and explored in reverse color order.  At the root they are
    colored in reverse degeneracy order, which colors dense cores first;
    below it, in ascending order, one class at a time (:func:`_color_bits`).
    A branch is cut unless its color bound beats the incumbent, or with
    ``ties`` reaches it, so that every maximum clique comes back (there can
    be exponentially many: only callers that list them ask).  Returns ``(size, cliques, nodes)``: the incumbent size (at
    least ``floor``, where the search starts), its cliques as sorted vertex
    lists in the order found (empty if no clique beats a positive ``floor``,
    or with ``ties`` reaches it), and the nodes visited.  ``cliques[0]`` is
    the same either way.  Fully deterministic.
    """
    n = len(adj)
    if n == 0:
        return floor, [[]] if floor == 0 else [], 0
    best = [floor]
    cliques: list[list[int]] = []
    root = _color_sort(list(reversed(_degeneracy_order(adj, n))), adj)
    nodes = _expand((1 << n) - 1, root, adj, [], best, cliques, int(not ties))
    return best[0], cliques, nodes


def _expand(
    P_bits: int, coloring: tuple[list[int], list[int]], adj: Sequence[int], R: list,
    best: list, cliques: list, strict: int,
) -> int:
    """One B&B node extending the clique R from P; returns the nodes visited.

    ``coloring`` is P's vertices grouped by color with their bounds.
    ``best[0]`` is the incumbent size and ``cliques`` its cliques so far: a
    larger clique replaces them, and a tie is appended unless ``strict`` is
    1.  After v's branch, a v adjacent to every remaining candidate ends
    the node, since a clique avoiding v could take v as well.
    (Module-level: a recursive closure is a reference cycle.)
    """
    nodes = 1
    order, bounds = coloring
    for idx in range(len(order) - 1, -1, -1):
        if len(R) + bounds[idx] < best[0] + strict:
            break
        v = order[idx]
        R.append(v)
        new_bits = P_bits & adj[v]
        if new_bits:
            nodes += _expand(new_bits, _color_bits(new_bits, adj), adj, R, best, cliques, strict)
        elif len(R) >= best[0] + strict:
            if len(R) > best[0]:
                best[0] = len(R)
                cliques.clear()
            cliques.append(sorted(R))
        R.pop()
        P_bits &= ~(1 << v)
        if P_bits & adj[v] == P_bits:
            break
    return nodes


def max_clique(g: CommGraph) -> CliqueResult:
    size, cliques, nodes = max_clique_bits(g.adj)
    return CliqueResult(size, tuple(sorted(g.vertices[v] for v in cliques[0])), nodes)


def girth(g: CommGraph) -> float | int:
    """Length of a shortest cycle, or math.inf in a forest.

    One breadth-first search per root, one distance layer at a time on the
    bit rows (Itai & Rodeh 1978).  An edge inside layer k closes a cycle of
    length at most 2k+1, so the layer ends at the first one; failing that, a
    fresh vertex reached from two vertices of layer k closes one of length
    at most 2k+2.  A root stops at its first such bound, or once 2k+1
    reaches the best so far.  The minimum over all roots is exact: from a
    vertex of a shortest cycle, that cycle shows up at its own length.
    Stops once a triangle is known.  Rows are read one at a time, so a
    :class:`RowReader` makes only the rows the search reaches.
    """
    rows = g.rows
    best: float | int = INFINITY
    for root in range(len(rows)):
        seen = layer = 1 << root
        k = 0
        while layer and 2 * k + 1 < best:
            inner = met = nxt = 0
            rest = layer
            while rest and not inner:
                low = rest & -rest
                rest ^= low
                row = rows[low.bit_length() - 1]
                inner = row & layer
                fresh = row & ~seen
                met |= fresh & nxt
                nxt |= fresh
            if inner or met:
                best = 2 * k + 1 if inner else 2 * k + 2
                break
            seen |= nxt
            layer = nxt
            k += 1
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
    imgs = S.images
    fill = _FILL[S.degree]

    def commuters(i: int):
        # tables are made as they are read: one per element of a whole T6
        # would hold 12 MB, and a search reads a few of them
        x = imgs[i]
        return _commutes_with(x, x + fill, imgs, map(operator.add, imgs, itertools.repeat(fill)))

    @functools.cache
    def central(i: int) -> bool:
        return _commute_with_all((imgs[i],), imgs)[0]

    def steps(path: list[int]):
        return (
            j
            for j in itertools.compress(range(len(imgs)), commuters(path[-1]))
            if j not in path and not central(j)
        )

    def is_left_path(path: list[int]) -> bool:
        first, last = imgs[path[0]], imgs[path[-1]]
        tables = [imgs[i] + fill for i in path]
        return list(map(first.translate, tables)) == list(map(last.translate, tables))

    for length in range(1, max_len + 1):
        for start in range(len(imgs)):
            if central(start):
                continue
            found = _extend_path([start], length, steps, is_left_path)
            if found:
                return [_raw(S.element_class, imgs[i]) for i in found]
    return None


def _extend_path(path: list[int], length: int, steps, is_left_path) -> list[int] | None:
    """Depth-first: the first left path of ``length`` edges that extends ``path``.

    ``steps(path)`` yields the vertices that may extend it.  (Module-level:
    a recursive closure is a reference cycle.)
    """
    if len(path) == length + 1:
        return path.copy() if is_left_path(path) else None
    for j in steps(path):
        path.append(j)
        found = _extend_path(path, length, steps, is_left_path)
        path.pop()
        if found:
            return found
    return None


def knit_degree(S: SemigroupSet, max_len: int = 4) -> int | None:
    """Length of a shortest left path, or None if none exists within max_len."""
    path = shortest_left_path(S, max_len)
    return None if path is None else len(path) - 1


def graph_to_dot(g: CommGraph) -> str:
    lines = [
        f"// commuting graph: kind={g.kind} degree={g.degree} "
        f"vertices={g.vertex_count} edges={g.edge_count}",
        "graph commuting {",
        "  node [shape=box fontsize=10];",
    ]
    images = g.source.images
    for v, i in enumerate(g.vertices):
        lines.append(f'  v{v} [label="[{_label(images[i])}]"];')
    for v, row in enumerate(g.adj):
        for w in _bits_to_list(row):
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

