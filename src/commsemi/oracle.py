"""Brute-force verification of the extremal claims at small degrees.

Every "largest commutative such-and-such" question is reduced to an exact
maximum-clique problem on a small induced graph:

* commutative: cliques of the commuting graph; the center is not split
  off, since a central element is adjacent to every other vertex and so
  lies in every maximum clique;
* commutative of idempotents: the same graph induced on the idempotents,
  laid out as the conjugates of one idempotent per conjugacy class, not
  filtered out of the whole semigroup;
* unique idempotent: for each idempotent f, the commuting graph induced on
  the elements whose power sequence stabilises at f, which are made from f
  (a maximum clique there automatically contains f and is product-closed,
  since powers and products of commuting elements stay in the class);
* null: for each idempotent z, vertices with square z that absorb z (all
  in z's ω-class), and adjacency "commuting pairs whose product is z";
* abelian subgroup: the commuting graph of the symmetric group.

The first four share one driver, :func:`_search`, with one clique search
per pool that keeps every tie.  Conjugation by a permutation σ maps the
pools of an idempotent f onto those of σ⁻¹fσ, edge for edge, so each of them
searches one pool per conjugacy class of idempotents and lists every other
maximizer as a conjugate of one found.  None of the reductions is taken on faith:
every answer set is re-checked for product closure (and whatever structure
the claim demands) before it is reported, and the module-wide counter
records every such check so a test run can assert that no violation ever
occurred.

Girth and knit degree are searched only at n = 2.  Past it, a triangle and
a left path of one edge, built directly, are re-checked by the same byte
rules (:func:`_certify`), and centrality, here and for ``pclique``, is
tested against a generating set of T_n or P_n (:func:`_generators`).
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from typing import Callable, NamedTuple

from .extremal import (
    e_ix,
    gamma,
    knit_witness,
    null_max,
    omega_pn,
    xi_alpha,
    xi_table,
)
from .graphs import (
    RowReader,
    _bits_to_list,
    build,
    commuting_rows,
    girth,
    knit_degree,
    max_clique_bits,
)
from .semigroups import (
    ClosureLimitExceeded,
    SemigroupSet,
    _all_commute,
    _closure_images,
    _commute_with_all,
    _commutes_with,
    _from_images,
    _images_and_tables,
    _sole_idempotent,
    classify_small_abelian_group,
    enumerate_full,
    enumerate_partial,
    enumerate_sym,
    idempotents,
    is_group,
    is_null,
)
from .transform import (
    _FILL,
    _MAX_DEGREE,
    PartialTransformation,
    Transformation,
    _omega_image,
    _raw,
    product,
)
# omega_power is unused here, but perfbench/test_harness.py pins this binding.
from .transform import omega_power

# ξ/α values as published, keyed by n.  These constants are the *expected*
# side of every verification; the computed side always comes from live code.
TABLE1 = {
    1: (1, 1),
    2: (2, 1),
    3: (2, 2),
    4: (2, 4),
    5: (3, 9),
    6: (3, 27),
    7: (3, 81),
    8: (4, 256),
    9: (4, 1024),
    10: (4, 4096),
    11: (4, 16384),
    12: (5, 78125),
    13: (5, 390625),
    14: (5, 1953125),
    15: (6, 10077696),
    16: (6, 60466176),
    17: (6, 362797056),
    18: (6, 2176782336),
    19: (7, 13841287201),
    20: (7, 96889010407),
}

# Largest abelian subgroup orders of the symmetric group, keyed by n.
ABELIAN_ORDERS = {2: 2, 3: 3, 4: 4, 5: 6, 6: 9, 7: 12, 8: 18, 9: 27, 10: 36, 11: 54, 12: 81}

_stats = {"checks": 0, "violations": 0}


def closure_check_stats() -> dict[str, int]:
    """Counters for the clique→subsemigroup closure checks performed so far."""
    return dict(_stats)


def reset_closure_stats() -> None:
    _stats["checks"] = 0
    _stats["violations"] = 0


class OracleResult(NamedTuple):
    size: int
    maximizers: tuple[SemigroupSet, ...]
    tags: tuple[str, ...]


def _checked_set(elements, *, context: str) -> SemigroupSet:
    """Build a SemigroupSet and prove it closed and commutative, loudly.

    This is the soundness check behind every reduction: a maximum clique
    (plus whatever central/absorbing elements the claim adds) must be a
    commutative subsemigroup.  A failure names the first offending pair.
    """
    T = SemigroupSet(elements)
    _stats["checks"] += 1
    if T.is_closed() and T.is_commutative():
        return T
    _stats["violations"] += 1
    imgs, tables = _images_and_tables(T)
    members = set(imgs)
    a, b, ab = next(
        (a, b, ab)
        for a, x, t in zip(T, imgs, tables)
        for b, commutes, ab in zip(T, _commutes_with(x, t, imgs, tables), map(x.translate, tables))
        if not commutes or ab not in members
    )
    raise RuntimeError(
        f"closure check failed in {context}: a={a!r} b={b!r} "
        f"ab={product(a, b)!r} ba={product(b, a)!r} member={ab in members}"
    )


def _check_degree(claim: str, n: int, kind: str) -> None:
    """ValueError unless ``CLAIMS[claim]`` is computed at degree n for this kind."""
    degrees = CLAIMS[claim].degrees
    lo, hi = degrees.get(kind, (1, 0))
    if not lo <= n <= hi:
        caps = ", ".join(f"{a} ≤ n ≤ {b} for kind={k}" for k, (a, b) in degrees.items())
        raise ValueError(f"{claim} is computed in the capped range {caps}; got n={n}")


# ---------------------------------------------------------------------------
# maximizer tagging


def _tag_commutative(T: SemigroupSet) -> str:
    """GAMMA:x for Γ(n, x), whose elements fix x and no other common point;
    EIX for E(I_X); else the group type or OTHER.  One comparison at most."""
    n = T.degree
    if T.kind == "full":
        fixed = [x for x in range(n) if all(img[x] == x for img in T.images)]
        if len(fixed) == 1 and T == gamma(n, fixed[0]):
            return f"GAMMA:{fixed[0]}"
    elif T == e_ix(n):
        return "EIX"
    if is_group(T):
        return "GROUP:" + classify_small_abelian_group(T)
    return "OTHER"


def _tag_null(T: SemigroupSet) -> str:
    """ID for {id}, NULL:N(x1;rest) for null_max(n, [x1, *rest]), NULL:OMEGA(B) for Ω(B),
    else NULL:?.  x1 is the value of T[0]² (⊥ for Ω) and ``rest`` the other points
    that every element sends to x1, so T is compared with one set at most."""
    n = T.degree
    if T.kind == "full" and len(T) == 1 and T.elements[0] == Transformation.identity(n):
        return "ID"
    first = T.images[0]
    x1 = first.translate(first + _FILL[n])[0]
    rest = [p for p in range(n) if p != x1 and all(img[p] == x1 for img in T.images)]
    if T.kind == "full":
        if len(rest) == xi_alpha(n).alpha - 1 and T == null_max(n, [x1, *rest]):
            return f"NULL:N({x1};{','.join(map(str, rest))})"
    elif x1 == n and len(rest) == xi_alpha(n + 1).alpha - 1 and T == omega_pn(n, rest):
        return f"NULL:OMEGA({','.join(map(str, rest))})"
    return "NULL:?"


def _tag_unique_idem(T: SemigroupSet) -> str:
    if is_group(T):
        return "GROUP:" + classify_small_abelian_group(T)
    if is_null(T)[0]:
        return _tag_null(T)
    return "OTHER"


# ---------------------------------------------------------------------------
# the five oracle searches


def _search(pools, context: str, tag, check) -> OracleResult:
    """Every maximum clique over the pools that reach the best clique number.

    Each pool is ``(key, items, adj)`` with ``adj`` a bitset adjacency on
    ``items``, searched with the best size so far as its floor, so the
    result does not depend on the order of the pools.  Each key is an
    idempotent f whose pool stands for the pools of all its conjugates, and
    each final clique K is listed as σ⁻¹Kσ, keyed σ⁻¹fσ, for one σ per
    conjugate (:func:`_conjugates`).  Conjugate pools share a
    set that holds several conjugates of f, so each set is kept once.  Only
    the final answers are re-checked by :func:`_checked_set`, must satisfy
    ``check(T, key)`` and are labelled by ``tag(T)``; they come back in
    canonical order.
    """
    best, found = 0, []
    for key, items, adj in pools:
        size, cliques, _ = max_clique_bits(adj, best, ties=True)
        if size > best:
            best, found = size, []
        found.append((key, [[items[i].img for i in K] for K in cliques]))
    results, seen = [], set()
    for key, cliques in found:
        cls = type(key)
        for g, K in _conjugates(key.img, cliques):
            members = frozenset(K)
            if members in seen:
                continue
            seen.add(members)
            g = _raw(cls, g)
            T = _checked_set([_raw(cls, a) for a in K], context=f"{context}, pool {g!r}")
            if not check(T, g):
                raise RuntimeError(f"{context}: pool {g!r} produced {T!r}, which fails its check")
            results.append((T, tag(T)))
    results.sort(key=lambda st: st[0].images)
    return OracleResult(best, tuple(T for T, _ in results), tuple(t for _, t in results))


def _conjugates(f: bytes, sets):
    """(σ⁻¹fσ, σ⁻¹Kσ) for each K in ``sets`` and one σ ∈ Sym_n per conjugate of f, on image bytes.

    x·σ⁻¹aσ = σ(a(σ⁻¹(x))): σ⁻¹'s image read through a's table, then σ's;
    σ fixes ⊥, so partial maps conjugate alike.  The first σ is the
    identity.  The σ that fix f permute the maximum cliques of f's pool
    among themselves, and those are all given, so one σ per conjugate lists
    every maximizer of the conjugate pools.  The conjugates are walked from
    f by the generators (0 1) and (0 1 … n−1) of Sym_n, one step per
    conjugate: a step takes σ to γ∘σ, which takes f to γ∘g∘γ⁻¹ for the g
    that σ gave.
    """
    n = len(f)
    fill, identity = _FILL[n], bytes(range(n))
    tables = [[a + fill for a in K] for K in sets]
    swap, cycle = identity[1::-1] + identity[2:], identity[1:] + identity[:1]  # (0 1), (0 1 … n−1)
    steps = [(gen + fill, bytes.maketrans(gen, identity)[:n]) for gen in (swap, cycle)]
    walk, seen = [(identity, f)], {f}
    for s, g in walk:  # walk grows while it is read
        inverse, table = bytes.maketrans(s, identity)[:n], s + fill
        for K in tables:
            yield g, [inverse.translate(t).translate(table) for t in K]
        for step, step_inverse in steps:
            h = step_inverse.translate(g + fill).translate(step)
            if h not in seen:
                seen.add(h)
                walk.append((s.translate(step), h))


def _class_reps(n: int, kind: str) -> list[bytes]:
    """One idempotent per conjugacy class of idempotents of T_n or P_n, on image bytes.

    An idempotent fixes the points of its image and sends every other point
    into it (or to ⊥), and σ⁻¹eσ has the fibres of e moved by σ.  So two
    idempotents are conjugate iff their fibres have the same sizes: one
    class per partition of the m points not sent to ⊥, m = n in T_n and any
    m ≤ n in P_n (p(n) and Σ_{m≤n} p(m) classes).  Each representative's
    fibres are runs of consecutive points, largest first, each sent to its
    first point.  They are made depth first on a stack, not by a recursive
    closure, which would leave a reference cycle per call.
    """
    reps = []
    # (image of the first points, points left, largest fibre allowed)
    stack = [(b"", m, m) for m in reversed(range(0 if kind == "partial" else n, n + 1))]
    while stack:
        img, left, top = stack.pop()
        if not left:
            reps.append(img + bytes([n] * (n - len(img))))
        stack += [(img + bytes([len(img)] * k), left - k, k) for k in range(1, min(left, top) + 1)]
    return reps


def _omega_class(f: bytes) -> list[bytes]:
    """The maps a with ω(a) = f, for an idempotent f, on image bytes.

    Such an a commutes with its power f and permutes im f, so it sends each y ∈ im f to
    π(y) for a permutation π of im f, each other point of f⁻¹(y) into f⁻¹(π(y)), and each
    point of f⁻¹(⊥) into f⁻¹(⊥) ∪ {⊥}.  Each map of that shape is kept if ω(a) = f."""
    n = len(f)
    image = sorted(set(f) - {n})
    fibres = {y: [x for x in range(n) if f[x] == y] + [n] * (y == n) for y in [*image, n]}
    members = []
    for pi in itertools.permutations(image):
        to = dict(zip([*image, n], [*pi, n]))
        slots = [(to[x],) if f[x] == x else fibres[to[f[x]]] for x in range(n)]
        members += [a for a in map(bytes, itertools.product(*slots)) if _omega_image(a) == f]
    return members


def _omega_classes(n: int, kind: str):
    """(f, f's ω-class) for each representative f of :func:`_class_reps`."""
    cls = Transformation if kind == "full" else PartialTransformation
    for f in _class_reps(n, kind):
        yield _raw(cls, f), [_raw(cls, a) for a in _omega_class(f)]


def _class_pools(n: int, kind: str, block):
    """The pools ``(key, items, adj)`` of a commutative search, one per class.

    ``block(e)`` lists the maps of ω-power e on image bytes: the ω-class
    (:func:`_omega_class`) to search T_n or P_n, [e] for their idempotents.
    Conjugation keeps ω-powers, so σ⁻¹·block(e)·σ = block(σ⁻¹eσ), and each
    representative's block (:func:`_class_reps`), conjugated once per
    conjugate (:func:`_conjugates`), lays out every map once, one span per
    class.  A maximum clique holding a holds its ω-power f, which commutes
    with all that a commutes with: it lies in N[f], or conjugated in N[e].
    Those pools, each one row of a :class:`RowReader` on the layout, come in
    ascending order of |N[e]|, less the spans of classes searched before: a
    clique holding one of their maps lies in that class's pool.  N[e] is
    everything for a central e, so those come last, and the first is keyed
    by e alone (its only conjugate) and holds every map left.
    """
    cls = Transformation if kind == "full" else PartialTransformation
    order, classes = [], []  # classes: (index of e in order, e, bits of its span)
    for e in _class_reps(n, kind):
        members, start = block(e), len(order)
        for _, K in _conjugates(e, [members]):
            order += K
        classes.append((start + members.index(e), e, (1 << len(order)) - (1 << start)))
    reader = RowReader(order, n)
    pivots = [(reader[i] | 1 << i, e, span) for i, e, span in classes]
    pivots.sort(key=lambda pivot: pivot[0].bit_count())
    searched = 0
    for row, e, span in pivots:
        items = [_raw(cls, order[i]) for i in _bits_to_list(row & ~searched)]
        yield _raw(cls, e), items, commuting_rows(items)
        if row.bit_count() == len(order):
            break
        searched |= span


def max_commutative(n: int, kind: str) -> OracleResult:
    """Largest commutative subsemigroup, with every maximizer enumerated.

    A maximizer holds the ω-power of each member, so it lies in the
    centralizer of a non-central idempotent or holds only maps of central
    ω-power: the permutations in T_n, and the nilpotents too in P_n
    (:func:`_class_pools`).  T_n or P_n is laid out from the ω-class of one
    idempotent per conjugacy class, never enumerated.
    """
    _check_degree("comm-max", n, kind)
    pools = _class_pools(n, kind, _omega_class)
    return _search(pools, f"max_commutative({n},{kind})", _tag_commutative, lambda T, _: True)


def max_commutative_idempotent(n: int, kind: str) -> OracleResult:
    """Largest commutative subsemigroup consisting of idempotents.

    Each idempotent is its own ω-power, so a maximizer lies in the
    centralizer of each member: one pool per conjugacy class of
    idempotents, and last {id} ({id, ∅} in P_n) (:func:`_class_pools`).
    The idempotents are laid out as the conjugates of one per class.
    """
    _check_degree("idem-max", n, kind)
    return _search(
        _class_pools(n, kind, lambda e: [e]),
        f"max_commutative_idempotent({n},{kind})",
        _tag_commutative,
        lambda T, _: len(idempotents(T)) == len(T),
    )


def max_unique_idempotent(n: int, kind: str) -> OracleResult:
    """Largest commutative subsemigroup with exactly one idempotent.

    The stabilising power splits the problem by idempotent: a commuting set
    whose members all have ω-power f is exactly a clique in the induced
    graph of f's class, and maximum cliques there are closed and contain f.
    Conjugation keeps ω-powers and commuting, so one class per conjugacy
    class of idempotents is made and searched (at T5, 7 of 196), and the
    maximizers of the others are the conjugates of those found.
    """
    _check_degree("unique-idem-max", n, kind)
    return _search(
        [(f, items, commuting_rows(items)) for f, items in _omega_classes(n, kind)],
        f"max_unique_idempotent({n},{kind})",
        _tag_unique_idem,
        lambda T, f: idempotents(T) == [f],
    )


def max_null(n: int, kind: str) -> OracleResult:
    """Largest null subsemigroup; also cross-checks the nilpotent maximum.

    For a candidate zero z, a null semigroup with zero z is exactly a clique
    of commuting pairs whose product is z, on the vertices with square z
    that absorb z.  Those vertices lie in z's ω-class (a² = z forces
    ω(a) = z), so both routes search the ω-classes, one per conjugacy class
    of idempotents, made as in :func:`max_unique_idempotent`; conjugation
    keeps products, so each route's maximum is the same over those classes
    as over all of them.  The nilpotent maximum (commuting cliques on
    {α : ω-power = z, αz = zα = z}) must agree with the null maximum at
    these degrees; a disagreement aborts.
    """
    _check_degree("null-max", n, kind)
    pools = []
    best_nilpotent = 0
    fill = _FILL[n]
    for z, cls in _omega_classes(n, kind):
        # az = z = za, then a² = z, then ab = z, on image bytes as in semigroups
        zero, tz = z.img, z.img + fill
        nil = [a for a in cls if a.img.translate(tz) == zero == zero.translate(a.img + fill)]
        items = [a for a in nil if a.img.translate(a.img + fill) == zero]
        nil = items + [a for a in nil if a.img.translate(a.img + fill) != zero]
        rows = commuting_rows(nil)
        tables = [a.img + fill for a in items]
        mask = (1 << len(items)) - 1
        adj = [
            sum(1 << j for j in _bits_to_list(row & mask) if a.img.translate(tables[j]) == zero)
            for a, row in zip(items, rows)
        ]
        pools.append((z, items, adj))
        # independent route: largest commutative nilpotent subsemigroup, on the same rows
        best_nilpotent = max_clique_bits(rows, best_nilpotent)[0]
    r = _search(pools, f"max_null({n},{kind})", _tag_null, lambda T, z: is_null(T) == (True, z))
    if best_nilpotent != r.size:
        raise RuntimeError(
            f"nilpotent maximum {best_nilpotent} disagrees with null maximum {r.size} "
            f"at n={n}, kind={kind}"
        )
    return r


def max_abelian_subgroup(n: int) -> OracleResult:
    """Largest abelian subgroup of the symmetric group, by clique search."""
    _check_degree("abelian-max", n, "full")
    S = enumerate_sym(n)
    ident = Transformation.identity(n)
    verts = [a for a in S if a != ident]
    adj = commuting_rows(verts)
    omega, cliques, _ = max_clique_bits(adj)
    elems = [verts[i] for i in cliques[0]] + [ident]
    T = _checked_set(elems, context=f"max_abelian_subgroup({n})")
    if not is_group(T):
        raise RuntimeError("abelian-subgroup witness failed the group check")
    return OracleResult(omega + 1, (T,), (f"ABELIAN:{len(T)}",))


# ---------------------------------------------------------------------------
# the random generator


def random_commutative_unique_idem(n: int, seed: int) -> SemigroupSet:
    """Seeded random closed commutative semigroup with one idempotent ≠ id.

    Each batch draws up to three random maps, keeping a pairwise-commuting
    set (with a bounded number of redraws per slot), closes it (abandoning
    runaway closures), and rejects the closure unless it has exactly one
    idempotent other than the identity.  The largest acceptable closure of
    the first 60 batches is returned — single random maps commute rarely,
    so without the best-of step nearly every output would be a tiny cyclic
    semigroup.  Deterministic per seed.

    Each image point is drawn as ``rng.randrange(n)`` draws it (the same
    ``getrandbits`` calls, rejecting values ≥ n), so the output is the same
    as drawing ``Transformation`` objects with ``randrange``.  Candidates
    are drawn, commute-tested, closed (by the closure kernel) and screened
    on their image bytes; only the returned best becomes a set.
    """
    if n < 2:
        raise ValueError(f"degree must be at least 2, got {n}")
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    bits = n.bit_length()
    ident = Transformation.identity(n).img  # checks the degree before any draw
    fill = _FILL[n]
    best: list[bytes] | None = None
    for batch in range(2000):
        if best is not None and batch >= 60:
            break
        want = rng.randint(1, 3)
        gens: list[bytes] = []  # duplicates kept: each one counts toward want
        tables: list[bytes] = []
        tries = 0
        while len(gens) < want and tries < 25:
            tries += 1
            draw = []
            for _ in range(n):
                r = getrandbits(bits)
                while r >= n:
                    r = getrandbits(bits)
                draw.append(r)
            cand = bytes(draw)
            table = cand + fill
            for g, t in zip(gens, tables):
                if cand.translate(t) != g.translate(table):  # cand·g ≠ g·cand
                    break
            else:
                gens.append(cand)
                tables.append(table)
        if not gens:
            continue
        try:
            imgs = _closure_images(list(dict.fromkeys(gens)), 400)
        except ClosureLimitExceeded:
            continue
        e = _sole_idempotent(imgs, n)
        if e is None or e == ident:
            continue
        if not _all_commute(imgs, [a + fill for a in imgs]):  # cannot happen: commuting generators
            raise RuntimeError("closure of commuting generators is not commutative")
        if best is None or len(imgs) > len(best):
            best = imgs
    if best is None:
        raise RuntimeError(
            f"could not generate a unique-idempotent semigroup of degree {n} "
            f"after 2000 attempts (seed {seed})"
        )
    return _from_images(Transformation, best, closed=True, commutative=True)


# ---------------------------------------------------------------------------
# the claim registry behind the CLI's verify command


class Claim(NamedTuple):
    """One published value, the code that recomputes it, and where it runs.

    ``expected(n, kind)`` is the published value and raises ValueError
    outside the published domain.  ``compute(n, kind)`` returns the
    recomputed value and the witness sets behind it.  ``degrees`` maps
    each kind to the inclusive degree range ``compute`` accepts.  From
    degree ``certified_from`` on, ``compute`` checks a certificate built
    directly instead of searching.
    """

    expected: Callable[[int, str], object]
    compute: Callable[[int, str], tuple[object, tuple[SemigroupSet, ...]]]
    degrees: dict[str, tuple[int, int]]
    certified_from: float = math.inf


def _published(claim: str, value, full=None, partial=None):
    """``expected`` for a claim: ``value(n, is_full)`` on the published ranges."""
    ranges = {"full": full, "partial": partial}

    def expected(n: int, kind: str):
        span = ranges.get(kind)
        if span is None or not span[0] <= n <= span[1]:
            raise ValueError(f"no published value for {claim} at n={n}, kind={kind}")
        return value(n, kind == "full")

    return expected


def _comm(n: int, full: bool) -> int:
    return 2 ** (n - 1) if full else 2**n


def _xi(n: int, full: bool) -> int:
    return TABLE1[n if full else n + 1][1]


def _unique_idem(n: int, full: bool) -> int:
    return n if full and n <= 4 else _xi(n, full)


def _pclique(n: int, full: bool) -> int:
    # The commutative maximum minus the center: {id} in T_n, {id, ∅} in P_n.
    return _comm(n, full) - (1 if full else 2)


def _witnessed(r: OracleResult) -> tuple[int, tuple[SemigroupSet, ...]]:
    return r.size, r.maximizers


def _compute_abelian(n: int, kind: str):
    _check_degree("abelian-max", n, kind)
    return _witnessed(max_abelian_subgroup(n))


def _generators(n: int, kind: str) -> list[bytes]:
    """A generating set of T_n or P_n, on image bytes.

    (0 1) and (0 1 … n−1) generate Sym_n; with the idempotent of rank n − 1
    that sends 0 to 1 they generate T_n, and with the partial identity on
    X∖{0} too, P_n.  A map that commutes with each generator commutes with
    every product of them, so it is central.  At n = 1 they are id (and ∅).
    """
    identity = bytes(range(n))
    tail = identity[1:]
    gens = [identity[1::-1] + identity[2:], tail + identity[:1], bytes([min(1, n - 1)]) + tail]
    if kind == "partial":
        gens.append(bytes([n]) + tail)
    return gens


def _certify(claim: str, n: int, kind: str, path: list[bytes], left: bool) -> None:
    """RuntimeError unless ``path`` is a path of the commuting graph of T_n or P_n.

    Its maps must be distinct, non-central by the generator test
    (:func:`_generators`), and each must commute with the next, by the byte
    rule of :mod:`.semigroups`.  A left path's ends must act alike on each
    map y of it, first·y = last·y, as :func:`.graphs.shortest_left_path`
    reads it; any other path must close into a cycle, its ends commuting.
    """
    fill = _FILL[n]
    tables = [a + fill for a in path]
    first, last = path[0], path[-1]
    steps = zip(path, tables, path[1:], tables[1:])
    if left:
        ends = list(map(first.translate, tables)) == list(map(last.translate, tables))
    else:
        ends = first.translate(tables[-1]) == last.translate(tables[0])
    if not (
        len(set(path)) == len(path)
        and not any(_commute_with_all(path, _generators(n, kind)))
        and all(a.translate(tb) == b.translate(ta) for a, ta, b, tb in steps)
        and ends
    ):
        raise RuntimeError(f"{claim} certificate fails its check at n={n}, kind={kind}: {path!r}")


def _compute_girth(n: int, kind: str):
    """∞ at n = 2, by a search of the 4 or 9 maps; else 3, by a checked triangle.

    A simple graph has no shorter cycle.  The triangle (:func:`_certify`) is
    the idempotents of Γ(n, 0) that send 1, 2 or both to 0 in T_n, and the
    partial identities on X∖{0}, X∖{1} and X∖{0, 1} in P_n: no set of
    2^(n−1) maps or more is built.
    """
    _check_degree("girth", n, kind)
    if n == 2:
        return girth(build((enumerate_full if kind == "full" else enumerate_partial)(n))), ()
    sink, sent = (0, ({1}, {2}, {1, 2})) if kind == "full" else (n, ({0}, {1}, {0, 1}))
    triangle = [bytes(sink if x in s else x for x in range(n)) for s in sent]
    _certify("girth", n, kind, triangle, left=False)
    return 3, ()


def _compute_knit(n: int, kind: str):
    """None at n = 2, by a search of lengths 1..4; else 1, by a checked left path.

    The path (:func:`_certify`) is :func:`.extremal.knit_witness`, two full
    maps, so maps of P_n too.  A path has at least one edge, so 1 is least.
    """
    _check_degree("knit", n, kind)
    if n == 2:
        return knit_degree((enumerate_full if kind == "full" else enumerate_partial)(n), 4), ()
    path = [a.img for a in knit_witness(n)]
    _certify("knit", n, kind, path, left=True)
    return len(path) - 1, ()


def _compute_pclique(n: int, kind: str):
    """The clique number of the commuting graph, and its least maximum clique.

    The center commutes with everything, so the graph's maximum cliques are
    the maximizers of :func:`max_commutative` minus the center.  The center
    lies in every maximizer, so only the first one's maps are tested, against
    the generators of T_n or P_n (:func:`_generators`).  The witness is the
    least in canonical order.
    """
    _check_degree("pclique", n, kind)
    r = max_commutative(n, kind)
    first = r.maximizers[0].images
    center = set(itertools.compress(first, _commute_with_all(first, _generators(n, kind))))
    cliques = [[a for a in T.images if a not in center] for T in r.maximizers]
    return r.size - len(center), (_from_images(r.maximizers[0].element_class, min(cliques)),)


def _compute_xi_table(n: int, kind: str):
    _check_degree("xi-table", n, kind)
    return [(r.n, r.alpha, r.xi) for r in xi_table(n)], ()


_FROM_2 = (2, math.inf)  # published for every degree n ≥ 2

# The searches are looked up by module name at call time (not captured
# here), so anything that rebinds them, such as a tracer, sees every call.
CLAIMS: dict[str, Claim] = {
    "comm-max": Claim(
        _published("comm-max", _comm, (2, 6), (2, 5)),
        lambda n, kind: _witnessed(max_commutative(n, kind)),
        {"full": (1, 6), "partial": (1, 5)},
    ),
    "idem-max": Claim(
        _published("idem-max", _comm, (1, math.inf), (1, math.inf)),
        lambda n, kind: _witnessed(max_commutative_idempotent(n, kind)),
        {"full": (1, 8), "partial": (1, 7)},
    ),
    "unique-idem-max": Claim(
        _published("unique-idem-max", _unique_idem, (1, 20), (1, 19)),
        lambda n, kind: _witnessed(max_unique_idempotent(n, kind)),
        {"full": (1, 7), "partial": (1, 6)},
    ),
    "null-max": Claim(
        _published("null-max", _xi, (1, 20), (1, 19)),
        lambda n, kind: _witnessed(max_null(n, kind)),
        {"full": (1, 7), "partial": (1, 6)},
    ),
    "abelian-max": Claim(
        _published("abelian-max", lambda n, full: ABELIAN_ORDERS[n], full=(2, 12)),
        _compute_abelian,
        {"full": (2, 7)},
    ),
    "pclique": Claim(
        _published("pclique", _pclique, (2, 6), (2, 5)),
        _compute_pclique,
        {"full": (2, 6), "partial": (2, 5)},
    ),
    "girth": Claim(
        _published("girth", lambda n, full: math.inf if n == 2 else 3, _FROM_2, _FROM_2),
        _compute_girth,
        {"full": (2, _MAX_DEGREE), "partial": (2, _MAX_DEGREE)},
        certified_from=3,
    ),
    "knit": Claim(
        _published("knit", lambda n, full: None if n == 2 else 1, _FROM_2, _FROM_2),
        _compute_knit,
        {"full": (2, _MAX_DEGREE), "partial": (2, _MAX_DEGREE)},
        certified_from=3,
    ),
    "xi-table": Claim(
        _published(
            "xi-table", lambda n, full: [(k, *TABLE1[k]) for k in range(1, n + 1)], (1, 20), (1, 20)
        ),
        _compute_xi_table,
        {"full": (1, 20), "partial": (1, 20)},
    ),
}


def expected_value(claim: str, n: int, kind: str):
    """The published value a computation must reproduce, or ValueError."""
    if claim not in CLAIMS:
        raise ValueError(f"unknown claim {claim!r}")
    return CLAIMS[claim].expected(n, kind)
