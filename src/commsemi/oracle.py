"""Brute-force verification of the extremal claims at small degrees.

Every "largest commutative such-and-such" question is reduced to an exact
maximum-clique problem on a small induced graph:

* commutative: cliques of the commuting graph; the center is not split
  off, since a central element is adjacent to every other vertex and so
  lies in every maximum clique;
* commutative of idempotents: the same graph induced on the idempotents;
* unique idempotent: for each idempotent f, the commuting graph induced on
  the elements whose power sequence stabilises at f (a maximum clique there
  automatically contains f and is product-closed, since powers and products
  of commuting elements stay in the class);
* null: for each idempotent z, vertices with square z that absorb z (all
  in z's ω-class), and adjacency "commuting pairs whose product is z";
* abelian subgroup: the commuting graph of the symmetric group.

The first four share one driver, :func:`_search`, with one clique search
per pool that keeps every tie.  None of the reductions is taken on faith:
every answer set is re-checked for product closure (and whatever structure
the claim demands) before it is reported, and the module-wide counter
records every such check so a test run can assert that no violation ever
occurred.
"""

from __future__ import annotations

import math
import random
from typing import Callable, NamedTuple

from .extremal import (
    e_ix,
    gamma,
    null_max,
    omega_pn,
    xi_alpha,
    xi_table,
)
from .graphs import (
    _bits_to_list,
    build,
    commuting_rows,
    girth,
    knit_degree,
    max_clique,
    max_clique_bits,
)
from .semigroups import (
    ClosureLimitExceeded,
    SemigroupSet,
    _all_commute,
    _closure_images,
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
# omega_power is unused here, but perfbench/test_harness.py pins this binding.
from .transform import _FILL, Transformation, _omega_image, _raw, omega_power, product

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
        raise ValueError(f"{claim} is computed exhaustively, capped at {caps}; got n={n}")


def _enumerate(claim: str, n: int, kind: str) -> SemigroupSet:
    """All of T_n or P_n, once the claim's degree range admits n."""
    _check_degree(claim, n, kind)
    return enumerate_full(n) if kind == "full" else enumerate_partial(n)


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
    ``items``, searched with the best size so far as its floor.  Only the
    final answers are re-checked by :func:`_checked_set`, must satisfy
    ``check(T, key)`` and are labelled by ``tag(T)``; they come back in
    canonical order.
    """
    best, found = 0, []
    for key, items, adj in pools:
        size, cliques, _ = max_clique_bits(adj, best, ties=True)
        if size > best:
            best, found = size, []
        found += [(key, items, K) for K in cliques]
    results = []
    for key, items, K in found:
        T = _checked_set([items[i] for i in K], context=f"{context}, pool {key!r}")
        if not check(T, key):
            raise RuntimeError(f"{context}: pool {key!r} produced {T!r}, which fails its check")
        results.append((T, tag(T)))
    results.sort(key=lambda st: st[0].images)
    return OracleResult(best, tuple(T for T, _ in results), tuple(t for _, t in results))


def max_commutative(n: int, kind: str) -> OracleResult:
    """Largest commutative subsemigroup, with every maximizer enumerated."""
    items = _enumerate("comm-max", n, kind).elements
    return _search(
        [(kind, items, commuting_rows(items))],
        f"max_commutative({n},{kind})",
        _tag_commutative,
        lambda T, _: True,
    )


def max_commutative_idempotent(n: int, kind: str) -> OracleResult:
    """Largest commutative subsemigroup consisting of idempotents."""
    items = idempotents(_enumerate("idem-max", n, kind))
    return _search(
        [(kind, items, commuting_rows(items))],
        f"max_commutative_idempotent({n},{kind})",
        _tag_commutative,
        lambda T, _: len(idempotents(T)) == len(T),
    )


def _omega_classes(S: SemigroupSet) -> dict:
    """S split by ω-power: idempotent f ↦ the elements whose powers reach f.

    Keys come in the order S first reaches their classes, members in S's
    order.  The ω-powers are walked on image bytes, with no product as an element.
    """
    classes: dict[bytes, list] = {}
    for a in S:
        classes.setdefault(_omega_image(a.img), []).append(a)
    return {_raw(S.element_class, f): members for f, members in classes.items()}


def max_unique_idempotent(n: int, kind: str) -> OracleResult:
    """Largest commutative subsemigroup with exactly one idempotent.

    Grouping by the stabilising power splits the problem by idempotent: a
    commuting set whose members all have ω-power f is exactly a clique in
    the induced graph of f's class, and maximum cliques there are closed
    and contain f.
    """
    S = _enumerate("unique-idem-max", n, kind)
    return _search(
        [(f, items, commuting_rows(items)) for f, items in _omega_classes(S).items()],
        f"max_unique_idempotent({n},{kind})",
        _tag_unique_idem,
        lambda T, f: idempotents(T) == [f],
    )


def max_null(n: int, kind: str) -> OracleResult:
    """Largest null subsemigroup; also cross-checks the nilpotent maximum.

    For a candidate zero z, a null semigroup with zero z is exactly a clique
    of commuting pairs whose product is z, on the vertices with square z
    that absorb z.  Those vertices lie in z's ω-class (a² = z forces
    ω(a) = z), so both routes search the ω-classes, computed once.  The
    nilpotent maximum (commuting cliques on {α : ω-power = z, αz = zα = z})
    must agree with the null maximum at these degrees; a disagreement aborts.
    """
    S = _enumerate("null-max", n, kind)
    pools = []
    best_nilpotent = 0
    fill = _FILL[n]
    for z, cls in _omega_classes(S).items():
        # az = z = za, then a² = z, then ab = z, on image bytes as in semigroups
        zero, tz = z.img, z.img + fill
        nil = [a for a in cls if a.img.translate(tz) == zero == zero.translate(a.img + fill)]
        items = [a for a in nil if a.img.translate(a.img + fill) == zero]
        tables = [a.img + fill for a in items]
        adj = [
            sum(1 << j for j in _bits_to_list(row) if a.img.translate(tables[j]) == zero)
            for a, row in zip(items, commuting_rows(items))
        ]
        pools.append((z, items, adj))
        # independent route: largest commutative nilpotent subsemigroup
        best_nilpotent = max_clique_bits(commuting_rows(nil), best_nilpotent)[0]
    r = _search(
        pools,
        f"max_null({n},{kind})",
        _tag_null,
        lambda T, z: is_null(T) == (True, z),
    )
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
    each kind to the inclusive degree range ``compute`` accepts.
    """

    expected: Callable[[int, str], object]
    compute: Callable[[int, str], tuple[object, tuple[SemigroupSet, ...]]]
    degrees: dict[str, tuple[int, int]]


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


def _compute_pclique(n: int, kind: str):
    S = _enumerate("pclique", n, kind)
    res = max_clique(build(S))
    return res.size, (SemigroupSet([S.elements[i] for i in res.witness]),)


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
        {"full": (1, 5), "partial": (1, 4)},
    ),
    "idem-max": Claim(
        _published("idem-max", _comm, (1, math.inf), (1, math.inf)),
        lambda n, kind: _witnessed(max_commutative_idempotent(n, kind)),
        {"full": (1, 6), "partial": (1, 5)},
    ),
    "unique-idem-max": Claim(
        _published("unique-idem-max", _unique_idem, (1, 20), (1, 19)),
        lambda n, kind: _witnessed(max_unique_idempotent(n, kind)),
        {"full": (1, 6), "partial": (1, 5)},
    ),
    "null-max": Claim(
        _published("null-max", _xi, (1, 20), (1, 19)),
        lambda n, kind: _witnessed(max_null(n, kind)),
        {"full": (1, 6), "partial": (1, 5)},
    ),
    "abelian-max": Claim(
        _published("abelian-max", lambda n, full: ABELIAN_ORDERS[n], full=(2, 12)),
        _compute_abelian,
        {"full": (2, 6)},
    ),
    "pclique": Claim(
        _published("pclique", _pclique, (2, 6), (2, 5)),
        _compute_pclique,
        {"full": (2, 5), "partial": (2, 4)},
    ),
    "girth": Claim(
        _published("girth", lambda n, full: math.inf if n == 2 else 3, _FROM_2, _FROM_2),
        lambda n, kind: (girth(build(_enumerate("girth", n, kind))), ()),
        {"full": (2, 5), "partial": (2, 4)},
    ),
    "knit": Claim(
        _published("knit", lambda n, full: None if n == 2 else 1, _FROM_2, _FROM_2),
        lambda n, kind: (knit_degree(_enumerate("knit", n, kind), max_len=4), ()),
        {"full": (2, 6), "partial": (2, 5)},
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
