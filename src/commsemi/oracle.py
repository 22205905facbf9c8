"""Brute-force verification of the extremal claims at small degrees.

Every "largest commutative such-and-such" question is reduced to an exact
maximum-clique problem on a small induced graph:

* commutative: cliques of the commuting graph, answer ω + |center|;
* commutative of idempotents: the same graph induced on the idempotents;
* unique idempotent: for each idempotent f, the commuting graph induced on
  the elements whose power sequence stabilises at f (a maximum clique there
  automatically contains f and is product-closed, since powers and products
  of commuting elements stay in the class);
* null: for each idempotent z, vertices with square z that absorb z (all
  in z's ω-class), and adjacency "both products equal z";
* abelian subgroup: the commuting graph of the symmetric group.

None of the reductions is taken on faith: every answer set is re-checked
for product closure (and whatever structure the claim demands) before it is
reported, and the module-wide counter records every such check so a test
run can assert that no violation ever occurred.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Callable, NamedTuple

from .extremal import (
    e_ix,
    gamma,
    null_max,
    null_plus_identity,
    omega_pn,
    xi_alpha,
    xi_table,
)
from .graphs import (
    all_max_cliques_bits,
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
    center,
    classify_small_abelian_group,
    closure,
    enumerate_full,
    enumerate_partial,
    enumerate_sym,
    has_unique_idempotent,
    idempotents,
    is_group,
    is_null,
    unique_idempotent,
)
from .transform import Transformation, is_idempotent, omega_power, product

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
    commutative subsemigroup.  A failure dumps the offending pair.
    """
    T = SemigroupSet(elements)
    _stats["checks"] += 1
    members = set(T.elements)
    for a in T:
        for b in T:
            ab, ba = product(a, b), product(b, a)
            if ab != ba or ab not in members:
                _stats["violations"] += 1
                raise RuntimeError(
                    f"closure check failed in {context}: a={a!r} b={b!r} "
                    f"ab={ab!r} ba={ba!r} member={ab in members}"
                )
    return SemigroupSet(T.elements, closed=True, commutative=True)


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


def _sorted_results(pairs) -> tuple[tuple[SemigroupSet, ...], tuple[str, ...]]:
    pairs = sorted(pairs, key=lambda st: st[0].elements)
    return tuple(s for s, _ in pairs), tuple(t for _, t in pairs)


# ---------------------------------------------------------------------------
# maximizer tagging


def _tag_commutative(T: SemigroupSet) -> str:
    n = T.degree
    if T.kind == "full":
        for x in range(n):
            if T == gamma(n, x):
                return f"GAMMA:{x}"
    else:
        if T == e_ix(n):
            return "EIX"
    if is_group(T):
        return "GROUP:" + classify_small_abelian_group(T)
    return "OTHER"


def _tag_null(T: SemigroupSet) -> str:
    n = T.degree
    if T.kind == "full":
        if len(T) == 1 and T.elements[0] == Transformation.identity(n):
            return "ID"
        t = xi_alpha(n).alpha
        for x1 in range(n):
            rest_pool = [y for y in range(n) if y != x1]
            for rest in itertools.combinations(rest_pool, t - 1):
                if T == null_max(n, [x1, *rest]):
                    return f"NULL:N({x1};{','.join(map(str, rest))})"
    else:
        t = xi_alpha(n + 1).alpha
        for B in itertools.combinations(range(n), t - 1):
            if T == omega_pn(n, B):
                return f"NULL:OMEGA({','.join(map(str, B))})"
    return "NULL:?"


def _tag_unique_idem(T: SemigroupSet) -> str:
    if is_group(T):
        return "GROUP:" + classify_small_abelian_group(T)
    if is_null(T)[0]:
        return _tag_null(T)
    return "OTHER"


# ---------------------------------------------------------------------------
# the five oracle searches


def _cliques_plus_center(S: SemigroupSet, pool, central: list, context: str) -> OracleResult:
    """Every maximum clique of the commuting graph on pool ∖ central, plus central."""
    central_set = set(central)
    verts = [a for a in pool if a not in central_set]
    adj = commuting_rows(verts)
    omega, _, _ = max_clique_bits(adj)
    results = []
    for K in all_max_cliques_bits(adj, omega):
        T = _checked_set([verts[i] for i in K] + central, context=context)
        results.append((T, _tag_commutative(T)))
    maximizers, tags = _sorted_results(results)
    return OracleResult(omega + len(central), maximizers, tags)


def max_commutative(n: int, kind: str) -> OracleResult:
    """Largest commutative subsemigroup, with every maximizer enumerated."""
    S = _enumerate("comm-max", n, kind)
    central = list(center(S).elements)
    return _cliques_plus_center(S, S.elements, central, f"max_commutative({n},{kind})")


def max_commutative_idempotent(n: int, kind: str) -> OracleResult:
    """Largest commutative subsemigroup consisting of idempotents."""
    S = _enumerate("idem-max", n, kind)
    central = [a for a in center(S) if is_idempotent(a)]
    r = _cliques_plus_center(
        S, idempotents(S), central, f"max_commutative_idempotent({n},{kind})"
    )
    if not all(is_idempotent(a) for T in r.maximizers for a in T):
        raise RuntimeError("idempotent search produced a non-idempotent element")
    return r


def _omega_classes(S: SemigroupSet) -> dict:
    """S split by ω-power: idempotent f ↦ the elements whose powers reach f.

    One ``omega_power`` call per element; each class keeps S's order.
    """
    classes: dict = {}
    for a in S:
        classes.setdefault(omega_power(a), []).append(a)
    return classes


def max_unique_idempotent(n: int, kind: str) -> OracleResult:
    """Largest commutative subsemigroup with exactly one idempotent.

    Grouping by the stabilising power splits the problem by idempotent: a
    commuting set whose members all have ω-power f is exactly a clique in
    the induced graph of f's class, and maximum cliques there are closed
    and contain f.
    """
    S = _enumerate("unique-idem-max", n, kind)
    per_class = {}
    best = 0
    for f, items in _omega_classes(S).items():
        adj = commuting_rows(items)
        size, _, _ = max_clique_bits(adj)
        per_class[f] = (items, adj, size)
        best = max(best, size)
    results = []
    for f, (items, adj, size) in sorted(per_class.items(), key=lambda kv: kv[0]):
        if size != best:
            continue
        for K in all_max_cliques_bits(adj, size):
            elems = [items[i] for i in K]
            T = _checked_set(elems, context=f"max_unique_idempotent({n},{kind},f={f!r})")
            if not has_unique_idempotent(T) or unique_idempotent(T) != f:
                raise RuntimeError(
                    f"class of {f!r} produced a clique with foreign idempotents"
                )
            results.append((T, _tag_unique_idem(T)))
    maximizers, tags = _sorted_results(results)
    return OracleResult(best, maximizers, tags)


def max_null(n: int, kind: str) -> OracleResult:
    """Largest null subsemigroup; also cross-checks the nilpotent maximum.

    For a candidate zero z, a null semigroup with zero z is exactly a clique
    under the adjacency "both products equal z" on the vertices with square
    z that absorb z.  Those vertices lie in z's ω-class (a² = z forces
    ω(a) = z), so both routes search the ω-classes, computed once.  The
    nilpotent maximum (commuting cliques on {α : ω-power = z, αz = zα = z})
    must agree with the null maximum at these degrees; a disagreement aborts.
    """
    S = _enumerate("null-max", n, kind)
    per_zero = {}
    best = 0
    best_nilpotent = 0
    for z, cls in sorted(_omega_classes(S).items(), key=lambda kv: kv[0]):
        nil = [a for a in cls if product(a, z) == z and product(z, a) == z]
        items = [a for a in nil if product(a, a) == z]
        m = len(items)
        adj = [0] * m
        for i in range(m):
            a = items[i]
            for j in range(i + 1, m):
                b = items[j]
                if product(a, b) == z and product(b, a) == z:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        size, _, _ = max_clique_bits(adj)
        per_zero[z] = (items, adj, size)
        best = max(best, size)
        # independent route: largest commutative nilpotent subsemigroup
        best_nilpotent = max(best_nilpotent, max_clique_bits(commuting_rows(nil))[0])
    if best_nilpotent != best:
        raise RuntimeError(
            f"nilpotent maximum {best_nilpotent} disagrees with null maximum {best} "
            f"at n={n}, kind={kind}"
        )

    results = []
    for z, (items, adj, size) in per_zero.items():
        if size != best:
            continue
        for K in all_max_cliques_bits(adj, size):
            elems = [items[i] for i in K]
            T = _checked_set(elems, context=f"max_null({n},{kind},z={z!r})")
            ok, zero = is_null(T)
            if not ok or zero != z:
                raise RuntimeError(f"null search for zero {z!r} produced a non-null set")
            results.append((T, _tag_null(T)))
    maximizers, tags = _sorted_results(results)
    return OracleResult(best, maximizers, tags)


def max_abelian_subgroup(n: int) -> OracleResult:
    """Largest abelian subgroup of the symmetric group, by clique search."""
    _check_degree("abelian-max", n, "full")
    S = enumerate_sym(n)
    ident = Transformation.identity(n)
    verts = [a for a in S if a != ident]
    adj = commuting_rows(verts)
    omega, witness, _ = max_clique_bits(adj)
    elems = [verts[i] for i in witness] + [ident]
    T = _checked_set(elems, context=f"max_abelian_subgroup({n})")
    if not is_group(T):
        raise RuntimeError("abelian-subgroup witness failed the group check")
    return OracleResult(omega + 1, (T,), (f"ABELIAN:{len(T)}",))


# ---------------------------------------------------------------------------
# generators and out-of-regime bounds


def random_commutative_unique_idem(n: int, seed: int) -> SemigroupSet:
    """Seeded random closed commutative semigroup with one idempotent ≠ id.

    Each batch draws up to three random maps, keeping a pairwise-commuting
    set (with a bounded number of redraws per slot), closes it (abandoning
    runaway closures), and rejects the closure unless it has exactly one
    idempotent other than the identity.  The largest acceptable closure of
    the first 60 batches is returned — single random maps commute rarely,
    so without the best-of step nearly every output would be a tiny cyclic
    semigroup.  Deterministic per seed.
    """
    if n < 2:
        raise ValueError(f"degree must be at least 2, got {n}")
    rng = random.Random(seed)
    ident = Transformation.identity(n)
    best: SemigroupSet | None = None
    for batch in range(2000):
        if best is not None and batch >= 60:
            break
        want = rng.randint(1, 3)
        gens: list[Transformation] = []
        tries = 0
        while len(gens) < want and tries < 25:
            tries += 1
            cand = Transformation(tuple(rng.randrange(n) for _ in range(n)))
            if all(product(cand, g) == product(g, cand) for g in gens):
                gens.append(cand)
        if not gens:
            continue
        try:
            S = closure(gens, limit=400)
        except ClosureLimitExceeded:
            continue
        if not has_unique_idempotent(S):
            continue
        if unique_idempotent(S) == ident:
            continue
        if not S.is_commutative():  # cannot happen: commuting generators
            raise RuntimeError("closure of commuting generators is not commutative")
        if best is None or len(S) > len(best):
            best = SemigroupSet(S.elements, closed=True, commutative=True)
    if best is None:
        raise RuntimeError(
            f"could not generate a unique-idempotent semigroup of degree {n} "
            f"after 2000 attempts (seed {seed})"
        )
    return best


def conjecture_lower_bound(n: int) -> tuple[int, SemigroupSet]:
    """Certified lower bound ξ(n)+1 beyond the exact regime; not a maximum.

    The set is the maximal null semigroup plus the identity; its size,
    commutativity, closure, and two-idempotent structure are re-verified
    element by element here.
    """
    if n < 7:
        raise ValueError(f"the exact theorems cover n < 7; got {n}")
    if n > 12:
        raise ValueError(f"lower-bound construction capped at n = 12; got {n}")
    S = null_plus_identity(n)
    expected = TABLE1[n][1] + 1
    if len(S) != expected:
        raise RuntimeError(f"lower bound has size {len(S)}, expected {expected}")
    idem_count = sum(1 for a in S if is_idempotent(a))
    if idem_count != 2:
        raise RuntimeError(f"lower bound has {idem_count} idempotents, expected 2")
    return len(S), S


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
        {"full": (1, 5), "partial": (1, 4)},
    ),
    "null-max": Claim(
        _published("null-max", _xi, (1, 20), (1, 19)),
        lambda n, kind: _witnessed(max_null(n, kind)),
        {"full": (1, 5), "partial": (1, 4)},
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
