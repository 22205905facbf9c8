"""Finite sets of (partial) transformations viewed as semigroups.

A :class:`SemigroupSet` is an immutable, canonically sorted collection of
same-degree elements of one kind (``"full"`` or ``"partial"``) plus two
cached tri-state flags (closed / commutative: True, False or unknown).
Everything else — closure, center, idempotents, the structural predicates
and restriction — lives in module-level functions.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from .transform import (
    AnyTransformation,
    PartialTransformation,
    Transformation,
    _raw,
    compose,
    is_idempotent as _is_idempotent_el,
    restrict as _restrict,
)

FULL = "full"
PARTIAL = "partial"

# Enumeration guards; an explicit force=True overrides (T_8 has 16.7M elements).
MAX_FULL_DEGREE = 7
MAX_PARTIAL_DEGREE = 5
MAX_SYM_DEGREE = 8


class ClosureLimitExceeded(RuntimeError):
    """Raised when a closure grows past the caller-supplied size limit."""


class SemigroupSet:
    """Duplicate-free, canonically sorted set of transformations of one kind."""

    __slots__ = ("degree", "kind", "elements", "_set", "_closed", "_commutative")

    def __init__(
        self,
        elements: Iterable[AnyTransformation],
        *,
        closed: bool | None = None,
        commutative: bool | None = None,
    ):
        elems = tuple(sorted(set(elements)))
        if not elems:
            raise ValueError("a SemigroupSet needs at least one element")
        first = elems[0]
        if isinstance(first, Transformation):
            kind = FULL
            ok = all(isinstance(a, Transformation) for a in elems)
        elif isinstance(first, PartialTransformation):
            kind = PARTIAL
            ok = all(isinstance(a, PartialTransformation) for a in elems)
        else:
            raise TypeError(f"unsupported element type {type(first).__name__}")
        if not ok:
            raise TypeError("elements must all be of the same kind")
        degree = first.degree
        if any(a.degree != degree for a in elems):
            raise ValueError("elements must all share one degree")
        self.degree = degree
        self.kind = kind
        self.elements = elems
        self._set = frozenset(elems)
        self._closed = closed
        self._commutative = commutative

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[AnyTransformation]:
        return iter(self.elements)

    def __contains__(self, a: object) -> bool:
        return a in self._set

    def __getitem__(self, i: int) -> AnyTransformation:
        return self.elements[i]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SemigroupSet)
            and self.kind == other.kind
            and self.degree == other.degree
            and self.elements == other.elements
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.degree, self.elements))

    def __repr__(self) -> str:
        return f"<SemigroupSet kind={self.kind} degree={self.degree} size={len(self)}>"

    # -- cached predicates ----------------------------------------------------

    def is_closed(self) -> bool:
        if self._closed is None:
            members = self._set
            self._closed = all(
                compose(a, b) in members for a in self.elements for b in self.elements
            )
        return self._closed

    def is_commutative(self) -> bool:
        if self._commutative is None:
            elems = self.elements
            self._commutative = all(
                compose(a, b) == compose(b, a)
                for i, a in enumerate(elems)
                for b in elems[i + 1 :]
            )
        return self._commutative

    def identity_element(self) -> AnyTransformation:
        if self.kind == FULL:
            return Transformation.identity(self.degree)
        return PartialTransformation.identity(self.degree)


def is_commutative(S: SemigroupSet) -> bool:
    return S.is_commutative()


def closure(
    generators: Iterable[AnyTransformation] | SemigroupSet,
    *,
    limit: int | None = None,
) -> SemigroupSet:
    """Smallest product-closed superset of the generators.

    Processes each element against everything seen before it (both orders),
    so every pair is eventually covered.  ``limit`` aborts runaway growth
    with :class:`ClosureLimitExceeded`.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("closure needs at least one generator")
    items = list(dict.fromkeys(gens))
    seen = set(items)
    i = 0
    while i < len(items):
        a = items[i]
        for b in items[: i + 1]:
            for p in (compose(a, b), compose(b, a)):
                if p not in seen:
                    seen.add(p)
                    items.append(p)
                    if limit is not None and len(items) > limit:
                        raise ClosureLimitExceeded(
                            f"closure exceeded the size limit of {limit}"
                        )
        i += 1
    return SemigroupSet(items, closed=True)


def _require_closed(S: SemigroupSet, op: str) -> None:
    if not S.is_closed():
        raise ValueError(f"{op} requires a product-closed set")


def center(S: SemigroupSet) -> SemigroupSet:
    """Z(S): the elements commuting with everything in S."""
    _require_closed(S, "center")
    central = [a for a in S if all(compose(a, b) == compose(b, a) for b in S)]
    return SemigroupSet(central, commutative=True)


def idempotents(S: SemigroupSet) -> list[AnyTransformation]:
    return [a for a in S if _is_idempotent_el(a)]


def has_unique_idempotent(S: SemigroupSet) -> bool:
    return len(idempotents(S)) == 1


def unique_idempotent(S: SemigroupSet) -> AnyTransformation:
    es = idempotents(S)
    if len(es) != 1:
        raise ValueError(f"expected exactly one idempotent, found {len(es)}")
    return es[0]


def is_null(S: SemigroupSet) -> tuple[bool, AnyTransformation | None]:
    """True iff every product equals one fixed element z (the zero); returns z."""
    _require_closed(S, "is_null")
    z = compose(S[0], S[0])
    for a in S:
        for b in S:
            if compose(a, b) != z:
                return False, None
    return True, z


def _find_zero(S: SemigroupSet) -> AnyTransformation | None:
    for z in S:
        if all(compose(z, a) == z == compose(a, z) for a in S):
            return z
    return None


def is_nilpotent(S: SemigroupSet) -> bool:
    """True iff S has a zero z and S^k = {z} for some k ≤ |S|."""
    _require_closed(S, "is_nilpotent")
    z = _find_zero(S)
    if z is None:
        return False
    current = set(S.elements)
    target = {z}
    for _ in range(len(S)):
        if current == target:
            return True
        nxt = {compose(a, b) for a in S for b in current}
        if nxt == current:
            return current == target
        current = nxt
    return current == target


def is_group(S: SemigroupSet) -> bool:
    if not S.is_closed():
        return False
    e = None
    for cand in S:
        if all(compose(cand, a) == a == compose(a, cand) for a in S):
            e = cand
            break
    if e is None:
        return False
    for a in S:
        if not any(compose(a, b) == e == compose(b, a) for b in S):
            return False
    return True


def classify_small_abelian_group(S: SemigroupSet) -> str:
    """Tag in {C1, C2, C3, C4, C2xC2, OTHER}.

    Order-4 groups are split by maximal element order (4 → C4, else C2xC2).
    Anything that is not an abelian group of order ≤ 4 is OTHER.
    """
    if not is_group(S) or not S.is_commutative():
        return "OTHER"
    order = len(S)
    if order == 1:
        return "C1"
    if order == 2:
        return "C2"
    if order == 3:
        return "C3"
    if order == 4:
        e = next(c for c in S if all(compose(c, a) == a for a in S))
        max_order = 1
        for a in S:
            p, k = a, 1
            while p != e:
                p = compose(p, a)
                k += 1
            max_order = max(max_order, k)
        return "C4" if max_order == 4 else "C2xC2"
    return "OTHER"


def enumerate_full(n: int, force: bool = False) -> SemigroupSet:
    """All n^n total maps of degree n (the full transformation semigroup)."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    if n > MAX_FULL_DEGREE and not force:
        raise ValueError(
            f"degree {n} exceeds the full-enumeration cap {MAX_FULL_DEGREE}; pass force=True"
        )
    elems = [_raw(Transformation, bytes(img)) for img in itertools.product(range(n), repeat=n)]
    return SemigroupSet(elems, closed=True, commutative=(n <= 1))


def enumerate_partial(n: int, force: bool = False) -> SemigroupSet:
    """All (n+1)^n partial maps of degree n."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    if n > MAX_PARTIAL_DEGREE and not force:
        raise ValueError(
            f"degree {n} exceeds the partial-enumeration cap {MAX_PARTIAL_DEGREE}; pass force=True"
        )
    elems = [
        _raw(PartialTransformation, bytes(img))
        for img in itertools.product(range(n + 1), repeat=n)
    ]
    return SemigroupSet(elems, closed=True, commutative=(n <= 1))


def enumerate_sym(n: int, force: bool = False) -> SemigroupSet:
    """The symmetric group on n points, as a closed SemigroupSet of full maps."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    if n > MAX_SYM_DEGREE and not force:
        raise ValueError(
            f"degree {n} exceeds the permutation-enumeration cap {MAX_SYM_DEGREE}; pass force=True"
        )
    elems = [_raw(Transformation, bytes(img)) for img in itertools.permutations(range(n))]
    return SemigroupSet(elems, closed=True, commutative=(n <= 2))


def restrict_set(S: SemigroupSet, points: Iterable[int]) -> SemigroupSet:
    """Pointwise restriction {α|_Y : α ∈ S}, re-indexed over sorted Y.

    Distinct elements may collide after restriction, so the result can be
    smaller than S.  Closure and commutativity survive restriction, and the
    cached flags are carried over when present.
    """
    if S.kind != FULL:
        raise ValueError("restrict_set is defined for full transformations")
    ys = sorted(set(points))
    restricted = [_restrict(a, ys) for a in S]
    return SemigroupSet(
        restricted,
        closed=True if S._closed else None,
        commutative=True if S._commutative else None,
    )


def image_union(S: SemigroupSet) -> tuple[int, ...]:
    """Union of the images of all elements (defined values only for partial maps)."""
    out: set[int] = set()
    for a in S:
        out.update(a.image())
    return tuple(sorted(out))
