"""Finite sets of (partial) transformations viewed as semigroups.

A :class:`SemigroupSet` is an immutable, canonically sorted collection of
same-degree elements of one kind (``"full"`` or ``"partial"``) plus two
cached tri-state flags (closed / commutative: True, False or unknown).
Everything else — closure, center, idempotents, the structural predicates
and restriction — lives in module-level functions.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterable, Iterator

from .transform import (
    AnyTransformation,
    PartialTransformation,
    Transformation,
    _FILL,
    _raw,
    compose,
    is_idempotent as _is_idempotent_el,
    restrict as _restrict,
)

FULL = "full"
PARTIAL = "partial"

# Enumeration guards on the input degree (T_8 has 16.7M elements).
MAX_FULL_DEGREE = 7
MAX_PARTIAL_DEGREE = 5
MAX_SYM_DEGREE = 8


class ClosureLimitExceeded(RuntimeError):
    """Raised when a closure grows past the caller-supplied size limit."""


_IMG = operator.attrgetter("img")


def _kind_of(types: set[type]) -> str:
    """The kind shared by elements of these types; TypeError if there is none."""
    kinds = set()
    for cls in sorted(types, key=lambda c: c.__name__):
        if issubclass(cls, Transformation):
            kinds.add(FULL)
        elif issubclass(cls, PartialTransformation):
            kinds.add(PARTIAL)
        else:
            raise TypeError(f"unsupported element type {cls.__name__}")
    if len(kinds) != 1:
        raise TypeError("elements must all be of the same kind")
    return kinds.pop()


class SemigroupSet:
    """Duplicate-free, canonically sorted set of transformations of one kind.

    The canonical order is the order of the image bytes ``a.img``, with ⊥
    (stored as the degree) after every point; sorting on that key keeps
    every comparison in C.
    """

    __slots__ = ("degree", "kind", "elements", "_set", "_closed", "_commutative")

    def __init__(
        self,
        elements: Iterable[AnyTransformation],
        *,
        closed: bool | None = None,
        commutative: bool | None = None,
    ):
        members = frozenset(elements)
        if not members:
            raise ValueError("a SemigroupSet needs at least one element")
        kind = _kind_of(set(map(type, members)))
        degrees = set(map(len, map(_IMG, members)))
        if len(degrees) != 1:
            raise ValueError("elements must all share one degree")
        (degree,) = degrees
        elems = tuple(sorted(members, key=_IMG))
        self.degree = degree
        self.kind = kind
        self.elements = elems
        self._set = members
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
            imgs, tables = _images_and_tables(self)
            members = set(imgs)
            self._closed = all(
                members.issuperset(map(bytes.translate, imgs, itertools.repeat(t)))
                for t in tables
            )
        return self._closed

    def is_commutative(self) -> bool:
        if self._commutative is None:
            self._commutative = _all_commute(*_images_and_tables(self))
        return self._commutative


def _images_and_tables(S: SemigroupSet) -> tuple[list[bytes], list[bytes]]:
    """The image bytes of S's elements, and each one's ``translate`` table.

    ``a.translate(t_b)`` is the image of the product ab, so the predicates
    test all |S|² pairs in C, without an element object per product.
    """
    imgs = list(map(_IMG, S.elements))
    fill = _FILL[S.degree]
    return imgs, [img + fill for img in imgs]


def _commutes_with(
    x: bytes, tx: bytes, imgs: Iterable[bytes], tables: Iterable[bytes]
) -> Iterator[bool]:
    """For each image y of ``imgs`` in turn, whether xy = yx: lazily, in C.

    ``tx`` is x's table and ``tables`` yields each y's, as above, so
    ``x.translate(t_y)`` is xy and ``y.translate(t_x)`` is yx.
    """
    xys = map(x.translate, tables)
    return map(operator.eq, xys, map(bytes.translate, imgs, itertools.repeat(tx)))


def _all_commute(imgs: list[bytes], tables: list[bytes]) -> bool:
    """True iff ab = ba for all images a, b of one degree (tables as above)."""
    return all(
        all(_commutes_with(a, t, imgs[i + 1 :], tables[i + 1 :]))
        for i, (a, t) in enumerate(zip(imgs, tables))
    )


def closure(
    generators: Iterable[AnyTransformation] | SemigroupSet,
    *,
    limit: int | None = None,
) -> SemigroupSet:
    """Smallest product-closed superset of the generators, ⟨G⟩.

    Every element of ⟨G⟩ is a word in G, so right-multiplying each new
    element by each distinct generator reaches all of it: |⟨G⟩|·|G|
    products on the image bytes, not |⟨G⟩|².  All generators must share one
    kind and degree (TypeError / ValueError as for ``product``).  ``limit``
    aborts runaway growth: :class:`ClosureLimitExceeded` is raised exactly
    when |⟨G⟩| > limit.
    """
    gens = list(dict.fromkeys(generators))
    if not gens:
        raise ValueError("closure needs at least one generator")
    first = gens[0]
    for g in gens:
        compose(first, g)  # raises on a mixed kind or degree, with product's message
    cls = type(first)
    imgs = _closure_images([g.img for g in gens], limit)
    return SemigroupSet([_raw(cls, p) for p in imgs], closed=True)


def _closure_images(gens: list[bytes], limit: int | None) -> list[bytes]:
    """The images of ⟨G⟩, for distinct generator images of one degree.

    The body of :func:`closure`, which checks the generators first; the
    unique-idempotent sampler calls it directly on its draws.
    """
    fill = _FILL[len(gens[0])]
    tables = [g + fill for g in gens]
    imgs = list(gens)
    seen = set(imgs)
    for a in imgs:  # imgs grows while it is walked
        if limit is not None and len(imgs) > limit:
            raise ClosureLimitExceeded(f"closure exceeded the size limit of {limit}")
        for t in tables:
            p = a.translate(t)
            if p not in seen:
                seen.add(p)
                imgs.append(p)
    return imgs


def _require_closed(S: SemigroupSet, op: str) -> None:
    if not S.is_closed():
        raise ValueError(f"{op} requires a product-closed set")


def center(S: SemigroupSet) -> tuple[AnyTransformation, ...]:
    """Z(S): the elements commuting with everything in S, in canonical order.

    A tuple rather than a SemigroupSet, since the center may be empty.  A
    commutative S is its own center, with no pair tested past that flag.
    """
    _require_closed(S, "center")
    if S.is_commutative():
        return S.elements
    imgs, tables = _images_and_tables(S)
    central = (all(_commutes_with(x, t, imgs, tables)) for x, t in zip(imgs, tables))
    return tuple(itertools.compress(S, central))


def idempotents(S: SemigroupSet) -> list[AnyTransformation]:
    return [a for a in S if _is_idempotent_el(a)]


def unique_idempotent(S: SemigroupSet) -> AnyTransformation:
    es = idempotents(S)
    if len(es) != 1:
        raise ValueError(f"expected exactly one idempotent, found {len(es)}")
    return es[0]


def is_null(S: SemigroupSet) -> tuple[bool, AnyTransformation | None]:
    """True iff every product equals one fixed element z (the zero); returns z.

    On image bytes: every row {a·y : y ∈ S} must be {z}, with z = S[0]².
    """
    _require_closed(S, "is_null")
    imgs, tables = _images_and_tables(S)
    z = imgs[0].translate(tables[0])
    if all(set(map(a.translate, tables)) == {z} for a in imgs):
        return True, _raw(type(S[0]), z)
    return False, None


def _sole_idempotent(imgs: list[bytes], tables: list[bytes]) -> bytes | None:
    """The image of the only x with x·x = x, or None; one product per element."""
    es = [a for a, t in zip(imgs, tables) if a.translate(t) == a]
    return es[0] if len(es) == 1 else None


def is_nilpotent(S: SemigroupSet) -> bool:
    """True iff S^k is a single element (then the zero) for some k.

    Exactly when S has a sole idempotent z and za = z for every a (then az =
    z too: z is a power of a).  Such an S is nil, and a product of over |S|
    factors has two equal prefixes p = pu, so p = puᵏ = pz = z.  The
    converse holds as every idempotent e = eᵏ and every za lie in S^k.
    """
    _require_closed(S, "is_nilpotent")
    imgs, tables = _images_and_tables(S)
    z = _sole_idempotent(imgs, tables)
    return z is not None and set(map(z.translate, tables)) == {z}


def is_group(S: SemigroupSet) -> bool:
    """True iff S is a group: closed, with a sole idempotent e and ea = a for all a.

    Each a has an ω-power aᵐ = e, so ae = a too, and a·aᵐ⁻¹ = e (a⁰ = e):
    every element is invertible.
    """
    if not S.is_closed():
        return False
    imgs, tables = _images_and_tables(S)
    e = _sole_idempotent(imgs, tables)
    return e is not None and list(map(e.translate, tables)) == imgs


def classify_small_abelian_group(S: SemigroupSet) -> str:
    """Tag in {C1, C2, C3, C4, C2xC2, OTHER}.

    An order-4 group is C2xC2 iff all its squares are equal (to the
    identity), else C4.  Anything that is not an abelian group of order ≤ 4
    is OTHER.
    """
    if not is_group(S) or not S.is_commutative():
        return "OTHER"
    if len(S) == 4:
        squares = set(map(bytes.translate, *_images_and_tables(S)))
        return "C2xC2" if len(squares) == 1 else "C4"
    return {1: "C1", 2: "C2", 3: "C3"}.get(len(S), "OTHER")


def enumerate_full(n: int) -> SemigroupSet:
    """All n^n total maps of degree n (the full transformation semigroup)."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    if n > MAX_FULL_DEGREE:
        raise ValueError(f"degree {n} exceeds the full-enumeration cap {MAX_FULL_DEGREE}")
    elems = [_raw(Transformation, bytes(img)) for img in itertools.product(range(n), repeat=n)]
    return SemigroupSet(elems, closed=True, commutative=(n <= 1))


def enumerate_partial(n: int) -> SemigroupSet:
    """All (n+1)^n partial maps of degree n."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    if n > MAX_PARTIAL_DEGREE:
        raise ValueError(f"degree {n} exceeds the partial-enumeration cap {MAX_PARTIAL_DEGREE}")
    elems = [
        _raw(PartialTransformation, bytes(img))
        for img in itertools.product(range(n + 1), repeat=n)
    ]
    return SemigroupSet(elems, closed=True, commutative=(n <= 1))


def enumerate_sym(n: int) -> SemigroupSet:
    """The symmetric group on n points, as a closed SemigroupSet of full maps."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    if n > MAX_SYM_DEGREE:
        raise ValueError(f"degree {n} exceeds the permutation-enumeration cap {MAX_SYM_DEGREE}")
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
