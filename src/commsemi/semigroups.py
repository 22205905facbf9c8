"""Finite sets of (partial) transformations viewed as semigroups.

A :class:`SemigroupSet` is an immutable, canonically sorted collection of
same-degree elements of one kind (``"full"`` or ``"partial"``), held as
their image bytes, plus two cached tri-state flags (closed / commutative:
True, False or unknown).
Everything else — closure, center, idempotents, the structural predicates
and restriction — lives in module-level functions.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterable, Iterator, Sequence

from .transform import (
    AnyTransformation,
    PartialTransformation,
    Transformation,
    _FILL,
    _raw,
    compose,
    is_idempotent as _is_idempotent_el,  # unused here; perfbench/test_harness.py pins it
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


def _class_of(types: set[type]) -> type:
    """The element class for elements of these types; TypeError unless they share a kind.

    One type is its own class; several types of one kind give the kind's class.
    """
    kinds = set()
    for cls in sorted(types, key=lambda c: c.__name__):
        if issubclass(cls, Transformation):
            kinds.add(Transformation)
        elif issubclass(cls, PartialTransformation):
            kinds.add(PartialTransformation)
        else:
            raise TypeError(f"unsupported element type {cls.__name__}")
    if len(kinds) != 1:
        raise TypeError("elements must all be of the same kind")
    return types.pop() if len(types) == 1 else kinds.pop()


class SemigroupSet:
    """Duplicate-free, canonically sorted set of transformations of one kind.

    The set *is* its ``images``: the sorted tuple of its elements' distinct
    image bytes ``a.img``, with ⊥ (stored as the degree) after every point,
    plus the class of its elements.  Size, degree, equality, hashing and
    membership read that tuple; the element objects are built on first use
    of ``elements``, iteration or indexing, one per image, and then kept.
    """

    __slots__ = (
        "images",
        "element_class",
        "_elements",
        "_members",
        "_digest",
        "_closed",
        "_commutative",
    )

    def __init__(
        self,
        elements: Iterable[AnyTransformation],
        *,
        closed: bool | None = None,
        commutative: bool | None = None,
    ):
        elements = list(elements)
        if not elements:
            raise ValueError("a SemigroupSet needs at least one element")
        cls = _class_of(set(map(type, elements)))
        _fill_set(self, cls, map(_IMG, elements), closed, commutative)

    @property
    def degree(self) -> int:
        return len(self.images[0])

    @property
    def kind(self) -> str:
        return FULL if issubclass(self.element_class, Transformation) else PARTIAL

    @property
    def elements(self) -> tuple[AnyTransformation, ...]:
        if self._elements is None:
            cls = self.element_class
            self._elements = tuple([_raw(cls, img) for img in self.images])
        return self._elements

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self.images)

    def __iter__(self) -> Iterator[AnyTransformation]:
        return iter(self.elements)

    def __contains__(self, a: object) -> bool:
        return type(a) is self.element_class and a.img in _members(self)

    def __getitem__(self, i: int) -> AnyTransformation:
        return self.elements[i]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SemigroupSet)
            and self.element_class is other.element_class
            and self.images == other.images
        )

    def __hash__(self) -> int:
        return hash((self.element_class, self.images))

    def __repr__(self) -> str:
        return f"<SemigroupSet kind={self.kind} degree={self.degree} size={len(self)}>"

    # -- cached predicates ----------------------------------------------------

    def is_closed(self) -> bool:
        if self._closed is None:
            imgs, tables = _images_and_tables(self)
            members = _members(self)
            self._closed = all(
                members.issuperset(map(bytes.translate, imgs, itertools.repeat(t)))
                for t in tables
            )
        return self._closed

    def is_commutative(self) -> bool:
        if self._commutative is None:
            self._commutative = _all_commute(*_images_and_tables(self))
        return self._commutative


def _fill_set(
    S: SemigroupSet,
    cls: type,
    imgs: Iterable[bytes],
    closed: bool | None,
    commutative: bool | None,
) -> None:
    """Give S the distinct ``imgs`` of elements of class ``cls``, in canonical order."""
    images = tuple(sorted(set(imgs)))
    if not images:
        raise ValueError("a SemigroupSet needs at least one element")
    if len(set(map(len, images))) != 1:
        raise ValueError("elements must all share one degree")
    S.images = images
    S.element_class = cls
    S._elements = S._members = S._digest = None
    S._closed = closed
    S._commutative = commutative


def _from_images(
    cls: type,
    imgs: Iterable[bytes],
    *,
    closed: bool | None = None,
    commutative: bool | None = None,
) -> SemigroupSet:
    """The set of the elements of class ``cls`` with these images, built from bytes.

    Every image must be a valid image of ``cls`` (see ``transform._raw``);
    nothing checks it.  :class:`SemigroupSet` itself checks its elements'
    kinds and then takes this same path.
    """
    S = object.__new__(SemigroupSet)
    _fill_set(S, cls, imgs, closed, commutative)
    return S


def _members(S: SemigroupSet) -> frozenset[bytes]:
    """S's images as a frozenset, built on first use."""
    if S._members is None:
        S._members = frozenset(S.images)
    return S._members


def _images_and_tables(S: SemigroupSet) -> tuple[tuple[bytes, ...], list[bytes]]:
    """The image bytes of S's elements, and each one's ``translate`` table.

    ``a.translate(t_b)`` is the image of the product ab, so the predicates
    test all |S|² pairs in C, without an element object per product.
    """
    imgs = S.images
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


def _all_commute(imgs: Sequence[bytes], tables: Sequence[bytes]) -> bool:
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
    imgs = _closure_images([g.img for g in gens], limit)
    return _from_images(type(first), imgs, closed=True)


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
    """The elements x of S with xx = x, in canonical order, tested on image bytes."""
    return [_raw(S.element_class, e) for e in _idempotent_images(S.images, S.degree)]


def _idempotent_images(imgs: Iterable[bytes], n: int) -> list[bytes]:
    """The images x of degree n in ``imgs`` with xx = x, in order, one table at a time."""
    fill = _FILL[n]
    return [a for a in imgs if a.translate(a + fill) == a]


def unique_idempotent(S: SemigroupSet) -> AnyTransformation:
    es = idempotents(S)
    if len(es) != 1:
        raise ValueError(f"expected exactly one idempotent, found {len(es)}")
    return es[0]


def is_null(S: SemigroupSet) -> tuple[bool, AnyTransformation | None]:
    """True iff every product equals one fixed element z (the zero); returns z.

    Read off the columns, with no product past z = S[0]²: let V_x = {a(x) :
    a ∈ S} for each point x, and V_⊥ = {⊥}, as every map fixes ⊥.  Since
    ab(x) = b(a(x)), the values at x of all |S|² products form the union of
    V_v over v ∈ V_x.  So every product equals one map w iff that union is
    {w(x)} for every x, i.e. V_v = {w(x)} for each v ∈ V_x.  If S is null,
    w is the zero and equals z, itself a product; conversely, if V_v =
    {z(x)} for every x and v ∈ V_x, then ab = z for all a, b, and z ∈ S as
    S is closed.  That is n·|S| byte reads, not |S|² products.
    """
    _require_closed(S, "is_null")
    imgs, n = S.images, S.degree
    z = imgs[0].translate(imgs[0] + _FILL[n])
    joined = b"".join(imgs)
    values = [set(joined[x::n]) for x in range(n)]
    values.append({n})  # V_⊥
    if all(values[v] == {z[x]} for x in range(n) for v in values[x]):
        return True, _raw(S.element_class, z)
    return False, None


def _sole_idempotent(imgs: Iterable[bytes], n: int) -> bytes | None:
    """The only image x of degree n in ``imgs`` with xx = x, or None."""
    es = _idempotent_images(imgs, n)
    return es[0] if len(es) == 1 else None


def is_nilpotent(S: SemigroupSet) -> bool:
    """True iff S^k is a single element (then the zero) for some k.

    Exactly when S has a sole idempotent z and za = z for every a (then az =
    z too: z is a power of a).  Such an S is nil, and a product of over |S|
    factors has two equal prefixes p = pu, so p = puᵏ = pz = z.  The
    converse holds as every idempotent e = eᵏ and every za lie in S^k.
    """
    _require_closed(S, "is_nilpotent")
    z = _sole_idempotent(S.images, S.degree)
    return z is not None and set(map(z.translate, _images_and_tables(S)[1])) == {z}


def is_group(S: SemigroupSet) -> bool:
    """True iff S is a group: closed, with a sole idempotent e and ea = a for all a.

    Each a has an ω-power aᵐ = e, so ae = a too, and a·aᵐ⁻¹ = e (a⁰ = e):
    every element is invertible.
    """
    if not S.is_closed():
        return False
    e = _sole_idempotent(S.images, S.degree)
    return e is not None and tuple(map(e.translate, _images_and_tables(S)[1])) == S.images


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
    imgs = map(bytes, itertools.product(range(n), repeat=n))
    return _from_images(Transformation, imgs, closed=True, commutative=(n <= 1))


def enumerate_partial(n: int) -> SemigroupSet:
    """All (n+1)^n partial maps of degree n."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    if n > MAX_PARTIAL_DEGREE:
        raise ValueError(f"degree {n} exceeds the partial-enumeration cap {MAX_PARTIAL_DEGREE}")
    imgs = map(bytes, itertools.product(range(n + 1), repeat=n))
    return _from_images(PartialTransformation, imgs, closed=True, commutative=(n <= 1))


def enumerate_sym(n: int) -> SemigroupSet:
    """The symmetric group on n points, as a closed SemigroupSet of full maps."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    if n > MAX_SYM_DEGREE:
        raise ValueError(f"degree {n} exceeds the permutation-enumeration cap {MAX_SYM_DEGREE}")
    imgs = map(bytes, itertools.permutations(range(n)))
    return _from_images(Transformation, imgs, closed=True, commutative=(n <= 2))


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
    out = set(b"".join(S.images))
    out.discard(S.degree)  # ⊥, in a partial map
    return tuple(sorted(out))
