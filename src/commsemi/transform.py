"""Total and partial transformations of the finite set {0, ..., n-1}.

Composition is the *right* action throughout: ``x(ab) = (xa)b``, i.e. ``a``
acts first.  Many libraries compose the other way round; every product in
this package follows the right-action convention, so ``product(a, b)`` is
"apply a, then b".

Both kinds store their images as a ``bytes`` string ``img``, so the degree
is at most 255.  A partial map is a full map of ``X ∪ {⊥}`` that fixes ⊥:
undefined points store the sentinel ``n`` (the degree) in memory, and on
disk that sentinel becomes JSON ``null``.  One function, :func:`product`,
multiplies both kinds: it looks every image of ``a`` up in ``b``'s images
padded with ``n``, so ⊥ propagates.  Because all defined values lie in
``[0, n)``, the sentinel sorts after them, which gives the canonical element
order used everywhere: lexicographic on image strings with undefined
greatest.
"""

from __future__ import annotations

from typing import Iterable

_MAX_DEGREE = 255  # the largest degree whose points and sentinel fit in a byte

# _FILL[n] pads the n images of a map to a 256-byte ``bytes.translate`` table
# whose other slots hold n, so the sentinel ⊥ = n maps to itself.
_FILL = tuple(bytes([n]) * (256 - n) for n in range(_MAX_DEGREE + 1))


def _checked_degree(n: int) -> int:
    if not 1 <= n <= _MAX_DEGREE:
        raise ValueError(f"degree must be between 1 and {_MAX_DEGREE}, got {n}")
    return n


def _is_point(v: object, n: int) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and 0 <= v < n


def _raw(cls: type, img: bytes):
    """An element of kind ``cls`` with images ``img``, trusted unchecked.

    Use it only where every image is already known to be a point in
    ``[0, n)`` or, for a partial map, the sentinel ⊥ = n, with n = len(img)
    between 1 and 255.  Nothing here checks it, and a bad image gives wrong
    products rather than an error.
    """
    out = object.__new__(cls)
    out.img = img
    return out


class _Map:
    """What both kinds share: bytes images, canonical order, the product."""

    __slots__ = ("img",)

    @property
    def degree(self) -> int:
        return len(self.img)

    def __mul__(self, other):
        return product(self, other)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self.img == other.img

    def __lt__(self, other) -> bool:
        return self.img < other.img

    def __le__(self, other) -> bool:
        return self.img <= other.img

    def __hash__(self) -> int:
        return hash((type(self), self.img))


class Transformation(_Map):
    """A total self-map of {0, ..., n-1}, immutable and hashable."""

    __slots__ = ()

    def __init__(self, img: Iterable[int]):
        img = tuple(img)
        n = _checked_degree(len(img))
        for x, v in enumerate(img):
            if not _is_point(v, n):
                raise ValueError(f"image of point {x} is {v!r}, not in [0, {n})")
        self.img = bytes(img)

    @classmethod
    def identity(cls, n: int) -> "Transformation":
        return cls(range(n))

    @classmethod
    def constant(cls, n: int, x: int) -> "Transformation":
        if not 0 <= x < n:
            raise ValueError(f"constant value {x} not in [0, {n})")
        return cls([x] * n)

    def __call__(self, x: int) -> int:
        return self.img[x]

    def __repr__(self) -> str:
        return f"Transformation({list(self.img)})"

    def image(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.img)))

    def rank(self) -> int:
        return len(set(self.img))


class PartialTransformation(_Map):
    """A partial self-map of {0, ..., n-1}.

    The constructor takes points in ``[0, n)`` or ``None`` for undefined,
    the on-disk spelling; ``img`` stores the sentinel ``n`` for undefined.
    """

    __slots__ = ()

    def __init__(self, img: Iterable[int | None]):
        raw = tuple(img)
        n = _checked_degree(len(raw))
        for x, v in enumerate(raw):
            if v is not None and not _is_point(v, n):
                raise ValueError(f"image of point {x} is {v!r}, not in [0, {n}) or None")
        self.img = bytes(n if v is None else v for v in raw)

    @classmethod
    def empty(cls, n: int) -> "PartialTransformation":
        return cls([None] * n)

    @classmethod
    def identity(cls, n: int) -> "PartialTransformation":
        return cls(range(n))

    def domain(self) -> tuple[int, ...]:
        n = self.degree
        return tuple(x for x, v in enumerate(self.img) if v != n)

    def image(self) -> tuple[int, ...]:
        n = self.degree
        return tuple(sorted({v for v in self.img if v != n}))

    def rank(self) -> int:
        return len(self.image())

    def __call__(self, x: int) -> int | None:
        v = self.img[x]
        return None if v == self.degree else v

    def __repr__(self) -> str:
        n = self.degree
        shown = [None if v == n else v for v in self.img]
        return f"PartialTransformation({shown})"


AnyTransformation = Transformation | PartialTransformation


def product(a: AnyTransformation, b: AnyTransformation) -> AnyTransformation:
    """x(ab) = (xa)b: apply ``a`` first, then ``b``; both of one kind and degree.

    For partial maps, x(ab) is defined iff x ∈ dom a and xa ∈ dom b.
    """
    cls = type(a)
    if type(b) is not cls or not isinstance(a, _Map):
        raise TypeError(
            f"cannot multiply {cls.__name__} by {type(b).__name__}: the kinds must match"
        )
    n = len(a.img)
    if len(b.img) != n:
        raise ValueError(f"degree mismatch: {n} vs {len(b.img)}")
    return _raw(cls, a.img.translate(b.img + _FILL[n]))


# Other names of the product, kept for callers.  ``compose`` is bound last:
# perfbench's tracer counts the calls of this one function under that name.
compose_partial = compose = product


def is_idempotent(a: AnyTransformation) -> bool:
    return product(a, a) == a


def omega_power(a: AnyTransformation) -> AnyTransformation:
    """The idempotent power a^ω: the only idempotent among a, a², a³, ...

    aᵏ is idempotent only for k ≥ index(a) with period(a) | k, and all such
    powers are equal, so a^ω is the first idempotent in the walk a, a², ...
    """
    if not isinstance(a, _Map):
        raise TypeError(f"omega_power takes a transformation, not {type(a).__name__}")
    return _raw(type(a), _omega_image(a.img))


def _omega_image(img: bytes) -> bytes:
    """The image of a^ω for a's image: the first p = a, a², ... with pp = p."""
    fill = _FILL[len(img)]
    p, t = img, img + fill
    while p.translate(p + fill) != p:
        p = p.translate(t)
    return p


def restrict(a: Transformation, points: Iterable[int]) -> Transformation:
    """Restriction of ``a`` to an invariant subset, re-indexed ascending.

    The result acts on {0, ..., |Y|-1} where position i stands for the i-th
    smallest element of Y.
    """
    ys = sorted(set(points))
    if not ys:
        raise ValueError("cannot restrict to the empty set")
    n = a.degree
    pos = {}
    for i, y in enumerate(ys):
        if not 0 <= y < n:
            raise ValueError(f"point {y} not in [0, {n})")
        pos[y] = i
    out = []
    for y in ys:
        v = a.img[y]
        if v not in pos:
            raise ValueError(f"point {y} maps to {v}, which is outside the restriction set")
        out.append(pos[v])
    return Transformation(out)


def embed_partial(b: PartialTransformation) -> Transformation:
    """The embedding of P(X) into T(X ∪ {⊥}): index n plays ⊥.

    Undefined points (and ⊥ itself) go to ⊥; defined points keep their
    image.  This is an injective homomorphism for partial composition.
    """
    n = b.degree
    return Transformation(b.img + bytes([n]))
