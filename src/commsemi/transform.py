"""Total and partial transformations of the finite set {0, ..., n-1}.

Composition is the *right* action throughout: ``x(ab) = (xa)b``, i.e. ``a``
acts first.  Many libraries compose the other way round; every product in
this package follows the right-action convention, so ``compose(a, b)`` is
"apply a, then b".

Partial maps store the sentinel value ``n`` (the degree) for undefined
points in memory; on disk that sentinel becomes JSON ``null``.  Because all
defined values lie in ``[0, n)``, the sentinel sorts after them, which gives
the canonical element order used everywhere: lexicographic on image arrays
with undefined greatest.
"""

from __future__ import annotations

from typing import Iterable


def _compose_imgs(a: tuple[int, ...], b: tuple[int, ...], n: int) -> tuple[int, ...]:
    # Shared kernel for both kinds: extending b with the sentinel at index n
    # makes undefined propagate (a full map never indexes the extra slot).
    ext = b + (n,)
    return tuple(ext[v] for v in a)


class Transformation:
    """A total self-map of {0, ..., n-1}, immutable and hashable."""

    __slots__ = ("img",)

    def __init__(self, img: Iterable[int]):
        img = tuple(img)
        n = len(img)
        if n == 0:
            raise ValueError("degree must be at least 1")
        for x, v in enumerate(img):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise ValueError(f"image of point {x} is {v!r}, not in [0, {n})")
        self.img = img

    @property
    def degree(self) -> int:
        return len(self.img)

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

    def __mul__(self, other: "Transformation") -> "Transformation":
        return compose(self, other)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Transformation) and self.img == other.img

    def __lt__(self, other: "Transformation") -> bool:
        return self.img < other.img

    def __le__(self, other: "Transformation") -> bool:
        return self.img <= other.img

    def __hash__(self) -> int:
        return hash((Transformation, self.img))

    def __repr__(self) -> str:
        return f"Transformation({list(self.img)})"

    def image(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.img)))

    def rank(self) -> int:
        return len(set(self.img))

    def is_idempotent(self) -> bool:
        return is_idempotent(self)

    def is_permutation(self) -> bool:
        return len(set(self.img)) == self.degree


class PartialTransformation:
    """A partial self-map of {0, ..., n-1}.

    ``img`` entries are either points in ``[0, n)`` or the sentinel ``n``
    (undefined).  The constructor also accepts ``None`` for undefined, which
    is the on-disk representation.
    """

    __slots__ = ("img",)

    def __init__(self, img: Iterable[int | None]):
        raw = tuple(img)
        n = len(raw)
        if n == 0:
            raise ValueError("degree must be at least 1")
        normalized = []
        for x, v in enumerate(raw):
            if v is None:
                normalized.append(n)
            elif isinstance(v, int) and not isinstance(v, bool) and 0 <= v <= n:
                normalized.append(v)
            else:
                raise ValueError(f"image of point {x} is {v!r}, not in [0, {n}] or None")
        self.img = tuple(normalized)

    @property
    def degree(self) -> int:
        return len(self.img)

    @classmethod
    def empty(cls, n: int) -> "PartialTransformation":
        return cls([None] * n)

    @classmethod
    def identity(cls, n: int) -> "PartialTransformation":
        return cls(range(n))

    @classmethod
    def identity_on(cls, n: int, dom: Iterable[int]) -> "PartialTransformation":
        dom = set(dom)
        return cls([x if x in dom else None for x in range(n)])

    def domain(self) -> tuple[int, ...]:
        n = self.degree
        return tuple(x for x, v in enumerate(self.img) if v != n)

    def image(self) -> tuple[int, ...]:
        n = self.degree
        return tuple(sorted({v for v in self.img if v != n}))

    def rank(self) -> int:
        return len(self.image())

    def is_empty(self) -> bool:
        n = self.degree
        return all(v == n for v in self.img)

    def is_idempotent(self) -> bool:
        return is_idempotent(self)

    def __call__(self, x: int) -> int | None:
        v = self.img[x]
        return None if v == self.degree else v

    def __mul__(self, other: "PartialTransformation") -> "PartialTransformation":
        return compose_partial(self, other)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PartialTransformation) and self.img == other.img

    def __lt__(self, other: "PartialTransformation") -> bool:
        return self.img < other.img

    def __le__(self, other: "PartialTransformation") -> bool:
        return self.img <= other.img

    def __hash__(self) -> int:
        return hash((PartialTransformation, self.img))

    def __repr__(self) -> str:
        n = self.degree
        shown = [None if v == n else v for v in self.img]
        return f"PartialTransformation({shown})"


AnyTransformation = Transformation | PartialTransformation


def compose(a: Transformation, b: Transformation) -> Transformation:
    """x(ab) = (xa)b: apply ``a`` first, then ``b``."""
    if not isinstance(a, Transformation) or not isinstance(b, Transformation):
        raise TypeError("compose expects total transformations; use compose_partial")
    if a.degree != b.degree:
        raise ValueError(f"degree mismatch: {a.degree} vs {b.degree}")
    out = Transformation.__new__(Transformation)
    out.img = tuple(b.img[v] for v in a.img)
    return out


def compose_partial(a: PartialTransformation, b: PartialTransformation) -> PartialTransformation:
    """Partial right-action product: defined at x iff x ∈ dom a and xa ∈ dom b."""
    if not isinstance(a, PartialTransformation) or not isinstance(b, PartialTransformation):
        raise TypeError("compose_partial expects partial transformations")
    if a.degree != b.degree:
        raise ValueError(f"degree mismatch: {a.degree} vs {b.degree}")
    out = PartialTransformation.__new__(PartialTransformation)
    out.img = _compose_imgs(a.img, b.img, a.degree)
    return out


def product(a: AnyTransformation, b: AnyTransformation) -> AnyTransformation:
    """Kind-dispatching product (right action)."""
    if isinstance(a, Transformation):
        return compose(a, b)
    return compose_partial(a, b)


def rank(a: AnyTransformation) -> int:
    return a.rank()


def is_idempotent(a: AnyTransformation) -> bool:
    return product(a, a) == a


def omega_power(a: AnyTransformation) -> AnyTransformation:
    """The unique idempotent among the powers a, a², a³, ...

    Powers are walked sequentially with first-repeat detection; once the
    index i and period p of the power sequence are known, the idempotent is
    a^m for the unique multiple m of p in [i, i+p), which has already been
    computed.  (Squaring alone can skip the idempotent: for a 3-cycle the
    exponents 2^k are never divisible by 3.)  The sequence of powers of a
    fixed map is finite, so the walk always terminates.
    """
    powers: list[AnyTransformation] = [a]
    seen: dict[AnyTransformation, int] = {a: 1}
    while True:
        nxt = product(powers[-1], a)
        k = len(powers) + 1
        if nxt in seen:
            index = seen[nxt]
            period = k - index
            m = index if index % period == 0 else period * (index // period + 1)
            e = powers[m - 1]
            assert product(e, e) == e
            return e
        seen[nxt] = k
        powers.append(nxt)


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
    return Transformation(b.img + (n,))
