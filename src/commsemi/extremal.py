"""ξ/α arithmetic and builders for the named extremal semigroups.

ξ(n) is the maximum of t^(n−t) over t ∈ [1, n] and α(n) the largest t
attaining it; ξ(n) is the size of the biggest null subsemigroup of the full
transformation semigroup on n points.  Every builder returns a closed
:class:`~commsemi.semigroups.SemigroupSet` whose defining constraints have
been re-checked element by element (the per-element shape checks below
imply closure and nullness/commutativity without looping over pairs, which
keeps construction linear in the output size).
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Sequence

from .semigroups import SemigroupSet, closure
from .transform import PartialTransformation, Transformation, _raw


class XiAlpha(NamedTuple):
    n: int
    alpha: int
    xi: int


def xi_alpha(n: int) -> XiAlpha:
    """Exact ξ(n) and α(n); plain integer arithmetic, never floats."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    best_t, best_v = 1, 1
    for t in range(1, n + 1):
        v = t ** (n - t)
        if v >= best_v:  # ties resolve to the larger t
            best_t, best_v = t, v
    return XiAlpha(n, best_t, best_v)


def xi_table(n_max: int) -> list[XiAlpha]:
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    return [xi_alpha(n) for n in range(1, n_max + 1)]


def _full(img: Sequence[int]) -> Transformation:
    return _raw(Transformation, bytes(img))


def _partial(img: Sequence[int]) -> PartialTransformation:
    return _raw(PartialTransformation, bytes(img))


def gamma(n: int, x: int) -> SemigroupSet:
    """Γ: the 2^(n−1) maps fixing x whose other points go to themselves or x.

    Commutative, consists entirely of idempotents, and is product-closed:
    a product of two such maps again fixes x and sends y to y or x.
    """
    if not 0 <= x < n:
        raise ValueError(f"x={x} out of range for degree {n}")
    others = [y for y in range(n) if y != x]
    elems = []
    for choice in itertools.product(range(2), repeat=n - 1):
        img = [0] * n
        img[x] = x
        for y, keep in zip(others, choice):
            img[y] = y if keep else x
        elems.append(_full(img))
    S = SemigroupSet(elems, closed=True, commutative=True)
    assert len(S) == 2 ** (n - 1)
    for a in S:
        if a.img[x] != x or any(a.img[y] not in (x, y) for y in others):
            raise AssertionError(f"gamma builder produced a bad map {a!r}")
    return S


def _check_null_shape(elems: Sequence, points: Sequence[int]) -> None:
    """Per-element certificate that a set is null with zero constant-to-points[0].

    If every element sends all of ``points`` to points[0] and has image
    inside ``points``, then any product αβ first lands in ``points`` and is
    then sent to points[0]: every pairwise product is the constant map to
    points[0].  No pair enumeration is needed.
    """
    pts = set(points)
    x1 = points[0]
    for a in elems:
        img = a.img
        if any(img[p] != x1 for p in points):
            raise AssertionError(f"element {a!r} does not send the base points to {x1}")
        if any(v not in pts for v in img if v != a.degree):
            raise AssertionError(f"element {a!r} has image outside the base points")


def null_semigroup(n: int, points: Sequence[int]) -> SemigroupSet:
    """Null semigroup on any base tuple: points ↦ points[0], image ⊆ points.

    Size is t^(n−t) for t = len(points); only t = α(n) gives the maximum
    (see :func:`null_max`, which enforces that).
    """
    pts = list(points)
    t = len(pts)
    if len(set(pts)) != t or t == 0:
        raise ValueError("points must be a nonempty list of distinct values")
    if any(not 0 <= p < n for p in pts):
        raise ValueError(f"points {pts} out of range for degree {n}")
    free = [y for y in range(n) if y not in set(pts)]
    x1 = pts[0]
    elems = []
    for choice in itertools.product(pts, repeat=len(free)):
        img = [0] * n
        for p in pts:
            img[p] = x1
        for y, v in zip(free, choice):
            img[y] = v
        elems.append(_full(img))
    _check_null_shape(elems, pts)
    return SemigroupSet(elems, closed=True, commutative=True)


def null_max(n: int, points: Sequence[int] | None = None) -> SemigroupSet:
    """The maximum-size null subsemigroup on the given α(n) base points.

    Defaults to points 0..α(n)−1.  Size ξ(n); the zero is the constant map
    to points[0], which has rank 1.
    """
    _, alpha, xi = xi_alpha(n)
    if points is None:
        points = list(range(alpha))
    pts = list(points)
    if len(pts) != alpha or len(set(pts)) != len(pts):
        raise ValueError(
            f"null_max at degree {n} needs exactly α({n})={alpha} distinct points, got {pts}"
        )
    S = null_semigroup(n, pts)
    assert len(S) == xi
    return S


def omega_pn(n: int, B: Sequence[int]) -> SemigroupSet:
    """Ω: partial maps with domain avoiding B and image inside B.

    Null with zero ∅ (a product's first factor lands in B, where the second
    factor is undefined); size ξ(n+1) when |B| = α(n+1) − 1, which is the
    required shape.
    """
    bs = sorted(set(B))
    if len(bs) != len(list(B)):
        raise ValueError("B must not contain repeats")
    if any(not 0 <= b < n for b in bs):
        raise ValueError(f"B {bs} out of range for degree {n}")
    _, alpha, xi = xi_alpha(n + 1)
    if len(bs) != alpha - 1:
        raise ValueError(
            f"omega_pn at degree {n} needs |B| = α({n + 1})−1 = {alpha - 1}, got {len(bs)}"
        )
    bset = set(bs)
    free = [y for y in range(n) if y not in bset]
    elems = []
    for choice in itertools.product([n, *bs], repeat=len(free)):
        img = [n] * n
        for y, v in zip(free, choice):
            img[y] = v
        elems.append(_partial(img))
    assert len(elems) == xi
    for a in elems:
        if any(a.img[b] != n for b in bs):
            raise AssertionError(f"element {a!r} is defined on B")
        if any(v not in bset for v in a.img if v != n):
            raise AssertionError(f"element {a!r} has image outside B")
    return SemigroupSet(elems, closed=True, commutative=True)


def e_ix(n: int) -> SemigroupSet:
    """All 2^n partial identities id_Y; products intersect domains."""
    elems = []
    for bits in range(1 << n):
        img = tuple(x if bits >> x & 1 else n for x in range(n))
        elems.append(_partial(img))
    return SemigroupSet(elems, closed=True, commutative=True)


def _cycle(n: int, points: Sequence[int]) -> Transformation:
    img = list(range(n))
    for i, p in enumerate(points):
        img[p] = points[(i + 1) % len(points)]
    return _full(img)


def burns_goldsmith_order(n: int) -> int:
    """Largest order of an abelian subgroup of the symmetric group on n points."""
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    r = n % 3
    if r == 0:
        return 3 ** (n // 3)
    if r == 1:
        return 4 * 3 ** ((n - 4) // 3)
    return 2 * 3 ** ((n - 2) // 3)


def abelian_witness(n: int) -> SemigroupSet:
    """An abelian permutation group of the largest possible order.

    Disjoint 3-cycles are packed on consecutive points starting at 0; the
    leftover 4 points (n ≡ 1 mod 3) carry a single 4-cycle, leftover 2
    points (n ≡ 2) a transposition.  Disjoint generators commute, so the
    closure is abelian of order = product of the cycle lengths.
    """
    target = burns_goldsmith_order(n)  # validates n ≥ 2
    r = n % 3
    gens = []
    cap = n - (4 if r == 1 else 2 if r == 2 else 0)
    for start in range(0, cap, 3):
        gens.append(_cycle(n, [start, start + 1, start + 2]))
    if r == 1:
        gens.append(_cycle(n, [n - 4, n - 3, n - 2, n - 1]))
    elif r == 2:
        gens.append(_cycle(n, [n - 2, n - 1]))
    S = closure(gens)
    if len(S) != target:
        raise AssertionError(
            f"abelian witness at degree {n} has order {len(S)}, expected {target}"
        )
    return SemigroupSet(S.elements, closed=True, commutative=True)


def null_plus_identity(n: int, points: Sequence[int] | None = None) -> SemigroupSet:
    """null_max plus the identity: commutative of size ξ(n)+1, two idempotents."""
    N = null_max(n, points)
    elems = list(N.elements) + [Transformation.identity(n)]
    S = SemigroupSet(elems, closed=True, commutative=True)
    if len(S) != len(N) + 1:
        raise AssertionError("identity collided with the null part")
    return S


def knit_witness(n: int) -> tuple[Transformation, Transformation]:
    """The standard short left path: a constant and its one-point variation.

    α1 is the constant to 0; α2 sends the last point to 1 and everything
    else to 0.  All four pairwise products equal α1, so α1α_i = α2α_i for
    both i: the two maps form a left path of length 1 in the commuting
    graph (they need at least three points to avoid being id or central).
    """
    if n < 3:
        raise ValueError(f"knit witness needs degree ≥ 3, got {n}")
    a1 = Transformation.constant(n, 0)
    a2 = _full((0,) * (n - 1) + (1,))
    return a1, a2
