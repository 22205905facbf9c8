"""ξ/α arithmetic and builders for the named extremal semigroups.

ξ(n) is the maximum of t^(n−t) over t ∈ [1, n] and α(n) the largest t
attaining it; ξ(n) is the size of the biggest null subsemigroup of the full
transformation semigroup on n points.  Every builder returns a closed
:class:`~commsemi.semigroups.SemigroupSet` whose defining constraints have
been re-checked element by element.

Null sets have one certificate, :func:`_check_null_shape`: maps that send
the base points to x₁ and have images inside the base points form a null
semigroup N(x₁; rest), with no loop over pairs, which keeps construction
linear in the output size.  Ω(B) in P_n is the same shape N(⊥; B), with ⊥
as a point.  The null builders, the surgery's output and its
``m_override`` all pass through it.
"""

from __future__ import annotations

import itertools
from itertools import chain
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .semigroups import _IMG, SemigroupSet, _from_images
from .transform import AnyTransformation, PartialTransformation, Transformation, _raw


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


def gamma(n: int, x: int) -> SemigroupSet:
    """Γ: the 2^(n−1) maps fixing x whose other points go to themselves or x.

    Commutative, consists entirely of idempotents, and is product-closed:
    a product of two such maps again fixes x and sends y to y or x.
    """
    if not 0 <= x < n:
        raise ValueError(f"x={x} out of range for degree {n}")
    others = [y for y in range(n) if y != x]
    imgs = []
    for choice in itertools.product(range(2), repeat=n - 1):
        img = [0] * n
        img[x] = x
        for y, keep in zip(others, choice):
            img[y] = y if keep else x
        imgs.append(bytes(img))
    S = _from_images(Transformation, imgs, closed=True, commutative=True)
    assert len(S) == 2 ** (n - 1)
    for img in S.images:
        if img[x] != x or any(img[y] not in (x, y) for y in others):
            bad = _raw(Transformation, img)
            raise AssertionError(f"gamma builder produced a bad map {bad!r}")
    return S


def _check_null_shape(elems: Iterable, points: Sequence[int]) -> AnyTransformation | None:
    """The first element outside the null shape on ``points``, or None.

    In the shape, every element sends each of ``points`` to x₁ = points[0]
    and has its image inside ``points``.  Then any product αβ first lands in
    ``points`` and is then sent to x₁: every pairwise product is the
    constant map to x₁, so a set of such maps is closed, commutative and
    null without looping over pairs.  ⊥ = n counts as a point that every
    map fixes, so Ω(B) is the shape on (⊥, *B).

    The whole set is checked in C by :func:`_in_null_shape`; only a failure
    applies the same rule to one element at a time, to name the first bad one.
    """
    elems = list(elems)
    if _in_null_shape(list(map(_IMG, elems)), points):
        return None
    return next((a for a in elems if not _in_null_shape([a.img], points)), None)


def _in_null_shape(imgs: list[bytes], points: Sequence[int]) -> bool:
    """True if every image is in the null shape on ``points``, checked in C.

    Every image must have the degree n of the first, with the points in
    0..n.  A set of mixed degrees is False as a whole, and a point out of
    range makes an image False; the caller then asks about one image at a
    time, so each is judged at its own degree.
    """
    x1 = points[0]
    if not imgs:
        return True
    n = len(imgs[0])
    pts = frozenset(points)
    if min(pts) < 0 or max(pts) > n or set(map(len, imgs)) != {n}:
        return False
    if n in pts and x1 != n:  # every map fixes ⊥, so ⊥ can only be x₁
        return False
    to_x1 = [p for p in points if p != n]
    if to_x1:
        at = itemgetter(*to_x1)  # an int for one point, else a tuple
        if not set(map(at, imgs)) <= {at(bytes([x1]) * n)}:
            return False
    return pts.issuperset(chain.from_iterable(imgs))


def _null_maps(cls: type, n: int, points: Sequence[int]) -> list[bytes]:
    """The images of every degree-n map of type ``cls`` in the null shape on
    ``points`` (⊥ only first), certified as a whole; a bad one is named."""
    pts = list(points)
    t = len(pts)
    if len(set(pts)) != t or t == 0:
        raise ValueError("points must be a nonempty list of distinct values")
    if any(not 0 <= p < n + (cls is PartialTransformation) for p in pts):
        raise ValueError(f"points {pts} out of range for degree {n}")
    # base points go to x₁, free points anywhere in pts; the last slot varies fastest
    slots = [(pts[0],) if y in pts else pts for y in range(n)]
    imgs = list(map(bytes, itertools.product(*slots)))
    if not _in_null_shape(imgs, pts):
        bad = _check_null_shape([_raw(cls, img) for img in imgs], pts)
        raise AssertionError(f"null builder produced {bad!r}, outside the null shape on {pts}")
    return imgs


def null_semigroup(n: int, points: Sequence[int]) -> SemigroupSet:
    """Null semigroup on any base tuple: points ↦ points[0], image ⊆ points.

    Size is t^(n−t) for t = len(points); only t = α(n) gives the maximum
    (see :func:`null_max`, which enforces that).
    """
    imgs = _null_maps(Transformation, n, points)
    return _from_images(Transformation, imgs, closed=True, commutative=True)


def _null_max_maps(n: int, points: Sequence[int] | None) -> list[bytes]:
    """The images of the ξ(n) certified maps of ``null_max(n, points)``."""
    _, alpha, xi = xi_alpha(n)
    pts = list(range(alpha)) if points is None else list(points)
    if len(pts) != alpha or len(set(pts)) != len(pts):
        raise ValueError(
            f"null_max at degree {n} needs exactly α({n})={alpha} distinct points, got {pts}"
        )
    imgs = _null_maps(Transformation, n, pts)
    assert len(imgs) == xi
    return imgs


def null_max(n: int, points: Sequence[int] | None = None) -> SemigroupSet:
    """The maximum-size null subsemigroup on the given α(n) base points.

    Defaults to points 0..α(n)−1.  Size ξ(n); the zero is the constant map
    to points[0], which has rank 1.
    """
    return _from_images(Transformation, _null_max_maps(n, points), closed=True, commutative=True)


def omega_pn(n: int, B: Sequence[int]) -> SemigroupSet:
    """Ω: partial maps with domain avoiding B and image inside B.

    This is N(⊥; B) on X ∪ {⊥}: null with zero ∅ (a product's first factor
    lands in B, where the second factor is undefined); size ξ(n+1) when
    |B| = α(n+1) − 1, which is the required shape.
    """
    if n < 1:
        raise ValueError(f"degree must be a positive integer, got {n}")
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
    imgs = _null_maps(PartialTransformation, n, [n, *bs])
    assert len(imgs) == xi
    return _from_images(PartialTransformation, imgs, closed=True, commutative=True)


def e_ix(n: int) -> SemigroupSet:
    """All 2^n partial identities id_Y; products intersect domains."""
    if n < 1:
        raise ValueError(f"degree must be a positive integer, got {n}")
    imgs = [bytes(x if bits >> x & 1 else n for x in range(n)) for bits in range(1 << n)]
    return _from_images(PartialTransformation, imgs, closed=True, commutative=True)


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
    points (n ≡ 2) a transposition.  Disjoint cycles commute, so the group
    is built directly as the product of their rotation groups, of order =
    product of the cycle lengths.
    """
    target = burns_goldsmith_order(n)  # validates n ≥ 2
    cut = n - (0, 4, 2)[n % 3]
    cycles = [range(start, start + 3) for start in range(0, cut, 3)]
    if cut < n:
        cycles.append(range(cut, n))
    imgs = []
    for shifts in itertools.product(*(range(len(c)) for c in cycles)):
        img = [0] * n
        for c, k in zip(cycles, shifts):
            for j, p in enumerate(c):
                img[p] = c[(j + k) % len(c)]
        imgs.append(bytes(img))
    S = _from_images(Transformation, imgs, closed=True, commutative=True)
    if len(S) != target:
        raise AssertionError(
            f"abelian witness at degree {n} has order {len(S)}, expected {target}"
        )
    return S


def null_plus_identity(n: int, points: Sequence[int] | None = None) -> SemigroupSet:
    """null_max plus the identity: commutative of size ξ(n)+1, two idempotents."""
    if n < 2:  # T_1 is {id}, already the null maximum
        raise ValueError(f"null_plus_identity needs degree at least 2, got {n}")
    imgs = _null_max_maps(n, points)
    imgs.append(bytes(range(n)))  # the identity
    S = _from_images(Transformation, imgs, closed=True, commutative=True)
    if len(S) != len(imgs):
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
    a2 = _raw(Transformation, bytes(n - 1) + b"\x01")
    return a1, a2
