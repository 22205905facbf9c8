"""Layered partitions, word trees, and the surgery that nullifies a semigroup.

A closed commutative set of full transformations with exactly one idempotent
admits a layering of the ground set (A_0 = image of the idempotent, then
successive layers of points mapped into earlier layers by every element).
Reading each element's images along a layer-respecting point order yields a
word per element; the prefix trie of those words is the tree of the
semigroup.  :func:`nullify` edits that tree — swap the top |A_0| levels for
the tree of a same-size null semigroup, move every other linear level up
into the trunk, relabel — and reads the edited leaves back as maps, giving
a null semigroup of exactly the original size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .extremal import _check_null_shape, _in_null_shape, null_max, xi_alpha
from .semigroups import (
    SemigroupSet,
    _from_images,
    is_group,
    restrict_set,
    unique_idempotent,
)
from .transform import Transformation, _raw

LINEAR = "LINEAR"
BRANCHING = "BRANCHING"

Word = tuple[int, ...]


@dataclass(frozen=True)
class SPartition:
    """Ordered layers A_0..A_k: disjoint, covering [0, degree)."""

    degree: int
    blocks: tuple[tuple[int, ...], ...]


@dataclass
class SemiTree:
    """Prefix trie of equal-length words; nodes are the word prefixes.

    ``sigma`` records the point order the words were read along (None for
    the intermediate trees of the surgery, whose letters are synthetic).
    """

    leaves: tuple[Word, ...]
    sigma: tuple[int, ...] | None = None
    _children: dict[Word, tuple[int, ...]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.leaves:
            raise ValueError("a tree needs at least one leaf")
        depth = len(self.leaves[0])
        if any(len(w) != depth for w in self.leaves):
            raise ValueError("all leaf words must have equal length")
        self.leaves = tuple(sorted(set(self.leaves)))

    @property
    def depth(self) -> int:
        return len(self.leaves[0])

    @property
    def leaf_count(self) -> int:
        return len(self.leaves)

    def children(self) -> dict[Word, tuple[int, ...]]:
        """Node word → sorted tuple of outgoing arc letters."""
        if self._children is None:
            out: dict[Word, set[int]] = {}
            for w in self.leaves:
                for d in range(len(w)):
                    out.setdefault(w[:d], set()).add(w[d])
            self._children = {node: tuple(sorted(ls)) for node, ls in out.items()}
        return self._children


@dataclass(frozen=True)
class LevelProfile:
    """Linear/branching kind per level 1..depth, plus trunk statistics.

    Level i is LINEAR when every depth-(i−1) node has exactly one child;
    the trunk is the run of LINEAR levels at the top.
    """

    kinds: tuple[str, ...]
    max_branching_arcs: int
    trunk_length: int


def s_partition(S: SemigroupSet) -> SPartition:
    """The layering A_0 = im e, A_j = points mapped into earlier layers by all of S."""
    if S.kind != "full":
        raise ValueError("s_partition is defined for full transformations")
    if not S.is_closed():
        raise ValueError("s_partition requires a product-closed set")
    if not S.is_commutative():
        raise ValueError("s_partition requires a commutative set")
    e = unique_idempotent(S)  # raises unless exactly one idempotent
    n = S.degree
    blocks = [tuple(sorted(e.image()))]
    assigned = set(blocks[0])
    imgs = S.images
    while len(assigned) < n:
        nxt = tuple(
            x
            for x in range(n)
            if x not in assigned and all(img[x] in assigned for img in imgs)
        )
        if not nxt:
            raise RuntimeError(
                "layering stalled before exhausting the ground set; "
                "this contradicts the unique-idempotent structure of the input"
            )
        blocks.append(nxt)
        assigned.update(nxt)
    return SPartition(n, tuple(blocks))


def element_order(p: SPartition) -> tuple[int, ...]:
    """Layer-respecting point order; ascending inside each layer."""
    return tuple(x for block in p.blocks for x in block)


def words(S: SemigroupSet, sigma: Sequence[int]) -> set[Word]:
    """One word per element: letter i is the image of sigma[i]."""
    if sorted(sigma) != list(range(S.degree)):
        raise ValueError("sigma must be a permutation of the ground set")
    out = {tuple(img[x] for x in sigma) for img in S.images}
    assert len(out) == len(S), "distinct maps must give distinct words"
    return out


def build_tree(S: SemigroupSet, sigma: Sequence[int]) -> SemiTree:
    return SemiTree(tuple(sorted(words(S, sigma))), tuple(sigma))


def level_profile(t: SemiTree) -> LevelProfile:
    """Level kinds and trunk, from one pass over ``t.children()``.

    ``widest[d]`` is the most arcs out of any depth-d node, and level d + 1
    is LINEAR iff it is 1.  A tree of depth 0 has no levels and
    ``max_branching_arcs`` 1.
    """
    widest = [0] * t.depth
    for node, letters in t.children().items():
        widest[len(node)] = max(widest[len(node)], len(letters))
    kinds = tuple(LINEAR if w == 1 else BRANCHING for w in widest)
    trunk = kinds.index(BRANCHING) if BRANCHING in kinds else len(kinds)
    return LevelProfile(kinds, max(widest, default=1), trunk)


def validate_tree_lemmas(t: SemiTree, r: int) -> None:
    """Check the arc-label constraints that every semigroup tree satisfies.

    With positions taken in sigma (0-based): an arc at level i ≤ r is
    labelled by one of the first r points; at level i > r by a point whose
    position is at most i−2.  At a branching node on level i > r with label
    positions p_1 < … < p_s: p_s ≤ i−2, every p_m (m ≥ 2) is ≥ r, and the
    levels p_m + 1 are linear.
    """
    if t.sigma is None:
        raise ValueError("lemma validation needs a tree with a point order")
    pos = {point: i for i, point in enumerate(t.sigma)}
    profile = level_profile(t)
    for node, letters in t.children().items():
        i = len(node) + 1  # arcs out of this node sit at level i
        ps = sorted(pos[letter] for letter in letters)
        if i <= r:
            if any(p >= r for p in ps):
                raise AssertionError(
                    f"arc label out of the top block at level {i}: node {node}, labels {letters}"
                )
        else:
            if ps[-1] > i - 2:
                raise AssertionError(
                    f"arc label too deep at level {i}: node {node}, labels {letters}"
                )
            if len(ps) >= 2:
                for p in ps[1:]:
                    if p < r:
                        raise AssertionError(
                            f"non-least branching label inside the top block at level {i}: "
                            f"node {node}, labels {letters}"
                        )
                    if profile.kinds[p] != LINEAR:
                        raise AssertionError(
                            f"branching at level {i} points at non-linear level {p + 1}: "
                            f"node {node}, labels {letters}"
                        )


@dataclass
class NullifyTrace:
    """Every intermediate stage of the surgery, for inspection and tests."""

    sigma: tuple[int, ...]
    r: int
    tree_s: SemiTree
    profile_s: LevelProfile
    prefixes: tuple[Word, ...]
    m_used: SemigroupSet
    tails: tuple[Word, ...]
    tree_1: SemiTree
    profile_1: LevelProfile
    contracted: int
    tree_2: SemiTree
    profile_2: LevelProfile
    final_words: tuple[Word, ...]
    result: SemigroupSet


def _relabel(t: SemiTree) -> list[Word]:
    """Replace letters by child positions: 0 on single arcs, 0..s−1 at branchings.

    The letter at depth d of leaf w becomes its index in ``children[w[:d]]``.
    Those tuples are sorted, so the relabelling keeps the order of
    ``t.leaves`` and the result is sorted too.
    """
    children = t.children()
    return [tuple(children[w[:d]].index(w[d]) for d in range(len(w))) for w in t.leaves]


def _validate_m(M: SemigroupSet, r: int, t: int, needed: int) -> None:
    if M.kind != "full":
        raise ValueError("m_override must consist of full transformations")
    if M.degree != r + 1:
        raise ValueError(f"m_override must have degree {r + 1}, got {M.degree}")
    if len(M) != needed:
        raise ValueError(f"m_override must have exactly {needed} elements, got {len(M)}")
    if Transformation.constant(r + 1, 0) not in M:
        raise ValueError("m_override must contain the constant map to 0 (the zero)")
    bad = _check_null_shape(M, range(t))
    if bad is not None:
        raise ValueError(
            f"m_override element {bad!r} is not in the null shape on the first {t} points"
        )


def nullify_trace(S: SemigroupSet, m_override: SemigroupSet | None = None) -> NullifyTrace:
    """Like nullify, but returns every intermediate stage of the surgery."""
    part = s_partition(S)  # validates closed / commutative / unique idempotent
    n = S.degree
    r = len(part.blocks[0])  # |im e|, which is n exactly when e = id
    if r == n:
        raise ValueError("input is a group; nothing to nullify")
    sigma = element_order(part)
    tree_s = build_tree(S, sigma)
    profile_s = level_profile(tree_s)
    validate_tree_lemmas(tree_s, r)

    prefixes = sorted({w[:r] for w in tree_s.leaves})
    suffixes: dict[Word, list[Word]] = {p: [] for p in prefixes}
    for w in tree_s.leaves:
        suffixes[w[:r]].append(w[r:])

    # The restriction of S to the top layer is a group of size = #prefixes.
    G = restrict_set(S, part.blocks[0])
    if len(G) != len(prefixes) or not is_group(G):
        raise RuntimeError(
            "restriction to the idempotent's image is not the expected group"
        )

    t = xi_alpha(r + 1).alpha
    if m_override is not None:
        _validate_m(m_override, r, t, len(prefixes))
        M = m_override
    else:
        pool = null_max(r + 1)
        if len(pool) < len(prefixes):
            raise RuntimeError(
                f"need {len(prefixes)} null maps on {r + 1} points "
                f"but only {len(pool)} exist; the group is too large"
            )
        M = _from_images(Transformation, pool.images[: len(prefixes)], commutative=True)

    # M is certified null on range(t), so every word starts with the zero letter
    tails = sorted(tuple(img[1:]) for img in M.images)

    t1_leaves = []
    for head, pre in zip(tails, prefixes):
        for suf in suffixes[pre]:
            t1_leaves.append(head + suf)
    tree_1 = SemiTree(tuple(t1_leaves))
    profile_1 = level_profile(tree_1)
    if tree_1.leaf_count != len(S):
        raise RuntimeError("leaf count changed while swapping the top levels")

    # 0-based positions of the linear levels below the trunk
    drop = {i for i in range(profile_1.trunk_length, n) if profile_1.kinds[i] == LINEAR}
    contracted = len(drop)
    t2_leaves = [
        (-1,) * contracted + tuple(v for i, v in enumerate(w) if i not in drop)
        for w in tree_1.leaves
    ]
    tree_2 = SemiTree(tuple(t2_leaves))
    profile_2 = level_profile(tree_2)
    if tree_2.leaf_count != len(S):
        raise RuntimeError("leaf count changed while contracting linear levels")

    trunk = profile_2.trunk_length
    if profile_2.kinds != (LINEAR,) * trunk + (BRANCHING,) * (n - trunk):
        raise RuntimeError(
            f"unexpected level structure after contraction: {profile_2.kinds}"
        )
    if profile_2.max_branching_arcs > trunk:
        raise RuntimeError(
            f"a branching has {profile_2.max_branching_arcs} arcs but the trunk "
            f"has only {trunk}; the result could not be null"
        )

    final_words = _relabel(tree_2)
    imgs = []
    for w in final_words:
        img = [0] * n
        for i, letter in enumerate(w):
            img[sigma[i]] = sigma[letter]
        imgs.append(bytes(img))
    # The flags below rest on this: the trunk block goes to sigma[0] and holds every image.
    if not _in_null_shape(imgs, sigma[:trunk]):
        bad = _check_null_shape([_raw(Transformation, img) for img in imgs], sigma[:trunk])
        raise RuntimeError(f"surgery output {bad!r} is not in the null shape on {sigma[:trunk]}")
    result = _from_images(Transformation, imgs, closed=True, commutative=True)
    if len(result) != len(S):
        raise RuntimeError("surgery did not preserve the element count")
    zero = Transformation.constant(n, sigma[0])
    if zero not in result:
        raise RuntimeError("zero map missing from the surgery output")

    return NullifyTrace(
        sigma=sigma,
        r=r,
        tree_s=tree_s,
        profile_s=profile_s,
        prefixes=tuple(prefixes),
        m_used=M,
        tails=tuple(tails),
        tree_1=tree_1,
        profile_1=profile_1,
        contracted=contracted,
        tree_2=tree_2,
        profile_2=profile_2,
        final_words=tuple(final_words),
        result=result,
    )


def nullify(S: SemigroupSet, m_override: SemigroupSet | None = None) -> SemigroupSet:
    """Convert a commutative unique-idempotent semigroup into a null one.

    The output has exactly |S| elements and zero = the constant map to the
    least point of the idempotent's image.  ``m_override`` replaces the
    default choice of the null tree spliced in at the top (it must be a
    size-|G| subset of the canonical null semigroup on |im e|+1 points
    containing the zero).
    """
    return nullify_trace(S, m_override=m_override).result


def tree_to_dot(t: SemiTree) -> str:
    """DOT rendering: nodes = word prefixes, arc labels 1-based, bold trunk."""
    profile = level_profile(t)
    lines = [
        "// level kinds: "
        + " ".join(f"{i + 1}:{k}" for i, k in enumerate(profile.kinds)),
        f"// trunk length: {profile.trunk_length}",
        "digraph tree {",
        '  rankdir=TB;  node [shape=point];  root [label="", shape=circle];',
    ]

    def node_id(w: Word) -> str:
        return "root" if not w else "n_" + "_".join(str(v + 1) for v in w)

    for node in sorted(t.children()):
        for letter in t.children()[node]:
            child = node + (letter,)
            style = ' style=bold penwidth=2' if len(child) <= profile.trunk_length else ""
            lines.append(
                f'  {node_id(node)} -> {node_id(child)} [label="{letter + 1}"{style}];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
