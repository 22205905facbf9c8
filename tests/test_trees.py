"""Tests for the layering, word trees, and the nullifying surgery."""

import random

import pytest

from commsemi import trees
from commsemi.extremal import null_max
from commsemi.oracle import random_commutative_unique_idem
from commsemi.semigroups import (
    SemigroupSet,
    closure,
    enumerate_full,
    is_null,
    unique_idempotent,
)
from commsemi.transform import PartialTransformation, Transformation
from commsemi.trees import (
    SemiTree,
    SPartition,
    build_tree,
    element_order,
    level_profile,
    nullify,
    nullify_trace,
    s_partition,
    tree_to_dot,
    validate_tree_lemmas,
    words,
)

# A degree-7 commutative semigroup with unique idempotent e = first element
# and a three-block layering; small enough to freeze every surgery stage.
EXAMPLE_IMGS = [
    (0, 6, 3, 3, 3, 3, 6),
    (0, 6, 3, 3, 3, 2, 6),
    (0, 6, 3, 3, 3, 4, 6),
    (3, 0, 6, 6, 6, 6, 0),
    (6, 3, 0, 0, 0, 0, 3),
    (6, 2, 0, 0, 0, 0, 3),
    (6, 4, 0, 0, 0, 0, 3),
]

EXAMPLE_WORDS = {
    (0, 3, 6, 3, 3, 6, 3),
    (0, 3, 6, 3, 3, 6, 2),
    (0, 3, 6, 3, 3, 6, 4),
    (3, 6, 0, 6, 6, 0, 6),
    (6, 0, 3, 0, 0, 3, 0),
    (6, 0, 3, 0, 0, 2, 0),
    (6, 0, 3, 0, 0, 4, 0),
}

EXAMPLE_NULL_IMGS = {
    (0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 3, 0),
    (0, 0, 0, 0, 0, 6, 0),
    (0, 0, 0, 0, 3, 0, 0),
    (0, 0, 3, 0, 0, 0, 0),
    (0, 3, 3, 0, 0, 0, 0),
    (0, 6, 3, 0, 0, 0, 0),
}


def random_word_sets(rng):
    """Seeded leaf sets: a single leaf, an all-linear chain, depth 0, then random ones."""
    yield [(2, 0, 1, 1)]
    yield [(0,) * 6]
    yield [()]
    for _ in range(60):
        depth = rng.randint(1, 6)
        alphabet = rng.randint(1, 4)
        yield [
            tuple(rng.randrange(alphabet) for _ in range(depth))
            for _ in range(rng.randint(1, 25))
        ]


def definition_profile(leaves):
    """Level d + 1 is LINEAR iff every depth-d node has one child; trunk = leading LINEAR run."""
    depth = len(leaves[0])
    arcs = [
        [len({w[: d + 1] for w in leaves if w[:d] == node}) for node in {w[:d] for w in leaves}]
        for d in range(depth)
    ]
    kinds = tuple("LINEAR" if max(a) == 1 else "BRANCHING" for a in arcs)
    trunk = 0
    while trunk < depth and kinds[trunk] == "LINEAR":
        trunk += 1
    return kinds, max((max(a) for a in arcs), default=1), trunk


def definition_relabel(leaves):
    """Letter d of w becomes the number of smaller letters at depth d under w[:d]."""
    def smaller(w, d):
        return len({v[d] for v in leaves if v[:d] == w[:d] and v[d] < w[d]})

    return sorted(tuple(smaller(w, d) for d in range(len(w))) for w in set(leaves))


def example_semigroup():
    return SemigroupSet([Transformation(img) for img in EXAMPLE_IMGS])


class TestSPartition:
    def test_example_blocks(self):
        part = s_partition(example_semigroup())
        assert part.degree == 7
        assert part.blocks == ((0, 3, 6), (2, 4), (1, 5))
        assert element_order(part) == (0, 3, 6, 2, 4, 1, 5)

    def test_null_input_layers(self):
        part = s_partition(null_max(4))
        assert part.blocks == ((0,), (1,), (2, 3))

    def test_rejects_partial(self):
        from commsemi.extremal import e_ix

        with pytest.raises(ValueError):
            s_partition(e_ix(2))

    def test_rejects_non_closed(self):
        with pytest.raises(ValueError):
            s_partition(SemigroupSet([Transformation([1, 0, 0])]))

    def test_rejects_non_commutative(self):
        with pytest.raises(ValueError):
            s_partition(enumerate_full(2))

    def test_rejects_several_idempotents(self):
        from commsemi.extremal import gamma

        with pytest.raises(ValueError):
            s_partition(gamma(3, 0))


class TestWordsAndTrees:
    def test_example_words(self):
        S = example_semigroup()
        assert words(S, (0, 3, 6, 2, 4, 1, 5)) == EXAMPLE_WORDS

    def test_words_need_a_permutation(self):
        with pytest.raises(ValueError):
            words(example_semigroup(), (0, 1, 2))

    def test_example_tree(self):
        tree = build_tree(example_semigroup(), (0, 3, 6, 2, 4, 1, 5))
        assert tree.depth == 7
        assert tree.leaf_count == 7
        assert set(tree.leaves) == EXAMPLE_WORDS
        branchings = sorted(
            node for node, letters in tree.children().items() if len(letters) >= 2
        )
        assert branchings == [(), (0, 3, 6, 3, 3, 6), (6, 0, 3, 0, 0)]
        profile = level_profile(tree)
        assert profile.kinds == (
            "BRANCHING",
            "LINEAR",
            "LINEAR",
            "LINEAR",
            "LINEAR",
            "BRANCHING",
            "BRANCHING",
        )
        assert profile.trunk_length == 0
        assert profile.max_branching_arcs == 3
        validate_tree_lemmas(tree, 3)

    def test_semitree_basics(self):
        t = SemiTree(((0, 1), (0, 0), (1, 0), (0, 0)))
        assert t.leaves == ((0, 0), (0, 1), (1, 0))
        assert t.leaf_count == 3
        assert t.depth == 2
        assert t.children() == {(): (0, 1), (0,): (0, 1), (1,): (0,)}
        with pytest.raises(ValueError):
            SemiTree(())
        with pytest.raises(ValueError):
            SemiTree(((0, 1), (0,)))

    def test_level_profile_chain(self):
        p = level_profile(SemiTree(((0, 0, 1),)))
        assert p.kinds == ("LINEAR", "LINEAR", "LINEAR")
        assert p.trunk_length == 3
        assert p.max_branching_arcs == 1

    def test_level_profile_and_relabel_match_their_definitions(self):
        rng = random.Random(17)
        for leaves in random_word_sets(rng):
            t = SemiTree(tuple(leaves))
            p = level_profile(t)
            assert (p.kinds, p.max_branching_arcs, p.trunk_length) == definition_profile(leaves)
            relabelled = trees._relabel(t)
            assert relabelled == definition_relabel(leaves)
            # the relabelling keeps the shape of the tree
            assert level_profile(SemiTree(tuple(relabelled))) == p

    def test_lemma_violation(self):
        # a branching at level 3 labelled by position 2 is too deep
        t = SemiTree(((0, 0, 0), (0, 0, 2)), (0, 1, 2))
        with pytest.raises(AssertionError):
            validate_tree_lemmas(t, 1)

    def test_lemma_validation_needs_sigma(self):
        with pytest.raises(ValueError):
            validate_tree_lemmas(SemiTree(((0, 0),)), 1)


class TestNullifyExample:
    def test_full_trace(self):
        tr = nullify_trace(example_semigroup())
        assert tr.sigma == (0, 3, 6, 2, 4, 1, 5)
        assert tr.r == 3
        assert tr.prefixes == ((0, 3, 6), (3, 6, 0), (6, 0, 3))
        assert [tuple(a.img) for a in tr.m_used] == [
            (0, 0, 0, 0),
            (0, 0, 0, 1),
            (0, 0, 1, 0),
        ]
        assert tr.tails == ((0, 0, 0), (0, 0, 1), (0, 1, 0))
        assert tr.profile_1.kinds == (
            "LINEAR",
            "BRANCHING",
            "BRANCHING",
            "LINEAR",
            "LINEAR",
            "BRANCHING",
            "BRANCHING",
        )
        assert tr.contracted == 2
        assert tr.profile_2.kinds == ("LINEAR",) * 3 + ("BRANCHING",) * 4
        assert tr.profile_2.trunk_length == 3
        assert {tuple(a.img) for a in tr.result} == EXAMPLE_NULL_IMGS

    def test_result_is_null_of_equal_size(self):
        S = example_semigroup()
        N = nullify(S)
        assert len(N) == len(S) == 7
        assert is_null(N) == (True, Transformation.constant(7, 0))
        assert unique_idempotent(N) == Transformation.constant(7, 0)

    def test_explicit_m_reproduces_the_default(self):
        S = example_semigroup()
        M = SemigroupSet(
            [
                Transformation([0, 0, 0, 0]),
                Transformation([0, 0, 0, 1]),
                Transformation([0, 0, 1, 0]),
            ]
        )
        assert nullify(S, m_override=M).elements == nullify(S).elements

    def test_other_valid_m(self):
        S = example_semigroup()
        M = SemigroupSet(
            [
                Transformation([0, 0, 0, 0]),
                Transformation([0, 0, 1, 0]),
                Transformation([0, 0, 1, 1]),
            ]
        )
        N = nullify(S, m_override=M)
        assert len(N) == 7
        assert is_null(N)[0]


class TestNullifyErrors:
    def test_rejects_groups(self):
        with pytest.raises(ValueError, match="group"):
            nullify(closure([Transformation([1, 0])]))
        with pytest.raises(ValueError, match="group"):
            nullify(closure([Transformation([1, 2, 0])]))

    def test_group_with_smaller_identity_is_fine(self):
        # e = (0,1,1) is not the identity map, so the surgery applies
        S = closure([Transformation([1, 0, 0])])
        N = nullify(S)
        assert {tuple(a.img) for a in N} == {(0, 0, 0), (0, 0, 1)}

    def test_m_override_validation(self):
        S = example_semigroup()
        c0 = Transformation.constant(4, 0)
        with pytest.raises(ValueError, match="exactly 3"):
            nullify(S, m_override=null_max(4))
        with pytest.raises(ValueError, match="constant map"):
            nullify(
                S,
                m_override=SemigroupSet(
                    [
                        Transformation([0, 0, 0, 1]),
                        Transformation([0, 0, 1, 0]),
                        Transformation([0, 0, 1, 1]),
                    ]
                ),
            )
        with pytest.raises(ValueError, match="degree 4"):
            nullify(
                S,
                m_override=SemigroupSet(
                    [
                        Transformation.constant(5, 0),
                        Transformation([0, 0, 0, 0, 1]),
                        Transformation([0, 0, 0, 1, 0]),
                    ]
                ),
            )
        with pytest.raises(ValueError, match="null shape"):
            nullify(
                S,
                m_override=SemigroupSet(
                    [c0, Transformation([0, 0, 0, 1]), Transformation([0, 0, 2, 0])]
                ),
            )
        with pytest.raises(ValueError, match="full"):
            nullify(
                S,
                m_override=SemigroupSet(
                    [
                        PartialTransformation([0, 0, 0, 0]),
                        PartialTransformation([0, 0, 0, 1]),
                        PartialTransformation([0, 0, 1, 0]),
                    ]
                ),
            )

    def test_output_is_certified_before_it_is_flagged(self, monkeypatch):
        relabel = trees._relabel

        def one_wrong_letter(t):
            out = relabel(t)
            out[-1] = (1,) + out[-1][1:]  # sigma[0] no longer goes to sigma[0]
            return out

        monkeypatch.setattr(trees, "_relabel", one_wrong_letter)
        with pytest.raises(RuntimeError, match="not in the null shape"):
            nullify_trace(example_semigroup())


class TestNullifyRandom:
    def test_many_random_inputs(self):
        for seed in range(50):
            n = 2 + seed % 5
            S = random_commutative_unique_idem(n, seed)
            tr = nullify_trace(S)
            N = tr.result
            assert N.is_closed()
            ok, zero = is_null(N)
            assert ok
            assert len(N) == len(S)
            assert zero == unique_idempotent(N)
            assert zero.rank() == 1
            validate_tree_lemmas(tr.tree_s, tr.r)

    def test_random_single_generator_inputs(self):
        rng = random.Random(11)
        done = 0
        while done < 30:
            n = rng.randint(3, 7)
            a = Transformation(tuple(rng.randrange(n) for _ in range(n)))
            S = closure([a])
            e = unique_idempotent(S)  # cyclic: always exactly one idempotent
            if e == Transformation.identity(n):
                continue
            N = nullify(S)
            assert is_null(N)[0]
            assert len(N) == len(S)
            done += 1


class TestDot:
    def test_dot_marks_the_trunk(self):
        dot = tree_to_dot(build_tree(null_max(4), (0, 1, 2, 3)))
        assert dot.startswith("// level kinds: 1:LINEAR 2:LINEAR 3:BRANCHING")
        assert "// trunk length: 2" in dot
        assert "digraph tree {" in dot
        assert 'root -> n_1 [label="1" style=bold penwidth=2];' in dot
        assert dot.endswith("}\n")

    def test_dot_on_the_example(self):
        tree = build_tree(example_semigroup(), (0, 3, 6, 2, 4, 1, 5))
        dot = tree_to_dot(tree)
        # labels are 1-based: the root arcs carry 1, 4, 7
        assert 'root -> n_1 [label="1"];' in dot
        assert 'root -> n_4 [label="4"];' in dot
        assert 'root -> n_7 [label="7"];' in dot
        assert "style=bold" not in dot
