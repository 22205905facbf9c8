"""The fourteen acceptance checks, one test per numbered criterion.

Every test prints a single ``criterion N (...): pass/FAIL`` line (visible
with ``pytest -s``, or in the captured output on failure) and asserts its
time budget with a monotonic clock.  The degree-5 full commutative maximum
is the one long search; it runs only with ``RUN_SLOW=1``.  The final
criterion reads the module-wide closure-check counters, so it must stay the
last test in this file.
"""

import time
from collections import Counter

import pytest

from commsemi import cli
from commsemi.extremal import (
    abelian_witness,
    e_ix,
    gamma,
    knit_witness,
    null_plus_identity,
    xi_alpha,
)
from commsemi.graphs import build, girth, knit_degree, max_clique, shortest_left_path
from commsemi.oracle import (
    TABLE1,
    closure_check_stats,
    max_abelian_subgroup,
    max_commutative,
    max_commutative_idempotent,
    max_null,
    max_unique_idempotent,
    random_commutative_unique_idem,
)
from commsemi.semigroups import (
    SemigroupSet,
    enumerate_full,
    enumerate_partial,
    is_null,
)
from commsemi.transform import Transformation, embed_partial
from commsemi.trees import (
    build_tree,
    nullify_trace,
    s_partition,
    validate_tree_lemmas,
    words,
)

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


class _Criterion:
    """Context manager printing one pass/FAIL line and enforcing a budget."""

    def __init__(self, num: int, label: str, budget: float | None = None):
        self.num, self.label, self.budget = num, label, budget

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        in_budget = self.budget is None or elapsed <= self.budget
        status = "pass" if exc_type is None and in_budget else "FAIL"
        budget = "" if self.budget is None else f" / budget {self.budget:.0f}s"
        print(f"criterion {self.num:2d} ({self.label}): {status} [{elapsed:.2f}s{budget}]")
        if exc_type is None and not in_budget:
            raise AssertionError(
                f"criterion {self.num} exceeded its budget: {elapsed:.2f}s > {self.budget}s"
            )
        return False


def test_criterion_01_xi_table(capsys):
    with _Criterion(1, "xi/alpha table, 20 rows", budget=1.0):
        assert cli.run(["xi", "--max", "20"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 21
        for line in lines[1:]:
            n, alpha, xi = (int(v) for v in line.split())
            assert TABLE1[n] == (alpha, xi)


def test_criterion_02_idempotent_maximum_full():
    with _Criterion(2, "idempotent maximum, full, degrees 2-5", budget=300.0):
        for n in range(2, 6):
            t0 = time.monotonic()
            r = max_commutative_idempotent(n, "full")
            assert r.size == 2 ** (n - 1)
            assert len(r.maximizers) == n
            assert Counter(r.tags) == {f"GAMMA:{x}": 1 for x in range(n)}
            for M, tag in zip(r.maximizers, r.tags):
                x = int(tag.split(":")[1])
                assert M.elements == gamma(n, x).elements
            if n <= 4:
                assert time.monotonic() - t0 < 10.0


def test_criterion_03_idempotent_maximum_partial():
    with _Criterion(3, "idempotent maximum, partial, degrees 2-4", budget=60.0):
        for n in range(2, 5):
            r = max_commutative_idempotent(n, "partial")
            assert r.size == 2**n
            assert len(r.maximizers) == 1
            assert r.tags == ("EIX",)
            assert r.maximizers[0].elements == e_ix(n).elements


def test_criterion_04_commutative_maximum_full():
    with _Criterion(4, "commutative maximum, full, degrees 2-4", budget=60.0):
        for n in (2, 3, 4):
            omega = max_clique(build(enumerate_full(n))).size
            assert omega == 2 ** (n - 1) - 1
        r = max_commutative(2, "full")
        assert r.size == 2
        assert Counter(r.tags) == {"GAMMA:0": 1, "GAMMA:1": 1, "GROUP:C2": 1}
        for n in (3, 4):
            r = max_commutative(n, "full")
            assert r.size == 2 ** (n - 1)
            assert Counter(r.tags) == {f"GAMMA:{x}": 1 for x in range(n)}


@pytest.mark.slow
def test_criterion_04_commutative_maximum_full_degree_5():
    with _Criterion(4, "commutative maximum, full, degree 5 (slow)", budget=1800.0):
        r = max_commutative(5, "full")
        assert r.size == 16  # omega = 15 plus the identity center
        assert Counter(r.tags) == {f"GAMMA:{x}": 1 for x in range(5)}


def test_criterion_05_commutative_maximum_partial():
    with _Criterion(5, "commutative maximum, partial, degrees 2-4", budget=600.0):
        for n in (2, 3):
            t0 = time.monotonic()
            omega = max_clique(build(enumerate_partial(n))).size
            assert omega == 2**n - 2
            r = max_commutative(n, "partial")
            assert r.size == 2**n
            assert r.tags == ("EIX",)
            assert time.monotonic() - t0 < 60.0
        r = max_commutative(4, "partial")
        assert r.size == 2**4
        assert r.tags == ("EIX",)
        assert r.maximizers[0].elements == e_ix(4).elements


def test_criterion_06_unique_idempotent_maximum():
    with _Criterion(6, "unique-idempotent maximum, both kinds", budget=600.0):
        assert max_unique_idempotent(2, "full")[::2] == (2, ("GROUP:C2",))
        assert max_unique_idempotent(3, "full")[::2] == (3, ("GROUP:C3",))
        r = max_unique_idempotent(4, "full")
        assert r.size == 4
        tags = Counter(r.tags)
        assert tags["GROUP:C4"] == 3
        assert tags["GROUP:C2xC2"] == 4
        null_tags = [t for t in r.tags if t.startswith("NULL:N(")]
        assert len(null_tags) == 12 == len(set(null_tags))
        r = max_unique_idempotent(5, "full")
        assert r.size == 9 == TABLE1[5][1]
        assert len(r.maximizers) == 30
        assert all(t.startswith("NULL:N(") for t in r.tags)

        r = max_unique_idempotent(2, "partial")
        assert r.size == 2 == TABLE1[3][1]
        assert Counter(r.tags) == {
            "GROUP:C2": 1,
            "NULL:OMEGA(0)": 1,
            "NULL:OMEGA(1)": 1,
        }
        r = max_unique_idempotent(3, "partial")
        assert r.size == 4 == TABLE1[4][1]
        assert Counter(r.tags) == {f"NULL:OMEGA({b})": 1 for b in range(3)}
        r = max_unique_idempotent(4, "partial")
        assert r.size == 9 == TABLE1[5][1]
        assert all(t.startswith("NULL:OMEGA(") for t in r.tags)
        assert len(r.maximizers) == 6


def test_criterion_07_null_maximum():
    with _Criterion(7, "null/nilpotent maximum, both kinds", budget=600.0):
        expected_full = {2: 1, 3: 2, 4: 4, 5: 9}
        for n, want in expected_full.items():
            r = max_null(n, "full")
            assert r.size == want == TABLE1[n][1]
            if n == 2:
                assert r.tags == ("NULL:N(0;1)", "ID", "NULL:N(1;0)")
            else:
                assert all(t.startswith("NULL:N(") for t in r.tags)
                assert len(set(r.tags)) == len(r.tags)
        for n in (2, 3, 4):
            r = max_null(n, "partial")
            assert r.size == TABLE1[n + 1][1]
            assert all(t.startswith("NULL:OMEGA(") for t in r.tags)


def test_criterion_08_abelian_subgroup_maximum():
    with _Criterion(8, "abelian subgroup maximum, degrees 2-6", budget=300.0):
        for n, want in {2: 2, 3: 3, 4: 4, 5: 6, 6: 9}.items():
            r = max_abelian_subgroup(n)
            assert r.size == want
            assert len(abelian_witness(n)) == want


def test_criterion_09_tree_pipeline_worked_example():
    with _Criterion(9, "surgery on the degree-7 example", budget=1.0):
        S = SemigroupSet([Transformation(img) for img in EXAMPLE_IMGS])
        part = s_partition(S)
        assert part.blocks == ((0, 3, 6), (2, 4), (1, 5))
        sigma = (0, 3, 6, 2, 4, 1, 5)
        assert words(S, sigma) == EXAMPLE_WORDS
        tree = build_tree(S, sigma)
        assert tree.leaf_count == 7
        branchings = sorted(
            node for node, letters in tree.children().items() if len(letters) >= 2
        )
        assert branchings == [(), (0, 3, 6, 3, 3, 6), (6, 0, 3, 0, 0)]
        M = SemigroupSet(
            [
                Transformation([0, 0, 0, 0]),
                Transformation([0, 0, 0, 1]),
                Transformation([0, 0, 1, 0]),
            ],
            commutative=True,
        )
        trace = nullify_trace(S, m_override=M)
        assert {tuple(a.img) for a in trace.result} == EXAMPLE_NULL_IMGS
        assert len(trace.result) == 7


def test_criterion_10_tree_pipeline_random_suite():
    with _Criterion(10, "surgery on 500 random semigroups", budget=300.0):
        for seed in range(500):
            n = 2 + seed % 5
            S = random_commutative_unique_idem(n, seed)
            trace = nullify_trace(S)
            N = trace.result
            assert N.is_closed()
            ok, zero = is_null(N)
            assert ok
            assert len(N) == len(S)
            assert zero.rank() == 1
            validate_tree_lemmas(trace.tree_s, trace.r)


def test_criterion_11_embedding_exhaustive():
    with _Criterion(11, "partial-to-full embedding on all of degree 3", budget=1.0):
        P3 = enumerate_partial(3)
        images = {a: embed_partial(a) for a in P3}
        assert len(set(images.values())) == len(P3) == 64
        for a in P3:
            for b in P3:
                assert embed_partial(a * b) == images[a] * images[b]


def test_criterion_12_girth_and_knit():
    with _Criterion(12, "girth and knit degree", budget=60.0):
        assert girth(build(enumerate_full(2))) == float("inf")
        assert girth(build(enumerate_partial(2))) == float("inf")
        assert girth(build(enumerate_full(3))) == 3
        assert girth(build(enumerate_full(4))) == 3
        assert girth(build(enumerate_partial(3))) == 3
        assert girth(build(enumerate_partial(4))) == 3
        for n in (3, 4, 5):
            a1, a2 = knit_witness(n)
            assert a1 != a2
            assert a1 * a1 == a2 * a1 and a1 * a2 == a2 * a2
            assert knit_degree(enumerate_full(n), max_len=4) == 1
            assert knit_degree(enumerate_partial(n), max_len=4) == 1
        assert shortest_left_path(enumerate_full(2), max_len=3) is None
        assert shortest_left_path(enumerate_partial(2), max_len=3) is None


def test_criterion_13_lower_bounds_beyond_exact_regime():
    with _Criterion(13, "null-plus-identity sizes, degrees 7-12", budget=60.0):
        for n in range(7, 13):
            S = null_plus_identity(n)
            assert len(S) == TABLE1[n][1] + 1
            # per-element certificate of closure and commutativity: the
            # identity plus maps collapsing the base points to the zero
            alpha = xi_alpha(n).alpha
            pts = set(range(alpha))
            ident = Transformation.identity(n)
            seen_identity = False
            for a in S:
                if a == ident:
                    seen_identity = True
                    continue
                assert all(a.img[p] == 0 for p in range(alpha))
                assert all(v in pts for v in a.img)
            assert seen_identity


def test_criterion_14_closure_check_soundness():
    # must stay last: it reads the counters accumulated by the tests above
    with _Criterion(14, "clique-to-subsemigroup closure soundness"):
        stats = closure_check_stats()
        assert stats["checks"] > 0
        assert stats["violations"] == 0
