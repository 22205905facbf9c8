"""Tests for the JSON interchange format and the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from commsemi import cli
from commsemi.extremal import e_ix, gamma, null_max, omega_pn, xi_table
from commsemi.semigroups import SemigroupSet, closure, enumerate_full
from commsemi.serialization import (
    dumps_report,
    dumps_semigroup,
    load_semigroup,
    load_semigroup_file,
    semigroup_digest,
    to_jsonable,
    write_semigroup_file,
    write_xi_csv,
)
from commsemi.transform import PartialTransformation, Transformation

EXAMPLE_IMGS = [
    (0, 6, 3, 3, 3, 3, 6),
    (0, 6, 3, 3, 3, 2, 6),
    (0, 6, 3, 3, 3, 4, 6),
    (3, 0, 6, 6, 6, 6, 0),
    (6, 3, 0, 0, 0, 0, 3),
    (6, 2, 0, 0, 0, 0, 3),
    (6, 4, 0, 0, 0, 0, 3),
]


def example_semigroup():
    return SemigroupSet([Transformation(img) for img in EXAMPLE_IMGS])


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example.json"
    write_semigroup_file(example_semigroup(), str(path))
    return str(path)


class TestSerialization:
    def test_canonical_string(self):
        assert dumps_semigroup(null_max(2)) == '{"degree":2,"elements":[[0,0]],"kind":"full"}'
        assert (
            dumps_semigroup(e_ix(1))
            == '{"degree":1,"elements":[[0],[null]],"kind":"partial"}'
        )

    def test_digest_frozen(self):
        assert (
            semigroup_digest(null_max(2))
            == "70bf3322eec6f3ee3803295f299f80ccc6ccad71ceee4dded325fd11fc12ff71"
        )
        assert semigroup_digest(gamma(3, 0)) != semigroup_digest(gamma(3, 1))

    def test_round_trip_full(self):
        S = gamma(4, 2)
        T = load_semigroup(json.loads(dumps_semigroup(S)))
        assert T.elements == S.elements
        assert T.kind == "full"

    def test_round_trip_partial(self):
        S = omega_pn(3, [1])
        obj = to_jsonable(S)
        assert [None, None, None] in obj["elements"]
        T = load_semigroup(obj)
        assert T.elements == S.elements
        assert T.kind == "partial"

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "s.json"
        S = e_ix(2)
        write_semigroup_file(S, str(path))
        text = path.read_text()
        assert text.endswith("\n")
        assert load_semigroup_file(str(path)).elements == S.elements

    def test_null_spelling(self):
        T = load_semigroup(
            {"degree": 2, "kind": "partial", "elements": [[None, 1]]}
        )
        assert T.elements == (PartialTransformation([None, 1]),)

    def test_strict_errors(self):
        good = {"degree": 2, "kind": "full", "elements": [[0, 0]]}
        with pytest.raises(ValueError, match="JSON object"):
            load_semigroup([good])
        with pytest.raises(ValueError, match="unexpected keys"):
            load_semigroup({**good, "comment": "hi"})
        with pytest.raises(ValueError, match="missing keys"):
            load_semigroup({"degree": 2, "kind": "full"})
        with pytest.raises(ValueError, match="degree"):
            load_semigroup({**good, "degree": True})
        with pytest.raises(ValueError, match="degree"):
            load_semigroup({**good, "degree": 0})
        with pytest.raises(ValueError, match="kind"):
            load_semigroup({**good, "kind": "sym"})
        with pytest.raises(ValueError, match="non-empty"):
            load_semigroup({**good, "elements": []})
        with pytest.raises(ValueError, match="list of 2"):
            load_semigroup({**good, "elements": [[0]]})
        with pytest.raises(ValueError, match="null image"):
            load_semigroup({**good, "elements": [[0, None]]})
        with pytest.raises(ValueError, match="out of range"):
            load_semigroup({**good, "elements": [[0, 2]]})
        with pytest.raises(ValueError, match="out of range"):
            load_semigroup({**good, "elements": [[0, True]]})
        with pytest.raises(ValueError, match="duplicates"):
            load_semigroup({**good, "elements": [[0, 0], [0, 0]]})

    def test_bad_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_semigroup_file(str(path))

    def test_xi_csv(self, tmp_path):
        path = tmp_path / "xi.csv"
        write_xi_csv(xi_table(3), str(path))
        assert path.read_text().splitlines() == [
            "n,alpha,xi",
            "1,1,1",
            "2,2,1",
            "3,2,2",
        ]

    def test_report_shape(self):
        text = dumps_report({"b": 1, "a": [1, 2]})
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == {"a": [1, 2], "b": 1}


class TestCliBasics:
    def test_no_arguments(self, capsys):
        assert cli.run([]) == 2
        capsys.readouterr()

    def test_help(self, capsys):
        assert cli.run(["--help"]) == 0
        assert "verify" in capsys.readouterr().out

    def test_xi_table(self, capsys, tmp_path):
        csv_path = tmp_path / "xi.csv"
        assert cli.run(["xi", "--max", "5", "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].split() == ["n", "alpha", "xi"]
        assert out[5].split() == ["5", "3", "9"]
        assert f"wrote {csv_path}" in out[6]
        assert csv_path.read_text().splitlines()[0] == "n,alpha,xi"

    def test_xi_rejects_zero(self, capsys):
        assert cli.run(["xi", "--max", "0"]) == 2
        assert "error:" in capsys.readouterr().err


class TestCliConstruct:
    def test_gamma(self, capsys, tmp_path):
        out_path = tmp_path / "g.json"
        assert cli.run(["construct", "gamma", "--n", "3", "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "kind=full degree=3 size=4" in out
        assert "  1 1 1" in out  # the constant map, 1-based
        assert load_semigroup_file(str(out_path)).elements == gamma(3, 0).elements

    def test_gamma_bad_point(self, capsys):
        assert cli.run(["construct", "gamma", "--n", "3", "--x", "5"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_nullmax_with_points(self, capsys):
        assert cli.run(["construct", "nullmax", "--n", "4", "--points", "2,1"]) == 0
        out = capsys.readouterr().out
        assert "kind=full degree=4 size=4" in out
        assert "  2 2 1 1" in out

    def test_omega_default_base(self, capsys):
        assert cli.run(["construct", "omega", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "kind=partial degree=3 size=4" in out
        assert "  - - -" in out  # the empty map

    def test_knit(self, capsys):
        assert cli.run(["construct", "knit", "--n", "4"]) == 0
        out = capsys.readouterr().out
        assert "left-path witnesses" in out
        assert "  1 1 1 1" in out
        assert "  1 1 1 2" in out

    def test_large_set_is_summarised(self, capsys):
        assert cli.run(["construct", "eix", "--n", "8"]) == 0
        out = capsys.readouterr().out
        assert "size=256" in out
        assert "256 elements" in out

    def test_bad_points_text(self, capsys):
        assert cli.run(["construct", "nullmax", "--n", "4", "--points", "1,x"]) == 2
        assert "error:" in capsys.readouterr().err


class TestCliAnalyze:
    def test_example(self, capsys, example_file):
        assert cli.run(["analyze", example_file]) == 0
        out = capsys.readouterr().out
        assert "degree: 7" in out
        assert "kind: full" in out
        assert "size: 7" in out
        assert "closed: True" in out
        assert "commutative: True" in out
        assert "idempotents: 1" in out
        assert "unique idempotent: 1 7 4 4 4 4 7" in out
        assert "null: False" in out
        assert "group: False" in out
        assert "image union: {1, 3, 4, 5, 7}" in out

    def test_group_classification(self, capsys, tmp_path):
        path = tmp_path / "c3.json"
        write_semigroup_file(closure([Transformation([1, 2, 0])]), str(path))
        assert cli.run(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "group: True" in out
        assert "classification: C3" in out

    def test_non_closed_stops_early(self, capsys, tmp_path):
        path = tmp_path / "open.json"
        write_semigroup_file(SemigroupSet([Transformation([1, 2, 0, 0])]), str(path))
        assert cli.run(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "closed: False" in out
        assert "further structure" in out
        assert "null:" not in out

    def test_missing_file(self, capsys):
        assert cli.run(["analyze", "/nonexistent/x.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_json(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("hello")
        assert cli.run(["analyze", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_degree_above_byte_range(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"degree": 256, "kind": "full", "elements": [list(range(256))]}))
        assert cli.run(["analyze", str(path)]) == 2
        assert "degree must be between 1 and 255" in capsys.readouterr().err


class TestCliTreePipeline:
    def test_spartition(self, capsys, example_file):
        assert cli.run(["spartition", example_file]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "A_0: {1, 4, 7}",
            "A_1: {3, 5}",
            "A_2: {2, 6}",
        ]

    def test_spartition_rejects_non_commutative(self, capsys, tmp_path):
        path = tmp_path / "t2.json"
        write_semigroup_file(enumerate_full(2), str(path))
        assert cli.run(["spartition", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_tree(self, capsys, example_file, tmp_path):
        dot = tmp_path / "tree.dot"
        assert cli.run(["tree", example_file, "--dot", str(dot)]) == 0
        out = capsys.readouterr().out
        assert "point order: 1 4 7 3 5 2 6" in out
        assert "leaves: 7" in out
        assert "depth: 7" in out
        assert "levels: BLLLLBB" in out
        assert "trunk length: 0" in out
        assert "max branching arcs: 3" in out
        assert dot.read_text().startswith("// level kinds:")

    def test_nullify(self, capsys, example_file, tmp_path):
        out_path = tmp_path / "null.json"
        assert cli.run(["nullify", example_file, "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "input size: 7" in out
        assert "top-layer size: 3" in out
        assert "levels before surgery: BLLLLBB" in out
        assert "levels after surgery:  LLLBBBB" in out
        assert "contracted levels: 2" in out
        assert "output size: 7 (null, zero: 1 1 1 1 1 1 1)" in out
        N = load_semigroup_file(str(out_path))
        assert {tuple(a.img) for a in N} == {
            (0, 0, 0, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 3, 0),
            (0, 0, 0, 0, 0, 6, 0),
            (0, 0, 0, 0, 3, 0, 0),
            (0, 0, 3, 0, 0, 0, 0),
            (0, 3, 3, 0, 0, 0, 0),
            (0, 6, 3, 0, 0, 0, 0),
        }

    def test_nullify_with_m_override(self, capsys, example_file, tmp_path):
        m_path = tmp_path / "m.json"
        write_semigroup_file(
            SemigroupSet(null_max(4).elements[:3], commutative=True), str(m_path)
        )
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert cli.run(["nullify", example_file, "--out", str(first)]) == 0
        assert (
            cli.run(
                ["nullify", example_file, "--m-override", str(m_path), "--out", str(second)]
            )
            == 0
        )
        capsys.readouterr()
        assert first.read_text() == second.read_text()

    def test_nullify_rejects_groups(self, capsys, tmp_path):
        path = tmp_path / "group.json"
        write_semigroup_file(closure([Transformation([1, 0])]), str(path))
        assert cli.run(["nullify", str(path)]) == 2
        assert "group" in capsys.readouterr().err


class TestCliGraph:
    @pytest.fixture
    def t3_file(self, tmp_path):
        path = tmp_path / "t3.json"
        write_semigroup_file(enumerate_full(3), str(path))
        return str(path)

    def test_stats_and_outputs(self, capsys, t3_file, tmp_path):
        dot = tmp_path / "g.dot"
        adj = tmp_path / "g.adj"
        assert (
            cli.run(
                [
                    "graph",
                    t3_file,
                    "--clique",
                    "--girth",
                    "--knit",
                    "4",
                    "--dot",
                    str(dot),
                    "--adj",
                    str(adj),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "vertices: 26" in out
        assert "center size: 1" in out
        assert "clique number: 3" in out
        assert "girth: 3" in out
        assert "knit degree: 1 (searched lengths 1..4)" in out
        assert dot.read_text().startswith("// commuting graph:")
        from commsemi.graphs import read_adjacency

        degree, kind, count, _ = read_adjacency(str(adj))
        assert (degree, kind, count) == (3, "full", 26)

    def test_degree_2_extremes(self, capsys, tmp_path):
        path = tmp_path / "t2.json"
        write_semigroup_file(enumerate_full(2), str(path))
        assert cli.run(["graph", str(path), "--girth", "--knit", "3"]) == 0
        out = capsys.readouterr().out
        assert "girth: infinity" in out
        assert "knit degree: none (searched lengths 1..3)" in out

    def test_knit_length_below_one(self, capsys, t3_file):
        for k in ("0", "-3"):
            assert cli.run(["graph", t3_file, f"--knit={k}"]) == 2
            assert "at least 1" in capsys.readouterr().err

    def test_rejects_commutative(self, capsys, tmp_path):
        path = tmp_path / "gamma.json"
        write_semigroup_file(gamma(3, 0), str(path))
        assert cli.run(["graph", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestCliVerify:
    def test_idem_max_full_4(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        args = [
            "verify",
            "--claim",
            "idem-max",
            "--n",
            "4",
            "--kind",
            "full",
            "--json",
            str(report_path),
        ]
        assert cli.run(args) == 0
        out = capsys.readouterr().out
        assert (
            "claim=idem-max n=4 kind=full expected=8 computed=8 match=True" in out
        )
        report = json.loads(report_path.read_text())
        assert report["match"] is True
        assert report["expected"] == report["computed"] == 8
        assert len(report["witness_digests"]) == 4
        assert isinstance(report["runtime_seconds"], (int, float))

    def test_xi_table_rows(self, capsys):
        assert cli.run(["verify", "--claim", "xi-table", "--n", "20", "--kind", "full"]) == 0
        assert "expected=[20 rows] computed=[20 rows] match=True" in capsys.readouterr().out

    def test_girth_infinity(self, capsys):
        assert cli.run(["verify", "--claim", "girth", "--n", "2", "--kind", "full"]) == 0
        assert "expected=infinity computed=infinity match=True" in capsys.readouterr().out

    def test_knit_none(self, capsys):
        assert cli.run(["verify", "--claim", "knit", "--n", "2", "--kind", "partial"]) == 0
        assert "expected=none computed=none match=True" in capsys.readouterr().out

    def test_comm_max_partial_json(self, capsys, tmp_path):
        report_path = tmp_path / "r.json"
        args = [
            "verify",
            "--claim",
            "comm-max",
            "--n",
            "3",
            "--kind",
            "partial",
            "--json",
            str(report_path),
        ]
        assert cli.run(args) == 0
        capsys.readouterr()
        report = json.loads(report_path.read_text())
        assert report["expected"] == report["computed"] == 8
        assert len(report["witness_digests"]) == 1

    def test_output_independent_of_hash_seed(self, tmp_path):
        # element hashes are salted per process; no output may depend on them
        report = tmp_path / "F.json"
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        runs = []
        for seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-m", "commsemi.cli", "verify", "--claim", "unique-idem-max",
                 "--n", "4", "--kind", "partial", "--json", str(report)],
                env=dict(env, PYTHONHASHSEED=seed), capture_output=True, text=True, check=True,
            )
            rep = json.loads(report.read_text())
            runs.append((proc.stdout, rep["computed"], rep["witness_digests"]))
        assert runs[0] == runs[1]
        assert runs[0][1] == 9 and runs[0][2]

    def test_cap_exceeded(self, capsys):
        assert cli.run(["verify", "--claim", "pclique", "--n", "6", "--kind", "full"]) == 2
        assert "capped" in capsys.readouterr().err

    def test_unknown_claim(self, capsys):
        assert cli.run(["verify", "--claim", "chromatic", "--n", "3", "--kind", "full"]) == 2
        capsys.readouterr()

    def test_abelian_needs_full(self, capsys):
        assert (
            cli.run(["verify", "--claim", "abelian-max", "--n", "4", "--kind", "partial"])
            == 2
        )
        assert "error:" in capsys.readouterr().err


# Degrees `verify` accepts, per claim and kind (inclusive ranges; None = none).
VERIFY_RANGES = {
    "comm-max": {"full": (2, 5), "partial": (2, 4)},
    "idem-max": {"full": (1, 6), "partial": (1, 5)},
    "unique-idem-max": {"full": (1, 5), "partial": (1, 4)},
    "null-max": {"full": (1, 5), "partial": (1, 4)},
    "abelian-max": {"full": (2, 6), "partial": None},
    "pclique": {"full": (2, 5), "partial": (2, 4)},
    "girth": {"full": (2, 5), "partial": (2, 4)},
    "knit": {"full": (2, 6), "partial": (2, 5)},
    "xi-table": {"full": (1, 20), "partial": (1, 20)},
}


class TestVerifyRange:
    """Pins the accepted degrees of every claim without running a real search.

    Enumeration is replaced by the identity and the constants to 0 and 1
    of the requested degree, so every search and graph statistic runs on a
    tiny non-commutative monoid: accepted degrees exit 0 or 1, and every
    other degree must exit 2.
    """

    @staticmethod
    def _tiny(cls):
        def make(n):
            if n < 2:
                return SemigroupSet([cls.identity(n)])
            return SemigroupSet([cls.identity(n), cls([0] * n), cls([1] * n)])

        return make

    @pytest.fixture
    def stubbed(self, monkeypatch):
        stubs = {
            "enumerate_full": self._tiny(Transformation),
            "enumerate_partial": self._tiny(PartialTransformation),
            "enumerate_sym": lambda n: SemigroupSet([Transformation.identity(n)]),
        }
        for modname, mod in list(sys.modules.items()):
            if modname == "commsemi" or modname.startswith("commsemi."):
                for name, stub in stubs.items():
                    if hasattr(mod, name):
                        monkeypatch.setattr(mod, name, stub)

    def test_accepted_degrees(self, stubbed, capsys):
        accepted = {}
        for claim, kinds in VERIFY_RANGES.items():
            for kind in kinds:
                for n in range(-2, 25):
                    code = cli.run(["verify", "--claim", claim, f"--n={n}", "--kind", kind])
                    assert code in (0, 1, 2), (claim, kind, n, code)
                    if code != 2:
                        accepted.setdefault((claim, kind), []).append(n)
        capsys.readouterr()
        expected = {
            (claim, kind): list(range(span[0], span[1] + 1))
            for claim, kinds in VERIFY_RANGES.items()
            for kind, span in kinds.items()
            if span is not None
        }
        assert accepted == expected
