"""Tests for the JSON interchange format and the command-line interface."""

import itertools
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from commsemi import cli
from commsemi.extremal import (
    burns_goldsmith_order,
    e_ix,
    gamma,
    null_max,
    omega_pn,
    xi_alpha,
    xi_table,
)
from commsemi.graphs import build
from commsemi.semigroups import SemigroupSet, closure, enumerate_full
from commsemi.serialization import (
    dumps_report,
    dumps_semigroup,
    load_semigroup,
    load_semigroup_file,
    semigroup_digest,
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
        obj = json.loads(dumps_semigroup(S))
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

    @pytest.mark.parametrize(
        "obj, message",
        [
            (
                {"degree": 256, "kind": "full", "elements": [list(range(256))]},
                "degree must be between 1 and 255, got 256",
            ),
            (
                {"degree": 2, "kind": "full", "elements": [[0, 0], [0, 1.0]]},
                "element 1: image 1.0 out of range 0..1",
            ),
            (
                {"degree": 2, "kind": "full", "elements": [[-1, 0]]},
                "element 0: image -1 out of range 0..1",
            ),
            (
                {"degree": 2, "kind": "partial", "elements": [[None, True]]},
                "element 0: image True out of range 0..1",
            ),
            (
                {"degree": 2, "kind": "partial", "elements": [[0, 1], [None, 2]]},
                "element 1: image 2 out of range 0..1",
            ),
        ],
        ids=["degree-256", "float", "negative", "bool-in-partial", "sentinel-in-partial"],
    )
    def test_checks_before_trusted_construction(self, obj, message):
        # rows are built unchecked after these checks, so each must hold here
        with pytest.raises(ValueError) as err:
            load_semigroup(obj)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "kind, bad, message",
        [
            ("full", True, "element 4095: image True out of range 0..9"),
            ("full", 1.0, "element 4095: image 1.0 out of range 0..9"),
            ("full", -1, "element 4095: image -1 out of range 0..9"),
            ("full", 10, "element 4095: image 10 out of range 0..9"),
            ("full", None, "element 4095: null image in a full map"),
            ("full", 256, "element 4095: image 256 out of range 0..9"),  # past a byte
            ("full", 2**70, f"element 4095: image {2**70} out of range 0..9"),
            ("partial", True, "element 4095: image True out of range 0..8"),
            ("partial", 1.0, "element 4095: image 1.0 out of range 0..8"),
            ("partial", -1, "element 4095: image -1 out of range 0..8"),
            ("partial", 9, "element 4095: image 9 out of range 0..8"),  # the sentinel
        ],
    )
    def test_bad_value_in_the_last_row_of_a_large_file(self, kind, bad, message):
        # ξ(10) = 4096 rows, checked all at once; the message names the row
        S = null_max(10) if kind == "full" else omega_pn(9, [1, 4, 6])
        obj = json.loads(dumps_semigroup(S))
        assert len(obj["elements"]) == 4096
        obj["elements"][-1][-1] = bad
        with pytest.raises(ValueError) as err:
            load_semigroup(obj)
        assert str(err.value) == message

    @pytest.mark.parametrize("kind", ["full", "partial"])
    @pytest.mark.parametrize(
        "row", [[0, 0], "0000000000", None, {"0": 0}], ids=["short", "text", "null", "object"]
    )
    def test_bad_last_row_of_a_large_file(self, kind, row):
        S = null_max(10) if kind == "full" else omega_pn(9, [1, 4, 6])
        obj = json.loads(dumps_semigroup(S))
        obj["elements"][-1] = row
        with pytest.raises(ValueError) as err:
            load_semigroup(obj)
        n = S.degree
        assert str(err.value) == f"element 4095 must be a list of {n} images"
        obj["elements"][7] = [0] * (n + 1)  # an earlier bad row is named first
        with pytest.raises(ValueError, match=f"^element 7 must be a list of {n} images$"):
            load_semigroup(obj)

    def test_int_subclass_rows_load(self):
        class Point(int):
            pass

        for S in (null_max(5), omega_pn(4, [0, 2])):
            obj = json.loads(dumps_semigroup(S))
            row = obj["elements"][-1]
            obj["elements"][-1] = [v if v is None else Point(v) for v in row]
            assert load_semigroup(obj) == S

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

    def test_xi_rejects_one_row_over_the_cap(self, capsys):
        assert cli.run(["xi", "--max", "1001"]) == 2
        assert "capped at 1000" in capsys.readouterr().err


class TestCliConstruct:
    def test_gamma(self, capsys, tmp_path):
        out_path = tmp_path / "g.json"
        assert cli.run(["construct", "gamma", "--n", "3", "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "kind=full degree=3 size=4" in out
        assert "  1 1 1" in out  # the constant map, 1-based
        assert load_semigroup_file(str(out_path)).elements == gamma(3, 0).elements

    def test_gamma_bad_point(self, capsys):
        # named as typed: 1-based, checked against --n
        for x in ("0", "4", "5"):
            assert cli.run(["construct", "gamma", "--n", "3", "--x", x]) == 2
            assert f"error: --x {x} is out of range for degree 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "what, option, text, bad",
        [
            ("nullmax", "--points", "1,9,3", "9"),
            ("nullmax", "--points", "0,1", "0"),
            ("nullid", "--points", "2,5", "5"),
            ("omega", "--b", "7", "7"),
        ],
    )
    def test_point_list_out_of_range(self, capsys, what, option, text, bad):
        assert cli.run(["construct", what, "--n", "4", option, text]) == 2
        err = capsys.readouterr().err
        assert f"error: {option} {bad} is out of range for degree 4" in err

    @pytest.mark.parametrize(
        "args, message",
        [
            (
                ["nullmax", "--n", "4", "--points", "1,1"],
                "--points needs exactly 2 distinct points (α(4) = 2), got 1,1",
            ),
            (
                ["nullid", "--n", "5", "--points", "1,2"],
                "--points needs exactly 3 distinct points (α(5) = 3), got 1,2",
            ),
            (
                ["omega", "--n", "4", "--b", "1,1"],
                "--b needs exactly 2 distinct points (α(5) − 1 = 2), got 1,1",
            ),
        ],
        ids=["nullmax-repeated", "nullid-too-few", "omega-repeated"],
    )
    def test_point_list_count_and_repeats(self, capsys, args, message):
        # named as typed, 1-based, and only by the option the user gave
        assert cli.run(["construct", *args]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"

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

    @pytest.mark.parametrize(
        "what, n",
        [("eix", 0), ("omega", 0), ("nullid", 1)],
    )
    def test_degenerate_degree(self, capsys, tmp_path, what, n):
        # nothing is written that analyze would then reject
        out_path = tmp_path / "s.json"
        assert cli.run(["construct", what, "--n", str(n), "--out", str(out_path)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "what, top",
        [
            ("gamma", 17),  # 2^16 = 65,536 elements; 2^17 is over 100,000
            ("eix", 16),  # 2^16
            ("nullmax", 12),  # ξ(12) = 78,125; ξ(13) = 390,625
            ("omega", 11),  # ξ(12)
            ("nullid", 12),  # ξ(12) + 1
            ("abelian", 31),  # 4·3^9 = 78,732; 2·3^10 = 118,098 at n = 32
        ],
    )
    def test_one_degree_over_the_size_cap(self, capsys, what, top):
        assert cli.run(["construct", what, "--n", str(top + 1)]) == 2
        err = capsys.readouterr().err
        assert f"capped at n ≤ {top}," in err
        assert "100000 elements" in err

    def test_size_cap_table_matches_the_closed_forms(self):
        sizes = {
            "gamma": lambda n: 2 ** (n - 1),
            "eix": lambda n: 2**n,
            "nullmax": lambda n: xi_alpha(n).xi,
            "omega": lambda n: xi_alpha(n + 1).xi,
            "nullid": lambda n: xi_alpha(n).xi + 1,
            "abelian": burns_goldsmith_order,
        }
        assert cli._CONSTRUCT_TOP.keys() == sizes.keys()
        for what, top in cli._CONSTRUCT_TOP.items():
            assert sizes[what](top) <= cli._MAX_CONSTRUCT_ELEMENTS < sizes[what](top + 1)

    def test_size_cap_is_checked_before_building(self, capsys):
        # ξ(n) at this degree alone would take minutes
        assert cli.run(["construct", "nullmax", "--n", "100000"]) == 2
        assert "capped at n ≤ 12," in capsys.readouterr().err


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

    def test_empty_center(self, capsys, tmp_path):
        path = tmp_path / "constants.json"
        path.write_text('{"degree":3,"kind":"full","elements":[[0,0,0],[1,1,1],[2,2,2]]}')
        assert cli.run(["analyze", str(path)]) == 0
        assert "center size: 0" in capsys.readouterr().out
        assert cli.run(["graph", str(path)]) == 0
        out = capsys.readouterr().out
        assert "vertices: 3" in out
        assert "center size: 0" in out

    # the null, nilpotent, group and classification lines, byte for byte
    PINNED = {
        "nullmax6": (
            "degree: 6\nkind: full\nsize: 27\nclosed: True\ncommutative: True\n"
            "idempotents: 1\nunique idempotent: 1 1 1 1 1 1\n"
            "null: True (zero: 1 1 1 1 1 1)\nnilpotent: True\ngroup: False\n"
            "center size: 27\nimage union: {1, 2, 3}\n"
        ),
        "klein": (
            "degree: 4\nkind: full\nsize: 4\nclosed: True\ncommutative: True\n"
            "idempotents: 1\nunique idempotent: 1 2 3 4\nnull: False\nnilpotent: False\n"
            "group: True\nclassification: C2xC2\ncenter size: 4\nimage union: {1, 2, 3, 4}\n"
        ),
        "c4": (
            "degree: 4\nkind: full\nsize: 4\nclosed: True\ncommutative: True\n"
            "idempotents: 1\nunique idempotent: 1 2 3 4\nnull: False\nnilpotent: False\n"
            "group: True\nclassification: C4\ncenter size: 4\nimage union: {1, 2, 3, 4}\n"
        ),
        "constants": (
            "degree: 3\nkind: full\nsize: 3\nclosed: True\ncommutative: False\n"
            "idempotents: 3\nnull: False\nnilpotent: False\ngroup: False\n"
            "center size: 0\nimage union: {1, 2, 3}\n"
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_report(self, capsys, tmp_path, name):
        path = str(tmp_path / f"{name}.json")
        if name == "nullmax6":
            assert cli.run(["construct", "nullmax", "--n", "6", "--out", path]) == 0
        else:
            gens = {
                "klein": [Transformation([1, 0, 3, 2]), Transformation([2, 3, 0, 1])],
                "c4": [Transformation([1, 2, 3, 0])],
                "constants": [Transformation.constant(3, x) for x in range(3)],
            }[name]
            write_semigroup_file(closure(gens), path)
        capsys.readouterr()
        assert cli.run(["analyze", path]) == 0
        assert capsys.readouterr().out == self.PINNED[name]

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


class TestCliElementCap:
    @pytest.fixture
    def over_cap_file(self, tmp_path):
        # one element over the cap: the first maps of T6 in canonical order
        rows = itertools.islice(itertools.product(range(6), repeat=6), cli._MAX_FILE_ELEMENTS + 1)
        path = tmp_path / "over_cap.json"
        path.write_text(json.dumps({"degree": 6, "kind": "full", "elements": [list(r) for r in rows]}))
        return str(path)

    @pytest.mark.parametrize(
        "command", [["analyze"], ["spartition"], ["tree"], ["nullify"], ["graph", "--girth"]]
    )
    def test_refused_before_any_predicate(self, capsys, over_cap_file, command):
        assert cli.run([command[0], over_cap_file, *command[1:]]) == 2
        err = capsys.readouterr().err
        assert f"has {cli._MAX_FILE_ELEMENTS + 1} elements" in err
        assert f"over the cap of {cli._MAX_FILE_ELEMENTS}" in err

    def test_m_override_is_capped(self, capsys, example_file, over_cap_file):
        assert cli.run(["nullify", example_file, "--m-override", over_cap_file]) == 2
        assert f"over the cap of {cli._MAX_FILE_ELEMENTS}" in capsys.readouterr().err

    def test_cap_keeps_t5(self):
        assert cli._MAX_FILE_ELEMENTS >= 5**5


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
        # the --adj layout: an <BBxxI header (degree, kind code, vertex
        # count), then one little-endian row of ⌈26/8⌉ = 4 bytes per vertex
        blob = adj.read_bytes()
        assert struct.unpack_from("<BBxxI", blob) == (3, 0, 26)
        assert len(blob) == 8 + 26 * 4
        rows = [int.from_bytes(blob[8 + 4 * v : 12 + 4 * v], "little") for v in range(26)]
        assert rows == build(enumerate_full(3)).adj

    def test_degree_2_extremes(self, capsys, tmp_path):
        path = tmp_path / "t2.json"
        write_semigroup_file(enumerate_full(2), str(path))
        assert cli.run(["graph", str(path), "--girth", "--knit", "3"]) == 0
        out = capsys.readouterr().out
        assert "girth: infinity" in out
        assert "knit degree: none (searched lengths 1..3)" in out

    def test_knit_length_over_the_cap(self, capsys, t3_file):
        # verify searches lengths up to 4; a longer search is refused before
        # the graph is built
        assert cli.run(["graph", t3_file, "--knit", "5"]) == 2
        captured = capsys.readouterr()
        assert "vertices:" not in captured.out
        assert "graph --knit is capped at 4, got 5" in captured.err

    def test_knit_length_below_one(self, capsys, t3_file):
        # refused up front, like a length over the cap
        for k in ("0", "-3"):
            assert cli.run(["graph", t3_file, f"--knit={k}"]) == 2
            captured = capsys.readouterr()
            assert "vertices:" not in captured.out
            assert "at least 1" in captured.err

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
    "unique-idem-max": {"full": (1, 6), "partial": (1, 5)},
    "null-max": {"full": (1, 6), "partial": (1, 5)},
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
