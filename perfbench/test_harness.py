"""Tests of the benchmark harness itself (not of commsemi).

    python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import commsemi  # noqa: E402
import commsemi.cli  # noqa: E402
import commsemi.oracle  # noqa: E402

import analysis  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402


def _bindings() -> dict:
    """Every attribute of every commsemi module and of SemigroupSet, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "commsemi" or name.startswith("commsemi."):
            out.update({(name, k): id(v) for k, v in vars(mod).items()})
    cls = commsemi.semigroups.SemigroupSet
    out.update({("SemigroupSet", k): id(v) for k, v in vars(cls).items()})
    return out


def test_install_patches_every_import_binding_and_uninstall_restores_them():
    before = _bindings()
    originals = {
        "oracle.max_clique_bits": commsemi.oracle.max_clique_bits,
        "oracle.omega_power": commsemi.oracle.omega_power,
        "semigroups.compose": commsemi.semigroups.compose,
        "semigroups._is_idempotent_el": commsemi.semigroups._is_idempotent_el,
        "build_commuting_graph": commsemi.build_commuting_graph,
        "SemigroupSet.__init__": commsemi.semigroups.SemigroupSet.__dict__["__init__"],
    }
    t = tracer_mod.Tracer()
    t.install(commsemi)
    try:
        assert commsemi.oracle.max_clique_bits is not originals["oracle.max_clique_bits"]
        assert commsemi.oracle.omega_power is commsemi.transform.omega_power
        assert commsemi.oracle.omega_power is not originals["oracle.omega_power"]
        assert commsemi.semigroups.compose is not originals["semigroups.compose"]
        assert commsemi.semigroups._is_idempotent_el is commsemi.transform.is_idempotent
        assert commsemi.build_commuting_graph is commsemi.graphs.build
        assert commsemi.build_commuting_graph is not originals["build_commuting_graph"]
        init = commsemi.semigroups.SemigroupSet.__dict__["__init__"]
        assert init is not originals["SemigroupSet.__init__"]
        with pytest.raises(RuntimeError):
            t.install(commsemi)
    finally:
        t.uninstall()
    assert _bindings() == before
    assert commsemi.oracle.max_clique_bits is originals["oracle.max_clique_bits"]


def test_nested_self_times_add_up_with_a_fake_clock():
    ticks = iter(range(100))
    t = tracer_mod.Tracer(clock=lambda: float(next(ticks)))
    inner = t._timed("graphs.inner", lambda x: x)
    outer = t._timed("oracle.outer", lambda: inner(1) + inner(2))
    assert outer() == 3
    # outer 0..5, inner 1..2 and 3..4
    table = analysis.SpanTable(t)
    assert table.dur == [5.0, 1.0, 1.0]
    assert table.self_time == [3.0, 1.0, 1.0]
    assert list(t.span_parent) == [-1, 0, 0]
    assert sum(table.self_time) == table.root_time == 5.0
    assert table.outer_time(("oracle.outer", "graphs.inner")) == 5.0


def test_self_times_account_for_a_real_traced_pass(tmp_path):
    t = tracer_mod.Tracer()
    t.install(commsemi)
    try:
        with redirect_stdout(io.StringIO()):
            code = commsemi.cli.run(["verify", "--claim", "comm-max", "--n", "3", "--kind", "full"])
    finally:
        t.uninstall()
    assert code == 0
    layers, kernel = analysis.layer_metrics(t, wall_s=1.0, closure_stats={"checks": 1, "violations": 0})
    table = analysis.SpanTable(t)
    assert [t.names[t.span_name[i]] for i, p in enumerate(t.span_parent) if p < 0] == ["cli.run"]
    assert min(table.self_time) >= 0.0
    layer_self = sum(layers[f"{layer}.self_s"] for layer in tracer_mod.LAYERS)
    assert layer_self == pytest.approx(table.root_time, rel=1e-9)
    assert layer_self + layers["trace.untimed_s"] == pytest.approx(1.0)
    assert layers["oracle.search_s"] > 0 and layers["graphs.max_clique_s"] > 0
    assert layers["transform.products"] == kernel["transform.compose"] > 0
    t.write(tmp_path / "spans")
    header = json.loads((tmp_path / "spans.json").read_text())
    assert header["count"] == t.span_count()


def test_an_injected_mismatch_counts_as_a_failed_operation(tmp_path):
    claim = ("comm-max", 3, "full")
    name = workloads.claim_name(*claim)
    report = tmp_path / "r.json"
    with redirect_stdout(io.StringIO()):
        assert commsemi.cli.run(["verify", "--claim", "comm-max", "--n", "3", "--kind", "full",
                                 "--json", str(report)]) == 0
    rep = json.loads(report.read_text())
    good = {"computed": rep["computed"],
            "witness_sha256": workloads.sha256("\n".join(rep["witness_digests"]))}
    bad = dict(good, computed=good["computed"] + 1)
    ops = (workloads.verify_ops(commsemi, [claim], 0, {"verify": {name: good}}, tmp_path)
           + workloads.verify_ops(commsemi, [claim], 0, {"verify": {name: bad}}, tmp_path))
    results, _, wall, _ = workloads.run_ops(ops)
    assert [r[3] for r in results] == [True, False]
    assert "differs from the reference" in results[1][4]
    assert results[1][1] > 0 and results[1][2] > 0 and wall >= results[0][1] + results[1][1]


def test_metric_names_agree_between_benchmark_spec_and_harness():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    for key in ("end_to_end", "per_layer"):
        assert [m["name"] for m in bench[key]] == [m["name"] for m in spec[key]]
        assert [m["unit"] for m in bench[key]] == [m["unit"] for m in spec[key]]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        claims = workloads.VERIFY_WORKLOADS.get(w["name"])
        if claims:
            assert w["operations"] == ["verify " + workloads.claim_name(*c) for c in claims]
    layers, kernel = analysis.layer_metrics(tracer_mod.Tracer(), 1.0, {"checks": 0, "violations": 0})
    micro = {"transform.compose_ns": 1.0, "transform.compose_partial_ns": 1.0,
             "transform.omega_power_us": 1.0}
    traced = {"layers": layers, "kernel_calls": kernel, "wall_s": 1.0}
    emitted = analysis.trace_metrics(traced, micro, [{"wall_s": 1.0}], {})
    assert set(emitted) == {m["name"] for m in bench["per_layer"]}
