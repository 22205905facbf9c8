"""Per-layer metrics from one traced pass.

A span's self time is its duration minus the durations of its direct
children, so the self times of all spans add up to the time covered by the
root spans; the rest of the pass (the benchmark's own loop and checks) is
reported as ``trace.untimed_s``.  Inclusive layer times count a span only
when no enclosing span belongs to the same group, so nested calls
(``null_plus_identity`` -> ``null_max``) are not counted twice.
"""

from __future__ import annotations

import statistics

import workloads
from tracer import LAYERS

SEARCHES = (
    "oracle.max_commutative",
    "oracle.max_commutative_idempotent",
    "oracle.max_unique_idempotent",
    "oracle.max_null",
    "oracle.max_abelian_subgroup",
)
GENERATOR = "oracle.random_commutative_unique_idem"

# metric -> span names whose outermost calls it sums; a trailing "." is a
# whole-layer prefix
INCLUSIVE = {
    "semigroups.enumerate_s": (
        "semigroups.enumerate_full",
        "semigroups.enumerate_partial",
        "semigroups.enumerate_sym",
    ),
    "semigroups.center_s": ("semigroups.center",),
    "semigroups.predicates_s": (
        "semigroups.is_commutative",
        "semigroups.SemigroupSet.is_closed",
        "semigroups.SemigroupSet.is_commutative",
        "semigroups.idempotents",
        "semigroups.has_unique_idempotent",
        "semigroups.unique_idempotent",
        "semigroups.is_null",
        "semigroups.is_nilpotent",
        "semigroups.is_group",
        "semigroups.classify_small_abelian_group",
    ),
    "semigroups.closure_s": ("semigroups.closure",),
    "semigroups.set_build_s": ("semigroups.SemigroupSet.__init__",),
    "extremal.construct_s": ("extremal.",),
    "trees.nullify_s": ("trees.nullify", "trees.nullify_trace"),
    "trees.s_partition_s": ("trees.s_partition",),
    "trees.build_tree_s": ("trees.build_tree",),
    "trees.level_profile_s": ("trees.level_profile",),
    "trees.validate_lemmas_s": ("trees.validate_tree_lemmas",),
    "graphs.build_s": ("graphs.build",),
    "graphs.max_clique_s": ("graphs.max_clique", "graphs.max_clique_bits"),
    "graphs.all_max_cliques_s": ("graphs.all_max_cliques_bits",),
    "graphs.girth_s": ("graphs.girth",),
    "graphs.knit_s": ("graphs.knit_degree", "graphs.shortest_left_path"),
    "oracle.search_s": SEARCHES,
    "oracle.generator_s": (GENERATOR,),
    "serialization.dumps_s": ("serialization.dumps_semigroup", "serialization.to_jsonable"),
    "serialization.load_s": ("serialization.load_semigroup_file", "serialization.load_semigroup"),
}
# metric -> span names whose self time it sums
SELF = {"serialization.digest_s": ("serialization.semigroup_digest",)}
# counters filled by the tracer's result hooks
HOOK_COUNTS = (
    "semigroups.closure_elements",
    "extremal.elements_built",
    "trees.leaves",
    "graphs.vertices",
    "graphs.edges",
    "graphs.bnb_nodes",
    "graphs.max_cliques_found",
    "serialization.bytes",
)


def _matches(name: str, patterns) -> bool:
    return any(name.startswith(p) if p.endswith(".") else name == p for p in patterns)


class SpanTable:
    """Durations, self times and ancestry queries over a tracer's spans."""

    def __init__(self, tracer):
        self.names = tracer.names
        self.name = tracer.span_name
        self.parent = tracer.span_parent
        self.dur = [e - s for s, e in zip(tracer.span_start, tracer.span_end)]
        child = [0.0] * len(self.dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.dur[i]
        self.self_time = [d - c for d, c in zip(self.dur, child)]
        self.root_time = sum(d for d, p in zip(self.dur, self.parent) if p < 0)

    def ids(self, patterns) -> set[int]:
        return {i for i, n in enumerate(self.names) if _matches(n, patterns)}

    def _has_ancestor_in(self, i: int, ids: set[int]) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.name[p] in ids:
                return True
            p = self.parent[p]
        return False

    def outer_time(self, patterns) -> float:
        ids = self.ids(patterns)
        return sum(
            self.dur[i]
            for i, nid in enumerate(self.name)
            if nid in ids and not self._has_ancestor_in(i, ids)
        )

    def self_sum(self, patterns) -> float:
        ids = self.ids(patterns)
        return sum(s for s, nid in zip(self.self_time, self.name) if nid in ids)

    def calls(self, patterns) -> int:
        ids = self.ids(patterns)
        return sum(1 for nid in self.name if nid in ids)

    def calls_under(self, patterns, ancestor_patterns) -> int:
        ids, anc = self.ids(patterns), self.ids(ancestor_patterns)
        return sum(
            1 for i, nid in enumerate(self.name) if nid in ids and self._has_ancestor_in(i, anc)
        )


def layer_metrics(tracer, wall_s: float, closure_stats: dict) -> tuple[dict, dict]:
    """Per-layer metrics of a traced pass (0 where a layer did not run), and
    the raw kernel call counts."""
    t = SpanTable(tracer)
    out: dict[str, float] = {}
    for metric, patterns in INCLUSIVE.items():
        out[metric] = t.outer_time(patterns)
    for metric, patterns in SELF.items():
        out[metric] = t.self_sum(patterns)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = t.self_sum((layer + ".",))

    kernel = {k: v[0] for k, v in tracer.kernel_calls.items()}
    out["transform.products"] = kernel.get("transform.compose", 0) + kernel.get(
        "transform.compose_partial", 0
    )
    omega_calls = t.calls(("transform.omega_power",))
    out["transform.omega_power_calls"] = omega_calls
    out["transform.omega_power_useful_ratio"] = (
        len(tracer.omega_args) / omega_calls if omega_calls else 0.0
    )
    out["semigroups.closure_calls"] = t.calls(("semigroups.closure",))
    for key in HOOK_COUNTS:
        out[key] = tracer.counts.get(key, 0)
    gen_calls = t.calls((GENERATOR,))
    gen_closures = t.calls_under(("semigroups.closure",), (GENERATOR,))
    out["oracle.generator_accept_ratio"] = gen_calls / gen_closures if gen_closures else 0.0
    out["oracle.closure_checks"] = closure_stats["checks"]
    out["oracle.closure_violations"] = closure_stats["violations"]
    out["trace.wall_s"] = wall_s
    out["trace.untimed_s"] = wall_s - t.root_time
    return out, kernel


def trace_metrics(traced: dict, micro: dict, passes: list[dict], op_times: dict) -> dict:
    """Every per-layer metric of a ``--trace 1`` run.

    ``traced`` is the traced pass, ``micro`` the transform micro kernels,
    ``passes`` the untraced passes and ``op_times`` their per-operation
    seconds, from which the ``cli.claim.*`` times come (0 for claims of the
    other verify workload).
    """
    values = dict(traced["layers"])
    values.update(micro)
    kernel = traced["kernel_calls"]
    values["transform.kernel_busy_s_computed"] = (
        kernel.get("transform.compose", 0) * micro["transform.compose_ns"]
        + kernel.get("transform.compose_partial", 0) * micro["transform.compose_partial_ns"]
    ) * 1e-9
    untraced_wall = statistics.median(r["wall_s"] for r in passes)
    values["trace.overhead_ratio"] = traced["wall_s"] / untraced_wall
    for claims in workloads.VERIFY_WORKLOADS.values():
        for claim in claims:
            name = workloads.claim_name(*claim)
            times = op_times.get(name)
            values[f"cli.claim.{name}_s"] = statistics.median(times) if times else 0.0
    return values
