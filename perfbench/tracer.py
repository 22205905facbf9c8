"""Span tracer that wraps the public functions of every ``commsemi`` layer.

The tracer lives in the benchmark, not in the package: ``install`` replaces
each public function of the layer modules (and the three ``SemigroupSet``
methods that build and test sets) with a wrapper, in *every* ``commsemi``
module that bound the function by import, and ``uninstall`` puts every
original back.  Each call of a timed wrapper records one span (name, start,
end, parent span, operation id) in flat arrays, so a pass with hundreds of
thousands of calls stays small in memory; the arrays are written out once,
at the end.

The element products (``compose``, ``compose_partial`` and their thin
dispatchers) run millions of times per pass, so they get a call counter and
no timer: a timer there would cost more than the product.  Their busy time
is computed afterwards from the micro-kernel ns/op.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

LAYERS = (
    "transform",
    "semigroups",
    "extremal",
    "trees",
    "graphs",
    "oracle",
    "serialization",
    "cli",
)

# Called once per element product: counted, never timed.
KERNELS = frozenset(
    {
        "transform.compose",
        "transform.compose_partial",
        "transform.product",
        "transform.is_idempotent",
        "transform.rank",
    }
)

# SemigroupSet methods traced like functions (construction and the cached
# closed/commutative predicates).
SET_METHODS = ("__init__", "is_closed", "is_commutative")


def _count(key):
    def hook(tracer, result):
        tracer.counts[key] = tracer.counts.get(key, 0) + len(result)

    return hook


def _graph_size(tracer, g):
    c = tracer.counts
    c["graphs.vertices"] = c.get("graphs.vertices", 0) + g.vertex_count
    c["graphs.edges"] = c.get("graphs.edges", 0) + g.edge_count


def _bnb_nodes(tracer, result):
    c = tracer.counts
    c["graphs.bnb_nodes"] = c.get("graphs.bnb_nodes", 0) + result[2]


def _leaves(tracer, tree):
    c = tracer.counts
    c["trees.leaves"] = c.get("trees.leaves", 0) + tree.leaf_count


def _built(tracer, S):
    # Builders call each other (null_plus_identity -> null_max ->
    # null_semigroup); count each set once, at the outermost builder.
    if not any(tracer.names[tracer.span_name[i]].startswith("extremal.") for i in tracer.stack):
        c = tracer.counts
        c["extremal.elements_built"] = c.get("extremal.elements_built", 0) + len(S)


def _omega_arg(tracer, args):
    tracer.omega_args.add(args[0])


# Result-derived counters, run after the span has ended.
RESULT_HOOKS = {
    "graphs.build": _graph_size,
    "graphs.max_clique_bits": _bnb_nodes,
    "graphs.all_max_cliques_bits": _count("graphs.max_cliques_found"),
    "semigroups.closure": _count("semigroups.closure_elements"),
    "trees.build_tree": _leaves,
    "serialization.dumps_semigroup": _count("serialization.bytes"),
}
for _name in ("gamma", "null_semigroup", "null_max", "omega_pn", "e_ix",
              "abelian_witness", "null_plus_identity"):
    RESULT_HOOKS[f"extremal.{_name}"] = _built

# Argument hooks, run before the call.
ARG_HOOKS = {"transform.omega_power": _omega_arg}


def traced_functions(package) -> dict[str, tuple[object, str, object]]:
    """Map span name -> (owner, attribute, original) for everything traced."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"{package.__name__}.{layer}")
        for attr, val in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(val):
                continue
            if val.__module__ != mod.__name__:
                continue  # imported from another layer; traced under its home name
            out[f"{layer}.{attr}"] = (mod, attr, val)
    cls = package.semigroups.SemigroupSet
    for attr in SET_METHODS:
        out[f"semigroups.SemigroupSet.{attr}"] = (cls, attr, cls.__dict__[attr])
    return out


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.stack: list[int] = []
        self.op = -1
        self.kernel_calls: dict[str, list[int]] = {}
        self.counts: dict[str, int] = {}
        self.omega_args: set = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _timed(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ops, stack, clock = self.span_parent, self.span_op, self.stack, self.clock
        result_hook = RESULT_HOOKS.get(name)
        arg_hook = ARG_HOOKS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if arg_hook is not None:
                arg_hook(tracer, args)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if result_hook is not None:
                result_hook(tracer, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn):
        cell = self.kernel_calls.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every traced function wherever a ``commsemi`` module bound it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        replacement = {}
        for name, (owner, attr, fn) in traced_functions(package).items():
            wrap = self._counted(name, fn) if name in KERNELS else self._timed(name, fn)
            replacement[id(fn)] = wrap
            if isinstance(owner, type):  # class method: one binding, on the class
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrap)
        prefix = package.__name__
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == prefix or modname.startswith(prefix + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                wrap = replacement.get(id(val))
                if wrap is not None:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrap)

    def uninstall(self) -> None:
        """Restore every patched attribute, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.span_start)

    def write(self, stem: Path) -> None:
        """Write the spans as ``<stem>.bin`` (flat arrays) plus ``<stem>.json``."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        arrays = ("span_name", "span_start", "span_end", "span_parent", "span_op")
        with open(stem.with_suffix(".bin"), "wb") as fh:
            for key in arrays:
                getattr(self, key).tofile(fh)
        header = {
            "names": self.names,
            "count": self.span_count(),
            "arrays": [[key, getattr(self, key).typecode] for key in arrays],
            "clock": "time.perf_counter, seconds",
        }
        stem.with_suffix(".json").write_text(json.dumps(header) + "\n", encoding="utf-8")
