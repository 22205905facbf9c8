"""The three workloads: their operations and the checks on every output.

An operation is one user-visible unit of work plus the checks on its
output.  It returns a digest of what it produced and raises ``CheckFailed``
(or whatever the package raised) when an output is wrong; the runner counts
either as a failed operation and keeps its time in the pass.

The package is passed in as a module and every call goes through a module
attribute (``pkg.cli.run``, ``pkg.trees.nullify_trace``, ...), so a traced
pass sees the wrapped functions.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Callable, NamedTuple

# verify claims as (claim, n, kind); the seed only permutes their order
VERIFY_SEARCH = (
    ("comm-max", 4, "full"),
    ("comm-max", 4, "partial"),
    ("idem-max", 6, "full"),
    ("idem-max", 4, "partial"),
    ("unique-idem-max", 5, "full"),
    ("unique-idem-max", 4, "partial"),
    ("null-max", 5, "full"),
    ("null-max", 4, "partial"),
    ("abelian-max", 6, "full"),
)
GRAPH_T5 = (
    ("pclique", 5, "full"),
    ("pclique", 4, "partial"),
    ("girth", 5, "full"),
    ("girth", 4, "partial"),
    ("knit", 6, "full"),
    ("knit", 5, "partial"),
)
SURGERY_INPUTS = 500
NULL_PLUS_IDENTITY_DEGREES = range(7, 13)
OMEGA_PN_DEGREES = range(6, 11)

VERIFY_WORKLOADS = {"verify-search": VERIFY_SEARCH, "graph-t5": GRAPH_T5}
WORKLOADS = ("verify-search", "graph-t5", "surgery-io")


class CheckFailed(Exception):
    """An operation finished but its output is wrong."""


class Op(NamedTuple):
    name: str
    run: Callable[[], str]


def claim_name(claim: str, n: int, kind: str) -> str:
    return f"{claim}-{n}-{kind}"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def op_count(workload: str) -> int:
    if workload in VERIFY_WORKLOADS:
        return len(VERIFY_WORKLOADS[workload])
    return SURGERY_INPUTS + len(NULL_PLUS_IDENTITY_DEGREES) + len(OMEGA_PN_DEGREES)


# ---------------------------------------------------------------------------
# verify-search and graph-t5: one `commsemi verify` call per operation


def _verify(pkg, claim: str, n: int, kind: str, expected: dict, report_path: Path) -> str:
    out = io.StringIO()
    argv = ["verify", "--claim", claim, "--n", str(n), "--kind", kind, "--json", str(report_path)]
    with redirect_stdout(out), redirect_stderr(out):
        code = pkg.cli.run(argv)
    text = out.getvalue().strip()
    if code != 0:
        raise CheckFailed(f"exit code {code}: {text}")
    if "match=True" not in text:
        raise CheckFailed(f"no match=True in output: {text}")
    report = json.loads(report_path.read_text(encoding="utf-8"))
    got = {
        "computed": report["computed"],
        "witness_sha256": sha256("\n".join(report["witness_digests"])),
    }
    if report["match"] is not True or got != expected:
        raise CheckFailed(f"report {got} differs from the reference {expected}")
    return got["witness_sha256"]


def verify_ops(pkg, claims, seed: int, reference: dict, tmpdir: Path) -> list[Op]:
    claims = list(claims)
    random.Random(seed).shuffle(claims)
    report_path = tmpdir / "verify.json"
    ops = []
    for claim, n, kind in claims:
        name = claim_name(claim, n, kind)
        expected = reference["verify"][name]
        ops.append(
            Op(name, lambda c=claim, n=n, k=kind, e=expected: _verify(pkg, c, n, k, e, report_path))
        )
    return ops


# ---------------------------------------------------------------------------
# surgery-io: generate, nullify, check, and round-trip through JSON


def _round_trip(pkg, S, path: Path) -> str:
    ser = pkg.serialization
    ser.write_semigroup_file(S, str(path))
    digest = ser.semigroup_digest(S)
    back = ser.load_semigroup_file(str(path))
    if back != S:
        raise CheckFailed(f"JSON round trip changed {S!r}")
    return digest


def _nullify_one(pkg, n: int, seed: int, path: Path) -> str:
    S = pkg.oracle.random_commutative_unique_idem(n, seed)
    trace = pkg.trees.nullify_trace(S)
    N = trace.result
    # the criterion-10 checks
    if not N.is_closed():
        raise CheckFailed("surgery output is not closed")
    ok, zero = pkg.semigroups.is_null(N)
    if not ok:
        raise CheckFailed("surgery output is not null")
    if len(N) != len(S):
        raise CheckFailed(f"surgery changed the size from {len(S)} to {len(N)}")
    if zero.rank() != 1:
        raise CheckFailed("the zero of the surgery output is not of rank 1")
    pkg.trees.validate_tree_lemmas(trace.tree_s, trace.r)
    return _round_trip(pkg, N, path)


def _construct_one(pkg, build, n: int, points: list[int], size: int, path: Path) -> str:
    S = build(n, points)
    if len(S) != size:
        raise CheckFailed(f"construction has {len(S)} elements, expected {size}")
    return _round_trip(pkg, S, path)


def surgery_ops(pkg, seed: int, tmpdir: Path) -> list[Op]:
    path = tmpdir / "semigroup.json"
    ops = [
        Op(f"nullify-{i}", lambda i=i: _nullify_one(pkg, 2 + i % 5, seed + i, path))
        for i in range(SURGERY_INPUTS)
    ]
    ext = pkg.extremal
    rng = random.Random(seed)
    for n in NULL_PLUS_IDENTITY_DEGREES:
        pts = rng.sample(range(n), ext.xi_alpha(n).alpha)
        size = ext.xi_alpha(n).xi + 1
        ops.append(
            Op(
                f"null-plus-identity-{n}",
                lambda n=n, p=pts, s=size: _construct_one(
                    pkg, pkg.extremal.null_plus_identity, n, p, s, path
                ),
            )
        )
    for n in OMEGA_PN_DEGREES:
        _, alpha, xi = ext.xi_alpha(n + 1)
        B = rng.sample(range(n), alpha - 1)
        ops.append(
            Op(
                f"omega-pn-{n}",
                lambda n=n, b=B, s=xi: _construct_one(pkg, pkg.extremal.omega_pn, n, b, s, path),
            )
        )
    return ops


def make_ops(pkg, workload: str, seed: int, reference: dict, tmpdir: Path) -> list[Op]:
    if workload in VERIFY_WORKLOADS:
        return verify_ops(pkg, VERIFY_WORKLOADS[workload], seed, reference, tmpdir)
    if workload == "surgery-io":
        return surgery_ops(pkg, seed, tmpdir)
    raise ValueError(f"unknown workload {workload!r}")


def run_ops(ops: list[Op], tracer=None):
    """One pass: returns per-op ``[name, wall s, cpu s, ok, error]``, the
    digests of the good operations, and the pass's wall and CPU seconds."""
    results, digests = [], {}
    c0 = time.process_time()
    w0 = time.perf_counter()
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op = k
        t0, u0 = time.perf_counter(), time.process_time()
        try:
            digests[op.name] = op.run()
            error = None
        except Exception as exc:  # a failed operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        results.append(
            [op.name, time.perf_counter() - t0, time.process_time() - u0, error is None, error]
        )
    return results, digests, time.perf_counter() - w0, time.process_time() - c0


def pass_digest(digests: dict[str, str]) -> str:
    """One digest over a pass's outputs, independent of operation order."""
    return sha256("".join(f"{name}:{d}\n" for name, d in sorted(digests.items())))


def check_pass(workload: str, seed: int, digest: str | None, closure: dict, reference: dict) -> list[str]:
    """Pass-level gates; returns the failures (empty when the pass is good)."""
    errors = []
    if closure["violations"] != 0:
        errors.append(f"closure violations: {closure['violations']}")
    if workload == "verify-search" and closure["checks"] == 0:
        errors.append("no closure checks ran")
    want = reference.get(workload, {}).get(str(seed))
    if digest is not None and want is not None and digest != want:
        errors.append(f"pass digest {digest} differs from the reference {want}")
    return errors
