"""Command-line front end.

Exit codes: 0 success (and, for ``verify``, computed == expected);
1 verification mismatch or internal verification failure; 2 usage or
input errors.

Semigroups travel as JSON files (see serialization); everything printed
for humans is 1-based, with "-" for an undefined image.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time

from . import extremal, graphs, oracle, trees
from .semigroups import (
    SemigroupSet,
    center,
    classify_small_abelian_group,
    idempotents,
    image_union,
    is_group,
    is_nilpotent,
    is_null,
)
from .serialization import (
    dumps_report,
    load_semigroup_file,
    semigroup_digest,
    write_semigroup_file,
    write_xi_csv,
)
from .transform import _label

_PRINT_LIMIT = 64

# Each closure, commute or center check reads up to |S|² products off image bytes
# (about 2 s of CPU at 4,096 maps), so the file commands refuse more.
_MAX_FILE_ELEMENTS = 4096
_MAX_KNIT_LENGTH = 4  # graph --knit K is exponential in K

# ``construct`` refuses a degree whose set would pass _MAX_CONSTRUCT_ELEMENTS
# (about 1 s to build and write), and ``xi`` a table over _MAX_XI_ROWS rows
# (about 2 s of exact t^(n−t) arithmetic).  _CONSTRUCT_TOP holds, for each
# construction, the last degree at or under that cap: 2^(n−1) for gamma,
# 2^n for eix, ξ(n) for nullmax, ξ(n+1) for omega, ξ(n)+1 for nullid and the
# Burns–Goldsmith order for abelian.  knit is always two maps.
_MAX_CONSTRUCT_ELEMENTS = 100_000
_MAX_XI_ROWS = 1000
_CONSTRUCT_TOP = {"gamma": 17, "eix": 16, "nullmax": 12, "omega": 11, "nullid": 12, "abelian": 31}


def _print_set(S: SemigroupSet) -> None:
    print(f"kind={S.kind} degree={S.degree} size={len(S)}")
    if len(S) <= _PRINT_LIMIT:
        for a in S:
            print(f"  {_label(a.img)}")
    else:
        print(f"  ({len(S)} elements; use --out FILE for the full set)")


def _parse_points(text: str, n: int, option: str) -> list[int]:
    """Comma-separated points of 1..n → 0-based list; errors name them as typed."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty point list")
    vals = []
    for p in parts:
        try:
            v = int(p)
        except ValueError:
            raise ValueError(f"bad point {p!r}: expected an integer") from None
        if not 1 <= v <= n:
            raise ValueError(f"{option} {v} is out of range for degree {n} (points are 1-based)")
        vals.append(v - 1)
    return vals


def _require_points(vals: list[int], option: str, count: int, rule: str) -> None:
    """ValueError unless ``vals`` are ``count`` distinct points; names them 1-based."""
    if len(vals) != count or len(set(vals)) != count:
        typed = ",".join(str(v + 1) for v in vals)
        plural = "s" if count != 1 else ""
        raise ValueError(
            f"{option} needs exactly {count} distinct point{plural} ({rule}), got {typed}"
        )


def _load(path: str) -> SemigroupSet:
    S = load_semigroup_file(path)
    if len(S) > _MAX_FILE_ELEMENTS:
        raise ValueError(f"{path} has {len(S)} elements, over the cap of {_MAX_FILE_ELEMENTS}")
    return S


def _fmt_points(points) -> str:
    return "{" + ", ".join(str(x + 1) for x in points) + "}"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_xi(args) -> int:
    if args.max > _MAX_XI_ROWS:
        raise ValueError(f"xi --max is capped at {_MAX_XI_ROWS}, got {args.max}")
    rows = extremal.xi_table(args.max)
    print(f"{'n':>3} {'alpha':>6} {'xi':>15}")
    for r in rows:
        print(f"{r.n:>3} {r.alpha:>6} {r.xi:>15}")
    if args.csv:
        write_xi_csv(rows, args.csv)
        print(f"wrote {args.csv}")
    return 0


def _cmd_construct(args) -> int:
    n = args.n
    what = args.what
    if n > _CONSTRUCT_TOP.get(what, n):
        raise ValueError(
            f"construct {what} is capped at n ≤ {_CONSTRUCT_TOP[what]}, where it has at "
            f"most {_MAX_CONSTRUCT_ELEMENTS} elements; got n={n}"
        )
    if what in ("gamma", "omega") and n < 1:  # before --x or α(n + 1), which would misname it
        raise ValueError(f"degree must be a positive integer, got {n}")
    if what == "gamma":
        if not 1 <= args.x <= n:
            raise ValueError(f"--x {args.x} is out of range for degree {n} (points are 1-based)")
        S = extremal.gamma(n, args.x - 1)
    elif what in ("nullmax", "nullid"):
        pts = None
        if args.points:
            pts = _parse_points(args.points, n, "--points")
            alpha = extremal.xi_alpha(n).alpha
            _require_points(pts, "--points", alpha, f"α({n}) = {alpha}")
        build = extremal.null_max if what == "nullmax" else extremal.null_plus_identity
        S = build(n, pts)
    elif what == "omega":
        if args.b:
            B = _parse_points(args.b, n, "--b")
            size = extremal.xi_alpha(n + 1).alpha - 1
            _require_points(B, "--b", size, f"α({n + 1}) − 1 = {size}")
        else:
            B = list(range(extremal.xi_alpha(n + 1).alpha - 1))
        S = extremal.omega_pn(n, B)
    elif what == "eix":
        S = extremal.e_ix(n)
    elif what == "abelian":
        S = extremal.abelian_witness(n)
    else:  # knit
        a1, a2 = extremal.knit_witness(n)
        S = SemigroupSet([a1, a2])
        print("left-path witnesses (products all equal the first):")
        print(f"  {_label(a1.img)}")
        print(f"  {_label(a2.img)}")
    _print_set(S)
    if args.out:
        write_semigroup_file(S, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_analyze(args) -> int:
    S = _load(args.file)
    print(f"degree: {S.degree}")
    print(f"kind: {S.kind}")
    print(f"size: {len(S)}")
    closed = S.is_closed()
    print(f"closed: {closed}")
    print(f"commutative: {S.is_commutative()}")
    E = idempotents(S)
    print(f"idempotents: {len(E)}")
    if len(E) == 1:
        print(f"unique idempotent: {_label(E[0].img)}")
    if not closed:
        print("(further structure needs a product-closed set)")
        return 0
    null, zero = is_null(S)
    print(f"null: {null}" + (f" (zero: {_label(zero.img)})" if null else ""))
    print(f"nilpotent: {is_nilpotent(S)}")
    group = is_group(S)
    print(f"group: {group}")
    if group:
        print(f"classification: {classify_small_abelian_group(S)}")
    print(f"center size: {len(center(S))}")
    if S.kind == "full":
        print(f"image union: {_fmt_points(image_union(S))}")
    return 0


def _cmd_spartition(args) -> int:
    S = _load(args.file)
    part = trees.s_partition(S)
    for j, block in enumerate(part.blocks):
        print(f"A_{j}: {_fmt_points(block)}")
    return 0


def _cmd_tree(args) -> int:
    S = _load(args.file)
    part = trees.s_partition(S)
    sigma = trees.element_order(part)
    t = trees.build_tree(S, sigma)
    prof = trees.level_profile(t)
    print(f"point order: {' '.join(str(x + 1) for x in sigma)}")
    print(f"leaves: {t.leaf_count}")
    print(f"depth: {t.depth}")
    print(f"levels: {''.join(k[0] for k in prof.kinds)}")
    print(f"trunk length: {prof.trunk_length}")
    print(f"max branching arcs: {prof.max_branching_arcs}")
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(trees.tree_to_dot(t))
        print(f"wrote {args.dot}")
    return 0


def _cmd_nullify(args) -> int:
    S = _load(args.file)
    m = _load(args.m_override) if args.m_override else None
    trace = trees.nullify_trace(S, m_override=m)
    print(f"input size: {len(S)}")
    print(f"point order: {' '.join(str(x + 1) for x in trace.sigma)}")
    print(f"top-layer size: {trace.r}")
    print(f"levels before surgery: {''.join(k[0] for k in trace.profile_s.kinds)}")
    print(f"levels after surgery:  {''.join(k[0] for k in trace.profile_2.kinds)}")
    print(f"contracted levels: {trace.contracted}")
    ok, zero = is_null(trace.result)
    if not ok:
        raise RuntimeError("surgery output failed the null check")
    print(f"output size: {len(trace.result)} (null, zero: {_label(zero.img)})")
    if args.out:
        write_semigroup_file(trace.result, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_graph(args) -> int:
    if args.knit is not None and args.knit < 1:
        raise ValueError(f"graph --knit must be at least 1, got {args.knit}")
    if args.knit is not None and args.knit > _MAX_KNIT_LENGTH:
        raise ValueError(f"graph --knit is capped at {_MAX_KNIT_LENGTH}, got {args.knit}")
    S = _load(args.file)
    g = graphs.build(S)
    print(f"vertices: {g.vertex_count}")
    print(f"edges: {g.edge_count}")
    print(f"center size: {len(S) - g.vertex_count}")
    if args.clique:
        res = graphs.max_clique(g)
        print(f"clique number: {res.size}")
        if res.size <= 32:
            for i in res.witness:
                print(f"  {_label(S.images[i])}")
    if args.girth:
        gi = graphs.girth(g)
        print(f"girth: {'infinity' if gi == math.inf else gi}")
    if args.knit is not None:
        kd = graphs.knit_degree(S, max_len=args.knit)
        print(f"knit degree: {'none' if kd is None else kd} (searched lengths 1..{args.knit})")
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(graphs.graph_to_dot(g))
        print(f"wrote {args.dot}")
    if args.adj:
        graphs.write_adjacency(g, args.adj)
        print(f"wrote {args.adj}")
    return 0


# ---------------------------------------------------------------------------
# verify


def _jsonable_value(v):
    if isinstance(v, float) and math.isinf(v):
        return "infinity"
    if isinstance(v, list):
        return [list(row) for row in v]
    return v


def _fmt_value(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, float) and math.isinf(v):
        return "infinity"
    if isinstance(v, list):
        return f"[{len(v)} rows]"
    return str(v)


def _cmd_verify(args) -> int:
    claim = oracle.CLAIMS[args.claim]
    expected = claim.expected(args.n, args.kind)
    start = time.monotonic()
    computed, witnesses = claim.compute(args.n, args.kind)
    digests = [semigroup_digest(w) for w in witnesses]
    runtime = time.monotonic() - start
    match = computed == expected
    print(
        f"claim={args.claim} n={args.n} kind={args.kind} "
        f"expected={_fmt_value(expected)} computed={_fmt_value(computed)} match={match}"
    )
    if args.json:
        report = {
            "claim": args.claim,
            "n": args.n,
            "kind": args.kind,
            "expected": _jsonable_value(expected),
            "computed": _jsonable_value(computed),
            "match": match,
            "method": "certificate" if args.n >= claim.certified_from else "search",
            "witness_digests": digests[:40],
            "runtime_seconds": round(runtime, 3),
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(dumps_report(report))
        print(f"wrote {args.json}")
    return 0 if match else 1


# ---------------------------------------------------------------------------
# parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process.

    ``parse_args`` returns a fresh namespace on each call and looks up
    ``sys.stdout`` and ``sys.stderr`` only when it prints, so one parser
    serves every :func:`run`.
    """
    parser = argparse.ArgumentParser(
        prog="commsemi",
        description="Extremal commutative subsemigroups of finite transformation semigroups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("xi", help="table of the null-semigroup maximum xi(n) and its arity alpha(n)")
    p.add_argument("--max", type=int, required=True, metavar="N")
    p.add_argument("--csv", metavar="PATH")
    p.set_defaults(func=_cmd_xi)

    p = sub.add_parser("construct", help="emit one of the extremal constructions as JSON")
    p.add_argument(
        "what",
        choices=["gamma", "nullmax", "omega", "eix", "abelian", "nullid", "knit"],
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=int, default=1, help="fixed point for gamma (1-based)")
    p.add_argument("--points", help="comma-separated 1-based points (nullmax/nullid)")
    p.add_argument("--b", help="comma-separated 1-based image set (omega)")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("analyze", help="structural report on a semigroup file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("spartition", help="layer a commutative unique-idempotent semigroup")
    p.add_argument("file")
    p.set_defaults(func=_cmd_spartition)

    p = sub.add_parser("tree", help="prefix tree of a commutative unique-idempotent semigroup")
    p.add_argument("file")
    p.add_argument("--dot", metavar="OUT")
    p.set_defaults(func=_cmd_tree)

    p = sub.add_parser("nullify", help="convert to a null semigroup of the same size")
    p.add_argument("file")
    p.add_argument("--m-override", dest="m_override", metavar="FILE")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=_cmd_nullify)

    p = sub.add_parser("graph", help="commuting-graph statistics")
    p.add_argument("file")
    p.add_argument("--clique", action="store_true")
    p.add_argument("--girth", action="store_true")
    p.add_argument("--knit", type=int, metavar="MAXLEN")
    p.add_argument("--dot", metavar="OUT")
    p.add_argument("--adj", metavar="OUT", help="binary adjacency-matrix dump")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("verify", help="recompute a published value and compare")
    p.add_argument("--claim", required=True, choices=list(oracle.CLAIMS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", required=True, choices=["full", "partial"])
    p.add_argument("--json", metavar="OUT")
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
