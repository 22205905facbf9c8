"""One measurement in a fresh interpreter; ``run.py`` starts these one at a time.

    python3 perfbench/worker.py {setup|pass|micro} WORKLOAD SEED [--trace STEM]

Prints one JSON object on its last stdout line.  At the first timed
operation (after interpreter start, ``import commsemi`` and input
preparation) the worker reads ``time.process_time()``, the CPU seconds this
process has used since it started (``setup_cpu_s``), and
``time.monotonic()`` (``t_ready``), from which the parent gets the wall
time since it started the process.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import commsemi  # noqa: E402
import commsemi.cli  # noqa: E402  (the package __init__ leaves out cli and oracle)
import commsemi.oracle  # noqa: E402

import workloads  # noqa: E402

MICRO_PAIRS = 2000
MICRO_ROUNDS = 50
MICRO_REPEATS = 5
OMEGA_REPEATS = 3


def _load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


@contextmanager
def _scratch_dir():
    """A per-process directory under perfbench/out for the files operations write."""
    path = HERE / "out" / f"tmp-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def run_pass(workload: str, seed: int, trace_stem: Path | None) -> dict:
    reference = _load_reference()
    with _scratch_dir() as tmpdir:
        ops = workloads.make_ops(commsemi, workload, seed, reference, tmpdir)
        tracer = None
        if trace_stem is not None:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install(commsemi)
        t_ready, setup_cpu = time.monotonic(), time.process_time()
        try:
            results, digests, wall, cpu = workloads.run_ops(ops, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()

    closure = commsemi.oracle.closure_check_stats()
    complete = all(r[3] for r in results)
    digest = workloads.pass_digest(digests) if complete else None
    out = {
        "t_ready": t_ready,
        "setup_cpu_s": setup_cpu,
        "ops": results,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": digest,
        "closure": closure,
        "gate_errors": workloads.check_pass(workload, seed, digest, closure, reference),
    }
    if tracer is not None:
        from analysis import layer_metrics

        out["layers"], out["kernel_calls"] = layer_metrics(tracer, wall, closure)
        out["spans"] = tracer.span_count()
        tracer.write(trace_stem)
    return out


def run_setup(workload: str, seed: int) -> dict:
    reference = _load_reference()
    with _scratch_dir() as tmpdir:
        workloads.make_ops(commsemi, workload, seed, reference, tmpdir)
        return {"t_ready": time.monotonic(), "setup_cpu_s": time.process_time()}


def _per_op(fn, items, rounds: int, repeats: int) -> float:
    """Median over repeats of the mean seconds per call; every result is consumed."""
    samples = []
    for _ in range(repeats):
        sink = 0
        t0 = time.perf_counter()
        for _ in range(rounds):
            for args in items:
                sink += fn(*args).img[0]
        samples.append((time.perf_counter() - t0) / (rounds * len(items)))
        if sink < 0:
            raise AssertionError("unreachable: images are non-negative")
    return statistics.median(samples)


def run_micro(seed: int) -> dict:
    """Fixed-count micro kernels for the transform layer."""
    tr, sg = commsemi.transform, commsemi.semigroups
    rng = random.Random(seed)
    t5 = sg.enumerate_full(5).elements
    p4 = sg.enumerate_partial(4).elements
    full_pairs = [(rng.choice(t5), rng.choice(t5)) for _ in range(MICRO_PAIRS)]
    partial_pairs = [(rng.choice(p4), rng.choice(p4)) for _ in range(MICRO_PAIRS)]
    singles = [(a,) for a in t5]
    return {
        "transform.compose_ns": _per_op(tr.compose, full_pairs, MICRO_ROUNDS, MICRO_REPEATS) * 1e9,
        "transform.compose_partial_ns": _per_op(
            tr.compose_partial, partial_pairs, MICRO_ROUNDS, MICRO_REPEATS
        )
        * 1e9,
        "transform.omega_power_us": _per_op(tr.omega_power, singles, 1, OMEGA_REPEATS) * 1e6,
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "pass", "micro"])
    parser.add_argument("workload", choices=workloads.WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument("--trace", type=Path, metavar="STEM")
    args = parser.parse_args()
    src = (ROOT / "src").resolve()
    if Path(commsemi.__file__).resolve().parent.parent != src:
        sys.exit(f"commsemi was imported from {commsemi.__file__}, not from {src}")
    if args.mode == "setup":
        result = run_setup(args.workload, args.seed)
    elif args.mode == "micro":
        result = run_micro(args.seed)
    else:
        result = run_pass(args.workload, args.seed, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
