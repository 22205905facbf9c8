"""The commsemi benchmark: one closed-loop, single-process workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repeat runs in a fresh interpreter (``worker.py``), started one after
another, so peak memory and module-global state such as the oracle's
closure-check counters are per repeat.  Passes over the workload's
operations are repeated while another one is expected to end within
``--seconds`` (at least one pass always runs).  With ``--trace 0`` the last
stdout line carries the end-to-end metrics (medians over the passes; setup
time also counts several bare start-ups); with ``--trace 1`` it
carries the per-layer metrics of one traced pass, run after the untraced
passes and the transform micro kernels.  The full record, with quartiles,
every operation's time and the machine fingerprint, goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import analysis  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
# a run must end within 180 s; leave room for start-up and the report
HARD_LIMIT_S = 165.0
# start another pass only if it is expected to end by seconds * PASS_SLACK
PASS_SLACK = 1.2


class WorkerFailed(Exception):
    pass


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=20, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def fingerprint(seed: int) -> dict:
    src = sorted((ROOT / "src" / "commsemi").glob("*.py"))
    h = hashlib.sha256()
    for path in src:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "commit": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "source_sha256": h.hexdigest(),
        "seed": seed,
    }


class Runner:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.start = time.monotonic()

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.start)

    def worker(self, mode: str, *extra: str) -> tuple[dict, float]:
        """Run one worker to completion; returns its result and its start time."""
        timeout = self.remaining()
        if timeout <= 1:
            raise WorkerFailed(f"no time left for the {mode} worker")
        argv = [sys.executable, str(HERE / "worker.py"), mode, self.workload, str(self.seed), *extra]
        t_spawn = time.monotonic()
        try:
            done = subprocess.run(
                argv, cwd=ROOT, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired as exc:
            raise WorkerFailed(f"{mode} worker killed after {timeout:.0f} s") from exc
        if done.returncode != 0:
            raise WorkerFailed(f"{mode} worker exited {done.returncode}: {done.stderr.strip()[-2000:]}")
        return json.loads(done.stdout.strip().splitlines()[-1]), t_spawn

    def passes(self, record: dict) -> list[dict]:
        """Untraced passes while the next is expected to end in time."""
        out = []
        t_first = time.monotonic()
        while True:
            try:
                res, t_spawn = self.worker("pass")
            except WorkerFailed as exc:
                record["errors"].append(str(exc))
                record["failed_passes"] += 1
                break
            res["setup_wall_s"] = res["t_ready"] - t_spawn
            out.append(res)
            now = time.monotonic()
            next_end = now - self.start + (now - t_first) / len(out)
            if next_end > self.seconds * PASS_SLACK or next_end > HARD_LIMIT_S:
                break
        return out


def _summary(values: list[float]) -> dict:
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "samples": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "commsemi" / "__init__.py").is_file():
        print(f"error: no commsemi sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    runner = Runner(args.workload, args.seed, args.seconds)
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": fingerprint(args.seed),
        "loadavg_before": os.getloadavg(),
        "errors": [],
        "failed_passes": 0,
    }

    setup = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            try:
                res, t_spawn = runner.worker("setup")
            except WorkerFailed as exc:
                record["errors"].append(str(exc))
                break
            setup.append((res["setup_cpu_s"], res["t_ready"] - t_spawn))
    passes = runner.passes(record)

    traced = micro = None
    if args.trace and passes:
        try:
            micro, _ = runner.worker("micro")
            stem = HERE / "out" / f"spans-{args.workload}-seed{args.seed}"
            traced, _ = runner.worker("pass", "--trace", str(stem))
        except WorkerFailed as exc:
            record["errors"].append(str(exc))
    record["loadavg_after"] = os.getloadavg()

    # --- correctness: every operation and every pass-level gate -------------
    runs = passes + ([traced] if traced else [])
    attempted = sum(len(r["ops"]) for r in runs)
    failed = sum(1 for r in runs for op in r["ops"] if not op[3])
    lost = record["failed_passes"] + (1 if args.trace and passes and not traced else 0)
    attempted += lost * workloads.op_count(args.workload)
    failed += lost * workloads.op_count(args.workload)
    gate_errors = [e for r in runs for e in r["gate_errors"]]
    digests = {r["digest"] for r in runs if r["digest"] is not None}
    if len(digests) > 1:
        gate_errors.append(f"pass digests differ within the run: {sorted(digests)}")
    record["op_errors"] = [op for r in runs for op in r["ops"] if not op[3]]
    record["gate_errors"] = gate_errors
    record["digests"] = sorted(digests)
    correct = failed == 0 and not gate_errors and not record["errors"]

    if not passes or (args.trace and not traced):
        print(f"error: no complete pass; {record['errors']}", file=sys.stderr)
        _write_record(record, args)
        return 1

    # --- metrics ------------------------------------------------------------
    op_times: dict[str, list[float]] = {}
    for r in passes:
        for name, secs, *_ in r["ops"]:
            op_times.setdefault(name, []).append(secs)
    record["op_seconds"] = {k: _summary(v) for k, v in op_times.items()}
    if args.trace:
        values = analysis.trace_metrics(traced, micro, passes, op_times)
        record["kernel_calls"] = traced["kernel_calls"]
        record["spans"] = traced["spans"]
        wanted = spec["per_layer"]
    else:
        # Bounded metrics are CPU seconds: on a shared VM, wall time also
        # counts the time the host ran someone else (steal), which made
        # wall-time spreads across seeds reach 0.5.  Wall times stay in the
        # record.
        samples = {
            "cpu_s": [r["cpu_s"] for r in passes],
            "setup_s": [c for c, _ in setup] + [r["setup_cpu_s"] for r in passes],
            "slowest_op_cpu_s": [max(op[2] for op in r["ops"]) for r in passes],
            "peak_rss_mb": [r["peak_rss_mb"] for r in passes],
            "wall_s": [r["wall_s"] for r in passes],
            "setup_wall_s": [w for _, w in setup] + [r["setup_wall_s"] for r in passes],
            "slowest_op_wall_s": [max(op[1] for op in r["ops"]) for r in passes],
        }
        record["summary"] = {k: _summary(v) for k, v in samples.items()}
        values = {k: s["median"] for k, s in record["summary"].items()}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record["metrics"] = metrics
    path = _write_record(record, args)

    fp = record["fingerprint"]
    print(
        f"# {args.workload} seed={args.seed} trace={args.trace} python={fp['python']} "
        f"nproc={fp['nproc']} cpu={fp['cpu_model']!r} commit={fp['commit']} dirty={fp['dirty']} "
        f"load={record['loadavg_before'][0]:.2f}->{record['loadavg_after'][0]:.2f}"
    )
    for name, s in record.get("summary", {}).items():
        unit = "MB" if name == "peak_rss_mb" else "s"
        print(
            f"{name:<18} median={s['median']:.6g} q1={s['q1']:.6g} q3={s['q3']:.6g} "
            f"n={s['n']} {unit}"
        )
    if args.trace:
        for name, m in metrics.items():
            print(f"{name:<40} {m['value']:.6g} {m['unit']}")
        layer_self = sum(values[f"{layer}.self_s"] for layer in tracer.LAYERS)
        print(
            f"accounting: layer self times {layer_self:.6g} s + untimed "
            f"{values['trace.untimed_s']:.6g} s = traced wall {values['trace.wall_s']:.6g} s"
        )
    print(f"fail_ratio         {failed}/{attempted} = {failed / attempted:.6g}")
    for err in record["op_errors"][:10] + gate_errors + record["errors"]:
        print(f"FAILED: {err}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _write_record(record: dict, args) -> Path:
    path = HERE / "out" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return path


if __name__ == "__main__":
    sys.exit(main())
