"""Run the benchmark once per seed and report each metric's spread across seeds.

    python3 perfbench/repeat.py --workload NAME --seeds 1-10 [--trace 0|1] [--save FILE]

Runs ``run.py`` one seed after another with ``run_seconds`` from
BENCHMARK.json, then prints, for each metric, the median and quartiles over
the seeds (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median next to the metric's bound.  ``--save`` writes every
run's result line and record plus the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, required=True, metavar="LO-HI")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--save", type=Path)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    runs = []
    for seed in args.seeds:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=200)
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        line = json.loads(done.stdout.strip().splitlines()[-1])
        record_path = HERE / "out" / f"result-{args.workload}-seed{seed}-trace{args.trace}.json"
        record = json.loads(record_path.read_text(encoding="utf-8"))
        # keep the saved file small: per-operation medians only for the verify workloads
        ops = record.pop("op_seconds", {})
        if len(ops) <= 50:
            record["op_median_s"] = {k: v["median"] for k, v in ops.items()}
        runs.append({"seed": seed, "result": line, "record": record})
        values = " ".join(f"{k}={v['value']:.5g}" for k, v in line["metrics"].items()
                          if not k.startswith("cli.claim"))
        print(f"seed {seed}: correct={line['correct']} failed={line['failed']}/"
              f"{line['attempted']} {values}", flush=True)

    summary = {}
    names = list(runs[0]["result"]["metrics"])
    for name in names:
        vals = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "n": len(vals)}
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = f"bound={bound} " + ("ok" if spread < bound / 3 else
                                        "WITHIN-BOUND" if spread <= bound else "TOO-WIDE")
        print(f"{name:<40} median={med:.6g} q1={q1:.6g} q3={q3:.6g} spread={spread:.4f} {flag}")
    all_correct = all(r["result"]["correct"] for r in runs)
    print(f"all correct: {all_correct}")
    if args.save:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps({"workload": args.workload, "trace": args.trace,
                                         "summary": summary, "runs": runs}, indent=1) + "\n",
                             encoding="utf-8")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
