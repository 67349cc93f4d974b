"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload outcome_sweep --seeds 0-9 [--trace 1]

For each figure a run prints as `metric NAME = VALUE UNIT` (the JSON
metrics and the issue's extra figures such as fail_ratio) it prints the
median, the quartiles from statistics.quantiles(values, n=4), and
(Q3 - Q1) / median, the figure that BENCHMARK.json's bounds are compared
against.  --baseline FILE records the summary under the workload in that
file, keeping everything else in it.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_from(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None,
            "min": min(values), "max": max(values)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--baseline", default=None)
    args = ap.parse_args()
    if args.seconds is None:
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
                  encoding="utf-8") as fh:
            args.seconds = json.load(fh)["run_seconds"]

    runs = []
    for seed in seeds_from(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        figures = {}
        for line in lines:
            if line.startswith("metric "):
                name, _, rest = line[len("metric "):].partition(" = ")
                value, unit = rest.split()[:2]
                figures[name] = (float(value), unit)
        runs.append(figures)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)

    summary = {}
    for name, (_, unit) in runs[0].items():
        values = [r[name][0] for r in runs if name in r]
        if len(values) < 2:
            continue
        s = summary[name] = dict(summarize(values), unit=unit, n=len(values))
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{name}: median={s['median']:.6g} q1={s['q1']:.6g} "
              f"q3={s['q3']:.6g} spread={spread} {unit}")
    if args.baseline:
        record = {}
        if os.path.exists(args.baseline):
            with open(args.baseline, encoding="utf-8") as fh:
                record = json.load(fh)
        entry = record.setdefault("workloads", {}).setdefault(args.workload, {})
        entry["traced" if args.trace else "untraced"] = {
            "seeds": args.seeds, "seconds": args.seconds, "figures": summary}
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
