"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload hopf --seeds 1-10 [--trace 0] [--seconds N]

Runs run.py once per seed, one run at a time, and prints for every metric the
median, quartiles and sample count of its per-run values, and for end-to-end
metrics the quartile distance as a share of the median next to the metric's
bound from BENCHMARK.json.  The last line of stdout is the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    runs = []
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **res})
        print(f"seed {seed}: correct {res['correct']} failed {res['failed']}/{res['attempted']}  "
              + "  ".join(f"{k} {v['value']:.5g}" for k, v in res["metrics"].items()
                          if k in ("setup_s", "pass_s", "peak_rss_mb", "trace.overhead")),
              flush=True)
        for name, metric in res["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        entry = {"median": med, "p25": q1, "p75": q3, "n": len(vals)}
        if name in bounds:
            entry["spread"] = (q3 - q1) / med if med else 0.0
            entry["bound"] = bounds[name]
            print(f"{name:14s} median {med:.5g}  p25 {q1:.5g}  p75 {q3:.5g}  n {len(vals)}  "
                  f"spread {entry['spread']:.4f}  bound {bounds[name]}")
        summary[name] = entry
    print(json.dumps({"workload": args.workload, "all_correct": all(r["correct"] for r in runs),
                      "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
