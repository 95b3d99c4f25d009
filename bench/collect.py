"""Repeat bench/run.py over seeds and summarize the spread of each metric.

    python3 bench/collect.py --runs 10 [--workloads a,b] [--first-seed 1]
        [--traced 2] [--out bench/baseline.json]

For every workload it makes ``--runs`` untraced runs with seeds
first-seed .. first-seed + runs - 1, then ``--traced`` traced runs with
seed first-seed, so that their counts are checked against each other.  It
prints, per end-to-end metric, the median, the quartiles and the spread
(interquartile distance over the median, as statistics.quantiles gives the
quartiles) next to the metric's bound in BENCHMARK.json, and writes the
whole summary to ``--out`` when given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def one_run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = list(spec["command"]) + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]),
                                   "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=200)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    result["exit_code"] = proc.returncode
    result["env"] = next((json.loads(line[4:]) for line in lines
                          if line.startswith("env ")), None)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
    return result


def spread(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced", type=int, default=2)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = ([w["name"] for w in spec["workloads"]] if args.workloads is None
             else args.workloads.split(","))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary, ok = {}, True
    for workload in names:
        runs = [one_run(spec, workload, args.first_seed + k, 0)
                for k in range(args.runs)]
        traced = [one_run(spec, workload, args.first_seed, 1)
                  for _ in range(args.traced)]
        bad = [r for r in runs + traced
               if r["exit_code"] != 0 or not r.get("correct")]
        ok &= not bad
        entry = {"runs": len(runs), "failed_runs": len(bad),
                 "env_first_run": runs[0]["env"] if runs else None,
                 "end_to_end": {}, "traced": [r.get("metrics") for r in traced]}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs
                      if name in r.get("metrics", {})]
            if len(values) < 2:
                continue
            s = spread(values)
            entry["end_to_end"][name] = s
            print(f"{workload:18s} {name:12s} median {s['median']:10.5g} "
                  f"q1 {s['q1']:10.5g} q3 {s['q3']:10.5g} spread "
                  f"{s['spread']:.4f} (bound {bound}, target < {bound / 3:.4f})")
        for r in traced:
            m = r.get("metrics", {})
            if "trace.overhead_s" in m:
                print(f"{workload:18s} trace.overhead_s "
                      f"{m['trace.overhead_s']['value']:.4f} s")
        summary[workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True)
                                  + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
