"""Run one workload with several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --workload NAME [--runs 10] [--first-seed 1]
                                    [--seconds S] [--trace 0|1]

For every metric it prints the median, the quartiles (statistics.quantiles,
n=4) and the interquartile distance as a share of the median, next to the
metric's bound from BENCHMARK.json, and the same for the unscaled wall times
of the context line (``raw_*``).  Raw results go to
perfbench/out/steadiness-NAME-traceT.json.
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


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}{proc.stdout[-2000:]}")
            return 1
        result = json.loads(lines[-1])
        result["context"] = json.loads(lines[-2])["context"]
        results.append(result)
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"steadiness-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(results, indent=1))
    raw = [k for k in results[0]["context"] if k.startswith("raw_")]
    for name in [*results[0]["metrics"], *raw]:
        values = [r["metrics"][name]["value"] if name in r["metrics"] else r["context"][name]
                  for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        share = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None else (" ok" if share < bound / 3 else " WIDE")
        print(f"{name:<34} median={med:<12.5g} q1={q1:<12.5g} q3={q3:<12.5g} "
              f"iqr/median={share:.3f} bound={bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
