"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload kernel --seeds 1-10

It prints each run's result line with its seed, then, for every
end-to-end metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the distance between the
quartiles as a share of the median, next to the bound BENCHMARK.json fixes.
The benchmark is steady enough when each share stays below a third of its
bound.  Runs are sequential.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        print(json.dumps({"seed": seed, **result}), flush=True)

    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / median if median else float("nan")
        bound = bounds[name]
        flag = "ok" if share < bound / 3 else "WIDE"
        print(f"{name:<44} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"spread {share:7.2%} bound {bound} {flag}")


if __name__ == "__main__":
    main()
