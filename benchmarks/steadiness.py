"""Run one workload on several seeds and report each metric's spread.

    python3 benchmarks/steadiness.py sweep-direct-n4 --seeds 11-20

The spread is the distance between the first and third quartiles of the
per-run values (``statistics.quantiles(values, n=4)``) as a share of their
median, printed next to the metric's bound from BENCHMARK.json.  A metric
is steady when its spread is well below its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload")
    parser.add_argument("--seeds", default="11-20", help="first-last, inclusive")
    args = parser.parse_args()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    first, last = (int(v) for v in args.seeds.split("-"))
    values: dict[str, list[float]] = {}
    for seed in range(first, last + 1):
        cmd = [
            sys.executable, str(run.HERE / "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(done.stdout)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        shown = ", ".join(f"{k} {m['value']:.5g}" for k, m in result["metrics"].items())
        print(f"seed {seed}: {shown}", flush=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        median = statistics.median(vals)
        spread = (q3 - q1) / median if median else 0.0
        print(f"{args.workload} {name:44s} median {median:.6g}  spread {spread:.4f}  bound {bounds[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
