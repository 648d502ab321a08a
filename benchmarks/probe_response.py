"""Does the speed probe respond to the op it follows?

    python3 benchmarks/probe_response.py --seconds 30

The op times are scaled by the speed probe's reading next to each op (see
``SpeedProbe`` in run.py).  If the state an op leaves behind (evicted caches,
allocator state, BLAS threads still spinning) slowed the probe, a change
that alters that state would move the scaled times without the machine
changing.  For each workload this alternates, in one process, an op
followed by a reading with a sleep as long as that op followed by a
reading.  Each reading is two kernel runs: the first ("cold") is what a
single-run probe would read, the second ("warm") is what SpeedProbe reads.
It prints, per workload, the median of the paired ratios
reading-after-op / reading-after-sleep, with their quartiles; a ratio of 1
means the probe does not see the op.
"""

from __future__ import annotations

import argparse
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import run

WORKLOADS = ("analytic-n6", "circuit-copies-n4", "sweep-direct-n4")


def reading(probe) -> tuple[float, float]:
    return probe.kernel(), probe.kernel()


def pairs(name: str, seconds: float, workdir: Path):
    """Per round: (cold, warm) after an op and (cold, warm) after a sleep."""
    workload = run.set_up(name, 0, workdir)[0]
    probe = run.SpeedProbe()
    rounds = []
    deadline = time.perf_counter() + seconds
    index = 1
    while time.perf_counter() < deadline:
        inp = workload.make_input(0, index)
        start = time.perf_counter()
        workload.run(inp)
        elapsed = time.perf_counter() - start
        after_op = reading(probe)
        time.sleep(elapsed)
        after_sleep = reading(probe)
        rounds.append((after_op, after_sleep))
        index += 1
    return rounds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=30.0, help="per workload")
    args = parser.parse_args()
    run.OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="probe-", dir=run.OUT))
    try:
        for name in WORKLOADS:
            rounds = pairs(name, args.seconds, workdir)
            for which, label in ((0, "cold"), (1, "warm")):
                ratios = [op[which] / sleep[which] for op, sleep in rounds]
                q1, median, q3 = statistics.quantiles(ratios, n=4)
                after_op = statistics.median(op[which] for op, _ in rounds)
                after_sleep = statistics.median(sleep[which] for _, sleep in rounds)
                print(
                    f"{name:18s} {label}: {len(rounds)} rounds, reading after op "
                    f"{after_op * 1e3:.3f} ms, after sleep {after_sleep * 1e3:.3f} ms, "
                    f"paired ratio median {median:.4f} (quartiles {q1:.4f}-{q3:.4f})",
                    flush=True,
                )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
