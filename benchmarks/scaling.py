"""Informational scaling report: one correlation() per path for n = 2..7.

    python3 benchmarks/scaling.py

Not gated and not one of the repeated workloads.  Each case runs in its own
child process under a wall-time budget and an address-space cap, so a case
whose dense 2^(2n) intermediates do not fit fails alone instead of
exhausting the machine.  A path that goes over budget is not tried at
larger n.  The op runs with the tracer installed, so its time includes the
tracing overhead (see ``trace.overhead_ratio`` in the traced benchmark
runs).  Results go to ``benchmarks/results/scaling.json``.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time

import run

PATHS = {
    "analytic/idealized": ("analytic", "idealized", False),
    "analytic/literal": ("analytic", "literal", False),
    "circuit/literal+copies": ("circuit", "literal", False),
    "circuit/literal skip_broadcast": ("circuit", "literal", True),
}
SIZES = range(2, 8)
BUDGET_S = 60
ADDRESS_CAP = 3 << 30
SEED = 0


def case(path: str, n: int) -> dict:
    """Child side: one traced op; the result is printed as JSON."""
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_CAP, ADDRESS_CAP))
    wc = run.import_weakcorr()
    from tracing import Tracer

    backend, mode, skip = PATHS[path]
    rho = wc.random_density_matrix((2,) * n, SEED)
    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        with tracer.op():
            report = wc.correlation(rho, backend, mode, skip_broadcast=skip)
        elapsed = time.perf_counter() - start
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    return {
        "op_s": elapsed,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "C": report.C,
        "oracle_diag": report.oracle_diag,
        "calls": {k: row["calls"] for k, row in sorted(totals.items()) if k != "op"},
        "computed_mib": {k: v for k, v in sorted(tracer.counters.items()) if k.endswith("_mb")},
    }


def main() -> int:
    if sys.argv[1:2] == ["--case"]:
        print(json.dumps(case(sys.argv[2], int(sys.argv[3]))))
        return 0
    rows = []
    for path in PATHS:
        blocked = None
        for n in SIZES:
            row = {"path": path, "n": n}
            if blocked:
                row["status"] = blocked
                rows.append(row)
                continue
            cmd = [sys.executable, __file__, "--case", path, str(n)]
            try:
                done = subprocess.run(
                    cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=BUDGET_S
                )
            except subprocess.TimeoutExpired:
                row["status"] = f"over budget ({BUDGET_S} s)"
                blocked = f"not run (over budget at n = {n})"
            else:
                if done.returncode == 0:
                    row.update(status="ok", **json.loads(done.stdout.strip().splitlines()[-1]))
                elif "MemoryError" in done.stderr:
                    row["status"] = f"over memory cap ({ADDRESS_CAP >> 30} GiB address space)"
                    blocked = f"not run (over memory cap at n = {n})"
                else:
                    raise RuntimeError(f"{path} n = {n} failed:\n{done.stderr}")
            rows.append(row)
            shown = f"{row['op_s']:.4g} s, {row['peak_rss_mib']:.1f} MiB" if "op_s" in row else ""
            print(f"{path:32s} n = {n}  {row['status']:32s} {shown}", flush=True)
    doc = {
        "env": run.environment(SEED),
        "budget_s": BUDGET_S,
        "address_cap_gib": ADDRESS_CAP >> 30,
        "rows": rows,
    }
    out = run.HERE / "results" / "scaling.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
