"""Self-tests for the benchmark itself.

    python3 benchmarks/check.py

1. Gate self-test: each workload's correctness gate passes on the real
   result and trips on perturbed ones.
2. Smoke test: every workload runs at n = 3 for a few ops, reports every
   end-to-end metric with its unit, and its traced run reports every
   per-layer metric; every traced function is called by at least one
   workload, so a rename or an inlined call fails here instead of silently
   reading zero.
3. The command line prints the result line, and exits non-zero without one
   in a directory that holds only the benchmark.

Exits 1 if any check fails.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from tracing import TRACED, span_name

FAILED = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        FAILED.append(what)


def trips(workload, inp, out, what: str) -> None:
    reason = workload.check(inp, out)
    expect(reason is not None, f"{workload.name} gate trips on {what}: {reason}")


def rewrite_csv(path: Path, target: Path, edit) -> Path:
    """Copy a sweep CSV, passing each row's numbers through ``edit`` (None drops it)."""
    head, columns, *rows = path.read_text().splitlines()
    kept = []
    for row in rows:
        fields = row.split(",")
        numbers = edit([float(v) for v in fields[:4]])
        if numbers is not None:
            kept.append(",".join([repr(v) for v in numbers] + fields[4:]))
    target.write_text("\n".join([head, columns, *kept]) + "\n")
    return target


def gate_self_test(workdir: Path) -> None:
    for name in ("analytic-n6", "circuit-copies-n4", "sweep-direct-n4"):
        workload, inp, out, _ = run.set_up(name, 0, workdir)
        reason = workload.check(inp, out)
        expect(reason is None, f"{name} gate passes on the real result ({reason})")
        if name == "analytic-n6":
            trips(workload, inp, dataclasses.replace(out, C=out.C + 1e-9), "C + 1e-9")
            trips(
                workload, inp,
                dataclasses.replace(out, max_completeness_residual=1e-9),
                "a completeness residual of 1e-9",
            )
        elif name == "circuit-copies-n4":
            trips(workload, inp, dataclasses.replace(out, C=out.C + 1e-9), "C + 1e-9")
            shifted = dataclasses.replace(out, C=out.C + 1e-9, oracle_diag=out.oracle_diag + 1e-9)
            trips(workload, inp, shifted, "C and oracle_diag both shifted by 1e-9")
        else:
            from workloads import skip_broadcast_limit

            bad = workdir / "perturbed.csv"
            limit = skip_broadcast_limit(inp.rho, workload.n)
            edits = {
                "a missing g row": lambda r: None if r[0] == 0.001 else r,
                "an extra deviation linear in g": lambda r: [r[0], r[1] + 1e-3 * r[0], *r[2:]],
                "a weak-value residual of order g^1.5": lambda r: [*r[:3], r[3] * r[0] ** -0.5],
                "C equal to its g -> 0 limit at every g": lambda r: [r[0], limit, *r[2:]],
            }
            for what, edit in edits.items():
                trips(workload, inp, rewrite_csv(out, bad, edit), what)


def smoke_test() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    called = set()
    for w in spec["workloads"]:
        name = w["name"]
        plain = run.measure(name, 0, 0.3, trace=False, n=3, fresh_setups=0)
        expect(plain["failed"] == 0, f"{name} at n = 3: {plain['ops']} ops, none failed")
        units = {k: m["unit"] for k, m in plain["metrics"].items()}
        expect(units == end_to_end, f"{name} reports every end-to-end metric with its unit")
        traced = run.measure(name, 0, 0.3, trace=True, n=3)
        units = {k: m["unit"] for k, m in traced["metrics"].items()}
        expect(units == per_layer, f"{name} traced run reports every per-layer metric with its unit")
        called |= {span for span, calls in traced["span_calls"].items() if calls > 0}
    missing = sorted({span_name(m, a) for m, a, _, _ in TRACED} - called)
    expect(not missing, f"every traced function is called by some workload (missing: {missing})")


def command_line_test(workdir: Path) -> None:
    cmd = [sys.executable, "benchmarks/run.py", "--workload", "circuit-copies-n4",
           "--seed", "3", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    last = json.loads(done.stdout.strip().splitlines()[-1])
    expect(
        done.returncode == 0 and set(last) == {"correct", "attempted", "failed", "metrics"}
        and last["correct"],
        "command line prints a correct result as its last line",
    )
    bare = workdir / "bare"
    shutil.copytree(run.HERE, bare / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=170)
    expect(
        done.returncode != 0 and '"correct"' not in done.stdout,
        f"without src/ it exits {done.returncode} and prints no result ({done.stderr.strip()})",
    )


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="check-", dir=run.OUT))
    try:
        gate_self_test(workdir)
        smoke_test()
        command_line_test(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(FAILED)} check(s) failed" if FAILED else "all checks passed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
