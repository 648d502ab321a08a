"""weakcorr benchmark: closed-loop workloads, gated results, optional tracing.

Usage (from the repository root)::

    python3 benchmarks/run.py --workload analytic-n6 --seed 1 --seconds 30 --trace 0

One process runs one workload with one client: each op starts when the
previous one has ended.  Every op's result is checked against an
independent reference outside the timed region; a failed check counts as a
failed op.  With ``--trace 0`` the end-to-end metrics are printed; with
``--trace 1`` half the time runs untraced and half traced, and the
per-layer metrics are printed.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

weakcorr is imported from ``src/`` next to this directory; without it the
benchmark exits with code 2 before printing a result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# setup_s is the median of the run's own set-up and this many more, each in
# a fresh process; each is speed-scaled like the op times.
FRESH_SETUPS = 6
SETUP_TIMEOUT_S = 60
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


class SetupError(Exception):
    """The program or the workload cannot be set up; no result is printed."""


def import_weakcorr():
    """Import weakcorr (and its cli) from this checkout's src/ only."""
    if not (SRC / "weakcorr" / "__init__.py").is_file():
        raise SetupError(f"no weakcorr package under {SRC}")
    sys.path.insert(0, str(SRC))
    import weakcorr
    import weakcorr.cli  # noqa: F401  (the sweep workload calls it)

    if Path(weakcorr.__file__).resolve().parent != SRC / "weakcorr":
        raise SetupError(f"weakcorr was imported from {weakcorr.__file__}")
    return weakcorr


def set_up(name: str, seed: int, workdir: Path, n: int | None = None):
    """Import, build the workload, make the first input and run a warm-up op.

    Returns the workload, the warm-up input and output, and the seconds all
    of that took, which is one sample of setup_s.
    """
    start = time.perf_counter()
    wc = import_weakcorr()
    from workloads import WORKLOADS

    if name not in WORKLOADS:
        raise SetupError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[name](wc, workdir, n)
    inp = workload.make_input(seed, 0)
    out = workload.run(inp)
    return workload, inp, out, time.perf_counter() - start


def timed_op(workload, inp, run):
    """Run one op and check it; return its seconds and None, or a failure reason."""
    start = time.perf_counter()
    try:
        out = run(inp)
    except Exception as exc:  # a raising op is a failed op
        return time.perf_counter() - start, f"op raised {exc!r}"
    elapsed = time.perf_counter() - start
    try:
        return elapsed, workload.check(inp, out)
    except Exception as exc:  # an unreadable result is a failed op
        return elapsed, f"check raised {exc!r}"


class SpeedProbe:
    """A fixed reference kernel, timed between ops, that tracks machine speed.

    On a shared machine the same op can run 1.5x slower for minutes while
    another tenant contends for the core, and a run's median moves with it.
    The kernel (a Python loop and a 256x256 ``eigvalsh``, the two kinds of
    work the ops do) slows by about the same factor.  Each op's time is
    scaled by NOMINAL_S over the kernel time just before or just after the
    op.  NOMINAL_S (the kernel's median on an otherwise idle 2-CPU machine)
    only fixes the unit: it is the same constant in every run, so it cancels
    when two commits are compared on one machine.  The faster of the two
    neighbouring kernel times is used, so one descheduled kernel run does not
    rescale an op.

    A reading is the second of two back-to-back kernel runs.  The first,
    untimed run refills the caches and settles the BLAS threads the op left
    behind, so the reading follows the machine, not the op's leftover state;
    ``probe_response.py`` measures how far a reading still moves with the op.
    """

    NOMINAL_S = 0.011

    def __init__(self):
        import numpy as np

        g = np.random.default_rng(0).standard_normal((2, 256, 256))
        self._h = (g[0] + 1j * g[1]) + (g[0] + 1j * g[1]).conj().T
        self._eigvalsh = np.linalg.eigvalsh

    def kernel(self) -> float:
        """Seconds of one kernel run."""
        start = time.perf_counter()
        x = 0
        for i in range(60_000):
            x += i * i
        self._eigvalsh(self._h)
        return time.perf_counter() - start

    def __call__(self) -> float:
        self.kernel()
        return self.kernel()

    def scale(self, seconds: float) -> float:
        """Seconds measured just now, at the speed where the kernel takes NOMINAL_S."""
        return seconds * self.NOMINAL_S / min(self() for _ in range(3))


def closed_loop(workload, seed: int, first: int, seconds: float, probe, tracer=None):
    """Run ops back to back for ``seconds``; at least one op.

    Returns the ops' raw seconds, their speed-scaled seconds (see
    SpeedProbe), the probe's times and the failure reasons.
    """
    raw, scaled, probes, failures = [], [], [], []
    run = workload.run
    if tracer is not None:

        def run(inp):
            with tracer.op():
                return workload.run(inp)

    deadline = time.perf_counter() + seconds
    index = first
    before = probe()
    while True:
        inp = workload.make_input(seed, index)
        elapsed, reason = timed_op(workload, inp, run)
        after = probe()
        raw.append(elapsed)
        scaled.append(elapsed * probe.NOMINAL_S / min(before, after))
        probes.append(after)
        before = after
        if reason is not None:
            failures.append(f"op {index}: {reason}")
        index += 1
        if time.perf_counter() >= deadline:
            return raw, scaled, probes, failures


def latency(times, failed: int) -> dict:
    """ops_per_s, op_s_p50 and op_s_tail of one list of op seconds."""
    tail_s, _ = tail(times)
    return {
        "ops_per_s": (len(times) - failed) / sum(times),
        "op_s_p50": statistics.median(times),
        "op_s_tail": tail_s,
    }


def tail(times):
    """Highest-ranked op time with at least TAIL_BEYOND ops beyond it.

    Returns (seconds, percentile); with too few ops, the slowest op at 100.
    """
    ordered = sorted(times)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0
    pos = len(ordered) - TAIL_BEYOND - 1
    return ordered[pos], 100.0 * (pos + 1) / len(ordered)


def fresh_setup_s(name: str, seed: int) -> tuple[float, float]:
    """Speed-scaled and raw set-up seconds measured in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", name, "--seed", str(seed)]
    done = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True
    )
    return tuple(json.loads(done.stdout.strip().splitlines()[-1]))


def openblas_threads():
    """Thread count OpenBLAS will use, queried from the library numpy loaded."""
    import numpy as np

    core = getattr(np, "_core", None) or np.core
    try:
        lib = ctypes.CDLL(core._multiarray_umath.__file__)
    except OSError:
        return None
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return None


def git_commit():
    """HEAD of this checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy as np

    return {
        "seed": seed,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def measure(name: str, seed: int, seconds: float, trace: bool, n: int | None = None,
            fresh_setups: int = FRESH_SETUPS) -> dict:
    """Run one workload and return the full record (metrics, counts, env)."""
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        workload, inp, out, setup_raw = set_up(name, seed, workdir, n)
        failures = []
        reason = workload.check(inp, out)
        if reason is not None:
            failures.append(f"warm-up op: {reason}")
        record = {"workload": name, "n": workload.n, "env": environment(seed)}
        probe = SpeedProbe()
        setup = (probe.scale(setup_raw), setup_raw)
        if trace:
            from tracing import Tracer, layer_metrics

            _, plain, _, fail_a = closed_loop(workload, seed, 1, seconds / 2, probe)
            tracer = Tracer()
            tracer.install()
            try:
                _, traced, _, fail_b = closed_loop(
                    workload, seed, 1 + len(plain), seconds / 2, probe, tracer
                )
            finally:
                tracer.uninstall()
            failures += fail_a + fail_b
            times = plain + traced
            metrics = layer_metrics(
                tracer, statistics.median(plain), statistics.median(traced)
            )
            record["span_calls"] = {k: row["calls"] for k, row in tracer.totals().items()}
            spans = OUT / f"spans-{name}-seed{seed}.csv.gz"
            tracer.write(spans)
            record["spans_file"] = str(spans.relative_to(ROOT))
            record["traced_ops"] = len(traced)
        else:
            raw, times, probes, fail_a = closed_loop(workload, seed, 1, seconds, probe)
            failures += fail_a
            peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            setups = [setup] + [fresh_setup_s(name, seed) for _ in range(fresh_setups)]
            values = {
                **latency(times, len(fail_a)),
                "peak_rss_mb": peak_mib,
                "setup_s": statistics.median(scaled for scaled, _ in setups),
            }
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
            record["tail_percentile"] = tail(times)[1]
            record["setup_samples_s"] = [scaled for scaled, _ in setups]
            record["raw"] = {
                **latency(raw, len(fail_a)),
                "setup_s": statistics.median(r for _, r in setups),
            }
            record["speed_probe_s"] = {
                "nominal": SpeedProbe.NOMINAL_S,
                "median": statistics.median(probes),
                "min": min(probes),
                "max": max(probes),
            }
        attempted = len(times) + 1  # the warm-up op counts too
        record.update(
            ops=len(times),
            attempted=attempted,
            failed=len(failures),
            error_rate=len(failures) / attempted,
            failures=failures[:20],
            metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        )
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(record: dict) -> str:
    """Human-readable lines; the caller prints the JSON result line after them."""
    lines = [
        f"workload {record['workload']} (n = {record['n']}): {record['ops']} timed ops, "
        f"{record['failed']} of {record['attempted']} attempted failed",
        "env " + json.dumps(record["env"]),
    ]
    metrics = record["metrics"]
    op_s = metrics.get("trace.op_s", {}).get("value")
    for name, m in metrics.items():
        line = f"  {name:46s} {m['value']:>14.6g} {m['unit']}"
        if name == "op_s_tail":
            line += (
                f"  (p{record['tail_percentile']:.1f}: {TAIL_BEYOND} of "
                f"{record['ops']} ops beyond it)"
            )
        if name == "setup_s":
            line += f"  (median of {len(record['setup_samples_s'])} set-ups)"
        if op_s and m["unit"] == "s" and name != "trace.op_s":
            line += f"  ({100.0 * m['value'] / op_s:.1f} % of traced op time)"
        lines.append(line)
    lines.append(f"  {'error_rate':46s} {record['error_rate']:>14.6g} ratio")
    if "raw" in record:
        speed = record["speed_probe_s"]
        lines.append(
            f"speed probe: median {speed['median']:.4g} s (min {speed['min']:.4g}, max "
            f"{speed['max']:.4g}) against nominal {speed['nominal']} s; unscaled: "
            + ", ".join(f"{k} {v:.6g}" for k, v in record["raw"].items())
        )
    lines += [f"  FAILED {f}" for f in record["failures"]]
    if "spans_file" in record:
        lines.append(f"spans of {record['traced_ops']} traced ops: {record['spans_file']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="also write the full record (JSON) here")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_only:
            OUT.mkdir(exist_ok=True)
            workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=OUT))
            try:
                raw = set_up(args.workload, args.seed, workdir)[3]
                print(json.dumps([SpeedProbe().scale(raw), raw]))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            return 0
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report(record))
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=2) + "\n")
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
