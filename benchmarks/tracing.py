"""Spans and counters recorded around calls into weakcorr's public functions.

The tracer wraps each traced function on every module that holds a
reference to it, because weakcorr's modules import one another's functions
by name (``from .pointer import couple_all`` in ``estimator``), so patching
only the defining module would miss those calls.  Validation of
``qcore.DensityMatrix`` is wrapped on the class itself.  Everything is put
back by :meth:`Tracer.uninstall`.

A span is recorded only while an op is open (``Tracer.op``), so inputs the
benchmark generates between ops do not count.  Spans are kept in memory as
``(name, start, end, parent, op)`` tuples and written out at the end of a
run; the per-layer metrics are computed from them.
"""

from __future__ import annotations

import csv
import functools
import gzip
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

MIB = float(1 << 20)


def _validated_bytes(args, result):
    d = args[0].matrix.shape[0]
    return {"validated_mb": d * d * 16 / MIB}


def _product_bytes(args, result):
    data = getattr(result, "matrix", None)
    if data is None:
        data = result.amplitudes
    return {"out_mb": data.size * 16 / MIB}


def _coupling_counts(args, result):
    return {"branches": result.kets.size, "shift_mb": result.shifts.nbytes / MIB}


def _readout_attempt(args):
    bs = args[0]
    _, lines, columns = bs.shifts.shape
    # Two float64 gathers of the shift table (ket rows and bra rows).
    return {"gather_mb": 2 * bs.kets.size * lines * columns * 8 / MIB}


def _readout_counts(args, result):
    return {**_readout_attempt(args), "useful": 1}


# (module, attribute, counters on success, counters when the call raises).
# Renaming one of these in weakcorr makes install() fail; check.py fails when
# one is no longer called by any workload (inlined or bypassed).
TRACED = (
    ("qcore", "DensityMatrix.__post_init__", _validated_bytes, None),
    ("qcore", "tensor_product", _product_bytes, None),
    ("qcore", "partial_trace", None, None),
    ("bases", "hadamard_mub", None, None),
    ("bases", "device_table", None, None),
    ("bases", "party_factors", None, None),
    ("conveyance", "convey", None, None),
    ("conveyance", "broadcast", None, None),
    ("conveyance", "strong_couple_and_measure", None, None),
    ("pointer", "couple_all", _coupling_counts, None),
    ("pointer", "postselect_and_read", _readout_counts, _readout_attempt),
    ("estimator", "correlation", None, None),
    ("estimator", "analytic_weak_value", None, None),
    ("estimator", "postselection_probability", None, None),
    ("estimator", "weak_value_limits", None, None),
    ("estimator", "correlation_oracle_diag", None, None),
    ("cli", "main", None, None),
    ("cli", "load_state", None, None),
    ("cli", "load_basis", None, None),
)


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.removesuffix('.__post_init__')}"


class Tracer:
    """In-memory span recorder with wrappers for the functions in TRACED."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.ops = 0
        self._op: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    @contextmanager
    def op(self):
        """Open the root span of one op; nested traced calls hang below it."""
        self._op = self.ops
        self.ops += 1
        index = self._open("op")
        try:
            yield
        finally:
            self._close(index)
            self._op = None

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        self.spans.append((name, time.perf_counter(), 0.0, parent, self._op))
        return index

    def _close(self, index: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, _, parent, op = self.spans[index]
        self.spans[index] = (name, start, end, parent, op)

    def _wrap(self, name, fn, on_return, on_raise):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer._close(index)
                if on_raise is not None:
                    tracer._count(name, on_raise(args))
                raise
            tracer._close(index)
            if on_return is not None:
                tracer._count(name, on_return(args, result))
            return result

        return traced

    def _count(self, name, values):
        for key, value in values.items():
            self.counters[f"{name}.{key}"] += value

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap every function in TRACED wherever weakcorr looks it up."""
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if key == "weakcorr" or key.startswith("weakcorr.")
        ]
        try:
            for module, attr, on_return, on_raise in TRACED:
                name = span_name(module, attr)
                home = sys.modules[f"weakcorr.{module}"]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[method]
                    self._patch(cls, method, self._wrap(name, original, on_return, on_raise))
                    continue
                original = getattr(home, attr)
                wrapper = self._wrap(name, original, on_return, on_raise)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, key, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, owner, key, wrapper) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    # -- results -------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds, all ops."""
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for name, start, end, parent, _ in self.spans:
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start
            if parent >= 0:
                p = self.spans[parent]
                out[p[0]]["self_s"] -= end - start
        return dict(out)

    def write(self, path) -> None:
        """Write every span as one CSV row (times relative to the first span)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "start_s", "end_s", "parent", "op"])
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                out.writerow(
                    [index, name, f"{start - t0:.9f}", f"{end - t0:.9f}", parent, op]
                )


# Per-layer metrics, per traced op, in the order the benchmark reports them.
# ``<span>.calls``, ``<span>.s`` (inclusive) and ``<span>.self_s`` come from
# the spans; any other suffix is a counter recorded by the wrapper.
PER_LAYER = (
    ("qcore.DensityMatrix.calls", "count"),
    ("qcore.DensityMatrix.self_s", "s"),
    ("qcore.DensityMatrix.validated_mb", "MiB"),
    ("qcore.tensor_product.calls", "count"),
    ("qcore.tensor_product.self_s", "s"),
    ("qcore.tensor_product.out_mb", "MiB"),
    ("qcore.partial_trace.calls", "count"),
    ("qcore.partial_trace.self_s", "s"),
    ("conveyance.convey.s", "s"),
    ("conveyance.convey.self_s", "s"),
    ("conveyance.broadcast.calls", "count"),
    ("conveyance.broadcast.s", "s"),
    ("conveyance.strong_couple_and_measure.self_s", "s"),
    ("bases.party_factors.calls", "count"),
    ("bases.party_factors.self_s", "s"),
    ("bases.hadamard_mub.self_s", "s"),
    ("bases.device_table.self_s", "s"),
    ("pointer.couple_all.calls", "count"),
    ("pointer.couple_all.self_s", "s"),
    ("pointer.couple_all.branches", "count"),
    ("pointer.couple_all.shift_mb", "MiB"),
    ("pointer.postselect_and_read.calls", "count"),
    ("pointer.postselect_and_read.self_s", "s"),
    ("pointer.postselect_and_read.gather_mb", "MiB"),
    ("pointer.postselect_and_read.useful_ratio", "ratio"),
    ("estimator.correlation.calls", "count"),
    ("estimator.correlation.s", "s"),
    ("estimator.correlation.self_s", "s"),
    ("estimator.analytic_weak_value.calls", "count"),
    ("estimator.analytic_weak_value.s", "s"),
    ("estimator.postselection_probability.calls", "count"),
    ("estimator.postselection_probability.self_s", "s"),
    ("estimator.weak_value_limits.s", "s"),
    ("estimator.correlation_oracle_diag.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.load_state.s", "s"),
    ("cli.load_basis.s", "s"),
    ("trace.op_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def layer_metrics(tracer: Tracer, untraced_p50: float, traced_p50: float) -> dict:
    """Every PER_LAYER metric as {name: (value per op, unit)}.

    ``useful_ratio`` is successful readouts over attempts, 0 when there
    were none; ``trace.op_s`` is the mean traced op time, the base the
    layer times are shares of.
    """
    totals = tracer.totals()
    ops = tracer.ops
    out = {}
    for metric, unit in PER_LAYER:
        span, field = metric.rsplit(".", 1)
        row = totals.get(span, {"calls": 0, "s": 0.0, "self_s": 0.0})
        if metric == "trace.op_s":
            value = totals["op"]["s"] / ops
        elif metric == "trace.overhead_ratio":
            value = traced_p50 / untraced_p50
        elif field == "useful_ratio":
            value = tracer.counters[f"{span}.useful"] / row["calls"] if row["calls"] else 0.0
        elif field in row:
            value = row[field] / ops
        else:
            value = tracer.counters[f"{span}.{field}"] / ops
        out[metric] = (value, unit)
    return out
