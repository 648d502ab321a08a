"""The functions the benchmark tracer wraps exist in weakcorr, and the
workloads still call them.

The tracer (``benchmarks/tracing.py``) names them by module and attribute;
renaming one in weakcorr breaks every traced benchmark run, so it fails
here too.  A traced function that no workload calls any more reads zero
in every per-layer metric of its span, so one op of each workload runs
here under the tracer and every span the workloads call must be called.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import weakcorr
import weakcorr.cli  # noqa: F401  (the sweep workload calls it)

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"

# Traced functions that no workload calls: only demos and tests do.  Every
# other span in TRACED must be called by one op of some workload.
UNCALLED = {
    "bases.party_factors",
    "conveyance.broadcast",
    "conveyance.strong_couple_and_measure",
    "estimator.analytic_weak_value",
    "estimator.postselection_probability",
    "estimator.weak_value_limits",
    "pointer.couple_all",
    "pointer.postselect_and_read",
    "qcore.partial_trace",
    "qcore.tensor_product",
}


def load(name, monkeypatch=None):
    """Import ``benchmarks/<name>.py``; registered in sys.modules for the
    test when ``monkeypatch`` is given, as dataclasses need."""
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    if monkeypatch is not None:
        monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def traced():
    return [(module, attr) for module, attr, *_ in load("tracing").TRACED]


def resolves(module: str, attr: str) -> bool:
    owner = importlib.import_module(f"weakcorr.{module}")
    for part in attr.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return callable(owner)


def test_every_traced_function_resolves():
    names = traced()
    assert names
    missing = [f"{module}.{attr}" for module, attr in names if not resolves(module, attr)]
    assert not missing


def test_every_live_span_is_called_by_a_workload(tmp_path, monkeypatch):
    tracing, workloads = load("tracing"), load("workloads", monkeypatch)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for cls in workloads.WORKLOADS.values():
            workload = cls(weakcorr, tmp_path, 3)
            inp = workload.make_input(0, 0)
            with tracer.op():
                out = workload.run(inp)
            assert workload.check(inp, out) is None, cls.name
    finally:
        tracer.uninstall()
    called = {name for name, row in tracer.totals().items() if row["calls"]}
    spans = {tracing.span_name(module, attr) for module, attr, *_ in tracing.TRACED}
    assert UNCALLED <= spans
    assert sorted(spans - UNCALLED - called) == []
