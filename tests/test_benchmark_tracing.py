"""The functions the benchmark tracer wraps exist in weakcorr.

The tracer (``benchmarks/tracing.py``) names them by module and attribute;
renaming one in weakcorr breaks every traced benchmark run, so it fails
here too.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def traced():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attr) for module, attr, *_ in tracing.TRACED]


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
