"""The benchmark's correctness gates pass on real results and trip on bad ones.

``benchmarks/check.py`` runs this gate self-test before its smoke test;
here it runs alone.  Each workload's gate must accept the result of its
warm-up op and reject perturbed copies of it, among them a report rebuilt
by ``dataclasses.replace`` with its ``oracle_diag`` shifted.
"""

import importlib
import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_every_gate_passes_the_real_result_and_trips_on_perturbed_ones(tmp_path, monkeypatch):
    # check.py imports its siblings by their plain names.
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    before = set(sys.modules)
    try:
        check = importlib.import_module("check")
        check.gate_self_test(tmp_path)
        assert check.FAILED == []
    finally:
        for name in set(sys.modules) - before:
            if Path(getattr(sys.modules[name], "__file__", None) or "").parent == BENCHMARKS:
                del sys.modules[name]
