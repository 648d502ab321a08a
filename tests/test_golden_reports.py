"""Byte-for-byte pins of the ``run``, ``sweep`` and ``oracle`` reports.

Each case runs ``main()`` from the fixtures directory with paths relative
to it, so the report's "state" field (and the basis file a config names)
reads the same on every machine, and compares what it prints with a file
under ``fixtures/golden/``.  A change that is meant to alter report bytes
rewrites the files with ``PYTHONPATH=src python tests/test_golden_reports.py``
and shows the difference in its diff.
"""

import os
import sys
from pathlib import Path

import pytest

from weakcorr.cli import main
from weakcorr.estimator import WeakValueTable

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"

STATES = ("ghz3", "classical3", "product3", "random3_seed7")
# analytic; circuit with copies; circuit without copies; circuit with copies,
# broadcast outcome 1 and the postselection basis read from a file.
RUN_CONFIGS = ("analytic", "circuit", "direct", "basis_file")
SWEEP_STATES = ("random3_seed7", "ghz3")
SWEEP_CONFIGS = ("circuit", "direct")
G_LIST = "0.1,0.05,0.025"
ORACLE_STATES = ("random3_seed7",)
# The benchmark's size, n = 4: analytic; circuit with copies in literal mode,
# broadcast outcome 0 with zero conveyance outcomes and broadcast outcome 1
# with mixed ones; circuit without copies.
N4_STATE = "random4_seed11"
N4_RUN_CONFIGS = ("analytic", "circuit", "circuit_mu1_n4", "direct")
N4_SWEEP_CONFIGS = ("circuit", "direct")


def _cases():
    for state in STATES:
        for config in RUN_CONFIGS:
            for fmt in ("json", "csv"):
                argv = ["run", "--state", f"{state}.json", "--config",
                        f"config_{config}.json", "--format", fmt]
                yield f"run-{state}-{config}.{fmt}", argv
    for config in N4_RUN_CONFIGS:
        for fmt in ("json", "csv"):
            argv = ["run", "--state", f"{N4_STATE}.json", "--config",
                    f"config_{config}.json", "--format", fmt]
            yield f"run-{N4_STATE}-{config}.{fmt}", argv
    for state in SWEEP_STATES:
        for config in SWEEP_CONFIGS:
            argv = ["sweep", "--state", f"{state}.json", "--config",
                    f"config_{config}.json", "--g-list", G_LIST]
            yield f"sweep-{state}-{config}.csv", argv
    for config in N4_SWEEP_CONFIGS:
        argv = ["sweep", "--state", f"{N4_STATE}.json", "--config",
                f"config_{config}.json", "--g-list", G_LIST]
        yield f"sweep-{N4_STATE}-{config}.csv", argv
    for state in ORACLE_STATES:
        for fmt in ("json", "csv"):
            argv = ["oracle", "--state", f"{state}.json", "--format", fmt]
            yield f"oracle-{state}.{fmt}", argv


CASES = dict(_cases())


@pytest.mark.parametrize("name", CASES)
def test_report_matches_golden(name, monkeypatch, capsys):
    monkeypatch.chdir(FIXTURES)
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize(
    "name", [name for name in CASES if name.startswith("run-") and name.endswith(".csv")]
)
def test_csv_run_reads_no_weak_value_table(name, monkeypatch, capsys):
    # The CSV report prints the terms only; the dense table is the JSON block's.
    def refuse(self):
        raise AssertionError("the CSV run report read WeakValueTable.values")

    monkeypatch.setattr(WeakValueTable, "values", property(refuse))
    monkeypatch.chdir(FIXTURES)
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CASES)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    os.chdir(FIXTURES)
    for name, argv in CASES.items():
        if main([*argv, "--out", str(GOLDEN / name)]) != 0:
            sys.exit(f"{name}: {' '.join(argv)} failed")
