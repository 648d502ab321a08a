"""A report computes its ``oracle_diag`` when the field is first read.

The protocol obtains C without the density matrix; ``oracle_diag`` is the
density-matrix reference the circuit backend is checked against.  So
``correlation`` does not compute it: the report holds its input state and
computes the reference from it on the first read, then keeps it.  Every
test counts the calls to ``estimator.correlation_oracle_diag``.
"""

from dataclasses import replace
from pathlib import Path

import pytest

from weakcorr import (
    PointerConfig,
    correlation,
    correlation_oracle_diag,
    correlation_sweep,
    estimator,
    random_density_matrix,
)
from weakcorr.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
LAYOUTS = {
    "analytic": dict(backend="analytic"),
    "no-copies": dict(backend="circuit", skip_broadcast=True),
    "copies": dict(backend="circuit"),
}


@pytest.fixture
def oracle_calls(monkeypatch):
    """The states the oracle is called on, in call order."""
    calls = []

    def counted(rho):
        calls.append(rho)
        return correlation_oracle_diag(rho)

    monkeypatch.setattr(estimator, "correlation_oracle_diag", counted)
    return calls


def outcome_cases(n):
    """Zero conveyance outcomes, and mixed ones."""
    return [(0,) * (n - 1), tuple((p + 1) % 2 for p in range(n - 1))]


@pytest.mark.parametrize("layout", LAYOUTS)
def test_correlation_takes_the_oracle_on_the_first_read_only(layout, oracle_calls):
    rho = random_density_matrix((2, 2, 2), 41)
    report = correlation(rho, cfg=PointerConfig(0.05), **LAYOUTS[layout])
    assert oracle_calls == []
    first, second = report.oracle_diag, report.oracle_diag
    assert len(oracle_calls) == 1 and oracle_calls[0] is rho
    assert first is second


@pytest.mark.parametrize("mode", ["idealized", "literal"])
@pytest.mark.parametrize("n", range(2, 8))
def test_the_value_read_is_bitwise_the_oracle(n, mode, oracle_calls):
    rho = random_density_matrix((2,) * n, 4_100 + n)
    want = repr(correlation_oracle_diag(rho))
    for layout, kwargs in LAYOUTS.items():
        for outcomes in outcome_cases(n):
            for mu in (0, 1):
                report = correlation(
                    rho, mode=mode, outcomes=outcomes, broadcast_outcome=mu, **kwargs
                )
                before = len(oracle_calls)
                assert repr(report.oracle_diag) == want, (layout, outcomes, mu)
                assert len(oracle_calls) == before + 1
    assert len(oracle_calls) == len(LAYOUTS) * 2 * 2


@pytest.mark.parametrize("layout", LAYOUTS)
def test_a_given_value_is_kept(layout, oracle_calls):
    rho = random_density_matrix((2, 2, 2), 42)
    report = correlation(rho, **LAYOUTS[layout])
    given = replace(report, oracle_diag=0.125)
    assert given.oracle_diag == 0.125
    assert oracle_calls == []
    assert repr(report.oracle_diag) == repr(correlation_oracle_diag(rho))
    assert given.oracle_diag == 0.125 and len(oracle_calls) == 1


@pytest.mark.parametrize("layout", LAYOUTS)
def test_a_copy_at_another_g_carries_the_value(layout, oracle_calls):
    rho = random_density_matrix((2, 2, 2), 43)
    report = correlation(rho, cfg=PointerConfig(0.1), **LAYOUTS[layout])
    assert oracle_calls == []
    moved = replace(report, g=0.05, sigma=2.0)
    assert len(oracle_calls) == 1
    assert moved.oracle_diag is report.oracle_diag
    assert repr(moved.oracle_diag) == repr(correlation_oracle_diag(rho))
    assert len(oracle_calls) == 1


def test_the_copies_sweep_takes_the_oracle_once(oracle_calls):
    rho = random_density_matrix((2, 2, 2), 44)
    cfgs = [PointerConfig(g) for g in (0.2, 0.1, 0.05, 0.02)]
    single = correlation_sweep(rho, "literal", cfgs[:1])
    assert oracle_calls == []
    reports = list(correlation_sweep(rho, "literal", cfgs))
    assert len(oracle_calls) == 1
    values = {repr(r.oracle_diag) for r in [*single, *reports]}
    assert values == {repr(correlation_oracle_diag(rho))}
    assert len(oracle_calls) == 2


@pytest.mark.parametrize("config", ["analytic", "circuit", "direct"])
def test_run_takes_the_oracle_only_for_the_report_that_prints_it(config, oracle_calls, capsys):
    state, config = FIXTURES / "random3_seed7.json", FIXTURES / f"config_{config}.json"
    argv = ["run", "--state", str(state), "--config", str(config)]
    for fmt, calls in (("csv", 0), ("json", 1)):
        assert main(argv + ["--format", fmt]) == 0
        assert ("oracle_diag" in capsys.readouterr().out) == (fmt == "json")
        assert len(oracle_calls) == calls, fmt
