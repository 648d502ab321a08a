"""``weakcorr sweep`` rows from the blocks' arrays, and the outcome check.

Without copies the sweep command reads C and each coupling's residual
straight from the arrays of ``estimator._sweep``'s blocks and builds no
report; its bytes must be what the row loop over ``correlation_sweep``'s
reports prints (``oracles.sweep_report_by_reports``), in both formats,
modes and layouts, and also with the report classes patched to raise.
With copies the command reads its one C from one call of the public
``correlation``.
The block's damping takes one ``np.exp`` over its stacked exponents,
which must give each coupling's Lambda bitwise as one scalar ``np.exp``
per coupling did.  A broadcast outcome outside [0, 2) is refused on every
path, also where it is not read.
"""

import json

import numpy as np
import pytest

from oracles import damping_by_scalar_exps, dump_state, sweep_report_by_reports
from test_analytic_kernel import SWEEP_G

from weakcorr import (
    PointerConfig,
    cli,
    correlation,
    correlation_sweep,
    estimator,
    random_density_matrix,
)
from weakcorr.cli import main
from weakcorr.errors import ImpossibleOutcome
from weakcorr.estimator import _damping, _damping_exponent

G_LIST = ",".join(map(str, SWEEP_G))
FORMATS = ("csv", "json")


def refuse(*args, **kwargs):
    raise AssertionError("called a function the path must not reach")


def sweep_case(tmp_path, n, mode, skip, relabel, sigma=None):
    """A seeded state file and config; the sweep's argv without --format and
    the keyword arguments of ``correlation_sweep`` for the same run."""
    rho = random_density_matrix((2,) * n, 2_700 + n)
    state = tmp_path / "state.json"
    state.write_text(dump_state(rho))
    # Alternating conveyance outcomes and broadcast outcome 1, or all zeros.
    nu = [(p + 1) % 2 for p in range(n - 1)] if relabel else [0] * (n - 1)
    mu = 1 if relabel else 0
    config = {"mode": mode, "skip_broadcast": skip, "outcomes": [*nu, mu]}
    if sigma is not None:
        config["sigma"] = sigma
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    argv = ["sweep", "--state", str(state), "--config", str(cfg), "--g-list", G_LIST]
    kwargs = dict(outcomes=tuple(nu), broadcast_outcome=mu, skip_broadcast=skip)
    return rho, argv, kwargs


def sweep_bytes(argv, fmt, tmp_path):
    out = tmp_path / f"out.{fmt}"
    assert main([*argv, "--format", fmt, "--out", str(out)]) == 0
    return out.read_bytes()


def reference_bytes(rho, argv, fmt, mode, sigma, kwargs):
    text = sweep_report_by_reports(argv[2], fmt, rho, mode, SWEEP_G, sigma, **kwargs)
    return text.encode()


@pytest.mark.parametrize("relabel", [False, True])
@pytest.mark.parametrize("skip", [True, False])
@pytest.mark.parametrize("mode", ["idealized", "literal"])
@pytest.mark.parametrize("n", range(2, 9))
def test_sweep_bytes_are_the_row_loop_over_reports(n, mode, skip, relabel, tmp_path):
    """n = 8 puts the limit row in a block of its own."""
    rho, argv, kwargs = sweep_case(tmp_path, n, mode, skip, relabel)
    sigma = PointerConfig.sigma
    for fmt in FORMATS:
        want = reference_bytes(rho, argv, fmt, mode, sigma, kwargs)
        assert sweep_bytes(argv, fmt, tmp_path) == want, fmt


@pytest.mark.parametrize("skip", [True, False])
def test_sweep_bytes_at_another_sigma(skip, tmp_path):
    rho, argv, kwargs = sweep_case(tmp_path, 4, "idealized", skip, True, sigma=0.3)
    for fmt in FORMATS:
        want = reference_bytes(rho, argv, fmt, "idealized", 0.3, kwargs)
        assert sweep_bytes(argv, fmt, tmp_path) == want, fmt


@pytest.mark.parametrize("n", [3, 4, 8])
def test_no_copies_sweep_builds_no_report(n, tmp_path, monkeypatch):
    rho, argv, kwargs = sweep_case(tmp_path, n, "idealized", True, False)
    sigma = PointerConfig.sigma
    want = {fmt: reference_bytes(rho, argv, fmt, "idealized", sigma, kwargs) for fmt in FORMATS}
    for name in ("CorrelationReport", "_report", "_diagnostics"):
        monkeypatch.setattr(estimator, name, refuse)
    # The blocks hold tables, but no per-party view of one is made.
    monkeypatch.setattr(estimator.WeakValueTable, "parties", property(refuse))
    for fmt in FORMATS:
        assert sweep_bytes(argv, fmt, tmp_path) == want[fmt], fmt


@pytest.mark.parametrize("relabel", [False, True])
def test_copies_sweep_is_one_correlation_call(relabel, tmp_path, monkeypatch):
    rho, argv, kwargs = sweep_case(tmp_path, 4, "literal", False, relabel)
    sigma = PointerConfig.sigma
    want = {fmt: reference_bytes(rho, argv, fmt, "literal", sigma, kwargs) for fmt in FORMATS}
    seen = []

    def spy(*args, **kw):
        seen.append(args)
        return correlation(*args, **kw)

    # The name the command calls, and the estimator's own.
    monkeypatch.setattr(cli, "correlation", spy)
    monkeypatch.setattr(estimator, "correlation", spy)
    for fmt in FORMATS:
        seen.clear()
        assert sweep_bytes(argv, fmt, tmp_path) == want[fmt], fmt
        assert len(seen) == 1, fmt


# -- the damping base


def seeded_cfgs(count, seed):
    """``count`` seeded (g, sigma) pairs, each drawn log-uniformly."""
    rng = np.random.default_rng(seed)
    gs = 10.0 ** rng.uniform(-4.0, 1.0, count)
    sigmas = 10.0 ** rng.uniform(-1.5, 0.7, count)
    return [PointerConfig(float(g), float(s)) for g, s in zip(gs, sigmas)]


@pytest.mark.parametrize(
    "cfgs",
    [
        [None, *(PointerConfig(g) for g in SWEEP_G)],
        [None, *seeded_cfgs(1000, 2_800)],
        [PointerConfig(g, 0.3) for g in SWEEP_G],
        [None],
    ],
    ids=["benchmark-g", "seeded-1000", "sigma-0.3", "limit-alone"],
)
def test_one_exp_is_the_scalar_exps(cfgs):
    # An exponent of ones shows each damping base a itself.
    ones = np.ones((1, 1))
    got, want = _damping(ones, cfgs), damping_by_scalar_exps(ones, cfgs)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    exponent = _damping_exponent((2, 2, 2))
    got, want = _damping(exponent, cfgs), damping_by_scalar_exps(exponent, cfgs)
    assert got.shape == (len(cfgs), 8, 8)
    assert got.tobytes() == want.tobytes()
    if cfgs[0] is None:
        assert (got[0] == 1.0).all()


# -- the broadcast outcome


@pytest.mark.parametrize("mu", [5, 2, -3])
def test_an_impossible_broadcast_outcome_is_refused_in_every_layout(mu):
    rho = random_density_matrix((2, 2, 2), 2_900)
    cfgs = [PointerConfig(0.05)]
    message = f"outcome {mu} out of range for dimension 2"
    calls = {
        "analytic": lambda: correlation(rho, "analytic", broadcast_outcome=mu),
        "no copies": lambda: correlation(rho, "circuit", broadcast_outcome=mu, skip_broadcast=True),
        "copies": lambda: correlation(rho, "circuit", broadcast_outcome=mu),
        "no-copies sweep": lambda: correlation_sweep(
            rho, "literal", cfgs, broadcast_outcome=mu, skip_broadcast=True
        ),
        "copies sweep": lambda: correlation_sweep(rho, "literal", cfgs, broadcast_outcome=mu),
        "empty copies sweep": lambda: correlation_sweep(rho, "literal", [], broadcast_outcome=mu),
    }
    for name, call in calls.items():
        with pytest.raises(ImpossibleOutcome, match=message):
            call()


@pytest.mark.parametrize(
    "command, config",
    [
        ("run", {"backend": "analytic"}),
        ("run", {"backend": "circuit", "skip_broadcast": True}),
        ("sweep", {"skip_broadcast": True}),
    ],
)
def test_the_cli_refuses_an_impossible_broadcast_outcome(command, config, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**config, "outcomes": [0, 0, 5]}))
    state = tmp_path / "state.json"
    state.write_text(dump_state(random_density_matrix((2, 2, 2), 2_901)))
    argv = [command, "--state", str(state), "--config", str(cfg)]
    if command == "sweep":
        argv += ["--g-list", "1e-2,1e-3"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "outcome 5 out of range for dimension 2" in captured.err
