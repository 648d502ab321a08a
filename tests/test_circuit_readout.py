"""The circuit backend's closed-form table against the staged pointer
readout, the sweep against one correlation() call per g, seeded property
tests of the circuit correlation in both device layouts and a correctness
check at n = 10."""

import json
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import correlation_loop, diag_correlation, staged_circuit_table
from test_analytic_kernel import permute_qubits, random_product_state
from test_estimator import random_unitary_basis

from weakcorr import (
    PointerConfig,
    cli,
    computational_basis,
    convey,
    correlation,
    correlation_sweep,
    device_table,
    estimator,
    hadamard_mub,
    random_density_matrix,
)
from weakcorr.cli import load_state, main
from weakcorr.estimator import _damping, _damping_exponent, _limits_table

FIXTURES = Path(__file__).parent / "fixtures"
GHZ3 = load_state(str(FIXTURES / "ghz3.json"))
G_VALUES = (1e-3, 0.1, 0.7)
LAYOUTS = ("copies", "no-copies")


def layouts(dims):
    """(skip_broadcast, broadcast outcome) for every outcome both layouts allow."""
    yield True, 0
    for mu in range(min(dims)):
        yield False, mu


def assert_matches_staged(got, want):
    assert np.max(np.abs(got.values - want.values)) <= 1e-12
    assert np.max(np.abs(got.probabilities - want.probabilities)) <= 1e-12
    assert got.skipped == want.skipped


def qubit_cases():
    for n in (2, 3, 4):
        for seed in range(3):
            for mode in ("idealized", "literal"):
                rho = random_density_matrix((2,) * n, seed)
                yield pytest.param(rho, mode, id=f"n{n}-seed{seed}-{mode}")


def assert_circuit_matches_staged(rho, mode, basis):
    n = len(rho.dims)
    conveyed = convey(rho, (0,) * (n - 1), mode).state
    table = device_table(rho.dims)
    for g in G_VALUES:
        cfg = PointerConfig(g)
        for skip, mu in layouts(rho.dims):
            rep = correlation(
                rho,
                "circuit",
                mode,
                cfg,
                postselection=basis,
                broadcast_outcome=mu,
                skip_broadcast=skip,
            )
            want = staged_circuit_table(conveyed, basis, table, cfg, mu, skip)
            assert_matches_staged(rep.table, want)


@pytest.mark.parametrize("rho, mode", list(qubit_cases()))
def test_circuit_table_matches_staged_readout(rho, mode):
    assert_circuit_matches_staged(rho, mode, hadamard_mub(len(rho.dims)))


@pytest.mark.parametrize("mode", ["idealized", "literal"])
def test_circuit_table_skips_like_staged_readout(mode):
    # GHZ postselected on computational labels: six of eight rows vanish.
    basis = computational_basis(GHZ3.dims)
    assert_circuit_matches_staged(GHZ3, mode, basis)
    rep = correlation(GHZ3, "circuit", mode, postselection=basis, skip_broadcast=True)
    assert rep.skipped == (1, 2, 3, 4, 5, 6)


@pytest.mark.parametrize("dims", [(3, 3), (2, 3)])
@pytest.mark.parametrize("seed", range(3))
def test_qudit_circuit_table_matches_staged_readout(dims, seed):
    # correlation() takes qubits only, so the table builder is called directly.
    rho = random_density_matrix(dims, seed)
    basis = random_unitary_basis(dims, 100 + seed)
    table = device_table(dims)
    exponent = _damping_exponent(table)
    for g in G_VALUES:
        cfg = PointerConfig(g)
        for skip, mu in layouts(dims):
            damped = rho.matrix * _damping(exponent, cfg)
            got = _limits_table(damped, basis.matrix, table, mu, skip)
            assert_matches_staged(got, staged_circuit_table(rho, basis, table, cfg, mu, skip))


# -- the sweep against one correlation() per g


def sweep_cases():
    for n in (2, 3, 4, 5):
        for seed in range(3):
            for mode in ("idealized", "literal"):
                rho = random_density_matrix((2,) * n, seed)
                yield pytest.param(rho, mode, None, id=f"n{n}-seed{seed}-{mode}")
    # GHZ postselected on computational labels: six of eight rows are skipped.
    for mode in ("idealized", "literal"):
        yield pytest.param(GHZ3, mode, computational_basis(GHZ3.dims), id=f"ghz3-skips-{mode}")


def assert_same_report(got, want):
    """Bitwise equal: the table arrays byte for byte, every other field by
    repr, which spells each float exactly."""
    for a, b in [
        (got.table.values, want.table.values),
        (got.table.probabilities, want.table.probabilities),
    ]:
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert got.skipped == want.skipped
    assert repr(replace(got, table=None)) == repr(replace(want, table=None))


@pytest.mark.parametrize("rho, mode, basis", sweep_cases())
def test_sweep_is_bitwise_the_per_g_loop(rho, mode, basis):
    cfgs = [PointerConfig(g) for g in (0.7, 0.3, 0.1, 1e-2, 1e-3)]
    for skip, mu in layouts(rho.dims):
        kwargs = dict(postselection=basis, broadcast_outcome=mu, skip_broadcast=skip)
        got = list(correlation_sweep(rho, mode, cfgs, **kwargs))
        want = correlation_loop(rho, mode, cfgs, **kwargs)
        assert len(got) == len(want) == len(cfgs)
        for a, b in zip(got, want):
            assert_same_report(a, b)
        if basis is not None:
            assert got[0].skipped == (1, 2, 3, 4, 5, 6)


@pytest.mark.parametrize("skip", [False, True])
def test_sweep_conveys_and_takes_the_oracle_once(tmp_path, monkeypatch, capsys, skip):
    calls = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module in (cli, estimator):
        count(module, "convey")
        count(module, "correlation_oracle_diag")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"mode": "idealized", "skip_broadcast": skip}))
    g_list = "0.2,0.1,0.05,0.02,0.01,0.005,0.002,0.001"
    argv = ["sweep", "--state", str(FIXTURES / "random3_seed7.json"), "--config", str(config)]
    assert main(argv + ["--g-list", g_list]) == 0
    assert capsys.readouterr().out.count("\n") == 2 + 8
    assert calls["convey"] <= 2 and calls["correlation_oracle_diag"] == 1, calls


# -- properties of the circuit correlation


def circuit_C(rho, mode, g, layout):
    cfg = PointerConfig(g)
    return correlation(rho, "circuit", mode, cfg, skip_broadcast=layout == "no-copies").C


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("n", [3, 4, 5])
def test_circuit_correlation_is_nonnegative(layout, n):
    for seed in range(4):
        rho = random_density_matrix((2,) * n, 700 + seed)
        for g in (1e-2, 0.3):
            for mode in ("idealized", "literal"):
                assert circuit_C(rho, mode, g, layout) >= 0


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("n", [3, 4, 5])
def test_idealized_circuit_correlation_is_invariant_under_qubit_permutations(layout, n):
    # Not pinned for literal mode, where conveyance singles out the last party.
    rng = np.random.default_rng(n)
    orders = [tuple(reversed(range(n))), tuple(range(1, n)) + (0,)]
    orders.append(tuple(int(p) for p in rng.permutation(n)))
    for seed in range(4):
        rho = random_density_matrix((2,) * n, 800 + seed)
        for g in (1e-2, 0.3):
            base = circuit_C(rho, "idealized", g, layout)
            for order in orders:
                moved = circuit_C(permute_qubits(rho, order), "idealized", g, layout)
                assert abs(moved - base) <= 1e-12, order


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("mode", ["idealized", "literal"])
def test_random_product_states_have_zero_copies_correlation(n, mode):
    # The copies layout reads the diagonal exactly, even at strong coupling.
    for seed in range(4):
        rho = random_product_state(n, 900 + seed)
        for g in (1e-2, 0.3):
            assert abs(circuit_C(rho, mode, g, "copies")) <= 1e-12


# -- the milestone size


def test_circuit_backend_at_ten_qubits():
    n = 10
    rho = random_density_matrix((2,) * n, 10)
    cfg = PointerConfig(1e-2)
    copies = correlation(rho, "circuit", "literal", cfg)
    assert abs(copies.C - diag_correlation(rho.matrix, n)) <= 1e-12
    direct = correlation(rho, "circuit", "literal", cfg, skip_broadcast=True)
    assert direct.max_completeness_residual <= 1e-12
    assert abs(direct.table.probabilities.sum() - 1.0) <= 1e-12
