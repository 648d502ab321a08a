"""The vectorized weak-value tables and correlation sum against their
row-by-row references, plus seeded property tests of the analytic
correlation."""

from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    analytic_table_loop,
    copies_limits_loop,
    correlation_sum_loop,
    skip_broadcast_limits_loop,
)

from weakcorr import (
    BasisSet,
    PointerConfig,
    computational_basis,
    convey,
    correlation,
    device_table,
    hadamard_mub,
    random_density_matrix,
    tensor_product,
    weak_value_limits,
)
from weakcorr.cli import load_state
from weakcorr.qcore import DensityMatrix, digit_table

FIXTURES = Path(__file__).parent / "fixtures"
GHZ3 = load_state(str(FIXTURES / "ghz3.json"))


def random_product_basis(n, seed):
    """Rows are krons of columns of random single-qubit unitaries."""
    rng = np.random.default_rng(seed)
    unitaries = []
    for _ in range(n):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        unitaries.append(np.linalg.qr(g)[0])
    dims = (2,) * n
    rows = []
    for bits in digit_table(dims):
        row = np.ones(1, dtype=complex)
        for u, bit in zip(unitaries, bits):
            row = np.kron(row, u[:, bit])
        rows.append(row)
    return BasisSet(dims, rows, tuple(str(k) for k in range(2**n)))


def random_product_state(n, seed):
    rho = random_density_matrix((2,), seed)
    for p in range(1, n):
        rho = tensor_product(rho, random_density_matrix((2,), seed + 10_000 * p))
    return rho


def permute_qubits(rho, order):
    n = len(rho.dims)
    t = rho.matrix.reshape((2,) * (2 * n))
    t = t.transpose(list(order) + [n + p for p in order])
    return DensityMatrix(rho.dims, t.reshape(rho.dim, rho.dim))


def assert_same_table(got, want):
    assert np.max(np.abs(got.values - want.values)) <= 1e-12
    # Probabilities are row sums of the line-0 numerators rather than one
    # b^H rho b product per row, so they may differ in the last bits.
    assert np.max(np.abs(got.probabilities - want.probabilities)) <= 1e-15
    assert got.skipped == want.skipped


def kernel_cases():
    for n in range(2, 6):
        for seed in range(3):
            for mode in ("idealized", "literal"):
                rho = random_density_matrix((2,) * n, seed)
                yield pytest.param(rho, mode, None, id=f"n{n}-seed{seed}-{mode}")
    yield pytest.param(GHZ3, "idealized", None, id="ghz3")
    for n, seed in ((2, 0), (3, 1), (4, 2)):
        yield pytest.param(
            random_density_matrix((2,) * n, 40 + seed),
            "idealized",
            random_product_basis(n, seed),
            id=f"n{n}-product-basis{seed}",
        )


@pytest.mark.parametrize("rho, mode, basis", list(kernel_cases()))
def test_analytic_table_matches_per_element_loop(rho, mode, basis):
    n = len(rho.dims)
    basis = basis or hadamard_mub(n)
    rep = correlation(rho, "analytic", mode, postselection=basis)
    conveyed = convey(rho, (0,) * (n - 1), mode).state
    want = analytic_table_loop(conveyed, basis, device_table(rho.dims))
    assert_same_table(rep.table, want)


@pytest.mark.parametrize("rho, mode, basis", list(kernel_cases()))
def test_skip_broadcast_limits_match_per_element_loop(rho, mode, basis):
    n = len(rho.dims)
    basis = basis or hadamard_mub(n)
    conveyed = convey(rho, (0,) * (n - 1), mode).state
    table = device_table(rho.dims)
    got = weak_value_limits(conveyed, basis, table, skip_broadcast=True)
    assert_same_table(got, skip_broadcast_limits_loop(conveyed, basis, table))


def seeded_cases():
    for n in range(2, 6):
        for seed in range(3):
            for mode in ("idealized", "literal"):
                for mu in (0, 1):
                    case = f"n{n}-seed{seed}-{mode}-mu{mu}"
                    yield pytest.param(n, seed, mode, mu, id=case)


@pytest.mark.parametrize("n, seed, mode, mu", list(seeded_cases()))
def test_copies_limits_match_qubit_loop(n, seed, mode, mu):
    conveyed = convey(random_density_matrix((2,) * n, seed), (0,) * (n - 1), mode).state
    table = device_table(conveyed.dims)
    for basis in (hadamard_mub(n), random_product_basis(n, seed)):
        got = weak_value_limits(conveyed, basis, table, mu)
        want = copies_limits_loop(conveyed, basis, table, mu)
        assert np.max(np.abs(got.values - want.values)) <= 1e-15
        assert np.max(np.abs(got.probabilities - want.probabilities)) <= 1e-15
        assert got.skipped == want.skipped


@pytest.mark.parametrize("mu", [0, 1])
def test_copies_limits_skip_like_qubit_loop(mu):
    # GHZ postselected on computational labels: six of eight rows vanish.
    basis = computational_basis(GHZ3.dims)
    table = device_table(GHZ3.dims)
    got = weak_value_limits(GHZ3, basis, table, mu)
    want = copies_limits_loop(GHZ3, basis, table, mu)
    assert got.skipped == want.skipped == (1, 2, 3, 4, 5, 6)
    assert np.max(np.abs(got.values - want.values)) <= 1e-15


def assert_same_sum(rep):
    total, terms = correlation_sum_loop(rep.table)
    assert [t.term for t in rep.per_k] == terms
    assert [t.skipped for t in rep.per_k] == [k in rep.skipped for k in range(len(terms))]
    assert rep.C == total


@pytest.mark.parametrize("n, seed, mode, mu", list(seeded_cases()))
def test_correlation_sum_matches_row_loop(n, seed, mode, mu):
    rho = random_density_matrix((2,) * n, seed)
    assert_same_sum(
        correlation(rho, "circuit", mode, PointerConfig(1e-3), broadcast_outcome=mu)
    )
    if mu == 0:
        assert_same_sum(correlation(rho, "analytic", mode))


def test_correlation_sum_matches_row_loop_with_skipped_rows():
    rep = correlation(GHZ3, "analytic", "idealized")
    assert rep.skipped == (1, 2, 4, 7)
    assert_same_sum(rep)


# -- properties of the analytic correlation


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("seed", range(4))
def test_idealized_correlation_is_invariant_under_qubit_permutations(n, seed):
    rho = random_density_matrix((2,) * n, 300 + seed)
    base = correlation(rho, "analytic", "idealized").C
    rng = np.random.default_rng(seed)
    orders = [tuple(reversed(range(n))), tuple(range(1, n)) + (0,)]
    orders.append(tuple(int(p) for p in rng.permutation(n)))
    if n == 3:
        orders = list(permutations(range(3)))
    for order in orders:
        moved = correlation(permute_qubits(rho, order), "analytic", "idealized").C
        assert abs(moved - base) <= 1e-12, order


@pytest.mark.parametrize("mode", ["idealized", "literal"])
def test_analytic_correlation_is_nonnegative(mode):
    for n in (2, 3, 4, 5):
        for seed in range(4):
            rho = random_density_matrix((2,) * n, 500 + seed)
            assert correlation(rho, "analytic", mode).C >= 0


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("mode", ["idealized", "literal"])
def test_random_product_states_have_zero_correlation(n, mode):
    for seed in range(5):
        rep = correlation(random_product_state(n, seed), "analytic", mode)
        assert abs(rep.C) <= 1e-12
