"""The copies layout's flat pass from the conveyed diagonal, and what it reads.

With broadcast copies the postselected readout sees only the diagonal of
the conveyed state, so the circuit backend conveys the diagonal alone and
builds one report from 2-D arrays.  Every field must be bitwise the route
it replaced (``oracles.copies_report_by_matrix``), and C must be the
quantity the docstrings name.
"""

import functools
import itertools
from pathlib import Path

import numpy as np
import pytest

from oracles import copies_report_by_matrix
from test_analytic_kernel import assert_bitwise_report, random_product_basis, random_product_state

from weakcorr import (
    PointerConfig,
    convey,
    correlation,
    correlation_oracle_diag,
    correlation_sweep,
    random_density_matrix,
)
from weakcorr.cli import load_basis
from weakcorr.conveyance import _conveyed_diagonal
from weakcorr.errors import ImpossibleOutcome, ShapeMismatch

FIXTURES = Path(__file__).parent / "fixtures"
SWEEP_G = (0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001)


def outcome_cases(n):
    """Zero conveyance outcomes, and mixed ones."""
    return [(0,) * (n - 1), tuple((p + 1) % 2 for p in range(n - 1))]


def assert_same_report(got, want):
    assert_bitwise_report(got, want)
    for name in ("backend", "mode", "g", "sigma", "broadcast_outcome", "skip_broadcast"):
        assert getattr(got, name) == getattr(want, name), name


# -- the conveyed diagonal against the diagonal of the conveyed state


@pytest.mark.parametrize("mode", ["literal", "idealized"])
@pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2), (3, 2, 3), (2, 3, 4)])
def test_conveyed_diagonal_is_bitwise_the_conveyed_states(dims, mode):
    rho = random_density_matrix(dims, sum(dims))
    for outcomes in itertools.product(*(range(l) for l in dims[:-1])):
        want = convey(rho, outcomes, mode).state.diagonal()
        got = _conveyed_diagonal(rho, outcomes, mode)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), outcomes


@pytest.mark.parametrize(
    "dims, outcomes, mode, error",
    [
        ((2, 2), (0, 0), "literal", ShapeMismatch),
        ((2, 2), (0,), "weak", ShapeMismatch),
        ((2, 2), (2,), "literal", ImpossibleOutcome),
        ((3, 2), (-1,), "idealized", ImpossibleOutcome),
    ],
)
def test_conveyed_diagonal_checks_like_convey(dims, outcomes, mode, error):
    rho = random_density_matrix(dims, 3)
    with pytest.raises(error) as want:
        convey(rho, outcomes, mode)
    with pytest.raises(error) as got:
        _conveyed_diagonal(rho, outcomes, mode)
    assert str(got.value) == str(want.value)


# -- the flat pass against the route through the whole conveyed matrix


def hadamard3_file():
    return load_basis(str(FIXTURES / "basis_hadamard3.json"), (2, 2, 2))


def basis_cases():
    for n in range(2, 9):
        yield pytest.param(n, "builtin", id=f"{n}-builtin")
        yield pytest.param(n, "product", id=f"{n}-product")
    yield pytest.param(3, "hadamard3_file", id="3-hadamard3_file")


@functools.cache
def case(n, basis):
    """A seeded n-qubit state and its postselection basis: None for the
    builtin one, the Hadamard basis file, or a random product basis."""
    rho = random_density_matrix((2,) * n, 1200 + n)
    if basis == "builtin":
        return rho, None
    if basis == "hadamard3_file":
        return rho, hadamard3_file()
    return rho, random_product_basis(n, 1300 + n)


@pytest.mark.parametrize("n, basis", basis_cases())
def test_copies_pass_is_bitwise_the_matrix_route(n, basis):
    rho, basis_b = case(n, basis)
    if basis == "product":
        # |B|^2 is not flat, so line 1 is not the diagonal on every row.
        assert np.ptp(basis_b._squared_moduli * 2**n) > 0.5
    cfg = PointerConfig(0.05, 0.7)
    for mode, outcomes, mu in itertools.product(("literal", "idealized"), outcome_cases(n), (0, 1)):
        kwargs = dict(postselection=basis_b, outcomes=outcomes, broadcast_outcome=mu)
        got = correlation(rho, "circuit", mode, cfg, **kwargs)
        assert_same_report(got, copies_report_by_matrix(rho, mode, cfg, **kwargs))


@pytest.mark.parametrize("n", range(2, 9))
def test_copies_sweep_reports_are_the_single_calls(n):
    rho, basis_b = case(n, "product")
    cfgs = [PointerConfig(g) for g in SWEEP_G] + [PointerConfig(0.01, 2.0)]
    for mode, outcomes, mu in itertools.product(("literal", "idealized"), outcome_cases(n), (0, 1)):
        kwargs = dict(postselection=basis_b, outcomes=outcomes, broadcast_outcome=mu)
        reports = list(correlation_sweep(rho, mode, cfgs, **kwargs))
        assert len(reports) == len(cfgs)
        for report, cfg in zip(reports, cfgs):
            assert_same_report(report, correlation(rho, "circuit", mode, cfg, **kwargs))


def test_empty_copies_sweep_checks_its_arguments():
    rho = random_density_matrix((2, 2, 2), 4)
    assert list(correlation_sweep(rho, "literal", [])) == []
    with pytest.raises(ImpossibleOutcome):
        correlation_sweep(rho, "literal", [], outcomes=(0, 2))


# -- the copies estimand


def flipped_marginal_distance(rho):
    """sum_i |rho_ii - prod_p m_p(1 - x_p(i))|, with m_p party p's marginal
    diagonal: the diagonal distance to the product of the marginals read
    at flipped digits."""
    n = len(rho.dims)
    cube = np.real(np.diag(rho.matrix)).reshape(rho.dims)
    product = np.ones(1)
    for p in range(n):
        marginal = cube.sum(axis=tuple(q for q in range(n) if q != p))
        product = np.kron(product, marginal[::-1])
    return float(np.abs(np.real(np.diag(rho.matrix)) - product).sum())


def estimand_states(n):
    for seed in range(3):
        yield random_density_matrix((2,) * n, 1400 + 10 * n + seed)
        yield random_product_state(n, 1500 + 10 * n + seed)


@pytest.mark.parametrize("mode", ["literal", "idealized"])
@pytest.mark.parametrize("n", range(2, 8))
def test_copies_with_outcome_zero_read_the_oracle(n, mode):
    # On qubits the digit map (0 - x) mod 2 is the identity, so the party
    # lines are the marginals and C is oracle_diag, whatever the conveyance
    # outcomes.
    for rho in estimand_states(n):
        for outcomes in outcome_cases(n):
            report = correlation(rho, "circuit", mode, outcomes=outcomes)
            assert report.oracle_diag == correlation_oracle_diag(rho)
            assert abs(report.C - report.oracle_diag) <= 1e-12


@pytest.mark.parametrize("mode", ["literal", "idealized"])
@pytest.mark.parametrize("n", range(2, 8))
def test_copies_with_outcome_one_read_flipped_marginals(n, mode):
    # With mu = 1 the party lines read the marginals at flipped digits, so
    # a product state, whose oracle value is zero, reads a nonzero C.
    values = []
    for seed in range(3):
        rho = random_product_state(n, 1500 + 10 * n + seed)
        report = correlation(rho, "circuit", mode, broadcast_outcome=1)
        assert abs(report.oracle_diag) <= 1e-12
        assert abs(report.C - flipped_marginal_distance(rho)) <= 1e-12
        values.append(report.C)
    assert min(values) > 1e-3 and max(values) < 2.0
