"""The circuit table's party lines as one selector matmul, line 1 scaled by
one row sum, the cached damping exponent, and C on product states."""

from pathlib import Path

import numpy as np
import pytest

from oracles import (
    _limits_lines,
    correlation_sum_loop,
    damping_exponent_loop,
    line0_by_division,
    party_lines_by_sums,
)
from test_analytic_kernel import random_product_state
from test_estimator import random_unitary_basis

from weakcorr import (
    PointerConfig,
    computational_basis,
    convey,
    correlation,
    device_table,
    hadamard_mub,
    random_density_matrix,
    weak_value_limits,
)
from weakcorr.cli import load_state
from weakcorr.errors import ImpossibleOutcome
from weakcorr.estimator import (
    _damping,
    _damping_exponent,
    _line0,
    _party_selector,
    _weak_value_numerator,
)

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE_NAMES = ("ghz3", "classical3", "product3", "random3_seed7")
# (skip_broadcast, broadcast outcome): no copies, then copies with mu = 0 and 1.
QUBIT_LAYOUTS = ((True, 0), (False, 0), (False, 1))


def stacked(rho, size):
    """``size`` damped copies of rho, the first undamped, stacked as a sweep
    block stacks its couplings."""
    cfgs = [None] + [PointerConfig(g) for g in np.geomspace(0.5, 1e-3, size - 1)]
    return rho.matrix * _damping(_damping_exponent(rho.dims), cfgs)


def assert_lines_are_the_sums(matrices, basis, dims, skip, mu):
    lines = _limits_lines(matrices, basis.matrix, dims, None if skip else mu)
    want = party_lines_by_sums(lines.joint, dims, None if skip else mu)
    assert [line.shape for line in lines.parties] == [line.shape for line in want]
    for got, line in zip(lines.parties, want):
        assert np.max(np.abs(got - line)) <= 1e-12


# -- the selector


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("size", [1, 9])
@pytest.mark.parametrize("skip, mu", QUBIT_LAYOUTS)
def test_selector_lines_match_the_per_party_sums(n, size, skip, mu):
    rho = random_density_matrix((2,) * n, 200 + n)
    assert_lines_are_the_sums(stacked(rho, size), hadamard_mub(n), rho.dims, skip, mu)


@pytest.mark.parametrize("dims", [(3, 2, 3), (3, 3)])
@pytest.mark.parametrize("size", [1, 9])
def test_qudit_selector_lines_match_the_per_party_sums(dims, size):
    rho = random_density_matrix(dims, 7)
    basis = random_unitary_basis(dims, 8)
    matrices = stacked(rho, size)
    assert_lines_are_the_sums(matrices, basis, dims, True, 0)
    for mu in range(max(dims)):
        if mu < min(dims):
            assert_lines_are_the_sums(matrices, basis, dims, False, mu)
        else:
            with pytest.raises(ImpossibleOutcome):
                _limits_lines(matrices, basis.matrix, dims, mu)


@pytest.mark.parametrize("dims", [(2, 2), (2,) * 5, (3, 2, 3)])
@pytest.mark.parametrize("mu", [None, 0, 1])
def test_selector_is_one_digit_per_party_and_cached(dims, mu):
    selector = _party_selector(dims, mu)
    d = int(np.prod(dims))
    assert selector.shape == (d, sum(dims)) and selector.dtype == complex
    assert not selector.flags.writeable
    assert set(np.unique(selector).tolist()) == {0.0, 1.0}
    stops = np.cumsum(dims)
    for start, stop in zip(stops - dims, stops):
        assert (selector[:, start:stop].sum(axis=1) == 1).all()
    assert _party_selector(dims, mu) is selector


# -- line 1 from one row sum


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("size", [1, 9])
def test_line0_is_bitwise_the_division(n, size):
    rho = random_density_matrix((2,) * n, 300 + n)
    matrices = stacked(rho, size)
    basis = hadamard_mub(n).matrix
    diagonals = np.real(np.diagonal(matrices, axis1=-2, axis2=-1))
    copies = (np.abs(basis) ** 2 * diagonals[:, None, :]).astype(complex)
    for num in (_weak_value_numerator(matrices, basis), copies):
        assert _line0(num)[2].tobytes() == line0_by_division(num).tobytes()


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_line0_on_the_fixtures_differs_at_most_in_the_sign_of_zero(name):
    # numpy divides a + bj by a real s as (a + b*0) * (1/s) and (b - a*0) *
    # (1/s), so an exact -0.0 can come out +0.0 where the scaled product
    # keeps -0.0; the real fixture states have such zeros (ghz3 without
    # copies does).  Every other bit agrees, and the reports print both
    # zeros as 0.
    rho = load_state(str(FIXTURES / f"{name}.json"))
    for basis in (hadamard_mub(3), computational_basis(rho.dims)):
        num = _weak_value_numerator(rho.matrix[None], basis.matrix)
        assert (_line0(num)[2] + 0.0).tobytes() == (line0_by_division(num) + 0.0).tobytes()


# -- the damping exponent


@pytest.mark.parametrize("dims", [(2,) * n for n in range(2, 7)] + [(3, 2, 3), (3, 3)])
def test_damping_exponent_is_cached_and_bitwise_the_loop(dims):
    exponent = _damping_exponent(dims)
    assert exponent.tobytes() == damping_exponent_loop(device_table(dims)).tobytes()
    assert not exponent.flags.writeable
    assert _damping_exponent(dims) is exponent


# -- product states


def product_states():
    for n in range(2, 7):
        for seed in range(3):
            yield pytest.param(random_product_state(n, seed), id=f"n{n}-seed{seed}")
    yield pytest.param(load_state(str(FIXTURES / "product3.json")), id="product3")


def assert_uncorrelated(c, terms):
    # A term is not weighted by its probability, and a row with a small
    # probability carries large weak values, so its rounding is larger.
    assert c <= 1e-14
    assert max(terms) <= 1e-11


@pytest.mark.parametrize("rho", product_states())
@pytest.mark.parametrize("mode", ["idealized", "literal"])
def test_product_state_is_uncorrelated(rho, mode):
    n = len(rho.dims)
    reports = [
        correlation(rho, "analytic", mode),
        correlation(rho, "circuit", mode),
    ]
    if mode == "literal":
        # Literal conveyance leaves coherence on the last party only, so the
        # damped state is still a product state.
        reports.append(correlation(rho, "circuit", mode, skip_broadcast=True))
    for report in reports:
        assert_uncorrelated(report.C, report.terms)
    state = convey(rho, [0] * (n - 1), mode).state
    limit = weak_value_limits(state, hadamard_mub(n), 0, True)
    c, terms = correlation_sum_loop(limit)
    assert_uncorrelated(c, terms)


@pytest.mark.parametrize("rho", product_states())
def test_product_state_bias_without_copies_is_quadratic_in_g(rho):
    # Without copies the line-1 device damps every off-diagonal element by a
    # further a**2, which is no product over the parties: the damped state
    # mixes two product states, and the reading is correlated at order g**2.
    c = [
        correlation(rho, "circuit", "idealized", PointerConfig(g), skip_broadcast=True).C
        for g in (0.01, 0.005)
    ]
    assert c[1] > 1e-9
    assert 3.7 <= c[0] / c[1] <= 4.3
