"""The estimator's kernels along contiguous axes, against the forms they replaced.

``estimator._marginals`` reads every single-qubit marginal with one
flat-index gather; every table builder hands over its party lines as one
stack with the postselection axis innermost, each party's line a
transposed view of it; ``_party_product`` runs along that axis; and
``_diagnostics`` takes the completeness sum on line 1's float view.  Each
must give, word for word as ``np.uint64``, what the form it replaced gives
(``oracles.ROW_KERNELS``), and every field of every report must be the
same through either set of kernels.
"""

import functools
from dataclasses import fields

import numpy as np
import pytest

from oracles import (
    ROW_KERNELS,
    analytic_lines_by_rows,
    diagnostics_by_complex_einsum,
    marginals_by_pair_gather,
    party_lines_by_row_matmul,
    party_product_by_rows,
)
from test_analytic_kernel import outcome_cases, random_product_basis, random_product_state
from test_estimator import random_unitary_basis

from weakcorr import (
    BasisSet,
    PointerConfig,
    convey,
    correlation,
    correlation_sweep,
    estimator,
    ghz,
    hadamard_mub,
    ket2dm,
    partial_trace,
    random_density_matrix,
)
from weakcorr.estimator import (
    _analytic_lines,
    _damping,
    _damping_exponent,
    _diagnostics,
    _diagonal_lines,
    _marginals,
    _party_lines,
    _party_product,
    _weak_value_numerator,
)
from weakcorr.qcore import SPECTRAL_TOL, DensityMatrix

CFGS = [PointerConfig(g) for g in (0.2, 0.05, 0.01)]
QUDITS = (3, 2, 3)


def words(array):
    """The array's bits, as one uint64 word per float."""
    array = np.ascontiguousarray(array)
    return array.shape, array.view(np.uint64).tobytes()


def assert_same_words(got, want):
    assert words(got) == words(want)


def assert_same_lines(got, want):
    assert_same_words(got.probabilities, want.probabilities)
    assert_same_words(got.joint, want.joint)
    for a, b in zip(got.parties, want.parties, strict=True):
        assert_same_words(a, b)


def product(lines):
    """The party product of ``lines``, shape (..., K, d), as ``_combine``
    reads it: from the contiguous slices behind the party lines."""
    return _party_product([line.swapaxes(-1, -2) for line in lines.parties]).swapaxes(-1, -2)


def near_negative_state(n, seed):
    """A state validation accepts whose least eigenvalue is -0.9 SPECTRAL_TOL."""
    rng = np.random.default_rng(seed)
    d = 2**n
    unitary = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    weights = rng.random(d)
    weights /= weights.sum()
    weights[0] -= weights[0] + 0.9 * SPECTRAL_TOL
    weights[1] += 1.0 - weights.sum()
    return DensityMatrix((2,) * n, (unitary * weights) @ unitary.conj().T)


@functools.cache
def state(kind, n):
    if kind == "random":
        return random_density_matrix((2,) * n, 3_100 + n)
    if kind == "product":
        return random_product_state(n, 3_200 + n)
    if kind == "ghz":
        return ket2dm(ghz(n))
    return near_negative_state(n, 3_300 + n)


KINDS = ["random", "product", "ghz", "near-negative"]


def test_near_negative_state_is_near_negative():
    rho = state("near-negative", 4)
    assert -SPECTRAL_TOL < np.linalg.eigvalsh(rho.matrix)[0] < -0.5 * SPECTRAL_TOL


def test_ghz_skips_the_odd_rows():
    lines = _analytic_lines(state("ghz", 3), hadamard_mub(3))
    assert np.flatnonzero(lines.probabilities[0] < 1e-14).tolist() == [1, 2, 4, 7]


# -- the kernels


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", range(2, 11))
def test_flat_gather_is_bitwise_the_pair_gather(n, kind):
    rho = state(kind, n)
    for outcomes in outcome_cases(n):
        conveyed = convey(rho, outcomes, "literal").state
        got = _marginals(conveyed.matrix, n)
        assert_same_words(got, marginals_by_pair_gather(conveyed.matrix, n))
        for p in range(n):
            assert_same_words(got[p], partial_trace(conveyed, [p]).matrix)


def builder_cases():
    """n = 2..10 on every kind of state."""
    for n in range(2, 11):
        for kind in KINDS:
            yield pytest.param(n, kind, id=f"{kind}-n{n}")


@pytest.mark.parametrize("n, kind", builder_cases())
def test_analytic_lines_are_bitwise_the_row_route(n, kind):
    rho = state(kind, n)
    bases = [hadamard_mub(n)] + ([random_product_basis(n, 3_400 + n)] if n <= 6 else [])
    for basis in bases:
        got = _analytic_lines(rho, basis)
        want = analytic_lines_by_rows(rho, basis)
        assert_same_lines(got, want)
        assert_same_words(product(got), party_product_by_rows(want.parties))


def damped_stack(rho):
    """A sweep block's damped states: the limit row, then three couplings."""
    return rho.matrix * _damping(_damping_exponent(rho.dims), [None, *CFGS])


def numerators(kind, n):
    """The line-1 numerators the circuit builders read: a stacked sweep
    block with the limit row, and a stack of one."""
    rho = state(kind, n)
    basis = hadamard_mub(n)
    if n <= 8:
        yield _weak_value_numerator(damped_stack(rho), basis.matrix)
    yield _weak_value_numerator(rho.matrix[None], basis.matrix)


@pytest.mark.parametrize("n, kind", builder_cases())
def test_party_lines_are_bitwise_the_row_matmul(n, kind):
    rho = state(kind, n)
    for num in numerators(kind, n):
        got = _party_lines(num, rho.dims, None)
        want = party_lines_by_row_matmul(num, rho.dims, None)
        assert_same_lines(got, want)
        assert_same_words(product(got), party_product_by_rows(want.parties))
        assert_same_diagnostics(got, want, rho.diagonal())
    squared = hadamard_mub(n)._squared_moduli
    for mu in (0, 1):
        got = _diagonal_lines(squared, rho.diagonal(), rho.dims, mu)
        want = party_lines_by_row_matmul((squared * rho.diagonal()).astype(complex), rho.dims, mu)
        assert_same_lines(got, want)
        assert_same_words(product(got), party_product_by_rows(want.parties))
        assert_same_diagnostics(got, want, rho.diagonal())


def assert_same_diagnostics(got, want, diag):
    for a, b in zip(_diagnostics(got, diag), diagnostics_by_complex_einsum(want, diag)):
        assert_same_words(a, b)


@pytest.mark.parametrize("copy_outcome", [None, 0, 1])
def test_qudit_party_lines_are_bitwise_the_row_matmul(copy_outcome):
    rho = random_density_matrix(QUDITS, 3_500)
    basis = random_unitary_basis(QUDITS, 3_501)
    if copy_outcome is None:
        num = _weak_value_numerator(rho.matrix[None], basis.matrix)
        got = _party_lines(num, QUDITS, None)
    else:
        squared = np.abs(basis.matrix) ** 2
        got = _diagonal_lines(squared, rho.diagonal(), QUDITS, copy_outcome)
        num = (squared * rho.diagonal()).astype(complex, order="C")
    want = party_lines_by_row_matmul(num, QUDITS, copy_outcome)
    assert [line.shape[-1] for line in got.parties] == list(QUDITS)
    assert_same_lines(got, want)
    assert_same_words(product(got), party_product_by_rows(want.parties))
    assert_same_diagnostics(got, want, rho.diagonal())


def test_builders_hand_over_one_postselection_innermost_stack():
    """Each party line is the transposed view of its rows of one stack:
    transposed back, every line is K-contiguous, and party p + 1's rows
    follow party p's."""
    rho = state("random", 4)
    basis = hadamard_mub(4)
    built = [
        _analytic_lines(rho, basis),
        _party_lines(_weak_value_numerator(damped_stack(rho), basis.matrix), rho.dims, None),
        _diagonal_lines(basis._squared_moduli, rho.diagonal(), rho.dims, 0),
    ]
    for lines in built:
        k = lines.joint.shape[-2]
        rows = [line.swapaxes(-1, -2) for line in lines.parties]
        for line in rows:
            assert line.shape[-2:] == (2, k)
            assert line.strides[-2:] == (k * line.itemsize, line.itemsize)
        starts = [line.__array_interface__["data"][0] for line in rows]
        assert np.diff(starts).tolist() == [2 * k * rows[0].itemsize] * 3


@pytest.mark.parametrize("skip, mu", [(True, 0), (False, 0), (False, 1)])
@pytest.mark.parametrize("n", range(2, 7))
def test_reports_do_not_depend_on_the_basis_layout(n, skip, mu):
    """A basis matrix held column-major gives the report of its row-major
    copy, bit for bit: the copies layout builds line 1 row-major, so its
    row sums and the float view of the completeness sum see one layout."""
    rows = random_unitary_basis((2,) * n, 3_700 + n).matrix
    assert rows.flags.f_contiguous and not rows.flags.c_contiguous
    labels = [str(k) for k in range(2**n)]
    rho = random_density_matrix((2,) * n, 3_800 + n)
    got, want = (
        correlation(
            rho,
            "circuit",
            "literal",
            postselection=BasisSet((2,) * n, matrix, labels),
            broadcast_outcome=mu,
            skip_broadcast=skip,
        )
        for matrix in (rows, np.ascontiguousarray(rows))
    )
    assert_same_report(got, want)


# -- whole reports


def report_cases():
    for n in range(2, 9):
        for mode in ("idealized", "literal"):
            yield pytest.param(n, mode, id=f"n{n}-{mode}")


def reports(rho, mode, outcomes):
    """Every report of every path on one state: analytic, copies at mu = 0
    and 1, no copies, and a sweep in each layout."""
    out = [
        correlation(rho, "analytic", mode, outcomes=outcomes),
        correlation(rho, "circuit", mode, CFGS[1], outcomes=outcomes, skip_broadcast=True),
    ]
    for mu in (0, 1):
        out.append(correlation(rho, "circuit", mode, outcomes=outcomes, broadcast_outcome=mu))
    for skip in (True, False):
        out += correlation_sweep(rho, mode, CFGS, outcomes=outcomes, skip_broadcast=skip)
    return out


def assert_same_report(got, want):
    for f in fields(got):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "table":
            assert_same_lines(a, b)
        elif f.name == "terms":
            assert_same_words(a, b)
        else:
            assert repr(a) == repr(b), f.name


@pytest.mark.parametrize("n, mode", report_cases())
def test_reports_are_bitwise_the_row_kernels(n, mode, monkeypatch):
    rho = random_density_matrix((2,) * n, 3_600 + n)
    got = [reports(rho, mode, outcomes) for outcomes in outcome_cases(n)]
    for name, form in ROW_KERNELS.items():
        monkeypatch.setattr(estimator, name, form)
    want = [reports(rho, mode, outcomes) for outcomes in outcome_cases(n)]
    for a, b in zip(sum(got, []), sum(want, []), strict=True):
        assert_same_report(a, b)
