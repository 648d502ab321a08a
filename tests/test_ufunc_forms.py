"""The combination step and the sweep residual in their ufunc forms.

``estimator._combine`` (terms and C), ``estimator._diagnostics``
(completeness residual and least kept probability) and
``estimator._residuals`` reach numpy through ufuncs and their methods
only; together they must give bit for bit what their bodies through
numpy's Python wrappers and ``np.einsum`` gave
(``oracles.combine_by_wrappers`` and
``oracles.residuals_by_concatenation``) on every shape the package hands
them: a stacked no-copies block with the limit row, an analytic stack of
one, the flat copies lines, tables with skipped rows, and a stack row
whose every row is skipped.  On that last row alone the least kept
probability differs: ``_diagnostics`` reads inf and ``_report`` turns it
into 0.0, the value the wrappers gave.
"""

import numpy as np
import pytest

from oracles import combine_by_wrappers, residuals_by_concatenation

from weakcorr import PointerConfig, convey, ghz, hadamard_mub, ket2dm, random_density_matrix
from weakcorr.estimator import (
    WeakValueTable,
    _analytic_lines,
    _combine,
    _diagnostics,
    _diagonal_lines,
    _direct_lines,
    _report,
    _residuals,
)

CFGS = [PointerConfig(g) for g in (0.2, 0.05, 0.01)]


def assert_same_bytes(got, want):
    for g, w in zip(got, want, strict=True):
        g, w = np.asarray(g), np.asarray(w)
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()


def combined(lines, diag):
    """The terms, C, completeness residual and least kept probability."""
    return (*_combine(lines), *_diagnostics(lines, diag))


def states(n):
    """A seeded random state and GHZ, whose odd-parity rows are skipped."""
    yield random_density_matrix((2,) * n, 2_300 + n)
    yield ket2dm(ghz(n))


def conveyed(rho, mode):
    return convey(rho, [0] * (len(rho.dims) - 1), mode).state


@pytest.mark.parametrize("mode", ["idealized", "literal"])
@pytest.mark.parametrize("n", range(2, 9))
def test_no_copies_block_with_the_limit_row(n, mode):
    basis = hadamard_mub(n)
    for rho in states(n):
        state = conveyed(rho, mode)
        block = _direct_lines(state.matrix, basis.matrix, rho.dims, [None, *CFGS])
        limit, lines = block.row(slice(1)), block.row(slice(1, None))
        diag = state.diagonal()
        assert_same_bytes(combined(lines, diag), combine_by_wrappers(lines, diag))
        assert_same_bytes([_residuals(lines, limit)], [residuals_by_concatenation(lines, limit)])


@pytest.mark.parametrize("mode", ["idealized", "literal"])
@pytest.mark.parametrize("n", range(2, 9))
def test_analytic_stack_of_one(n, mode):
    basis = hadamard_mub(n)
    for rho in states(n):
        state = conveyed(rho, mode)
        lines = _analytic_lines(state, basis)
        diag = state.diagonal()
        assert_same_bytes(combined(lines, diag), combine_by_wrappers(lines, diag))


@pytest.mark.parametrize("mu", [0, 1])
@pytest.mark.parametrize("n", range(2, 9))
def test_flat_copies_lines(n, mu):
    basis = hadamard_mub(n)
    for rho in states(n):
        diag = conveyed(rho, "literal").diagonal()
        lines = _diagonal_lines(basis._squared_moduli, diag, rho.dims, mu)
        assert lines.probabilities.ndim == 1
        assert_same_bytes(combined(lines, diag), combine_by_wrappers(lines, diag))


def test_ghz_tables_skip_rows():
    """The skipped-row cases above do skip rows."""
    rho = ket2dm(ghz(3))
    lines = _analytic_lines(rho, hadamard_mub(3))
    assert 0 < np.count_nonzero(lines.probabilities < 1e-14) < 8


@pytest.mark.parametrize("n", range(2, 9))
def test_a_stack_row_with_every_row_skipped(n):
    """Row 1 of the stack is all zero, every postselection skipped: its
    least kept probability is inf, its residual and its C are 0.0, and a
    report on it reads C and the least kept probability as 0.0."""
    rho = random_density_matrix((2,) * n, 2_400 + n)
    basis = hadamard_mub(n)
    real = _direct_lines(rho.matrix, basis.matrix, rho.dims, [None, CFGS[0]])
    limit = real.row(slice(1))
    arrays = (real.probabilities, real.joint, real.stack)
    stacked = [np.stack([a[1], np.zeros_like(a[1])]) for a in arrays]
    lines = WeakValueTable(*stacked, real.dims)
    diag = rho.diagonal()
    got = combined(lines, diag)
    want = combine_by_wrappers(lines, diag)
    assert_same_bytes(got[:3], want[:3])
    terms, totals, _, least = got
    assert_same_bytes([least[0]], [want[3][0]])
    assert least[1] == np.inf and least[0] > 0.0
    assert totals[1] == 0.0 and not terms[1].any()
    report = _report(
        lines.row(1),
        diag,
        CFGS[0],
        basis.labels,
        rho,
        backend="circuit",
        mode="idealized",
        outcomes=(0,) * (n - 1),
        broadcast_outcome=0,
        skip_broadcast=True,
    )
    assert report.min_postselection_probability == 0.0 and report.C == 0.0
    residuals = _residuals(lines, limit)
    assert_same_bytes([residuals], [residuals_by_concatenation(lines, limit)])
    assert residuals[1] == 0.0
