"""Weak-value tables are read-only, down to the arrays they are views of.

Every array a table holds (``probabilities``, ``joint``, the party-line
``stack``) and every per-party view of it refuses a write, and so does
each array along its chain of ``.base`` arrays: a table made as a row
view of a stacked builder's table shares the builder's arrays, and
``probabilities`` is the real view of the complex row sums.  Checked on
every table the package hands out: each backend and layout's report, a
no-copies sweep block and its rows, and ``weak_value_limits``.
"""

import numpy as np
import pytest

from weakcorr import (
    PointerConfig,
    convey,
    correlation,
    hadamard_mub,
    random_density_matrix,
    weak_value_limits,
)
from weakcorr.estimator import _sweep

CFGS = (PointerConfig(0.2), PointerConfig(0.05))
NS = range(2, 6)


def base_chain(array):
    """``array`` and each array it is a view of, innermost last."""
    while isinstance(array, np.ndarray):
        yield array
        array = array.base


def assert_read_only(table):
    arrays = [table.probabilities, table.joint, table.stack, *table.parties]
    for array in arrays:
        for a in base_chain(array):
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 99


def state(n):
    return random_density_matrix((2,) * n, 2_700 + n)


REPORTS = [
    pytest.param(dict(backend="analytic"), id="analytic"),
    pytest.param(dict(backend="circuit", broadcast_outcome=0), id="copies-mu0"),
    pytest.param(dict(backend="circuit", broadcast_outcome=1), id="copies-mu1"),
    pytest.param(dict(backend="circuit", skip_broadcast=True), id="no-copies"),
]


@pytest.mark.parametrize("kwargs", REPORTS)
@pytest.mark.parametrize("n", NS)
def test_report_tables_are_read_only(n, kwargs):
    report = correlation(state(n), cfg=CFGS[0], **kwargs)
    assert_read_only(report.table)
    for array in (report.table.values, report.terms):
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 99


@pytest.mark.parametrize("n", NS)
def test_sweep_block_tables_are_read_only(n):
    sweep = _sweep(state(n), "literal", CFGS, residuals=True)
    block = next(sweep.blocks)
    assert_read_only(block.lines)
    for s in range(len(block.cfgs)):
        assert_read_only(block.lines.row(s))


@pytest.mark.parametrize("skip, mu", [(True, 0), (False, 0), (False, 1)])
@pytest.mark.parametrize("n", NS)
def test_limit_tables_are_read_only(n, skip, mu):
    conveyed = convey(state(n), (0,) * (n - 1), "literal").state
    assert_read_only(weak_value_limits(conveyed, hadamard_mub(n), mu, skip))
