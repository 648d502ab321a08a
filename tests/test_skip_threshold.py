"""The one null-postselection rule.

A postselection, or a strong-measurement outcome, is null exactly when its
probability P is below ``SKIP_THRESHOLD``: at P = SKIP_THRESHOLD it is
computed on every path, below it the correlation skips the row and the
one-element references raise.  The state diag(p, 1/4, 1/4, 1/2 - p)
postselected on |00> has probability p exactly, with no rounding.
"""

import math

import numpy as np
import pytest

from oracles import analytic_table_loop, projector, staged_circuit_table

from weakcorr import (
    PointerConfig,
    analytic_weak_value,
    computational_basis,
    correlation,
    couple_all,
    device_table,
    ket,
    ket2dm,
    postselect_and_read,
    strong_couple_and_measure,
    weak_value_pure,
)
from weakcorr import conveyance, estimator, pointer, qcore
from weakcorr.errors import ImpossibleOutcome, NullPostselection
from weakcorr.estimator import SKIP_THRESHOLD
from weakcorr.qcore import DensityMatrix, PureState

BASIS = computational_basis((2, 2))
TABLE = device_table((2, 2))
CFG = PointerConfig(0.05)
# Probability of the |00> postselection, in units of SKIP_THRESHOLD.
SCALES = [0.5, 1.0, 1.5]
PATHS = ["analytic", "copies", "no-copies"]


def boundary_state(p):
    return DensityMatrix((2, 2), np.diag([p, 0.25, 0.25, 0.5 - p]).astype(complex))


def reference(rho, path):
    """The per-element table of the path: one ``analytic_weak_value`` per
    entry, or the staged pointer readout."""
    if path == "analytic":
        return analytic_table_loop(rho, BASIS, TABLE)
    return staged_circuit_table(rho, BASIS, TABLE, CFG, skip_broadcast=path == "no-copies")


def test_threshold_is_defined_once():
    for module in (estimator, pointer, conveyance):
        assert module.SKIP_THRESHOLD is qcore.SKIP_THRESHOLD


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("scale", SCALES)
def test_row_is_null_exactly_below_the_threshold(scale, path):
    p = scale * SKIP_THRESHOLD
    rho = boundary_state(p)
    backend = "analytic" if path == "analytic" else "circuit"
    rep = correlation(
        rho, backend, "idealized", CFG, postselection=BASIS, skip_broadcast=path == "no-copies"
    )
    want = reference(rho, path)
    skipped = (0,) if scale < 1 else ()
    assert rep.skipped == want.skipped == skipped
    assert rep.table.probabilities[0] == p
    assert np.max(np.abs(rep.table.values - want.values)) <= 1e-12
    if skipped:
        assert not rep.table.joint[0].any()
    else:
        assert rep.table.joint[0, 0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("scale", SCALES)
def test_one_element_references_follow_the_rule(scale):
    p = scale * SKIP_THRESHOLD
    rho = boundary_state(p)
    b = BASIS.vectors[0]
    bs = couple_all(rho, TABLE)
    # Control 0 is never set, so the target keeps its label: outcome 1 of
    # the target has probability p.
    joint = DensityMatrix((2, 2), np.diag([1 - p, p, 0, 0]).astype(complex))
    # |<fin|0>|^2 is p up to rounding, so the pure form is left out at the
    # threshold itself: no float near 1e-7 squares to exactly 1e-14.
    zero, fin, p0 = ket("0"), PureState((2,), [math.sqrt(p), math.sqrt(1 - p)]), np.diag([1, 0])
    if scale < 1:
        with pytest.raises(NullPostselection):
            analytic_weak_value(rho, projector(TABLE, 0, 0), b)
        with pytest.raises(NullPostselection):
            weak_value_pure(zero, fin, p0)
        with pytest.raises(NullPostselection):
            analytic_weak_value(ket2dm(zero), p0, fin)
        with pytest.raises(NullPostselection):
            postselect_and_read(bs, b, CFG)
        with pytest.raises(ImpossibleOutcome):
            strong_couple_and_measure(joint, control=0, target=1, outcome=1)
        return
    assert analytic_weak_value(rho, projector(TABLE, 0, 0), b) == pytest.approx(1.0, abs=1e-12)
    if scale > 1:
        assert weak_value_pure(zero, fin, p0) == pytest.approx(1.0, abs=1e-12)
        assert analytic_weak_value(ket2dm(zero), p0, fin) == pytest.approx(1.0, abs=1e-12)
    assert postselect_and_read(bs, b, CFG).postselection_probability == p
    record = strong_couple_and_measure(joint, control=0, target=1, outcome=1)
    assert record.probability == p
    np.testing.assert_allclose(record.state.matrix, np.diag([1.0, 0.0]), atol=1e-12)
