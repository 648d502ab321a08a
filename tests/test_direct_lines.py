"""The no-copies circuit readout's one block body, and the limit table.

A single no-copies ``correlation`` call reads its coupling through the
block body the sweep's blocks call (``_direct_lines``), with no sweep and
no generator in between, and must report bit for bit what the sweep's
first report holds.  ``weak_value_limits`` reads the zero-coupling limit
of either layout without building the damping exponent, bit for bit the
dispatcher over both layouts it replaced (``oracles._limits_lines``).
"""

from pathlib import Path

import pytest

from oracles import _limits_lines
from test_analytic_kernel import assert_bitwise_report, outcome_cases, random_product_basis
from test_estimator import random_unitary_basis

from weakcorr import (
    PointerConfig,
    convey,
    correlation,
    correlation_sweep,
    estimator,
    hadamard_mub,
    random_density_matrix,
    weak_value_limits,
)
from weakcorr.cli import load_basis
from weakcorr.errors import ImpossibleOutcome, ShapeMismatch

FIXTURES = Path(__file__).parent / "fixtures"
# (skip_broadcast, broadcast outcome): no copies, then copies with mu = 0 and 1.
LAYOUTS = ((True, 0), (False, 0), (False, 1))


def refuse(*args, **kwargs):
    raise AssertionError("called a function the path must not reach")


@pytest.mark.parametrize("mode", ["idealized", "literal"])
@pytest.mark.parametrize("n", range(2, 9))
def test_no_copies_correlation_is_the_sweep_without_calling_it(n, mode, monkeypatch):
    rho = random_density_matrix((2,) * n, 1_100 + n)
    cfg = PointerConfig(0.05)
    for outcomes in outcome_cases(n):
        kwargs = dict(outcomes=outcomes, broadcast_outcome=1, skip_broadcast=True)
        want = next(correlation_sweep(rho, mode, [cfg], **kwargs))
        with monkeypatch.context() as patch:
            patch.setattr(estimator, "_sweep", refuse)
            patch.setattr(estimator, "correlation_sweep", refuse)
            got = correlation(rho, "circuit", mode, cfg, **kwargs)
        assert_bitwise_report(got, want)
        settings = ("backend", "mode", "g", "sigma", "broadcast_outcome", "skip_broadcast")
        assert [getattr(got, s) for s in settings] == [getattr(want, s) for s in settings]


def limit_cases():
    for n in range(2, 7):
        rho = random_density_matrix((2,) * n, 1_200 + n)
        yield pytest.param(rho, hadamard_mub(n), id=f"builtin-n{n}")
        yield pytest.param(rho, random_product_basis(n, 1_300 + n), id=f"product-n{n}")
    rho = random_density_matrix((2, 2, 2), 1_207)
    file_basis = load_basis(str(FIXTURES / "basis_hadamard3.json"), (2, 2, 2))
    yield pytest.param(rho, file_basis, id="basis_hadamard3")
    for dims in ((3, 2, 3), (2, 3)):
        rho = random_density_matrix(dims, 1_400 + len(dims))
        yield pytest.param(rho, random_unitary_basis(dims, 1_500), id=f"qudit-{dims}")


@pytest.mark.parametrize("rho, basis", limit_cases())
@pytest.mark.parametrize("skip, mu", LAYOUTS)
def test_limits_are_bitwise_the_dispatcher(rho, basis, skip, mu, monkeypatch):
    state = convey(rho, (0,) * (len(rho.dims) - 1), "literal").state
    want = _limits_lines(state.matrix[None], basis.matrix, state.dims, None if skip else mu)
    want = want.row(0)
    # The limit is the undamped table: it builds neither D nor Lambda.
    monkeypatch.setattr(estimator, "_damping_exponent", refuse)
    monkeypatch.setattr(estimator, "_damping", refuse)
    got = weak_value_limits(state, basis, mu, skip)
    arrays = [
        (got.joint, want.joint),
        (got.probabilities, want.probabilities),
        *zip(got.parties, want.parties, strict=True),
    ]
    for a, b in arrays:
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dims, mu", [((2, 2, 2), 2), ((2, 2, 2), -1), ((3, 2, 3), 2)])
def test_limits_reject_what_the_dispatcher_rejects(dims, mu):
    rho = random_density_matrix(dims, 1_600)
    basis = random_unitary_basis(dims, 1_601)
    with pytest.raises(ImpossibleOutcome) as want:
        _limits_lines(rho.matrix[None], basis.matrix, dims, mu)
    message = f"outcome {mu} out of range for dimension 2"
    with pytest.raises(ImpossibleOutcome, match=message) as got:
        weak_value_limits(rho, basis, mu)
    assert str(got.value) == str(want.value)
    # Without copies the outcome is refused with the same message.
    with pytest.raises(ImpossibleOutcome, match=message) as got:
        weak_value_limits(rho, basis, mu, skip_broadcast=True)
    assert str(got.value) == str(want.value)
    # A basis on other dims is rejected before the outcome is read.
    other = hadamard_mub(len(dims) + 1)
    for skip in (True, False):
        with pytest.raises(ShapeMismatch, match="basis does not match the state dims"):
            weak_value_limits(rho, other, mu, skip)
