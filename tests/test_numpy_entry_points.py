"""The correlation path enters no Python function of numpy.

Per-call code reaches numpy through ufuncs, their methods and ndarray
attributes (the rule is in the ``weakcorr.estimator`` docstring): a
numpy wrapper such as ``np.sum``, ``np.where``, ``np.einsum`` or
``ndarray.max`` runs Python frames that cost as much as its C loop at the
sizes one call handles.  Under ``sys.setprofile``, after one warm-up
round per dims (which fills the per-dims caches), each call below, and
each read of the blocks ``weakcorr sweep`` reads its rows from, must
enter no Python function whose code lies in the numpy package.
"""

import collections
import os
import sys

import numpy as np
import pytest

from weakcorr import PointerConfig, correlation, correlation_sweep, random_density_matrix
from weakcorr.estimator import _sweep

NUMPY_DIR = os.path.dirname(np.__file__) + os.sep
# The numpy Python functions a correlation call may enter: none.
ALLOWED = frozenset()
SWEEP_CFGS = [PointerConfig(g) for g in (0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001)]


def calls(rho):
    """Every path of one state: analytic in both modes, copies at mu = 0
    and 1, the no-copies circuit, a no-copies and a copies sweep; then
    analytic, copies and no copies with conveyance outcomes 1, which
    relabel the state."""
    cfg = PointerConfig(0.05)
    ones = [1] * (len(rho.dims) - 1)
    return {
        "analytic idealized": lambda: correlation(rho, "analytic", "idealized"),
        "analytic literal": lambda: correlation(rho, "analytic", "literal"),
        "copies mu=0": lambda: correlation(rho, "circuit", "literal", cfg, broadcast_outcome=0),
        "copies mu=1": lambda: correlation(rho, "circuit", "literal", cfg, broadcast_outcome=1),
        "no copies": lambda: correlation(rho, "circuit", "idealized", cfg, skip_broadcast=True),
        "no-copies sweep": lambda: list(
            correlation_sweep(rho, "idealized", SWEEP_CFGS, skip_broadcast=True)
        ),
        "copies sweep": lambda: list(correlation_sweep(rho, "literal", SWEEP_CFGS)),
        "analytic relabelled": lambda: correlation(rho, "analytic", "literal", outcomes=ones),
        "copies relabelled": lambda: correlation(
            rho, "circuit", "idealized", cfg, outcomes=ones, broadcast_outcome=1
        ),
        "no copies relabelled": lambda: correlation(
            rho, "circuit", "literal", cfg, outcomes=ones, skip_broadcast=True
        ),
    }


def sweep_rows(rho, outcomes=None):
    """What ``weakcorr sweep`` reads of a no-copies sweep with residuals:
    C and the residual of every coupling, from the blocks' arrays."""
    sweep = _sweep(rho, "idealized", tuple(SWEEP_CFGS), residuals=True, outcomes=outcomes)
    return sweep.oracle_diag, [(b.totals.tolist(), b.residuals.tolist()) for b in sweep.blocks]


def numpy_functions_entered(call) -> collections.Counter:
    """file:function of each numpy Python function ``call`` enters, counted."""
    entered = collections.Counter()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(NUMPY_DIR):
            if code.co_name not in ALLOWED:
                where = os.path.relpath(code.co_filename, NUMPY_DIR)
                entered[f"{where}:{code.co_name}"] += 1

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return entered


@pytest.mark.parametrize("n", range(2, 7))
def test_a_call_enters_no_numpy_wrapper_but_einsum(n):
    rho = random_density_matrix((2,) * n, 2_200 + n)
    paths = calls(rho)
    for call in paths.values():
        call()
    offenders = {}
    for name, call in paths.items():
        entered = numpy_functions_entered(call)
        if entered:
            offenders[name] = ", ".join(f"{f} x{count}" for f, count in sorted(entered.items()))
    assert not offenders, "numpy Python functions entered:\n" + "\n".join(
        f"  {name}: {found}" for name, found in offenders.items()
    )


@pytest.mark.parametrize("n", range(2, 9))
def test_the_sweep_rows_enter_no_numpy_function(n):
    """From n = 8 on the limit row is a block of its own."""
    rho = random_density_matrix((2,) * n, 2_500 + n)
    ones = [1] * (n - 1)
    for outcomes in (None, ones):
        sweep_rows(rho, outcomes)
        entered = numpy_functions_entered(lambda: sweep_rows(rho, outcomes))
        assert not entered, dict(entered)


def test_the_profile_sees_a_numpy_wrapper():
    """The hook itself: np.sum is a Python function in the numpy package."""
    entered = numpy_functions_entered(lambda: np.sum(np.ones(3)))
    assert any(name.endswith(":sum") for name in entered)
