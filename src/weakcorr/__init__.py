"""Simulation of a weak-coupling protocol for measuring multipartite correlations.

The package models the full chain end to end: conveying an unknown state to
one receiver through measured strong couplings, fanning out computational-
basis copies, coupling a matrix of projectors to Gaussian pointers, reading
all pointer shifts under a single postselection, and combining the
extracted weak values into a correlation value that is checked against
density-matrix oracles.
"""

from . import errors
from .bases import (
    BasisSet,
    DeviceTable,
    computational_basis,
    device_table,
    hadamard_mub,
    is_mutually_unbiased,
    party_factors,
)
from .conveyance import (
    ConveyanceRecord,
    bell_state,
    broadcast,
    convey,
    strong_couple_and_measure,
)
from .estimator import (
    CorrelationReport,
    WeakValueTable,
    analytic_weak_value,
    correlation,
    correlation_oracle_diag,
    correlation_sweep,
    postselection_probability,
    reconstruct_matrix,
    weak_value_limits,
    weak_value_pure,
)
from .pointer import (
    BranchState,
    DeviceReadings,
    PointerConfig,
    couple_all,
    extract_weak_value,
    postselect_and_read,
)
from .qcore import (
    DensityMatrix,
    PureState,
    as_operator,
    diagonal_distance,
    ghz,
    ket,
    ket2dm,
    maximally_mixed,
    partial_trace,
    random_density_matrix,
    tensor_product,
    trace_distance,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "BasisSet",
    "DeviceTable",
    "computational_basis",
    "device_table",
    "hadamard_mub",
    "is_mutually_unbiased",
    "party_factors",
    "ConveyanceRecord",
    "bell_state",
    "broadcast",
    "convey",
    "strong_couple_and_measure",
    "CorrelationReport",
    "WeakValueTable",
    "analytic_weak_value",
    "correlation",
    "correlation_oracle_diag",
    "correlation_sweep",
    "postselection_probability",
    "reconstruct_matrix",
    "weak_value_limits",
    "weak_value_pure",
    "BranchState",
    "DeviceReadings",
    "PointerConfig",
    "couple_all",
    "extract_weak_value",
    "postselect_and_read",
    "DensityMatrix",
    "PureState",
    "as_operator",
    "diagonal_distance",
    "ghz",
    "ket",
    "ket2dm",
    "maximally_mixed",
    "partial_trace",
    "random_density_matrix",
    "tensor_product",
    "trace_distance",
]
