"""Weak values, matrix-element reconstruction, and the correlation functional.

The correlation of an n-party state is evaluated as

    C = sum_k P_k sum_i | W[line 1, k, i] - prod_{j>=2} W[line j, k, i] |

where k runs over the postselection basis, i over the device columns, and
W are weak values of the device-table projectors.  Two backends produce the
weak-value tables:

* ``"analytic"`` evaluates the postselected weak-value formula
  tr(|b><b| A rho) / tr(|b><b| rho) in closed form.  With B the
  postselection vectors stacked as rows, line 1 on the conveyed state is
  conj(B) * (B rho^T) / P, P being the row sums of the numerator (the
  postselection probabilities).  Line p + 2 comes from party p's marginal
  m_p and the stacked single-party factors F_p of the postselection
  vectors: conj(F_p) * (F_p m_p^T), divided by its row sums, gives the weak
  value of each digit, gathered to the columns by the digit table.
* ``"circuit"`` runs the full pipeline (conveyance, broadcast, pointer
  coupling, postselected readout, shift-to-weak-value extraction) at the
  configured coupling strength.

Postselections with probability below 1e-14 contribute zero by convention
(the P_k prefactor annihilates the undefined weak value) and are reported
as skipped.  Weak values are generally complex; the bracket above uses the
complex modulus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bases import (
    BasisSet,
    DeviceTable,
    device_table,
    hadamard_mub,
    product_factors,
)
from .conveyance import broadcast, convey
from .errors import (
    BadDimension,
    NullPostselection,
    ShapeMismatch,
    UnbiasednessViolation,
)
from .pointer import (
    PointerConfig,
    couple_all,
    extract_weak_value,
    postselect_and_read,
)
from .qcore import DensityMatrix, PureState, as_operator, partial_trace

SKIP_THRESHOLD = 1e-14

__all__ = [
    "SKIP_THRESHOLD",
    "WeakValueTable",
    "CorrelationReport",
    "weak_value_pure",
    "analytic_weak_value",
    "postselection_probability",
    "reconstruct_element",
    "correlation",
    "correlation_oracle_diag",
    "weak_value_limits",
]


def weak_value_pure(psi_in: PureState, psi_fin: PureState, operator) -> complex:
    """<psi_fin| A |psi_in> / <psi_fin|psi_in> for pure pre/post states."""
    if psi_in.dim != psi_fin.dim:
        raise ShapeMismatch(
            f"state dimensions differ: {psi_in.dim} vs {psi_fin.dim}"
        )
    a = as_operator(operator, psi_in.dim)
    overlap = complex(psi_fin.amplitudes.conj() @ psi_in.amplitudes)
    if abs(overlap) <= 1e-14:
        raise NullPostselection(f"|<fin|in>| = {abs(overlap):.3e}")
    return complex(psi_fin.amplitudes.conj() @ a @ psi_in.amplitudes) / overlap


def postselection_probability(rho: DensityMatrix, b: PureState) -> float:
    """tr(|b><b| rho), the chance of postselecting ``b`` on ``rho``."""
    if b.dim != rho.dim:
        raise ShapeMismatch(f"state dimension {rho.dim} != postselection {b.dim}")
    return float(np.real(b.amplitudes.conj() @ rho.matrix @ b.amplitudes))


def analytic_weak_value(rho: DensityMatrix, projector, b: PureState) -> complex:
    """tr(|b><b| A rho) / tr(|b><b| rho) for a mixed pre-state."""
    a = as_operator(projector, rho.dim)
    prob = postselection_probability(rho, b)
    if prob <= 1e-14:
        raise NullPostselection(f"postselection probability {prob:.3e}")
    num = complex(b.amplitudes.conj() @ a @ rho.matrix @ b.amplitudes)
    return num / prob


def reconstruct_element(
    i: int, j: int, rho: DensityMatrix, basis_a: BasisSet, basis_b: BasisSet
) -> complex:
    """<a_i| rho |a_j> recovered from postselected weak values.

    Sums P_k (beta_kj / beta_ki) W_ki over the postselection basis, with
    beta_kx = <b_k|a_x> and W_ki the weak value of |a_i><a_i| under
    postselection b_k.  Requires every beta_ki to be nonzero, which a
    mutually unbiased basis pair guarantees.
    """
    if basis_a.dims != tuple(rho.dims) or basis_b.dims != tuple(rho.dims):
        raise ShapeMismatch("bases must live on the state's subsystems")
    a_i = basis_a.vector(i)
    a_j = basis_a.vector(j)
    total = 0.0 + 0.0j
    for k in range(len(basis_b)):
        b = basis_b.vector(k)
        beta_ki = complex(b.conj() @ a_i)
        if abs(beta_ki) <= 1e-14:
            raise UnbiasednessViolation(
                f"<b_{k}|a_{i}> = 0; reconstruction needs unbiased bases"
            )
        beta_kj = complex(b.conj() @ a_j)
        # P_k W_ki = <b|a_i><a_i| rho |b>, finite even when P_k vanishes.
        pk_w = complex(b.conj() @ a_i) * complex(a_i.conj() @ rho.matrix @ b)
        total += (beta_kj / beta_ki) * pk_w
    return total


def correlation_oracle_diag(rho: DensityMatrix) -> float:
    """sum_i |rho_ii - prod_parties (marginal diagonal)_i|.

    Twice the computational-basis diagonal distance between the state and
    the product of its marginals; the independent reference value the
    circuit backend is compared against.
    """
    diag = rho.diagonal()
    prod = np.ones(1)
    for party in range(len(rho.dims)):
        prod = np.kron(prod, partial_trace(rho, [party]).diagonal())
    return float(np.sum(np.abs(diag - prod)))


@dataclass(frozen=True)
class WeakValueTable:
    """Weak values per (line, postselection, column), plus probabilities.

    Rows belonging to skipped postselections are zero.  For a complete
    postselection basis the probabilities sum to one and the line-1 values
    satisfy sum_k P_k W[0, k, i] = <a_i| rho_eff |a_i> for the state the
    table was built from.
    """

    values: np.ndarray  # complex, shape (lines, postselections, columns)
    probabilities: np.ndarray  # float, shape (postselections,)
    skipped: tuple[int, ...]

    def __post_init__(self):
        self.values.setflags(write=False)
        self.probabilities.setflags(write=False)


@dataclass(frozen=True)
class PostselectionTerm:
    """One postselection's contribution to the correlation sum."""

    k: int
    label: str
    probability: float
    term: float
    skipped: bool


@dataclass(frozen=True)
class CorrelationReport:
    """Correlation value with the evidence used to compute it."""

    C: float
    backend: str
    mode: str
    g: float
    sigma: float
    outcomes: tuple[int, ...]
    broadcast_outcome: int
    skip_broadcast: bool
    table: WeakValueTable
    per_k: tuple[PostselectionTerm, ...]
    oracle_diag: float
    max_completeness_residual: float
    min_postselection_probability: float

    @property
    def skipped(self) -> tuple[int, ...]:
        return self.table.skipped


def _require_qubits(rho: DensityMatrix) -> int:
    if any(d != 2 for d in rho.dims):
        raise BadDimension(f"protocol parties must be qubits, got dims {rho.dims}")
    if len(rho.dims) < 2:
        raise BadDimension("correlation needs at least two parties")
    return len(rho.dims)


def _line0(
    state: DensityMatrix, basis_matrix: np.ndarray, threshold: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Postselection probabilities, kept-row mask and line-0 weak values.

    With B the stacked postselection vectors, the weak value of |i><i| under
    postselection k is conj(B[k, i]) (rho B[k])_i / P_k, so the whole line is
    conj(B) * (B rho^T) divided row-wise by P = its row sums.  Rows with
    P_k below ``threshold`` stay zero.
    """
    num = basis_matrix.conj() * (basis_matrix @ state.matrix.T)
    probs = np.real(num.sum(axis=1))
    kept = probs >= threshold
    _check_postselection(probs[kept])
    values = np.zeros_like(num)
    values[kept] = num[kept] / probs[kept, None]
    return probs, kept, values


def _check_postselection(probs: np.ndarray) -> None:
    if probs.size and probs.min() <= 1e-14:
        raise NullPostselection(f"postselection probability {probs.min():.3e}")


def _analytic_table(
    state: DensityMatrix,
    basis_b: BasisSet,
    table: DeviceTable,
    threshold: float,
) -> WeakValueTable:
    basis_matrix = basis_b.matrix()
    factors = product_factors(basis_matrix, table.dims)
    probs, kept, line0 = _line0(state, basis_matrix, threshold)
    values = np.zeros((table.n_lines,) + line0.shape, dtype=complex)
    values[0] = line0
    for party, f in enumerate(factors):
        # Party line: weak values of |v><v| on the marginal, postselected on
        # the party's factor, gathered to the columns whose digit is v.
        marginal = partial_trace(state, [party]).matrix
        num = f.conj() * (f @ marginal.T)
        pf = np.real(num.sum(axis=1))
        _check_postselection(pf[kept])
        per_digit = np.zeros_like(num)
        per_digit[kept] = num[kept] / pf[kept, None]
        np.take(per_digit, table.party_digits[:, party], axis=1, out=values[party + 1])
    return WeakValueTable(values, probs, tuple(np.flatnonzero(~kept).tolist()))


def _circuit_table(
    state: DensityMatrix,
    basis_b: BasisSet,
    table: DeviceTable,
    cfg: PointerConfig,
    broadcast_outcome: int,
    skip_broadcast: bool,
    threshold: float,
) -> WeakValueTable:
    extended = state
    if not skip_broadcast:
        for party in range(table.n_parties):
            extended = broadcast(extended, party, broadcast_outcome).state
    bs = couple_all(extended, table)
    values = np.zeros((table.n_lines, len(basis_b), table.n_columns), dtype=complex)
    probs = np.zeros(len(basis_b))
    skipped = []
    for k, b in enumerate(basis_b.vectors):
        try:
            readings = postselect_and_read(bs, b, cfg)
        except NullPostselection:
            skipped.append(k)
            continue
        probs[k] = readings.postselection_probability
        if probs[k] < threshold:
            skipped.append(k)
            continue
        values[:, k, :] = extract_weak_value(readings.delta_q, readings.delta_p, cfg)
    return WeakValueTable(values, probs, tuple(skipped))


def correlation(
    rho: DensityMatrix,
    backend: str = "analytic",
    mode: str = "idealized",
    cfg: PointerConfig | None = None,
    *,
    postselection: BasisSet | None = None,
    outcomes: Sequence[int] | None = None,
    broadcast_outcome: int = 0,
    skip_broadcast: bool = False,
    skip_threshold: float = SKIP_THRESHOLD,
) -> CorrelationReport:
    """Correlation of an n-qubit state via postselected weak values.

    ``outcomes`` lists the conveyance measurement results, one per conveyed
    party (zeros by default); ``broadcast_outcome`` is the shared result of
    the three local copy measurements, used only by the circuit backend
    when ``skip_broadcast`` is false.  With ``skip_broadcast`` the single-
    party devices couple directly to the line-1 particles and no copies are
    made.
    """
    n = _require_qubits(rho)
    if backend not in ("analytic", "circuit"):
        raise ShapeMismatch(f"unknown backend {backend!r}")
    cfg = cfg or PointerConfig()
    basis_b = postselection or hadamard_mub(n)
    if basis_b.dims != rho.dims:
        raise ShapeMismatch("postselection basis does not match the state dims")
    table = device_table(rho.dims)
    outcomes = tuple(int(v) for v in (outcomes if outcomes is not None else [0] * (n - 1)))
    conveyed = convey(rho, outcomes, mode)

    if backend == "analytic":
        wvt = _analytic_table(conveyed.state, basis_b, table, skip_threshold)
    else:
        wvt = _circuit_table(
            conveyed.state,
            basis_b,
            table,
            cfg,
            broadcast_outcome,
            skip_broadcast,
            skip_threshold,
        )

    skipped = set(wvt.skipped)
    per_k = []
    total = 0.0
    for k in range(len(basis_b)):
        if k in skipped:
            per_k.append(
                PostselectionTerm(k, basis_b.labels[k], float(wvt.probabilities[k]), 0.0, True)
            )
            continue
        joint = wvt.values[0, k, :]
        parts = np.prod(wvt.values[1:, k, :], axis=0)
        term = float(np.sum(np.abs(joint - parts)))
        total += float(wvt.probabilities[k]) * term
        per_k.append(
            PostselectionTerm(k, basis_b.labels[k], float(wvt.probabilities[k]), term, False)
        )

    diag_eff = conveyed.state.diagonal()
    recombined = np.einsum("k,ki->i", wvt.probabilities, wvt.values[0])
    residual = float(np.max(np.abs(recombined - diag_eff)))
    alive = [float(wvt.probabilities[k]) for k in range(len(basis_b)) if k not in skipped]
    return CorrelationReport(
        C=total,
        backend=backend,
        mode=mode,
        g=cfg.g,
        sigma=cfg.sigma,
        outcomes=outcomes,
        broadcast_outcome=int(broadcast_outcome),
        skip_broadcast=bool(skip_broadcast),
        table=wvt,
        per_k=tuple(per_k),
        oracle_diag=correlation_oracle_diag(rho),
        max_completeness_residual=residual,
        min_postselection_probability=min(alive) if alive else 0.0,
    )


def weak_value_limits(
    state: DensityMatrix,
    basis_b: BasisSet,
    table: DeviceTable,
    broadcast_outcome: int = 0,
    skip_broadcast: bool = False,
    skip_threshold: float = SKIP_THRESHOLD,
) -> WeakValueTable:
    """Zero-coupling limit of the circuit backend's weak-value table.

    With copies attached, the postselected readout only sees diagonal
    matrix elements: line 1 tends to the dephased-state weak values and the
    single-party lines to postselected marginal diagonals (copy digits are
    relabeled by the broadcast outcome).  Without copies the readings tend
    to the analytic weak values of the device projectors on the full state.
    ``state`` is the conveyed state entering the device matrix.

    The readout reaches these limits at the order the pointer damping
    allows (see ``weakcorr.pointer``): exactly at every g with copies, and
    with an O(g^2) bias without them.
    """
    if skip_broadcast:
        probs, kept, line0 = _line0(state, basis_b.matrix(), skip_threshold)
        values = np.zeros((table.n_lines,) + line0.shape, dtype=complex)
        values[0] = line0
        # The lifted |v><v| of a party sums |i><i| over the columns whose
        # digit is v, so its weak value is the matching sum of line 0.
        per_label = line0.reshape((len(basis_b),) + table.dims)
        for party in range(table.n_parties):
            others = tuple(1 + p for p in range(table.n_parties) if p != party)
            per_digit = per_label.sum(axis=others)
            np.take(per_digit, table.party_digits[:, party], axis=1, out=values[party + 1])
        return WeakValueTable(values, probs, tuple(np.flatnonzero(~kept).tolist()))

    values = np.zeros((table.n_lines, len(basis_b), table.n_columns), dtype=complex)
    probs = np.zeros(len(basis_b))
    skipped = []
    diag = state.diagonal()
    for k, b in enumerate(basis_b.vectors):
        weights = diag * np.abs(b.amplitudes) ** 2
        probs[k] = float(weights.sum())
        if probs[k] < skip_threshold:
            skipped.append(k)
            continue
        values[0, k, :] = weights / probs[k]
        for line in range(1, table.n_lines):
            party = line - 1
            copy_digit = (broadcast_outcome - table.party_digits[:, party]) % 2
            for wanted in (0, 1):
                share = weights[copy_digit == wanted].sum() / probs[k]
                cols = table.party_digits[:, party] == wanted
                values[line, k, cols] = share
    return WeakValueTable(values, probs, tuple(skipped))
