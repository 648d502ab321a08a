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
* ``"circuit"`` returns what the pointers read at the configured coupling
  strength, in closed form: the readout is the zero-coupling limit below
  on the damped state rho * Lambda_g (see ``weakcorr.pointer``).

``correlation_sweep`` reads one state at many coupling strengths.  What
does not depend on g (the argument checks, the device table, the conveyed
state, the oracle value and the exponent D of Lambda_g) is computed once
per sweep; Lambda_g, the table and the combination step once per g.  The
circuit backend of ``correlation`` is its one-g case.

The circuit backend's zero-coupling limit (``weak_value_limits``) is one
formula for both device layouts: line 1 as above, on the dephased state
when copies are attached, and party lines that sum line 1 over the other
parties' digits, gathered to the columns through a digit map, the column's
own digit x_p without copies and (mu - x_p) mod d_p with them.

Matrix elements are read back from the same line-1 numerator
(``reconstruct_matrix``): with beta_kx = <b_k|a_x>, the weak-value
tomography identity rho_ij = sum_k (beta_kj / beta_ki) P_k W_ki becomes
(N / beta)^T @ beta for the numerator N in the a frame, one O(d^3)
expression for the whole matrix.

Postselections with probability below 1e-14 contribute zero by convention
(the P_k prefactor annihilates the undefined weak value) and are reported
as skipped.  Weak values are generally complex; the bracket above uses the
complex modulus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .bases import (
    BasisSet,
    DeviceTable,
    device_table,
    hadamard_mub,
    product_factors,
)
from .conveyance import convey
from .errors import (
    BadDimension,
    ImpossibleOutcome,
    NullPostselection,
    ShapeMismatch,
    UnbiasednessViolation,
)
from .pointer import PointerConfig
from .qcore import DensityMatrix, PureState, as_operator, partial_trace

SKIP_THRESHOLD = 1e-14

__all__ = [
    "SKIP_THRESHOLD",
    "WeakValueTable",
    "CorrelationReport",
    "weak_value_pure",
    "analytic_weak_value",
    "postselection_probability",
    "reconstruct_matrix",
    "reconstruct_element",
    "correlation",
    "correlation_sweep",
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


def reconstruct_matrix(
    rho: DensityMatrix, basis_a: BasisSet, basis_b: BasisSet
) -> np.ndarray:
    """Every <a_i| rho |a_j>, recovered from postselected weak values.

    The identity of the module docstring, with P_k W_ki the line-1
    numerator of the state and the postselection rows in the a frame,
    conj(A) rho A^T and B A^dagger.  Every beta_kx = <b_k|a_x> must be
    nonzero, which a mutually unbiased pair guarantees; the error names the
    first zero found column by column.
    """
    if basis_a.dims != tuple(rho.dims) or basis_b.dims != tuple(rho.dims):
        raise ShapeMismatch("bases must live on the state's subsystems")
    a = basis_a.matrix
    b_in_a = basis_b.matrix @ a.conj().T
    beta = b_in_a.conj()
    zero = np.argwhere(np.abs(beta.T) <= 1e-14)
    if zero.size:
        i, k = zero[0]
        raise UnbiasednessViolation(
            f"<b_{k}|a_{i}> = 0; reconstruction needs unbiased bases"
        )
    num = _weak_value_numerator(a.conj() @ rho.matrix @ a.T, b_in_a)
    return (num / beta).T @ beta


def reconstruct_element(
    i: int, j: int, rho: DensityMatrix, basis_a: BasisSet, basis_b: BasisSet
) -> complex:
    """<a_i| rho |a_j> recovered from postselected weak values.

    Element (i, j) of :func:`reconstruct_matrix`, which checks every
    overlap beta_kx = <b_k|a_x>, not only those of column i.
    """
    return complex(reconstruct_matrix(rho, basis_a, basis_b)[i, j])


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


def _normalise_rows(num: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Each kept row of ``num`` divided by its sum; the other rows zero."""
    sums = np.real(num.sum(axis=1))[kept]
    if sums.size and sums.min() <= 1e-14:
        raise NullPostselection(f"postselection probability {sums.min():.3e}")
    values = np.zeros_like(num)
    values[kept] = num[kept] / sums[:, None]
    return values


def _weak_value_numerator(rho: np.ndarray, basis_matrix: np.ndarray) -> np.ndarray:
    """conj(B) * (B rho^T): entry (k, i) is <b_k|i><i| rho |b_k>."""
    return basis_matrix.conj() * (basis_matrix @ rho.T)


def _line0(num: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Postselection probabilities, kept-row mask and line-0 weak values.

    The probabilities are the row sums of the numerator; rows below
    SKIP_THRESHOLD are skipped and stay zero.
    """
    probs = np.real(num.sum(axis=1))
    kept = probs >= SKIP_THRESHOLD
    return probs, kept, _normalise_rows(num, kept)


def _table(
    probs: np.ndarray,
    kept: np.ndarray,
    line0: np.ndarray,
    per_digit: Sequence[np.ndarray],
    digits: np.ndarray,
) -> WeakValueTable:
    """Assemble line 0 and the party lines, each party's (K, d_p) weak
    values of its digits gathered to the columns through ``digits[:, p]``."""
    values = np.zeros((len(per_digit) + 1,) + line0.shape, dtype=complex)
    values[0] = line0
    for party, lines in enumerate(per_digit):
        np.take(lines, digits[:, party], axis=1, out=values[party + 1])
    return WeakValueTable(values, probs, tuple(np.flatnonzero(~kept).tolist()))


def _analytic_table(
    state: DensityMatrix, basis_b: BasisSet, table: DeviceTable
) -> WeakValueTable:
    basis_matrix = basis_b.matrix
    factors = product_factors(basis_matrix, table.dims)
    probs, kept, line0 = _line0(_weak_value_numerator(state.matrix, basis_matrix))
    # Party line: weak values of |v><v| on the marginal, postselected on the
    # party's factor of each postselection vector.
    per_digit = [
        _normalise_rows(
            _weak_value_numerator(partial_trace(state, [party]).matrix, f), kept
        )
        for party, f in enumerate(factors)
    ]
    return _table(probs, kept, line0, per_digit, table.party_digits)


def _damping_exponent(table: DeviceTable) -> np.ndarray:
    """D[i, j], the number of devices whose ket and bra branches shift differently.

    Columns i and j on line 0, and on party p's line the d/d_p columns with
    digit i_p and the d/d_p columns with digit j_p.
    """
    d = table.n_columns
    differing = 2.0 - 2.0 * np.eye(d)
    for x, d_p in zip(table.party_digits.T, table.dims):
        differing += (2 * d // d_p) * (x[:, None] != x[None, :])
    return differing


def _damping(exponent: np.ndarray, cfg: PointerConfig) -> np.ndarray:
    """Lambda_g = exp(-g^2 / (8 sigma^2)) ** D, the pointer overlaps."""
    g, sigma = cfg.g, cfg.sigma
    return np.exp(-(g * g) / (8.0 * sigma * sigma)) ** exponent


def _prepare(
    rho: DensityMatrix,
    mode: str,
    postselection: BasisSet | None,
    outcomes: Sequence[int] | None,
) -> tuple[BasisSet, DeviceTable, tuple[int, ...], DensityMatrix]:
    """Argument checks, postselection basis, device table, conveyed state."""
    n = _require_qubits(rho)
    basis_b = postselection or hadamard_mub(n)
    if basis_b.dims != rho.dims:
        raise ShapeMismatch("postselection basis does not match the state dims")
    table = device_table(rho.dims)
    outcomes = tuple(int(v) for v in (outcomes if outcomes is not None else [0] * (n - 1)))
    return basis_b, table, outcomes, convey(rho, outcomes, mode).state


def _report(
    wvt: WeakValueTable,
    labels: Sequence[str],
    diag_eff: np.ndarray,
    oracle_diag: float,
    **settings,
) -> CorrelationReport:
    """The combination step: C, its per-postselection terms and diagnostics."""
    probs = wvt.probabilities
    kept = ~np.isin(np.arange(len(labels)), wvt.skipped)
    # Skipped rows of the table are zero, so their terms are zero too.
    terms = np.abs(wvt.values[0] - np.prod(wvt.values[1:], axis=0)).sum(axis=-1)
    # A running total in row order, so C is bitwise the row-by-row sum.
    total = np.cumsum(np.where(kept, probs * terms, 0.0))[-1]
    per_k = map(
        PostselectionTerm,
        range(len(kept)),
        labels,
        probs.tolist(),
        terms.tolist(),
        (~kept).tolist(),
    )
    recombined = np.einsum("k,ki->i", probs, wvt.values[0])
    residual = float(np.max(np.abs(recombined - diag_eff)))
    return CorrelationReport(
        C=float(total),
        table=wvt,
        per_k=tuple(per_k),
        oracle_diag=oracle_diag,
        max_completeness_residual=residual,
        min_postselection_probability=float(probs[kept].min()) if kept.any() else 0.0,
        **settings,
    )


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
) -> CorrelationReport:
    """Correlation of an n-qubit state via postselected weak values.

    ``outcomes`` lists the conveyance measurement results, one per conveyed
    party (zeros by default); ``broadcast_outcome`` is the shared result of
    the three local copy measurements, used only by the circuit backend
    when ``skip_broadcast`` is false.  With ``skip_broadcast`` the single-
    party devices couple directly to the line-1 particles and no copies are
    made.  The circuit backend is the one-configuration case of
    :func:`correlation_sweep`.
    """
    if backend == "circuit":
        return next(
            correlation_sweep(
                rho,
                mode,
                [cfg or PointerConfig()],
                postselection=postselection,
                outcomes=outcomes,
                broadcast_outcome=broadcast_outcome,
                skip_broadcast=skip_broadcast,
            )
        )
    if backend != "analytic":
        raise ShapeMismatch(f"unknown backend {backend!r}")
    cfg = cfg or PointerConfig()
    basis_b, table, outcomes, state = _prepare(rho, mode, postselection, outcomes)
    return _report(
        _analytic_table(state, basis_b, table),
        basis_b.labels,
        state.diagonal(),
        correlation_oracle_diag(rho),
        backend=backend,
        mode=mode,
        g=cfg.g,
        sigma=cfg.sigma,
        outcomes=outcomes,
        broadcast_outcome=int(broadcast_outcome),
        skip_broadcast=bool(skip_broadcast),
    )


def correlation_sweep(
    rho: DensityMatrix,
    mode: str,
    cfgs: Sequence[PointerConfig],
    *,
    postselection: BasisSet | None = None,
    outcomes: Sequence[int] | None = None,
    broadcast_outcome: int = 0,
    skip_broadcast: bool = False,
) -> Iterator[CorrelationReport]:
    """The circuit backend's report at each pointer configuration of ``cfgs``.

    Report i equals ``correlation(rho, "circuit", mode, cfgs[i], ...)``.
    What does not depend on g is computed once, when this is called: the
    argument checks, the conveyed state and its diagonal, the oracle value
    and the damping exponent D.  Each report is built from Lambda_g and the
    limit formula on rho * Lambda_g when the iterator reaches it, so one
    table is held at a time.
    """
    basis_b, table, outcomes, state = _prepare(rho, mode, postselection, outcomes)
    basis_matrix = basis_b.matrix
    mu = int(broadcast_outcome)
    skip = bool(skip_broadcast)
    diag_eff = state.diagonal()
    oracle_diag = correlation_oracle_diag(rho)
    exponent = _damping_exponent(table)

    def report(cfg: PointerConfig) -> CorrelationReport:
        damped = state.matrix * _damping(exponent, cfg)
        return _report(
            _limits_table(damped, basis_matrix, table, mu, skip),
            basis_b.labels,
            diag_eff,
            oracle_diag,
            backend="circuit",
            mode=mode,
            g=cfg.g,
            sigma=cfg.sigma,
            outcomes=outcomes,
            broadcast_outcome=mu,
            skip_broadcast=skip,
        )

    return map(report, cfgs)


def weak_value_limits(
    state: DensityMatrix,
    basis_b: BasisSet,
    table: DeviceTable,
    broadcast_outcome: int = 0,
    skip_broadcast: bool = False,
) -> WeakValueTable:
    """Zero-coupling limit of the circuit backend's weak-value table.

    ``state`` is the conveyed state entering the device matrix.  Both
    layouts share one formula: line 1 is the numerator N divided row-wise
    by its row sums P (the postselection probabilities), and party p's line
    in column i is the sum of line 1 over the columns whose digit for p is
    m(i), the digit map.  The layout picks N and m:

    * without copies, N = conj(B) * (B rho^T) and m(i) is the column's own
      digit x_p: the readings tend to the weak values of the device
      projectors on the full state;
    * with copies, the readout only sees diagonal matrix elements, so N is
      the same formula on the dephased state, |B|^2 * diag(rho), and the
      device of party p reads the copy, whose digit is (mu - x_p) mod d_p
      for broadcast outcome mu; that relabel is its own inverse, so
      m(i) = (mu - x_p) mod d_p.

    This is the g = 0 case (Lambda = 1) of the builder that also gives the
    circuit backend's table at coupling g, on the damped state
    rho * Lambda_g (see ``weakcorr.pointer``): exact at every g with
    copies, where only the diagonal is read and Lambda_g is 1 there, and
    with an O(g^2) bias without them.  With copies, a broadcast outcome
    outside [0, d_p) for any party raises ImpossibleOutcome; without them
    the outcome is ignored.
    """
    return _limits_table(
        state.matrix, basis_b.matrix, table, broadcast_outcome, skip_broadcast
    )


def _limits_table(
    matrix: np.ndarray,
    basis_matrix: np.ndarray,
    table: DeviceTable,
    broadcast_outcome: int,
    skip_broadcast: bool,
) -> WeakValueTable:
    """The limit formula of ``weak_value_limits`` on the state matrix ``matrix``,
    with the postselection vectors stacked as the rows of ``basis_matrix``."""
    if skip_broadcast:
        num = _weak_value_numerator(matrix, basis_matrix)
        digits = table.party_digits
    else:
        bad = [l for l in table.dims if not 0 <= broadcast_outcome < l]
        if bad:
            raise ImpossibleOutcome(
                f"outcome {broadcast_outcome} out of range for dimension {bad[0]}"
            )
        num = (np.abs(basis_matrix) ** 2 * np.real(np.diagonal(matrix))).astype(complex)
        digits = (broadcast_outcome - table.party_digits) % np.array(table.dims)
    probs, kept, line0 = _line0(num)
    per_label = line0.reshape((len(basis_matrix),) + table.dims)
    per_digit = [
        per_label.sum(axis=tuple(1 + p for p in range(table.n_parties) if p != party))
        for party in range(table.n_parties)
    ]
    return _table(probs, kept, line0, per_digit, digits)
