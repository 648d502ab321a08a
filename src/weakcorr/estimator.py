"""Weak values, matrix-element reconstruction, and the correlation functional.

The correlation of an n-party state is evaluated as

    C = sum_k P_k sum_i | W_joint[k, i] - prod_p W_p[k, x_p(i)] |

where k runs over the postselection basis, i over the device columns and
x_p(i) is party p's digit of column i; W_joint (line 1) and the party lines
W_p are weak values of the device-table projectors.  Two backends give them:

* ``"analytic"`` evaluates the postselected weak-value formula
  tr(|b><b| A rho) / tr(|b><b| rho) in closed form.  With B the
  postselection vectors stacked as rows, line 1 on the conveyed state is
  conj(B) * (B rho^T) / P, P being the row sums of the numerator (the
  postselection probabilities).  Line p + 2 comes from party p's marginal
  m_p and the stacked single-party factors F_p of the postselection
  vectors (``BasisSet.factors``: carried by the builtin basis, factored
  once per basis read from a file): conj(F_p) * (F_p m_p^T), divided by
  its row sums, gives the weak value of each digit.  Every party's line
  is computed at once: one flat-index gather reads all n marginals (its
  index is built once per n), and one numerator and one row scaling, by
  the reciprocal row sums as for line 1, run on the (n, K, 2) stack; one
  transposed copy lays it out as the (2n, K) party-line stack below.  A
  column reads party p's line at its digit x_p.
* ``"circuit"`` returns what the pointers read at the configured coupling
  strength, in closed form: the readout is the zero-coupling limit below
  on the damped state rho * Lambda_g (see ``weakcorr.pointer``).

``correlation_sweep`` reads one state at many coupling strengths, doing
once what does not depend on g.  Every table builder returns a
``WeakValueTable``, a sweep block holds one, and a report holds its
builder's table or a row view of it.  Every report, of either backend
and layout and of each sweep row, is built by one constructor
(``_report``) from one state's table: ``_combine`` turns it into the
terms and C, ``_diagnostics`` into the completeness residual and the
least kept probability.  Without copies the table builders take a
leading stack axis, and one block body (``_direct_lines``) reads the
damped states of a stack of couplings: ``correlation`` runs it once, on
a stack of one coupling, and a sweep once per block of couplings.  A
no-copies sweep (``_sweep``) yields blocks, not reports: each holds its
couplings and table, reads C from it, and with ``residuals`` holds the
distance of each coupling's table from the zero-coupling limit (the
block size and the limit row are set out at ``_BLOCK_ELEMENTS`` and
``_sweep``).  ``correlation_sweep`` turns each row of a block into a
report; ``weakcorr sweep`` reads C and the residuals from the blocks and
builds no report.  The analytic backend and ``weak_value_limits`` read a
stack of one undamped state.  With copies nothing depends on g, and the
table comes flat, with no stack axis, from the conveyed diagonal, which
is conveyed without building any (d, d) matrix: the sweep's first report
is ``correlation``'s, and the others differ from it in g and sigma only.

The circuit backend's zero-coupling limit (``weak_value_limits``) is one
formula for both device layouts: line 1 as above, on the dephased state
when copies are attached, and party lines that sum line 1 over the other
parties' digits, relabelled by a digit map: the digit x_p itself without
copies and (mu - x_p) mod d_p with them.  Every party line of a stack
comes from one matmul by a 0/1 selector S of shape (d, sum d_p), whose
columns hold each party's digit map; S is built once per dims, layout
and broadcast outcome.  The product is S^T times line 1 transposed, so
it comes out as the party-line stack below.

Every table builder hands over its party lines as one stack of shape
(..., sum d_p, K), the postselections innermost, and the combination
step and the sweep residual read that stack itself: the row-wise outer
product (``_party_product``) multiplies each party's d_p rows along
contiguous runs of K postselections, where lines laid out (K, d_p)
would make one party's d_p digits numpy's innermost loop, about 4,000
loops of two elements at n = 6.  Each party's (..., K, d_p) line, the
transposed view of its rows, is made only when read
(``WeakValueTable.parties``).  The marginal gather reads the flattened
matrix by one flat index, not by a (row, column) pair of index arrays.
Each kernel gives bit for bit what its earlier form gave
(``tests/oracles.py``, ``ROW_KERNELS``).

Matrix elements are read back from the same line-1 numerator
(``reconstruct_matrix``): with beta_kx = <b_k|a_x>, the weak-value
tomography identity rho_ij = sum_k (beta_kj / beta_ki) P_k W_ki becomes
(N / beta)^T @ beta for the numerator N in the a frame, one O(d^3)
expression for the whole matrix.

A postselection with probability P_k < SKIP_THRESHOLD (1e-14, defined in
``weakcorr.qcore``) contributes zero by convention (the P_k prefactor
annihilates the undefined weak value) and is reported as skipped; at
P_k = SKIP_THRESHOLD it is computed.  Weak values are generally complex;
the bracket above uses the complex modulus.

Per-call code reaches numpy through ufuncs, their ``reduce`` and
``accumulate`` methods and ndarray attributes only, never through a numpy
function or method that runs Python code first (``np.sum``, ``np.where``,
``np.stack``, the einsum wrapper, and ``ndarray.sum``, ``.max`` or
``.any``, which call into ``numpy._core._methods``).  At the sizes one
call handles at small n such a wrapper's Python frames cost as much as
the C loop it reaches, and a call pays once for each distinct kernel it
runs; the ufunc form runs the same loop on the same axis with the same
operands, so every value is unchanged bit for bit.  The completeness sum
is one broadcast product reduced over k on line 1's float view, (..., K,
2d) reals, against the real P: each real and imaginary part times P_k,
added in k order, as the einsum it replaced added them.  On the complex
line 1 numpy would cast P to complex, and (P a - 0 b) + (P b + 0 a) i
differs from P a and P b at most in the sign of an exact zero, which the
modulus drops.  The trade is a (K, 2d) float temporary: timed warm alone
(best of three, shared 2-core box) the sum took 4.2 against 0.9 ms for
the einsum at n = 10 and 27 against 7.9 ms at n = 11, where a whole call
takes 0.23-0.84 s and its traced peak did not move (225-320 MiB).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, replace
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .bases import BasisSet, device_table, hadamard_mub
from .conveyance import _conveyed_diagonal, convey
from .errors import BadDimension, NullPostselection, ShapeMismatch, UnbiasednessViolation
from .pointer import PointerConfig
from .qcore import SKIP_THRESHOLD, DensityMatrix, PureState, _outcome, as_operator, digit_table

# The most damped-state elements (couplings x d^2) one block of a
# no-copies sweep stacks.  Stacking pays where numpy's per-call cost
# outweighs the arithmetic, at small d; at large d each stacked array is
# as big as the block, so an unbounded stack only multiplies the peak
# memory (an 8-coupling sweep at n = 10 went from 217 to 840 MiB and got
# slower).  2**16 takes every coupling in one block up to n = 4, four per
# block at n = 7 and one from n = 8 on.
_BLOCK_ELEMENTS = 2**16
# The pointer configuration of a ``correlation`` call that names none.
_DEFAULT_POINTER = PointerConfig()

__all__ = [
    "SKIP_THRESHOLD",
    "WeakValueTable",
    "CorrelationReport",
    "weak_value_pure",
    "analytic_weak_value",
    "postselection_probability",
    "reconstruct_matrix",
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
    prob = abs(overlap) ** 2
    if prob < SKIP_THRESHOLD:
        raise NullPostselection(f"postselection probability {prob:.3e}")
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
    if prob < SKIP_THRESHOLD:
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


def correlation_oracle_diag(rho: DensityMatrix) -> float:
    """sum_i |rho_ii - prod_parties (marginal diagonal)_i|.

    Twice the computational-basis diagonal distance between the state and
    the product of its marginals; the independent reference value the
    circuit backend is compared against.  A marginal's diagonal is the
    state's diagonal summed over the other parties' digits.
    """
    diag = rho.diagonal()
    cube = diag.reshape(rho.dims)
    marginals = [np.add.reduce(cube, axis=axes) for axes in _other_axes(len(rho.dims))]
    product = functools.reduce(np.multiply.outer, marginals).reshape(-1)
    return float(np.add.reduce(np.abs(diag - product), axis=None))


@functools.lru_cache(maxsize=1)
def _other_axes(n: int) -> tuple[tuple[int, ...], ...]:
    """axes[p]: every axis of an n-party array but p's, in order.

    Built once per n and kept for the last n only, like ``_marginal_index``.
    """
    return tuple(tuple(q for q in range(n) if q != p) for p in range(n))


@dataclass(frozen=True)
class WeakValueTable:
    """Weak values of line 1 and of every party line, plus probabilities,
    of one state or of a stack of states along leading axes.

    ``joint`` holds one weak value per (postselection, column).  The party
    lines are one (..., sum d_p, K) ``stack``, the postselections innermost,
    party p's d_p rows from d_0 + ... + d_(p-1) on; ``parties`` views each
    as (..., K, d_p), and a column reads it at its digit x_p.  Skipped rows
    (probability below SKIP_THRESHOLD) are zero.  For a complete
    postselection basis the probabilities sum to one and sum_k P_k
    joint[k, i] = <a_i| rho_eff |a_i>.  Every array, and every array it is
    a view of, is read-only once the table is made.
    """

    probabilities: np.ndarray  # float, shape (..., postselections)
    joint: np.ndarray  # complex, shape (..., postselections, columns)
    stack: np.ndarray  # complex, shape (..., sum d_p, postselections)
    dims: tuple[int, ...]  # the parties' dimensions d_p

    def __post_init__(self):
        # A view of a read-only array is read-only, so a row stops at once.
        for array in (self.probabilities, self.joint, self.stack):
            while isinstance(array, np.ndarray) and array.flags.writeable:
                array.setflags(write=False)
                array = array.base

    @property
    def parties(self) -> tuple[np.ndarray, ...]:
        """Party p's line, shape (..., postselections, d_p), as the
        transposed view of its rows of the stack."""
        lines = self.stack.swapaxes(-1, -2)
        return tuple(lines[..., rows] for rows in _party_rows(self.dims))

    @property
    def skipped(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(~(self.probabilities >= SKIP_THRESHOLD)).tolist())

    @property
    def values(self) -> np.ndarray:
        """One state's dense (lines, postselections, columns) table, built on each access."""
        digits = digit_table(self.dims).T
        dense = np.stack([self.joint, *(line[:, x] for line, x in zip(self.parties, digits))])
        dense.setflags(write=False)
        return dense

    def row(self, s: int | slice) -> WeakValueTable:
        """The stack's state s, or the states of the slice s, as views."""
        return WeakValueTable(self.probabilities[s], self.joint[s], self.stack[s], self.dims)


@functools.lru_cache(maxsize=1)
def _party_rows(dims: tuple[int, ...]) -> tuple[slice, ...]:
    """Party p's rows of a party-line stack: d_p rows from d_0 + ... + d_(p-1)
    on.  Built once per dims and kept for the last dims only, like
    ``device_table``."""
    return tuple(slice(s - d_p, s) for s, d_p in zip(itertools.accumulate(dims), dims))


class _OracleDiag:
    """The ``oracle_diag`` field of a report: the value it was given, or,
    when it was given none, ``correlation_oracle_diag(report.rho)``
    computed on the first read and kept on the report.

    A data descriptor as a dataclass field default: the class reads the
    default (None, the value to compute) through ``__get__`` and the
    generated ``__init__`` stores through ``__set__``.  The report is
    frozen, so both write its ``__dict__`` directly.
    """

    def __get__(self, report, owner=None):
        if report is None:
            return None
        cache = report.__dict__
        if "oracle_diag" not in cache:
            cache["oracle_diag"] = correlation_oracle_diag(report.rho)
        return cache["oracle_diag"]

    def __set__(self, report, value):
        if value is not None:
            report.__dict__["oracle_diag"] = value


@dataclass(frozen=True)
class CorrelationReport:
    """Correlation value with the evidence used to compute it.

    ``terms`` holds sum_i |W_joint[k, i] - prod_p W_p[k, x_p(i)]| for each
    postselection k (zero on skipped rows), ``labels`` the postselection
    labels and ``table.probabilities`` the postselection probabilities; the
    rows in ``skipped`` are those below SKIP_THRESHOLD.

    ``rho`` is the input state, not the conveyed one.  ``oracle_diag`` is
    ``correlation_oracle_diag(rho)``, the density-matrix reference the
    circuit backend is checked against; the protocol never reads it to
    obtain C.  A report built without it computes it from ``rho`` when the
    field is first read (``dataclasses.replace`` reads it too) and keeps
    it.  Two threads reading it first at once may both compute it; each
    stores the same float, so every read sees one value.
    """

    C: float
    backend: str
    mode: str
    g: float
    sigma: float
    outcomes: tuple[int, ...]
    broadcast_outcome: int
    skip_broadcast: bool
    table: WeakValueTable
    terms: np.ndarray  # float, shape (postselections,)
    labels: tuple[str, ...]
    max_completeness_residual: float
    min_postselection_probability: float
    rho: DensityMatrix = field(repr=False)
    oracle_diag: float = _OracleDiag()

    def __post_init__(self):
        self.terms.setflags(write=False)

    @property
    def skipped(self) -> tuple[int, ...]:
        return self.table.skipped


class _Block(NamedTuple):
    """Couplings read together: their stacked table, one row per coupling,
    and each table's residual against the zero-coupling limit, or None
    when the sweep reads no limit."""

    cfgs: tuple[PointerConfig, ...]
    lines: WeakValueTable
    residuals: np.ndarray | None  # float, shape (couplings,)

    @property
    def totals(self) -> np.ndarray:
        """C of each coupling, shape (couplings,)."""
        return _combine(self.lines)[1]


class _Sweep(NamedTuple):
    """A no-copies sweep: what does not depend on g, computed when it is
    set up, and its blocks, each computed when the iterator reaches it."""

    labels: tuple[str, ...]
    outcomes: tuple[int, ...]
    broadcast_outcome: int
    state: DensityMatrix  # the conveyed state
    oracle_diag: float
    blocks: Iterator[_Block]


def _residuals(lines: WeakValueTable, limit: WeakValueTable) -> np.ndarray:
    """max |W - W_0| of each state of the stack against the one-state
    ``limit``, over line 1 and every party line, on the rows neither skips;
    0.0 where every row is skipped.  One masked max over line 1 and one
    over the party-line stack, whose postselections run along its last axis."""
    kept = (lines.probabilities >= SKIP_THRESHOLD) & (limit.probabilities >= SKIP_THRESHOLD)
    joint = np.maximum.reduce(
        np.abs(lines.joint - limit.joint), axis=(-2, -1), initial=0.0, where=kept[..., None]
    )
    stack = np.maximum.reduce(
        np.abs(lines.stack - limit.stack), axis=(-2, -1), initial=0.0, where=kept[..., None, :]
    )
    return np.maximum(joint, stack)


def _require_qubits(rho: DensityMatrix) -> int:
    if rho.dims.count(2) != len(rho.dims):
        raise BadDimension(f"protocol parties must be qubits, got dims {rho.dims}")
    if len(rho.dims) < 2:
        raise BadDimension("correlation needs at least two parties")
    return len(rho.dims)


def _weak_value_numerator(rho: np.ndarray, basis_matrix: np.ndarray) -> np.ndarray:
    """conj(B) * (B rho^T): entry (k, i) is <b_k|i><i| rho |b_k>, for each stacked rho."""
    return basis_matrix.conj() * (basis_matrix @ rho.swapaxes(-1, -2))


def _line0(num: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Postselection probabilities, kept-row mask and line-0 weak values.

    The probabilities are the row sums of the numerator, taken once; rows
    below SKIP_THRESHOLD are skipped.
    """
    probs = np.add.reduce(num, axis=-1).real
    kept = probs >= SKIP_THRESHOLD
    return probs, kept, _scale_rows(num, probs, kept)


def _scale_rows(num: np.ndarray, sums: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Each kept row of ``num`` scaled by the reciprocal of its sum, the others by zero.

    numpy's complex division by a real multiplies by that reciprocal too,
    so every entry is the quotient bit for bit, up to the sign of an exact
    zero.  ``kept`` masks the trailing row axes of ``sums``; leading axes
    (a stack of parties) share it.
    """
    scale = np.divide(1.0, sums, out=np.zeros(sums.shape), where=kept)
    return num * scale[..., None]


@functools.lru_cache(maxsize=1)
def _marginal_index(n: int) -> np.ndarray:
    """index[r, p, x, y]: the flat index, in a row-major n-qubit state matrix,
    of the element at row x and column y of qubit p's 2 x 2 block, the other
    qubits, first most significant, spelling r in both the row and the
    column; shape (2**(n-1), n, 2, 2).

    Built once per n and kept for the last n only, like ``device_table``.
    """
    shift = (n - 1 - np.arange(n))[:, None]  # place value of qubit p
    r = np.arange(2 ** (n - 1))[:, None, None]
    rows = ((r >> shift) << (shift + 1)) | (np.arange(2) << shift) | (r & ((1 << shift) - 1))
    index = (rows[..., :, None] << n) | rows[..., None, :]
    index.setflags(write=False)
    return index


def _marginals(matrix: np.ndarray, n: int) -> np.ndarray:
    """Every single-qubit marginal of an n-qubit state matrix, shape (n, 2, 2).

    One gather of the flattened matrix picks, for each party, the 2 x 2
    block of each setting r of the other qubits.  A flat index is one
    lookup per element, where a (row, column) pair of index arrays costs
    several times as long (3.4 against 29 us at n = 6, best of three
    timing runs on a shared 2-core box).  Summing over the leading r axis
    adds those blocks one at a time in r order, as ``partial_trace``'s
    einsum does, so each marginal is bitwise ``partial_trace(state, [p])``.
    """
    return np.add.reduce(matrix.reshape(-1)[_marginal_index(n)], axis=0)


def _analytic_lines(state: DensityMatrix, basis_b: BasisSet) -> WeakValueTable:
    """The analytic table of ``state``, as a stack of one."""
    probs, kept, line0 = _line0(_weak_value_numerator(state.matrix[None], basis_b.matrix))
    # Party p's line: weak values of |v><v| on its marginal, postselected on
    # F_p; every party at once, stacked along a leading party axis.  Line
    # 1's kept rows mask them: for a product postselection, row k's party
    # sum <f_p|m_p|f_p> = tr[(|f_p><f_p| x I) rho] >= <b_k|rho|b_k> = P_k.
    # That holds for an exactly positive rho only; a state accepted with
    # eigenvalues down to -SPECTRAL_TOL can keep a row whose party sum is
    # zero or negative, so such a row raises.
    marginals = _marginals(state.matrix, len(state.dims))
    num = _weak_value_numerator(marginals, basis_b._stacked_factors)
    sums = np.add.reduce(num, axis=-1).real
    low = np.minimum.reduce(sums, axis=None, initial=np.inf, where=kept[0])
    if low < SKIP_THRESHOLD:
        raise NullPostselection(f"postselection probability {low:.3e}")
    # One transposed copy lays the (n, K, 2) lines out as the builders'
    # (1, 2n, K) stack, the postselections innermost.
    stack = _scale_rows(num, sums, kept[0]).swapaxes(-1, -2).reshape(1, -1, num.shape[-2])
    return WeakValueTable(probs, line0, stack, state.dims)


@functools.lru_cache(maxsize=1)
def _damping_exponent(dims: tuple[int, ...]) -> np.ndarray:
    """D[i, j], the number of devices whose ket and bra branches shift differently.

    Columns i and j on line 0, and on party p's line the d/d_p columns with
    digit i_p and the d/d_p columns with digit j_p.  Read-only, and built
    once per dims: kept for the last dims only, like ``device_table``.
    """
    table = device_table(dims)
    d = table.n_columns
    differing = 2.0 - 2.0 * np.eye(d)
    for x, d_p in zip(table.party_digits.T, table.dims):
        differing += (2 * d // d_p) * (x[:, None] != x[None, :])
    differing.setflags(write=False)
    return differing


def _damping(exponent: np.ndarray, cfgs: Sequence[PointerConfig | None]) -> np.ndarray:
    """Lambda_g = a_g ** D with a_g = exp(-g^2 / (8 sigma^2)), the pointer
    overlaps, stacked along a leading axis with one entry per configuration;
    each rate is the configuration's ``damping_rate``.

    A configuration of None is the zero-coupling limit: its exponent is
    0.0, so a = 1.0 and its Lambda is exactly 1.  One ``np.exp`` over the
    stacked exponents gives each a_g bitwise as one scalar ``np.exp`` per
    configuration does.
    """
    rates = [0.0 if c is None else -c.damping_rate for c in cfgs]
    return np.exp(rates)[:, None, None] ** exponent


def _prepare(
    rho: DensityMatrix,
    postselection: BasisSet | None,
    outcomes: Sequence[int] | None,
    broadcast_outcome: int,
) -> tuple[BasisSet, tuple[int, ...], int]:
    """Argument checks, postselection basis, conveyance outcomes and the
    broadcast outcome; the callers convey the state, or only its diagonal.

    Every outcome is read by ``qcore._outcome``; the broadcast outcome is
    checked against every party's dimension in every layout, also where it
    is not read, so no report holds an outcome no measurement gives.
    """
    n = _require_qubits(rho)
    basis_b = postselection or hadamard_mub(n)
    if basis_b.dims != rho.dims:
        raise ShapeMismatch("postselection basis does not match the state dims")
    outcomes = tuple(map(_outcome, outcomes if outcomes is not None else [0] * (n - 1)))
    return basis_b, outcomes, _outcome(broadcast_outcome, *rho.dims)


def _party_product(lines: Sequence[np.ndarray]) -> np.ndarray:
    """prod_p W_p[k, x_p(i)], shape (..., d, postselections), from the party
    lines laid out with the postselections innermost, party p's of shape
    (..., d_p, postselections), first party most significant; leading axes
    are carried along.

    Each step multiplies every digit pair along the postselection axis, so
    numpy's innermost loop is K long, not one party's d_p; each party's
    rows of a party-line stack are contiguous (25 against 52 us at n = 6,
    best of three timing runs on a shared 2-core box).  The parties are
    multiplied in the same left-to-right order as on lines laid out (K,
    d_p), so each entry is the same product bit for bit.
    """
    product = lines[0]
    shape = product.shape[:-2] + (-1, product.shape[-1])
    for line in lines[1:]:
        product = (product[..., None, :] * line[..., None, :, :]).reshape(shape)
    return product


def _combine(lines: WeakValueTable) -> tuple[np.ndarray, np.ndarray]:
    """The combination step, on the trailing axes of ``lines``.

    Returns the per-postselection terms and C, each with the leading axes
    of ``lines``: the stacked builders' stack axis, or none.  P_k needs no
    mask: a skipped row is scaled by zero (``_scale_rows``), so its term is
    +0 and adds a zero to the running total, whose bits it leaves as they are.
    """
    probs, joint, stack = lines.probabilities, lines.joint, lines.stack
    # Skipped rows of the table are zero, so their terms are zero too.
    product = _party_product([stack[..., rows, :] for rows in _party_rows(lines.dims)])
    terms = np.add.reduce(np.abs(joint - product.swapaxes(-1, -2)), axis=-1)
    # A running total in row order, so C is bitwise the row-by-row sum.
    weighted = probs * terms
    totals = np.add.accumulate(weighted, axis=-1)[..., -1]
    return terms, totals


def _diagnostics(lines: WeakValueTable, diag_eff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A report's checks of ``lines``, on their trailing axes.

    Returns the completeness residual max_i |sum_k P_k W_joint[k, i] -
    diag_eff[i]| and the least kept probability, each with the leading
    axes of ``lines``.  The least kept probability is inf where every row
    is skipped; ``_report`` reads that as 0.0.  The sum over k runs on line
    1's float view, each real and imaginary part times the real P_k, so P
    is never cast to complex (see the module docstring).
    """
    probs = lines.probabilities
    recombined = np.add.reduce(probs[..., None] * lines.joint.view(float), axis=-2).view(complex)
    residuals = np.maximum.reduce(np.abs(recombined - diag_eff), axis=-1)
    least = np.minimum.reduce(probs, axis=-1, initial=np.inf, where=probs >= SKIP_THRESHOLD)
    return residuals, least


def _report(
    table: WeakValueTable,
    diag_eff: np.ndarray,
    cfg: PointerConfig,
    labels: tuple[str, ...],
    rho: DensityMatrix,
    **settings,
) -> CorrelationReport:
    """The report of one state's ``table``, read at configuration ``cfg``.

    Every report is built here, holding the table it is given: the terms
    and C, and the diagnostics against the effective diagonal
    ``diag_eff``; ``rho`` is the input state.  ``settings`` are the
    remaining report fields, ``oracle_diag`` among them where it is
    already known.
    """
    terms, total = _combine(table)
    residual, least = _diagnostics(table, diag_eff)
    return CorrelationReport(
        C=float(total),
        g=cfg.g,
        sigma=cfg.sigma,
        table=table,
        terms=terms,
        labels=labels,
        max_completeness_residual=float(residual),
        min_postselection_probability=float(least) if least < np.inf else 0.0,
        rho=rho,
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
    when ``skip_broadcast`` is false.  Every outcome passes the package's
    one outcome rule (``qcore._outcome``), the broadcast outcome in every
    layout, including those that do not read it.  With
    ``skip_broadcast`` the single-party devices couple directly to the
    line-1 particles and no copies are made.  The circuit backend reports
    what :func:`correlation_sweep` reports at ``cfg``; without copies it
    runs the sweep's block body once, on a block of this one coupling,
    with no sweep between.  The report's ``oracle_diag`` is not computed
    here: the report computes it from ``rho`` when it is first read (see
    ``CorrelationReport``), so a caller that never reads it never pays
    for it.

    With copies the circuit backend reads the conveyed state's diagonal
    only, at every g.  The device of party p reads its copy, whose digit
    is (mu - x_p) mod 2 for broadcast outcome mu.  With mu = 0 that map is
    the identity on qubits, so with the builtin postselection basis C is
    ``oracle_diag``, twice the diagonal distance between the state and the
    product of its marginals, to rounding, whatever the conveyance
    outcomes.  With mu = 1 the party
    lines read the product of the marginals at flipped digits, so a
    product state does not read zero: C reached 1.96 on seeded random
    product states of 2 to 7 qubits.
    """
    if backend not in ("analytic", "circuit"):
        raise ShapeMismatch(f"unknown backend {backend!r}")
    cfg = cfg or _DEFAULT_POINTER
    basis_b, outcomes, mu = _prepare(rho, postselection, outcomes, broadcast_outcome)
    if backend == "circuit" and not skip_broadcast:
        # The copies table comes flat, with no stack axis, from the diagonal.
        diag_eff = _conveyed_diagonal(rho, outcomes, mode)
        table = _diagonal_lines(basis_b._squared_moduli, diag_eff, rho.dims, mu)
    else:
        state = convey(rho, outcomes, mode).state
        diag_eff = state.matrix.diagonal().real
        if backend == "analytic":
            table = _analytic_lines(state, basis_b).row(0)
        else:
            table = _direct_lines(state.matrix, basis_b.matrix, rho.dims, [cfg]).row(0)
    return _report(
        table,
        diag_eff,
        cfg,
        basis_b.labels,
        rho,
        backend=backend,
        mode=mode,
        outcomes=outcomes,
        broadcast_outcome=mu,
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
    argument checks, the conveyed state (its diagonal only, with copies)
    and, without copies, the oracle value.  With copies nothing depends on
    g, so every report is built then: the first by ``correlation``, which
    runs even for an empty ``cfgs``, and the others as copies of it at
    their g and sigma, which read its oracle value once and carry it.
    Without them the rest is computed when the iterator reaches
    it, one block of couplings at a time (the rule is at ``_sweep``), and
    each report from its row of the block.
    """
    cfgs = tuple(cfgs)
    if not skip_broadcast:
        first = correlation(
            rho,
            "circuit",
            mode,
            cfgs[0] if cfgs else None,
            postselection=postselection,
            outcomes=outcomes,
            broadcast_outcome=broadcast_outcome,
        )
        reports = [first, *(replace(first, g=c.g, sigma=c.sigma) for c in cfgs[1:])]
        return iter(reports[: len(cfgs)])
    sweep = _sweep(
        rho,
        mode,
        cfgs,
        residuals=False,
        postselection=postselection,
        outcomes=outcomes,
        broadcast_outcome=broadcast_outcome,
    )
    settings = dict(
        backend="circuit",
        mode=mode,
        outcomes=sweep.outcomes,
        broadcast_outcome=sweep.broadcast_outcome,
        skip_broadcast=True,
        oracle_diag=sweep.oracle_diag,
    )
    diag_eff = sweep.state.matrix.diagonal().real
    return (
        _report(block.lines.row(s), diag_eff, cfg, sweep.labels, rho, **settings)
        for block in sweep.blocks
        for s, cfg in enumerate(block.cfgs)
    )


def _sweep(
    rho: DensityMatrix,
    mode: str,
    cfgs: tuple[PointerConfig, ...],
    *,
    residuals: bool,
    postselection: BasisSet | None = None,
    outcomes: Sequence[int] | None = None,
    broadcast_outcome: int = 0,
) -> _Sweep:
    """A no-copies sweep over ``cfgs``, read in blocks of couplings.

    The argument checks, the conveyed state and the oracle value are
    computed here; the blocks when the iterator reaches them.  A block
    holds at most max(1, _BLOCK_ELEMENTS // d**2) rows and runs the block
    body ``correlation`` runs on one coupling, ``_direct_lines``: the limit
    formula on the damped states rho * Lambda_g, Lambda_g = a_g ** D
    stacked along a leading coupling axis with a_g = exp(-g^2 / (8
    sigma^2)).  A block reads C by one ``_combine`` on request
    (``_Block.totals``); the diagnostics a report adds are not computed
    here.  One block is held at a time.

    With ``residuals`` a block's residuals are max |W_g - W_0| over line 1
    and every party line, on the rows neither table skips, W_0 being the
    zero-coupling limit (``weak_value_limits`` of the conveyed state);
    otherwise they are None.  The limit is one more row of the coupling
    stack, read first with damping base a = 1, so Lambda = 1 and
    rho * Lambda is rho bit for bit; it counts toward the block size,
    is yielded in no block, and each block's residuals come from two
    masked maxima against it (``_residuals``).
    """
    basis_b, outcomes, mu = _prepare(rho, postselection, outcomes, broadcast_outcome)
    state = convey(rho, outcomes, mode).state

    def blocks() -> Iterator[_Block]:
        size = max(1, _BLOCK_ELEMENTS // state.dim**2)
        # None stands for the zero-coupling limit, the first row read.
        rows = ((None,) if residuals else ()) + cfgs
        limit = None
        for start in range(0, len(rows), size):
            block = rows[start : start + size]
            lines = _direct_lines(state.matrix, basis_b.matrix, rho.dims, block)
            if block[0] is None:
                limit, lines, block = lines.row(slice(1)), lines.row(slice(1, None)), block[1:]
                if not block:  # from n = 8 on the limit has a block to itself
                    continue
            yield _Block(block, lines, _residuals(lines, limit) if residuals else None)

    oracle_diag = correlation_oracle_diag(rho)
    return _Sweep(basis_b.labels, outcomes, mu, state, oracle_diag, blocks())


def weak_value_limits(
    state: DensityMatrix,
    basis_b: BasisSet,
    broadcast_outcome: int = 0,
    skip_broadcast: bool = False,
) -> WeakValueTable:
    """Zero-coupling limit of the circuit backend's weak-value table.

    ``state`` is the conveyed state entering the device matrix.  Both
    layouts share one formula: line 1 is the numerator N divided row-wise
    by its row sums P (the postselection probabilities), and party p's line
    at digit x is the sum of line 1 over the columns whose digit for p is
    m(x), the digit map.  All party lines are read at once, as line 1
    times a 0/1 selector of shape (d, sum d_p): its entry at column i and
    party p's digit x is 1 when m(x) is column i's digit for p.  The
    layout picks N and m:

    * without copies, N = conj(B) * (B rho^T) and m(x) = x: the readings
      tend to the weak values of the device projectors on the full state;
    * with copies, the readout only sees diagonal matrix elements, so N is
      the same formula on the dephased state, |B|^2 * diag(rho), and the
      device of party p reads the copy, whose digit is (mu - x_p) mod d_p
      for broadcast outcome mu; that relabel is its own inverse, so
      m(x) = (mu - x) mod d_p.  On qubits with mu = 0, m is the identity:
      with a builtin (flat |B|^2) basis every row of line 1 is diag(rho),
      party p's line is p's marginal diagonal, and the correlation sum of
      the table is ``correlation_oracle_diag``.  With mu = 1 each party
      line reads its marginal at the flipped digit, so the sum does not
      vanish on a product state.

    This is the g = 0 case (Lambda = 1, so D is not built) of the formula
    that also gives the circuit backend's table at coupling g, on the damped
    state rho * Lambda_g (see ``weakcorr.pointer``): exact at every g with
    copies, where only the diagonal is read and Lambda_g is 1 there, and
    with an O(g^2) bias without them.  A basis on other dims than the
    state's raises ShapeMismatch.  The broadcast outcome passes the
    outcome rule for every party in both layouts, as in ``correlation``.
    ``weakcorr sweep`` reads the same table inside its
    coupling stack without copies (see ``_sweep``), and with them from the
    conveyed diagonal, as ``correlation`` does.
    """
    if basis_b.dims != state.dims:
        raise ShapeMismatch("postselection basis does not match the state dims")
    mu = _outcome(broadcast_outcome, *state.dims)
    if skip_broadcast:
        num = _weak_value_numerator(state.matrix[None], basis_b.matrix)
        return _party_lines(num, state.dims, None).row(0)
    diagonals = state.diagonal()[None]
    return _diagonal_lines(basis_b._squared_moduli, diagonals, state.dims, mu).row(0)


def _direct_lines(
    matrix: np.ndarray,
    basis_matrix: np.ndarray,
    dims: tuple[int, ...],
    cfgs: Sequence[PointerConfig | None],
) -> WeakValueTable:
    """The no-copies lines of the state ``matrix`` at each configuration of
    ``cfgs``, stacked along a leading axis: the limit formula on the damped
    states matrix * Lambda_g, with the postselection vectors stacked as the
    rows of ``basis_matrix``.  A configuration of None reads the limit."""
    damped = matrix * _damping(_damping_exponent(dims), cfgs)
    return _party_lines(_weak_value_numerator(damped, basis_matrix), dims, None)


def _diagonal_lines(
    squared_moduli: np.ndarray, diagonals: np.ndarray, dims: tuple[int, ...], copy_outcome: int
) -> WeakValueTable:
    """The copies layout's lines from state diagonals of shape (..., d): the
    numerator |B|^2 * diag(rho), with |B|^2 given as ``squared_moduli``.

    The product goes into a row-major complex ``out`` whatever the layout
    of |B|^2 (a column-major basis matrix gives a column-major |B|^2), so
    its row sums and the float view ``_diagnostics`` takes of line 1 run
    the same way, and a report does not depend on the basis array's layout.
    """
    out = np.empty(diagonals.shape[:-1] + squared_moduli.shape, complex)
    num = np.multiply(squared_moduli, diagonals[..., None, :], out=out)
    return _party_lines(num, dims, copy_outcome)


def _party_lines(
    num: np.ndarray, dims: tuple[int, ...], copy_outcome: int | None
) -> WeakValueTable:
    """Line 1 and every party line from the line-1 numerator ``num``, shape
    (..., postselections, d): line 1 is ``num`` over its row sums, and the
    party lines are one matmul by ``_party_selector``, S^T times line 1
    transposed, which gives their stack with the postselections innermost
    and the same bits as line 1 times S."""
    selector = _party_selector(dims, copy_outcome)
    probs, _, line0 = _line0(num)
    # Every party line in one matmul, as the (..., sum d_p, K) stack.
    return WeakValueTable(probs, line0, selector.T @ line0.swapaxes(-1, -2), dims)


@functools.lru_cache(maxsize=1)
def _party_selector(dims: tuple[int, ...], copy_outcome: int | None) -> np.ndarray:
    """S[i, o_p + x] = 1 where column i adds into party p's line at digit x.

    Shape (d, sum d_p): party p owns the d_p columns from o_p = d_0 + ... +
    d_(p-1) on, and column i adds into its digit map's preimage of i's
    digit x_p: x_p itself without copies (``copy_outcome`` None) and
    (mu - x_p) mod d_p with them, mu being the broadcast outcome and the
    map its own inverse.  So line 1 times S is every party line at once.
    Complex, so the product is one complex matmul, and read-only; kept for
    the last (dims, outcome) only, like ``device_table``.  The outcome
    passes the outcome rule for every party.
    """
    digits = device_table(dims).party_digits
    if copy_outcome is not None:
        _outcome(copy_outcome, *dims)
        digits = (copy_outcome - digits) % np.array(dims)
    offsets = np.add.accumulate((0,) + dims[:-1])
    selector = np.zeros((len(digits), sum(dims)), dtype=complex)
    selector[np.arange(len(digits))[:, None], digits + offsets] = 1.0
    selector.setflags(write=False)
    return selector
