"""Dense complex linear algebra and quantum-state primitives.

States live on small tensor-factored Hilbert spaces described by a tuple of
subsystem dimensions.  The first listed subsystem is the slowest (most
significant) index of the flattened vector, so computational labels of qubit
registers read left to right: ``ket("011")`` puts the first qubit in 0 and
the last in 1.

Operators are plain complex numpy arrays.  :class:`PureState` and
:class:`DensityMatrix` wrap arrays with dimension bookkeeping.  Invariants
are checked once, where a value enters the program: the public
constructors check every one.  A stage whose output is a trace- and
positivity-preserving map of a density matrix (a partial trace here, a
conveyance relabel or mask, a broadcast embedding) is handed a value that
was checked already, so its output is built with the private
``DensityMatrix._trusted`` and skips the d x d eigensolve, which would
only confirm what the map guarantees.  The builtin bases of
``weakcorr.bases`` follow the same rule: they are orthonormal by
construction, so they are built once per dims with ``BasisSet._trusted``
and skip the Gram check.  All values are immutable (arrays
are marked read-only) and every function is pure, so instances can be
shared freely between threads and processes.

Structural invariants (norm, trace, Hermiticity) are enforced at 1e-12;
spectral checks use 1e-10 because double-precision eigensolvers lose about
two digits.  A postselection or a strong-measurement outcome is null
exactly when its probability P satisfies P < SKIP_THRESHOLD; every
probability check of the package uses that one rule.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BadSubsystem, ImpossibleOutcome, InvariantViolation, ShapeMismatch

STRUCT_TOL = 1e-12
SPECTRAL_TOL = 1e-10
SKIP_THRESHOLD = 1e-14

__all__ = [
    "STRUCT_TOL",
    "SPECTRAL_TOL",
    "SKIP_THRESHOLD",
    "PureState",
    "DensityMatrix",
    "as_operator",
    "digit_table",
    "tensor_product",
    "partial_trace",
    "trace_distance",
    "diagonal_distance",
    "random_density_matrix",
    "ket",
    "ket2dm",
    "ghz",
    "maximally_mixed",
]


def _integer(value, error: type, what: str) -> int:
    """``value`` as an int, by the one integer rule: 1.7 and 1.0 raise ``error``."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{what} {value!r} is not an integer") from None


def _dims_tuple(dims) -> tuple[int, ...]:
    try:
        out = tuple(map(operator.index, dims))
    except TypeError:
        for d in dims:  # names the offender; the accepted path calls no helper
            _integer(d, ShapeMismatch, "subsystem dimension")
        raise
    if not out:
        raise ShapeMismatch("at least one subsystem is required")
    if min(out) < 1:
        raise ShapeMismatch(f"subsystem dimensions must be positive, got {out}")
    return out


def _outcome(value, *dims: int) -> int:
    """A measurement outcome as an int, in [0, l) for each l in ``dims``.

    The package's one outcome rule: a value that is not an integer raises
    ImpossibleOutcome (:func:`_integer`), and so does one outside the
    range, naming the first dimension it falls outside.
    """
    outcome = _integer(value, ImpossibleOutcome, "outcome")
    for l in dims:
        if not 0 <= outcome < l:
            raise ImpossibleOutcome(f"outcome {outcome} out of range for dimension {l}")
    return outcome


def as_operator(matrix, dim: int | None = None) -> np.ndarray:
    """Coerce ``matrix`` to a square complex array with finite entries."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"operator must be a square matrix, got shape {m.shape}")
    if dim is not None and m.shape[0] != dim:
        raise ShapeMismatch(f"operator has dimension {m.shape[0]}, expected {dim}")
    if not np.all(np.isfinite(m)):
        raise InvariantViolation("operator entries must be finite")
    return m


def digit_table(dims) -> np.ndarray:
    """Mixed-radix digits of every flattened index, shape (prod(dims), len(dims)).

    Row i lists the computational label of each subsystem in basis state i,
    first subsystem most significant.
    """
    dims = _dims_tuple(dims)
    return (np.arange(math.prod(dims))[:, None] // _place_values(dims)) % np.array(dims)


def _place_values(dims: tuple[int, ...]) -> np.ndarray:
    """The weight of each subsystem's digit in the flattened index, first
    subsystem most significant: digits @ place values is the index."""
    return np.multiply.accumulate((1,) + dims[:0:-1])[::-1]


@dataclass(frozen=True)
class PureState:
    """Unit-norm state vector over subsystems ``dims``."""

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        dims = _dims_tuple(self.dims)
        amp = np.array(self.amplitudes, dtype=complex)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amp)
        if amp.shape != (math.prod(dims),):
            raise ShapeMismatch(
                f"amplitude count {amp.shape} does not match dims {dims}"
            )
        if not np.all(np.isfinite(amp)):
            raise InvariantViolation("amplitudes must be finite")
        norm = float(np.sum(np.abs(amp) ** 2))
        if abs(norm - 1.0) > STRUCT_TOL:
            raise InvariantViolation(
                f"squared-amplitude sum is {norm!r}, expected 1 within {STRUCT_TOL}"
            )
        amp.setflags(write=False)

    @classmethod
    def normalized(cls, dims, amplitudes) -> "PureState":
        """Build a state from unnormalized amplitudes."""
        amp = np.asarray(amplitudes, dtype=complex)
        norm = np.linalg.norm(amp)
        if norm < 1e-150:
            raise InvariantViolation("cannot normalize the zero vector")
        return cls(tuple(dims), amp / norm)

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator over ``dims``."""

    dims: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        dims = _dims_tuple(self.dims)
        m = np.array(self.matrix, dtype=complex)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", m)
        d = math.prod(dims)
        if m.shape != (d, d):
            raise ShapeMismatch(f"matrix shape {m.shape} does not match dims {dims}")
        if not np.logical_and.reduce(np.isfinite(m), axis=None):
            raise InvariantViolation("density matrix entries must be finite")
        herm = float(np.maximum.reduce(np.abs(m - m.conj().T), axis=None))
        if herm > STRUCT_TOL:
            raise InvariantViolation(f"hermiticity: max |m - m^dagger| = {herm:.3e}")
        tr = complex(m.trace())
        if abs(tr - 1.0) > STRUCT_TOL:
            raise InvariantViolation(f"unit trace: trace = {tr!r}")
        # m + SPECTRAL_TOL * I has a Cholesky factor when the smallest
        # eigenvalue of m is above -SPECTRAL_TOL (Cholesky is backward
        # stable, its error about d * eps * |m|); it costs a third of the
        # eigensolve, which runs only to decide and word a failure.
        shifted = m.copy()
        shifted.reshape(-1)[:: d + 1] += SPECTRAL_TOL
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            lo = float(np.linalg.eigvalsh(m)[0])
            if lo < -SPECTRAL_TOL:
                raise InvariantViolation(f"positivity: smallest eigenvalue = {lo:.3e}") from None
        m.setflags(write=False)

    @classmethod
    def _trusted(cls, dims: tuple[int, ...], matrix: np.ndarray) -> "DensityMatrix":
        """A density matrix without the checks, for stage outputs only.

        ``matrix`` must be the image of a checked density matrix under a
        map that preserves Hermiticity, trace and positivity; it is marked
        read-only, not copied.
        """
        out = object.__new__(cls)
        object.__setattr__(out, "dims", dims)
        object.__setattr__(out, "matrix", matrix)
        matrix.setflags(write=False)
        return out

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def diagonal(self) -> np.ndarray:
        """Real diagonal in the computational basis."""
        return self.matrix.diagonal().real.copy()


def tensor_product(a, b):
    """Kronecker product of two states of the same kind.

    The first operand supplies the slow (most significant) index; the dims
    of the result are the concatenation of the operand dims.
    """
    if isinstance(a, PureState) and isinstance(b, PureState):
        return PureState(a.dims + b.dims, np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        return DensityMatrix(a.dims + b.dims, np.kron(a.matrix, b.matrix))
    raise ShapeMismatch("operands must be two pure states or two density matrices")


def partial_trace(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Reduced state on the subsystems listed in ``keep``, in that order."""
    n = len(rho.dims)
    keep = [_integer(k, BadSubsystem, "subsystem index") for k in keep]
    if not keep:
        raise BadSubsystem("keep list must not be empty")
    if len(set(keep)) != len(keep):
        raise BadSubsystem(f"keep indices must be distinct, got {keep}")
    for k in keep:
        if k < 0 or k >= n:
            raise BadSubsystem(f"subsystem index {k} out of range for {n} subsystems")
    kept = set(keep)
    t = rho.matrix.reshape(rho.dims + rho.dims)
    # Row axis of subsystem i is labeled i; its column axis reuses label i
    # when traced out (contracting the pair) and gets n+i otherwise.
    row_sub = list(range(n))
    col_sub = [n + i if i in kept else i for i in range(n)]
    out_sub = keep + [n + k for k in keep]
    reduced = np.einsum(t, row_sub + col_sub, out_sub)
    d = math.prod(rho.dims[k] for k in keep)
    return DensityMatrix._trusted(tuple(rho.dims[k] for k in keep), reduced.reshape(d, d))


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the sum of absolute eigenvalues of ``rho - sigma``.

    The difference of two density matrices is Hermitian, so a Hermitian
    eigendecomposition is always applicable.
    """
    if rho.dims != sigma.dims:
        raise ShapeMismatch(f"dims differ: {rho.dims} vs {sigma.dims}")
    eig = np.linalg.eigvalsh(rho.matrix - sigma.matrix)
    return 0.5 * float(np.sum(np.abs(eig)))


def diagonal_distance(rho: DensityMatrix, sigma: DensityMatrix, basis) -> float:
    """Half the l1 distance between the diagonals of two states in ``basis``.

    Equals :func:`trace_distance` exactly when both states are diagonal in
    the given basis, and never exceeds it.  ``basis`` is a ``BasisSet``.
    """
    if rho.dims != sigma.dims:
        raise ShapeMismatch(f"dims differ: {rho.dims} vs {sigma.dims}")
    b = basis.matrix
    if b.shape != rho.matrix.shape:
        raise ShapeMismatch("basis dimension does not match the states")
    diag = np.einsum("ki,ij,kj->k", b.conj(), rho.matrix - sigma.matrix, b)
    return 0.5 * float(np.sum(np.abs(diag.real)))


def random_density_matrix(dims, seed: int) -> DensityMatrix:
    """Full-rank random state, deterministic for a fixed ``seed``.

    Built as G G^dagger / tr(G G^dagger) from a complex Gaussian matrix G.
    """
    dims = _dims_tuple(dims)
    if any(d < 2 for d in dims):
        raise ShapeMismatch("every subsystem must have dimension >= 2")
    d = math.prod(dims)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return DensityMatrix(dims, m / np.trace(m))


def ket(label: str, dims=None) -> PureState:
    """Computational basis state from a digit string such as ``"010"``."""
    if dims is None:
        dims = (2,) * len(label)
    dims = _dims_tuple(dims)
    if len(label) != len(dims):
        raise ShapeMismatch(f"label {label!r} does not match {len(dims)} subsystems")
    index = 0
    for ch, d in zip(label, dims):
        try:
            digit = int(ch)
        except ValueError:
            raise BadSubsystem(f"label character {ch!r} is not a digit") from None
        if digit >= d:
            raise BadSubsystem(f"digit {digit} out of range for dimension {d}")
        index = index * d + digit
    amp = np.zeros(math.prod(dims), dtype=complex)
    amp[index] = 1.0
    return PureState(dims, amp)


def ket2dm(psi: PureState) -> DensityMatrix:
    """Rank-1 projector |psi><psi| as a density matrix."""
    return DensityMatrix(psi.dims, np.outer(psi.amplitudes, psi.amplitudes.conj()))


def ghz(n: int = 3) -> PureState:
    """The n-qubit state (|0...0> + |1...1>)/sqrt(2)."""
    if n < 2:
        raise ShapeMismatch("ghz needs at least two qubits")
    amp = np.zeros(2**n, dtype=complex)
    amp[0] = amp[-1] = 1.0 / math.sqrt(2.0)
    return PureState((2,) * n, amp)


def maximally_mixed(dims) -> DensityMatrix:
    """Identity / dimension on the given subsystems."""
    dims = _dims_tuple(dims)
    d = math.prod(dims)
    return DensityMatrix(dims, np.eye(d, dtype=complex) / d)
