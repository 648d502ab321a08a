"""Measurement bases and the weak-measurement device table.

Two bases drive the protocol: the computational basis, whose rank-1
projectors are measured weakly, and a mutually unbiased postselection basis
built from tensor products of single-qubit (|0> +- |1>)/sqrt(2) states.
A basis is one checked matrix, one basis vector per row.
The device table arranges the measured projectors in a matrix with one
joint line plus one line per party; the single-party projector in column i
is the factor picked out of the joint projector of the same column.

The builtin bases and the device table depend on the party dimensions
only, never on a state, so each is built once per dims and shared: every
call with the same dims returns the same frozen object, whose arrays are
read-only.  Each keeps the entry of the last dims only, since every caller
uses one dims per run; a basis entry (16 * 4^n bytes) stays resident until
a call with other dims.  The builtin bases are orthonormal by construction and are
built with the private ``BasisSet._trusted``, which skips the d x d Gram
check; the public constructor, and through it ``cli.load_basis``, checks
every basis that enters from outside.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadSize,
    BadSubsystem,
    InvariantViolation,
    NonFactorablePostselection,
    ShapeMismatch,
)
from .qcore import PureState, SPECTRAL_TOL, STRUCT_TOL, _dims_tuple, _integer, digit_table

__all__ = [
    "BasisSet",
    "DeviceTable",
    "computational_basis",
    "hadamard_mub",
    "is_mutually_unbiased",
    "device_table",
    "party_factors",
    "product_factors",
]


@dataclass(frozen=True)
class BasisSet:
    """Ordered orthonormal basis: one basis vector per row of ``matrix``.

    ``matrix`` is a read-only complex (d, d) array and ``labels`` holds one
    label per row.  Construction checks the shape, the label count, that
    every amplitude is finite and that max |B B^dagger - I| <= STRUCT_TOL;
    the Gram diagonal is the norm check of each vector.  The single-party
    factors of the rows (:attr:`factors`), their stack, which the analytic
    party lines read, and the squared moduli of the amplitudes, which the
    copies layout reads, are computed at most once per instance.
    """

    dims: tuple[int, ...]
    matrix: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        dims = _dims_tuple(self.dims)
        matrix = np.array(self.matrix, dtype=complex)
        labels = tuple(str(x) for x in self.labels)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "labels", labels)
        d = math.prod(dims)
        if matrix.shape != (d, d):
            raise InvariantViolation(f"basis matrix has shape {matrix.shape}, expected {(d, d)}")
        if len(labels) != d:
            raise InvariantViolation("one label per basis vector is required")
        # Explicit: a NaN would pass the Gram test below, as NaN > tol is False.
        if not np.all(np.isfinite(matrix)):
            raise InvariantViolation("amplitudes must be finite")
        gram = matrix @ matrix.conj().T
        dev = float(np.max(np.abs(gram - np.eye(d))))
        if dev > STRUCT_TOL:
            raise InvariantViolation(f"orthonormality: max |gram - I| = {dev:.3e}")
        matrix.setflags(write=False)

    @classmethod
    def _trusted(
        cls, dims: tuple[int, ...], matrix: np.ndarray, labels: tuple[str, ...]
    ) -> "BasisSet":
        """A basis without the checks, for the builtin bases only.

        ``matrix`` must be a complex (d, d) array with orthonormal rows by
        construction and ``labels`` a tuple of d strings; the matrix is
        marked read-only, not copied.
        """
        out = object.__new__(cls)
        object.__setattr__(out, "dims", dims)
        object.__setattr__(out, "matrix", matrix)
        object.__setattr__(out, "labels", labels)
        matrix.setflags(write=False)
        return out

    def __len__(self) -> int:
        return len(self.matrix)

    @property
    def vectors(self) -> tuple[PureState, ...]:
        """The rows as one :class:`PureState` each, rebuilt on every access."""
        return tuple(PureState(self.dims, row) for row in self.matrix)

    @functools.cached_property
    def factors(self) -> tuple[np.ndarray, ...]:
        """Single-party factors of every row: one read-only (d, d_p) array per party.

        :func:`product_factors` of the matrix, run on first access, so a
        basis that is not a product basis raises
        :class:`NonFactorablePostselection` there.
        """
        return _read_only(product_factors(self.matrix, self.dims))

    @functools.cached_property
    def _stacked_factors(self) -> np.ndarray:
        """:attr:`factors` stacked along a leading party axis: a read-only
        (n, d, d_p) array for parties of one dimension d_p, computed on first
        access."""
        stacked = np.stack(self.factors)
        stacked.setflags(write=False)
        return stacked

    @functools.cached_property
    def _squared_moduli(self) -> np.ndarray:
        """|B|^2, each row's computational-basis probabilities: a read-only
        real (d, d) array, computed on first access."""
        moduli = np.abs(self.matrix) ** 2
        moduli.setflags(write=False)
        return moduli


def _read_only(arrays) -> tuple[np.ndarray, ...]:
    arrays = tuple(arrays)
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _labels(dims) -> tuple[str, ...]:
    sep = "," if any(d > 10 for d in dims) else ""
    return tuple(sep.join(map(str, row)) for row in digit_table(dims).tolist())


def computational_basis(dims) -> BasisSet:
    """Standard basis, first party most significant, labels "000", "001", ...

    Kept for the last dims only; the entry holds the 16 d^2 byte identity
    matrix, 16 * 4^n bytes for n qubits, until a call with other dims.
    """
    return _computational_basis(_dims_tuple(dims))


@functools.lru_cache(maxsize=1)
def _computational_basis(dims: tuple[int, ...]) -> BasisSet:
    d = math.prod(dims)
    return BasisSet._trusted(dims, np.eye(d, dtype=complex), _labels(dims))


@functools.lru_cache(maxsize=1, typed=True)  # 2.0 never hits the entry of np.int64(2)
def hadamard_mub(n_qubits: int) -> BasisSet:
    """Product basis of (|0> +- |1>)/sqrt(2) factors, one vector per sign word.

    Vector k uses the minus sign on qubit p exactly when bit p of k (first
    qubit = most significant bit) is set, so the amplitude on computational
    label i is (-1)^popcount(k & i) / sqrt(2^n).  Ordering therefore counts
    the sign words in binary.  All vectors are stored normalized.  The
    factors are known, so the basis carries them: factor p of vector k is
    (1, (-1)^bit_p(k))/sqrt(2), and :func:`product_factors` never runs.

    Kept for the last n only; the entry holds the 16 * 4^n byte matrix,
    32 n 2^n bytes of factors and, once the copies layout has read them,
    8 * 4^n bytes of squared moduli, until a call with another n.
    """
    n = _integer(n_qubits, BadSize, "qubit count")
    if n < 1:
        raise BadSize(f"need at least one qubit, got {n}")
    dims = (2,) * n
    scale = 1.0 / math.sqrt(2**n)
    bits = digit_table(dims)
    signs = 1.0 - 2.0 * ((bits @ bits.T) % 2)
    labels = tuple("".join("+-"[b] for b in row) for row in bits.tolist())
    basis = BasisSet._trusted(dims, (signs * scale).astype(complex), labels)
    factors = np.ones((n, len(bits), 2), dtype=complex)
    factors[:, :, 1] = 1.0 - 2.0 * bits.T
    factors /= math.sqrt(2.0)
    factors.setflags(write=False)
    # Seeds the caches of BasisSet.factors, with one (K, 2) view per qubit,
    # and of their stack.
    vars(basis)["factors"] = tuple(factors)
    vars(basis)["_stacked_factors"] = factors
    return basis


def is_mutually_unbiased(b1: BasisSet, b2: BasisSet) -> bool:
    """True iff every cross overlap satisfies |<u|v>|^2 = 1/d within STRUCT_TOL."""
    if b1.dims != b2.dims:
        raise ShapeMismatch(f"dims differ: {b1.dims} vs {b2.dims}")
    d = math.prod(b1.dims)
    overlaps = np.abs(b1.matrix.conj() @ b2.matrix.T) ** 2
    return bool(np.max(np.abs(overlaps - 1.0 / d)) <= STRUCT_TOL)


def product_factors(rows: np.ndarray, dims) -> list[np.ndarray]:
    """Single-party tensor factors of every row of a stack of product states.

    ``rows`` has shape (K, prod(dims)); the result holds one (K, dims[p])
    array per party, each row a unit vector.  The cuts are peeled off left
    to right with one batched SVD each.  Factors are unique up to phases;
    the largest-magnitude entry of each factor but the last is rotated to
    be real and nonnegative.  Raises :class:`NonFactorablePostselection`
    when any row is entangled across any cut (second singular value above
    SPECTRAL_TOL).
    """
    rest = np.asarray(rows, dtype=complex)
    k = rest.shape[0]
    factors = []
    for d in dims[:-1]:
        u, s, vh = np.linalg.svd(rest.reshape(k, d, -1), full_matrices=False)
        if s.shape[1] > 1 and np.max(s[:, 1]) > SPECTRAL_TOL:
            raise NonFactorablePostselection(
                "state is entangled across a cut "
                f"(residual singular value {np.max(s[:, 1]):.3e})"
            )
        head = u[:, :, 0]
        pivot = head[np.arange(k), np.argmax(np.abs(head), axis=1)]
        phase = pivot / np.abs(pivot)
        factors.append(head / phase[:, None])
        rest = vh[:, 0, :] * (phase * s[:, 0])[:, None]
    factors.append(rest / np.linalg.norm(rest, axis=1)[:, None])
    return factors


def party_factors(state: PureState) -> tuple[PureState, ...]:
    """Single-party tensor factors of a product state, one per subsystem.

    The one-row case of :func:`product_factors`, with the same phase
    convention and entanglement check.
    """
    factors = product_factors(state.amplitudes[None, :], state.dims)
    return tuple(PureState((d,), f[0]) for d, f in zip(state.dims, factors))


@dataclass(frozen=True)
class DeviceTable:
    """Matrix layout of the weakly measured projectors.

    Line 0 holds the joint rank-1 projector |i><i| of each column i; line
    j >= 1 holds the projector of party j-1 onto the digit that column
    assigns to it, ``party_digits[i, j-1]``.  The tensor product of lines
    1..n reconstructs line 0 column by column.  After the shape, each digit
    is read by the integer rule (``qcore._integer``) and checked in [0, d_p).
    """

    dims: tuple[int, ...]
    party_digits: np.ndarray  # shape (columns, parties)
    labels: tuple[str, ...]

    def __post_init__(self):
        dims = _dims_tuple(self.dims)
        digits = np.array(self.party_digits)
        if digits.shape != (math.prod(dims), len(dims)):
            raise ShapeMismatch("party digit table does not match dims")
        if digits.dtype.kind not in "iu":
            for value in digits.reshape(-1).tolist():
                _integer(value, BadSubsystem, "party digit")
        outside = np.argwhere((digits < 0) | (digits >= np.array(dims)))
        if outside.size:
            i, p = outside[0]
            raise BadSubsystem(f"digit {digits[i, p]} out of range for dimension {dims[p]}")
        digits = digits.astype(int, copy=False)
        digits.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "party_digits", digits)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    @property
    def n_lines(self) -> int:
        return len(self.dims) + 1

    @property
    def n_columns(self) -> int:
        return self.party_digits.shape[0]


def device_table(dims) -> DeviceTable:
    """Device table for the given party dimensions, columns in label order.

    Kept for the last dims only; the entry holds the 8 d n byte digit table
    and d labels.
    """
    return _device_table(_dims_tuple(dims))


@functools.lru_cache(maxsize=1)
def _device_table(dims: tuple[int, ...]) -> DeviceTable:
    return DeviceTable(dims, digit_table(dims), _labels(dims))
