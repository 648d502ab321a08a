"""Measurement bases and the weak-measurement device table.

Two bases drive the protocol: the computational basis, whose rank-1
projectors are measured weakly, and a mutually unbiased postselection basis
built from tensor products of single-qubit (|0> +- |1>)/sqrt(2) states.
A basis is one checked matrix, one basis vector per row.
The device table arranges the measured projectors in a matrix with one
joint line plus one line per party; the single-party projector in column i
is the factor picked out of the joint projector of the same column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadSize,
    InvariantViolation,
    NonFactorablePostselection,
    ShapeMismatch,
)
from .qcore import PureState, STRUCT_TOL, _dims_tuple, digit_table

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
    the Gram diagonal is the norm check of each vector.
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

    def __len__(self) -> int:
        return len(self.matrix)

    @property
    def vectors(self) -> tuple[PureState, ...]:
        """The rows as one :class:`PureState` each, rebuilt on every access."""
        return tuple(PureState(self.dims, row) for row in self.matrix)


def _labels(dims) -> list[str]:
    sep = "," if any(d > 10 for d in dims) else ""
    return [sep.join(map(str, row)) for row in digit_table(dims).tolist()]


def computational_basis(dims) -> BasisSet:
    """Standard basis, first party most significant, labels "000", "001", ..."""
    dims = tuple(int(d) for d in dims)
    return BasisSet(dims, np.eye(math.prod(dims)), _labels(dims))


def hadamard_mub(n_qubits: int) -> BasisSet:
    """Product basis of (|0> +- |1>)/sqrt(2) factors, one vector per sign word.

    Vector k uses the minus sign on qubit p exactly when bit p of k (first
    qubit = most significant bit) is set, so the amplitude on computational
    label i is (-1)^popcount(k & i) / sqrt(2^n).  Ordering therefore counts
    the sign words in binary.  All vectors are stored normalized.
    """
    if n_qubits < 1:
        raise BadSize(f"need at least one qubit, got {n_qubits}")
    n = int(n_qubits)
    dims = (2,) * n
    scale = 1.0 / math.sqrt(2**n)
    bits = digit_table(dims)
    signs = 1.0 - 2.0 * ((bits @ bits.T) % 2)
    labels = ["".join("+-"[b] for b in row) for row in bits.tolist()]
    return BasisSet(dims, signs * scale, labels)


def is_mutually_unbiased(b1: BasisSet, b2: BasisSet, tol: float = 1e-12) -> bool:
    """True iff every cross overlap satisfies |<u|v>|^2 = 1/d within ``tol``."""
    if b1.dims != b2.dims:
        raise ShapeMismatch(f"dims differ: {b1.dims} vs {b2.dims}")
    d = math.prod(b1.dims)
    overlaps = np.abs(b1.matrix.conj() @ b2.matrix.T) ** 2
    return bool(np.max(np.abs(overlaps - 1.0 / d)) <= tol)


def product_factors(rows: np.ndarray, dims) -> list[np.ndarray]:
    """Single-party tensor factors of every row of a stack of product states.

    ``rows`` has shape (K, prod(dims)); the result holds one (K, dims[p])
    array per party, each row a unit vector.  The cuts are peeled off left
    to right with one batched SVD each.  Factors are unique up to phases;
    the largest-magnitude entry of each factor but the last is rotated to
    be real and nonnegative.  Raises :class:`NonFactorablePostselection`
    when any row is entangled across any cut (second singular value above
    1e-10).
    """
    rest = np.asarray(rows, dtype=complex)
    k = rest.shape[0]
    factors = []
    for d in dims[:-1]:
        u, s, vh = np.linalg.svd(rest.reshape(k, d, -1), full_matrices=False)
        if s.shape[1] > 1 and np.max(s[:, 1]) > 1e-10:
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

    Line 0 holds the joint rank-1 projector of each column; line j >= 1
    holds the projector of party j-1 onto the digit that column assigns to
    it.  The tensor product of lines 1..n reconstructs line 0 column by
    column.
    """

    dims: tuple[int, ...]
    party_digits: np.ndarray  # shape (columns, parties)
    labels: tuple[str, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        digits = np.array(self.party_digits, dtype=int)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "party_digits", digits)
        object.__setattr__(self, "labels", tuple(self.labels))
        if digits.shape != (math.prod(dims), len(dims)):
            raise ShapeMismatch("party digit table does not match dims")
        digits.setflags(write=False)

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    @property
    def n_lines(self) -> int:
        return len(self.dims) + 1

    @property
    def n_columns(self) -> int:
        return self.party_digits.shape[0]

    def scope(self, line: int) -> tuple[int, ...]:
        """Subsystem indices the projector of ``line`` acts on."""
        if line == 0:
            return tuple(range(self.n_parties))
        if 1 <= line < self.n_lines:
            return (line - 1,)
        raise ShapeMismatch(f"line {line} out of range for {self.n_lines} lines")

    def projector(self, line: int, column: int) -> np.ndarray:
        """Dense projector matrix on the subsystems of ``scope(line)``."""
        if not 0 <= column < self.n_columns:
            raise ShapeMismatch(f"column {column} out of range")
        if line == 0:
            d = self.n_columns
            out = np.zeros((d, d), dtype=complex)
            out[column, column] = 1.0
            return out
        party = self.scope(line)[0]
        d = self.dims[party]
        digit = int(self.party_digits[column, party])
        out = np.zeros((d, d), dtype=complex)
        out[digit, digit] = 1.0
        return out

    def shift_digit(self, line: int, column: int) -> int:
        """Digit selected by a single-party line in the given column."""
        party = self.scope(line)[0]
        return int(self.party_digits[column, party])


def device_table(dims) -> DeviceTable:
    """Device table for the given party dimensions, columns in label order."""
    dims = tuple(int(d) for d in dims)
    return DeviceTable(dims, digit_table(dims), tuple(_labels(dims)))
