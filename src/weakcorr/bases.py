"""Measurement bases and the weak-measurement device table.

Two bases drive the protocol: the computational basis, whose rank-1
projectors are measured weakly, and a mutually unbiased postselection basis
built from tensor products of single-qubit (|0> +- |1>)/sqrt(2) states.
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
from .qcore import PureState, STRUCT_TOL, digit_table

__all__ = [
    "BasisSet",
    "DeviceTable",
    "computational_basis",
    "hadamard_mub",
    "is_mutually_unbiased",
    "device_table",
    "party_factors",
]


@dataclass(frozen=True)
class BasisSet:
    """Ordered orthonormal basis with one label per vector."""

    dims: tuple[int, ...]
    vectors: tuple[PureState, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        vectors = tuple(self.vectors)
        labels = tuple(str(x) for x in self.labels)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "labels", labels)
        d = math.prod(dims)
        if len(vectors) != d:
            raise InvariantViolation(f"basis has {len(vectors)} vectors, expected {d}")
        if len(labels) != d:
            raise InvariantViolation("one label per basis vector is required")
        for v in vectors:
            if v.dims != dims:
                raise ShapeMismatch(f"vector dims {v.dims} do not match basis {dims}")
        gram = self.matrix() @ self.matrix().conj().T
        dev = float(np.max(np.abs(gram - np.eye(d))))
        if dev > STRUCT_TOL:
            raise InvariantViolation(f"orthonormality: max |gram - I| = {dev:.3e}")

    def __len__(self) -> int:
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)

    def matrix(self) -> np.ndarray:
        """Stacked amplitudes, one basis vector per row."""
        return np.stack([v.amplitudes for v in self.vectors])

    def vector(self, k: int) -> np.ndarray:
        return self.vectors[k].amplitudes


def _labels(dims) -> list[str]:
    sep = "," if any(d > 10 for d in dims) else ""
    return [sep.join(map(str, row)) for row in digit_table(dims).tolist()]


def computational_basis(dims) -> BasisSet:
    """Standard basis, first party most significant, labels "000", "001", ..."""
    dims = tuple(int(d) for d in dims)
    d = math.prod(dims)
    vectors = tuple(PureState(dims, row) for row in np.eye(d, dtype=complex))
    return BasisSet(dims, vectors, tuple(_labels(dims)))


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
    d = 2**n
    scale = 1.0 / math.sqrt(d)
    cols = np.arange(d)
    vectors = []
    labels = []
    for k in range(d):
        signs = (-1.0) ** np.array(
            [bin(k & i).count("1") for i in cols], dtype=float
        )
        vectors.append(PureState((2,) * n, signs * scale))
        word = format(k, f"0{n}b")
        labels.append("".join("-" if ch == "1" else "+" for ch in word))
    return BasisSet((2,) * n, tuple(vectors), tuple(labels))


def is_mutually_unbiased(b1: BasisSet, b2: BasisSet, tol: float = 1e-12) -> bool:
    """True iff every cross overlap satisfies |<u|v>|^2 = 1/d within ``tol``."""
    if b1.dims != b2.dims:
        raise ShapeMismatch(f"dims differ: {b1.dims} vs {b2.dims}")
    d = math.prod(b1.dims)
    overlaps = np.abs(b1.matrix().conj() @ b2.matrix().T) ** 2
    return bool(np.max(np.abs(overlaps - 1.0 / d)) <= tol)


def party_factors(state: PureState) -> tuple[PureState, ...]:
    """Single-party tensor factors of a product state, one per subsystem.

    Factors are unique up to phases; the leading entry of each factor is
    rotated to be real and nonnegative.  Raises
    :class:`NonFactorablePostselection` when the state is entangled across
    any cut (second singular value above 1e-10).
    """
    factors = []
    rest = state.amplitudes
    for d in state.dims[:-1]:
        m = rest.reshape(d, -1)
        u, s, vh = np.linalg.svd(m, full_matrices=False)
        if s.size > 1 and s[1] > 1e-10:
            raise NonFactorablePostselection(
                f"state is entangled across a cut (residual singular value {s[1]:.3e})"
            )
        head = u[:, 0]
        pivot = head[int(np.argmax(np.abs(head)))]
        phase = pivot / abs(pivot)
        factors.append(PureState((d,), head / phase))
        rest = vh[0] * (phase * s[0])
    factors.append(PureState.normalized((state.dims[-1],), rest))
    return tuple(factors)


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
