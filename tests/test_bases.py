"""Tests for basis generation and the device table."""

import numpy as np
import pytest

from oracles import mub_vectors

from weakcorr import (
    computational_basis,
    device_table,
    hadamard_mub,
    is_mutually_unbiased,
    ket2dm,
    party_factors,
)
from weakcorr.bases import BasisSet
from weakcorr.errors import (
    BadSize,
    InvariantViolation,
    NonFactorablePostselection,
    ShapeMismatch,
)
from weakcorr.qcore import ghz

SQ8 = np.sqrt(8.0)


def test_computational_basis_single_qubit():
    b = computational_basis([2])
    assert b.labels == ("0", "1")
    np.testing.assert_array_equal(b.matrix, np.eye(2))


def test_computational_basis_three_qubits_label_order():
    b = computational_basis([2, 2, 2])
    assert b.labels == ("000", "001", "010", "011", "100", "101", "110", "111")
    np.testing.assert_array_equal(b.matrix, np.eye(8))


def test_computational_basis_qudit_labels():
    b = computational_basis([2, 3])
    assert b.labels == ("00", "01", "02", "10", "11", "12")


def test_basis_set_rejects_non_orthonormal():
    with pytest.raises(InvariantViolation, match="orthonormality"):
        BasisSet((2,), [[1.0, 0.0], [1.0, 0.0]], ("a", "b"))


@pytest.mark.parametrize(
    "matrix, labels",
    [
        ([[np.nan, 0.0], [0.0, 1.0]], ("a", "b")),
        ([[np.inf, 0.0], [0.0, 1.0]], ("a", "b")),
        ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], ("a", "b")),
        (np.eye(2), ("a",)),
    ],
    ids=["nan", "inf", "d-by-d-plus-1", "label-count"],
)
def test_basis_set_rejects_malformed_matrix(matrix, labels):
    with pytest.raises(InvariantViolation):
        BasisSet((2,), matrix, labels)


def test_hadamard_mub_single_qubit():
    b = hadamard_mub(1)
    np.testing.assert_allclose(b.matrix[0], [1 / np.sqrt(2), 1 / np.sqrt(2)])
    np.testing.assert_allclose(b.matrix[1], [1 / np.sqrt(2), -1 / np.sqrt(2)])


def test_hadamard_mub_matches_sign_pattern_rows():
    b = hadamard_mub(3)
    # rows 2 and 8 of the published sign table (1-based)
    np.testing.assert_allclose(b.matrix[1], np.array([1, -1, 1, -1, 1, -1, 1, -1]) / SQ8)
    np.testing.assert_allclose(b.matrix[7], np.array([1, -1, -1, 1, -1, 1, 1, -1]) / SQ8)
    np.testing.assert_allclose(b.matrix, mub_vectors(3), atol=1e-15)


def test_hadamard_mub_rejects_bad_size():
    with pytest.raises(BadSize):
        hadamard_mub(0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hadamard_mub_is_unbiased_to_computational(n):
    comp = computational_basis([2] * n)
    mub = hadamard_mub(n)
    overlaps = np.abs(comp.matrix.conj() @ mub.matrix.T) ** 2
    np.testing.assert_allclose(overlaps, 1 / 2**n, atol=1e-12)
    assert is_mutually_unbiased(comp, mub)


def test_is_mutually_unbiased_negative_cases():
    comp = computational_basis([2, 2, 2])
    assert not is_mutually_unbiased(comp, comp)
    with pytest.raises(ShapeMismatch):
        is_mutually_unbiased(comp, computational_basis([2, 2]))


def test_party_factors_recover_product_structure():
    mub = hadamard_mub(3)
    for k in range(8):
        factors = party_factors(mub.vectors[k])
        assert len(factors) == 3
        rebuilt = factors[0].amplitudes
        for f in factors[1:]:
            rebuilt = np.kron(rebuilt, f.amplitudes)
        np.testing.assert_allclose(rebuilt, mub.matrix[k], atol=1e-12)
        for p, f in enumerate(factors):
            sign = -1.0 if (k >> (2 - p)) & 1 else 1.0
            want = np.array([1.0, sign]) / np.sqrt(2)
            # factors are defined up to phase; compare projectors
            np.testing.assert_allclose(
                ket2dm(f).matrix, np.outer(want, want), atol=1e-12
            )


def test_party_factors_reject_entangled_states():
    with pytest.raises(NonFactorablePostselection):
        party_factors(ghz(3))


def test_device_table_three_qubits():
    t = device_table([2, 2, 2])
    assert t.n_lines == 4 and t.n_columns == 8
    # column 3 (1-based): joint |010><010|, parties (0, 1, 0)
    np.testing.assert_array_equal(t.party_digits[2], [0, 1, 0])
    assert t.labels[2] == "010"
    np.testing.assert_array_equal(np.diag(t.projector(0, 2)).real, np.eye(8)[2])
    np.testing.assert_array_equal(np.diag(t.projector(1, 2)).real, [1, 0])
    np.testing.assert_array_equal(np.diag(t.projector(2, 2)).real, [0, 1])
    np.testing.assert_array_equal(np.diag(t.projector(3, 2)).real, [1, 0])
    # column 8: all ones
    np.testing.assert_array_equal(t.party_digits[7], [1, 1, 1])
    np.testing.assert_array_equal(np.diag(t.projector(0, 7)).real, np.eye(8)[7])
    for line in (1, 2, 3):
        np.testing.assert_array_equal(np.diag(t.projector(line, 7)).real, [0, 1])


@pytest.mark.parametrize("dims", [[2], [2, 2], [2, 2, 2], [2, 3], [3, 2, 2]])
def test_device_table_reconstruction_invariant(dims):
    t = device_table(dims)
    for col in range(t.n_columns):
        parts = t.projector(1, col)
        for line in range(2, t.n_lines):
            parts = np.kron(parts, t.projector(line, col))
        np.testing.assert_allclose(parts, t.projector(0, col), atol=1e-15)


def test_device_table_scope():
    t = device_table([2, 2, 2])
    assert t.scope(0) == (0, 1, 2)
    assert t.scope(2) == (1,)
    with pytest.raises(ShapeMismatch):
        t.scope(4)
