"""Tests for basis generation and the device table."""

from pathlib import Path

import numpy as np
import pytest

from oracles import mub_vectors, projector

from weakcorr import (
    bases,
    computational_basis,
    correlation,
    device_table,
    hadamard_mub,
    is_mutually_unbiased,
    ket2dm,
    party_factors,
    random_density_matrix,
)
from weakcorr.bases import BasisSet, product_factors
from weakcorr.cli import load_basis
from weakcorr.errors import (
    BadSize,
    InvariantViolation,
    NonFactorablePostselection,
    ShapeMismatch,
)
from weakcorr.qcore import ghz

FIXTURES = Path(__file__).parent / "fixtures"
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


def rebuild_rows(factors):
    """Row k of the result is the Kronecker product of row k of every factor."""
    rows = factors[0]
    for f in factors[1:]:
        rows = (rows[:, :, None] * f[:, None, :]).reshape(len(rows), -1)
    return rows


def projectors(f):
    return np.einsum("ki,kj->kij", f, f.conj())


@pytest.mark.parametrize("n", range(1, 9))
def test_hadamard_factors_match_product_factors(n):
    mub = hadamard_mub(n)
    # The closed form and the batched SVD agree up to a phase per row.
    for known, svd in zip(mub.factors, product_factors(mub.matrix, mub.dims), strict=True):
        assert known.shape == (2**n, 2)
        assert np.max(np.abs(projectors(known) - projectors(svd))) <= 1e-12
        assert not known.flags.writeable
    assert np.max(np.abs(rebuild_rows(mub.factors) - mub.matrix)) <= 1e-12


def test_file_basis_is_factored_once(monkeypatch):
    calls = []

    def counted(rows, dims):
        calls.append(dims)
        return product_factors(rows, dims)

    monkeypatch.setattr(bases, "product_factors", counted)
    basis = load_basis(str(FIXTURES / "basis_hadamard3.json"), (2, 2, 2))
    rho = random_density_matrix((2, 2, 2), 3)
    first = correlation(rho, postselection=basis)
    second = correlation(rho, postselection=basis)
    assert calls == [(2, 2, 2)]
    assert first.C == second.C
    # The builtin basis carries its factors.
    correlation(rho)
    assert calls == [(2, 2, 2)]


def test_party_factors_reject_entangled_states():
    with pytest.raises(NonFactorablePostselection):
        party_factors(ghz(3))


def test_device_table_three_qubits():
    t = device_table([2, 2, 2])
    assert t.n_lines == 4 and t.n_columns == 8
    # column 3 (1-based): joint |010><010|, parties (0, 1, 0)
    np.testing.assert_array_equal(t.party_digits[2], [0, 1, 0])
    assert t.labels[2] == "010"
    np.testing.assert_array_equal(np.diag(projector(t, 0, 2)).real, np.eye(8)[2])
    np.testing.assert_array_equal(np.diag(projector(t, 1, 2)).real, [1, 0])
    np.testing.assert_array_equal(np.diag(projector(t, 2, 2)).real, [0, 1])
    np.testing.assert_array_equal(np.diag(projector(t, 3, 2)).real, [1, 0])
    # column 8: all ones
    np.testing.assert_array_equal(t.party_digits[7], [1, 1, 1])
    np.testing.assert_array_equal(np.diag(projector(t, 0, 7)).real, np.eye(8)[7])
    for line in (1, 2, 3):
        np.testing.assert_array_equal(np.diag(projector(t, line, 7)).real, [0, 1])


@pytest.mark.parametrize("dims", [[2], [2, 2], [2, 2, 2], [2, 3], [3, 2, 2]])
def test_device_table_reconstruction_invariant(dims):
    t = device_table(dims)
    for col in range(t.n_columns):
        parts = projector(t, 1, col)
        for line in range(2, t.n_lines):
            parts = np.kron(parts, projector(t, line, col))
        np.testing.assert_allclose(parts, projector(t, 0, col), atol=1e-15)


# -- the builtin constants, built once per dims


def test_builtin_constants_are_built_once_per_dims():
    assert hadamard_mub(3) is hadamard_mub(3)
    assert computational_basis([2, 3]) is computational_basis((2, 3))
    assert device_table([2, 2]) is device_table((np.int64(2), 2))
    assert hadamard_mub(3) is not hadamard_mub(2)
    assert computational_basis((2, 2)) is not computational_basis((4,))


def test_builtin_constants_keep_the_last_dims_only():
    cached = (bases.hadamard_mub, bases._computational_basis, bases._device_table)
    for n in (2, 3):
        hadamard_mub(n)
        computational_basis((2,) * n)
        device_table((2,) * n)
    for function in cached:
        assert function.cache_info().currsize == 1
    assert hadamard_mub(3) is hadamard_mub(3)
    assert hadamard_mub.cache_info().currsize == 1


def cached_arrays():
    for n in (1, 3):
        mub = hadamard_mub(n)
        yield mub.matrix
        yield from mub.factors
        comp = computational_basis((2,) * n)
        yield comp.matrix
        yield from comp.factors
        yield device_table((2,) * n).party_digits
    qutrits = computational_basis((3, 2))
    yield qutrits.matrix
    yield from qutrits.factors
    yield device_table((3, 2)).party_digits


def test_every_cached_array_rejects_writes():
    for array in cached_arrays():
        assert not array.flags.writeable
        if isinstance(array.base, np.ndarray):
            assert not array.base.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 0


@pytest.mark.parametrize("n", range(1, 9))
def test_builtin_bases_pass_the_public_check(n):
    for basis in (hadamard_mub(n), computational_basis((2,) * n)):
        checked = BasisSet(basis.dims, basis.matrix, basis.labels)
        assert checked.dims == basis.dims and checked.labels == basis.labels
        np.testing.assert_array_equal(checked.matrix, basis.matrix)
        assert basis.matrix.dtype == complex


def test_builtin_bases_skip_the_gram_check(monkeypatch):
    def refuse(self):
        raise AssertionError("BasisSet.__post_init__ ran for a builtin basis")

    monkeypatch.setattr(BasisSet, "__post_init__", refuse)
    bases.hadamard_mub.cache_clear()
    bases._computational_basis.cache_clear()
    for n in (1, 3, 5):
        assert len(hadamard_mub(n)) == 2**n
    for dims in ((2,), (2, 2, 2), (3, 2, 3)):
        assert computational_basis(dims).dims == dims
    with pytest.raises(AssertionError, match="builtin"):
        BasisSet((2,), np.eye(2), ("0", "1"))


def test_builtin_basis_dims_are_checked():
    with pytest.raises(ShapeMismatch):
        computational_basis(())
    with pytest.raises(ShapeMismatch):
        computational_basis((2, 0))
