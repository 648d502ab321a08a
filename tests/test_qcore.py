"""Tests for the state primitives and linear-algebra operations."""

import itertools

import numpy as np
import pytest

from oracles import ptrace_keep, random_rho

from weakcorr import (
    DensityMatrix,
    PureState,
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
from weakcorr.bases import computational_basis
from weakcorr.errors import BadSubsystem, InvariantViolation, ShapeMismatch

SQ2 = np.sqrt(2.0)


# -- construction invariants


def test_pure_state_requires_unit_norm():
    with pytest.raises(InvariantViolation):
        PureState((2,), [1.0, 1.0])
    PureState.normalized((2,), [1.0, 1.0])  # rescaling path accepts it


def test_density_matrix_rejects_non_hermitian():
    m = np.array([[0.5, 0.5j], [0.5j, 0.5]])
    with pytest.raises(InvariantViolation, match="hermiticity"):
        DensityMatrix((2,), m)


def test_density_matrix_rejects_bad_trace_and_negative():
    with pytest.raises(InvariantViolation, match="trace"):
        DensityMatrix((2,), np.eye(2))
    neg = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(InvariantViolation, match="positivity"):
        DensityMatrix((2,), neg)


def with_smallest_eigenvalue(lowest, d, seed):
    """A Hermitian unit-trace matrix of dimension d whose smallest eigenvalue
    is ``lowest``, in a random eigenbasis."""
    rng = np.random.default_rng(seed)
    unitary = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    spectrum = np.concatenate([[lowest], rng.uniform(0.5, 1.0, d - 1)])
    spectrum[1:] *= (1.0 - lowest) / spectrum[1:].sum()
    m = (unitary * spectrum) @ unitary.conj().T
    return (m + m.conj().T) / 2


@pytest.mark.parametrize("d", [2, 16, 64])
def test_positivity_boundary_sits_at_the_spectral_tolerance(d):
    for seed in range(3):
        rejected = with_smallest_eigenvalue(-2e-10, d, seed)
        with pytest.raises(InvariantViolation, match="positivity: smallest eigenvalue = -2"):
            DensityMatrix((d,), rejected)
        DensityMatrix((d,), with_smallest_eigenvalue(-0.5e-10, d, seed))


def test_positive_states_are_accepted_without_an_eigensolve(monkeypatch):
    # The Cholesky factor accepts; the eigensolve only decides a failure.
    def refuse(m):
        raise AssertionError("eigvalsh ran on a positive state")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for n in (1, 3, 5):
        DensityMatrix((2,) * n, random_density_matrix((2,) * n, n).matrix)
    DensityMatrix((2, 2), ket2dm(ghz(2)).matrix)
    DensityMatrix((16,), with_smallest_eigenvalue(-0.5e-10, 16, 0))
    with pytest.raises(AssertionError, match="eigvalsh ran"):
        DensityMatrix((16,), with_smallest_eigenvalue(-2e-10, 16, 0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
def test_density_matrix_rejects_non_finite(bad):
    m = np.diag([0.5, 0.5]).astype(complex)
    m[1, 1] = bad
    with pytest.raises(InvariantViolation, match="finite"):
        DensityMatrix((2,), m)


def test_states_are_immutable():
    rho = maximally_mixed((2,))
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 9.0


# -- tensor product


def test_tensor_product_kets():
    zz = tensor_product(ket("0"), ket("0"))
    np.testing.assert_allclose(zz.amplitudes, [1, 0, 0, 0])
    assert zz.dims == (2, 2)


def test_tensor_product_maximally_mixed():
    out = tensor_product(maximally_mixed((2,)), maximally_mixed((2,)))
    np.testing.assert_allclose(out.matrix, np.eye(4) / 4, atol=1e-15)
    assert out.dims == (2, 2)


def test_tensor_product_plus_minus():
    plus = PureState((2,), [1 / SQ2, 1 / SQ2])
    minus = PureState((2,), [1 / SQ2, -1 / SQ2])
    out = tensor_product(plus, minus)
    np.testing.assert_allclose(out.amplitudes, np.array([1, -1, 1, -1]) / 2, atol=1e-15)


def test_tensor_product_rejects_mixed_kinds():
    with pytest.raises(ShapeMismatch):
        tensor_product(ket("0"), maximally_mixed((2,)))


# -- partial trace


def test_partial_trace_product_marginal():
    a = random_density_matrix((2,), 5)
    b = random_density_matrix((2,), 6)
    joint = tensor_product(a, b)
    np.testing.assert_allclose(partial_trace(joint, [0]).matrix, a.matrix, atol=1e-12)
    np.testing.assert_allclose(partial_trace(joint, [1]).matrix, b.matrix, atol=1e-12)


def test_partial_trace_ghz_marginal_is_mixed():
    rho = ket2dm(ghz(3))
    out = partial_trace(rho, [0])
    np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_keep_all_is_identity():
    rho = random_density_matrix((2, 2, 2), 3)
    np.testing.assert_allclose(partial_trace(rho, [0, 1, 2]).matrix, rho.matrix)


def test_partial_trace_reorders_subsystems():
    a = random_density_matrix((2,), 1)
    b = random_density_matrix((3,), 2)
    joint = tensor_product(a, b)
    swapped = partial_trace(joint, [1, 0])
    assert swapped.dims == (3, 2)
    np.testing.assert_allclose(swapped.matrix, np.kron(b.matrix, a.matrix), atol=1e-12)


def test_partial_trace_matches_bruteforce():
    rho = random_density_matrix((2, 2, 2), 17)
    for keep in ([0], [1], [2], [0, 2], [2, 0], [1, 2]):
        expected = ptrace_keep(rho.matrix, [2, 2, 2], keep)
        np.testing.assert_allclose(partial_trace(rho, keep).matrix, expected, atol=1e-12)


@pytest.mark.parametrize(
    "keep", [list(k) for r in (1, 2, 3) for k in itertools.permutations(range(3), r)]
)
@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 2, 3)])
def test_partial_trace_output_passes_full_validation(keep, dims):
    # partial_trace skips the checks; its output must pass them anyway.
    for seed in range(3):
        out = partial_trace(random_density_matrix(dims, seed), keep)
        checked = DensityMatrix(out.dims, out.matrix)
        np.testing.assert_array_equal(checked.matrix, out.matrix)
        assert not out.matrix.flags.writeable


def test_partial_trace_bad_subsystem():
    rho = random_density_matrix((2, 2), 0)
    with pytest.raises(BadSubsystem):
        partial_trace(rho, [2])
    with pytest.raises(BadSubsystem):
        partial_trace(rho, [0, 0])
    with pytest.raises(BadSubsystem):
        partial_trace(rho, [])


# -- distances


def test_trace_distance_basics():
    rho = random_density_matrix((2, 2), 9)
    assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-14)
    assert trace_distance(ket2dm(ket("0")), ket2dm(ket("1"))) == pytest.approx(1.0)


def test_trace_distance_zero_vs_plus():
    plus = ket2dm(PureState((2,), [1 / SQ2, 1 / SQ2]))
    assert trace_distance(ket2dm(ket("0")), plus) == pytest.approx(1 / SQ2, abs=1e-12)


def test_trace_distance_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        trace_distance(maximally_mixed((2,)), maximally_mixed((2, 2)))


def test_trace_distance_is_a_metric():
    for seed in range(50):
        a = random_density_matrix((2, 2), 3 * seed)
        b = random_density_matrix((2, 2), 3 * seed + 1)
        c = random_density_matrix((2, 2), 3 * seed + 2)
        dab = trace_distance(a, b)
        assert dab >= 0
        assert dab == pytest.approx(trace_distance(b, a), abs=1e-12)
        assert dab <= trace_distance(a, c) + trace_distance(c, b) + 1e-10


def test_diagonal_distance_cases():
    basis = computational_basis((2, 2, 2))
    rho = ket2dm(ghz(3))
    mixed = maximally_mixed((2, 2, 2))
    assert diagonal_distance(rho, rho, basis) == pytest.approx(0.0, abs=1e-14)
    # diagonals (1/2, 0, ..., 0, 1/2) vs uniform 1/8
    assert diagonal_distance(rho, mixed, basis) == pytest.approx(0.75, abs=1e-12)


def test_diagonal_distance_equals_trace_distance_when_commuting():
    basis = computational_basis((2, 2))
    a = DensityMatrix((2, 2), np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
    b = DensityMatrix((2, 2), np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex))
    assert diagonal_distance(a, b, basis) == pytest.approx(trace_distance(a, b), abs=1e-12)


def test_diagonal_distance_bounded_by_trace_distance():
    basis = computational_basis((2, 2))
    for seed in range(30):
        a = random_density_matrix((2, 2), 100 + 2 * seed)
        b = random_density_matrix((2, 2), 101 + 2 * seed)
        assert diagonal_distance(a, b, basis) <= trace_distance(a, b) + 1e-10


# -- random states


def test_random_density_matrix_is_deterministic_and_valid():
    a = random_density_matrix((2, 2, 2), 7)
    b = random_density_matrix((2, 2, 2), 7)
    np.testing.assert_array_equal(a.matrix, b.matrix)
    assert float(np.linalg.eigvalsh(a.matrix)[0]) >= -1e-10
    assert np.trace(a.matrix).real == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(a.matrix, random_rho(8, 7), atol=1e-15)


def test_random_density_matrix_seeds_differ():
    a = random_density_matrix((2,), 1)
    b = random_density_matrix((2,), 2)
    assert np.max(np.abs(a.matrix - b.matrix)) > 1e-3


def test_compositions_preserve_invariants():
    # invariants hold after arbitrary tensor/trace compositions
    for seed in range(100):
        a = random_density_matrix((2,), seed)
        b = random_density_matrix((2, 2), 1000 + seed)
        joint = tensor_product(a, b)
        reduced = partial_trace(joint, [1, 0])
        for state in (joint, reduced):
            m = state.matrix
            assert np.max(np.abs(m - m.conj().T)) < 1e-12
            assert abs(np.trace(m) - 1) < 1e-12
            assert float(np.linalg.eigvalsh(m)[0]) > -1e-10
        np.testing.assert_allclose(partial_trace(joint, [0]).matrix, a.matrix, atol=1e-12)
