"""Tests for weak values, reconstruction, and the correlation functional."""

import numpy as np
import pytest

from oracles import (
    bruteforce_correlation,
    diag_correlation,
    mub_vectors,
    reconstruct_element_loop,
)

from weakcorr import (
    BasisSet,
    PointerConfig,
    analytic_weak_value,
    broadcast,
    computational_basis,
    correlation,
    correlation_oracle_diag,
    couple_all,
    device_table,
    extract_weak_value,
    ghz,
    hadamard_mub,
    ket,
    ket2dm,
    maximally_mixed,
    postselect_and_read,
    postselection_probability,
    random_density_matrix,
    reconstruct_element,
    reconstruct_matrix,
    tensor_product,
    weak_value_limits,
    weak_value_pure,
)
from weakcorr.errors import (
    BadDimension,
    ImpossibleOutcome,
    NonFactorablePostselection,
    NullPostselection,
    UnbiasednessViolation,
)
from weakcorr.qcore import DensityMatrix, PureState

SQ2 = np.sqrt(2.0)
GHZ = ket2dm(ghz(3))
CLASSICAL = DensityMatrix(
    (2, 2, 2), np.diag([0.5, 0, 0, 0, 0, 0, 0, 0.5]).astype(complex)
)


def random_product(seed):
    a = random_density_matrix((2,), seed)
    b = random_density_matrix((2,), seed + 10_000)
    c = random_density_matrix((2,), seed + 20_000)
    return tensor_product(tensor_product(a, b), c)


# -- weak values


def test_weak_value_pure_identity_postselection_is_expectation():
    psi = PureState((2,), [0.6, 0.8])
    a = np.array([[1, 0], [0, 0]], dtype=complex)
    assert weak_value_pure(psi, psi, a) == pytest.approx(0.36)


def test_weak_value_pure_anomalous():
    psi_in = PureState((2,), [1 / SQ2, 1 / SQ2])
    psi_fin = PureState((2,), np.array([2, -1]) / np.sqrt(5))
    a = np.array([[1, 0], [0, 0]], dtype=complex)
    assert weak_value_pure(psi_in, psi_fin, a) == pytest.approx(2.0)


def test_weak_value_pure_orthogonal_states_rejected():
    with pytest.raises(NullPostselection):
        weak_value_pure(ket("0"), ket("1"), np.eye(2))


def test_analytic_weak_value_ghz_rows():
    mub = hadamard_mub(3)
    table = device_table([2, 2, 2])
    assert analytic_weak_value(GHZ, table.projector(0, 0), mub.vectors[0]) == pytest.approx(0.5)
    assert analytic_weak_value(GHZ, table.projector(0, 2), mub.vectors[0]) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(NullPostselection):
        analytic_weak_value(GHZ, table.projector(0, 0), mub.vectors[1])


def test_postselection_probabilities():
    mub = hadamard_mub(3)
    mixed = maximally_mixed((2, 2, 2))
    for k in range(8):
        assert postselection_probability(mixed, mub.vectors[k]) == pytest.approx(1 / 8)
    assert postselection_probability(GHZ, mub.vectors[0]) == pytest.approx(0.25)
    assert postselection_probability(GHZ, mub.vectors[1]) == pytest.approx(0.0, abs=1e-14)


# -- matrix-element reconstruction


def test_reconstruct_diagonal_is_completeness_sum():
    rho = random_density_matrix((2, 2), 3)
    comp = computational_basis((2, 2))
    mub = hadamard_mub(2)
    for i in range(4):
        got = reconstruct_element(i, i, rho, comp, mub)
        assert got == pytest.approx(rho.matrix[i, i], abs=1e-12)


def test_reconstruct_ghz_far_corner():
    comp = computational_basis((2, 2, 2))
    mub = hadamard_mub(3)
    assert reconstruct_element(0, 7, GHZ, comp, mub) == pytest.approx(0.5, abs=1e-12)


def test_reconstruct_random_states_round_trip():
    comp = computational_basis((2, 2))
    mub = hadamard_mub(2)
    for seed in range(20):
        rho = random_density_matrix((2, 2), seed)
        for i in range(4):
            for j in range(4):
                got = reconstruct_element(i, j, rho, comp, mub)
                assert abs(got - rho.matrix[i, j]) < 1e-10


def test_reconstruct_rejects_biased_bases():
    comp = computational_basis((2, 2))
    rho = random_density_matrix((2, 2), 0)
    # The first zero overlap, column by column, is the one named.
    with pytest.raises(UnbiasednessViolation, match=r"<b_1\|a_0> = 0"):
        reconstruct_element(0, 1, rho, comp, comp)
    with pytest.raises(UnbiasednessViolation, match=r"<b_1\|a_0> = 0"):
        reconstruct_matrix(rho, comp, comp)
    # A zero overlap outside column i is rejected too.
    with pytest.raises(UnbiasednessViolation, match=r"<b_1\|a_0> = 0"):
        reconstruct_element(2, 3, rho, comp, comp)


def basis_of_rows(dims, rows):
    """A basis whose vectors are the rows of ``rows``."""
    labels = [str(k) for k in range(len(rows))]
    return BasisSet(dims, rows, labels)


def basis_pair(name, n):
    """(basis_a, basis_b) with no zero overlap <b_k|a_x>."""
    dims = (2,) * n
    comp, mub = computational_basis(dims), hadamard_mub(n)
    if name == "comp-hadamard":
        return comp, mub
    if name == "hadamard-comp":
        return mub, comp
    d = 2**n
    if name == "comp-fourier":
        # Mutually unbiased to comp, with complex overlaps exp(2 pi i k x / d).
        k = np.arange(d)
        return comp, basis_of_rows(dims, np.exp(2j * np.pi * np.outer(k, k) / d) / np.sqrt(d))
    # Both rotated by one random unitary u, which keeps every overlap.
    rng = np.random.default_rng(100 + n)
    u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    return basis_of_rows(dims, comp.matrix @ u.T), basis_of_rows(dims, mub.matrix @ u.T)


@pytest.mark.parametrize("pair", ["comp-hadamard", "hadamard-comp", "rotated", "comp-fourier"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_reconstruct_matrix_matches_element_loop(pair, n):
    basis_a, basis_b = basis_pair(pair, n)
    a = basis_a.matrix
    for seed in range(3):
        rho = random_density_matrix((2,) * n, seed)
        got = reconstruct_matrix(rho, basis_a, basis_b)
        want = np.array(
            [
                [reconstruct_element_loop(i, j, rho, basis_a, basis_b) for j in range(2**n)]
                for i in range(2**n)
            ]
        )
        assert np.max(np.abs(got - want)) <= 1e-12, (pair, n, seed)
        # Both equal <a_i| rho |a_j>.
        assert np.max(np.abs(got - a.conj() @ rho.matrix @ a.T)) <= 1e-12


def test_reconstruct_element_is_the_matrix_entry():
    basis_a, basis_b = basis_pair("rotated", 3)
    rho = random_density_matrix((2, 2, 2), 4)
    full = reconstruct_matrix(rho, basis_a, basis_b)
    for i, j in [(0, 0), (0, 7), (5, 2), (7, 7)]:
        assert reconstruct_element(i, j, rho, basis_a, basis_b) == full[i, j]


# -- diagonal oracle


def test_oracle_diag_reference_values():
    assert correlation_oracle_diag(GHZ) == pytest.approx(1.5, abs=1e-12)
    assert correlation_oracle_diag(CLASSICAL) == pytest.approx(1.5, abs=1e-12)
    assert correlation_oracle_diag(maximally_mixed((2, 2, 2))) == pytest.approx(0.0, abs=1e-14)
    assert correlation_oracle_diag(random_product(0)) == pytest.approx(0.0, abs=1e-12)
    rho = random_density_matrix((2, 2, 2), 4)
    assert correlation_oracle_diag(rho) == pytest.approx(
        diag_correlation(rho.matrix, 3), abs=1e-12
    )


# -- correlation, analytic backend


def test_correlation_ghz_analytic():
    rep = correlation(GHZ, "analytic", "idealized")
    assert rep.C == pytest.approx(1.5, abs=1e-10)
    assert rep.skipped == (1, 2, 4, 7)
    assert float(np.sum(rep.table.probabilities)) == pytest.approx(1.0, abs=1e-12)
    alive = [t for t in rep.per_k if not t.skipped]
    assert all(t.probability == pytest.approx(0.25, abs=1e-12) for t in alive)
    assert all(t.term == pytest.approx(1.5, abs=1e-10) for t in alive)


def test_correlation_classical_mixture_analytic():
    rep = correlation(CLASSICAL, "analytic", "idealized")
    assert rep.C == pytest.approx(1.5, abs=1e-10)
    assert rep.skipped == ()
    assert all(t.probability == pytest.approx(1 / 8, abs=1e-12) for t in rep.per_k)


def test_correlation_product_states_vanish():
    for seed in range(10):
        rep = correlation(random_product(seed), "analytic", "idealized")
        assert abs(rep.C) < 1e-10


def test_correlation_matches_bruteforce_on_random_states():
    for seed in (1, 2, 3):
        rho = random_density_matrix((2, 2, 2), seed)
        rep = correlation(rho, "analytic", "idealized")
        expect, skipped = bruteforce_correlation(rho.matrix, 3)
        assert rep.C == pytest.approx(expect, abs=1e-10)
        assert list(rep.skipped) == skipped


def test_correlation_completeness_identity():
    for seed in range(20):
        rho = random_density_matrix((2, 2, 2), seed)
        rep = correlation(rho, "analytic", "idealized")
        recombined = np.einsum("k,ki->i", rep.table.probabilities, rep.table.values[0])
        np.testing.assert_allclose(recombined, rho.diagonal(), atol=1e-10)
        assert rep.max_completeness_residual < 1e-10


def test_correlation_reports_are_sane():
    rep = correlation(random_density_matrix((2, 2, 2), 6), "analytic", "literal")
    assert rep.C >= 0
    assert rep.mode == "literal"
    assert rep.min_postselection_probability > 0
    assert [t.k for t in rep.per_k] == list(range(8))


def test_correlation_outcome_robustness_with_relabeled_basis():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    mub = hadamard_mub(3)
    for outcomes in ((1, 0), (0, 1), (1, 1)):
        u = np.kron(
            np.kron(np.linalg.matrix_power(x, outcomes[0]), np.linalg.matrix_power(x, outcomes[1])),
            np.eye(2),
        )
        relabeled = BasisSet((2, 2, 2), mub.matrix @ u.T, mub.labels)
        for seed in (2, 9):
            rho = random_density_matrix((2, 2, 2), seed)
            base = correlation(rho, "analytic", "idealized")
            moved = correlation(
                rho, "analytic", "idealized", outcomes=outcomes, postselection=relabeled
            )
            assert moved.C == pytest.approx(base.C, abs=1e-10)


@pytest.mark.parametrize("backend", ["analytic", "circuit"])
def test_correlation_on_builtin_basis_builds_no_pure_state(monkeypatch, backend):
    built = []
    check = PureState.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(PureState, "__post_init__", counted)
    correlation(random_density_matrix((2,) * 4, 0), backend)
    assert len(built) == 0


def test_correlation_rejects_entangled_postselection_for_analytic():
    bell = np.zeros((4, 4))
    bell[0] = [1, 0, 0, 1]
    bell[1] = [1, 0, 0, -1]
    bell[2] = [0, 1, 1, 0]
    bell[3] = [0, 1, -1, 0]
    basis = BasisSet((2, 2), bell / SQ2, ("a", "b", "c", "d"))
    rho = random_density_matrix((2, 2), 0)
    with pytest.raises(NonFactorablePostselection):
        correlation(rho, "analytic", "idealized", postselection=basis)


def test_correlation_rejects_non_qubit_parties():
    with pytest.raises(BadDimension):
        correlation(maximally_mixed((3, 3)), "analytic", "idealized")


# -- correlation, circuit backend


def test_circuit_literal_equals_diagonal_oracle():
    # with copies attached, the postselected readout sees only diagonal
    # matrix elements, so the circuit value reproduces the diagonal oracle
    # at any coupling strength
    for seed in (0, 5, 11):
        rho = random_density_matrix((2, 2, 2), seed)
        oracle = correlation_oracle_diag(rho)
        for g in (1e-2, 1e-3):
            rep = correlation(rho, "circuit", "literal", PointerConfig(g))
            assert rep.C == pytest.approx(oracle, abs=1e-12)


def test_circuit_ghz_both_modes():
    for mode in ("literal", "idealized"):
        rep = correlation(GHZ, "circuit", mode, PointerConfig(1e-3))
        assert rep.C == pytest.approx(1.5, abs=1e-10)
        np.testing.assert_allclose(rep.table.probabilities, 1 / 8, atol=1e-12)


def test_circuit_product_states_vanish():
    for seed in range(5):
        rep = correlation(random_product(seed), "circuit", "literal", PointerConfig(1e-4))
        assert abs(rep.C) < 1e-8


def test_circuit_skip_broadcast_matches_full_state_weak_values():
    rho = random_density_matrix((2, 2, 2), 23)
    rep = correlation(
        rho, "circuit", "idealized", PointerConfig(1e-4), skip_broadcast=True
    )
    limits = weak_value_limits(rho, hadamard_mub(3), device_table([2, 2, 2]), 0, True)
    keep = [k for k in range(8) if k not in rep.table.skipped]
    np.testing.assert_allclose(
        rep.table.values[:, keep, :], limits.values[:, keep, :], atol=1e-6
    )


def test_circuit_limit_table_matches_circuit_at_small_g():
    rho = random_density_matrix((2, 2, 2), 29)
    rep = correlation(rho, "circuit", "literal", PointerConfig(1e-5))
    from weakcorr.conveyance import convey

    conveyed = convey(rho, (0, 0), "literal").state
    limits = weak_value_limits(conveyed, hadamard_mub(3), device_table([2, 2, 2]))
    np.testing.assert_allclose(rep.table.values, limits.values, atol=1e-9)
    np.testing.assert_allclose(rep.table.probabilities, limits.probabilities, atol=1e-9)


def random_unitary_basis(dims, seed):
    rng = np.random.default_rng(seed)
    d = int(np.prod(dims))
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q = np.linalg.qr(g)[0]
    return BasisSet(dims, q.T, tuple(str(k) for k in range(d)))


@pytest.mark.parametrize("dims", [(3, 3), (2, 3), (3, 2)])
def test_qudit_copies_limits_match_circuit_readout(dims):
    # With copies the readout is exact at every g, so the limit table must
    # equal it on any party dimensions, including the qutrit copy digits.
    rho = random_density_matrix(dims, 61)
    basis = random_unitary_basis(dims, 62)
    table = device_table(dims)
    cfg = PointerConfig(1e-3)
    for mu in range(min(dims)):
        extended = rho
        for party in range(len(dims)):
            extended = broadcast(extended, party, mu).state
        bs = couple_all(extended, table)
        limits = weak_value_limits(rho, basis, table, mu)
        assert limits.skipped == ()
        for k, b in enumerate(basis.vectors):
            readings = postselect_and_read(bs, b, cfg)
            w = extract_weak_value(readings.delta_q, readings.delta_p, cfg)
            assert np.max(np.abs(w - limits.values[:, k, :])) <= 1e-12, (mu, k)
            assert abs(readings.postselection_probability - limits.probabilities[k]) <= 1e-12


@pytest.mark.parametrize("mu", [2, -1])
def test_circuit_rejects_out_of_range_broadcast_outcome(mu):
    rho = random_density_matrix((2, 2, 2), 1)
    with pytest.raises(ImpossibleOutcome, match=f"outcome {mu} out of range for dimension 2"):
        correlation(rho, "circuit", broadcast_outcome=mu)


@pytest.mark.parametrize("mu", [2, -1])
def test_limits_reject_out_of_range_broadcast_outcome(mu):
    rho = random_density_matrix((2, 2, 2), 1)
    mub, table = hadamard_mub(3), device_table((2, 2, 2))
    with pytest.raises(ImpossibleOutcome, match=f"outcome {mu} out of range for dimension 2"):
        weak_value_limits(rho, mub, table, mu)
    ignored = weak_value_limits(rho, mub, table, mu, skip_broadcast=True)
    plain = weak_value_limits(rho, mub, table, 0, skip_broadcast=True)
    assert np.array_equal(ignored.values, plain.values)


def test_broadcast_outcome_is_unused_without_copies():
    rho = random_density_matrix((2, 2, 2), 1)
    rep = correlation(rho, "circuit", broadcast_outcome=2, skip_broadcast=True)
    assert rep.C == correlation(rho, "circuit", skip_broadcast=True).C


def test_circuit_error_bounded_linearly_in_g():
    # a coarse bound on the copies layout: the circuit value sits within g
    # of the diagonal oracle at every tested strength (it is in fact exact,
    # which acceptance criterion 07 checks to 1e-12, so this bound is loose)
    for seed in range(20):
        rho = random_density_matrix((2, 2, 2), 8_000 + seed)
        oracle = correlation_oracle_diag(rho)
        for g in (1e-2, 5e-3, 2.5e-3):
            rep = correlation(rho, "circuit", "literal", PointerConfig(g))
            assert abs(rep.C - oracle) <= g


def test_correlation_nonnegative_and_skip_list_is_exact():
    for seed in range(10):
        rho = random_density_matrix((2, 2, 2), 50 + seed)
        rep = correlation(rho, "analytic", "idealized")
        assert rep.C >= 0
        expected_skips = tuple(
            k
            for k in range(8)
            if postselection_probability(rho, hadamard_mub(3).vectors[k]) < 1e-14
        )
        assert rep.skipped == expected_skips


def test_two_party_correlation_runs():
    rho = ket2dm(ghz(2))
    rep = correlation(rho, "analytic", "idealized")
    expect, _ = bruteforce_correlation(rho.matrix, 2)
    assert rep.C == pytest.approx(expect, abs=1e-10)
