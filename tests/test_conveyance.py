"""Tests for the state-conveyance pipeline and the copy fan-out."""

import itertools

import numpy as np
import pytest

from oracles import broadcast_gates, convey_literal_bruteforce, convey_literal_gates

from weakcorr import (
    bell_state,
    broadcast,
    convey,
    ghz,
    ket,
    ket2dm,
    partial_trace,
    random_density_matrix,
    strong_couple_and_measure,
    tensor_product,
)
from weakcorr.errors import BadDimension, BadSubsystem, ImpossibleOutcome, ShapeMismatch
from weakcorr.qcore import DensityMatrix, PureState

SQ2 = np.sqrt(2.0)


# -- ancilla pairs


def test_bell_state_qubits():
    pair = bell_state(2)
    np.testing.assert_allclose(pair.state.amplitudes, np.array([1, 0, 0, 1]) / SQ2)


def test_bell_state_qutrits():
    pair = bell_state(3)
    amp = pair.state.amplitudes
    assert np.count_nonzero(amp) == 3
    np.testing.assert_allclose(amp[[0, 4, 8]], np.full(3, 1 / np.sqrt(3)))


def test_bell_state_flip_variant():
    pair = bell_state(2, "flip")
    np.testing.assert_allclose(pair.state.amplitudes, np.array([0, 1, 1, 0]) / SQ2)


def test_bell_state_rejects_small_dimension():
    with pytest.raises(BadDimension):
        bell_state(1)


# -- strong coupling + measurement


def test_strong_couple_conveys_superposition():
    alpha, beta = 0.6, 0.8
    psi = PureState((2,), [alpha, beta])
    joint = tensor_product(ket2dm(psi), ket2dm(bell_state(2).state))
    rec = strong_couple_and_measure(joint, control=0, target=1, outcome=0)
    assert rec.probability == pytest.approx(0.5, abs=1e-12)
    expect = np.array([alpha, 0, 0, beta], dtype=complex)
    np.testing.assert_allclose(rec.state.matrix, np.outer(expect, expect.conj()), atol=1e-12)


def test_strong_couple_classical_control():
    joint = tensor_product(ket2dm(ket("0")), ket2dm(bell_state(2).state))
    rec = strong_couple_and_measure(joint, control=0, target=1, outcome=0)
    assert rec.probability == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(rec.state.matrix, ket2dm(ket("00")).matrix, atol=1e-12)


def test_strong_couple_impossible_outcome():
    # |0> control with a fresh |00> ancilla never leaves the target in |1>
    anc = ket2dm(ket("00"))
    joint = tensor_product(ket2dm(ket("0")), anc)
    with pytest.raises(ImpossibleOutcome):
        strong_couple_and_measure(joint, control=0, target=1, outcome=1)


def test_strong_couple_validates_wiring():
    joint = tensor_product(ket2dm(ket("0")), ket2dm(ket("0")))
    with pytest.raises(BadSubsystem):
        strong_couple_and_measure(joint, control=0, target=0, outcome=0)
    mixed = tensor_product(ket2dm(ket("0")), random_density_matrix((3,), 1))
    with pytest.raises(ShapeMismatch):
        strong_couple_and_measure(mixed, control=0, target=1, outcome=0)


# -- conveyance


def test_convey_literal_classical_input():
    rec = convey(ket2dm(ket("000")), (0, 0), "literal")
    assert rec.probability == pytest.approx(0.25, abs=1e-12)
    np.testing.assert_allclose(rec.state.matrix, ket2dm(ket("000")).matrix, atol=1e-12)


def test_convey_literal_ghz_diagonal():
    rec = convey(ket2dm(ghz(3)), (0, 0), "literal")
    np.testing.assert_allclose(
        rec.state.diagonal(), [0.5, 0, 0, 0, 0, 0, 0, 0.5], atol=1e-12
    )


def test_convey_literal_matches_gate_level_oracle():
    for seed in (3, 4):
        rho = random_density_matrix((2, 2, 2), seed)
        for nu1, nu2 in ((0, 0), (1, 0), (1, 1)):
            rec = convey(rho, (nu1, nu2), "literal")
            expect, prob = convey_literal_bruteforce(rho.matrix, nu1, nu2)
            np.testing.assert_allclose(rec.state.matrix, expect, atol=1e-12)
            assert rec.probability == pytest.approx(prob, abs=1e-12)


def test_convey_literal_preserves_diagonal():
    for seed in range(25):
        rho = random_density_matrix((2, 2, 2), seed)
        rec = convey(rho, (0, 0), "literal")
        np.testing.assert_allclose(rec.state.diagonal(), rho.diagonal(), atol=1e-12)


def test_convey_idealized_identity_for_zero_outcomes():
    rho = random_density_matrix((2, 2, 2), 8)
    rec = convey(rho, (0, 0), "idealized")
    np.testing.assert_array_equal(rec.state.matrix, rho.matrix)
    assert rec.probability == pytest.approx(0.25)


def test_convey_idealized_nonzero_outcomes_relabel():
    rho = random_density_matrix((2, 2, 2), 12)
    rec = convey(rho, (1, 0), "idealized")
    # same spectrum, and a pure bit-flip relabeling of the first party
    np.testing.assert_allclose(
        np.linalg.eigvalsh(rec.state.matrix), np.linalg.eigvalsh(rho.matrix), atol=1e-12
    )
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    u = np.kron(np.kron(x, np.eye(2)), np.eye(2))
    np.testing.assert_allclose(rec.state.matrix, u @ rho.matrix @ u, atol=1e-12)


def test_convey_outcome_probabilities_sum_to_one():
    rho = random_density_matrix((2, 2, 2), 21)
    total = 0.0
    for nu in itertools.product((0, 1), repeat=2):
        total += convey(rho, nu, "literal").probability
    assert total == pytest.approx(1.0, abs=1e-12)


def test_convey_validates_outcome_count():
    with pytest.raises(ShapeMismatch):
        convey(ket2dm(ghz(3)), (0,), "literal")


def _assert_same_record(fast, slow):
    assert fast.state.dims == slow.state.dims
    np.testing.assert_allclose(fast.state.matrix, slow.state.matrix, rtol=0, atol=1e-12)
    assert abs(fast.probability - slow.probability) <= 1e-12


GATE_DIMS = [(2, 2), (2, 2, 2), (2, 2, 2, 2), (3, 3), (2, 3), (3, 2, 3)]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("dims", GATE_DIMS, ids=str)
def test_closed_form_stages_match_gate_level_circuit(dims, seed):
    rho = random_density_matrix(dims, seed)
    for nu in itertools.product(*(range(l) for l in dims[:-1])):
        _assert_same_record(convey(rho, nu, "literal"), convey_literal_gates(rho, nu))
    for party, l in enumerate(dims):
        for variant in ("aligned", "flip"):
            for mu in range(l):
                _assert_same_record(
                    broadcast(rho, party, mu, variant),
                    broadcast_gates(rho, party, mu, variant),
                )


# -- broadcast


def test_broadcast_classical_state():
    rec = broadcast(ket2dm(ket("0")), 0, 0)
    assert rec.probability == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(rec.state.matrix, ket2dm(ket("00")).matrix, atol=1e-12)


def test_broadcast_plus_state_gives_bell_pair():
    plus = ket2dm(PureState((2,), [1 / SQ2, 1 / SQ2]))
    rec = broadcast(plus, 0, 0)
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / SQ2
    np.testing.assert_allclose(rec.state.matrix, np.outer(bell, bell.conj()), atol=1e-12)


def test_broadcast_copy_marginal_is_dephased_original():
    for seed in range(25):
        rho = random_density_matrix((2,), seed)
        rec = broadcast(rho, 0, 0)
        copy = partial_trace(rec.state, [1])
        np.testing.assert_allclose(copy.matrix, np.diag(rho.diagonal()), atol=1e-12)
        original = partial_trace(rec.state, [0])
        np.testing.assert_allclose(original.diagonal(), rho.diagonal(), atol=1e-12)


def test_broadcast_pairs_have_broadcast_form():
    rho = random_density_matrix((2,), 33)
    rec = broadcast(rho, 0, 0)
    expect = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            expect[i * 2 + i, j * 2 + j] = rho.matrix[i, j]
    np.testing.assert_allclose(rec.state.matrix, expect, atol=1e-12)


def test_broadcast_appends_copy_and_keeps_multiparty_layout():
    rho = random_density_matrix((2, 2), 2)
    rec = broadcast(rho, 1, 0)
    assert rec.state.dims == (2, 2, 2)
    # the untouched parties keep their joint state
    np.testing.assert_allclose(
        partial_trace(rec.state, [0, 1]).diagonal(), rho.diagonal(), atol=1e-12
    )
    # copy of party 1 sits last and mirrors its diagonal
    copy = partial_trace(rec.state, [2])
    party = partial_trace(rho, [1])
    np.testing.assert_allclose(copy.diagonal(), party.diagonal(), atol=1e-12)


def test_broadcast_outcome_probabilities_sum_to_one():
    rho = random_density_matrix((2,), 44)
    total = sum(broadcast(rho, 0, mu).probability for mu in (0, 1))
    assert total == pytest.approx(1.0, abs=1e-12)
