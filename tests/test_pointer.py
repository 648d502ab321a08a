"""Tests for the pointer coupling and postselected readout."""

import dataclasses
import math

import numpy as np
import pytest

from oracles import assemble, eq_weak_value, projector

from weakcorr import (
    PointerConfig,
    broadcast,
    convey,
    correlation,
    correlation_sweep,
    couple_all,
    device_table,
    extract_weak_value,
    ghz,
    hadamard_mub,
    ket,
    ket2dm,
    postselect_and_read,
    random_density_matrix,
)
from weakcorr.errors import InvariantViolation, LayoutMismatch, NullPostselection, ShapeMismatch
from weakcorr.qcore import DensityMatrix, PureState

SQ2 = np.sqrt(2.0)
CFG = PointerConfig()


def pipeline_state(rho, mu=0):
    """Literal conveyance plus one copy per party."""
    state = convey(rho, (0,) * (len(rho.dims) - 1), "literal").state
    for party in range(len(rho.dims)):
        state = broadcast(state, party, mu).state
    return state


def test_pointer_config_validation():
    with pytest.raises(InvariantViolation):
        PointerConfig(g=0.0)
    with pytest.raises(InvariantViolation):
        PointerConfig(sigma=-1.0)
    with pytest.raises(InvariantViolation):
        PointerConfig(g=math.inf)
    with pytest.raises(InvariantViolation):
        PointerConfig(sigma=math.inf)


@pytest.mark.parametrize("g, sigma", [(0.1, 1e-200), (1e200, 1e200)])
def test_pointer_config_with_undefined_damping_rate_raises(g, sigma):
    # 8 sigma^2 underflows to zero, or overflows along with g^2.
    with pytest.raises(InvariantViolation, match="undefined"):
        PointerConfig(g, sigma)


# Each extreme config with a config whose damping base exp(-g^2 / (8 sigma^2))
# is the same float: 0.0 for the first, 1.0 for the others.
EXTREME_CONFIGS = [
    ((1e170, 1.0), (1e3, 1.0)),
    ((1e-200, 1.0), (1e-30, 1.0)),
    ((0.1, 1e200), (1e-30, 1.0)),
]


@pytest.mark.parametrize("extreme, plain", EXTREME_CONFIGS)
def test_extreme_configs_with_a_defined_damping_rate_keep_their_correlation(extreme, plain):
    rho = random_density_matrix((2,) * 3, 11)
    cfgs = [PointerConfig(*extreme), PointerConfig(*plain)]
    got, want = (correlation(rho, "circuit", cfg=c, skip_broadcast=True).C for c in cfgs)
    assert math.isfinite(got) and got > 0.0 and got == want
    swept = correlation_sweep(rho, "idealized", cfgs, skip_broadcast=True)
    assert [r.C for r in swept] == [want, want]


@pytest.mark.parametrize(
    "g, sigma", [(1e-3, 1.0 / math.sqrt(2.0)), (0.05, 0.3), *(e for e, _ in EXTREME_CONFIGS)]
)
def test_pointer_config_computes_its_damping_rate_once_outside_its_fields(g, sigma):
    # The rate every damping reads; not a field, so no constructor argument
    # and no config key of the command line.
    cfg = PointerConfig(g, sigma)
    assert cfg.damping_rate == g * g / (8.0 * sigma * sigma)
    assert [f.name for f in dataclasses.fields(cfg)] == ["g", "sigma"]
    assert dataclasses.replace(cfg, sigma=0.5).damping_rate == g * g / 2.0


def test_couple_all_single_qubit_shift_indicators():
    table = device_table([2])
    bs = couple_all(ket2dm(ket("0")), table)
    assert (bs.kets.tolist(), bs.bras.tolist(), bs.weights.tolist()) == ([0], [0], [1 + 0j])
    # label 0 satisfies the |0><0| devices on both lines, never the |1><1| ones
    np.testing.assert_array_equal(bs.shifts[0, :, 0], [1, 1])
    np.testing.assert_array_equal(bs.shifts[0, :, 1], [0, 0])
    np.testing.assert_array_equal(bs.shifts[1, :, 1], [1, 1])


def test_couple_all_ghz_pipeline_branches():
    table = device_table([2, 2, 2])
    state = pipeline_state(ket2dm(ghz(3)))
    bs = couple_all(state, table)
    diag = [(k, w) for k, b, w in zip(bs.kets, bs.bras, bs.weights) if k == b]
    assert len(diag) == 2
    labels = sorted(k for k, _ in diag)
    assert labels == [0, 0b111111]  # 000 and 111 with matching copies
    for _, w in diag:
        assert w == pytest.approx(0.5, abs=1e-12)


def test_couple_all_layout_mismatch():
    table = device_table([2, 2, 2])
    with pytest.raises(LayoutMismatch):
        couple_all(random_density_matrix((2, 2), 0), table)


def test_branch_state_assemble_round_trip():
    table = device_table([2, 2, 2])
    state = pipeline_state(random_density_matrix((2, 2, 2), 5))
    bs = couple_all(state, table)
    np.testing.assert_allclose(assemble(bs).matrix, state.matrix, atol=1e-12)
    skip = couple_all(random_density_matrix((2, 2, 2), 6), table)
    np.testing.assert_allclose(
        assemble(skip).matrix, random_density_matrix((2, 2, 2), 6).matrix, atol=1e-15
    )


def test_always_satisfied_projector_reads_exact_shift():
    table = device_table([2])
    plus = PureState((2,), [1 / SQ2, 1 / SQ2])
    for g in (1e-1, 1e-3):
        cfg = PointerConfig(g=g)
        bs = couple_all(ket2dm(ket("0")), table)
        readings = postselect_and_read(bs, plus, cfg)
        assert abs(readings.delta_q[0, 0] - g) < 1e-14
        assert abs(readings.delta_p[0, 0]) < 1e-14
        assert abs(readings.delta_q[0, 1]) < 1e-14


def test_ghz_pipeline_line1_reading_matches_dephased_weak_value():
    table = device_table([2, 2, 2])
    state = pipeline_state(ket2dm(ghz(3)))
    mub = hadamard_mub(3)
    for g in (1e-2, 1e-3):
        cfg = PointerConfig(g=g)
        bs = couple_all(state, table)
        readings = postselect_and_read(bs, mub.vectors[0], cfg)
        assert readings.delta_q[0, 0] / g == pytest.approx(0.5, abs=1e-12)
        assert readings.postselection_probability == pytest.approx(1 / 8, abs=1e-12)


def test_real_weak_values_leave_momentum_untouched():
    table = device_table([2, 2, 2])
    rho = random_density_matrix((2, 2, 2), 9)
    state = pipeline_state(rho)
    mub = hadamard_mub(3)
    bs = couple_all(state, table)
    readings = postselect_and_read(bs, mub.vectors[3], CFG)
    np.testing.assert_allclose(readings.delta_p, 0.0, atol=1e-14)


def test_postselect_rejects_wrong_dimension_and_null():
    table = device_table([2, 2, 2])
    state = pipeline_state(ket2dm(ghz(3)))
    bs = couple_all(state, table)
    with pytest.raises(ShapeMismatch):
        postselect_and_read(bs, PureState((2,), [1, 0]), CFG)
    # a postselection with no support on the state's diagonal is null
    solo = couple_all(ket2dm(ket("0")), device_table([2]))
    with pytest.raises(NullPostselection):
        postselect_and_read(solo, ket("1"), CFG)


def test_forbidden_postselection_leaks_in_quadratically():
    # the weak couplings disturb the state, so a postselection orthogonal to
    # the undisturbed state picks up a residual probability of order g^2
    skip_bs = couple_all(ket2dm(ghz(3)), device_table([2, 2, 2]))
    readings = postselect_and_read(skip_bs, hadamard_mub(3).vectors[1], CFG)
    assert 0 < readings.postselection_probability < CFG.g**2


def test_extract_weak_value_trivial_readings():
    cfg = PointerConfig(g=0.5)
    assert extract_weak_value(0.5, 0.0, cfg) == pytest.approx(1.0)
    assert extract_weak_value(0.25, 0.0, cfg) == pytest.approx(0.5)


def test_extract_weak_value_sigma_calibration():
    # with sigma != 1/sqrt(2), Im W = 2 sigma^2 delta_p / g
    w = extract_weak_value(0.0, 0.3, PointerConfig(g=1.0, sigma=1.0))
    assert w == pytest.approx(0.6j)


def test_extraction_inverts_synthetic_complex_weak_values():
    # couple the devices directly to a coherent state and compare against
    # the postselected weak-value formula evaluated by brute force
    table = device_table([2, 2, 2])
    rho = random_density_matrix((2, 2, 2), 31)
    mub = hadamard_mub(3)
    cfg = PointerConfig(g=1e-4)
    bs = couple_all(rho, table)
    eye = np.eye(2, dtype=complex)
    for k in (0, 5):
        b = mub.vectors[k]
        readings = postselect_and_read(bs, b, cfg)
        w = extract_weak_value(readings.delta_q, readings.delta_p, cfg)
        for i in (0, 3, 6):
            expect = eq_weak_value(rho.matrix, projector(table, 0, i), b.amplitudes)
            assert abs(w[0, i] - expect) < 1e-3
        for line, i in ((1, 2), (2, 4), (3, 7)):
            digit = table.party_digits[i, line - 1]
            ops = [np.diag(eye[digit]) if p == line - 1 else eye for p in range(3)]
            full = np.kron(np.kron(ops[0], ops[1]), ops[2])
            expect = eq_weak_value(rho.matrix, full, b.amplitudes)
            assert abs(w[line, i] - expect) < 1e-3


def test_weak_limit_exact_for_diagonal_states():
    # diagonal states produce no cross terms, so the extraction matches the
    # postselected weak value identically at every coupling strength
    table = device_table([2, 2, 2])
    mub = hadamard_mub(3)
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = rng.random(8)
        rho = DensityMatrix((2, 2, 2), np.diag(p / p.sum()).astype(complex))
        for g in (1e-1, 1e-2, 1e-3):
            cfg = PointerConfig(g=g)
            bs = couple_all(rho, table)
            readings = postselect_and_read(bs, mub.vectors[0], cfg)
            w = extract_weak_value(readings.delta_q, readings.delta_p, cfg)
            for i in range(8):
                expect = eq_weak_value(
                    rho.matrix, projector(table, 0, i), mub.matrix[0].astype(complex)
                )
                assert abs(w[0, i] - expect) < 1e-12


def test_weak_limit_error_shrinks_with_g_for_coherent_states():
    table = device_table([2, 2, 2])
    mub = hadamard_mub(3)
    rho = random_density_matrix((2, 2, 2), 77)
    errs = []
    for g in (1e-2, 5e-3, 2.5e-3):
        cfg = PointerConfig(g=g)
        bs = couple_all(rho, table)
        readings = postselect_and_read(bs, mub.vectors[0], cfg)
        w = extract_weak_value(readings.delta_q, readings.delta_p, cfg)
        expect = eq_weak_value(rho.matrix, projector(table, 0, 0), mub.matrix[0].astype(complex))
        errs.append(abs(w[0, 0] - expect))
    assert errs[0] <= 1e-2 and errs[2] <= errs[1] <= errs[0]


def test_simultaneous_readout_covers_every_device():
    table = device_table([2, 2, 2])
    state = pipeline_state(random_density_matrix((2, 2, 2), 13))
    bs = couple_all(state, table)
    readings = postselect_and_read(bs, hadamard_mub(3).vectors[2], CFG)
    assert readings.delta_q.shape == (4, 8)
    assert readings.delta_p.shape == (4, 8)
    assert np.all(np.isfinite(readings.delta_q))


def test_many_devices_disturb_single_device_readings_weakly():
    table = device_table([2, 2, 2])
    rho = random_density_matrix((2, 2, 2), 55)
    cfg = PointerConfig(g=1e-3)
    bs = couple_all(rho, table)  # 32 devices on the bare state
    full = postselect_and_read(bs, hadamard_mub(3).vectors[0], cfg)
    for line, col in ((0, 0), (1, 1), (3, 5)):
        mask = np.zeros_like(bs.shifts)
        mask[:, line, col] = bs.shifts[:, line, col]
        solo_bs = dataclasses.replace(bs, shifts=mask)
        solo = postselect_and_read(solo_bs, hadamard_mub(3).vectors[0], cfg)
        scale = max(abs(solo.delta_q[line, col]), cfg.g)
        diff = abs(full.delta_q[line, col] - solo.delta_q[line, col])
        assert diff / scale < 1e-4
