"""The argument checks of the library entry points.

Every measurement outcome, wherever it enters, passes one rule
(``qcore._outcome``): it is an integer in [0, d_p).  Each entry point keeps
its own error types, messages and order of checks around that rule.  Every
size and subsystem index is read by the integer rule under it
(``qcore._integer``): a value that is not an integer is refused, not
truncated, and a numpy integer is accepted.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from weakcorr import (
    BasisSet,
    DensityMatrix,
    DeviceTable,
    PointerConfig,
    PureState,
    bell_state,
    broadcast,
    computational_basis,
    convey,
    correlation,
    correlation_sweep,
    device_table,
    hadamard_mub,
    ket,
    ket2dm,
    maximally_mixed,
    partial_trace,
    random_density_matrix,
    strong_couple_and_measure,
    tensor_product,
    weak_value_limits,
)
from weakcorr.cli import main
from weakcorr.errors import (
    BadDimension,
    BadSize,
    BadSubsystem,
    ImpossibleOutcome,
    ShapeMismatch,
)
from weakcorr.qcore import digit_table

QUBITS = random_density_matrix((2, 2, 2), 1)
QUTRITS = random_density_matrix((3, 3), 2)
CFGS = [PointerConfig(0.05)]
GHZ = str(Path(__file__).parent / "fixtures" / "ghz3.json")


def sweep_reports(**kwargs):
    return list(correlation_sweep(QUBITS, "literal", CFGS, **kwargs))


# entry -> (the dimension the outcome is checked against, call with the outcome)
ENTRIES = {
    "analytic outcomes": (2, lambda v: correlation(QUBITS, outcomes=[0, v])),
    "analytic broadcast": (2, lambda v: correlation(QUBITS, broadcast_outcome=v)),
    "copies outcomes": (2, lambda v: correlation(QUBITS, "circuit", outcomes=[v, 0])),
    "copies broadcast": (2, lambda v: correlation(QUBITS, "circuit", broadcast_outcome=v)),
    "no-copies outcomes": (
        2,
        lambda v: correlation(QUBITS, "circuit", outcomes=[v, 0], skip_broadcast=True),
    ),
    "no-copies broadcast": (
        2,
        lambda v: correlation(QUBITS, "circuit", broadcast_outcome=v, skip_broadcast=True),
    ),
    "copies sweep outcomes": (2, lambda v: sweep_reports(outcomes=[0, v])),
    "copies sweep broadcast": (2, lambda v: sweep_reports(broadcast_outcome=v)),
    "no-copies sweep outcomes": (
        2,
        lambda v: sweep_reports(outcomes=[v, 0], skip_broadcast=True),
    ),
    "no-copies sweep broadcast": (
        2,
        lambda v: sweep_reports(broadcast_outcome=v, skip_broadcast=True),
    ),
    "copies limits": (2, lambda v: weak_value_limits(QUBITS, hadamard_mub(3), v)),
    "no-copies limits": (2, lambda v: weak_value_limits(QUBITS, hadamard_mub(3), v, True)),
    "literal convey": (3, lambda v: convey(QUTRITS, [v], "literal")),
    "idealized convey": (3, lambda v: convey(QUTRITS, [v], "idealized")),
    "broadcast": (3, lambda v: broadcast(QUTRITS, 1, v)),
    "strong coupling": (
        3,
        lambda v: strong_couple_and_measure(
            tensor_product(QUTRITS, ket2dm(bell_state(3))), 0, 2, v
        ),
    ),
}


def assert_refused(call, error, message):
    """``call()`` raises exactly ``error`` with exactly ``message``."""
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == f"{error.code}: {message}"


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("case", ["non-integer", "negative", "d_p"])
def test_every_outcome_entry_point_keeps_the_one_rule(entry, case):
    d, call = ENTRIES[entry]
    value, message = {
        "non-integer": (1.5, "outcome 1.5 is not an integer"),
        "negative": (-1, f"outcome -1 out of range for dimension {d}"),
        "d_p": (d, f"outcome {d} out of range for dimension {d}"),
    }[case]
    assert_refused(lambda: call(value), ImpossibleOutcome, message)


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("skip", [False, True])
@pytest.mark.parametrize("at", [0, 2])  # a conveyance result, the broadcast result
@pytest.mark.parametrize(
    "value, code, message",
    [
        (1.5, 2, 'parse-failure: outcomes must be a list of integers or "enumerate"'),
        (-1, 3, "impossible-outcome: outcome -1 out of range for dimension 2"),
        (2, 3, "impossible-outcome: outcome 2 out of range for dimension 2"),
    ],
)
def test_the_command_line_keeps_the_one_rule(
    tmp_path, capsys, command, skip, at, value, code, message
):
    outcomes = [0, 0, 0]
    outcomes[at] = value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {"backend": "circuit", "mode": "literal", "outcomes": outcomes, "skip_broadcast": skip}
        )
    )
    argv = [command, "--state", GHZ, "--config", str(cfg)]
    if command == "sweep":
        argv += ["--g-list", "0.1,0.01"]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


# entry -> (its error type, what it calls the value, call with a size or
# index v, what that call returns at v = 2, or v = 0 for an index).  Each
# size entry reads v as one party's dimension or as the qubit count;
# partial_trace reads it as the subsystem it keeps.
SIZE_ENTRIES = {
    "DensityMatrix": (
        ShapeMismatch,
        "subsystem dimension",
        lambda v: DensityMatrix((v, 2), np.eye(4) / 4).dims,
        (2, 2),
    ),
    "PureState": (
        ShapeMismatch,
        "subsystem dimension",
        lambda v: PureState((v,), [1, 0]).dims,
        (2,),
    ),
    "BasisSet": (
        ShapeMismatch,
        "subsystem dimension",
        lambda v: BasisSet((v,), np.eye(2), ["0", "1"]).dims,
        (2,),
    ),
    "computational_basis": (
        ShapeMismatch,
        "subsystem dimension",
        lambda v: computational_basis((v, 2)).dims,
        (2, 2),
    ),
    "device_table": (
        ShapeMismatch,
        "subsystem dimension",
        lambda v: device_table((v, 2)).dims,
        (2, 2),
    ),
    "digit_table": (
        ShapeMismatch,
        "subsystem dimension",
        lambda v: digit_table((v, 2)).shape,
        (4, 2),
    ),
    "random_density_matrix": (
        ShapeMismatch,
        "subsystem dimension",
        lambda v: random_density_matrix((v, 2), 0).dims,
        (2, 2),
    ),
    "maximally_mixed": (
        ShapeMismatch,
        "subsystem dimension",
        lambda v: maximally_mixed((v, 2)).dims,
        (2, 2),
    ),
    "hadamard_mub": (BadSize, "qubit count", lambda v: hadamard_mub(v).dims, (2, 2)),
    "bell_state": (BadDimension, "ancilla dimension", lambda v: bell_state(v).dims, (2, 2)),
    "partial_trace": (
        BadSubsystem,
        "subsystem index",
        lambda v: partial_trace(QUBITS, [v]).dims,
        (2,),
    ),
}


@pytest.mark.parametrize("entry", SIZE_ENTRIES)
@pytest.mark.parametrize("whole", [False, True])  # 2.0 is refused as 1.0 is for an outcome
def test_every_size_and_index_is_read_by_the_integer_rule(entry, whole):
    error, what, call, _ = SIZE_ENTRIES[entry]
    value = (0.0 if whole else 0.5) if entry == "partial_trace" else (2.0 if whole else 2.5)
    assert_refused(lambda: call(value), error, f"{what} {value!r} is not an integer")


@pytest.mark.parametrize("entry", SIZE_ENTRIES)
def test_every_size_and_index_accepts_a_numpy_integer(entry):
    _, _, call, accepted = SIZE_ENTRIES[entry]
    read = call(np.int64(0 if entry == "partial_trace" else 2))
    assert read == accepted
    assert all(type(v) is int for v in read)


def test_a_cached_size_is_read_before_its_cache_entry():
    # A cache key 2.0 equals np.int64(2): hadamard_mub's cache is typed, so
    # 2.0 never returns the entry that np.int64(2) left.
    hadamard_mub(np.int64(2))
    assert_refused(lambda: hadamard_mub(2.0), BadSize, "qubit count 2.0 is not an integer")


NOT_AN_INTEGER = "outcome 1.5 is not an integer"
NO_ANCILLA = "ancilla dimension must be >= 2, got 1"


def test_convey_reads_every_outcome_before_counting_them():
    assert_refused(lambda: convey(QUBITS, [1.5, 0, 9]), ImpossibleOutcome, NOT_AN_INTEGER)
    assert_refused(lambda: convey(QUBITS, [0, 0, 9]), ShapeMismatch, "expected 2 outcomes, got 3")
    assert_refused(
        lambda: convey(QUBITS, [9, 0], "wired"), ShapeMismatch, "unknown conveyance mode 'wired'"
    )


def test_a_dimension_one_party_is_refused_before_its_outcome_range():
    # A party of dimension 1 has no ancilla pair to measure: literal conveyance
    # and broadcast refuse it before checking the outcome's range, and
    # broadcast still reads a non-integer outcome first.
    rho = maximally_mixed((1, 2))
    assert_refused(lambda: convey(rho, [1], "literal"), BadDimension, NO_ANCILLA)
    assert_refused(
        lambda: convey(rho, [1], "idealized"),
        ImpossibleOutcome,
        "outcome 1 out of range for dimension 1",
    )
    assert_refused(lambda: broadcast(rho, 0, 1), BadDimension, NO_ANCILLA)
    assert_refused(lambda: broadcast(rho, 0, 1.5), ImpossibleOutcome, NOT_AN_INTEGER)


def test_correlation_checks_the_broadcast_outcome_before_the_conveyance_range():
    # Both are read as integers first; the conveyance results are range-checked
    # only when the state is conveyed.
    assert_refused(
        lambda: correlation(QUBITS, outcomes=[1.5, 0], broadcast_outcome=0.5),
        ImpossibleOutcome,
        NOT_AN_INTEGER,
    )
    assert_refused(
        lambda: correlation(QUBITS, outcomes=[7, 0], broadcast_outcome=5),
        ImpossibleOutcome,
        "outcome 5 out of range for dimension 2",
    )


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: correlation(QUBITS, "quantum"), ShapeMismatch, "unknown backend 'quantum'"),
        (
            lambda: correlation(maximally_mixed((2,))),
            BadDimension,
            "correlation needs at least two parties",
        ),
        (
            lambda: correlation(QUBITS, postselection=hadamard_mub(2)),
            ShapeMismatch,
            "postselection basis does not match the state dims",
        ),
        (
            lambda: convey(ket2dm(ket("0")), []),
            ShapeMismatch,
            "conveyance needs at least two parties",
        ),
        (lambda: broadcast(QUBITS, 3, 0), BadSubsystem, "party 3 out of range for 3 subsystems"),
        (lambda: broadcast(QUBITS, -1, 0), BadSubsystem, "party -1 out of range for 3 subsystems"),
        (
            lambda: strong_couple_and_measure(QUBITS, 3, 0, 0),
            BadSubsystem,
            "control 3 / target 0 out of range",
        ),
        (
            lambda: strong_couple_and_measure(QUBITS, 0, -1, 1.5),
            BadSubsystem,
            "control 0 / target -1 out of range",
        ),
    ],
)
def test_library_rejections_name_the_bad_argument(call, error, message):
    assert_refused(call, error, message)


@pytest.mark.parametrize(
    "digits, message",
    [
        ([[0.7], [1.9]], "party digit 0.7 is not an integer"),
        ([[1.0], [0]], "party digit 1.0 is not an integer"),
        ([[5], [-3]], "digit 5 out of range for dimension 2"),
        ([[0], [-3]], "digit -3 out of range for dimension 2"),
    ],
)
def test_a_device_table_reads_each_digit_by_the_integer_rule_and_its_range(digits, message):
    assert_refused(lambda: DeviceTable((2,), digits, ("0", "1")), BadSubsystem, message)


def test_a_device_table_checks_its_shape_before_its_digits():
    assert_refused(
        lambda: DeviceTable((2,), [[0.7]], ("0",)),
        ShapeMismatch,
        "party digit table does not match dims",
    )


def test_a_device_table_accepts_integer_digits():
    table = device_table((2, 3))
    again = DeviceTable((2, 3), np.array(table.party_digits, dtype=np.int64), table.labels)
    assert again.party_digits.dtype == table.party_digits.dtype == np.dtype(int)
    assert again.party_digits.tolist() == digit_table((2, 3)).tolist()
    mixed = DeviceTable((3,), [[np.int64(2)], [0], [1]], "abc")
    assert mixed.party_digits.tolist() == [[2], [0], [1]]


@pytest.mark.parametrize("label, character", [("x", "x"), ("-1", "-"), ("0a", "a")])
def test_ket_names_a_label_character_that_is_not_a_digit(label, character):
    message = f"label character {character!r} is not a digit"
    assert_refused(lambda: ket(label), BadSubsystem, message)


def test_ket_reads_every_digit_label_as_before():
    assert ket("01").amplitudes.tolist() == [0, 1, 0, 0]
    assert np.flatnonzero(ket("21", (3, 2)).amplitudes).tolist() == [5]
    assert_refused(lambda: ket("2"), BadSubsystem, "digit 2 out of range for dimension 2")
