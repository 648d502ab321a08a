"""End-to-end tests for the command-line front end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import weakcorr
from weakcorr.cli import MAX_DIM, dump_state, load_state, main

FIXTURES = Path(__file__).parent / "fixtures"
GHZ = str(FIXTURES / "ghz3.json")
CLASSICAL = str(FIXTURES / "classical3.json")
PRODUCT = str(FIXTURES / "product3.json")
RANDOM7 = str(FIXTURES / "random3_seed7.json")
CFG_ANALYTIC = str(FIXTURES / "config_analytic.json")
CFG_CIRCUIT = str(FIXTURES / "config_circuit.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# -- tables


def test_tables_three_qubits_matches_golden(capsys):
    code, out, _ = run_cli(capsys, "tables", "3")
    assert code == 0
    golden = (FIXTURES / "tables_n3.txt").read_text()
    assert out == golden


def test_tables_single_party_lines_identical(capsys):
    _, out, _ = run_cli(capsys, "tables", "1")
    rows = [l for l in out.splitlines() if l.startswith("line ") and "><" in l]
    assert len(rows) == 2
    assert rows[0].split(None, 2)[2] == rows[1].split(None, 2)[2]


def test_tables_two_parties_reports_ok(capsys):
    _, out, _ = run_cli(capsys, "tables", "2")
    assert "reconstruction (line 1 = tensor of lines 2..3): OK" in out
    assert "mutually unbiased to the computational basis: OK" in out


def test_tables_rejects_bad_size(capsys):
    code, _, err = run_cli(capsys, "tables", "0")
    assert code == 2 and "n_qubits" in err


def test_tables_rejects_size_above_limit(capsys):
    code, out, err = run_cli(capsys, "tables", "30")
    assert code == 2 and out == ""
    assert "n_qubits" in err and str(MAX_DIM) in err


def test_tables_csv_format(capsys):
    _, out, _ = run_cli(capsys, "tables", "2", "--format", "csv")
    assert "device,1,1,|00><00|" in out
    assert "basis,4,+,-,-,+" in out


# -- run


def test_run_ghz_analytic_report(capsys):
    doc = run_json(capsys, "run", "--state", GHZ, "--config", CFG_ANALYTIC)
    assert doc["backend"] == "analytic" and doc["mode"] == "idealized"
    assert doc["correlation"] == pytest.approx(1.5, abs=1e-10)
    assert doc["skipped_k"] == [2, 3, 5, 8]
    assert doc["oracle_diag"] == pytest.approx(1.5, abs=1e-10)
    assert doc["diagnostics"]["max_completeness_residual"] < 1e-10
    probs = [row["probability"] for row in doc["per_postselection"]]
    assert sum(probs) == pytest.approx(1.0, abs=1e-10)


def test_run_product_state_yields_zero(capsys):
    doc = run_json(capsys, "run", "--state", PRODUCT, "--config", CFG_ANALYTIC)
    assert abs(doc["correlation"]) < 1e-10
    assert doc["skipped_k"] == []


def test_run_decomposition_form_state(capsys):
    doc = run_json(capsys, "run", "--state", CLASSICAL, "--config", CFG_ANALYTIC)
    assert doc["correlation"] == pytest.approx(1.5, abs=1e-10)
    assert doc["skipped_k"] == []


def test_run_circuit_backend(capsys):
    doc = run_json(capsys, "run", "--state", GHZ, "--config", CFG_CIRCUIT)
    assert doc["backend"] == "circuit" and doc["mode"] == "literal"
    assert doc["correlation"] == pytest.approx(1.5, abs=1e-10)
    assert doc["g"] == pytest.approx(1e-3)


def test_run_flag_overrides_config(capsys):
    doc = run_json(
        capsys, "run", "--state", GHZ, "--config", CFG_ANALYTIC, "--backend", "circuit"
    )
    assert doc["backend"] == "circuit"


def test_run_reports_are_byte_stable(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["run", "--state", GHZ, "--config", CFG_CIRCUIT, "--out", str(a)]) == 0
    assert main(["run", "--state", GHZ, "--config", CFG_CIRCUIT, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_with_basis_file_matches_builtin(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "backend": "analytic",
                "mode": "idealized",
                "postselection_basis": str(FIXTURES / "basis_hadamard3.json"),
            }
        )
    )
    doc = run_json(capsys, "run", "--state", GHZ, "--config", str(cfg))
    assert doc["correlation"] == pytest.approx(1.5, abs=1e-10)


def test_run_enumerate_outcomes(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"backend": "analytic", "outcomes": "enumerate"}))
    doc = run_json(capsys, "run", "--state", GHZ, "--config", str(cfg))
    assert len(doc["runs"]) == 8  # four conveyance words times two copy results
    values = {round(block["correlation"], 9) for block in doc["runs"]}
    assert values == {1.5}


def test_run_skip_broadcast_and_outcomes_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "backend": "circuit",
                "mode": "idealized",
                "g": 1e-4,
                "outcomes": [0, 0, 0],
                "skip_broadcast": True,
            }
        )
    )
    doc = run_json(capsys, "run", "--state", GHZ, "--config", str(cfg))
    assert doc["skip_broadcast"] is True
    assert doc["correlation"] == pytest.approx(1.5, abs=1e-6)


def test_log_level_env_var(monkeypatch, capsys):
    monkeypatch.setenv("WEAKCORR_LOG", "DEBUG")
    code, out, _ = run_cli(capsys, "tables", "1")
    assert code == 0 and "device operator table" in out


def test_run_csv_format(capsys):
    code, out, _ = run_cli(capsys, "run", "--state", GHZ, "--config", CFG_ANALYTIC, "--format", "csv")
    assert code == 0
    assert out.startswith("# outcomes=00 broadcast_outcome=0 correlation=1.5")
    assert "k,label,probability,term,skipped" in out


def test_run_weak_value_table_in_report(capsys):
    doc = run_json(capsys, "run", "--state", GHZ, "--config", CFG_ANALYTIC)
    rows = {(row["k"], row["line"]): row["values"] for row in doc["weak_values"]}
    assert (1, 1) in rows and len(rows[(1, 1)]) == 8
    # line-1 weak values of the first postselection: 1/2 at columns 1 and 8
    first = rows[(1, 1)]
    assert first[0][0] == pytest.approx(0.5, abs=1e-10)
    assert first[7][0] == pytest.approx(0.5, abs=1e-10)
    assert first[3][0] == pytest.approx(0.0, abs=1e-10)


# -- error handling and exit codes


def test_malformed_json_exits_2_with_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dims": [2,\n  "entries": }')
    code, _, err = run_cli(capsys, "run", "--state", str(bad))
    assert code == 2
    assert "line" in err and "column" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "run", "--state", "/nonexistent/state.json")
    assert code == 2


def test_non_hermitian_state_exits_3_naming_invariant(tmp_path, capsys):
    doc = {"dims": [2], "entries": [[1.0, 0.0], [0.5, 0.0], [0.0, 0.0], [0.0, 0.0]]}
    bad = tmp_path / "state.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "run", "--state", str(bad))
    assert code == 3
    assert "hermiticity" in err


def test_oversized_state_exits_2_before_allocating(tmp_path, capsys):
    # 22 qubits would need a 2**22 x 2**22 matrix; the file itself is tiny.
    doc = {"dims": [2] * 22, "terms": [{"p": 1, "amplitudes": [[1, 0]]}]}
    big = tmp_path / "state.json"
    big.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "run", "--state", str(big))
    assert code == 2
    assert "dims" in err and str(MAX_DIM) in err


def test_bad_decomposition_weights_exit_3(tmp_path, capsys):
    amp = [[1.0, 0.0], [0.0, 0.0]]
    doc = {"dims": [2], "terms": [{"p": 0.7, "amplitudes": amp}]}
    bad = tmp_path / "state.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "run", "--state", str(bad))
    assert code == 3 and "weights" in err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"backend": "analytic", "wat": 1}))
    code, _, err = run_cli(capsys, "run", "--state", GHZ, "--config", str(cfg))
    assert code == 2 and "wat" in err


def test_nonpositive_g_exits_3(capsys):
    code, _, err = run_cli(capsys, "run", "--state", GHZ, "--g", "-1.0")
    assert code == 3 and "positive" in err


@pytest.mark.parametrize(
    "config, flags, field",
    [
        ('{"g": "abc"}', (), "g"),
        ('{"g": null}', (), "g"),
        ('{"g": [1]}', (), "g"),
        ('{"g": 1e400}', (), "g"),
        ('{"g": 1' + "0" * 400 + "}", (), "g"),
        ('{"sigma": "nan"}', (), "sigma"),
        ("{}", ("--g", "inf", "--backend", "circuit"), "g"),
        ("{}", ("--sigma", "nan"), "sigma"),
    ],
)
def test_g_and_sigma_must_be_finite_numbers(tmp_path, capsys, config, flags, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    code, out, err = run_cli(capsys, "run", "--state", GHZ, "--config", str(cfg), *flags)
    assert (code, out) == (2, "")
    assert err == f"error: parse-failure: {field} must be a finite number\n"


def test_usage_error_exits_2(capsys):
    assert main(["run"]) == 2
    assert main(["nonsense"]) == 2


def test_internal_failure_exits_4(monkeypatch, capsys):
    import weakcorr.cli as cli_mod

    def boom(*args, **kwargs):
        raise np.linalg.LinAlgError("synthetic failure")

    monkeypatch.setattr(cli_mod, "correlation", boom)
    code, _, err = run_cli(capsys, "run", "--state", GHZ)
    assert code == 4 and "internal error" in err


def test_garbage_bytes_never_crash(tmp_path, capsys):
    bad = tmp_path / "garbage.json"
    bad.write_bytes(b"\x00\xff\x13 not json at all")
    code, _, _ = run_cli(capsys, "run", "--state", str(bad))
    assert code == 2


# -- sweep


def test_sweep_ghz_reports_exact_circuit_values(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--state",
        GHZ,
        "--config",
        CFG_CIRCUIT,
        "--g-list",
        "1e-2,5e-3,2.5e-3",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# oracle_diag=1.5")
    header = lines[1].split(",")
    assert header[:2] == ["g", "correlation_circuit"]
    rows = [l.split(",") for l in lines[2:]]
    assert len(rows) == 3
    for row in rows:
        assert float(row[1]) == pytest.approx(1.5, abs=1e-10)
        assert float(row[2]) < 1e-10  # the copy readout is exact in g
        assert float(row[3]) < 1e-8
    assert rows[0][4] == "na"


def test_sweep_product_state_stays_null(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--state", PRODUCT, "--g-list", "1e-3,1e-4", "--mode", "literal"
    )
    assert code == 0
    for line in out.strip().splitlines()[2:]:
        assert float(line.split(",")[1]) <= 1e-8


def test_sweep_json_format(capsys):
    doc = run_json(
        capsys, "sweep", "--state", GHZ, "--mode", "literal",
        "--g-list", "1e-2,5e-3", "--format", "json",
    )
    assert doc["oracle_diag"] == pytest.approx(1.5, abs=1e-10)
    assert len(doc["rows"]) == 2
    assert doc["rows"][0]["g"] == pytest.approx(1e-2)


def test_run_enumerate_csv(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"backend": "analytic", "outcomes": "enumerate"}))
    code, out, _ = run_cli(
        capsys, "run", "--state", GHZ, "--config", str(cfg), "--format", "csv"
    )
    assert code == 0
    assert out.count("# outcomes=") == 8


def test_sweep_rejects_bad_g_lists(capsys):
    for glist in ("", "1e-3,1e-2", "0,1e-3", "abc", "nan", "inf,1e-3", "1e-2,nan"):
        code, _, err = run_cli(
            capsys, "sweep", "--state", GHZ, "--g-list", glist
        )
        assert code == 2, glist


def test_sweep_rejects_out_of_range_broadcast_outcome(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"outcomes": [0, 0, 5]}))
    code, out, err = run_cli(
        capsys, "sweep", "--state", GHZ, "--config", str(cfg), "--g-list", "1e-2,1e-3"
    )
    assert code == 3 and out == ""
    assert "outcome 5 out of range for dimension 2" in err


def test_sweep_requires_g_list(capsys):
    assert main(["sweep", "--state", GHZ]) == 2


# -- oracle


def test_oracle_ghz_reconstruction(capsys):
    doc = run_json(capsys, "oracle", "--state", GHZ)
    assert doc["max_reconstruction_residual"] < 1e-10
    assert doc["oracle_diag"] == pytest.approx(1.5, abs=1e-10)
    # GHZ minus I/8 has one eigenvalue 7/8 and seven eigenvalues -1/8
    assert doc["trace_distance_to_marginal_product"] == pytest.approx(0.875, abs=1e-10)
    direct = doc["direct_elements"]
    assert direct[0][7][0] == pytest.approx(0.5, abs=1e-12)


def test_oracle_random_state(capsys):
    doc = run_json(capsys, "oracle", "--state", RANDOM7)
    assert doc["max_reconstruction_residual"] < 1e-10


def test_oracle_maximally_mixed_diag(tmp_path, capsys):
    entries = [[0.0, 0.0]] * 64
    for i in range(8):
        entries[i * 8 + i] = [1 / 8, 0.0]
    state = tmp_path / "mixed.json"
    state.write_text(json.dumps({"dims": [2, 2, 2], "entries": entries}))
    doc = run_json(capsys, "oracle", "--state", str(state))
    assert abs(doc["oracle_diag"]) < 1e-12


def test_oracle_csv(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--state", GHZ, "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].startswith("i,j,direct_re")


def test_oracle_csv_seven_qubits(tmp_path, capsys):
    state = tmp_path / "random7.json"
    state.write_text(dump_state(weakcorr.random_density_matrix((2,) * 7, 0)))
    code, out, err = run_cli(capsys, "oracle", "--state", str(state), "--format", "csv")
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0].startswith("i,j,direct_re")
    assert len(lines) == 1 + 128**2 + 1
    assert lines[-1].startswith("# max_reconstruction_residual=")
    assert float(lines[-1].split("=")[1]) < 1e-10


# -- parse errors in state and basis files

ZERO = [0.0, 0.0]


def dense_state(*head):
    """A two-qubit dense state file whose entries start with ``head``."""
    return {"dims": [2, 2], "entries": list(head) + [ZERO] * (16 - len(head))}


@pytest.mark.parametrize(
    "doc, message",
    [
        (dense_state(["1", 0.0]), "entry must be a [re, im] pair, got ['1', 0.0]"),
        (dense_state(1.0), "entry must be a [re, im] pair, got 1.0"),
        (dense_state([1.0, 0.0, 0.0]), "entry must be a [re, im] pair, got [1.0, 0.0, 0.0]"),
        (dense_state([None, 0.0]), "entry must be a [re, im] pair, got [None, 0.0]"),
        ({"dims": [2, 2], "entries": [ZERO] * 15}, '"entries" must hold 16 [re, im] pairs (row-major)'),
        (
            {"dims": [2], "terms": [{"p": 1.0, "amplitudes": ["1", ZERO]}]},
            "amplitude must be a [re, im] pair, got '1'",
        ),
    ],
)
def test_malformed_state_entries_exit_2(tmp_path, capsys, doc, message):
    state = tmp_path / "state.json"
    state.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "run", "--state", str(state))
    assert code == 2 and out == ""
    assert err == f"error: parse-failure: {message}\n"


# Each state or config below is accepted, every boolean read as 1 or 0, unless
# booleans are rejected where numbers are expected.  A state file is read by
# `oracle`, a config by `run` on the GHZ state.
BOOLEAN_CASES = {
    "entries": (
        {"dims": [2], "entries": [[True, False], [0, 0], [0, 0], [False, False]]},
        None,
        "entry must be a [re, im] pair, got [True, False]",
    ),
    "amplitudes": (
        {"dims": [2], "terms": [{"p": 1.0, "amplitudes": [[True, 0], [0, 0]]}]},
        None,
        "amplitude must be a [re, im] pair, got [True, 0]",
    ),
    "basis-amplitudes": (
        None,
        {"postselection_basis": "basis.json"},
        "amplitude must be a [re, im] pair, got [True, False]",
    ),
    "p": (
        {"dims": [2], "terms": [{"p": True, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}]},
        None,
        'decomposition weight "p" must be a number, got True',
    ),
    "outcomes": (
        None,
        {"outcomes": [True, False]},
        'outcomes must be a list of integers or "enumerate"',
    ),
    "seed": (None, {"seed": True}, "seed must be an integer"),
    "g": (None, {"g": True}, "g must be a finite number"),
}


@pytest.mark.parametrize("field", BOOLEAN_CASES)
def test_json_booleans_are_not_numbers(tmp_path, monkeypatch, capsys, field):
    state, config, message = BOOLEAN_CASES[field]
    monkeypatch.chdir(tmp_path)
    # The computational basis of three qubits, 1 and 0 written as booleans.
    vectors = [[[i == k, False] for i in range(8)] for k in range(8)]
    Path("basis.json").write_text(json.dumps({"dims": [2, 2, 2], "vectors": vectors}))
    if state is not None:
        Path("state.json").write_text(json.dumps(state))
        argv = ["oracle", "--state", "state.json"]
    else:
        Path("cfg.json").write_text(json.dumps(config))
        argv = ["run", "--state", GHZ, "--config", "cfg.json"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: parse-failure: {message}\n"


def test_basis_vector_with_non_pair_exits_2(tmp_path, capsys):
    basis = json.loads((FIXTURES / "basis_hadamard3.json").read_text())
    basis["vectors"][2][5] = [0.5]
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(basis))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"postselection_basis": str(path)}))
    code, out, err = run_cli(capsys, "run", "--state", GHZ, "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == "error: parse-failure: amplitude must be a [re, im] pair, got [0.5]\n"


def test_basis_file_with_nan_amplitude_exits_3(tmp_path, capsys):
    basis = json.loads((FIXTURES / "basis_hadamard3.json").read_text())
    basis["vectors"][2][5] = [float("nan"), 0.0]
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(basis))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"postselection_basis": str(path)}))
    code, out, err = run_cli(capsys, "run", "--state", GHZ, "--config", str(cfg))
    assert code == 3 and out == ""
    assert "amplitudes must be finite" in err


def test_basis_file_with_unnormalised_vector_exits_3(tmp_path, capsys):
    basis = json.loads((FIXTURES / "basis_hadamard3.json").read_text())
    basis["vectors"][2] = [[2 * re, 2 * im] for re, im in basis["vectors"][2]]
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(basis))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"postselection_basis": str(path)}))
    code, out, _ = run_cli(capsys, "run", "--state", GHZ, "--config", str(cfg))
    assert code == 3 and out == ""


# -- state file round trip


def test_state_round_trip_is_idempotent():
    for path in (GHZ, CLASSICAL):
        once = dump_state(load_state(path))
        tmp = FIXTURES / "_roundtrip.json"
        try:
            tmp.write_text(once)
            twice = dump_state(load_state(str(tmp)))
        finally:
            tmp.unlink(missing_ok=True)
        assert once == twice


def test_console_entry_point_runs():
    # The child process imports the same package copy as this one.
    src = str(Path(weakcorr.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "weakcorr", "tables", "1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "device operator table" in proc.stdout
