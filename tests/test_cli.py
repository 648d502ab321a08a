"""End-to-end tests for the command-line front end."""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import dump_state, oracle_csv_rows_loop

import weakcorr
from weakcorr.cli import (
    MAX_DIM,
    _fmt_float,
    build_parser,
    load_state,
    main,
    render_json,
)

FIXTURES = Path(__file__).parent / "fixtures"
GHZ = str(FIXTURES / "ghz3.json")
CLASSICAL = str(FIXTURES / "classical3.json")
PRODUCT = str(FIXTURES / "product3.json")
RANDOM7 = str(FIXTURES / "random3_seed7.json")
CFG_ANALYTIC = str(FIXTURES / "config_analytic.json")
CFG_CIRCUIT = str(FIXTURES / "config_circuit.json")
CFG_DIRECT = str(FIXTURES / "config_direct.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_child(*argv, **env):
    """``python -m weakcorr`` in a child process that imports this package copy."""
    src = str(Path(weakcorr.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "weakcorr", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path, **env},
    )


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


def test_basis_file_resolves_against_the_config_directory(monkeypatch, capsys):
    # The config names "basis_hadamard3.json", the file beside it.
    monkeypatch.chdir(FIXTURES.parents[1])
    argv = ["run", "--state", "tests/fixtures/ghz3.json",
            "--config", "tests/fixtures/config_basis_file.json"]
    code, out, err = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0, err
    assert out == (FIXTURES / "golden" / "run-ghz3-basis_file.csv").read_text()
    doc = run_json(capsys, *argv)
    assert doc["postselection_basis"] == "basis_hadamard3.json"


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


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_conveyance_outcomes_alone_default_the_broadcast_outcome_to_0(tmp_path, capsys, command):
    reports = {}
    for outcomes in ([1, 0], [1, 0, 0], [1, 0, 1]):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"backend": "circuit", "outcomes": outcomes}))
        argv = [command, "--state", RANDOM7, "--config", str(cfg), "--format", "json"]
        if command == "sweep":
            argv += ["--g-list", "0.1,0.01"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        reports[len(outcomes), outcomes[-1]] = out
    assert reports[2, 0] == reports[3, 0] != reports[3, 1]
    if command == "run":
        assert json.loads(reports[2, 0])["broadcast_outcome"] == 0


def test_log_level_env_var():
    # A child process, so logging.basicConfig runs on a root logger with no
    # handler; in this process pytest's capture handler is already on it,
    # and basicConfig would do nothing whatever the level.
    argv = ("run", "--state", RANDOM7, "--config", CFG_DIRECT, "--format", "csv")
    shown = {level: run_child(*argv, WEAKCORR_LOG=level) for level in ("DEBUG", "WARNING")}
    assert all(proc.returncode == 0 for proc in shown.values())
    assert "run: dims=(2, 2, 2)" in shown["DEBUG"].stderr
    assert "run: dims=" not in shown["WARNING"].stderr
    assert shown["DEBUG"].stdout == shown["WARNING"].stdout


def test_log_level_env_var_applies_to_each_main_call(monkeypatch, caplog):
    # In this process a handler is already on the root logger, so only the
    # package logger's own level decides, and each main() call sets it.
    argv = ["run", "--state", RANDOM7, "--config", CFG_DIRECT, "--format", "csv"]
    shown = []
    for level in ("DEBUG", "WARNING"):
        monkeypatch.setenv("WEAKCORR_LOG", level)
        caplog.clear()
        assert main(argv) == 0
        shown.append("run: dims=(2, 2, 2)" in caplog.text)
    assert shown == [True, False]


@pytest.mark.parametrize("name", ["basic_format", "nonsense"])
def test_log_names_that_are_not_levels_fall_back_to_warning(name):
    # A child process, so logging.basicConfig runs on a root logger with no
    # handler; logging.BASIC_FORMAT is a format string, not a level.
    proc = run_child("tables", "1", WEAKCORR_LOG=name)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "device operator table" in proc.stdout


# -- every option of run and sweep changes what the command writes

FLAG_BASES = {
    "run": ["run", "--state", RANDOM7, "--config", CFG_DIRECT, "--format", "csv"],
    "sweep": ["sweep", "--state", RANDOM7, "--config", CFG_DIRECT, "--g-list", "0.1,0.05"],
}
# One valid value per option, other than the base run's; --out has none, as
# it only moves the report to a file.
FLAG_CASES = {
    "run": {
        "--state": GHZ,
        "--config": CFG_CIRCUIT,
        "--backend": "analytic",
        "--mode": "idealized",
        "--g": "0.5",
        "--sigma": "0.3",
        "--format": "json",
        "--out": None,
    },
    "sweep": {
        "--state": GHZ,
        "--config": CFG_CIRCUIT,
        "--mode": "idealized",
        "--sigma": "0.3",
        "--g-list": "0.2,0.1",
        "--format": "json",
        "--out": None,
    },
}


def options(command):
    """The long option strings of a subcommand, --help aside."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    actions = sub.choices[command]._actions
    return {s for a in actions for s in a.option_strings if s.startswith("--")} - {"--help"}


@pytest.mark.parametrize("command", FLAG_CASES)
def test_every_option_has_a_case(command):
    assert options(command) == set(FLAG_CASES[command])


@pytest.mark.parametrize(
    "command, flag", [(c, flag) for c, cases in FLAG_CASES.items() for flag in cases]
)
def test_every_option_changes_the_report(tmp_path, capsys, command, flag):
    base = FLAG_BASES[command]
    code, want, err = run_cli(capsys, *base)
    assert code == 0, err
    if flag == "--out":
        path = tmp_path / "report"
        assert run_cli(capsys, *base, "--out", str(path)) == (0, "", "")
        assert path.read_text() == want
        return
    argv = list(base)
    value = FLAG_CASES[command][flag]
    if flag in argv:
        argv[argv.index(flag) + 1] = value
    else:
        argv += [flag, value]
    code, got, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert got != want


@pytest.mark.parametrize(
    "command, flag",
    [("run", "--seed"), ("sweep", "--seed"), ("sweep", "--backend"), ("sweep", "--g")],
)
def test_removed_options_are_usage_errors(capsys, command, flag):
    value = "analytic" if flag == "--backend" else "1"
    code, out, err = run_cli(capsys, *FLAG_BASES[command], flag, value)
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {flag} {value}" in err


def test_sweep_checks_but_ignores_config_backend_and_g(tmp_path, capsys):
    # config_direct.json with another backend and g: the sweep reads neither.
    config = {**json.loads(Path(CFG_DIRECT).read_text()), "backend": "analytic", "g": 0.5}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    argv = ["sweep", "--state", RANDOM7, "--config", str(cfg), "--g-list", "0.1,0.05"]
    assert run_cli(capsys, *argv) == run_cli(capsys, *FLAG_BASES["sweep"])
    cfg.write_text(json.dumps({**config, "g": -1.0}))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "") and "g must be positive" in err


@pytest.mark.parametrize("command", FLAG_BASES)
def test_config_seed_is_an_unknown_key(tmp_path, capsys, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seed": 0}')
    argv = [*FLAG_BASES[command], "--config", str(cfg)]
    message = "error: parse-failure: unknown config keys: ['seed']\n"
    assert run_cli(capsys, *argv) == (2, "", message)


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


def test_complex_arrays_render_as_pair_lists():
    # Each row is formatted in one pass; -0.0 prints as 0, as _fmt_float does.
    rows = np.array([[-0.0 - 0.0j, 1.5e-300 - 2j], [np.nan + 1j * np.inf, 1 / 3 - 0.0j]])
    got = render_json({"matrix": rows, "row": rows[1], "empty": rows[:0]})
    assert got == (
        "{\n"
        '  "matrix": [\n'
        "    [\n"
        "      [0.00000000000e+00, 0.00000000000e+00],\n"
        "      [1.50000000000e-300, -2.00000000000e+00]\n"
        "    ],\n"
        "    [\n"
        "      [nan, inf],\n"
        "      [3.33333333333e-01, 0.00000000000e+00]\n"
        "    ]\n"
        "  ],\n"
        '  "row": [\n'
        "    [nan, inf],\n"
        "    [3.33333333333e-01, 0.00000000000e+00]\n"
        "  ],\n"
        '  "empty": []\n'
        "}\n"
    )
    assert [_fmt_float(x) for x in (-0.0, 1.5e-300, np.nan)] == [
        "0.00000000000e+00",
        "1.50000000000e-300",
        "nan",
    ]


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


@pytest.mark.parametrize(
    "command, flags",
    [
        ("run", ("--sigma", "1e-200")),
        ("run", ("--g", "1e200", "--sigma", "1e200")),
        ("sweep", ("--sigma", "1e-200", "--g-list", "0.1,0.01")),
    ],
)
def test_undefined_damping_rate_exits_3(capsys, command, flags):
    code, out, err = run_cli(capsys, command, "--state", GHZ, "--config", CFG_DIRECT, *flags)
    assert (code, out) == (3, "")
    assert err.startswith("error: invariant-violation: g^2 / (8 sigma^2) is undefined")


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
    rho = weakcorr.random_density_matrix((2,) * 7, 0)
    state = tmp_path / "random7.json"
    state.write_text(dump_state(rho))
    code, out, err = run_cli(capsys, "oracle", "--state", str(state), "--format", "csv")
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0].startswith("i,j,direct_re")
    assert len(lines) == 1 + 128**2 + 1
    # Row for row, the per-element loop the one format per matrix row replaced.
    loaded = load_state(str(state))
    bases = weakcorr.computational_basis(rho.dims), weakcorr.hadamard_mub(7)
    rebuilt = weakcorr.reconstruct_matrix(loaded, *bases)
    assert lines[1:-1] == oracle_csv_rows_loop(loaded.matrix, rebuilt)
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
        *(
            (
                {"dims": [2], "terms": [{"p": p, "amplitudes": [[1.0, 0.0], ZERO]}]},
                f'decomposition weight "p" must be finite, got {p!r}',
            )
            for p in (math.nan, math.inf, -math.inf)
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


@pytest.mark.parametrize("label", [None, [1, 2], True, 5, "a,b", '"x', "a\nb"])
def test_basis_label_that_is_no_csv_field_exits_2(tmp_path, capsys, label):
    # CSV reports print labels unquoted, so each must be a string without a
    # comma, a double quote or a line break.
    basis = json.loads((FIXTURES / "basis_hadamard3.json").read_text())
    basis["labels"][1] = label
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(basis))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"postselection_basis": str(path)}))
    code, out, err = run_cli(capsys, "run", "--state", GHZ, "--config", str(cfg), "--format", "csv")
    assert code == 2 and out == ""
    message = '"labels" must hold 8 strings without commas, double quotes or line breaks'
    assert err == f"error: parse-failure: {message}\n"


BIG = 10**400  # a JSON integer beyond the float range


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            {"dims": [2], "entries": [[0, 0], [0, 0], [0, BIG], [0, 0]]},
            "entry 2 holds an integer beyond the float range",
        ),
        (
            {"dims": [2], "terms": [{"p": 1, "amplitudes": [[-BIG, 0], [0, 0]]}]},
            "amplitude 0 holds an integer beyond the float range",
        ),
        (
            {"dims": [2], "terms": [{"p": BIG, "amplitudes": [[1, 0], [0, 0]]}]},
            'decomposition weight "p" is an integer beyond the float range',
        ),
    ],
)
def test_state_file_with_integer_beyond_float_range_exits_2(tmp_path, capsys, doc, message):
    state = tmp_path / "state.json"
    state.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "oracle", "--state", str(state))
    assert (code, out) == (2, "")
    assert err == f"error: parse-failure: {message}\n"


def test_basis_file_with_integer_beyond_float_range_exits_2(tmp_path, capsys):
    basis = json.loads((FIXTURES / "basis_hadamard3.json").read_text())
    basis["vectors"][2][5] = [0, BIG]
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(basis))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"postselection_basis": str(path)}))
    code, out, err = run_cli(capsys, "run", "--state", GHZ, "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == "error: parse-failure: amplitude 21 holds an integer beyond the float range\n"


# An integer literal longer than Python's int_max_str_digits (4300): json
# raises a plain ValueError for it, not a JSONDecodeError.
LONG_LITERAL = "1" + "0" * 5000


def long_literal_exits_2(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: parse-failure: ") and "4300" in err


@pytest.mark.parametrize("kind", ["state", "config", "basis"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, kind):
    # json recurses once per bracket and raises RecursionError.
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"postselection_basis": str(deep)}))
    argv = {
        "state": ["--state", str(deep)],
        "config": ["--state", GHZ, "--config", str(deep)],
        "basis": ["--state", GHZ, "--config", str(cfg)],
    }[kind]
    code, out, err = run_cli(capsys, "run", *argv)
    assert (code, out, err) == (2, "", "error: parse-failure: nested too deeply\n")


def test_state_file_with_overlong_integer_exits_2(tmp_path, capsys):
    state = tmp_path / "state.json"
    state.write_text(
        '{"dims": [2], "entries": [[%s, 0], [0, 0], [0, 0], [0, 0]]}' % LONG_LITERAL
    )
    long_literal_exits_2(capsys, "oracle", "--state", str(state))


def test_config_file_with_overlong_integer_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"g": %s}' % LONG_LITERAL)
    long_literal_exits_2(capsys, "run", "--state", GHZ, "--config", str(cfg))


def test_basis_file_with_overlong_integer_exits_2(tmp_path, capsys):
    basis = json.loads((FIXTURES / "basis_hadamard3.json").read_text())
    basis["vectors"][2][5] = ["LONG", 0]
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(basis).replace('"LONG"', LONG_LITERAL))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"postselection_basis": str(path)}))
    long_literal_exits_2(capsys, "run", "--state", GHZ, "--config", str(cfg))


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


HADAMARD3 = json.loads((FIXTURES / "basis_hadamard3.json").read_text())
QUDIT_STATE = dump_state(weakcorr.maximally_mixed((3, 2)))


def config_with_basis(basis):
    """A config whose postselection basis is the file basis.json holding ``basis``."""
    return {"cfg.json": {"postselection_basis": "basis.json"}, "basis.json": basis}


def config_with(**settings):
    return {"cfg.json": settings}


# Each case: the files it writes (a dict is written as JSON), the command
# line, the exit code and the message.  GHZ is the state unless a case
# writes state.json.
REJECTIONS = {
    "config not an object": (
        {"cfg.json": [1]}, "run", 2, "parse-failure: config file must contain a JSON object"
    ),
    "config backend": (
        config_with(backend="quantum"),
        "run",
        2,
        "parse-failure: backend must be \"analytic\" or \"circuit\", got 'quantum'",
    ),
    "config mode": (
        config_with(mode="wired"),
        "sweep",
        2,
        "parse-failure: mode must be \"literal\" or \"idealized\", got 'wired'",
    ),
    "config basis not a string": (
        config_with(postselection_basis=3),
        "run",
        2,
        "parse-failure: postselection_basis must be a string",
    ),
    "config skip_broadcast not a boolean": (
        config_with(skip_broadcast=1), "run", 2, "parse-failure: skip_broadcast must be a boolean"
    ),
    **{
        f"config {count} outcomes on {command}": (
            config_with(outcomes=[0] * count),
            command,
            2,
            "parse-failure: outcomes must list 2 conveyance results plus optionally one "
            f"broadcast result, got {count} values",
        )
        for count in (1, 4)
        for command in ("run", "sweep")
    },
    "sweep enumerate": (
        config_with(outcomes="enumerate"),
        "sweep",
        2,
        'parse-failure: sweep requires explicit outcomes, not "enumerate"',
    ),
    "basis not an object": (
        config_with_basis([]), "run", 2, "parse-failure: basis file must contain a JSON object"
    ),
    "basis on other dims": (
        config_with_basis({**HADAMARD3, "dims": [2, 4]}),
        "run",
        2,
        "parse-failure: basis dims (2, 4) do not match state dims (2, 2, 2)",
    ),
    "basis vector count": (
        config_with_basis({**HADAMARD3, "vectors": HADAMARD3["vectors"][:7]}),
        "run",
        2,
        'parse-failure: "vectors" must hold 8 vectors',
    ),
    "basis vector length": (
        config_with_basis({**HADAMARD3, "vectors": [v[:7] for v in HADAMARD3["vectors"]]}),
        "run",
        2,
        "parse-failure: every basis vector needs 8 [re, im] pairs",
    ),
    "state not an object": (
        {"state.json": []}, "run", 2, "parse-failure: state file must contain a JSON object"
    ),
    **{
        f"state dims {dims!r}": (
            {"state.json": {"dims": dims, "entries": []}},
            "oracle",
            2,
            'parse-failure: "dims" must be a non-empty list of integers >= 2',
        )
        for dims in ([], [1, 2], [2.0, 2], "22", None)
    },
    "state without entries or terms": (
        {"state.json": {"dims": [2, 2]}},
        "run",
        2,
        'parse-failure: state file needs either "entries" or "terms"',
    ),
    "state with empty terms": (
        {"state.json": {"dims": [2, 2], "terms": []}},
        "run",
        2,
        'parse-failure: "terms" must be a non-empty list',
    ),
    "term without p": (
        {"state.json": {"dims": [2], "terms": [{"amplitudes": [[1, 0], [0, 0]]}]}},
        "run",
        2,
        'parse-failure: each term needs "p" and "amplitudes"',
    ),
    "term without amplitudes": (
        {"state.json": {"dims": [2], "terms": [{"p": 1}]}},
        "run",
        2,
        'parse-failure: each term needs "p" and "amplitudes"',
    ),
    "term amplitude count": (
        {"state.json": {"dims": [2], "terms": [{"p": 1, "amplitudes": [[1, 0]]}]}},
        "run",
        2,
        'parse-failure: "amplitudes" must hold 2 [re, im] pairs',
    ),
    "builtin basis on qudits": (
        {"state.json": QUDIT_STATE},
        "run",
        3,
        "bad-dimension: the builtin basis requires qubit parties",
    ),
    "oracle on qudits": (
        {"state.json": QUDIT_STATE},
        "oracle",
        3,
        "bad-dimension: the reconstruction oracle requires qubit parties",
    ),
    **{
        f"one qubit on {command}": (
            {"state.json": dump_state(weakcorr.maximally_mixed((2,)))},
            command,
            3,
            "bad-dimension: correlation needs at least two parties",
        )
        for command in ("run", "sweep")
    },
}


@pytest.mark.parametrize("case", REJECTIONS)
def test_input_rejections_exit_with_their_code(tmp_path, monkeypatch, capsys, case):
    files, command, code, message = REJECTIONS[case]
    monkeypatch.chdir(tmp_path)
    for name, doc in files.items():
        Path(name).write_text(doc if isinstance(doc, str) else json.dumps(doc))
    argv = [command, "--state", "state.json" if "state.json" in files else GHZ]
    if command != "oracle" and "cfg.json" in files:
        argv += ["--config", "cfg.json"]
    if command == "sweep":
        argv += ["--g-list", "0.1,0.01"]
    assert run_cli(capsys, *argv) == (code, "", f"error: {message}\n")


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
    proc = run_child("tables", "1")
    assert proc.returncode == 0
    assert "device operator table" in proc.stdout


def test_main_is_unaffected_by_earlier_calls_in_one_process(capsys):
    # The parser is built once per process and reused by every main() call.
    commands = [
        ["run", "--state", RANDOM7, "--config", CFG_CIRCUIT],
        ["sweep", "--state", RANDOM7, "--g-list", "0.1,0.01"],
    ]
    fresh = [run_child(*argv).stdout for argv in commands]
    code, out, err = run_cli(capsys, "run", "--no-such-flag")
    assert (code, out) == (2, "") and "usage:" in err
    for argv, want in zip(commands, fresh):
        assert run_cli(capsys, *argv) == (0, want, "")
    assert build_parser() is build_parser()
