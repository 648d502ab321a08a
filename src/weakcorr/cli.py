"""Batch front end: state ingestion, configuration, protocol runs, reports.

State files are JSON.  Dense form::

    {"dims": [2, 2, 2], "entries": [[re, im], ...]}   # row-major, d*d pairs

Decomposition form::

    {"dims": [2, 2, 2], "terms": [{"p": 0.5, "amplitudes": [[re, im], ...]}, ...]}

Config files are JSON objects with any of: backend, mode, g, sigma,
outcomes (list of conveyance results plus the shared broadcast result, or
the string "enumerate"), postselection_basis ("hadamard" or a basis file
path, relative to the config file's directory unless absolute),
skip_broadcast.  Each key is checked once, by ``load_config``; ``run`` reads
them all, ``sweep`` all but backend and g (it runs the circuit backend at
each g of ``--g-list``).  The flags --backend, --mode, --g and --sigma
override the config values of the same name; ``sweep`` has no --backend or
--g flag.

Reports are deterministic: keys are emitted in fixed order and floats are
printed with 12 significant digits in exponent notation.  Exit codes:
0 success, 2 input/parse/usage, 3 invariant violation, 4 internal failure.
The log level is controlled by the WEAKCORR_LOG environment variable.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import logging
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import errors
from .bases import (
    BasisSet,
    computational_basis,
    device_table,
    hadamard_mub,
    is_mutually_unbiased,
)
from .estimator import _sweep, correlation, correlation_oracle_diag, reconstruct_matrix
from .pointer import PointerConfig
from .qcore import DensityMatrix, PureState, partial_trace, trace_distance

LOG = logging.getLogger("weakcorr")

FORMAT_CHOICES = ("json", "csv")

# Largest Hilbert-space dimension (product of the party dims) a state or
# basis file, or ``tables``, may ask for.  Checked before anything of that
# size is allocated; 2**12 leaves room above ten qubits.
MAX_DIM = 2**12

__all__ = ["main", "load_state", "load_basis", "render_tables"]


# ---------------------------------------------------------------------------
# serialization helpers


# Every float a report prints, each template below built from it.  Each
# printed value has 0.0 added first, which turns -0.0 into 0.0.
_FLOAT = "%.11e"


def _fmt_float(x: float) -> str:
    return _FLOAT % (float(x) + 0.0)


def _pair_lines(row: np.ndarray, pad: str) -> str:
    """The entries of a complex row as "[re, im]" lines after ``pad``, in one pass."""
    parts = np.ascontiguousarray(row, dtype=complex).view(float) + 0.0
    return ",\n".join([f"{pad}[{_FLOAT}, {_FLOAT}]"] * len(row)) % tuple(parts.tolist())


def _render(value, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = [
            f'{pad}  {json.dumps(str(k))}: {_render(v, indent + 1).lstrip()}'
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        items = list(value)
        if not items:
            return "[]"
        if all(not isinstance(v, (dict, list, tuple, np.ndarray)) for v in items):
            return "[" + ", ".join(_render(v).lstrip() for v in items) + "]"
        parts = [f"{pad}  {_render(v, indent + 1).lstrip()}" for v in items]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    if isinstance(value, np.ndarray):  # complex entries, each a [re, im] pair
        if not len(value):
            return "[]"
        if value.ndim == 1:
            return "[\n" + _pair_lines(value, pad + "  ") + f"\n{pad}]"
        parts = [f"{pad}  {_render(row, indent + 1)}" for row in value]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value)!r}")


def render_json(document: dict) -> str:
    return _render(document) + "\n"


# ---------------------------------------------------------------------------
# state and config files


def _read_json(path: str):
    """The document in a JSON file; content that is not JSON raises ParseFailure."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise errors.ParseFailure(
                f"at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from None
        except ValueError as exc:  # not UTF-8, or an integer beyond int_max_str_digits
            raise errors.ParseFailure(str(exc)) from None
        except RecursionError:
            raise errors.ParseFailure("nested too deeply") from None


# The types of a JSON number; a JSON boolean is not one, although bool
# subclasses int.
_NUMBERS = frozenset({int, float})


def _is_pair(v) -> bool:
    return isinstance(v, list) and len(v) == 2 and {type(v[0]), type(v[1])} <= _NUMBERS


def _complex_array(pairs: list, what: str) -> np.ndarray:
    """One complex array from a list of [re, im] pairs.

    The types are checked in one pass per nesting level; the error names
    the first item that is not a pair of numbers, or the index (from 0) of
    the first pair holding an integer beyond the float range.
    """
    if not (
        set(map(type, pairs)) <= {list}
        and set(map(len, pairs)) <= {2}
        and set(map(type, itertools.chain.from_iterable(pairs))) <= _NUMBERS
    ):
        bad = next(v for v in pairs if not _is_pair(v))
        raise errors.ParseFailure(f"{what} must be a [re, im] pair, got {bad!r}")
    flat = itertools.chain.from_iterable(pairs)
    try:
        return np.fromiter(flat, float, 2 * len(pairs)).view(complex)
    except OverflowError:
        index = next(
            i for i, v in enumerate(pairs) if max(map(abs, v)) > sys.float_info.max
        )
        raise errors.ParseFailure(
            f"{what} {index} holds an integer beyond the float range"
        ) from None


def _parse_dims(doc) -> tuple[int, ...]:
    dims = doc.get("dims")
    if (
        not isinstance(dims, list)
        or not dims
        or not all(isinstance(d, int) and d >= 2 for d in dims)
    ):
        raise errors.ParseFailure('"dims" must be a non-empty list of integers >= 2')
    d = math.prod(dims)
    if d > MAX_DIM:
        raise errors.ParseFailure(
            f'"dims" span dimension {d}, above the limit MAX_DIM = {MAX_DIM}'
        )
    return tuple(dims)


def load_state(path: str) -> DensityMatrix:
    """Read a density matrix from a dense or decomposition state file."""
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise errors.ParseFailure("state file must contain a JSON object")
    dims = _parse_dims(doc)
    d = math.prod(dims)
    if "entries" in doc:
        entries = doc["entries"]
        if not isinstance(entries, list) or len(entries) != d * d:
            raise errors.ParseFailure(
                f'"entries" must hold {d * d} [re, im] pairs (row-major)'
            )
        return DensityMatrix(dims, _complex_array(entries, "entry").reshape(d, d))
    if "terms" in doc:
        terms = doc["terms"]
        if not isinstance(terms, list) or not terms:
            raise errors.ParseFailure('"terms" must be a non-empty list')
        weights = []
        matrix = np.zeros((d, d), dtype=complex)
        for term in terms:
            if not isinstance(term, dict) or "p" not in term or "amplitudes" not in term:
                raise errors.ParseFailure('each term needs "p" and "amplitudes"')
            p = term["p"]
            if type(p) not in _NUMBERS:
                raise errors.ParseFailure(
                    f'decomposition weight "p" must be a number, got {p!r}'
                )
            # JSON's NaN, Infinity and -Infinity read as floats; a weight must be finite.
            if type(p) is float and not math.isfinite(p):
                raise errors.ParseFailure(f'decomposition weight "p" must be finite, got {p!r}')
            if p <= 0:
                raise errors.InvariantViolation(
                    f"decomposition weights must be positive, got {p!r}"
                )
            if type(p) is int and p > sys.float_info.max:
                raise errors.ParseFailure(
                    'decomposition weight "p" is an integer beyond the float range'
                )
            amps = term["amplitudes"]
            if not isinstance(amps, list) or len(amps) != d:
                raise errors.ParseFailure(f'"amplitudes" must hold {d} [re, im] pairs')
            psi = PureState(dims, _complex_array(amps, "amplitude"))
            weights.append(float(p))
            matrix += float(p) * np.outer(psi.amplitudes, psi.amplitudes.conj())
        if abs(sum(weights) - 1.0) > 1e-9:
            raise errors.InvariantViolation(
                f"decomposition weights sum to {sum(weights)!r}, expected 1 within 1e-9"
            )
        return DensityMatrix(dims, matrix)
    raise errors.ParseFailure('state file needs either "entries" or "terms"')


@dataclass(frozen=True)
class RunConfig:
    backend: str = "analytic"
    mode: str = "idealized"
    pointer: PointerConfig = PointerConfig()  # the config keys g and sigma
    outcomes: tuple[int, ...] | str = ()
    postselection_basis: str = "hadamard"
    skip_broadcast: bool = False
    # Not a config key: where load_basis reads ``postselection_basis`` from.
    # A relative basis file path is resolved against the config file's
    # directory; reports echo ``postselection_basis`` as written.
    basis_source: str = "hadamard"


_CONFIG_KEYS = frozenset(
    f.name for f in (*fields(RunConfig), *fields(PointerConfig))
) - {"pointer", "basis_source"}


def _finite_number(merged: dict, name: str) -> float:
    """Config or flag value ``name`` as a float; JSON booleans are not numbers."""
    value = merged.get(name, getattr(PointerConfig, name))
    # Compared exactly, so NaN, infinities and integers beyond the float range fail.
    if type(value) not in _NUMBERS or not abs(value) <= sys.float_info.max:
        raise errors.ParseFailure(f"{name} must be a finite number")
    return float(value)


def load_config(path: str | None, args) -> RunConfig:
    doc = {}
    if path is not None:
        doc = _read_json(path)
        if not isinstance(doc, dict):
            raise errors.ParseFailure("config file must contain a JSON object")
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise errors.ParseFailure(f"unknown config keys: {sorted(unknown)}")
    merged = dict(doc)
    for flag in ("backend", "mode", "g", "sigma"):
        value = getattr(args, flag, None)  # sweep has no --backend or --g
        if value is not None:
            merged[flag] = value

    backend = merged.get("backend", RunConfig.backend)
    mode = merged.get("mode", RunConfig.mode)
    if backend not in ("analytic", "circuit"):
        raise errors.ParseFailure(f'backend must be "analytic" or "circuit", got {backend!r}')
    if mode not in ("literal", "idealized"):
        raise errors.ParseFailure(f'mode must be "literal" or "idealized", got {mode!r}')
    pointer = PointerConfig(*(_finite_number(merged, name) for name in ("g", "sigma")))
    outcomes = merged.get("outcomes", RunConfig.outcomes)
    if outcomes != "enumerate":
        if not isinstance(outcomes, (list, tuple)) or not all(
            type(v) is int for v in outcomes
        ):
            raise errors.ParseFailure('outcomes must be a list of integers or "enumerate"')
        outcomes = tuple(outcomes)
    basis = merged.get("postselection_basis", RunConfig.postselection_basis)
    if not isinstance(basis, str):
        raise errors.ParseFailure("postselection_basis must be a string")
    source = basis
    if path is not None and basis != "hadamard":
        source = os.path.join(os.path.dirname(path), basis)
    skip = merged.get("skip_broadcast", RunConfig.skip_broadcast)
    if not isinstance(skip, bool):
        raise errors.ParseFailure("skip_broadcast must be a boolean")
    return RunConfig(backend, mode, pointer, outcomes, basis, skip, source)


def load_basis(name_or_path: str, dims) -> BasisSet:
    """Resolve a named builtin basis or a basis file."""
    if name_or_path == "hadamard":
        if any(d != 2 for d in dims):
            raise errors.BadDimension("the builtin basis requires qubit parties")
        return hadamard_mub(len(dims))
    doc = _read_json(name_or_path)
    if not isinstance(doc, dict):
        raise errors.ParseFailure("basis file must contain a JSON object")
    bdims = _parse_dims(doc)
    if tuple(bdims) != tuple(dims):
        raise errors.ParseFailure(
            f"basis dims {bdims} do not match state dims {tuple(dims)}"
        )
    vectors = doc.get("vectors")
    d = math.prod(bdims)
    if not isinstance(vectors, list) or len(vectors) != d:
        raise errors.ParseFailure(f'"vectors" must hold {d} vectors')
    if not all(isinstance(vec, list) and len(vec) == d for vec in vectors):
        raise errors.ParseFailure(f"every basis vector needs {d} [re, im] pairs")
    pairs = list(itertools.chain.from_iterable(vectors))
    matrix = _complex_array(pairs, "amplitude").reshape(d, d)
    labels = doc.get("labels", [str(k + 1) for k in range(d)])
    # CSV reports print the labels unquoted.
    if (
        not isinstance(labels, list)
        or len(labels) != d
        or not all(isinstance(x, str) and not set(x) & set(',"\n\r') for x in labels)
    ):
        raise errors.ParseFailure(
            f'"labels" must hold {d} strings without commas, double quotes or line breaks'
        )
    return BasisSet(bdims, matrix, labels)


# ---------------------------------------------------------------------------
# report assembly


def _split_outcomes(outcomes, n: int) -> tuple[tuple[int, ...], int]:
    """Split a config outcome list into conveyance results and the copy result."""
    if len(outcomes) == 0:
        return (0,) * (n - 1), 0
    if len(outcomes) == n - 1:
        return tuple(outcomes), 0
    if len(outcomes) == n:
        return tuple(outcomes[: n - 1]), int(outcomes[-1])
    raise errors.ParseFailure(
        f"outcomes must list {n - 1} conveyance results plus optionally one "
        f"broadcast result, got {len(outcomes)} values"
    )


# The fields of a run report's row per postselection and of a sweep report's
# row per coupling: JSON keys and CSV header alike.
_TERM_COLUMNS = ("k", "label", "probability", "term", "skipped")
_SWEEP_COLUMNS = (
    "g",
    "correlation_circuit",
    "abs_error_vs_oracle_diag",
    "max_weak_value_residual",
    "error_nonincreasing",
)
# A run CSV row (k, label, probability, term, skipped) and a sweep CSV row
# (g, C, error, residual, trend), booleans in lower case.
_TERM_ROW = ",".join(["%d", "%s", _FLOAT, _FLOAT, "%s"])
_SWEEP_ROW = ",".join([_FLOAT] * 4 + ["%s"])


def _term_rows(report) -> list[tuple]:
    """One (k, label, probability, term, skipped) row per postselection, k from 1."""
    skipped = set(report.skipped)
    rows = zip(report.labels, report.table.probabilities.tolist(), report.terms.tolist())
    return [(k + 1, label, p, t, k in skipped) for k, (label, p, t) in enumerate(rows)]


def _run_block(report) -> dict:
    values, skipped = report.table.values, report.skipped
    return {
        "outcomes": list(report.outcomes),
        "broadcast_outcome": report.broadcast_outcome,
        "correlation": report.C,
        "oracle_diag": report.oracle_diag,
        "skipped_k": [k + 1 for k in skipped],
        "per_postselection": [dict(zip(_TERM_COLUMNS, row)) for row in _term_rows(report)],
        "weak_values": [
            {
                "k": k + 1,
                "line": line + 1,
                "values": values[line, k],
            }
            for k in range(values.shape[1])
            if k not in skipped
            for line in range(values.shape[0])
        ],
        "diagnostics": {
            "max_completeness_residual": report.max_completeness_residual,
            "min_postselection_probability": report.min_postselection_probability,
        },
    }


def _run_csv(reports) -> str:
    """The CSV run report: one header line and one row per postselection per report.

    Reads the reports' terms and probabilities only, never their weak-value tables.
    """
    lines = []
    for report in reports:
        lines.append(
            "# outcomes="
            + "".join(str(v) for v in report.outcomes)
            + f" broadcast_outcome={report.broadcast_outcome}"
            + f" correlation={_fmt_float(report.C)}"
        )
        lines.append(",".join(_TERM_COLUMNS))
        lines.extend(
            _TERM_ROW % (k, label, p + 0.0, t + 0.0, str(s).lower())
            for k, label, p, t, s in _term_rows(report)
        )
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands


def cmd_run(args) -> int:
    rho = load_state(args.state)
    rc = load_config(args.config, args)
    basis = load_basis(rc.basis_source, rho.dims)
    n = len(rho.dims)
    LOG.debug("run: dims=%s backend=%s mode=%s", rho.dims, rc.backend, rc.mode)

    if rc.outcomes == "enumerate":
        combos = [
            (nu, mu)
            for nu in itertools.product(*(range(d) for d in rho.dims[:-1]))
            for mu in range(min(rho.dims))
        ]
    else:
        combos = [_split_outcomes(rc.outcomes, n)]

    # One report at a time, each dropped once its lines or block are built.
    reports = (
        correlation(
            rho,
            rc.backend,
            rc.mode,
            rc.pointer,
            postselection=basis,
            outcomes=nu,
            broadcast_outcome=mu,
            skip_broadcast=rc.skip_broadcast,
        )
        for nu, mu in combos
    )
    if args.format == "csv":
        _emit(_run_csv(reports), args.out)
        return 0
    blocks = [_run_block(report) for report in reports]
    doc = {
        "command": "run",
        "state": args.state,
        "n_parties": n,
        "backend": rc.backend,
        "mode": rc.mode,
        "g": rc.pointer.g,
        "sigma": rc.pointer.sigma,
        "skip_broadcast": rc.skip_broadcast,
        "postselection_basis": rc.postselection_basis,
    }
    if len(blocks) == 1:
        doc.update(blocks[0])
    else:
        doc["runs"] = blocks
    _emit(render_json(doc), args.out)
    return 0


def cmd_sweep(args) -> int:
    """``weakcorr sweep``: the circuit backend at each g of ``--g-list``.

    One pass reads every coupling, as ``correlation_sweep`` does; each row
    compares its C with the oracle value and its table with the
    zero-coupling limit.  Without copies the rows read C and the residual
    straight from the arrays of each block of couplings
    (``estimator._sweep``, where the blocks and the limit row are set out):
    no report, and none of the diagnostics only a report holds, is built.
    With copies one ``correlation`` call gives one C for every g, with
    residual 0.0, since its table is the limit.
    """
    try:
        g_list = [float(v) for v in args.g_list.split(",") if v.strip()]
    except ValueError:
        raise errors.ParseFailure("--g-list must be a comma-separated list of numbers") from None
    if not g_list:
        raise errors.ParseFailure("--g-list must not be empty")
    if not all(map(math.isfinite, g_list)):
        raise errors.ParseFailure("--g-list values must be finite")
    if any(g <= 0 for g in g_list) or any(a <= b for a, b in zip(g_list, g_list[1:])):
        raise errors.ParseFailure("--g-list must be positive and strictly descending")

    rho = load_state(args.state)
    rc = load_config(args.config, args)
    if rc.outcomes == "enumerate":
        raise errors.ParseFailure('sweep requires explicit outcomes, not "enumerate"')
    basis = load_basis(rc.basis_source, rho.dims)
    n = len(rho.dims)
    nu, mu = _split_outcomes(rc.outcomes, n)
    cfgs = tuple(PointerConfig(g, rc.pointer.sigma) for g in g_list)
    if rc.skip_broadcast:
        sweep = _sweep(
            rho,
            rc.mode,
            cfgs,
            residuals=True,
            postselection=basis,
            outcomes=nu,
            broadcast_outcome=mu,
        )
        oracle, correlations, residuals = sweep.oracle_diag, [], []
        for block in sweep.blocks:
            correlations += block.totals.tolist()
            residuals += block.residuals.tolist()
    else:
        report = correlation(
            rho, "circuit", rc.mode, cfgs[0], postselection=basis, outcomes=nu, broadcast_outcome=mu
        )
        oracle = report.oracle_diag
        correlations, residuals = [report.C] * len(cfgs), [0.0] * len(cfgs)

    errs = [abs(c - oracle) for c in correlations]
    trends = ["na", *("yes" if err <= prev else "no" for prev, err in zip(errs, errs[1:]))]
    rows = list(zip(g_list, correlations, errs, residuals, trends))
    if args.format == "json":
        doc = {
            "command": "sweep",
            "state": args.state,
            "mode": rc.mode,
            "oracle_diag": oracle,
            "rows": [dict(zip(_SWEEP_COLUMNS, row)) for row in rows],
        }
        _emit(render_json(doc), args.out)
        return 0
    lines = [
        f"# oracle_diag={_fmt_float(oracle)}",
        ",".join(_SWEEP_COLUMNS),
        *(_SWEEP_ROW % (g + 0.0, c + 0.0, e + 0.0, r + 0.0, t) for g, c, e, r, t in rows),
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def render_tables(n: int, fmt: str = "text") -> str:
    """Device-table and postselection-basis rendering for n qubit parties."""
    table = device_table((2,) * n)
    mub = hadamard_mub(n)
    comp = computational_basis((2,) * n)

    # One-hot party projectors |x_p><x_p| tensor to |i><i| iff the x_p spell i.
    recon_ok = np.array_equal(
        np.ravel_multi_index(table.party_digits.T, table.dims), np.arange(table.n_columns)
    )
    mub_ok = is_mutually_unbiased(comp, mub)

    sign_rows = np.where(mub.matrix.real > 0, "+", "-").tolist()

    # Line 1 projects on each column's label, line p + 2 on party p's digit.
    cells = [
        [f"|{v}><{v}|" for v in row]
        for row in [table.labels, *table.party_digits.T.tolist()]
    ]

    if fmt == "csv":
        lines = ["table,line,column,projector"]
        for line, row in enumerate(cells):
            lines.extend(f"device,{line + 1},{col + 1},{c}" for col, c in enumerate(row))
        lines.append(f"device,reconstruction,,{'OK' if recon_ok else 'FAIL'}")
        lines.append("table,k," + ",".join(comp.labels))
        for k, row in enumerate(sign_rows):
            lines.append(f"basis,{k + 1}," + ",".join(row))
        lines.append(f"basis,unbiased,,{'OK' if mub_ok else 'FAIL'}")
        return "\n".join(lines) + "\n"

    width = max(len(c) for row in cells for c in row) + 3
    head_width = max(len("column"), len(f"line {table.n_lines}")) + 4
    out = [
        f"device operator table: {n} {'party' if n == 1 else 'parties'}, "
        f"{table.n_columns} columns",
        "line 1 holds the joint projector of each column; line j >= 2 holds the",
        "single-party factor picked out of the same column.",
        "",
    ]
    header = "column".ljust(head_width) + "".join(
        str(col + 1).ljust(width) for col in range(table.n_columns)
    )
    out.append(header.rstrip())
    for line, row in enumerate(cells):
        text = f"line {line + 1}".ljust(head_width) + "".join(c.ljust(width) for c in row)
        out.append(text.rstrip())
    span = f"lines 2..{table.n_lines}" if table.n_lines > 2 else "line 2"
    out.append(f"reconstruction (line 1 = tensor of {span}): {'OK' if recon_ok else 'FAIL'}")
    out.append("")
    out.append(
        f"postselection basis: {len(mub)} states, amplitudes +-1/sqrt({2**n}) "
        "over computational labels"
    )
    lw = len(comp.labels[0])
    k_width = max(len("k"), len(str(len(mub)))) + 3
    out.append("k".ljust(k_width) + "  ".join(comp.labels))
    for k, row in enumerate(sign_rows):
        signs = "  ".join(s.center(lw) for s in row)
        out.append((str(k + 1).ljust(k_width) + signs).rstrip())
    out.append(f"mutually unbiased to the computational basis: {'OK' if mub_ok else 'FAIL'}")
    return "\n".join(out) + "\n"


def cmd_tables(args) -> int:
    if args.n_qubits < 1:
        raise errors.ParseFailure("n_qubits must be >= 1")
    if args.n_qubits > math.log2(MAX_DIM):
        raise errors.ParseFailure(
            f"n_qubits = {args.n_qubits} spans more than the limit "
            f"MAX_DIM = {MAX_DIM} basis states"
        )
    _emit(render_tables(args.n_qubits, args.format), args.out)
    return 0


def cmd_oracle(args) -> int:
    rho = load_state(args.state)
    if any(d != 2 for d in rho.dims):
        raise errors.BadDimension("the reconstruction oracle requires qubit parties")
    n = len(rho.dims)
    d = rho.dim
    direct = rho.matrix
    rebuilt = reconstruct_matrix(rho, computational_basis(rho.dims), hadamard_mub(n))
    error = np.abs(rebuilt - direct)
    residual = float(np.max(error))

    if args.format == "csv":
        # One row per element, one %-format per matrix row; %d prints the
        # float indices as integers.
        i, j = np.indices((d, d)) + 1.0
        table = np.stack(
            [i, j, direct.real, direct.imag, rebuilt.real, rebuilt.imag, error],
            axis=-1,
        ) + 0.0
        block = "\n".join([",".join(["%d"] * 2 + [_FLOAT] * 5)] * d)
        lines = [
            "i,j,direct_re,direct_im,reconstructed_re,reconstructed_im,abs_residual",
            *(block % tuple(row.ravel().tolist()) for row in table),
            f"# max_reconstruction_residual={_fmt_float(residual)}",
        ]
        _emit("\n".join(lines) + "\n", args.out)
        return 0
    product = functools.reduce(np.kron, (partial_trace(rho, [p]).matrix for p in range(n)))
    # A tensor product of the checked state's marginals is a density matrix.
    marginals = DensityMatrix._trusted(rho.dims, product)
    doc = {
        "command": "oracle",
        "state": args.state,
        "n_parties": n,
        "direct_elements": direct,
        "reconstructed_elements": rebuilt,
        "max_reconstruction_residual": residual,
        "oracle_diag": correlation_oracle_diag(rho),
        "trace_distance_to_marginal_product": trace_distance(rho, marginals),
    }
    _emit(render_json(doc), args.out)
    return 0


# ---------------------------------------------------------------------------
# entry point


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="weakcorr",
        description="Correlation measurement of an unknown state via weak coupling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Options must be spelled out: an abbreviation would let sweep read
    # --g as --g-list.
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    def common(p):
        p.add_argument("--state", required=True, help="state file (JSON)")
        p.add_argument("--config", help="config file (JSON)")
        p.add_argument("--mode", choices=("literal", "idealized"))
        p.add_argument("--sigma", type=float)
        p.add_argument("--out", help="write the report here instead of stdout")

    p_run = add_parser("run", help="run the protocol and report the correlation")
    common(p_run)
    p_run.add_argument("--backend", choices=("analytic", "circuit"))
    p_run.add_argument("--g", type=float)
    p_run.add_argument("--format", choices=FORMAT_CHOICES, default="json")
    p_run.set_defaults(func=cmd_run)

    p_sweep = add_parser("sweep", help="circuit-backend sweep over coupling strengths")
    common(p_sweep)
    p_sweep.add_argument(
        "--g-list", required=True, help="comma-separated descending coupling strengths"
    )
    p_sweep.add_argument("--format", choices=FORMAT_CHOICES, default="csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_tables = add_parser("tables", help="print the device table and postselection basis")
    p_tables.add_argument("n_qubits", type=int)
    p_tables.add_argument("--format", choices=("text", "csv"), default="text")
    p_tables.add_argument("--out")
    p_tables.set_defaults(func=cmd_tables)

    p_oracle = add_parser("oracle", help="matrix-element reconstruction cross-check")
    p_oracle.add_argument("--state", required=True)
    p_oracle.add_argument("--format", choices=FORMAT_CHOICES, default="json")
    p_oracle.add_argument("--out")
    p_oracle.set_defaults(func=cmd_oracle)
    return parser


def _setup_logging() -> None:
    """Set the package logger to the level WEAKCORR_LOG names (WARNING for
    anything else) on each call, and only when it differs: setting a level
    clears every logger's cache.  ``basicConfig`` installs the handler once."""
    level = logging.getLevelName(os.environ.get("WEAKCORR_LOG", "WARNING").upper())
    level = level if isinstance(level, int) else logging.WARNING
    logging.basicConfig()
    if LOG.level != level:
        LOG.setLevel(level)


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (0, None):
            return 0
        return 2
    try:
        return args.func(args)
    except (errors.ParseFailure, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except errors.ProtocolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
