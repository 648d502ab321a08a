"""Batch front end: state ingestion, configuration, protocol runs, reports.

State files are JSON.  Dense form::

    {"dims": [2, 2, 2], "entries": [[re, im], ...]}   # row-major, d*d pairs

Decomposition form::

    {"dims": [2, 2, 2], "terms": [{"p": 0.5, "amplitudes": [[re, im], ...]}, ...]}

Config files are JSON objects with any of: backend, mode, g, sigma,
outcomes (list of conveyance results plus the shared broadcast result, or
the string "enumerate"), postselection_basis ("hadamard" or a basis file
path), seed, skip_broadcast.  Command-line flags override config values.

Reports are deterministic: keys are emitted in fixed order and floats are
printed with 12 significant digits in exponent notation.  Exit codes:
0 success, 2 input/parse/usage, 3 invariant violation, 4 internal failure.
The log level is controlled by the WEAKCORR_LOG environment variable.
"""

from __future__ import annotations

import argparse
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
from .estimator import (
    correlation,
    correlation_oracle_diag,
    correlation_sweep,
    reconstruct_matrix,
    weak_value_limits,
)
from .conveyance import convey
from .pointer import PointerConfig
from .qcore import DensityMatrix, PureState, partial_trace, tensor_product, trace_distance

LOG = logging.getLogger("weakcorr")

FORMAT_CHOICES = ("json", "csv")

# Largest Hilbert-space dimension (product of the party dims) a state or
# basis file, or ``tables``, may ask for.  Checked before anything of that
# size is allocated; 2**12 leaves room above ten qubits.
MAX_DIM = 2**12

__all__ = ["main", "load_state", "dump_state", "load_basis", "render_tables"]


# ---------------------------------------------------------------------------
# serialization helpers


def _fmt_float(x: float) -> str:
    x = float(x)
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return f"{x:.11e}"


def _pair(value) -> list[str]:
    z = complex(value)
    return [_fmt_float(z.real), _fmt_float(z.imag)]


class _Raw(str):
    """String emitted verbatim (pre-formatted numbers)."""


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
        if all(not isinstance(v, (dict, list, tuple)) for v in items):
            return "[" + ", ".join(_render(v).lstrip() for v in items) + "]"
        parts = [f"{pad}  {_render(v, indent + 1).lstrip()}" for v in items]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    if isinstance(value, _Raw):
        return str(value)
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


def _complex_pair(z) -> list[_Raw]:
    return [_Raw(s) for s in _pair(z)]


# ---------------------------------------------------------------------------
# state and config files


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# The types of a JSON number; a JSON boolean is not one, although bool
# subclasses int.
_NUMBERS = frozenset({int, float})


def _is_pair(v) -> bool:
    return isinstance(v, list) and len(v) == 2 and {type(v[0]), type(v[1])} <= _NUMBERS


def _complex_array(pairs: list, what: str) -> np.ndarray:
    """One complex array from a list of [re, im] pairs.

    The types are checked in one pass per nesting level; the error names
    the first item that is not a pair of numbers.
    """
    if not (
        set(map(type, pairs)) <= {list}
        and set(map(len, pairs)) <= {2}
        and set(map(type, itertools.chain.from_iterable(pairs))) <= _NUMBERS
    ):
        bad = next(v for v in pairs if not _is_pair(v))
        raise errors.ParseFailure(f"{what} must be a [re, im] pair, got {bad!r}")
    flat = itertools.chain.from_iterable(pairs)
    return np.fromiter(flat, float, 2 * len(pairs)).view(complex)


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
            if p <= 0:
                raise errors.InvariantViolation(
                    f"decomposition weights must be positive, got {p!r}"
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


def dump_state(rho: DensityMatrix) -> str:
    """Canonical dense serialization (full-precision floats)."""
    entries = ",\n    ".join(
        f"[{float(z.real)!r}, {float(z.imag)!r}]" for z in rho.matrix.reshape(-1)
    )
    dims = ", ".join(str(d) for d in rho.dims)
    return f'{{\n  "dims": [{dims}],\n  "entries": [\n    {entries}\n  ]\n}}\n'


@dataclass(frozen=True)
class RunConfig:
    backend: str = "analytic"
    mode: str = "idealized"
    g: float = 1e-3
    sigma: float = 1.0 / math.sqrt(2.0)
    outcomes: tuple[int, ...] | str = ()
    postselection_basis: str = "hadamard"
    seed: int = 0
    skip_broadcast: bool = False


def _finite_number(merged: dict, name: str) -> float:
    """Config or flag value ``name`` as a float; JSON booleans are not numbers."""
    value = merged.get(name, getattr(RunConfig, name))
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
    unknown = set(doc) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise errors.ParseFailure(f"unknown config keys: {sorted(unknown)}")
    merged = dict(doc)
    for flag in ("backend", "mode", "g", "sigma", "seed"):
        value = getattr(args, flag, None)
        if value is not None:
            merged[flag] = value

    backend = merged.get("backend", "analytic")
    mode = merged.get("mode", "idealized")
    if backend not in ("analytic", "circuit"):
        raise errors.ParseFailure(f'backend must be "analytic" or "circuit", got {backend!r}')
    if mode not in ("literal", "idealized"):
        raise errors.ParseFailure(f'mode must be "literal" or "idealized", got {mode!r}')
    g, sigma = (_finite_number(merged, name) for name in ("g", "sigma"))
    if g <= 0 or sigma <= 0:
        raise errors.InvariantViolation(
            f"g and sigma must be positive, got g={g!r}, sigma={sigma!r}"
        )
    outcomes = merged.get("outcomes", ())
    if outcomes != "enumerate":
        if not isinstance(outcomes, (list, tuple)) or not all(
            type(v) is int for v in outcomes
        ):
            raise errors.ParseFailure('outcomes must be a list of integers or "enumerate"')
        outcomes = tuple(outcomes)
    basis = merged.get("postselection_basis", "hadamard")
    if not isinstance(basis, str):
        raise errors.ParseFailure("postselection_basis must be a string")
    seed = merged.get("seed", 0)
    if type(seed) is not int:
        raise errors.ParseFailure("seed must be an integer")
    skip = merged.get("skip_broadcast", False)
    if not isinstance(skip, bool):
        raise errors.ParseFailure("skip_broadcast must be a boolean")
    return RunConfig(backend, mode, g, sigma, outcomes, basis, seed, skip)


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
        raise errors.ShapeMismatch(
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
    if not isinstance(labels, list) or len(labels) != d:
        raise errors.ParseFailure(f'"labels" must hold {d} strings')
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


def _run_block(report) -> dict:
    block = {
        "outcomes": list(report.outcomes),
        "broadcast_outcome": report.broadcast_outcome,
        "correlation": report.C,
        "oracle_diag": report.oracle_diag,
        "skipped_k": [term.k + 1 for term in report.per_k if term.skipped],
        "per_postselection": [
            {
                "k": term.k + 1,
                "label": term.label,
                "probability": term.probability,
                "term": term.term,
                "skipped": term.skipped,
            }
            for term in report.per_k
        ],
        "weak_values": [
            {
                "k": k + 1,
                "line": line + 1,
                "values": [_complex_pair(z) for z in report.table.values[line, k]],
            }
            for k in range(report.table.values.shape[1])
            if k not in report.table.skipped
            for line in range(report.table.values.shape[0])
        ],
        "diagnostics": {
            "max_completeness_residual": report.max_completeness_residual,
            "min_postselection_probability": report.min_postselection_probability,
        },
    }
    return block


def _run_csv(blocks) -> str:
    lines = []
    for block in blocks:
        lines.append(
            "# outcomes="
            + "".join(str(v) for v in block["outcomes"])
            + f" broadcast_outcome={block['broadcast_outcome']}"
            + f" correlation={_fmt_float(block['correlation'])}"
        )
        lines.append("k,label,probability,term,skipped")
        for row in block["per_postselection"]:
            lines.append(
                f"{row['k']},{row['label']},{_fmt_float(row['probability'])},"
                f"{_fmt_float(row['term'])},{str(row['skipped']).lower()}"
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
    basis = load_basis(rc.postselection_basis, rho.dims)
    pcfg = PointerConfig(rc.g, rc.sigma)
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

    blocks = []
    for nu, mu in combos:
        report = correlation(
            rho,
            rc.backend,
            rc.mode,
            pcfg,
            postselection=basis,
            outcomes=nu,
            broadcast_outcome=mu,
            skip_broadcast=rc.skip_broadcast,
        )
        blocks.append(_run_block(report))

    if args.format == "csv":
        _emit(_run_csv(blocks), args.out)
        return 0
    doc = {
        "command": "run",
        "state": args.state,
        "n_parties": n,
        "backend": rc.backend,
        "mode": rc.mode,
        "g": rc.g,
        "sigma": rc.sigma,
        "skip_broadcast": rc.skip_broadcast,
        "postselection_basis": rc.postselection_basis,
        "seed": rc.seed,
    }
    if len(blocks) == 1:
        doc.update(blocks[0])
    else:
        doc["runs"] = blocks
    _emit(render_json(doc), args.out)
    return 0


def cmd_sweep(args) -> int:
    try:
        g_list = [float(v) for v in args.g_list.split(",") if v.strip()]
    except ValueError:
        print("error: --g-list must be a comma-separated list of numbers", file=sys.stderr)
        return 2
    if not g_list:
        print("error: --g-list must not be empty", file=sys.stderr)
        return 2
    if not all(map(math.isfinite, g_list)):
        print("error: --g-list values must be finite", file=sys.stderr)
        return 2
    if any(g <= 0 for g in g_list) or any(
        a <= b for a, b in zip(g_list, g_list[1:])
    ):
        print("error: --g-list must be positive and strictly descending", file=sys.stderr)
        return 2

    rho = load_state(args.state)
    rc = load_config(args.config, args)
    if rc.outcomes == "enumerate":
        print("error: sweep requires explicit outcomes, not \"enumerate\"", file=sys.stderr)
        return 2
    basis = load_basis(rc.postselection_basis, rho.dims)
    n = len(rho.dims)
    nu, mu = _split_outcomes(rc.outcomes, n)
    table = device_table(rho.dims)
    conveyed = convey(rho, nu, rc.mode)
    limits = weak_value_limits(conveyed.state, basis, table, mu, rc.skip_broadcast)
    reports = correlation_sweep(
        rho,
        rc.mode,
        [PointerConfig(g, rc.sigma) for g in g_list],
        postselection=basis,
        outcomes=nu,
        broadcast_outcome=mu,
        skip_broadcast=rc.skip_broadcast,
    )

    rows = []
    prev_err = None
    for report in reports:
        oracle = report.oracle_diag
        err = abs(report.C - oracle)
        kept = np.isin(np.arange(len(basis)), report.table.skipped + limits.skipped, invert=True)
        diff = np.abs(report.table.values - limits.values)[:, kept]
        residual = float(diff.max()) if kept.any() else 0.0
        trend = "na" if prev_err is None else ("yes" if err <= prev_err else "no")
        rows.append((report.g, report.C, err, residual, trend))
        prev_err = err

    if getattr(args, "format", "csv") == "json":
        doc = {
            "command": "sweep",
            "state": args.state,
            "mode": rc.mode,
            "oracle_diag": oracle,
            "rows": [
                {
                    "g": g,
                    "correlation_circuit": c,
                    "abs_error_vs_oracle_diag": err,
                    "max_weak_value_residual": residual,
                    "error_nonincreasing": trend,
                }
                for g, c, err, residual, trend in rows
            ],
        }
        _emit(render_json(doc), args.out)
        return 0
    lines = [f"# oracle_diag={_fmt_float(oracle)}"]
    lines.append(
        "g,correlation_circuit,abs_error_vs_oracle_diag,max_weak_value_residual,error_nonincreasing"
    )
    for g, c, err, residual, trend in rows:
        lines.append(
            f"{_fmt_float(g)},{_fmt_float(c)},{_fmt_float(err)},{_fmt_float(residual)},{trend}"
        )
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
    mub_ok = is_mutually_unbiased(comp, mub, tol=1e-12)

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
        print("error: n_qubits must be >= 1", file=sys.stderr)
        return 2
    if args.n_qubits > math.log2(MAX_DIM):
        print(
            f"error: n_qubits = {args.n_qubits} spans more than the limit "
            f"MAX_DIM = {MAX_DIM} basis states",
            file=sys.stderr,
        )
        return 2
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
    residual = float(np.max(np.abs(rebuilt - direct)))
    marginals = partial_trace(rho, [0])
    for party in range(1, n):
        marginals = tensor_product(marginals, partial_trace(rho, [party]))

    if args.format == "csv":
        lines = ["i,j,direct_re,direct_im,reconstructed_re,reconstructed_im,abs_residual"]
        for i in range(d):
            for j in range(d):
                dv, rv = direct[i, j], rebuilt[i, j]
                lines.append(
                    f"{i + 1},{j + 1},{_fmt_float(dv.real)},{_fmt_float(dv.imag)},"
                    f"{_fmt_float(rv.real)},{_fmt_float(rv.imag)},"
                    f"{_fmt_float(abs(rv - dv))}"
                )
        lines.append(f"# max_reconstruction_residual={_fmt_float(residual)}")
        _emit("\n".join(lines) + "\n", args.out)
        return 0
    doc = {
        "command": "oracle",
        "state": args.state,
        "n_parties": n,
        "direct_elements": [[_complex_pair(z) for z in row] for row in direct],
        "reconstructed_elements": [[_complex_pair(z) for z in row] for row in rebuilt],
        "max_reconstruction_residual": residual,
        "oracle_diag": correlation_oracle_diag(rho),
        "trace_distance_to_marginal_product": trace_distance(rho, marginals),
    }
    _emit(render_json(doc), args.out)
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakcorr",
        description="Correlation measurement of an unknown state via weak coupling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, state=True, config=True):
        if state:
            p.add_argument("--state", required=True, help="state file (JSON)")
        if config:
            p.add_argument("--config", help="config file (JSON)")
            p.add_argument("--backend", choices=("analytic", "circuit"))
            p.add_argument("--mode", choices=("literal", "idealized"))
            p.add_argument("--g", type=float)
            p.add_argument("--sigma", type=float)
            p.add_argument("--seed", type=int)
        p.add_argument("--out", help="write the report here instead of stdout")

    p_run = sub.add_parser("run", help="run the protocol and report the correlation")
    common(p_run)
    p_run.add_argument("--format", choices=FORMAT_CHOICES, default="json")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="circuit-backend sweep over coupling strengths")
    common(p_sweep)
    p_sweep.add_argument(
        "--g-list", required=True, help="comma-separated descending coupling strengths"
    )
    p_sweep.add_argument("--format", choices=FORMAT_CHOICES, default="csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_tables = sub.add_parser("tables", help="print the device table and postselection basis")
    p_tables.add_argument("n_qubits", type=int)
    p_tables.add_argument("--format", choices=("text", "csv"), default="text")
    p_tables.add_argument("--out")
    p_tables.set_defaults(func=cmd_tables)

    p_oracle = sub.add_parser("oracle", help="matrix-element reconstruction cross-check")
    p_oracle.add_argument("--state", required=True)
    p_oracle.add_argument("--format", choices=FORMAT_CHOICES, default="json")
    p_oracle.add_argument("--out")
    p_oracle.set_defaults(func=cmd_oracle)
    return parser


def _setup_logging() -> None:
    level = os.environ.get("WEAKCORR_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))


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
    except json.JSONDecodeError as exc:
        print(
            f"error: parse failure at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return 2
    except UnicodeDecodeError as exc:
        print(f"error: parse failure: {exc}", file=sys.stderr)
        return 2
    except errors.ParseFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
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
