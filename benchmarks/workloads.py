"""The three benchmark workloads and the independent references that gate them.

Each workload draws a fresh random full-rank state per op from
``qcore.random_density_matrix``, with a per-op seed derived from the
benchmark seed, so the program only ever sees the generated states.  The
references below are plain numpy written from the formulas, sharing no code
with weakcorr; ``check`` returns ``None`` for a correct result and a short
reason otherwise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

COMPLETENESS_TOL = 1e-12
MATCH_TOL = 1e-12
SWEEP_G = (0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001)
# The sweep gate checks the weak-coupling regime only.
WEAK_G = 1e-2
# |C(g) - limit| / g^2 must agree across the weak-coupling g within this
# factor; a deviation linear in g changes the ratio tenfold over the range.
QUADRATIC_SPREAD = 1.05
SLOPE_TOL = 0.1


def op_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# independent references


def bit_table(n: int) -> np.ndarray:
    """bits[i, p] is qubit p of label i, first qubit most significant."""
    labels = np.arange(2**n)
    return (labels[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1


def hadamard_rows(n: int) -> np.ndarray:
    """Row k is the sign-pattern basis vector (-1)^popcount(k & i) / sqrt(2^n)."""
    bits = bit_table(n)
    parity = (bits @ bits.T) % 2
    return (1.0 - 2.0 * parity) / math.sqrt(2**n)


def marginal(rho: np.ndarray, n: int, party: int) -> np.ndarray:
    t = rho.reshape(2**party, 2, 2 ** (n - party - 1), 2**party, 2, 2 ** (n - party - 1))
    return np.einsum("aibajb->ij", t)


def _joint_line(rho: np.ndarray, n: int):
    """Postselection probabilities P[k] and line-1 weak values W[k, i]."""
    b = hadamard_rows(n)
    prob = np.real(np.einsum("ki,ij,kj->k", b.conj(), rho, b))
    return prob, b.conj() * (b @ rho.T) / prob[:, None]


def _correlation_sum(prob, joint, parties, bits) -> float:
    """sum_k P_k sum_i |W[k, i] - prod_p w_p[k, bit_p(i)]|."""
    product = np.ones_like(joint)
    for p, per_digit in enumerate(parties):
        product = product * per_digit[:, bits[:, p]]
    return float(np.sum(prob * np.sum(np.abs(joint - product), axis=1)))


def analytic_reference(rho: np.ndarray, n: int) -> float:
    """C from the postselected weak-value formula; party lines on 2x2 marginals."""
    prob, joint = _joint_line(rho, n)
    bits = bit_table(n)
    parties = []
    for p in range(n):
        m = marginal(rho, n, p)
        f = np.stack([np.ones(2**n), 1.0 - 2.0 * bits[:, p]], axis=1) / math.sqrt(2.0)
        pf = np.real(np.einsum("ka,ab,kb->k", f.conj(), m, f))
        parties.append(f.conj() * (f @ m.T) / pf[:, None])
    return _correlation_sum(prob, joint, parties, bits)


def skip_broadcast_limit(rho: np.ndarray, n: int) -> float:
    """g -> 0 limit of the copy-free circuit value.

    The party-p line reads <b|(P_digit (x) I) rho|b> / P on the full state,
    which is the sum of the line-1 weak values over the columns whose
    qubit p equals the digit.
    """
    prob, joint = _joint_line(rho, n)
    bits = bit_table(n)
    parties = [
        np.stack([joint[:, bits[:, p] == digit].sum(axis=1) for digit in (0, 1)], axis=1)
        for p in range(n)
    ]
    return _correlation_sum(prob, joint, parties, bits)


def diagonal_reference(rho: np.ndarray, n: int) -> float:
    """sum_i |rho_ii - prod_p (marginal diagonal of p)_i|."""
    diag = np.real(np.diag(rho))
    cube = diag.reshape((2,) * n)
    product = np.ones(1)
    for p in range(n):
        product = np.kron(product, cube.sum(axis=tuple(q for q in range(n) if q != p)))
    return float(np.sum(np.abs(diag - product)))


def loglog_slope(xs, ys) -> float:
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


# ---------------------------------------------------------------------------
# workloads


@dataclass
class OpInput:
    rho: np.ndarray  # the state's matrix, for the references
    arg: object  # what the op hands to weakcorr


class _Workload:
    name: str
    n: int

    def __init__(self, wc, workdir: Path, n: int | None = None):
        self.wc = wc
        self.n = n or self.n

    def make_input(self, seed: int, index: int) -> OpInput:
        state = self.wc.random_density_matrix((2,) * self.n, op_seed(seed, index))
        return OpInput(state.matrix, state)


class Analytic(_Workload):
    """correlation(rho, "analytic", "idealized"): the analytic weak-value kernel."""

    name = "analytic-n6"
    n = 6

    def run(self, inp: OpInput):
        return self.wc.correlation(inp.arg, "analytic", "idealized")

    def check(self, inp: OpInput, report) -> str | None:
        want = analytic_reference(inp.rho, self.n)
        if not abs(report.C - want) <= MATCH_TOL:
            return f"C={report.C!r} but the reference gives {want!r}"
        if not report.max_completeness_residual <= COMPLETENESS_TOL:
            return f"completeness residual {report.max_completeness_residual:.3e}"
        return None


class CircuitCopies(_Workload):
    """correlation(rho, "circuit", "literal") with broadcast copies, outcome 0."""

    name = "circuit-copies-n4"
    n = 4

    def run(self, inp: OpInput):
        return self.wc.correlation(inp.arg, "circuit", "literal", broadcast_outcome=0)

    def check(self, inp: OpInput, report) -> str | None:
        want = diagonal_reference(inp.rho, self.n)
        if not abs(report.oracle_diag - want) <= MATCH_TOL:
            return f"oracle_diag={report.oracle_diag!r} but the reference gives {want!r}"
        if not abs(report.C - report.oracle_diag) <= MATCH_TOL:
            return f"|C - oracle_diag| = {abs(report.C - report.oracle_diag):.3e}"
        return None


class SweepDirect(_Workload):
    """In-process `weakcorr sweep` over eight g, idealized and copy-free."""

    name = "sweep-direct-n4"
    n = 4

    def __init__(self, wc, workdir: Path, n: int | None = None):
        super().__init__(wc, workdir, n)
        self.config = workdir / "sweep-config.json"
        self.state = workdir / "sweep-state.json"
        self.out = workdir / "sweep-out.csv"
        self.config.write_text(json.dumps({"mode": "idealized", "skip_broadcast": True}))

    def make_input(self, seed: int, index: int) -> OpInput:
        state = super().make_input(seed, index).arg
        entries = [[float(z.real), float(z.imag)] for z in state.matrix.reshape(-1)]
        self.state.write_text(json.dumps({"dims": list(state.dims), "entries": entries}))
        if self.out.exists():
            self.out.unlink()
        argv = [
            "sweep",
            "--state", str(self.state),
            "--config", str(self.config),
            "--g-list", ",".join(str(g) for g in SWEEP_G),
            "--out", str(self.out),
        ]
        return OpInput(state.matrix, argv)

    def run(self, inp: OpInput):
        code = self.wc.cli.main(inp.arg)
        if code != 0:
            raise RuntimeError(f"weakcorr sweep exited with {code}")
        return self.out

    def check(self, inp: OpInput, out: Path) -> str | None:
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        if [float(r[0]) for r in rows] != list(SWEEP_G):
            return f"expected one row per g in {SWEEP_G}"
        limit = skip_broadcast_limit(inp.rho, self.n)
        weak = [(float(r[0]), float(r[1]), float(r[3])) for r in rows if float(r[0]) <= WEAK_G]
        ratios = [abs(c - limit) / g**2 for g, c, _ in weak]
        if not min(ratios) > 0 or max(ratios) / min(ratios) > QUADRATIC_SPREAD:
            return f"|C - limit| / g^2 = {ratios} is not constant: not quadratic in g"
        slope = loglog_slope([g for g, _, _ in weak], [r for _, _, r in weak])
        if not abs(slope - 2.0) <= SLOPE_TOL:
            return f"weak-value residual log-log slope {slope:.3f}, expected 2 +- {SLOPE_TOL}"
        return None


WORKLOADS = {w.name: w for w in (Analytic, CircuitCopies, SweepDirect)}
