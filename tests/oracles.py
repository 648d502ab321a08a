"""Independent brute-force reference implementations used by the tests.

Everything here is written directly against numpy with explicit matrix
constructions (kron chains, lifted gates, axis-pair traces) so that it
shares no code path with the package under test.  The sections at the end
are the exceptions: the gate-level conveyance reference chains the
package's own circuit primitives (entangled pair, controlled shift plus
measurement, partial trace), and the per-element weak-value tables call
the package's one-element weak-value formula once per (postselection,
column).  Those primitives are checked against the brute-force oracles
above.  The last two are the row-by-row loops the array expressions of
the estimator replaced: the copies-layout limits and the correlation sum.
The staged circuit readout chains the package's gate-level pipeline
(broadcast, pointer coupling, one postselected readout per postselection),
which the circuit backend computes in closed form.  The matrix-element
reconstruction is the per-postselection sum the reconstruction identity
replaced, the circuit sweep is the one-call-per-g loop
``correlation_sweep`` replaced, ``sweep_pairs`` pairs each of its reports
with the residual read from the same block, and ``sweep_rows_by_reports``
(with ``sweep_report_by_reports``, its printed form through the per-cell
``_csv_row`` that the ``cli`` row templates replaced) is the row loop over
those reports that ``weakcorr sweep`` replaced by reading the blocks'
arrays, whose bytes must match.  The two diagonal oracles are the
marginal-by-marginal loop ``correlation_oracle_diag`` replaced and the
Kronecker chain its outer product replaced, which it must match bit for
bit.  The next section holds two paths the package must also match bit
for bit: the analytic party lines read one marginal at a time through
the package's partial trace and divided row by row, and the conveyance that relabels on every
call, the identity relabel included.  The last is the sweep residual
taken one table pair at a time, which the sweep's two masked maxima per
block of couplings must match bit for bit, and the combination step and
the block residual as they read through numpy's Python wrappers (sums,
``np.where``, ``np.cumsum``, a concatenation), which the estimator's ufunc
methods must match bit for bit.  The kernels before the contiguous
layouts are the two-index marginal gather, the party product with one
party's digits innermost, the completeness sum on the complex line 1 and
the party lines as column slices of one row-layout matmul;
``ROW_KERNELS`` maps each estimator kernel to the form it replaced, and
every report and kernel must match them bit for bit.  The circuit
table's section holds the per-party reductions the selector matmul
replaced, the line-1 quotient that scaling by the reciprocal row sum
replaced, the damping
exponent built on every call, which the cached one must match bit for
bit, and the damping with one scalar ``np.exp`` per coupling, which the
one ``np.exp`` over a block's couplings must match bit for bit.  The
copies report by matrix is the route the flat lines from the conveyed
diagonal replaced: the whole conveyed matrix, the limit formula on a
stack of one and the stacked combination step, which the report from the
flat lines must match bit for bit; its limit formula goes through
``_limits_lines``, the one dispatcher over both layouts that the estimator's no-copies
block body and ``weak_value_limits`` replaced.  ``dump_state`` writes the
dense state files the command-line tests read, and ``oracle_csv_rows_loop``
is the per-element loop that ``weakcorr oracle --format csv`` replaced
with one format per matrix row; the bytes must match.
"""

import math
from collections import namedtuple

import numpy as np

from weakcorr import (
    ConveyanceRecord,
    PointerConfig,
    analytic_weak_value,
    bell_state,
    broadcast,
    convey,
    correlation,
    correlation_oracle_diag,
    correlation_sweep,
    couple_all,
    extract_weak_value,
    hadamard_mub,
    ket2dm,
    party_factors,
    partial_trace,
    postselect_and_read,
    postselection_probability,
    strong_couple_and_measure,
    tensor_product,
    weak_value_limits,
)
from weakcorr.cli import _SWEEP_COLUMNS, _fmt_float, render_json
from weakcorr.errors import NullPostselection, UnbiasednessViolation
from weakcorr.estimator import (
    SKIP_THRESHOLD,
    CorrelationReport,
    WeakValueTable,
    _combine,
    _diagnostics,
    _diagonal_lines,
    _line0,
    _party_lines,
    _party_selector,
    _report,
    _scale_rows,
    _sweep,
    _weak_value_numerator,
)
from weakcorr.qcore import DensityMatrix, digit_table

SQ2 = np.sqrt(2.0)


def kron_chain(*mats):
    out = np.array([[1.0 + 0.0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def ptrace_keep(mat, dims, keep):
    """Partial trace implemented by repeated axis-pair contraction."""
    dims = list(dims)
    remaining = list(range(len(dims)))
    work = mat.reshape(dims + dims)
    for idx in sorted((i for i in remaining if i not in keep), reverse=True):
        pos = remaining.index(idx)
        work = np.trace(work, axis1=pos, axis2=pos + len(remaining))
        remaining.pop(pos)
        dims.pop(pos)
    arrange = [remaining.index(k) for k in keep]
    work = np.transpose(work, arrange + [a + len(remaining) for a in arrange])
    d = int(np.prod(dims))
    return work.reshape(d, d)


def lift1(op, pos, n):
    """Single-qubit operator embedded at position ``pos`` of ``n`` qubits."""
    mats = [np.eye(2, dtype=complex)] * n
    mats[pos] = op
    return kron_chain(*mats)


X = np.array([[0, 1], [1, 0]], dtype=complex)
P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)


def cnot(control, target, n):
    return lift1(P0, control, n) @ lift1(np.eye(2), target, n) + lift1(
        P1, control, n
    ) @ lift1(X, target, n)


def bell_dm():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / SQ2
    return np.outer(v, v.conj())


def convey_literal_bruteforce(rho, nu1, nu2):
    """Gate-level simulation of the two-party conveyance of a 3-qubit state.

    Qubit order: A, B, C, A_N, C_N1, B_N, C_N2 (7 qubits).  Returns the
    normalized state on (C_N1, C_N2, C) and the outcome probability.
    """
    full = kron_chain(rho, bell_dm(), bell_dm())
    u = cnot(0, 3, 7) @ cnot(1, 5, 7)
    full = u @ full @ u.conj().T
    proj = lift1(P0 if nu1 == 0 else P1, 3, 7) @ lift1(P0 if nu2 == 0 else P1, 5, 7)
    full = proj @ full @ proj.conj().T
    prob = float(np.real(np.trace(full)))
    reduced = ptrace_keep(full, [2] * 7, [4, 6, 2])
    return reduced / prob, prob


def mub_vectors(n):
    """Sign-pattern basis rebuilt from first principles."""
    d = 2**n
    out = np.zeros((d, d))
    for k in range(d):
        for i in range(d):
            out[k, i] = (-1) ** bin(k & i).count("1")
    return out / np.sqrt(d)


def eq_weak_value(rho, a_op, b_vec):
    num = b_vec.conj() @ a_op @ rho @ b_vec
    den = float(np.real(b_vec.conj() @ rho @ b_vec))
    return complex(num) / den


def diag_correlation(rho, n):
    diag = np.real(np.diag(rho))
    prod = np.ones(1)
    for p in range(n):
        marg = ptrace_keep(rho, [2] * n, [p])
        prod = np.kron(prod, np.real(np.diag(marg)))
    return float(np.sum(np.abs(diag - prod)))


def bruteforce_correlation(rho, n):
    """Postselected weak-value correlation evaluated from raw formulas."""
    d = 2**n
    bvecs = mub_vectors(n)
    total = 0.0
    skipped = []
    for k in range(d):
        b = bvecs[k].astype(complex)
        pk = float(np.real(b.conj() @ rho @ b))
        if pk < 1e-14:
            skipped.append(k)
            continue
        term = 0.0
        for i in range(d):
            a = np.zeros((d, d), dtype=complex)
            a[i, i] = 1.0
            w_joint = eq_weak_value(rho, a, b)
            w_prod = 1.0 + 0.0j
            for p in range(n):
                marg = ptrace_keep(rho, [2] * n, [p])
                bit = (i >> (n - 1 - p)) & 1
                sign = -1.0 if (k >> (n - 1 - p)) & 1 else 1.0
                bp = np.array([1.0, sign], dtype=complex) / SQ2
                ap = np.zeros((2, 2), dtype=complex)
                ap[bit, bit] = 1.0
                w_prod *= eq_weak_value(marg, ap, bp)
            term += abs(w_joint - w_prod)
        total += pk * term
    return total, skipped


def skip_broadcast_correlation(rho, n):
    """Zero-coupling correlation of the layout without broadcast copies.

    Every device, joint or single-party, reads the weak value of its
    projector on the full state: the joint line reads |i><i| and the line
    of party p reads |bit_p><bit_p| lifted to all n qubits.
    """
    d = 2**n
    bvecs = mub_vectors(n)
    total = 0.0
    for k in range(d):
        b = bvecs[k].astype(complex)
        pk = float(np.real(b.conj() @ rho @ b))
        if pk < 1e-14:
            continue
        term = 0.0
        for i in range(d):
            a = np.zeros((d, d), dtype=complex)
            a[i, i] = 1.0
            w_prod = 1.0 + 0.0j
            for p in range(n):
                bit = (i >> (n - 1 - p)) & 1
                w_prod *= eq_weak_value(rho, lift1(P1 if bit else P0, p, n), b)
            term += abs(eq_weak_value(rho, a, b) - w_prod)
        total += pk * term
    return total


def random_rho(d, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return m / np.trace(m)


def projector(table, line, column):
    """The dense projector of device (line, column) of a ``DeviceTable``:
    |column><column| on line 0, and on line p + 1 party p's projector onto
    the digit ``party_digits[column, p]``."""
    if line == 0:
        d = table.n_columns
        index = column
    else:
        d = table.dims[line - 1]
        index = table.party_digits[column, line - 1]
    out = np.zeros((d, d), dtype=complex)
    out[index, index] = 1.0
    return out


def assemble(bs):
    """The pre-coupling state a ``BranchState`` stores as its nonzero
    matrix elements ``weights`` at (``kets``, ``bras``)."""
    d = math.prod(bs.dims)
    m = np.zeros((d, d), dtype=complex)
    m[bs.kets, bs.bras] = bs.weights
    return DensityMatrix(bs.dims, m)


# -- gate-level conveyance and broadcast


def convey_literal_gates(rho, outcomes):
    """Literal conveyance run gate by gate on a DensityMatrix.

    One aligned entangled pair per conveyed party is attached, the party is
    controlled-shifted onto the first pair member, that member is measured
    with the given outcome and removed; finally the originals of the
    conveyed parties are traced out.
    """
    n = len(rho.dims)
    work = rho
    prob = 1.0
    for party, nu in enumerate(outcomes):
        work = tensor_product(work, ket2dm(bell_state(rho.dims[party])))
        rec = strong_couple_and_measure(
            work, control=party, target=len(work.dims) - 2, outcome=nu
        )
        work = rec.state
        prob *= rec.probability
    # Layout now: n original parties, then one image per conveyed party.
    keep = list(range(n, 2 * n - 1)) + [n - 1]
    return ConveyanceRecord(partial_trace(work, keep), tuple(outcomes), prob)


def broadcast_gates(rho, party, outcome):
    """Copy fan-out run gate by gate: pair, controlled shift, measurement."""
    work = tensor_product(rho, ket2dm(bell_state(rho.dims[party])))
    return strong_couple_and_measure(
        work, control=party, target=len(work.dims) - 1, outcome=outcome
    )


# -- per-element weak-value tables

# A weak-value table written out per (line, postselection, column), the
# form ``WeakValueTable.values`` builds; the builders below return it.
DenseTable = namedtuple("DenseTable", "values probabilities skipped")


def analytic_table_loop(state, basis_b, table, threshold=1e-14):
    """Analytic weak-value table built one (postselection, column) at a time.

    Line 0 is the weak value of each dense joint projector on ``state``;
    line p + 1 is the weak value of |digit><digit| on party p's marginal,
    postselected on party p's factor of the postselection vector.
    """
    n = table.n_parties
    columns = table.n_columns
    factors = [party_factors(b) for b in basis_b.vectors]
    marginals = [partial_trace(state, [p]) for p in range(n)]
    values = np.zeros((table.n_lines, len(basis_b), columns), dtype=complex)
    probs = np.zeros(len(basis_b))
    skipped = []
    for k, b in enumerate(basis_b.vectors):
        probs[k] = postselection_probability(state, b)
        if probs[k] < threshold:
            skipped.append(k)
            continue
        for i in range(columns):
            values[0, k, i] = analytic_weak_value(state, projector(table, 0, i), b)
        for line in range(1, table.n_lines):
            party = line - 1
            per_digit = [
                analytic_weak_value(
                    marginals[party],
                    np.diag(np.eye(table.dims[party])[digit]).astype(complex),
                    factors[k][party],
                )
                for digit in range(table.dims[party])
            ]
            for i in range(columns):
                values[line, k, i] = per_digit[table.party_digits[i, party]]
    return DenseTable(values, probs, tuple(skipped))


def skip_broadcast_limits_loop(state, basis_b, table, threshold=1e-14):
    """Zero-coupling table without copies, one lifted projector at a time.

    Every line reads the weak value of its projector on the full qubit
    state: |i><i| on line 0, and |bit><bit| of party p lifted to all
    qubits on line p + 1.
    """
    n = table.n_parties
    columns = table.n_columns
    values = np.zeros((table.n_lines, len(basis_b), columns), dtype=complex)
    probs = np.zeros(len(basis_b))
    skipped = []
    for k, b in enumerate(basis_b.vectors):
        probs[k] = postselection_probability(state, b)
        if probs[k] < threshold:
            skipped.append(k)
            continue
        for i in range(columns):
            values[0, k, i] = analytic_weak_value(state, projector(table, 0, i), b)
        for line in range(1, table.n_lines):
            party = line - 1
            lifted = {
                digit: analytic_weak_value(
                    state, lift1(P1 if digit else P0, party, n), b
                )
                for digit in (0, 1)
            }
            for i in range(columns):
                values[line, k, i] = lifted[table.party_digits[i, party]]
    return DenseTable(values, probs, tuple(skipped))


def copies_limits_loop(state, basis_b, table, broadcast_outcome=0, threshold=1e-14):
    """Zero-coupling table with broadcast copies, one postselection at a time.

    Qubit parties only: the copy digit is taken mod 2 and only the digits
    0 and 1 are filled in.  Line 0 is the postselected dephased state; the
    line of party p in a column with digit v sums line 0 over the labels
    whose copy digit (broadcast_outcome - x_p) mod 2 equals v.
    """
    values = np.zeros((table.n_lines, len(basis_b), table.n_columns), dtype=complex)
    probs = np.zeros(len(basis_b))
    skipped = []
    diag = state.diagonal()
    for k, b in enumerate(basis_b.vectors):
        weights = diag * np.abs(b.amplitudes) ** 2
        probs[k] = float(weights.sum())
        if probs[k] < threshold:
            skipped.append(k)
            continue
        values[0, k, :] = weights / probs[k]
        for line in range(1, table.n_lines):
            party = line - 1
            copy_digit = (broadcast_outcome - table.party_digits[:, party]) % 2
            for wanted in (0, 1):
                share = weights[copy_digit == wanted].sum() / probs[k]
                cols = table.party_digits[:, party] == wanted
                values[line, k, cols] = share
    return DenseTable(values, probs, tuple(skipped))


# -- the correlation sum


def correlation_sum_loop(wvt):
    """C = sum_k P_k sum_i |W[0, k, i] - prod_j W[j, k, i]|, row by row.

    Returns C and the per-postselection terms, 0.0 for skipped rows.
    """
    skipped = set(wvt.skipped)
    terms = []
    total = 0.0
    for k in range(wvt.values.shape[1]):
        if k in skipped:
            terms.append(0.0)
            continue
        joint = wvt.values[0, k, :]
        parts = np.prod(wvt.values[1:, k, :], axis=0)
        term = float(np.sum(np.abs(joint - parts)))
        total += float(wvt.probabilities[k]) * term
        terms.append(term)
    return total, terms


# -- the staged circuit readout


def staged_circuit_table(
    state, basis_b, table, cfg, broadcast_outcome=0, skip_broadcast=False, threshold=1e-14
):
    """Circuit weak-value table read stage by stage, one postselection at a time.

    Unless ``skip_broadcast``, every party gets its broadcast copy with the
    given outcome; every device is coupled to its pointer, line 1 is
    postselected on each basis vector, and the pointer means are turned back
    into weak values.  Rows whose postselection probability is below
    ``threshold`` are skipped and keep probability 0.
    """
    extended = state
    if not skip_broadcast:
        for party in range(table.n_parties):
            extended = broadcast(extended, party, broadcast_outcome).state
    bs = couple_all(extended, table)
    values = np.zeros((table.n_lines, len(basis_b), table.n_columns), dtype=complex)
    probs = np.zeros(len(basis_b))
    skipped = []
    for k, b in enumerate(basis_b.vectors):
        try:
            readings = postselect_and_read(bs, b, cfg)
        except NullPostselection:
            skipped.append(k)
            continue
        probs[k] = readings.postselection_probability
        if probs[k] < threshold:
            skipped.append(k)
            continue
        values[:, k, :] = extract_weak_value(readings.delta_q, readings.delta_p, cfg)
    return DenseTable(values, probs, tuple(skipped))


# -- matrix-element reconstruction


def reconstruct_element_loop(i, j, rho, basis_a, basis_b):
    """<a_i| rho |a_j> as sum_k (beta_kj / beta_ki) P_k W_ki, one k at a time.

    beta_kx = <b_k|a_x>; P_k W_ki = <b_k|a_i><a_i| rho |b_k> is finite even
    when P_k vanishes.  Raises UnbiasednessViolation on a zero beta_ki.
    """
    a_i = basis_a.matrix[i]
    a_j = basis_a.matrix[j]
    total = 0.0 + 0.0j
    for k in range(len(basis_b)):
        b = basis_b.matrix[k]
        beta_ki = complex(b.conj() @ a_i)
        if abs(beta_ki) <= 1e-14:
            raise UnbiasednessViolation(
                f"<b_{k}|a_{i}> = 0; reconstruction needs unbiased bases"
            )
        beta_kj = complex(b.conj() @ a_j)
        pk_w = beta_ki * complex(a_i.conj() @ rho.matrix @ b)
        total += (beta_kj / beta_ki) * pk_w
    return total


# -- the circuit sweep


def correlation_loop(rho, mode, cfgs, **kwargs):
    """One circuit-backend ``correlation`` call per pointer configuration."""
    return [correlation(rho, "circuit", mode, cfg, **kwargs) for cfg in cfgs]


def sweep_pairs(rho, mode, cfgs, *, residuals, skip_broadcast=False, **kwargs):
    """Each report of ``correlation_sweep`` paired with its residual.

    Without copies the reports are built from the blocks of
    ``estimator._sweep``, each paired with its row of the block's residuals
    (None without ``residuals``); with copies the table is the limit, so
    each residual is 0.0.
    """
    if not skip_broadcast:
        reports = correlation_sweep(rho, mode, cfgs, **kwargs)
        return [(report, 0.0 if residuals else None) for report in reports]
    sweep = _sweep(rho, mode, tuple(cfgs), residuals=residuals, **kwargs)
    settings = dict(
        backend="circuit",
        mode=mode,
        outcomes=sweep.outcomes,
        broadcast_outcome=sweep.broadcast_outcome,
        skip_broadcast=True,
    )
    pairs = []
    diag_eff = sweep.state.diagonal()
    for block in sweep.blocks:
        distances = block.residuals.tolist() if residuals else [None] * len(block.cfgs)
        for s, (cfg, distance) in enumerate(zip(block.cfgs, distances, strict=True)):
            lines = block.lines.row(s)
            report = _report(
                lines, diag_eff, cfg, sweep.labels, rho, oracle_diag=sweep.oracle_diag, **settings
            )
            pairs.append((report, distance))
    return pairs


def sweep_rows_by_reports(rho, mode, cfgs, *, skip_broadcast=False, **kwargs):
    """The oracle value and the rows of ``weakcorr sweep``, one report at a
    time: the reports of ``correlation_sweep``, each row's residual the
    masked max of its table against the zero-coupling limit
    (``max_difference``), and the trend read row by row."""
    n = len(rho.dims)
    outcomes = kwargs.get("outcomes") or (0,) * (n - 1)
    basis = kwargs.get("postselection") or hadamard_mub(n)
    mu = kwargs.get("broadcast_outcome", 0)
    state = convey(rho, outcomes, mode).state
    limits = weak_value_limits(state, basis, mu, skip_broadcast)
    rows = []
    prev_err = None
    for report in correlation_sweep(rho, mode, cfgs, skip_broadcast=skip_broadcast, **kwargs):
        err = abs(report.C - report.oracle_diag)
        trend = "na" if prev_err is None else ("yes" if err <= prev_err else "no")
        rows.append((report.g, report.C, err, max_difference(report.table, limits), trend))
        prev_err = err
    return report.oracle_diag, rows


def _csv_row(row) -> str:
    """A report row as one CSV line, cell by cell: floats as ``_fmt_float``,
    booleans in lower case; the per-cell form the ``cli`` row templates
    replaced."""
    cells = [str(v).lower() if isinstance(v, bool) else v for v in row]
    return ",".join(_fmt_float(v) if isinstance(v, float) else str(v) for v in cells)


def sweep_report_by_reports(state_path, fmt, rho, mode, g_list, sigma, **kwargs):
    """The text ``weakcorr sweep --format fmt`` prints for the state file
    ``state_path`` holding ``rho``, from ``sweep_rows_by_reports``: each CSV
    row through ``_csv_row``, each JSON row a dict."""
    cfgs = [PointerConfig(g, sigma) for g in g_list]
    oracle, rows = sweep_rows_by_reports(rho, mode, cfgs, **kwargs)
    if fmt == "json":
        doc = {
            "command": "sweep",
            "state": state_path,
            "mode": mode,
            "oracle_diag": oracle,
            "rows": [dict(zip(_SWEEP_COLUMNS, row)) for row in rows],
        }
        return render_json(doc)
    lines = [f"# oracle_diag={_fmt_float(oracle)}", ",".join(_SWEEP_COLUMNS)]
    return "\n".join(lines + [_csv_row(row) for row in rows]) + "\n"


# -- the diagonal oracle


def correlation_oracle_diag_loop(rho):
    """sum_i |rho_ii - prod_p (marginal diagonal of p)_i|, one d_p x d_p
    marginal per party from the package's partial trace."""
    diag = rho.diagonal()
    prod = np.ones(1)
    for party in range(len(rho.dims)):
        prod = np.kron(prod, partial_trace(rho, [party]).diagonal())
    return float(np.sum(np.abs(diag - prod)))


def correlation_oracle_diag_kron(rho):
    """The same sum with the marginal diagonals summed from the state's
    diagonal and chained by ``np.kron``, the product the outer-product
    accumulation of ``correlation_oracle_diag`` replaced."""
    diag = rho.diagonal()
    cube = diag.reshape(rho.dims)
    n = len(rho.dims)
    prod = np.ones(1)
    for party in range(n):
        prod = np.kron(prod, cube.sum(axis=tuple(q for q in range(n) if q != party)))
    return float(np.sum(np.abs(diag - prod)))


# -- the per-party and always-relabelling paths


def lines_of_parties(probs, line0, parties):
    """The estimator's lines holding the party lines ``parties``, party p's
    of shape (..., K, d_p), as their (..., sum d_p, K) stack: a copy, so
    every value is the party line's bit for bit."""
    stack = np.concatenate([line.swapaxes(-1, -2) for line in parties], axis=-2)
    return WeakValueTable(probs, line0, stack, tuple(line.shape[-1] for line in parties))


def rows_by_division(num, kept):
    """Each kept row of ``num`` divided by its sum, the other rows +0.0: the
    quotient that the party lines' masked reciprocal scaling replaced.

    ``kept`` masks the trailing row axes of ``num``; the leading axes (a
    stack of parties) share it.  A kept row whose sum is below
    SKIP_THRESHOLD raises NullPostselection.
    """
    sums = np.real(num.sum(axis=-1))
    low = sums[..., kept]
    if low.size and low.min() < SKIP_THRESHOLD:
        raise NullPostselection(f"postselection probability {low.min():.3e}")
    return np.divide(num, sums[..., None], out=np.zeros_like(num), where=kept[..., None])


def analytic_lines_per_party(state, basis_b):
    """The analytic lines with one ``partial_trace``, one numerator and one
    row division per party, the loop the stacked gather replaced."""
    probs, kept, line0 = _line0(_weak_value_numerator(state.matrix[None], basis_b.matrix))
    parties = tuple(
        rows_by_division(_weak_value_numerator(partial_trace(state, [p]).matrix[None], f), kept)
        for p, f in enumerate(basis_b.factors)
    )
    return lines_of_parties(probs, line0, parties)


def convey_relabel_always(rho, outcomes, mode):
    """The conveyed state, relabelled on every call, the identity relabel
    included: the path the skipped identity relabel replaced."""
    radix = np.array(rho.dims[:-1])
    nu = np.array(outcomes)
    digits = digit_table(rho.dims)
    if mode == "idealized":
        digits[:, :-1] = (digits[:, :-1] + nu) % radix
        matrix = rho.matrix
    else:
        digits[:, :-1] = (nu - digits[:, :-1]) % radix
        block = np.arange(rho.dim) // rho.dims[-1]
        matrix = np.where(block[:, None] == block[None, :], rho.matrix, 0.0)
    perm = np.ravel_multi_index(tuple(digits.T), rho.dims)
    inverse = np.argsort(perm)
    state = DensityMatrix(rho.dims, matrix[np.ix_(inverse, inverse)])
    return ConveyanceRecord(state, tuple(outcomes), 1.0 / math.prod(rho.dims[:-1]))


# -- the sweep residual


def max_difference(table, limits):
    """max |table - limits| over every line, on the rows neither table skips:
    one sweep row's residual against the zero-coupling limit, taken on its
    own."""
    kept = (table.probabilities >= SKIP_THRESHOLD) & (limits.probabilities >= SKIP_THRESHOLD)
    pairs = zip((table.joint, *table.parties), (limits.joint, *limits.parties))
    differences = np.concatenate([a - b for a, b in pairs], axis=-1)
    return float(np.abs(differences[kept]).max(initial=0.0))


def combine_by_wrappers(lines, diag_eff):
    """The combination step through numpy's Python wrappers (``.sum``,
    ``np.where``, ``np.cumsum``, ``.max``, ``.any``, ``.min``): the body
    the ufunc methods of ``estimator._combine`` replaced, which must match
    it bit for bit."""
    probs, joint = lines.probabilities, lines.joint
    kept = probs >= SKIP_THRESHOLD
    terms = np.abs(joint - party_product_by_rows(lines.parties)).sum(axis=-1)
    totals = np.cumsum(np.where(kept, probs * terms, 0.0), axis=-1)[..., -1]
    recombined = np.einsum("...k,...ki->...i", probs, joint)
    residuals = np.abs(recombined - diag_eff).max(axis=-1)
    least = np.where(kept.any(axis=-1), np.where(kept, probs, np.inf).min(axis=-1), 0.0)
    return terms, totals, residuals, least


def residuals_by_concatenation(lines, limit):
    """Each stacked state's sweep residual from one concatenation of every
    line pair's difference, the party lines one by one: the body that the
    two masked maxima of ``estimator._residuals``, over line 1 and over the
    party-line stack, replaced, which must match it bit for bit."""
    kept = (lines.probabilities >= SKIP_THRESHOLD) & (limit.probabilities >= SKIP_THRESHOLD)
    pairs = zip((lines.joint, *lines.parties), (limit.joint, *limit.parties))
    differences = np.concatenate([a - b for a, b in pairs], axis=-1)
    return np.abs(differences).max(axis=(-2, -1), initial=0.0, where=kept[..., None])


# -- the circuit table before the selector


def party_lines_by_sums(line0, dims, broadcast_outcome=None):
    """Every party line of a stacked line 1, shape (stack, K, d): line 1
    summed over the other parties' digits, then read at the digit map, x
    without copies (``broadcast_outcome`` None) and (mu - x) mod d_p with
    them.  The n reductions and n gathers one selector matmul replaced."""
    n = len(dims)
    per_label = line0.reshape(line0.shape[:2] + tuple(dims))
    maps = [
        np.arange(l) if broadcast_outcome is None else (broadcast_outcome - np.arange(l)) % l
        for l in dims
    ]
    return tuple(
        per_label.sum(axis=tuple(2 + q for q in range(n) if q != p))[..., m]
        for p, m in enumerate(maps)
    )


def line0_by_division(num):
    """Line 1 as each kept row of ``num`` divided by its sum, the other rows
    +0.0: the quotient that scaling by the masked reciprocal replaced."""
    sums = np.real(num.sum(axis=-1))
    kept = sums >= SKIP_THRESHOLD
    return np.divide(num, sums[..., None], out=np.zeros_like(num), where=kept[..., None])


def damping_by_scalar_exps(exponent, cfgs):
    """Lambda_g = a_g ** D stacked over ``cfgs``, with one scalar ``np.exp``
    per configuration and a = 1.0 for None, the zero-coupling limit: the
    form one ``np.exp`` over the stacked exponents replaced."""
    a = np.array(
        [1.0 if c is None else np.exp(-(c.g * c.g) / (8.0 * c.sigma * c.sigma)) for c in cfgs]
    )
    return a[:, None, None] ** exponent


def damping_exponent_loop(table):
    """D[i, j], built from the table's digits on every call."""
    d = table.n_columns
    differing = 2.0 - 2.0 * np.eye(d)
    for x, d_p in zip(table.party_digits.T, table.dims):
        differing += (2 * d // d_p) * (x[:, None] != x[None, :])
    return differing


# -- the kernels before the contiguous layouts


def marginal_rows(n):
    """rows[r, p, x]: the basis index of n qubits whose qubit p is x and whose
    other qubits, first most significant, spell r; shape (2**(n-1), n, 2)."""
    shift = (n - 1 - np.arange(n))[:, None]
    r = np.arange(2 ** (n - 1))[:, None, None]
    return ((r >> shift) << (shift + 1)) | (np.arange(2) << shift) | (r & ((1 << shift) - 1))


def marginals_by_pair_gather(matrix, n):
    """Every single-qubit marginal, shape (n, 2, 2), from one gather by a
    (row, column) pair of index arrays: the form the flat-index gather of
    ``estimator._marginals`` replaced."""
    rows = marginal_rows(n)
    return np.add.reduce(matrix[rows[..., :, None], rows[..., None, :]], axis=0)


def party_product_by_rows(parties):
    """prod_p W_p[k, x_p(i)] built on the lines as given, (..., K, d_p), so
    one party's d_p digits are numpy's innermost loop: the form the
    postselection-innermost ``estimator._party_product`` replaced."""
    product = parties[0]
    for line in parties[1:]:
        product = (product[..., :, None] * line[..., None, :]).reshape(line.shape[:-1] + (-1,))
    return product


def diagnostics_by_complex_einsum(lines, diag_eff):
    """``estimator._diagnostics`` with the completeness sum taken by
    ``np.einsum`` on the complex line 1, which casts P to complex: the form
    the sum over line 1's float view replaced."""
    probs = lines.probabilities
    kept = probs >= SKIP_THRESHOLD
    recombined = np.einsum("...k,...ki->...i", probs, lines.joint)
    residuals = np.maximum.reduce(np.abs(recombined - diag_eff), axis=-1)
    least = np.minimum.reduce(
        probs, axis=-1, out=np.empty(probs.shape[:-1]), initial=np.inf, where=kept
    )
    least[~np.logical_or.reduce(kept, axis=-1)] = 0.0
    return residuals, least


def party_lines_by_row_matmul(num, dims, copy_outcome):
    """``estimator._party_lines`` with the party lines as column slices of
    line 1 times the selector, (..., K, sum d_p): the layout the
    postselection-innermost stack replaced."""
    probs, _, line0 = _line0(num)
    lines = (line0.reshape(-1, line0.shape[-1]) @ _party_selector(dims, copy_outcome)).reshape(
        line0.shape[:-1] + (-1,)
    )
    stops = np.cumsum(dims)
    parties = tuple(lines[..., stop - d_p : stop] for stop, d_p in zip(stops, dims))
    return lines_of_parties(probs, line0, parties)


def analytic_lines_by_rows(state, basis_b):
    """``estimator._analytic_lines`` with the two-index marginal gather and
    each party's (K, 2) line kept as its row of the scaled stack: the route
    the flat gather and the postselection-innermost stack replaced."""
    n = len(state.dims)
    probs, kept, line0 = _line0(_weak_value_numerator(state.matrix[None], basis_b.matrix))
    marginals = marginals_by_pair_gather(state.matrix, n)
    num = _weak_value_numerator(marginals, np.stack(basis_b.factors))
    sums = np.real(num.sum(axis=-1))
    low = sums[:, kept[0]]
    if low.size and low.min() < SKIP_THRESHOLD:
        raise NullPostselection(f"postselection probability {low.min():.3e}")
    parties = _scale_rows(num, sums, kept[0])
    return lines_of_parties(probs, line0, tuple(line[None] for line in parties))


def stack_product_by_rows(lines):
    """``party_product_by_rows`` behind the interface of
    ``estimator._party_product``: lines of shape (..., d_p, K) in, the
    (..., d, K) product out, computed on the lines transposed to (..., K,
    d_p) as before the change of layout."""
    return party_product_by_rows([line.swapaxes(-1, -2) for line in lines]).swapaxes(-1, -2)


# The estimator's kernels, each with the form above that it replaced.
ROW_KERNELS = {
    "_marginals": marginals_by_pair_gather,
    "_party_product": stack_product_by_rows,
    "_diagnostics": diagnostics_by_complex_einsum,
    "_party_lines": party_lines_by_row_matmul,
    "_analytic_lines": analytic_lines_by_rows,
}


# -- the copies layout through the whole conveyed matrix


def _limits_lines(
    matrices: np.ndarray,
    basis_matrix: np.ndarray,
    dims: tuple[int, ...],
    copy_outcome: int | None,
) -> WeakValueTable:
    """The limit formula of ``weak_value_limits`` on each state matrix of the
    stack ``matrices``, shape (stack, d, d), with the postselection vectors
    stacked as the rows of ``basis_matrix``, for parties of dimensions
    ``dims``; ``copy_outcome`` is the broadcast outcome with copies and None
    without them."""
    if copy_outcome is None:
        return _party_lines(_weak_value_numerator(matrices, basis_matrix), dims, None)
    diagonals = np.real(np.diagonal(matrices, axis1=-2, axis2=-1))
    return _diagonal_lines(np.abs(basis_matrix) ** 2, diagonals, dims, copy_outcome)


def copies_report_by_matrix(
    rho, mode, cfg, *, postselection=None, outcomes=None, broadcast_outcome=0
):
    """The circuit backend's copies report by the route the flat lines from
    the conveyed diagonal replaced: the whole conveyed matrix, the limit
    formula on a stack of one, and the stacked combination step."""
    n = len(rho.dims)
    basis_b = postselection or hadamard_mub(n)
    outcomes = tuple(outcomes) if outcomes is not None else (0,) * (n - 1)
    state = convey(rho, outcomes, mode).state
    lines = _limits_lines(state.matrix[None], basis_b.matrix, rho.dims, broadcast_outcome)
    (terms,), (total,) = _combine(lines)
    (residual,), (least,) = _diagnostics(lines, state.diagonal())
    return CorrelationReport(
        C=float(total),
        backend="circuit",
        mode=mode,
        g=cfg.g,
        sigma=cfg.sigma,
        outcomes=outcomes,
        broadcast_outcome=broadcast_outcome,
        skip_broadcast=False,
        table=lines.row(0),
        terms=terms,
        labels=basis_b.labels,
        oracle_diag=correlation_oracle_diag(rho),
        max_completeness_residual=float(residual),
        min_postselection_probability=float(least),
        rho=rho,
    )


# -- state files


def dump_state(rho):
    """A dense state file for ``rho``, with floats at full precision."""
    entries = ",\n    ".join(
        f"[{float(z.real)!r}, {float(z.imag)!r}]" for z in rho.matrix.reshape(-1)
    )
    dims = ", ".join(str(d) for d in rho.dims)
    return f'{{\n  "dims": [{dims}],\n  "entries": [\n    {entries}\n  ]\n}}\n'


def oracle_csv_rows_loop(direct, rebuilt):
    """The element rows of ``weakcorr oracle --format csv``, one per (i, j)."""
    d = len(direct)
    lines = []
    for i in range(d):
        for j in range(d):
            dv, rv = direct[i, j], rebuilt[i, j]
            lines.append(
                f"{i + 1},{j + 1},{_fmt_float(dv.real)},{_fmt_float(dv.imag)},"
                f"{_fmt_float(rv.real)},{_fmt_float(rv.imag)},"
                f"{_fmt_float(abs(rv - dv))}"
            )
    return lines
