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
replaced, and the circuit sweep at the very end is the one-call-per-g loop
``correlation_sweep`` replaced.
"""

import numpy as np

from weakcorr import (
    ConveyanceRecord,
    WeakValueTable,
    analytic_weak_value,
    bell_state,
    broadcast,
    correlation,
    couple_all,
    extract_weak_value,
    ket2dm,
    party_factors,
    partial_trace,
    postselect_and_read,
    postselection_probability,
    strong_couple_and_measure,
    tensor_product,
)
from weakcorr.errors import NullPostselection, UnbiasednessViolation

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
        pair = bell_state(rho.dims[party])
        work = tensor_product(work, ket2dm(pair.state))
        rec = strong_couple_and_measure(
            work, control=party, target=len(work.dims) - 2, outcome=nu
        )
        work = rec.state
        prob *= rec.probability
    # Layout now: n original parties, then one image per conveyed party.
    keep = list(range(n, 2 * n - 1)) + [n - 1]
    return ConveyanceRecord(partial_trace(work, keep), tuple(outcomes), prob)


def broadcast_gates(rho, party, outcome, variant="aligned"):
    """Copy fan-out run gate by gate: pair, controlled shift, measurement."""
    pair = bell_state(rho.dims[party], variant)
    work = tensor_product(rho, ket2dm(pair.state))
    return strong_couple_and_measure(
        work, control=party, target=len(work.dims) - 1, outcome=outcome
    )


# -- per-element weak-value tables


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
            values[0, k, i] = analytic_weak_value(state, table.projector(0, i), b)
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
                values[line, k, i] = per_digit[table.shift_digit(line, i)]
    return WeakValueTable(values, probs, tuple(skipped))


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
            values[0, k, i] = analytic_weak_value(state, table.projector(0, i), b)
        for line in range(1, table.n_lines):
            party = line - 1
            lifted = {
                digit: analytic_weak_value(
                    state, lift1(P1 if digit else P0, party, n), b
                )
                for digit in (0, 1)
            }
            for i in range(columns):
                values[line, k, i] = lifted[table.shift_digit(line, i)]
    return WeakValueTable(values, probs, tuple(skipped))


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
    return WeakValueTable(values, probs, tuple(skipped))


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
    return WeakValueTable(values, probs, tuple(skipped))


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
