"""Independent brute-force reference implementations used by the tests.

Everything here is written directly against numpy with explicit matrix
constructions (kron chains, lifted gates, axis-pair traces) so that it
shares no code path with the package under test.  The one exception is the
gate-level conveyance reference at the end, which chains the package's own
circuit primitives (entangled pair, controlled shift plus measurement,
partial trace); those primitives are checked against the brute-force
oracles above.
"""

import numpy as np

from weakcorr import (
    ConveyanceRecord,
    bell_state,
    ket2dm,
    partial_trace,
    strong_couple_and_measure,
    tensor_product,
)

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
