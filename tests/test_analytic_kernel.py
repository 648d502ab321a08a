"""The vectorized weak-value tables and correlation sum against their
row-by-row references, plus seeded property tests of the analytic
correlation."""

import functools
from dataclasses import fields
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    _limits_lines,
    analytic_lines_per_party,
    analytic_table_loop,
    copies_limits_loop,
    correlation_sum_loop,
    max_difference,
    rows_by_division,
    skip_broadcast_limits_loop,
    sweep_pairs,
)

from weakcorr import (
    BasisSet,
    PointerConfig,
    computational_basis,
    convey,
    correlation,
    correlation_sweep,
    device_table,
    hadamard_mub,
    partial_trace,
    random_density_matrix,
    tensor_product,
    weak_value_limits,
)
from weakcorr import estimator
from weakcorr.cli import load_basis, load_state
from weakcorr.estimator import (
    _analytic_lines,
    _line0,
    _marginal_index,
    _marginals,
    _party_product,
    _weak_value_numerator,
)
from weakcorr.errors import NullPostselection
from weakcorr.qcore import DensityMatrix, digit_table

FIXTURES = Path(__file__).parent / "fixtures"
GHZ3 = load_state(str(FIXTURES / "ghz3.json"))


def random_product_basis(n, seed):
    """Rows are krons of columns of random single-qubit unitaries."""
    rng = np.random.default_rng(seed)
    unitaries = []
    for _ in range(n):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        unitaries.append(np.linalg.qr(g)[0])
    dims = (2,) * n
    rows = []
    for bits in digit_table(dims):
        row = np.ones(1, dtype=complex)
        for u, bit in zip(unitaries, bits):
            row = np.kron(row, u[:, bit])
        rows.append(row)
    return BasisSet(dims, rows, tuple(str(k) for k in range(2**n)))


def random_product_state(n, seed):
    rho = random_density_matrix((2,), seed)
    for p in range(1, n):
        rho = tensor_product(rho, random_density_matrix((2,), seed + 10_000 * p))
    return rho


def permute_qubits(rho, order):
    n = len(rho.dims)
    t = rho.matrix.reshape((2,) * (2 * n))
    t = t.transpose(list(order) + [n + p for p in order])
    return DensityMatrix(rho.dims, t.reshape(rho.dim, rho.dim))


def assert_same_table(got, want):
    assert np.max(np.abs(got.values - want.values)) <= 1e-12
    # Probabilities are row sums of the line-0 numerators rather than one
    # b^H rho b product per row, so they may differ in the last bits.
    assert np.max(np.abs(got.probabilities - want.probabilities)) <= 1e-15
    assert got.skipped == want.skipped


def kernel_cases():
    for n in range(2, 6):
        for seed in range(3):
            for mode in ("idealized", "literal"):
                rho = random_density_matrix((2,) * n, seed)
                yield pytest.param(rho, mode, None, id=f"n{n}-seed{seed}-{mode}")
    yield pytest.param(GHZ3, "idealized", None, id="ghz3")
    for n, seed in ((2, 0), (3, 1), (4, 2)):
        yield pytest.param(
            random_density_matrix((2,) * n, 40 + seed),
            "idealized",
            random_product_basis(n, seed),
            id=f"n{n}-product-basis{seed}",
        )


@pytest.mark.parametrize("rho, mode, basis", list(kernel_cases()))
def test_analytic_table_matches_per_element_loop(rho, mode, basis):
    n = len(rho.dims)
    basis = basis or hadamard_mub(n)
    rep = correlation(rho, "analytic", mode, postselection=basis)
    conveyed = convey(rho, (0,) * (n - 1), mode).state
    want = analytic_table_loop(conveyed, basis, device_table(rho.dims))
    assert_same_table(rep.table, want)


@pytest.mark.parametrize("rho, mode, basis", list(kernel_cases()))
def test_skip_broadcast_limits_match_per_element_loop(rho, mode, basis):
    n = len(rho.dims)
    basis = basis or hadamard_mub(n)
    conveyed = convey(rho, (0,) * (n - 1), mode).state
    table = device_table(rho.dims)
    got = weak_value_limits(conveyed, basis, skip_broadcast=True)
    assert_same_table(got, skip_broadcast_limits_loop(conveyed, basis, table))


def seeded_cases():
    for n in range(2, 6):
        for seed in range(3):
            for mode in ("idealized", "literal"):
                for mu in (0, 1):
                    case = f"n{n}-seed{seed}-{mode}-mu{mu}"
                    yield pytest.param(n, seed, mode, mu, id=case)


@pytest.mark.parametrize("n, seed, mode, mu", list(seeded_cases()))
def test_copies_limits_match_qubit_loop(n, seed, mode, mu):
    conveyed = convey(random_density_matrix((2,) * n, seed), (0,) * (n - 1), mode).state
    table = device_table(conveyed.dims)
    for basis in (hadamard_mub(n), random_product_basis(n, seed)):
        got = weak_value_limits(conveyed, basis, mu)
        want = copies_limits_loop(conveyed, basis, table, mu)
        assert np.max(np.abs(got.values - want.values)) <= 1e-15
        assert np.max(np.abs(got.probabilities - want.probabilities)) <= 1e-15
        assert got.skipped == want.skipped


@pytest.mark.parametrize("mu", [0, 1])
def test_copies_limits_skip_like_qubit_loop(mu):
    # GHZ postselected on computational labels: six of eight rows vanish.
    basis = computational_basis(GHZ3.dims)
    table = device_table(GHZ3.dims)
    got = weak_value_limits(GHZ3, basis, mu)
    want = copies_limits_loop(GHZ3, basis, table, mu)
    assert got.skipped == want.skipped == (1, 2, 3, 4, 5, 6)
    assert np.max(np.abs(got.values - want.values)) <= 1e-15


def assert_same_sum(rep):
    total, terms = correlation_sum_loop(rep.table)
    assert rep.terms.tolist() == terms
    assert rep.C == total


@pytest.mark.parametrize("n, seed, mode, mu", list(seeded_cases()))
def test_correlation_sum_matches_row_loop(n, seed, mode, mu):
    rho = random_density_matrix((2,) * n, seed)
    assert_same_sum(
        correlation(rho, "circuit", mode, PointerConfig(1e-3), broadcast_outcome=mu)
    )
    if mu == 0:
        assert_same_sum(correlation(rho, "analytic", mode))


def test_correlation_sum_matches_row_loop_with_skipped_rows():
    rep = correlation(GHZ3, "analytic", "idealized")
    assert rep.skipped == (1, 2, 4, 7)
    assert_same_sum(rep)


# -- properties of the analytic correlation


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("seed", range(4))
def test_idealized_correlation_is_invariant_under_qubit_permutations(n, seed):
    rho = random_density_matrix((2,) * n, 300 + seed)
    base = correlation(rho, "analytic", "idealized").C
    rng = np.random.default_rng(seed)
    orders = [tuple(reversed(range(n))), tuple(range(1, n)) + (0,)]
    orders.append(tuple(int(p) for p in rng.permutation(n)))
    if n == 3:
        orders = list(permutations(range(3)))
    for order in orders:
        moved = correlation(permute_qubits(rho, order), "analytic", "idealized").C
        assert abs(moved - base) <= 1e-12, order


@pytest.mark.parametrize("mode", ["idealized", "literal"])
def test_analytic_correlation_is_nonnegative(mode):
    for n in (2, 3, 4, 5):
        for seed in range(4):
            rho = random_density_matrix((2,) * n, 500 + seed)
            assert correlation(rho, "analytic", mode).C >= 0


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("mode", ["idealized", "literal"])
def test_random_product_states_have_zero_correlation(n, mode):
    for seed in range(5):
        rep = correlation(random_product_state(n, seed), "analytic", mode)
        assert abs(rep.C) <= 1e-12


# -- the builtin basis's known factors against the factored basis file


def builtin_vs_file_cases():
    for name in ("ghz3", "classical3", "product3", "random3_seed7"):
        yield name, load_state(str(FIXTURES / f"{name}.json"))
    for seed in range(5):
        yield f"seed{seed}", random_density_matrix((2, 2, 2), seed)


@pytest.mark.parametrize(
    "backend, kwargs",
    [
        ("analytic", {}),
        ("analytic", {"outcomes": (1, 1)}),
        ("circuit", {}),
        ("circuit", {"skip_broadcast": True}),
    ],
)
@pytest.mark.parametrize("mode", ["idealized", "literal"])
def test_builtin_basis_report_matches_basis_file(backend, kwargs, mode):
    # The file holds the same vectors; its factors come from product_factors.
    file_basis = load_basis(str(FIXTURES / "basis_hadamard3.json"), (2, 2, 2))
    for name, rho in builtin_vs_file_cases():
        known = correlation(rho, backend, mode, **kwargs)
        svd = correlation(rho, backend, mode, postselection=file_basis, **kwargs)
        assert abs(known.C - svd.C) <= 1e-12, name
        assert known.oracle_diag == svd.oracle_diag
        assert np.max(np.abs(known.terms - svd.terms)) <= 1e-12, name
        assert np.max(np.abs(known.table.probabilities - svd.table.probabilities)) <= 1e-12
        assert known.skipped == svd.skipped
        assert np.max(np.abs(known.table.values - svd.table.values)) <= 1e-12, name


# -- the compact table: one (K, d) joint line and one (K, d_p) line per party

# (backend, skip_broadcast) of the three paths.
PATHS = [("analytic", False), ("circuit", False), ("circuit", True)]


def table_arrays(table):
    """Every array the table stores."""
    for f in fields(table):
        value = getattr(table, f.name)
        if isinstance(value, np.ndarray):
            yield value


def test_table_stores_each_weak_value_once():
    n = 10
    table = correlation(random_density_matrix((2,) * n, 0), "analytic").table
    k = d = 2**n
    assert table.joint.shape == (k, d)
    assert [line.shape for line in table.parties] == [(k, 2)] * n
    assert max(array.size for array in table_arrays(table)) <= k * d


@pytest.mark.parametrize("backend, skip", PATHS)
def test_table_arrays_are_read_only(backend, skip):
    rep = correlation(random_density_matrix((2, 2, 2), 1), backend, skip_broadcast=skip)
    for array in [*table_arrays(rep.table), rep.table.values, rep.terms]:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0


def assert_product_is_dense_product(table):
    dense = np.prod(table.values[1:], axis=0)
    product = _party_product([line.T for line in table.parties]).T
    assert product.tobytes() == dense.tobytes()
    return dense


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("backend, skip", PATHS)
def test_party_product_is_bitwise_the_dense_product(n, backend, skip):
    rho = random_density_matrix((2,) * n, 700 + n)
    rep = correlation(rho, backend, "literal", PointerConfig(0.05), skip_broadcast=skip)
    dense = assert_product_is_dense_product(rep.table)
    terms = np.abs(rep.table.values[0] - dense).sum(axis=-1)
    assert rep.terms.tobytes() == terms.tobytes()


@pytest.mark.parametrize("skip, mu", [(True, 0), (False, 0), (False, 1)])
def test_qudit_party_product_is_bitwise_the_dense_product(skip, mu):
    # correlation() takes qubits only, so the table builder is called directly.
    dims = (3, 2, 3)
    rng = np.random.default_rng(5)
    g = rng.standard_normal((18, 18)) + 1j * rng.standard_normal((18, 18))
    basis = BasisSet(dims, np.linalg.qr(g)[0], [str(k) for k in range(18)])
    rho = random_density_matrix(dims, 5)
    table = _limits_lines(rho.matrix[None], basis.matrix, dims, None if skip else mu).row(0)
    assert [line.shape for line in table.parties] == [(18, 3), (18, 2), (18, 3)]
    assert_product_is_dense_product(table)


def dense_residual(table, limits):
    """The sweep residual taken on the dense tables."""
    kept = np.isin(np.arange(len(table.probabilities)), table.skipped + limits.skipped, invert=True)
    diff = np.abs(table.values - limits.values)[:, kept]
    return float(diff.max()) if kept.any() else 0.0


def residual_cases():
    for n in (2, 3, 4, 5):
        yield pytest.param(random_density_matrix((2,) * n, 40 + n), None, id=f"n{n}")
    # GHZ postselected on computational labels: six of eight rows are skipped.
    yield pytest.param(GHZ3, computational_basis(GHZ3.dims), id="ghz3-skips")


@pytest.mark.parametrize("rho, basis", residual_cases())
@pytest.mark.parametrize("skip, mu", [(True, 0), (False, 0), (False, 1)])
@pytest.mark.parametrize("mode", ["idealized", "literal"])
def test_sweep_residual_is_bitwise_the_dense_max(rho, basis, skip, mu, mode):
    n = len(rho.dims)
    conveyed = convey(rho, (0,) * (n - 1), mode).state
    limits = weak_value_limits(conveyed, basis or hadamard_mub(n), mu, skip)
    cfgs = [PointerConfig(g) for g in (0.3, 0.1, 1e-2)]
    kwargs = dict(postselection=basis, broadcast_outcome=mu, skip_broadcast=skip)
    for rep in correlation_sweep(rho, mode, cfgs, **kwargs):
        if basis is not None:
            assert rep.skipped == limits.skipped == (1, 2, 3, 4, 5, 6)
        got = max_difference(rep.table, limits)
        assert repr(got) == repr(dense_residual(rep.table, limits))


# -- the stacked party lines against the per-party path they replaced


@functools.cache
def stacked_case(n, basis):
    """A seeded n-qubit state and its postselection basis ("builtin" or
    "product"), built once per module run."""
    rho = random_density_matrix((2,) * n, 900 + n)
    return rho, hadamard_mub(n) if basis == "builtin" else random_product_basis(n, 90 + n)


def outcome_cases(n):
    """Zero conveyance outcomes, and alternating nonzero ones."""
    return [(0,) * (n - 1), tuple((p + 1) % 2 for p in range(n - 1))]


@pytest.mark.parametrize("mode", ["idealized", "literal"])
@pytest.mark.parametrize("n", range(2, 11))
def test_gathered_marginals_are_bitwise_partial_trace(n, mode):
    rho, _ = stacked_case(n, "builtin")
    for outcomes in outcome_cases(n):
        state = convey(rho, outcomes, mode).state
        marginals = _marginals(state.matrix, n)
        assert marginals.shape == (n, 2, 2)
        for p in range(n):
            assert marginals[p].tobytes() == partial_trace(state, [p]).matrix.tobytes()


def test_marginal_rows_keep_one_read_only_entry():
    for n in (3, 4):
        index = _marginal_index(n)
    assert _marginal_index.cache_info().currsize == 1
    assert _marginal_index(4) is index
    assert index.shape == (8, 4, 2, 2) and not index.flags.writeable
    # Each party's diagonal entries list every basis index once.
    for p in range(4):
        diagonal = index[:, p, [0, 1], [0, 1]]
        assert sorted((diagonal // 17).ravel().tolist()) == list(range(16))


def assert_bitwise_report(got, want):
    arrays = [
        (got.terms, want.terms),
        (got.table.probabilities, want.table.probabilities),
        (got.table.joint, want.table.joint),
        *zip(got.table.parties, want.table.parties, strict=True),
    ]
    for a, b in arrays:
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    # repr spells each float exactly.
    for name in ("C", "oracle_diag", "max_completeness_residual", "min_postselection_probability"):
        assert repr(getattr(got, name)) == repr(getattr(want, name)), name
    assert got.outcomes == want.outcomes and got.labels == want.labels


@pytest.mark.parametrize("basis", ["builtin", "product"])
@pytest.mark.parametrize("n", range(2, 11))
def test_stacked_party_lines_are_bitwise_the_per_party_path(n, basis, monkeypatch):
    rho, basis_b = stacked_case(n, basis)
    cases = [(mode, outcomes) for mode in ("idealized", "literal") for outcomes in outcome_cases(n)]
    got = [correlation(rho, "analytic", m, postselection=basis_b, outcomes=o) for m, o in cases]
    monkeypatch.setattr(estimator, "_analytic_lines", analytic_lines_per_party)
    want = [correlation(rho, "analytic", m, postselection=basis_b, outcomes=o) for m, o in cases]
    for a, b in zip(got, want, strict=True):
        assert_bitwise_report(a, b)


@pytest.mark.parametrize("basis", ["builtin", "product"])
@pytest.mark.parametrize("n", range(2, 8))
def test_party_sums_bound_the_postselection_probability(n, basis):
    # For a product postselection b_k = f_1 x ... x f_n, row k's party sum
    # <f_p|m_p|f_p> = tr[(|f_p><f_p| x I) rho] >= <b_k|rho|b_k> = P_k, so a
    # row line 1 keeps has no party sum below SKIP_THRESHOLD.
    for seed in range(3):
        rho = random_density_matrix((2,) * n, 1000 + 10 * n + seed)
        if basis == "builtin":
            basis_b = hadamard_mub(n)
        else:
            basis_b = random_product_basis(n, 1100 + 10 * n + seed)
        probs, kept, _ = _line0(_weak_value_numerator(rho.matrix[None], basis_b.matrix))
        num = _weak_value_numerator(_marginals(rho.matrix, n), np.stack(basis_b.factors))
        sums = np.real(num.sum(axis=-1))
        assert (sums[:, kept[0]] >= probs[0, kept[0]] * (1 - 1e-12)).all()
        # The scaled party lines are the division reference, up to the sign of zero.
        want = rows_by_division(num, kept[0])
        got = _analytic_lines(rho, basis_b).parties
        for line, division in zip(got, want, strict=True):
            assert (line[0] + 0.0).tobytes() == (division + 0.0).tobytes()


@pytest.mark.parametrize("mode", ["idealized", "literal"])
def test_party_sum_below_threshold_on_a_kept_row_raises(mode):
    # The bound above needs an exactly positive rho.  This state passes
    # validation (its eigenvalue -1e-13 is within SPECTRAL_TOL), line 1
    # keeps row |00> (P = 1e-13), and party 0's sum <0|m_0|0> is exactly 0:
    # a null postselection, not a NaN or a sign-flipped C.
    rho = DensityMatrix((2, 2), np.diag([1e-13, -1e-13, 0.5, 0.5]))
    with pytest.raises(NullPostselection):
        correlation(rho, "analytic", mode, postselection=computational_basis((2, 2)))


# -- the sweep's residuals against the one-pair reference

SWEEP_G = (0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001)


def spy_stacks(monkeypatch):
    """Record the stack size, the number of configurations, of every
    ``_direct_lines`` call."""
    stacks = []
    original = estimator._direct_lines

    def spy(matrix, basis_matrix, dims, cfgs):
        stacks.append(len(cfgs))
        return original(matrix, basis_matrix, dims, cfgs)

    monkeypatch.setattr(estimator, "_direct_lines", spy)
    return stacks


def spy_diagonal_conveyance(monkeypatch):
    """Record the arguments of every ``_conveyed_diagonal`` call."""
    calls = []
    original = estimator._conveyed_diagonal

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(estimator, "_conveyed_diagonal", spy)
    return calls


@functools.cache
def residual_state(n):
    return random_density_matrix((2,) * n, 500 + n)


@pytest.mark.parametrize("outcome", [0, 1])
@pytest.mark.parametrize("mode", ["idealized", "literal"])
@pytest.mark.parametrize("skip", [True, False])
@pytest.mark.parametrize("n", range(2, 9))
def test_sweep_residuals_are_bitwise_the_reference(n, skip, mode, outcome, monkeypatch):
    rho = residual_state(n)
    outcomes = (outcome,) * (n - 1)
    cfgs = [PointerConfig(g) for g in SWEEP_G]
    kwargs = dict(outcomes=outcomes, broadcast_outcome=outcome, skip_broadcast=skip)
    stacks = spy_stacks(monkeypatch)
    conveyed = spy_diagonal_conveyance(monkeypatch)
    got = sweep_pairs(rho, mode, cfgs, residuals=True, **kwargs)
    # Without copies the limit row leads the stack and counts toward the
    # block size: all nine rows at n <= 4, four per block at n = 7 (the
    # limit and three couplings first) and one from n = 8 on, where the
    # first block is the limit alone and yields no report.  With copies the
    # flat pass reads the conveyed diagonal once and stacks nothing.
    size = max(1, 2**16 // 4**n)
    nine = [len(range(start, min(start + size, 9))) for start in range(0, 9, size)]
    assert stacks == (nine if skip else [])
    assert len(conveyed) == (0 if skip else 1)
    monkeypatch.undo()
    state = convey(rho, outcomes, mode).state
    limits = weak_value_limits(state, hadamard_mub(n), outcome, skip)
    want = list(correlation_sweep(rho, mode, cfgs, **kwargs))
    assert len(got) == len(want) == len(cfgs)
    for (report, residual), plain in zip(got, want):
        assert_bitwise_report(report, plain)
        assert type(residual) is float
        assert repr(residual) == repr(max_difference(report.table, limits))
        if not skip:
            assert residual == 0.0


@pytest.mark.parametrize("skip", [True, False])
def test_sweep_residuals_leave_out_skipped_rows(skip):
    # GHZ postselected on computational labels: six of eight rows are skipped.
    basis = computational_basis(GHZ3.dims)
    cfgs = [PointerConfig(g) for g in SWEEP_G]
    state = convey(GHZ3, (0, 0), "idealized").state
    limits = weak_value_limits(state, basis, 0, skip)
    pairs = sweep_pairs(
        GHZ3, "idealized", cfgs, residuals=True, postselection=basis, skip_broadcast=skip
    )
    for report, residual in pairs:
        assert report.skipped == limits.skipped == (1, 2, 3, 4, 5, 6)
        assert repr(residual) == repr(max_difference(report.table, limits))
        assert repr(residual) == repr(dense_residual(report.table, limits))


def test_plain_sweep_reads_no_limit_row(monkeypatch):
    rho = residual_state(4)
    cfgs = [PointerConfig(g) for g in SWEEP_G]
    stacks = spy_stacks(monkeypatch)
    pairs = sweep_pairs(rho, "idealized", cfgs, residuals=False, skip_broadcast=True)
    assert [residual for _, residual in pairs] == [None] * len(cfgs)
    reports = list(correlation_sweep(rho, "idealized", cfgs, skip_broadcast=True))
    assert stacks == [8, 8]
    for (a, _), b in zip(pairs, reports, strict=True):
        assert_bitwise_report(a, b)


@pytest.mark.parametrize("mode", ["idealized", "literal"])
def test_single_g_circuit_correlation_stacks_one_row(mode, monkeypatch):
    # correlation() reads its own coupling only: no zero-coupling limit row.
    stacks = spy_stacks(monkeypatch)
    for n in (3, 8):
        correlation(residual_state(n), "circuit", mode, PointerConfig(0.1), skip_broadcast=True)
    assert stacks == [1, 1]
