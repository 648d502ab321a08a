"""Gaussian pointer devices: conditioned-translation coupling and readout.

Every device couples one computational-basis projector P to the momentum of
its own continuous pointer.  Because P is idempotent and diagonal, the
von Neumann interaction exp(-i g P (x) p_hat) acts exactly as "translate
the pointer by g on the basis branches that satisfy P, do nothing
elsewhere".  All device projectors commute, so a single pass couples the
whole device matrix and the order of couplings is irrelevant.  No weak-
order truncation is involved: the representation below is exact at any
coupling strength, and the weak regime is reached simply by choosing g
small.

Pointers start in a Gaussian of position spread ``sigma`` centered at the
origin.  For two copies of that Gaussian translated by a and b,

    <phi_a | phi_b>       = exp(-(a - b)^2 / (8 sigma^2))
    <phi_a | q_hat phi_b> = ((a + b) / 2) <phi_a | phi_b>
    <phi_a | p_hat phi_b> = (i (a - b) / (4 sigma^2)) <phi_a | phi_b>

which is everything the conditional readout needs.  A weakly coupled
device's mean shifts recover the weak value W of its projector as
Re W = delta_q / g and Im W = 2 sigma^2 delta_p / g; the default
sigma = 1/sqrt(2) makes the imaginary calibration simply delta_p / g.

The readout is exact, so g enters the readings in two ways only: the shift
terms above, which the extraction divides back out, and the overlap factor
exp(-g^2 / (8 sigma^2)), once per device whose ket and bra branches are
translated differently.  The bias of the extracted weak values is
therefore even in g and comes only from that damping of coherences.  With
broadcast copies the postselected trace keeps only elements whose copy
digits agree, which fixes every party digit, so no device is damped and
the readout is exact at every g.  Without copies the coherences survive
and the bias is O(g^2).

Summed over the devices, the readings under every postselection are the
g -> 0 weak values of the damped state rho * Lambda_g, where
Lambda_g[i, j] = exp(-g^2 / (8 sigma^2)) ** D[i, j] and
D[i, j] = 2 [i != j] + sum_p 2 (d / d_p) [i_p != j_p] counts the devices
whose ket and bra branches differ.  The circuit backend of
``weakcorr.estimator`` computes that closed form; the staged readout here
(:func:`couple_all`, :func:`postselect_and_read`,
:func:`extract_weak_value`) is the gate-level reference it is tested
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bases import DeviceTable
from .errors import InvariantViolation, LayoutMismatch, NullPostselection, ShapeMismatch
from .qcore import SKIP_THRESHOLD, DensityMatrix, PureState, digit_table

__all__ = [
    "PointerConfig",
    "BranchState",
    "DeviceReadings",
    "couple_all",
    "postselect_and_read",
    "extract_weak_value",
]


@dataclass(frozen=True)
class PointerConfig:
    """Coupling strength and initial Gaussian position spread of the pointers.

    Both are positive and finite, and the damping rate g^2 / (8 sigma^2) is
    defined in floats: 8 sigma^2 is nonzero, and finite where g^2 is not.
    The rate is computed here, once, and read as ``damping_rate``; it is an
    attribute, not a field, so it is no constructor argument or config key."""

    g: float = 1e-3
    sigma: float = 1.0 / math.sqrt(2.0)

    def __post_init__(self):
        for name, value in (("g", self.g), ("sigma", self.sigma)):
            if not (0.0 < value < math.inf):
                raise InvariantViolation(f"{name} must be positive and finite, got {value}")
        spread = 8.0 * self.sigma * self.sigma
        if spread == 0.0 or spread == self.g * self.g == math.inf:
            raise InvariantViolation(f"g^2 / (8 sigma^2) is undefined for {self}")
        object.__setattr__(self, "damping_rate", self.g * self.g / spread)


@dataclass(frozen=True)
class BranchState:
    """Closed-form result of coupling every device to a system state.

    ``kets``, ``bras`` and ``weights`` list the nonzero matrix elements
    weight |ket><bra| of the pre-coupling state over the extended
    computational basis.  ``shifts[label, line, column]`` is 1 exactly when
    basis label ``label`` satisfies the projector of device (line, column),
    i.e. when that device's pointer is translated by g on this branch.
    The representation is independent of g: shifts are counted in units of
    the coupling strength.
    """

    dims: tuple[int, ...]
    n_parties: int
    kets: np.ndarray
    bras: np.ndarray
    weights: np.ndarray
    shifts: np.ndarray

    @property
    def has_copies(self) -> bool:
        return len(self.dims) == 2 * self.n_parties

    @property
    def line1_dim(self) -> int:
        return int(np.prod(self.dims[: self.n_parties]))


@dataclass(frozen=True)
class DeviceReadings:
    """Mean pointer shifts per device under one postselection."""

    delta_q: np.ndarray
    delta_p: np.ndarray
    postselection_probability: float


def couple_all(state: DensityMatrix, table: DeviceTable) -> BranchState:
    """Couple every device in the table to ``state``.

    Two layouts are accepted: the broadcast layout, where the line-1
    particles come first and one copy particle per party follows, and the
    merged layout without copies, where the single-party lines couple
    directly to the line-1 particles.  The branch representation counts
    shifts in units of the coupling strength, which is applied at read time
    (see :func:`postselect_and_read`).
    """
    n = table.n_parties
    if state.dims == table.dims + table.dims:
        copy_offset = n
    elif state.dims == table.dims:
        copy_offset = 0
    else:
        raise LayoutMismatch(
            f"state dims {state.dims} match neither {table.dims} nor its doubled layout"
        )
    digits = digit_table(state.dims)
    d_ext = state.dim
    columns = table.n_columns
    # Line-1 index of each extended label: the copies (if any) are the fast
    # block, so integer division strips them.
    line1 = np.arange(d_ext) // (d_ext // columns)
    shifts = np.zeros((d_ext, table.n_lines, columns), dtype=np.uint8)
    shifts[:, 0, :] = line1[:, None] == np.arange(columns)[None, :]
    for line in range(1, table.n_lines):
        party = line - 1
        source = digits[:, copy_offset + party]
        wanted = table.party_digits[:, party]
        shifts[:, line, :] = source[:, None] == wanted[None, :]
    kets, bras = np.nonzero(state.matrix)
    weights = state.matrix[kets, bras]
    shifts.setflags(write=False)
    for arr in (kets, bras, weights):
        arr.setflags(write=False)
    return BranchState(state.dims, n, kets, bras, weights, shifts)


def postselect_and_read(
    bs: BranchState, b_k: PureState, cfg: PointerConfig
) -> DeviceReadings:
    """Exact conditional pointer means after projecting line 1 onto ``b_k``.

    The line-1 particles are projected onto the postselection state, the
    copies are traced out, and every device's mean position and momentum
    shift is evaluated on the same conditional state, so one postselection
    yields the full matrix of readings.
    """
    if b_k.dim != bs.line1_dim:
        raise ShapeMismatch(
            f"postselection state has dimension {b_k.dim}, line 1 has {bs.line1_dim}"
        )
    b = b_k.amplitudes
    if bs.has_copies:
        copy_dim = int(np.prod(bs.dims[bs.n_parties :]))
        ket_l1, ket_cp = np.divmod(bs.kets, copy_dim)
        bra_l1, bra_cp = np.divmod(bs.bras, copy_dim)
        alive = ket_cp == bra_cp
    else:
        ket_l1, bra_l1 = bs.kets, bs.bras
        alive = np.ones(bs.kets.shape, dtype=bool)
    # Weight of each matrix element inside the postselected trace.
    factor = bs.weights * b[bra_l1] * b[ket_l1].conj() * alive

    s_ket = bs.shifts[bs.kets].astype(float)
    s_bra = bs.shifts[bs.bras].astype(float)
    differing = np.abs(s_ket - s_bra).sum(axis=(1, 2))
    g, sigma = cfg.g, cfg.sigma
    damp = np.exp(-cfg.damping_rate) ** differing
    base = factor * damp

    prob = float(np.real(np.sum(base)))
    if prob < SKIP_THRESHOLD:
        raise NullPostselection(f"postselection probability {prob:.3e}")

    num_q = np.tensordot(base, 0.5 * g * (s_ket + s_bra), axes=(0, 0))
    num_p = np.tensordot(base, (g / (4.0 * sigma * sigma)) * (s_bra - s_ket), axes=(0, 0))
    delta_q = np.real(num_q) / prob
    delta_p = np.real(1j * num_p) / prob
    delta_q.setflags(write=False)
    delta_p.setflags(write=False)
    return DeviceReadings(delta_q, delta_p, prob)


def extract_weak_value(delta_q, delta_p, cfg: PointerConfig):
    """Weak value encoded in a device's mean shifts.

    Re W = delta_q / g and Im W = 2 sigma^2 delta_p / g, which reduces to
    the plain delta_p / g at the default sigma = 1/sqrt(2).  Accepts
    scalars or arrays of matching shape.
    """
    dq = np.asarray(delta_q, dtype=float)
    dp = np.asarray(delta_p, dtype=float)
    w = dq / cfg.g + 1j * (2.0 * cfg.sigma**2 / cfg.g) * dp
    if w.ndim == 0:
        return complex(w)
    return w
