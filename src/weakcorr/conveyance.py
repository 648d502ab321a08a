"""Strong-coupling state transfer and local copy fan-out.

The conveyance circuit hands the joint state of the remote parties over to
the receiver's particles: each remote party is coupled to one half of a
maximally entangled ancilla pair through a controlled shift, the coupled
half is measured in the computational basis, and the measured particles are
discarded as classical.  The broadcast step plays the same trick locally to
equip one particle with a computational-basis-correlated copy for the
single-party device lines.

Two conveyance modes are provided.  ``"literal"`` follows the gates and
measurements exactly as wired, which preserves every computational-basis
diagonal element for zero outcomes but dephases coherences involving the
transferred parties (the original particle stays correlated with its
image).  ``"idealized"`` relabels the input state directly: the identity
map for zero outcomes and a local permutation otherwise.

Neither :func:`convey` nor :func:`broadcast` simulates its gates.  Every
gate is a controlled shift on computational labels and every measurement
fixes a label, so the wired circuit maps basis state |x> to one basis state
(an image or copy label computed from x) with amplitude 1/sqrt(l): the
output is an index map of the input matrix.  Literal conveyance is that
relabel times a mask (discarding the originals keeps only matrix elements
whose conveyed labels agree), and broadcast embeds the matrix next to the
computed copy labels.  When the conveyance relabel is the identity
(every outcome 0, in idealized mode or on qubits) no index map is built
and the input matrix is used as it is.  The mask keeps every diagonal
element and the relabel permutes them, so the conveyed diagonal, all the
copies layout reads, is built from the input diagonal alone
(``_conveyed_diagonal``), with the same checks and relabel as
:func:`convey`.
:func:`strong_couple_and_measure` remains the gate-level building block the
tests check both maps against.  Every outcome they take passes the
package's one outcome rule, ``qcore._outcome``, against the dimension of
the subsystem it labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BadDimension, BadSubsystem, ImpossibleOutcome, ShapeMismatch
from .qcore import (
    SKIP_THRESHOLD,
    DensityMatrix,
    PureState,
    _integer,
    _outcome,
    _place_values,
    digit_table,
)

__all__ = [
    "ConveyanceRecord",
    "bell_state",
    "strong_couple_and_measure",
    "convey",
    "broadcast",
]


@dataclass(frozen=True)
class ConveyanceRecord:
    """State left behind by a measured strong coupling, plus bookkeeping."""

    state: DensityMatrix
    outcomes: tuple[int, ...]
    probability: float


def bell_state(dim: int) -> PureState:
    """The aligned ancilla pair (1/sqrt(l)) sum_m |m>|m>."""
    l = _integer(dim, BadDimension, "ancilla dimension")
    if l < 2:
        raise BadDimension(f"ancilla dimension must be >= 2, got {l}")
    amp = np.zeros(l * l, dtype=complex)
    amp[:: l + 1] = 1.0 / math.sqrt(l)
    return PureState((l, l), amp)


def _relabel(matrix: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """U m U^dagger for the basis permutation |i> -> |perm[i]>."""
    inverse = perm.argsort()
    return matrix[inverse[:, None], inverse]


def _controlled_shift_perm(dims, control: int, target: int) -> np.ndarray:
    """Index permutation of |..x..m..> -> |..x..(m+x) mod l..>."""
    digits = digit_table(dims)
    digits[:, target] = (digits[:, target] + digits[:, control]) % dims[target]
    return digits @ _place_values(dims)


def strong_couple_and_measure(
    joint: DensityMatrix, control: int, target: int, outcome: int
) -> ConveyanceRecord:
    """Controlled shift of ``target`` by ``control``, then measure the target.

    The target is projected onto the computational label ``outcome``,
    the state is renormalized, and the target subsystem is removed.  The
    recorded probability is the Born probability of the outcome.
    """
    n = len(joint.dims)
    if not (0 <= control < n and 0 <= target < n):
        raise BadSubsystem(f"control {control} / target {target} out of range")
    if control == target:
        raise BadSubsystem("control and target must differ")
    if joint.dims[control] != joint.dims[target]:
        raise ShapeMismatch(
            f"control dim {joint.dims[control]} != target dim {joint.dims[target]}"
        )
    outcome = _outcome(outcome, joint.dims[target])
    perm = _controlled_shift_perm(joint.dims, control, target)
    coupled = _relabel(joint.matrix, perm)
    sel = np.flatnonzero(digit_table(joint.dims)[:, target] == outcome)
    block = coupled[np.ix_(sel, sel)]
    prob = float(np.real(np.trace(block)))
    if prob < SKIP_THRESHOLD:
        raise ImpossibleOutcome(
            f"outcome {outcome} on subsystem {target} has probability {prob:.3e}"
        )
    dims = joint.dims[:target] + joint.dims[target + 1 :]
    state = DensityMatrix(dims, block / prob)
    return ConveyanceRecord(state, (outcome,), prob)


def convey(
    rho: DensityMatrix, outcomes: Sequence[int], mode: str = "literal"
) -> ConveyanceRecord:
    """Transfer an n-party state to the receiver-side particles.

    Every party except the last is conveyed; ``outcomes`` lists one ancilla
    measurement result per conveyed party.  The output dims keep the party
    order: image of party 0 first, the receiver's own particle last.

    ``"literal"`` is the circuit: attach one aligned entangled pair per
    conveyed party, controlled-shift the party onto its first member,
    measure that member with result nu, then trace out the conveyed parties
    and the measured ancillas.  The image of a party with label x is left
    with label (nu - x) mod l, and discarding the original keeps only the
    matrix elements whose conveyed labels agree, so the result is computed
    as that relabel-and-mask of ``rho`` with probability prod 1/l.
    ``"idealized"`` relabels each conveyed party's computational digit by
    ``x -> (x + outcome) mod l``, the identity for zero outcomes.  The two
    modes agree on the relabel only for qubits.
    """
    outcomes, perm = _conveyance_relabel(rho.dims, outcomes, mode)
    matrix = rho.matrix
    if mode == "literal":
        # The receiver's particle is the fastest digit, so i // dims[-1]
        # holds the conveyed labels of basis index i.
        block = np.arange(rho.dim) // rho.dims[-1]
        same = block[:, None] == block[None, :]
        # np.where(same, matrix, 0.0) as one ufunc call, without its Python
        # dispatcher: the masked-out entries stay +0.
        matrix = np.positive(matrix, out=np.zeros(matrix.shape, complex), where=same)
    if perm is not None:
        matrix = _relabel(matrix, perm)
    # A relabel, or a relabel of the pinching onto equal conveyed labels:
    # both keep the checked input's trace and positivity.
    state = DensityMatrix._trusted(rho.dims, matrix)
    return ConveyanceRecord(state, outcomes, 1.0 / math.prod(rho.dims[:-1]))


def _conveyance_relabel(
    dims: tuple[int, ...], outcomes: Sequence[int], mode: str
) -> tuple[tuple[int, ...], np.ndarray | None]:
    """``convey``'s argument checks, then its relabel of the basis indices.

    Returns the outcomes as ints and the permutation |i> -> |perm[i]> of
    the conveyed digits, or None where the relabel fixes every label.
    """
    n = len(dims)
    if n < 2:
        raise ShapeMismatch("conveyance needs at least two parties")
    outcomes = tuple(map(_outcome, outcomes))
    if len(outcomes) != n - 1:
        raise ShapeMismatch(f"expected {n - 1} outcomes, got {len(outcomes)}")
    if mode not in ("literal", "idealized"):
        raise ShapeMismatch(f"unknown conveyance mode {mode!r}")

    for l, v in zip(dims, outcomes):
        if mode == "literal" and l < 2:
            raise BadDimension(f"ancilla dimension must be >= 2, got {l}")
        _outcome(v, l)

    # x -> (x + nu) mod l and x -> (nu - x) mod l fix every label only for
    # nu = 0, the second only on qubits.
    if not any(outcomes) and (mode == "idealized" or all(l == 2 for l in dims[:-1])):
        return outcomes, None
    radix = np.array(dims[:-1])
    nu = np.array(outcomes)
    digits = digit_table(dims)
    if mode == "idealized":
        digits[:, :-1] = (digits[:, :-1] + nu) % radix
    else:
        digits[:, :-1] = (nu - digits[:, :-1]) % radix
    return outcomes, digits @ _place_values(dims)


def _conveyed_diagonal(rho: DensityMatrix, outcomes: Sequence[int], mode: str) -> np.ndarray:
    """The diagonal of ``convey(rho, outcomes, mode).state``, with the same
    checks, built without the matrix: the literal mask keeps every diagonal
    element and the relabel permutes them."""
    _, perm = _conveyance_relabel(rho.dims, outcomes, mode)
    diagonal = rho.matrix.diagonal().real
    return diagonal if perm is None else diagonal[perm.argsort()]


def broadcast(rho: DensityMatrix, party: int, outcome: int) -> ConveyanceRecord:
    """Equip ``party`` with a computational-basis-correlated copy.

    The circuit attaches an aligned pair sum_m |m>|m>, controlled-shifts
    the party onto the second pair member, measures that member with
    result ``outcome`` and removes it.  The surviving member, appended as
    the last subsystem, is left with label (outcome - x) mod l when the
    party has label x, so the result is computed as the embedding
    rho_ij |i, c(i)><j, c(j)| with probability 1/l.  For outcome 0 the
    (party, copy) pair carries sum_{ii'} rho_{ii'} |i><i'| (x) |i><i'|, so
    the copy's marginal is the computational-basis dephasing of the party.
    """
    n = len(rho.dims)
    if not 0 <= party < n:
        raise BadSubsystem(f"party {party} out of range for {n} subsystems")
    l = rho.dims[party]
    outcome = _outcome(outcome)
    if l < 2:
        raise BadDimension(f"ancilla dimension must be >= 2, got {l}")
    _outcome(outcome, l)
    copy = (outcome - digit_table(rho.dims)[:, party]) % l
    rows = np.arange(rho.dim) * l + copy
    matrix = np.zeros((rho.dim * l, rho.dim * l), dtype=complex)
    matrix[np.ix_(rows, rows)] = rho.matrix
    # An isometric embedding keeps the checked input's trace and positivity.
    state = DensityMatrix._trusted(rho.dims + (l,), matrix)
    return ConveyanceRecord(state, (outcome,), 1.0 / l)
