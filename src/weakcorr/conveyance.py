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
computed copy labels.  :func:`strong_couple_and_measure` remains the gate-
level building block the tests check both maps against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BadDimension, BadSubsystem, ImpossibleOutcome, ShapeMismatch
from .qcore import DensityMatrix, PureState, digit_table

OUTCOME_TOL = 1e-14

__all__ = [
    "AncillaPair",
    "ConveyanceRecord",
    "bell_state",
    "strong_couple_and_measure",
    "convey",
    "broadcast",
]


@dataclass(frozen=True)
class AncillaPair:
    """Maximally entangled pair of equal-dimension particles."""

    dim: int
    state: PureState


@dataclass(frozen=True)
class ConveyanceRecord:
    """State left behind by a measured strong coupling, plus bookkeeping."""

    state: DensityMatrix
    outcomes: tuple[int, ...]
    probability: float


def bell_state(dim: int, variant: str = "aligned") -> AncillaPair:
    """(1/sqrt(l)) sum_m |m>|m+offset> with offset 0 ("aligned") or 1 ("flip")."""
    l = int(dim)
    if l < 2:
        raise BadDimension(f"ancilla dimension must be >= 2, got {l}")
    if variant not in ("aligned", "flip"):
        raise BadDimension(f"unknown ancilla variant {variant!r}")
    offset = 1 if variant == "flip" else 0
    amp = np.zeros(l * l, dtype=complex)
    for m in range(l):
        amp[m * l + (m + offset) % l] = 1.0 / math.sqrt(l)
    return AncillaPair(l, PureState((l, l), amp))


def _relabel(matrix: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """U m U^dagger for the basis permutation |i> -> |perm[i]>."""
    inverse = np.argsort(perm)
    return matrix[np.ix_(inverse, inverse)]


def _controlled_shift_perm(dims, control: int, target: int) -> np.ndarray:
    """Index permutation of |..x..m..> -> |..x..(m+x) mod l..>."""
    digits = digit_table(dims)
    digits[:, target] = (digits[:, target] + digits[:, control]) % dims[target]
    return np.ravel_multi_index(tuple(digits.T), dims)


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
    l = joint.dims[target]
    if not 0 <= int(outcome) < l:
        raise ImpossibleOutcome(f"outcome {outcome} out of range for dimension {l}")
    perm = _controlled_shift_perm(joint.dims, control, target)
    coupled = _relabel(joint.matrix, perm)
    sel = np.flatnonzero(digit_table(joint.dims)[:, target] == int(outcome))
    block = coupled[np.ix_(sel, sel)]
    prob = float(np.real(np.trace(block)))
    if prob < OUTCOME_TOL:
        raise ImpossibleOutcome(
            f"outcome {outcome} on subsystem {target} has probability {prob:.3e}"
        )
    dims = joint.dims[:target] + joint.dims[target + 1 :]
    state = DensityMatrix(dims, block / prob)
    return ConveyanceRecord(state, (int(outcome),), prob)


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
    n = len(rho.dims)
    if n < 2:
        raise ShapeMismatch("conveyance needs at least two parties")
    outcomes = tuple(int(v) for v in outcomes)
    if len(outcomes) != n - 1:
        raise ShapeMismatch(f"expected {n - 1} outcomes, got {len(outcomes)}")
    if mode not in ("literal", "idealized"):
        raise ShapeMismatch(f"unknown conveyance mode {mode!r}")

    for l, v in zip(rho.dims, outcomes):
        if mode == "literal" and l < 2:
            raise BadDimension(f"ancilla dimension must be >= 2, got {l}")
        if not 0 <= v < l:
            raise ImpossibleOutcome(f"outcome {v} out of range for dimension {l}")

    radix = np.array(rho.dims[:-1])
    nu = np.array(outcomes)
    digits = digit_table(rho.dims)
    if mode == "idealized":
        digits[:, :-1] = (digits[:, :-1] + nu) % radix
        matrix = rho.matrix
    else:
        digits[:, :-1] = (nu - digits[:, :-1]) % radix
        # The receiver's particle is the fastest digit, so i // dims[-1]
        # holds the conveyed labels of basis index i.
        block = np.arange(rho.dim) // rho.dims[-1]
        matrix = np.where(block[:, None] == block[None, :], rho.matrix, 0.0)
    perm = np.ravel_multi_index(tuple(digits.T), rho.dims)
    state = DensityMatrix(rho.dims, _relabel(matrix, perm))
    return ConveyanceRecord(state, outcomes, 1.0 / math.prod(rho.dims[:-1]))


def broadcast(
    rho: DensityMatrix, party: int, outcome: int, variant: str = "aligned"
) -> ConveyanceRecord:
    """Equip ``party`` with a computational-basis-correlated copy.

    The circuit attaches an entangled pair sum_m |m>|m + offset> (offset 0
    for ``"aligned"``, 1 for ``"flip"``), controlled-shifts the party onto
    the second pair member, measures that member with result ``outcome``
    and removes it.  The surviving member, appended as the last subsystem,
    is left with label (outcome - offset - x) mod l when the party has
    label x, so the result is computed as the embedding
    rho_ij |i, c(i)><j, c(j)| with probability 1/l.  For outcome 0 of the
    aligned pair the (party, copy) pair carries
    sum_{ii'} rho_{ii'} |i><i'| (x) |i><i'|, so the copy's marginal is the
    computational-basis dephasing of the party.
    """
    n = len(rho.dims)
    if not 0 <= party < n:
        raise BadSubsystem(f"party {party} out of range for {n} subsystems")
    l = rho.dims[party]
    outcome = int(outcome)
    if l < 2:
        raise BadDimension(f"ancilla dimension must be >= 2, got {l}")
    if variant not in ("aligned", "flip"):
        raise BadDimension(f"unknown ancilla variant {variant!r}")
    if not 0 <= outcome < l:
        raise ImpossibleOutcome(f"outcome {outcome} out of range for dimension {l}")
    offset = 1 if variant == "flip" else 0
    copy = (outcome - offset - digit_table(rho.dims)[:, party]) % l
    rows = np.arange(rho.dim) * l + copy
    matrix = np.zeros((rho.dim * l, rho.dim * l), dtype=complex)
    matrix[np.ix_(rows, rows)] = rho.matrix
    state = DensityMatrix(rho.dims + (l,), matrix)
    return ConveyanceRecord(state, (outcome,), 1.0 / l)
