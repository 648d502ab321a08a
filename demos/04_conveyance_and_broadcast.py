#!/usr/bin/env python3
"""The strong-coupling handover and the local copy fan-out."""

import itertools

import numpy as np

from weakcorr import (
    bell_state,
    broadcast,
    convey,
    ghz,
    ket2dm,
    partial_trace,
    random_density_matrix,
    strong_couple_and_measure,
    tensor_product,
)
from weakcorr.qcore import PureState

print("Ancilla pair (every conveyance and copy uses this one):")
print("  aligned:", bell_state(2).amplitudes.real)

print("\nOne strong coupling, the gate every conveyance and copy is built from:")
print("shift the pair's first member by the particle, then measure that member.")
print("0.6|0> + 0.8|1> leaves 0.6|00> + 0.8|11> on (particle, second member):")
psi = PureState((2,), [0.6, 0.8])
rec = strong_couple_and_measure(tensor_product(ket2dm(psi), ket2dm(bell_state(2))), 0, 1, 0)
print("  outcome probability:", rec.probability)
print("  output diagonal:    ", rec.state.diagonal())

rho = ket2dm(ghz(3))

print("\nLiteral conveyance executes the wiring: couple each remote party to")
print("an ancilla, measure, discard.  Populations survive; coherences that")
print("involve the transferred parties do not (the originals stay behind,")
print("correlated with their images):")
rec = convey(rho, (0, 0), "literal")
print("  outcome probability:", rec.probability)
print("  output diagonal:    ", rec.state.diagonal())
print("  corner coherence:   ", rec.state.matrix[0, 7], " (was 0.5 in the input)")

print("\nIdealized conveyance relabels directly; zero outcomes give the input back:")
ideal = convey(rho, (0, 0), "idealized")
print("  max |output - input| =", np.max(np.abs(ideal.state.matrix - rho.matrix)))

print("\nNonzero outcomes relabel the transferred digits; the spectrum is unchanged:")
moved = convey(random_density_matrix((2, 2, 2), 5), (1, 0), "idealized")
base = convey(random_density_matrix((2, 2, 2), 5), (0, 0), "idealized")
print("  eigenvalue drift:", np.max(np.abs(
    np.linalg.eigvalsh(moved.state.matrix) - np.linalg.eigvalsh(base.state.matrix))))

print("\nOutcome probabilities over a full enumeration sum to one:")
total = sum(convey(rho, nu, "literal").probability for nu in itertools.product((0, 1), repeat=2))
print("  total:", total)

print("\nBroadcast equips a particle with a population-correlated copy.")
plus = ket2dm(PureState.normalized((2,), [1, 1]))
rec = broadcast(plus, 0, 0)
print("  |+> with its copy becomes the aligned entangled pair:")
print(rec.state.matrix.real)
copy = partial_trace(rec.state, [1])
print("  the copy alone is the dephased original:")
print(copy.matrix.real)
