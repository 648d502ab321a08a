#!/usr/bin/env python3
"""Weak values, anomalous and complex, and matrix-element reconstruction."""

import numpy as np

from weakcorr import (
    analytic_weak_value,
    computational_basis,
    ghz,
    hadamard_mub,
    ket2dm,
    random_density_matrix,
    reconstruct_matrix,
    weak_value_pure,
)
from weakcorr.qcore import PureState

P0 = np.array([[1, 0], [0, 0]], dtype=complex)

print("A weak value is a postselected conditioned expectation.  With the")
print("pre- and postselection nearly orthogonal it leaves [0, 1]:")
psi_in = PureState.normalized((2,), [1, 1])
psi_fin = PureState.normalized((2,), [2, -1])
print("  W(|0><0|) between |+> and (2|0>-|1>)/sqrt(5) =",
      weak_value_pure(psi_in, psi_fin, P0))

print("\nComplex pre-selections give complex weak values:")
psi_i = PureState.normalized((2,), [1, 1j])
print("  W =", weak_value_pure(psi_i, psi_fin, P0))

print("\nMixed states use the trace form.  GHZ postselected on the uniform")
print("sign state puts weight 1/2 on each of its two populated corners:")
rho = ket2dm(ghz(3))
mub = hadamard_mub(3)
a000 = np.zeros((8, 8), dtype=complex); a000[0, 0] = 1
a010 = np.zeros((8, 8), dtype=complex); a010[2, 2] = 1
print("  W(|000><000|) =", analytic_weak_value(rho, a000, mub.vectors[0]))
print("  W(|010><010|) =", analytic_weak_value(rho, a010, mub.vectors[0]))

print("\nSumming P_k (beta_kj / beta_ki) W_ki over the unbiased basis")
print("reconstructs every matrix element:")
comp = computational_basis((2, 2, 2))
print("  <000|rho|111> reconstructed =", reconstruct_matrix(rho, comp, mub)[0, 7])

rho_r = random_density_matrix((2, 2), seed=7)
comp2, mub2 = computational_basis((2, 2)), hadamard_mub(2)
worst = np.max(np.abs(reconstruct_matrix(rho_r, comp2, mub2) - rho_r.matrix))
print("  max residual on a random two-qubit state:", worst)
