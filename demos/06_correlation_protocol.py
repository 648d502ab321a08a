#!/usr/bin/env python3
"""The full correlation protocol on reference states, both backends."""

import numpy as np

from weakcorr import (
    PointerConfig,
    correlation,
    correlation_oracle_diag,
    ghz,
    ket2dm,
    random_density_matrix,
    tensor_product,
)
from weakcorr.qcore import DensityMatrix


def product_state(seed):
    a = random_density_matrix((2,), seed)
    b = random_density_matrix((2,), seed + 1)
    c = random_density_matrix((2,), seed + 2)
    return tensor_product(tensor_product(a, b), c)


states = {
    "GHZ": ket2dm(ghz(3)),
    "classical mixture": DensityMatrix(
        (2, 2, 2), np.diag([0.5, 0, 0, 0, 0, 0, 0, 0.5]).astype(complex)
    ),
    "random product": product_state(11),
    "random correlated": random_density_matrix((2, 2, 2), 3),
}

cfg = PointerConfig(g=1e-3)
print(f"{'state':<20} {'analytic C':>12} {'circuit C':>12} {'diag oracle':>12} skipped")
for name, rho in states.items():
    analytic = correlation(rho, "analytic", "idealized")
    circuit = correlation(rho, "circuit", "literal", cfg)
    skipped = [k + 1 for k in analytic.skipped]
    print(
        f"{name:<20} {analytic.C:>12.8f} {circuit.C:>12.8f} "
        f"{analytic.oracle_diag:>12.8f} {skipped}"
    )

print()
print("Notes.  The analytic backend weighs coherent weak values, so it and")
print("the circuit backend answer slightly different questions: the copy")
print("readout only ever sees populations, which is why the circuit column")
print("reproduces the diagonal oracle exactly.  GHZ and the classical")
print("mixture share their populated corners, and both backends assign them")
print("the same correlation, 1.5.  Product states give zero either way.")

print()
print("Per-postselection breakdown for GHZ (analytic backend):")
rep = correlation(states["GHZ"], "analytic", "idealized")
rows = zip(rep.labels, rep.table.probabilities, rep.terms)
for k, (label, probability, term) in enumerate(rows):
    tag = "skipped (zero overlap)" if k in rep.skipped else f"P={probability:.4f} term={term:.4f}"
    print(f"  k={k + 1} [{label}]  {tag}")

print()
print("Nonzero conveyance outcomes only relabel digits; with a consistently")
print("relabeled postselection basis the correlation is unchanged:")
rho = states["random correlated"]
for outcomes in ((0, 0), (1, 0), (1, 1)):
    rep = correlation(rho, "analytic", "idealized", outcomes=outcomes)
    print(f"  outcomes {outcomes}: C = {rep.C:.12f}")
