#!/usr/bin/env python3
"""Gaussian pointers: exact conditioned translations and weak-value readout."""

import numpy as np

from weakcorr import (
    PointerConfig,
    couple_all,
    device_table,
    extract_weak_value,
    hadamard_mub,
    ket,
    ket2dm,
    postselect_and_read,
    random_density_matrix,
)
from weakcorr.estimator import analytic_weak_value

table = device_table((2, 2, 2))
mub = hadamard_mub(3)

print("A device whose projector is always satisfied translates its pointer")
print("by exactly g, at any coupling strength:")
t1 = device_table((2,))
for g in (0.5, 1e-3):
    cfg = PointerConfig(g)
    bs = couple_all(ket2dm(ket("0")), t1)
    r = postselect_and_read(bs, hadamard_mub(1).vectors[0], cfg)
    print(f"  g={g:<6} delta_q={r.delta_q[0, 0]:.15f} delta_p={r.delta_p[0, 0]:+.1e}")

print("\nCoupling the whole 4 x 8 device matrix to a coherent state and")
print("postselecting once yields every reading simultaneously.  Extracted")
print("weak values approach the analytic ones as g shrinks, with a bias")
print("that falls off quadratically:")
rho = random_density_matrix((2, 2, 2), seed=42)
b = mub.vectors[0]
col = 0  # the joint device of column 1 projects onto its party digits
label = "".join(map(str, table.party_digits[col]))
expect = analytic_weak_value(rho, np.diag(np.eye(table.n_columns)[col]), b)
print(f"  analytic W(|{label}><{label}|) =", expect)
prev = None
for g in (2e-1, 1e-1, 5e-2, 2.5e-2):
    cfg = PointerConfig(g)
    bs = couple_all(rho, table)
    r = postselect_and_read(bs, b, cfg)
    w = extract_weak_value(r.delta_q, r.delta_p, cfg)[0, 0]
    err = abs(w - expect)
    note = "" if prev is None else f"  (ratio {prev / err:.2f}, ~4 = quadratic)"
    print(f"  g={g:<7} W={w:.6f} |err|={err:.3e}{note}")
    prev = err

print("\nThe momentum channel carries the imaginary part; with the default")
print("pointer spread sigma = 1/sqrt(2) the calibration is Im W = delta_p/g.")

print("\nWith 32 devices coupled at g = 1e-3 the crosstalk on any single")
print("device's reading stays below one part in 1e4:")
cfg = PointerConfig(1e-3)
bs = couple_all(rho, table)
full = postselect_and_read(bs, b, cfg)
import dataclasses

mask = np.zeros_like(bs.shifts)
mask[:, 0, 0] = bs.shifts[:, 0, 0]
solo = postselect_and_read(dataclasses.replace(bs, shifts=mask), b, cfg)
rel = abs(full.delta_q[0, 0] - solo.delta_q[0, 0]) / abs(solo.delta_q[0, 0])
print("  relative disturbance on device (1,1):", rel)
