#!/usr/bin/env python3
"""The two bases of the protocol and the weak-measurement device table."""

import numpy as np

from weakcorr import computational_basis, device_table, hadamard_mub, is_mutually_unbiased
from weakcorr.cli import render_tables

n = 3
comp = computational_basis([2] * n)
mub = hadamard_mub(n)

print("computational labels:", comp.labels)
print("sign-word labels:    ", mub.labels)

print("\nEvery cross overlap has squared modulus 1/8:")
overlaps = np.abs(comp.matrix.conj() @ mub.matrix.T) ** 2
print(overlaps)
print("mutually unbiased:", is_mutually_unbiased(comp, mub))

print("\nThe device table arranges the measured projectors; the single-party")
print("lines hold the factors picked out of the joint projector column")
print("by column, so tensoring lines 2..4 rebuilds line 1:")
t = device_table([2] * n)
col = 2  # third column
print("column 3 party digits:", t.party_digits[col])
parts = np.ones((1, 1))
for digit, d in zip(t.party_digits[col], t.dims):
    parts = np.kron(parts, np.diag(np.eye(d)[digit]))
joint = np.diag(np.eye(t.n_columns)[col])
print("column 3 rebuild error:", np.max(np.abs(parts - joint)))

print()
print(render_tables(n))
