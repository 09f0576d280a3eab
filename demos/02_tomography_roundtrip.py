"""
Simulated state tomography with bootstrap uncertainties
=======================================================

Simulate projective coincidence measurements of the predicted pair state,
reconstruct the density matrix by linear inversion and by maximum
likelihood, and propagate the counting statistics into the entanglement
indicators with a parametric bootstrap.
"""

import numpy as np

import biphoton as bp
from biphoton import tomography as tg

ket = bp.ket_from_path(bp.predict_path_state(bp.PATH_X))
rho_true = bp.density_from_ket(ket)

# All 36 pairings of the six standard analyzer settings on each arm.
settings = tg.standard_settings("overcomplete36")
print(f"measuring {len(settings)} settings, 10^4 pairs per setting\n")

records = tg.simulate_counts(rho_true, settings, n_per_setting=1e4, seed=7)
print("first few settings:",
      ", ".join(f"{r.setting.label}={int(r.counts)}" for r in records[:6]))

# Linear inversion is fast and unbiased but may step outside the physical
# state space; maximum likelihood stays positive semidefinite.
mat_lin = tg.reconstruct_linear(records)
result = tg.reconstruct_mle(records)
print(f"\nlinear inversion min eigenvalue: {np.linalg.eigvalsh(mat_lin)[0]:+.5f}")
print(f"MLE min eigenvalue:              {np.linalg.eigvalsh(result.rho.matrix)[0]:+.5f}")
print(f"MLE iterations: {result.iterations}, log-likelihood {result.log_likelihood:.1f}")

print(f"\nfidelity to the predicted state: {bp.fidelity(result.rho, ket):.5f}")

# The reconstructed matrix in the circular basis, where the off-diagonal
# LR/RL block carries the entanglement.
rho_circ = bp.density_change_basis(result.rho, bp.CIRCULAR)
print("\nreconstructed density matrix (circular basis, real part):")
print(np.round(rho_circ.matrix.real, 3))

# Counting-statistics uncertainties: redraw the counts, re-reconstruct,
# and look at the spread of each indicator.
stats = tg.resample_uncertainties(records, n_resamples=40, seed=1, target=ket)
print("\nbootstrap indicators (mean +- std):")
for name, st in stats.items():
    print(f"  {name:26s} {st.mean:.4f} +- {st.std:.4f}")
