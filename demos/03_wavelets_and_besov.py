"""Wavelet analysis on the parabolic torus and Besov norms from coefficients.

Builds the compactly supported orthonormal basis, checks its exact algebra,
runs the space-time transform on a smooth field (Parseval), and evaluates a
weighted Besov norm of a grid Dirac on both sides of the membership line
eta = -d + d/p.
"""

import numpy as np

from mshe import besov
from mshe.noise import Field, Grid
from mshe.wavelet import analyze, build_basis

basis = build_basis(2)
lags, gram = basis.inner_phi_translates()
print(f"family: {basis.N} vanishing moments, support length {basis.support}")
print(f"orthonormality residual: {np.max(np.abs(gram - (lags == 0))):.2e}")
print(f"refinement residual:     {basis.refinement_residual():.2e}")
print(f"psi moments (0..2):      {np.max(np.abs(basis.psi_moments(2))):.2e}")

M, N, T, L = 1024, 512, 1.0, 4.0
t = np.arange(M) / M * T
x = -L / 2 + np.arange(N) / N * L
tt, xx = np.meshgrid(t, x, indexing="ij")
f = np.exp(-8 * (xx - 0.3) ** 2 - 30 * (tt - 0.5) ** 2) * np.sin(6 * xx + 4 * tt)
pyr = analyze(Field(grid=Grid(d=1, L=L, N=N, T=T, M=M), values=f, kind="spacetime"),
              basis, 0, 4)
ratio = pyr.total_sq() / (np.sum(f ** 2) * (T / M) * (L / N))
print(f"Parseval ratio on a band-limited field: {ratio:.8f}")

print("\ngrid-Dirac Besov norms across resolutions (d=1, p=1):")
for eta in (-0.3, 0.3):
    norms = besov.dirac_norm_growth(1, 1.0, eta, basis, [6, 7, 8, 9])
    verdict = "bounded" if norms[-1] / norms[0] < 1.3 else "divergent"
    member = besov.dirac_membership(1, 1.0, eta)
    print(f"  eta={eta:+.1f}: {[round(v, 3) for v in norms]} -> {verdict} "
          f"(analytic membership: {member})")
