"""Renormalised solves and the coupled-noise dyadic epsilon study.

One white-noise realization is mollified at each scale of a dyadic list and
the renormalised equation is solved for each; the weighted distances between
consecutive solutions shrink as eps halves, and for the 1-d space-time
equation the solutions approach the classical Ito discretisation driven by
the same noise increments.  With space-time noise each eps runs on its own
dyadic grid at the finest eps's ratio eps/dx (here 6.4): eps = 0.4 on 256
cells and step 64 dt, from the block means of the same noise, its snapshots
upsampled spectrally to the 2048-cell grid.  (Desk-scale parameters; about
ten seconds.)
"""

from mshe.noise import Grid
from mshe.solver import convergence_study

print("she1d, coupled noise, dirac-free start (constant 1):")
g = Grid(d=1, L=16.0, N=2048, T=0.5, M=8192)
res = convergence_study("she1d", g, [0.4, 0.2, 0.1, 0.05], T=0.5,
                        seeds=(0, 1, 2), include_ito=True, n_qmc=1 << 13,
                        snapshot_t0=0.25, u0=("const", 1.0), dt=g.dx ** 2 / 2)
print(f"  renormalisation constants: "
      f"{ {e: round(float(c), 4) for e, c in res['constants'].items()} }")
for seed, r in zip(res["seeds"], res["results"]):
    print(f"  seed {seed}: pairwise {[round(v, 4) for v in r['pairwise']]}"
          f"  to-ito {[round(v, 4) for v in r['to_ito']]}")

print("pam3d at 32^3, spatial noise:")
g3 = Grid(d=3, L=2.0, N=32)
res3 = convergence_study("pam3d", g3, [1.0, 0.5, 0.25, 0.125], T=0.1,
                         seeds=(0, 1, 2), n_qmc=1 << 14, snapshot_t0=0.05)
for seed, r in zip(res3["seeds"], res3["results"]):
    print(f"  seed {seed}: pairwise {[round(v, 4) for v in r['pairwise']]}")
