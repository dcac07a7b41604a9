"""The three renormalisation constants from their explicit integrals.

c_eps is a deterministic quadrature of G against the self-convolved
mollifier and diverges exactly like c/eps while the cutoff of the 3-d
Green's function at R_G = 1 stays off the mollifier's support, that is for
eps <= 1/(4 sqrt 3); at larger eps the cutoff lowers eps*c.  The three-Green
constants come from randomized quasi-Monte Carlo with importance sampling of
the singular factors.  For the 3-d equation c11 diverges logarithmically;
the measured log-slope matches the shell integral of G^3, namely
-1/(16 pi^2).  For the 1-d space-time equation the untruncated heat kernel
is exactly parabolic self-similar, so c11 and c12 do not depend on eps at
all.
"""

import numpy as np

from mshe.noise import Mollifier
from mshe.renorm import c11_eps, c12_eps, c_eps, pam_green, she_green

print("inverse-scaling of c_eps (c_eps * eps is constant at small eps):")
for name, green in (("pam3d", pam_green()), ("she1d", she_green())):
    prods = [float(c_eps(Mollifier(epsilon=e), green)) * e
             for e in (1.0, 0.5, 0.1, 0.05, 0.025)]
    print(f"  {name}: c_eps*eps at eps = 1, 0.5, 0.1, 0.05, 0.025: "
          f"{[round(p, 6) for p in prods]}")

print("\npam3d c11(eps): log divergence")
green = pam_green()
vals = {}
for e in (0.2, 0.1, 0.05, 0.025):
    r = c11_eps(Mollifier(epsilon=e), green, n_samples=1 << 16, seed=3)
    vals[e] = r["value"]
    print(f"  eps={e:5}: c11 = {r['value']:.6f} +- {r['stderr']:.6f}")
es = sorted(vals, reverse=True)
slopes = [(vals[b] - vals[a]) / (np.log(b) - np.log(a)) for a, b in zip(es, es[1:])]
print(f"  fitted log-slope {np.mean(slopes):.6f}  vs  -1/(16 pi^2) = "
      f"{-1 / (16 * np.pi ** 2):.6f}")

print("\nshe1d constants (eps-independent by exact self-similarity):")
green = she_green()
for e in (0.2, 0.05):
    m = Mollifier(epsilon=e)
    c = c_eps(m, green)
    r11 = c11_eps(m, green, n_samples=1 << 15, seed=1)
    r12 = c12_eps(m, green, n_samples=1 << 15, seed=2)
    print(f"  eps={e:5}: c = {c:8.4f}  c11 = {r11['value']:.6f}  "
          f"c12 = {r12['value']:.6f}")
