"""Generate the canonical symbol table of the regularity structure.

The noise symbol's homogeneity alpha follows from the equation: -3/2 - kappa
for the SHE on R (space-time noise, d = 1), -1 - kappa for PAM on R^2 and
-3/2 - kappa for PAM on R^3 (spatial noise, d = 2 and 3).  Integration adds 2
and multiplying by the noise adds alpha.  The table below, of PAM on R^3, is
generated at kappa = 0.01 in exact (rational + multiple-of-kappa) arithmetic
and shows why the structure closes after finitely many symbols: everything
else falls outside the truncation window.
"""

from mshe.structure import StructureParams, build_structure

rs = build_structure(StructureParams(kappa=0.01, d=3))

print(f"{'set':3} {'symbol':24} {'exact':>10} {'value':>9}")
for name, sym, q, m, val in rs.table():
    exact = f"{q}{'+' if m >= 0 else '-'}{abs(m)}k" if m else str(q)
    print(f"{name:3} {sym:24} {exact:>10} {val:9.4f}")

print("\nClosure spot checks:")
by_name = {str(s): s for s in rs.symbols_U + rs.symbols_F}
tau = by_name["Xi*I(Xi)"]
itau = by_name["I(Xi*I(Xi))"]
print(f"  |I(tau)| - |tau| = {itau.homogeneity.q - tau.homogeneity.q} (exactly 2)")
print(f"  m unchanged: {itau.homogeneity.m} == {tau.homogeneity.m}")
