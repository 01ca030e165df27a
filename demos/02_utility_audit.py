"""Audit a synthesis with U_gen (propensity) and U_tab (tabular) statistics.

Also demonstrates the exact identity between the two: for any table, the
Neyman chi-square equals 8N times the pMSE of the saturated propensity model
on that table, to floating-point precision.
"""

import synthweave as sw

cols = ("region", "sex", "age", "mar", "occ1", "pperroom")
orig = sw.generate_toy_census(sw.ToyCensusSpec(n_rows=10_000, seed=1)).select(cols)

methods = {c: sw.Cart() for c in cols}
methods["region"] = sw.Sample()
syn = sw.synthesize(orig, sw.SynthesisPlan(cols, methods, seed=2)).synthetic

# general utility: logistic propensity on main effects
fit = sw.fit_propensity(orig, syn, model="main_effects")
ug = sw.u_gen(fit)
print(f"U_gen = {ug.statistic:.2f}  df={ug.df}  ratio={ug.ratio:.2f}  p={ug.p_value:.3f}")
print("ratio near 1 means the propensity model cannot tell original from synthetic\n")

# coefficient diagnostics point at problem variables
diag = sw.diagnose(fit, threshold=1.7)
print(f"propensity |z| >= 1.7: {len(diag.flagged)} of {len(fit.labels) - 1} terms")
for var, terms in diag.by_variable[:3]:
    worst = ", ".join(f"{t}({z:+.1f})" for t, z in terms[:3])
    print(f"  {var}: {worst}")

# specific utility: tables suggested by the diagnostics
print("\nU_tab for selected tables:")
for variables in [("mar", "age"), ("occ1", "sex"), ("mar", "occ1")]:
    table = sw.cross_tabulate(orig, syn, variables)
    ut = sw.u_tab(table)
    print(f"  {'*'.join(variables):<10} U_tab={ut.statistic:8.2f}  df={ut.df:<3} "
          f"ratio={ut.ratio:5.2f}")
    for cell in sw.worst_cells(table, top=2):
        print(f"      worst cell {cell['levels']}: y={cell['y']} s={cell['s']} "
              f"contributes {cell['contribution']:.1f}")

# the tabular statistic IS the saturated propensity statistic
rep = sw.equivalence_check(orig, syn, ["mar", "age"])
print(f"\nequivalence: U_tab={rep.u_tab.statistic:.6f}  "
      f"8N*pMSE={rep.u_gen.statistic:.6f}  relative gap={rep.relative_gap:.2e}")
