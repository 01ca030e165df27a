"""Generate a toy census and synthesize it variable by variable with CART.

The plan pins a deterministic rule (children are Single), nests the 200-level
fine occupation code inside its 5-level grouping, and lets every other
variable be drawn from CART leaf donors.
"""

import numpy as np

import synthweave as sw

orig = sw.generate_toy_census(sw.ToyCensusSpec(n_rows=10_000, seed=42))
print(f"original: {orig.n_rows} rows, columns {', '.join(orig.names)}")

plan = sw.SynthesisPlan(
    visit_sequence=("region", "sex", "age", "mar", "occ1", "pperroom", "occ3"),
    methods={
        "region": sw.Sample(),          # first variable bootstraps
        "sex": sw.Cart(),
        "age": sw.Cart(),
        "mar": sw.Cart(),
        "occ1": sw.Cart(),
        "pperroom": sw.Cart(),
        "occ3": sw.Nested("occ1"),      # bootstrap within the coarse group
    },
    rules=(sw.Rule("mar", "age < 16", "Single"),),
    seed=7,
)

for diag in sw.validate_plan(plan, orig):
    print(f"  plan {diag.severity}: {diag.message}")

run = sw.synthesize(orig, plan)
syn = run.synthetic
print(f"\nsynthetic: {syn.n_rows} rows")
for s in run.summaries:
    print(f"  {s.name:<9} {s.method:<9} fit n={s.n_fit:<6} {s.elapsed:6.2f}s"
          f"  rule-forced={s.rule_forced}")

age = syn.column("age").values
mar = syn.column("mar").values
print(f"\nrule check: {int(((age < 16) & (mar != 0)).sum())} under-16 non-Single rows")
print(f"missing persons-per-room: original "
      f"{np.isnan(orig.column('pperroom').values).mean():.3f}, synthetic "
      f"{np.isnan(syn.column('pperroom').values).mean():.3f}")

report = sw.compare_univariate(orig.select(syn.names), syn)
print("\nmarginal agreement (categorical max |proportion difference|):")
for name, comp in report.comparisons.items():
    if hasattr(comp, "max_abs_diff"):
        print(f"  {name:<9} {comp.max_abs_diff:.4f}")
