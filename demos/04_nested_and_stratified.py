"""High-cardinality and big-data tactics: nested synthesis and stratification.

A 200-level occupation code is far beyond what a multinomial fit can handle;
bootstrapping it within its already-synthesized 5-level grouping is both fast
and faithful.  Stratifying the whole synthesis on a variable guarantees good
tables of that variable against everything else, by construction.
"""

import time
import warnings

import numpy as np

import synthweave as sw

warnings.filterwarnings("ignore")

census = sw.generate_toy_census(sw.ToyCensusSpec(n_rows=100_000, seed=11))

# --- nested synthesis of the 200-level code ------------------------------
plan = sw.SynthesisPlan(
    ("occ1", "occ3"),
    {"occ1": sw.Sample(), "occ3": sw.Nested("occ1")},
    seed=1,
)
t0 = time.perf_counter()
run = sw.synthesize(census.select(["occ1", "occ3"]), plan)
print(f"nested synthesis of a 200-level code at 100k rows: {time.perf_counter()-t0:.2f}s")

worst = 0.0
for g in range(5):
    sel_o = census.column("occ1").values == g
    sel_s = run.synthetic.column("occ1").values == g
    po = np.bincount(census.column("occ3").values[sel_o], minlength=200) / sel_o.sum()
    ps = np.bincount(run.synthetic.column("occ3").values[sel_s], minlength=200) / sel_s.sum()
    worst = max(worst, float(np.abs(po - ps).max()))
print(f"worst within-group frequency error over 5 groups x 40 levels: {worst:.4f}")

try:
    sw.fit_multinomial(census.column("occ3"), sw.Dataset((census.column("occ1"),)))
except sw.MethodError as exc:
    print(f"direct multinomial attempt: rejected ({exc})")

# --- stratified synthesis -------------------------------------------------
small = sw.generate_toy_census(sw.ToyCensusSpec(n_rows=20_000, seed=12))
methods = {
    "region": sw.Sample(), "sex": sw.Logit(), "age": sw.NormRank(),
    "mar": sw.Multinomial(), "pperroom": sw.NormRank(),
}
strat_plan = sw.SynthesisPlan(
    ("region", "sex", "age", "mar", "pperroom"),
    methods,
    stratifier="occ1",
    seed=2,
)
run_s = sw.synthesize(small, strat_plan)
print(f"\nstratified on occ1: strata {dict(run_s.strata)}")
orig = small.select(run_s.synthetic.names)
print("U_tab ratios for occ1 x other variables (all near 1 by construction):")
for v in ["region", "sex", "age", "mar", "pperroom"]:
    ratio = sw.u_tab(sw.cross_tabulate(orig, run_s.synthetic, ["occ1", v], n_bins=10)).ratio
    print(f"  occ1*{v:<9} ratio={ratio:5.2f}")
