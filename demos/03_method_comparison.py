"""Compare bootstrap, parametric and CART syntheses of the same census.

Reproduces the classic failure modes of fully parametric synthesis: the
square-root-Normal age model puts too many people at the observed maximum
age (its tail past that age is clipped to it), and
the linear-in-age multinomial badly overstates marriage among young adults.
CART keeps every age band close; bootstrap keeps marginals but destroys the
joint structure, which the mar-by-age table exposes immediately.
"""

import warnings

import synthweave as sw

warnings.filterwarnings("ignore")

cols = ("region", "sex", "age", "mar", "occ1", "pperroom")
orig = sw.generate_toy_census(sw.ToyCensusSpec(n_rows=20_000, seed=3)).select(cols)

plans = {
    "bootstrap": sw.SynthesisPlan(cols, {c: sw.Sample() for c in cols}, seed=5),
    "parametric": sw.SynthesisPlan(
        cols,
        {
            "region": sw.Sample(),
            "sex": sw.Logit(),
            "age": sw.TransformNormal("sqrt"),
            "mar": sw.Multinomial(),
            "occ1": sw.Multinomial(),
            "pperroom": sw.TransformNormal("cuberoot"),
        },
        seed=5,
    ),
    "cart": sw.SynthesisPlan(
        cols,
        {c: (sw.Sample() if c == "region" else sw.Cart()) for c in cols},
        seed=5,
    ),
}

bands = {"age": [15.0, 24.0, 34.0, 44.0, 54.0, 64.0, 74.0]}
age_max = orig.column("age").values.max()


def pct_at_age_max(data):
    return 100.0 * (data.column("age").values == age_max).mean()


print(f"age max {age_max:.0f}")
print(f"{'method':<11} {'%at max':>8} {'U_tab(mar*age)':>15} {'%married 16-24':>15}")
orig_young = None
for name, plan in plans.items():
    syn = sw.synthesize(orig, plan).synthetic
    ut = sw.u_tab(sw.cross_tabulate(orig, syn, ["mar", "age"]))
    bc = sw.compare_bivariate(orig, syn, "mar", "age", numeric_breaks=bands)
    married = bc.levels.index("Married")
    young = bc.bands.index("(15,24]")
    if orig_young is None:
        orig_young = bc.pct_original[young, married]
        print(f"{'original':<11} {pct_at_age_max(orig):8.2f} "
              f"{'-':>15} {orig_young:15.2f}")
    print(f"{name:<11} {pct_at_age_max(syn):8.2f} "
          f"{ut.ratio:15.2f} {bc.pct_synthetic[young, married]:15.2f}")

print("""
reading the table:
  - parametric age piles up at the observed maximum (the clipped sqrt-Normal tail)
  - parametric %married in the youngest band overshoots the original several-fold
  - bootstrap matches marginals but its mar*age ratio explodes (no dependence)
  - CART sits near ratio 1 with every band close to the original""")
