"""Tour of the mean-deviation risk measures on small samples.

A measure here is g(D(X)) + E[X]: a deviation D (a Choquet integral with a
concave distortion h), passed through an increasing 1-Lipschitz weighting
function g, plus the mean.  The choice of g decides which classical axioms
the measure satisfies, which this script demonstrates on tiny examples.
"""
import numpy as np

from meandev import (
    ESDeviation,
    ExpCapWeight,
    ExpShortfallWeight,
    Gini,
    LinearWeight,
    MDMeasure,
    PiecewiseLinearWeight,
    StateVector,
    choquet_deviation,
    es_alpha,
    expectile,
    md_eval,
    var_alpha,
)

print("=" * 72)
print("1. Basic tail statistics on a five-point loss sample")
print("=" * 72)
x = StateVector([1.0, -0.5, 3.0, 0.2, 1.4])
print(f"sample:            {x.values}")
print(f"mean:              {x.mean():+.4f}")
print(f"VaR_0.8:           {var_alpha(x, 0.8):+.4f}   (left quantile)")
print(f"ES_0.8:            {es_alpha(x, 0.8):+.4f}   (exact staircase tail average)")
print(f"expectile_0.8:     {expectile(x, 0.8):+.4f}")
print(f"ES_0.8 deviation:  {choquet_deviation(ESDeviation(0.8), x):+.4f}")
print(f"Gini deviation:    {choquet_deviation(Gini(), x):+.4f}"
      f"   (= half the mean absolute difference)")

print()
print("=" * 72)
print("2. The same deviation, different risk weightings")
print("=" * 72)
weights = {
    "linear(1)        (coherent)": LinearWeight(1.0),
    "linear(0.7)      (coherent)": LinearWeight(0.7),
    "exp_shortfall(1) (convex)  ": ExpShortfallWeight(1.0),
    "exp_cap(1)       (consistent only)": ExpCapWeight(1.0),
}
for label, g in weights.items():
    m = MDMeasure(g, ESDeviation(0.8))
    print(f"  {label}: value {md_eval(m, x):+.4f}")

print()
print("=" * 72)
print("3. Classification of the weighting decides the axioms")
print("=" * 72)
print(f"{'g':<22}{'linear':<8}{'convex':<8}{'star':<6}{'concave':<9}{'slope a':<9}sup g/x")
for g in [LinearWeight(0.7), ExpShortfallWeight(1.0), ExpCapWeight(1.0),
          PiecewiseLinearWeight(knots=(1.0,), slopes=(0.0, 1.0))]:
    c = g.classify()
    kind = g.spec()["kind"]
    print(f"{kind:<22}{str(c.is_linear):<8}{str(c.is_convex):<8}"
          f"{str(c.is_star_shaped):<6}{str(c.is_concave):<9}"
          f"{c.asymptotic_slope:<9.2f}{c.sup_ratio:.2f}")

print()
print("=" * 72)
print("4. Monotone and cash additive, but not necessarily subadditive")
print("=" * 72)
relu = PiecewiseLinearWeight(knots=(1.0,), slopes=(0.0, 1.0))  # g(x) = (x-1)+
m = MDMeasure(relu, ESDeviation(0.5))
a = StateVector([0.0, 2.0])
both = StateVector([0.0, 4.0])  # the comonotone sum of two copies
print(f"value(X)      = {md_eval(m, a):.1f}")
print(f"value(X + X)  = {md_eval(m, both):.1f}  >  2 * value(X) = {2 * md_eval(m, a):.1f}")
print("so this consistent measure is not subadditive, yet it is monotone:")
rng = np.random.Generator(np.random.PCG64(1))
worst = 0.0
for _ in range(1000):
    u = StateVector(rng.normal(size=12))
    v = u + StateVector(np.abs(rng.normal(size=12)))
    worst = max(worst, md_eval(m, u) - md_eval(m, v))
print(f"max over 1000 dominated pairs of value(lower) - value(upper): {worst:.2e} (<= 0)")

print()
print("=" * 72)
print("5. The tightest coherent measure dominating each weighting")
print("=" * 72)
for g in [LinearWeight(0.7), ExpShortfallWeight(2.0), ExpCapWeight(2.0)]:
    mult = g.classify().sup_ratio
    print(f"  {g.spec()['kind']:<15} -> {mult:.2f} * deviation + mean")
