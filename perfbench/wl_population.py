"""population: in-process ``gaussian_limit`` over reference and slow cases.

Nested quadrature and the per-node ``quantile_weight`` and density calls do
the work; nothing is sampled.  The seed draws the Normal location, the
Exponential rate and the order of the cases.  Location enters every value
additively (cash additivity), and with linear g the Exponential case scales
exactly with 1 / rate, so every case keeps a reference value.
"""
from __future__ import annotations

import numpy as np

from common import Gate, close, median, no_error, op_times, timed

# name -> (center at location 0, sigma^2) of the six reference pairs,
# ES(0.9) deviation; centers to 1e-3, variances to 2%
REFERENCE = {
    "normal_exp_shortfall": (0.9279, 2.85),
    "normal_linear": (1.7550, 3.71),
    "normal_exp_cap": (0.8271, 1.08),
    "lomax4_exp_shortfall": (0.725, 4.88),
    "lomax4_linear": (1.3711, 10.19),
    "lomax4_exp_cap": (0.979, 1.97),
}
# Exponential(rate 1), Gini, linear(0.5): center 5/4, sigma^2 19/12
EXP_GINI = (1.25, 19.0 / 12.0)
CASES = [*REFERENCE, "normal_es_piecewise", "exponential_gini_linear", "lomax25_divergent"]
QUICK_CASES = ["normal_exp_shortfall", "exponential_gini_linear", "lomax25_divergent"]


def make_inputs(seed: int, quick: bool) -> dict:
    from meandev import (
        ESDeviation, ExpCapWeight, ExpShortfallWeight, Exponential, Gini, LinearWeight,
        Lomax, MDMeasure, Normal, PiecewiseLinearDistortion,
    )

    rng = np.random.default_rng(seed)
    mu = float(rng.uniform(-1.0, 1.0))
    rate = float(rng.uniform(0.5, 2.0))
    h09 = ESDeviation(0.9)
    normal, lomax4 = Normal(mu=mu, sd=1.0), Lomax(4.0)
    es, lin, cap = ExpShortfallWeight(1.0), LinearWeight(1.0), ExpCapWeight(1.0)
    table = {
        "normal_exp_shortfall": (normal, MDMeasure(es, h09)),
        "normal_linear": (normal, MDMeasure(lin, h09)),
        "normal_exp_cap": (normal, MDMeasure(cap, h09)),
        "lomax4_exp_shortfall": (lomax4, MDMeasure(es, h09)),
        "lomax4_linear": (lomax4, MDMeasure(lin, h09)),
        "lomax4_exp_cap": (lomax4, MDMeasure(cap, h09)),
        # knots (0, 0.1, 1) with h(0.1) = 0.9 is exactly ES(0.9)
        "normal_es_piecewise": (normal, MDMeasure(
            es, PiecewiseLinearDistortion(t=(0.0, 0.1, 1.0), h=(0.0, 0.9, 0.0)))),
        "exponential_gini_linear": (Exponential(rate=rate), MDMeasure(LinearWeight(0.5), Gini())),
        "lomax25_divergent": (Lomax(2.5), MDMeasure(lin, h09)),
    }
    names = list(QUICK_CASES if quick else CASES)
    order = [names[i] for i in rng.permutation(len(names))]
    return {"mu": mu, "rate": rate, "cases": [(n, *table[n]) for n in order]}


def run_batch(inputs) -> list:
    import meandev.estimation as estimation

    return [timed(name, estimation.gaussian_limit, model, m)
            for name, model, m in inputs["cases"]]


def _check_case(inputs, twin):
    from meandev.estimation import NumericsError

    mu, rate = inputs["mu"], inputs["rate"]

    def checks(op):
        if op.name == "lomax25_divergent":
            if not isinstance(op.error, NumericsError):
                return [f"expected NumericsError, got {op.error!r} / {op.value!r}"]
            return []
        problems = no_error(op)
        if problems:
            return problems
        center, variance = op.value.center, op.value.variance
        if op.name in REFERENCE:
            c_ref, v_ref = REFERENCE[op.name]
            shift = mu if op.name.startswith("normal") else 0.0
            if not close(center, c_ref + shift, abs_=1e-3):
                problems.append(f"center {center!r} vs {c_ref + shift!r} (abs 1e-3)")
            if not close(variance, v_ref, rel=0.02):
                problems.append(f"variance {variance!r} vs {v_ref!r} (rel 2%)")
        elif op.name == "normal_es_piecewise":
            if twin is None:
                return []
            for got, ref in ((center, twin.center), (variance, twin.variance)):
                if not close(got, ref, rel=1e-6):
                    problems.append(f"{got!r} differs from the ES(0.9) twin {ref!r} (rel 1e-6)")
        elif op.name == "exponential_gini_linear":
            c_ref, v_ref = EXP_GINI[0] / rate, EXP_GINI[1] / rate ** 2
            if not close(center, c_ref, rel=1e-6) or not close(variance, v_ref, rel=1e-4):
                problems.append(f"({center!r}, {variance!r}) vs closed form ({c_ref!r}, {v_ref!r})")
        return problems
    return checks


def check(inputs, batches, gate: Gate) -> dict:
    for _, ops in batches:
        by_name = {op.name: op for op in ops}
        twin_op = by_name.get("normal_exp_shortfall")
        twin = twin_op.value if twin_op is not None and twin_op.error is None else None
        for op in ops:
            gate.op(op, _check_case(inputs, twin))
    return {}


def end_to_end(batches) -> dict:
    names = {op.name for _, ops in batches for op in ops}
    return {"asymvar_p50_s": median(op_times(batches, names))}


def traced_metrics(inputs, untraced, traced) -> dict:
    out = {}
    for name in CASES:
        times = op_times(traced, {name})
        out[f"estimation.gaussian_limit.{name}_s"] = median(times)
    return out
