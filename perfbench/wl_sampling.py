"""sampling: in-process sample-side calls.

Monte Carlo (n = 10^4, 1000 replications, Normal and Lomax(4)), the Choquet
deviation at n = 10^3 .. 10^6, the adjusted-ES dual identity on a 10^5
sample, a 21-radius Wasserstein sweep and worst-case moment values.  The
same distortion and estimation layers that ``population`` drives through
quadrature are used here through sorting, and the Monte Carlo thread pool
runs.  The seed draws every sample, the Monte Carlo seeds and the moment
set-up.
"""
from __future__ import annotations

import math

import numpy as np

from common import Gate, close, es_h, median, no_error, op_times, staircase_deviation, timed

CHOQUET_SIZES = {"n1e3": 10 ** 3, "n1e4": 10 ** 4, "n1e5": 10 ** 5, "n1e6": 10 ** 6}
# calls per timed op, so that each op runs for tens of milliseconds and
# allocator and timer jitter of a single sub-millisecond call averages out
CHOQUET_REPEATS = {"n1e3": 300, "n1e4": 150, "n1e5": 12, "n1e6": 1}
MOMENT_REPEATS = 10
# (center, sigma^2) of exp_shortfall(1) / ES(0.9), acceptance criterion 1-2
MC_REFERENCE = {"mc_normal": (0.9279, 2.85), "mc_lomax4": (0.725, 4.88)}
ALPHA = 0.9
RADII = np.linspace(0.0, 1.0, 21)
MOMENT_ORDERS = (1.0, 1.5, 2.0)


def mc_problems(report: dict, n: int, reps: int, center: float, variance: float) -> list[str]:
    """Monte Carlo checks at a false-alarm rate below about 1e-6 per check.

    The population figures must match the reference pair (1e-3 / 2%).  The
    sample figures get the criterion-3 checks with bounds scaled to the
    replication count: the criterion's own +-10% and KS < 0.05 fail for a
    few percent of seeds even for a correct estimator.
    """
    problems = []
    if report["replications"] != reps or report["sample_size"] != n:
        problems.append("replication count or sample size changed")
    if not close(report["center"], center, abs_=1e-3):
        problems.append(f"center {report['center']} vs {center}")
    if not close(report["target_variance"], variance, rel=0.02):
        problems.append(f"target variance {report['target_variance']} vs {variance}")
    ratio_tol = 6.0 * math.sqrt(2.0 / (reps - 1))
    ratio = report["scaled_variance"] / report["target_variance"]
    if not abs(ratio - 1.0) <= ratio_tol:
        problems.append(f"n*Var / sigma^2 = {ratio:.4f}, outside 1 +- {ratio_tol:.3f}")
    ks_tol = math.sqrt(math.log(2e6) / (2.0 * reps)) + 0.02
    if not report["normality_statistic"] < ks_tol:
        problems.append(f"KS {report['normality_statistic']:.4f} >= {ks_tol:.4f}")
    mean_tol = 6.0 * math.sqrt(variance / (n * reps)) + 10.0 / n
    if not abs(report["estimate_mean"] - report["center"]) <= mean_tol:
        problems.append(f"estimate mean off the center by more than {mean_tol:.4g}")
    return problems


def make_inputs(seed: int, quick: bool) -> dict:
    from meandev import (
        ESDeviation, ExpShortfallWeight, Gini, LinearWeight, Lomax, MDMeasure,
        MomentUncertainty, Normal, WassersteinUncertainty,
    )

    rng = np.random.default_rng(seed)

    def draw():
        return int(rng.integers(2 ** 31))

    h09 = ESDeviation(ALPHA)
    es = ExpShortfallWeight(1.0)
    sizes = {"n1e3": 10 ** 3, "n1e4": 10 ** 4} if quick else CHOQUET_SIZES
    center = Normal().sample(1000 if quick else 5000, draw())
    m, v = float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.5, 2.0))
    return {
        "measure": MDMeasure(es, h09),
        "mc": [("mc_normal", Normal(), draw()), ("mc_lomax4", Lomax(4.0), draw())],
        "mc_n": 1000 if quick else 10 ** 4,
        "mc_reps": 100 if quick else 1000,
        "choquet": {k: Normal().sample(n, draw()) for k, n in sizes.items()},
        "h09": h09,
        "gap_sample": Normal().sample(10 ** 4 if quick else 10 ** 5, draw()),
        "gap_g": {"gap_exp_shortfall": es, "gap_linear": LinearWeight(1.0)},
        "wasserstein": [(float(eps), WassersteinUncertainty(center, float(eps))) for eps in RADII],
        "wasserstein_g": LinearWeight(1.0),
        "moment": [(f"moment_{hname}_{p}", h, MomentUncertainty(m, v, p))
                   for hname, h in (("es", h09), ("gini", Gini())) for p in MOMENT_ORDERS],
        "moment_g": es,
    }


def run_batch(inputs) -> list:
    import meandev.distortion as distortion
    import meandev.estimation as estimation
    import meandev.measures as measures
    import meandev.robust as robust

    ops = []
    for name, model, seed in inputs["mc"]:
        ops.append(timed(name, estimation.monte_carlo, model, inputs["measure"],
                         n=inputs["mc_n"], replications=inputs["mc_reps"], seed=seed))
    for key, x in inputs["choquet"].items():
        ops.append(timed(f"choquet_{key}", lambda: [
            distortion.choquet_deviation(inputs["h09"], x) for _ in range(CHOQUET_REPEATS[key])]))
    for name, g in inputs["gap_g"].items():
        ops.append(timed(name, measures.adjusted_es_identity_gap, g, ALPHA,
                         inputs["gap_sample"], grid_size=2000))
    g = inputs["wasserstein_g"]
    ops.append(timed("wasserstein_sweep", lambda: [
        robust.worstcase_wasserstein(g, inputs["h09"], u) for _, u in inputs["wasserstein"]]))
    ops.append(timed("moment_sweep", lambda: [
        robust.worstcase_moment(inputs["moment_g"], h, u)
        for _ in range(MOMENT_REPEATS) for _, h, u in inputs["moment"]]))
    return ops


def _centered_norm(hname: str, p: float) -> float:
    """Closed-form centered norm [h]_q, q conjugate to the moment order p."""
    if hname == "es":
        if p == 1.0:  # sup norm: half the range of h' in {-1, alpha / (1 - alpha)}
            return 0.5 * (ALPHA / (1.0 - ALPHA) + 1.0)
        a = ALPHA
        return a * (a ** p * (1 - a) + a * (1 - a) ** p) ** (-1.0 / p)
    if p == 1.0:  # h' = 1 - 2s ranges over [-1, 1]
        return 1.0
    q = p / (p - 1.0)  # symmetric h', so the centering is 0: (1 / (q + 1))^(1/q)
    return (1.0 / (q + 1.0)) ** (1.0 / q)


def check(inputs, batches, gate: Gate) -> dict:
    reps, n = inputs["mc_reps"], inputs["mc_n"]
    x_w = inputs["wasserstein"][0][1].center.values
    nominal = staircase_deviation(es_h(ALPHA), x_w) + float(np.mean(x_w))
    first_mc = {}
    for _, ops in batches:
        for op in ops:
            def checks(op):
                problems = no_error(op)
                if problems:
                    return problems
                if op.name in MC_REFERENCE:
                    report = op.value.as_dict()
                    # fixed seed: every batch must reproduce the first one exactly
                    first = first_mc.setdefault(op.name, op.value.estimates)
                    if not np.array_equal(first, op.value.estimates):
                        problems.append("estimates differ between batches with the same seed")
                    return problems + mc_problems(report, n, reps, *MC_REFERENCE[op.name])
                if op.name.startswith("choquet_"):
                    ref = staircase_deviation(es_h(ALPHA), inputs["choquet"][op.name[8:]].values)
                    return [f"{got!r} vs staircase {ref!r}" for got in op.value
                            if not close(got, ref, rel=1e-9, abs_=1e-12)]
                if op.name == "gap_exp_shortfall":
                    return [] if op.value <= 1e-3 else [f"dual gap {op.value:.3g} > 1e-3"]
                if op.name == "gap_linear":
                    return [] if op.value <= 1e-10 else [f"dual gap {op.value:.3g} > 1e-10"]
                if op.name == "wasserstein_sweep":
                    # linear g: nominal + eps * sqrt(||h'||_2^2 + 1) = nominal + eps sqrt(10)
                    return [f"eps={eps}: {got!r}" for (eps, _), got in zip(inputs["wasserstein"], op.value)
                            if not close(got, nominal + eps * math.sqrt(10.0), abs_=1e-8)]
                if op.name == "moment_sweep":
                    # exp_shortfall(1): g(x) = x + e^-x - 1 at x = v [h]_q
                    problems = []
                    for (name, _, u), got in zip(inputs["moment"] * MOMENT_REPEATS, op.value):
                        _, hname, p = name.split("_")
                        x = u.v * _centered_norm(hname, float(p))
                        want = x + math.expm1(-x) + u.m
                        if not close(got, want, abs_=1e-8):
                            problems.append(f"{name}: {got!r} vs {want!r}")
                    return problems
                return [f"unknown op {op.name}"]
            gate.op(op, checks)
    return {}


def end_to_end(batches) -> dict:
    return {"mc_p50_s": median(op_times(batches, set(MC_REFERENCE)))}


def traced_metrics(inputs, untraced, traced) -> dict:
    return {f"distortion.choquet_deviation.{key}_s":
            median(op_times(traced, {f"choquet_{key}"})) / CHOQUET_REPEATS[key]
            for key in CHOQUET_SIZES}
