"""Command-line interface: classify, eval, asymvar, mc, robust, backtest, ingest.

All numeric output is JSON on stdout with keys sorted and floats quantized
to 12 significant digits, so a fixed seed yields byte-identical output
across runs.  Usage errors exit 2; domain and numeric errors exit 1.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from .distortion import choquet_deviation, distortion_from_spec
from .distributions import StateVector, model_from_spec
from .estimation import NumericsError, md_true, monte_carlo, sigma_g_squared
from .measures import MDMeasure, md_eval
from .portfolio import BacktestConfig, ingest_prices, run_backtest
from .riskweight import g_from_spec, smallest_coherent_multiplier
from .robust import (
    MomentUncertainty,
    WassersteinUncertainty,
    worstcase_moment,
    worstcase_wasserstein,
)

__all__ = ["main", "dispatch"]


def _round_floats(obj):
    """Quantize floats to 12 significant digits for stable re-emission."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, np.floating):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def emit_json(obj) -> None:
    sys.stdout.write(json.dumps(_round_floats(obj), sort_keys=True, indent=2) + "\n")


def _json_arg(text: str, what: str) -> dict:
    def reject_constant(name: str):
        # json.loads accepts NaN and +-Infinity, which are not RFC 8259 JSON
        raise ValueError(f"bad JSON for {what}: {name} is not a finite number")

    try:
        value = json.loads(text, parse_constant=reject_constant)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad JSON for {what}: {exc}") from exc
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object")
    return value


def _parse_sweep(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("sweep must look like start:stop:count")
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 2:
        raise ValueError("sweep count must be >= 2")
    return np.linspace(start, stop, count)


def _write_sweep(parameters, values) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["parameter", "worst_case"])
    for p, v in zip(parameters, values):
        writer.writerow([f"{p:.12g}", f"{v:.12g}"])


def _cmd_classify(args) -> int:
    g = g_from_spec(_json_arg(args.g, "--g"))
    out = {"g": g.spec(), **g.classify().as_dict(),
           "smallest_coherent_multiplier": smallest_coherent_multiplier(g)}
    emit_json(out)
    return 0


def _cmd_eval(args) -> int:
    g = g_from_spec(_json_arg(args.g, "--g"))
    h = distortion_from_spec(_json_arg(args.h, "--h"))
    x = StateVector.from_csv(args.data)
    m = MDMeasure(g, h)
    dev = choquet_deviation(h, x)
    emit_json({
        "md": md_eval(m, x),
        "deviation": dev,
        "mean": x.mean(),
        "classification": m.classification.as_dict(),
    })
    return 0


def _cmd_asymvar(args) -> int:
    model = model_from_spec(_json_arg(args.model, "--model"))
    m = MDMeasure(g_from_spec(_json_arg(args.g, "--g")),
                  distortion_from_spec(_json_arg(args.h, "--h")))
    emit_json({
        "md_true": md_true(model, m, args.quad_points),
        "sigma2": sigma_g_squared(model, m, args.quad_points),
    })
    return 0


def _cmd_mc(args) -> int:
    model = model_from_spec(_json_arg(args.model, "--model"))
    m = MDMeasure(g_from_spec(_json_arg(args.g, "--g")),
                  distortion_from_spec(_json_arg(args.h, "--h")))
    report = monte_carlo(model, m, n=args.n, replications=args.reps, seed=args.seed,
                         quad_points=args.quad_points)
    if args.estimates_csv:
        with open(args.estimates_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["estimate"])
            for value in report.estimates:
                writer.writerow([repr(float(value))])
    emit_json(report.as_dict())
    return 0


def _cmd_robust_moment(args) -> int:
    g = g_from_spec(_json_arg(args.g, "--g"))
    h = distortion_from_spec(_json_arg(args.h, "--h"))
    if args.sweep:
        levels = _parse_sweep(args.sweep)
        values = [worstcase_moment(g, h, MomentUncertainty(args.m, v, args.order))
                  for v in levels]
        _write_sweep(levels, values)
        return 0
    u = MomentUncertainty(m=args.m, v=args.v, a_order=args.order)
    emit_json({
        "worst_case": worstcase_moment(g, h, u),
        "nominal": args.m,
        "uncertainty": {"kind": "moment", "m": args.m, "v": args.v, "order": args.order},
    })
    return 0


def _cmd_robust_wasserstein(args) -> int:
    g = g_from_spec(_json_arg(args.g, "--g"))
    h = distortion_from_spec(_json_arg(args.h, "--h"))
    center = StateVector.from_csv(args.data)
    nominal = md_eval(MDMeasure(g, h), center)
    if args.sweep:
        radii = _parse_sweep(args.sweep)
        values = [worstcase_wasserstein(g, h, WassersteinUncertainty(center, eps))
                  for eps in radii]
        _write_sweep(radii, values)
        return 0
    u = WassersteinUncertainty(center=center, epsilon=args.eps)
    emit_json({
        "worst_case": worstcase_wasserstein(g, h, u),
        "nominal": nominal,
        "uncertainty": {"kind": "wasserstein", "eps": args.eps, "n": center.n},
    })
    return 0


def _cmd_backtest(args) -> int:
    panel = ingest_prices(args.prices)
    spec = _json_arg(args.config, "--config") if args.config else {}
    cfg = BacktestConfig(
        window=int(spec.get("window", 500)),
        rebalance=spec.get("rebalance", "monthly"),
        alpha=float(spec.get("alpha", 0.9)),
        g_spec=g_from_spec(spec.get("g", {"kind": "gbeta", "beta": 10.0})),
        risk_free_rate=float(spec.get("risk_free_rate", 0.0213)),
        initial_wealth=float(spec.get("initial_wealth", 1.0)),
    )
    report = run_backtest(panel, cfg)
    if args.wealth_csv:
        with open(args.wealth_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["date", "wealth"])
            for date, value in zip(report.dates, report.wealth):
                writer.writerow([date.isoformat(), repr(float(value))])
    if args.weights_csv:
        with open(args.weights_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["date", *panel.tickers])
            for date, _, _, w in report.periods:
                writer.writerow([date.isoformat(), *(repr(float(v)) for v in w)])
    emit_json(report.as_dict())
    return 0


def _cmd_ingest(args) -> int:
    panel = ingest_prices(args.prices)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["date", *panel.tickers])
    for date, row in zip(panel.dates, panel.losses):
        writer.writerow([date.isoformat(), *(repr(float(v)) for v in row)])
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meandev",
        description="Monotonic mean-deviation risk measures: evaluation, "
                    "estimation, robust bounds, and backtesting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a risk-weighting function")
    p.add_argument("--g", required=True, help="risk-weight spec as JSON")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("eval", help="evaluate g(D_h) + mean on a sample CSV")
    p.add_argument("--g", required=True)
    p.add_argument("--h", required=True, help="distortion spec as JSON")
    p.add_argument("--data", required=True, help="CSV with header 'value'")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("asymvar", help="population value and asymptotic variance")
    p.add_argument("--model", required=True, help="model spec as JSON")
    p.add_argument("--g", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--quad-points", type=int, default=200)
    p.set_defaults(func=_cmd_asymvar)

    p = sub.add_parser("mc", help="Monte Carlo check of the Gaussian limit")
    p.add_argument("--model", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--n", type=int, required=True, help="sample size per replication")
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--quad-points", type=int, default=200)
    p.add_argument("--estimates-csv", help="write per-replication estimates here")
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("robust", help="worst-case values under uncertainty")
    robust_sub = p.add_subparsers(dest="setting", required=True)

    q = robust_sub.add_parser("moment", help="mean and central-moment uncertainty")
    q.add_argument("--g", required=True)
    q.add_argument("--h", required=True)
    q.add_argument("--m", type=float, required=True, help="mean")
    q.add_argument("--v", type=float, default=1.0, help="dispersion level")
    q.add_argument("--order", type=float, default=2.0, help="central-moment order")
    q.add_argument("--sweep", help="start:stop:count over v; emits CSV")
    q.set_defaults(func=_cmd_robust_moment)

    q = robust_sub.add_parser("wasserstein", help="type-2 Wasserstein ball")
    q.add_argument("--g", required=True)
    q.add_argument("--h", required=True)
    q.add_argument("--eps", type=float, default=0.0, help="ball radius")
    q.add_argument("--data", required=True, help="baseline sample CSV")
    q.add_argument("--sweep", help="start:stop:count over eps; emits CSV")
    q.set_defaults(func=_cmd_robust_wasserstein)

    p = sub.add_parser("backtest", help="monthly-rebalanced backtest on a price CSV")
    p.add_argument("--prices", required=True)
    p.add_argument("--config", help="backtest config as JSON")
    p.add_argument("--wealth-csv", help="write the wealth series here")
    p.add_argument("--weights-csv", help="write per-period weights here")
    p.set_defaults(func=_cmd_backtest)

    p = sub.add_parser("ingest", help="convert a price CSV to a loss CSV")
    p.add_argument("--prices", required=True)
    p.set_defaults(func=_cmd_ingest)

    return parser


def dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, NumericsError) as exc:
        sys.stderr.write(f"meandev: error: {exc}\n")
        return 1
    except FileNotFoundError as exc:
        sys.stderr.write(f"meandev: error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
