"""Command-line interface: classify, eval, asymvar, mc, robust, backtest, ingest.

All numeric output is JSON on stdout with keys sorted and floats quantized
to 12 significant digits, so a fixed seed yields byte-identical output
across runs.  Usage errors exit 2; domain and numeric errors exit 1.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from functools import partial

import numpy as np

from ._spec import spec_field
from .distortion import choquet_deviation, distortion_from_spec
from .distributions import StateVector, model_from_spec
from .estimation import NumericsError, gaussian_limit, monte_carlo
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

# a sweep evaluates one worst case per point
_SWEEP_MAX_POINTS = 100_000
_NOT_FINITE = "is not a finite number; nothing was written"


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


def emit_json(obj: dict) -> None:
    obj = _round_floats(obj)
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        bad = [k for k, v in sorted(obj.items()) if isinstance(v, float) and not math.isfinite(v)]
        raise NumericsError(f"{', '.join(bad) or 'a value'} {_NOT_FINITE}") from None
    sys.stdout.write(text + "\n")


def _json_arg(text: str, what: str) -> dict:
    def finite(text: str) -> float:
        # json.loads accepts NaN and +-Infinity, which are not RFC 8259 JSON,
        # and turns literals like 1e400 into inf
        value = float(text)
        if not math.isfinite(value):
            raise ValueError(f"bad JSON for {what}: {text} is not a finite number")
        return value

    try:
        value = json.loads(text, parse_constant=finite, parse_float=finite)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad JSON for {what}: {exc}") from exc
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object")
    return value


def _finite_float(text: str) -> float:
    """argparse type for a finite float; float() alone accepts nan and inf."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _sweep(text: str) -> list[float]:
    """argparse type for start:stop:count, with finite bounds and 2 <= count <= the cap."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("sweep must look like start:stop:count")
    count = int(parts[2])
    if not 2 <= count <= _SWEEP_MAX_POINTS:
        raise argparse.ArgumentTypeError(f"sweep count must be in [2, {_SWEEP_MAX_POINTS}]")
    # Python floats: an overflow in numpy scalars also prints a RuntimeWarning
    return np.linspace(_finite_float(parts[0]), _finite_float(parts[1]), count).tolist()


def _write_sweep(parameters, values) -> None:
    bad = [p for p, v in zip(parameters, values) if not math.isfinite(v)]
    if bad:
        raise NumericsError(f"worst_case at parameter {bad[0]:.12g} {_NOT_FINITE}")
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
    limit = gaussian_limit(model, m)
    emit_json({"md_true": limit.center, "sigma2": limit.variance})
    return 0


def _cmd_mc(args) -> int:
    model = model_from_spec(_json_arg(args.model, "--model"))
    m = MDMeasure(g_from_spec(_json_arg(args.g, "--g")),
                  distortion_from_spec(_json_arg(args.h, "--h")))
    report = monte_carlo(model, m, n=args.n, replications=args.reps, seed=args.seed)
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
    if args.sweep is not None:
        values = [worstcase_moment(g, h, MomentUncertainty(args.m, v, args.order))
                  for v in args.sweep]
        _write_sweep(args.sweep, values)
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
    if args.sweep is not None:
        values = [worstcase_wasserstein(g, h, WassersteinUncertainty(center, eps))
                  for eps in args.sweep]
        _write_sweep(args.sweep, values)
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
    field = partial(spec_field, spec, "--config")
    cfg = BacktestConfig(
        window=field("window", int, 500),
        rebalance=spec.get("rebalance", "monthly"),
        alpha=field("alpha", default=0.9),
        g_spec=g_from_spec(spec.get("g", {"kind": "gbeta", "beta": 10.0})),
        risk_free_rate=field("risk_free_rate", default=0.0213),
        initial_wealth=field("initial_wealth", default=1.0),
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
    p.set_defaults(func=_cmd_asymvar)

    p = sub.add_parser("mc", help="Monte Carlo check of the Gaussian limit")
    p.add_argument("--model", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--n", type=int, required=True, help="sample size per replication")
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--estimates-csv", help="write per-replication estimates here")
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("robust", help="worst-case values under uncertainty")
    robust_sub = p.add_subparsers(dest="setting", required=True)

    q = robust_sub.add_parser("moment", help="mean and central-moment uncertainty")
    q.add_argument("--g", required=True)
    q.add_argument("--h", required=True)
    q.add_argument("--m", type=_finite_float, required=True, help="mean")
    q.add_argument("--v", type=_finite_float, default=1.0, help="dispersion level")
    q.add_argument("--order", type=_finite_float, default=2.0, help="central-moment order")
    q.add_argument("--sweep", type=_sweep, help="start:stop:count over v; emits CSV")
    q.set_defaults(func=_cmd_robust_moment)

    q = robust_sub.add_parser("wasserstein", help="type-2 Wasserstein ball")
    q.add_argument("--g", required=True)
    q.add_argument("--h", required=True)
    q.add_argument("--eps", type=_finite_float, default=0.0, help="ball radius")
    q.add_argument("--data", required=True, help="baseline sample CSV")
    q.add_argument("--sweep", type=_sweep, help="start:stop:count over eps; emits CSV")
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
