"""Command-line interface: classify, eval, asymvar, mc, robust, backtest, ingest.

All numeric output is JSON on stdout with keys sorted and floats quantized
to 12 significant digits, so a fixed seed yields byte-identical output
across runs.  Usage errors exit 2; domain and numeric errors exit 1.
``dispatch`` builds the spec flags ``--model``, ``--g`` and ``--h`` from JSON, in
that order, before the command runs.  Each command returns (stdout text, {path:
file text}) and writes nothing; ``dispatch`` writes them only once all are built
and opened: an error writes none.  Each command and spec flag imports only its
own layers, so ``--help`` and usage errors load no layer.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import datetime as dt
import importlib
import io
import json
import math
import os
import stat
import sys
from dataclasses import asdict

import numpy as np

from ._spec import NumericsError

__all__ = ["main", "dispatch"]

# a sweep evaluates one worst case per point
_SWEEP_MAX_POINTS = 100_000
# mc holds about 25 bytes per sample point on two threads (0.25 GB at the cap)
# and 375 bytes of spawned seed state per replication (0.4 GB at the cap)
_MC_MAX_N = 10 ** 7
_MC_MAX_REPS = 10 ** 6
_NOT_FINITE = "is not a finite number; nothing was written"
# spec flag -> (layer, builder, noun), built in this order: the first bad flag is reported
_SPEC_FLAGS = {
    "model": ("distributions", "model_from_spec", "model"),
    "g": ("riskweight", "g_from_spec", "risk-weight"),
    "h": ("distortion", "distortion_from_spec", "distortion"),
}


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


def _json(obj: dict) -> str:
    obj = _round_floats(obj)
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        bad = [k for k, v in sorted(obj.items()) if isinstance(v, float) and not math.isfinite(v)]
        raise NumericsError(f"{', '.join(bad) or 'a value'} {_NOT_FINITE}") from None
    return text + "\n"


def _csv(header, rows, end="\r\n") -> str:
    """CSV text: str cells verbatim, dates in ISO form, numbers as repr(float)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=end)
    writer.writerow(header)
    for row in rows:
        writer.writerow([c if isinstance(c, str) else c.isoformat() if isinstance(c, dt.date)
                         else repr(float(c)) for c in row])
    return out.getvalue()


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


def _whole(text: str) -> int:
    """argparse type for an integer; argparse names a type that fails by its function."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a whole number, got {text!r}") from None


def _sweep(text: str) -> list[float]:
    """argparse type for start:stop:count, with finite bounds and 2 <= count <= the cap."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("sweep must look like start:stop:count")
    count = _whole(parts[2])
    if not 2 <= count <= _SWEEP_MAX_POINTS:
        raise argparse.ArgumentTypeError(f"sweep count must be in [2, {_SWEEP_MAX_POINTS}]")
    # Python floats: an overflow in numpy scalars also prints a RuntimeWarning
    return np.linspace(_finite_float(parts[0]), _finite_float(parts[1]), count).tolist()


def _non_negative(text: str) -> int:
    """argparse type for an integer no smaller than 0."""
    value = _whole(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _at_most(cap: int):
    """argparse type for an integer no larger than cap."""
    def count(text: str) -> int:
        value = _whole(text)
        if value > cap:
            raise argparse.ArgumentTypeError(f"must be at most {cap}, got {value}")
        return value
    return count


def _sweep_csv(parameters, values) -> str:
    bad = [p for p, v in zip(parameters, values) if not math.isfinite(v)]
    if bad:
        raise NumericsError(f"worst_case at parameter {bad[0]:.12g} {_NOT_FINITE}")
    rows = ([f"{p:.12g}", f"{v:.12g}"] for p, v in zip(parameters, values))
    return _csv(["parameter", "worst_case"], rows, "\n")


def _cmd_classify(args) -> tuple[str, dict]:
    c = args.g.classify()
    return _json({"g": args.g.spec(), **asdict(c), "smallest_coherent_multiplier": c.sup_ratio}), {}


def _cmd_eval(args) -> tuple[str, dict]:
    from .distortion import choquet_deviation
    from .distributions import StateVector

    x = StateVector.from_csv(args.data)
    dev = choquet_deviation(args.h, x)
    return _json({
        "md": float(args.g(dev)) + x.mean(),  # md_eval's expression, without a second deviation
        "deviation": dev,
        "mean": x.mean(),
        "classification": asdict(args.g.classify()),
    }), {}


def _cmd_asymvar(args) -> tuple[str, dict]:
    from .estimation import gaussian_limit
    from .measures import MDMeasure

    limit = gaussian_limit(args.model, MDMeasure(args.g, args.h))
    return _json({"md_true": limit.center, "sigma2": limit.variance}), {}


def _cmd_mc(args) -> tuple[str, dict]:
    from .estimation import monte_carlo
    from .measures import MDMeasure

    report = monte_carlo(args.model, MDMeasure(args.g, args.h), n=args.n,
                         replications=args.reps, seed=args.seed)
    files = {}
    if args.estimates_csv:
        files[args.estimates_csv] = _csv(["estimate"], ([v] for v in report.estimates))
    return _json(report.as_dict()), files


def _cmd_robust_moment(args) -> tuple[str, dict]:
    from .robust import MomentUncertainty, worstcase_moment

    if args.sweep is not None:
        values = [worstcase_moment(args.g, args.h, MomentUncertainty(args.m, v, args.order))
                  for v in args.sweep]
        return _sweep_csv(args.sweep, values), {}
    u = MomentUncertainty(m=args.m, v=args.v, a_order=args.order)
    return _json({
        "worst_case": worstcase_moment(args.g, args.h, u),
        "nominal": args.m,
        "uncertainty": {"kind": "moment", "m": args.m, "v": args.v, "order": args.order},
    }), {}


def _cmd_robust_wasserstein(args) -> tuple[str, dict]:
    from .distributions import StateVector
    from .measures import MDMeasure, md_eval
    from .robust import WassersteinUncertainty, worstcase_wasserstein

    center = StateVector.from_csv(args.data)
    if args.sweep is not None:
        values = [worstcase_wasserstein(args.g, args.h, WassersteinUncertainty(center, eps))
                  for eps in args.sweep]
        return _sweep_csv(args.sweep, values), {}
    nominal = md_eval(MDMeasure(args.g, args.h), center)
    u = WassersteinUncertainty(center=center, epsilon=args.eps)
    return _json({
        "worst_case": worstcase_wasserstein(args.g, args.h, u),
        "nominal": nominal,
        "uncertainty": {"kind": "wasserstein", "eps": args.eps, "n": center.n},
    }), {}


def _cmd_backtest(args) -> tuple[str, dict]:
    from .portfolio import config_from_spec, ingest_prices, run_backtest

    panel = ingest_prices(args.prices)
    cfg = config_from_spec(_json_arg(args.config, "--config") if args.config else {})
    report = run_backtest(panel, cfg)
    files = {}
    if args.wealth_csv:
        files[args.wealth_csv] = _csv(["date", "wealth"], zip(report.dates, report.wealth))
    if args.weights_csv:
        files[args.weights_csv] = _csv(["date", *panel.tickers],
                                       ([date, *w] for date, _, _, w in report.periods))
    return _json(report.as_dict()), files


def _cmd_ingest(args) -> tuple[str, dict]:
    from .portfolio import ingest_prices

    panel = ingest_prices(args.prices)
    rows = ([date, *row] for date, row in zip(panel.dates, panel.losses))
    return _csv(["date", *panel.tickers], rows, "\n"), {}


def _write_all(files: dict) -> None:
    """Open every file, truncating none, before writing any of them in place."""
    created = [os.path.realpath(path) for path in files if not os.path.exists(path)]
    try:
        with contextlib.ExitStack() as stack:
            handles = [(stack.enter_context(open(path, "a", newline="")), content)
                       for path, content in files.items()]
            for fh, content in handles:
                if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):  # a pipe cannot be truncated
                    fh.truncate(0)
                fh.write(content)
                fh.flush()  # before a second handle on the same file truncates it
    except BaseException:  # remove only the files this run created
        for path in filter(os.path.exists, created):
            os.remove(path)
        raise


def _add_spec_flags(parser, *names) -> None:
    for name in names:
        parser.add_argument(f"--{name}", required=True, help=f"{_SPEC_FLAGS[name][2]} spec as JSON")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meandev",
        description="Monotonic mean-deviation risk measures: evaluation, "
                    "estimation, robust bounds, and backtesting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a risk-weighting function")
    _add_spec_flags(p, "g")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("eval", help="evaluate g(D_h) + mean on a sample CSV")
    _add_spec_flags(p, "g", "h")
    p.add_argument("--data", required=True, help="CSV with header 'value'")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("asymvar", help="population value and asymptotic variance")
    _add_spec_flags(p, "model", "g", "h")
    p.set_defaults(func=_cmd_asymvar)

    p = sub.add_parser("mc", help="Monte Carlo check of the Gaussian limit")
    _add_spec_flags(p, "model", "g", "h")
    p.add_argument("--n", type=_at_most(_MC_MAX_N), required=True,
                   help="sample size per replication")
    p.add_argument("--reps", type=_at_most(_MC_MAX_REPS), required=True)
    p.add_argument("--seed", type=_non_negative, required=True)
    p.add_argument("--estimates-csv", help="write per-replication estimates here")
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("robust", help="worst-case values under uncertainty")
    robust_sub = p.add_subparsers(dest="setting", required=True)

    q = robust_sub.add_parser("moment", help="mean and central-moment uncertainty")
    _add_spec_flags(q, "g", "h")
    q.add_argument("--m", type=_finite_float, required=True, help="mean")
    q.add_argument("--v", type=_finite_float, default=1.0, help="dispersion level")
    q.add_argument("--order", type=_finite_float, default=2.0, help="central-moment order")
    q.add_argument("--sweep", type=_sweep, help="start:stop:count over v; emits CSV")
    q.set_defaults(func=_cmd_robust_moment)

    q = robust_sub.add_parser("wasserstein", help="type-2 Wasserstein ball")
    _add_spec_flags(q, "g", "h")
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
        for name, (layer, builder, _) in _SPEC_FLAGS.items():
            if hasattr(args, name):
                build = getattr(importlib.import_module(f"{__package__}.{layer}"), builder)
                setattr(args, name, build(_json_arg(getattr(args, name), f"--{name}")))
        text, files = args.func(args)
        _write_all(files)
    except (ValueError, NumericsError, OSError, csv.Error) as exc:
        sys.stderr.write(f"meandev: error: {exc}\n")
        return 1
    except MemoryError as exc:  # numpy's names the allocation that failed
        sys.stderr.write(f"meandev: error: {str(exc) or 'out of memory'}\n")
        return 1
    sys.stdout.write(text)
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
