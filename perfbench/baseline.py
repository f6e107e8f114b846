"""Reproduce the ROADMAP baseline table: single runs of each listed figure.

    python3 perfbench/baseline.py

Prints one line per figure and writes them, with the machine record, to
``perfbench/results/baseline.json``.  Single runs, as in the table: read
them as +-20%.  Takes about five minutes on a 2-core machine, most of it
in the two pytest runs and the Lomax(4) piecewise ES(0.9) variance.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time

from common import RESULTS_DIR, ROOT, SRC, blas_threads, nproc
from run import cap_threads


def process_seconds(cmd, repeats: int = 3) -> float:
    """Median wall time of a fresh interpreter running ``cmd``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, *cmd], env=env, cwd=ROOT, check=True,
                       capture_output=True)
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2]


def once(fn, *args, **kwargs) -> float:
    start = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - start


def main() -> int:
    cap_threads()
    sys.path.insert(0, str(SRC))

    rows = {}

    def row(name, seconds):
        rows[name] = seconds
        print(f"{name}: {seconds:.3f} s", flush=True)

    row("python -m meandev classify",
        process_seconds(["-m", "meandev", "classify", "--g", '{"kind":"linear","lambda":1.0}']))
    row("import meandev", process_seconds(["-c", "import meandev"]))
    row("import numpy", process_seconds(["-c", "import numpy"]))
    for label, test in (("acceptance criterion 7", ["tests/test_acceptance.py::test_criterion_7_portfolio"]),
                        ("acceptance criterion 8 + TestDeterminism",
                         ["tests/test_acceptance.py::test_criterion_8_cli_determinism",
                          "tests/test_cli.py::TestDeterminism"])):
        row(label, process_seconds(["-m", "pytest", "-q", "-p", "no:cacheprovider", *test], 1))

    from meandev import (
        BacktestConfig, ESDeviation, ExpShortfallWeight, LinearWeight, Lomax, MDMeasure,
        Normal, PiecewiseLinearDistortion, markowitz_baseline, monte_carlo, run_backtest,
        sigma_g_squared,
    )
    from wl_backtest import make_panel

    panel = make_panel(777, 1500, 10)  # the acceptance panel
    row("run_backtest, acceptance panel, exp_shortfall(3)",
        once(run_backtest, panel, BacktestConfig(window=500, alpha=0.9,
                                                 g_spec=ExpShortfallWeight(3.0))))
    row("markowitz_baseline, one 500-day window", once(markowitz_baseline, panel.losses[:500]))
    es, h09 = ExpShortfallWeight(1.0), ESDeviation(0.9)
    row("sigma_g_squared Normal / exp_shortfall", once(sigma_g_squared, Normal(), MDMeasure(es, h09)))
    row("sigma_g_squared Lomax(4) / linear",
        once(sigma_g_squared, Lomax(4.0), MDMeasure(LinearWeight(1.0), h09)))
    pw05 = PiecewiseLinearDistortion(t=(0.0, 0.5, 1.0), h=(0.0, 0.5, 0.0))
    row("sigma_g_squared Lomax(4) / exp_shortfall / piecewise = ES(0.5)",
        once(sigma_g_squared, Lomax(4.0), MDMeasure(es, pw05)))
    row("sigma_g_squared Lomax(4) / exp_shortfall / ESDeviation(0.5)",
        once(sigma_g_squared, Lomax(4.0), MDMeasure(es, ESDeviation(0.5))))
    pw09 = PiecewiseLinearDistortion(t=(0.0, 0.1, 1.0), h=(0.0, 0.9, 0.0))
    row("sigma_g_squared Lomax(4) / exp_shortfall / piecewise = ES(0.9)",
        once(sigma_g_squared, Lomax(4.0), MDMeasure(es, pw09)))
    for threads in ("1", "2"):
        os.environ["MEANDEV_THREADS"] = threads
        row(f"monte_carlo n=1e4 x 1000, {threads} thread(s)",
            once(monte_carlo, Normal(), MDMeasure(es, h09), n=10 ** 4, replications=1000, seed=2024))

    import numpy as np
    import scipy

    record = {"nproc": nproc(), "os_cpu_count": os.cpu_count(), "python": sys.version.split()[0],
              "numpy": np.__version__, "scipy": scipy.__version__,
              "openblas_threads": blas_threads(), "repeats": "median of 3 processes, else 1"}
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "baseline.json").write_text(
        json.dumps({"machine": record, "seconds": rows}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
