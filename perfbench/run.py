"""Benchmark entry point for meandev: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {cli_cold,backtest,population,sampling}
                             --seed N --seconds S --trace {0,1} [--quick]

Run from the repository root.  The library is imported from ``src/`` (it
need not be installed).  Each workload is a closed loop with one client in
this process: a fixed batch of operations runs again and again while one
more batch fits in ``--seconds``, and each operation's time is its median
over the batches.  The gated times (``*_norm_s``) are normalized by a
reference loop run next to each operation (see ``common.op_medians``); the
raw ones are reported too.  A workload may also have operations too long
to repeat (``run_once``): they run once after the loop, are checked, and
are reported on the ``#`` lines but not in the batch figures.
Outputs are checked after the timed region.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs half the time untraced and half with spans installed,
and reports the per-layer metrics plus the tracing overhead.  Every metric
of the other mode, the machine record and the gate's messages go to the
lines before the last and to ``perfbench/results/``.  The last line of
stdout is the JSON result.  ``--quick`` runs one small input per workload
through the same code and checks (see ``selftest.py``).
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from common import (
    BENCH_DIR, REF_SECONDS, RESULTS_DIR, ROOT, SRC, Gate, batch_seconds, machine_record,
    median, nproc, op_gmean_seconds, peak_rss_mb_self, reference_seconds, run_for,
)

WORKLOADS = ("cli_cold", "backtest", "population", "sampling")
SETUP_PROBES = 2  # extra fresh-process set-ups; setup_s is the median of 1 + this


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="one small input, same checks")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def cap_threads() -> None:
    """At most nproc threads anywhere: BLAS pools and the Monte Carlo pool."""
    cores = str(nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var)
        if not current or not current.isdigit() or int(current) > int(cores):
            os.environ[var] = cores
    current = os.environ.get("MEANDEV_THREADS")
    if not current or not current.isdigit() or int(current) > int(cores):
        os.environ["MEANDEV_THREADS"] = cores


def setup(name: str, seed: int, quick: bool):
    """Import the workload, numpy and the library, and generate the inputs.

    Workload modules import scipy only inside their checks, so that set-up
    time is the library's own import cost.  Returns ((seconds, reference
    loop time right after), module, inputs).
    """
    start = time.perf_counter()
    wl = __import__(f"wl_{name}")
    import meandev  # noqa: F401

    inputs = wl.make_inputs(seed, quick)
    seconds = time.perf_counter() - start
    return (seconds, reference_seconds()), wl, inputs


def setup_probe_seconds(args) -> tuple[float, float]:
    """Set-up time measured in a fresh interpreter (import caches start cold),
    with the reference loop's time right after it."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    if args.quick:
        cmd.append("--quick")
    out = subprocess.run(cmd, capture_output=True, check=True, cwd=ROOT, timeout=120)
    probe = json.loads(out.stdout.decode().splitlines()[-1])
    return float(probe["setup_s"]), float(probe["ref_s"])


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def traced_batches(wl, inputs, seconds: float):
    """Run batches with spans installed.

    Returns (batches, per-batch layer figures, spans of the last batch,
    layer figures of the traced ``run_once`` operations).
    """
    from spans import Tracer

    per_batch = []
    if not getattr(wl, "IN_PROCESS", True):  # the children trace their own imports
        return run_for(lambda: wl.run_batch(inputs, traced=True), seconds), per_batch, [], {}
    tracer = Tracer()

    def one_batch():
        tracer.reset()
        ops = wl.run_batch(inputs)
        per_batch.append(layer_figures(tracer))
        return ops

    tracer.install()
    try:
        batches = run_for(one_batch, seconds)
        spans = tracer.export()
        once_figures = {}
        if hasattr(wl, "run_once"):
            tracer.reset()
            wl.run_once(inputs)
            once_figures = {key: value for key, value in tracer.layer_totals().items()
                            if not any(key in figures for figures in per_batch)}
    finally:
        tracer.uninstall()
    return batches, per_batch, spans, once_figures


def layer_figures(tracer) -> dict:
    figures = tracer.layer_totals()
    figures["portfolio.optimize_md.p50_s"] = median(tracer.durations("portfolio.optimize_md"))
    pools = tracer.pool_stats("estimation.monte_carlo",
                              ("measures.md_eval", "distributions.sample"))
    if pools:
        figures["estimation.monte_carlo.workers"] = median(w for w, _ in pools)
        figures["estimation.monte_carlo.busy_ratio"] = median(b for _, b in pools)
    return figures


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "meandev" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no meandev sources under {SRC}\n")
        return 2
    cap_threads()
    sys.path.insert(0, str(SRC))
    own_setup, wl, inputs = setup(args.workload, args.seed, args.quick)
    import meandev

    if os.path.dirname(os.path.abspath(meandev.__file__)) != str(SRC / "meandev"):
        sys.stderr.write(f"perfbench: meandev imported from {meandev.__file__}, not {SRC}\n")
        return 2
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": own_setup[0], "ref_s": own_setup[1]}))
            return 0
        return measure(args, wl, inputs, own_setup)
    finally:
        getattr(wl, "cleanup", lambda _inputs: None)(inputs)


def measure(args, wl, inputs, own_setup: tuple[float, float]) -> int:
    names = declared()
    probes = [setup_probe_seconds(args) for _ in range(1 if args.quick else SETUP_PROBES)]
    setups = [own_setup, *probes]

    if args.trace:
        untraced = run_for(lambda: wl.run_batch(inputs), args.seconds / 2)
        traced, per_batch, last_spans, once_figures = traced_batches(wl, inputs, args.seconds / 2)
    else:
        untraced = run_for(lambda: wl.run_batch(inputs), args.seconds)
        traced, per_batch, last_spans, once_figures = [], [], [], {}
    once = [(0.0, wl.run_once(inputs))] if hasattr(wl, "run_once") else []
    rss = wl.peak_rss_mb(untraced) if hasattr(wl, "peak_rss_mb") else peak_rss_mb_self()

    gate = Gate()
    gate_figures = wl.check(inputs, untraced + traced + once, gate)

    metrics = {}  # name -> {"value", "unit"}, in report order

    def add(name, value, unit):
        metrics[name] = {"value": float(value), "unit": unit}

    wall_norm_s = batch_seconds(untraced)
    add("setup_s", median(raw * REF_SECONDS / ref for raw, ref in setups), "s")
    add("wall_norm_s", wall_norm_s, "s")
    add("op_gmean_norm_s", op_gmean_seconds(untraced), "s")
    add("wall_s", batch_seconds(untraced, normalized=False), "s")
    add("op_gmean_s", op_gmean_seconds(untraced, normalized=False), "s")
    add("setup_raw_s", median(raw for raw, _ in setups), "s")
    add("peak_rss_mb", rss, "MB")
    add("error_rate", gate.failed / max(gate.attempted, 1), "ratio")
    for name, value in wl.end_to_end(untraced + once).items():
        add(name, value, "s")

    if args.trace:
        layer = dict.fromkeys(names["per_layer"], 0.0)
        for key in {k for figures in per_batch for k in figures}:
            layer[key] = median(figures.get(key, 0.0) for figures in per_batch)
        layer.update(once_figures)
        layer.update(gate_figures)
        layer.update(wl.traced_metrics(inputs, untraced, traced))
        layer["trace.overhead_frac"] = batch_seconds(traced) / wall_norm_s - 1.0
        for name, value in layer.items():
            unit = "count" if name.endswith((".calls", ".nodes")) else "s"
            add(name, value, names["per_layer"].get(name, unit))

    record = machine_record(args, repeats=len(untraced) + len(traced))
    report = {"machine": record, "metrics": metrics,
              "attempted": gate.attempted, "failed": gate.failed,
              "gate_messages": gate.messages[:50],
              "op_seconds_ref": [[[op.name, op.seconds, op.ref] for op in ops]
                                 for _, ops in untraced + traced + once]}
    if per_batch:
        report["layer_figures_per_batch"] = per_batch
        report["spans_last_batch"] = {"fields": ["name", "start", "end", "parent", "thread"],
                                      "spans": last_spans}
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out_path = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(report, indent=1, default=str) + "\n")

    print(f"# machine {json.dumps(record)}")
    for message in gate.messages[:20]:
        print(f"# FAIL {message}")
    for name, entry in metrics.items():
        print(f"# {name} {entry['value']:.6g} {entry['unit']}")
    wanted = names["per_layer"] if args.trace else names["end_to_end"]
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: metrics[name] for name in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
