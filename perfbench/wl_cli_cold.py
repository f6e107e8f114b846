"""cli_cold: sequential fresh ``python -m meandev`` processes.

The mix is the eight invocations of acceptance criterion 8 on seeded inputs
(a 300-row sample CSV and a 120-business-day, 2-ticker price CSV) plus an
``asymvar`` on Lomax(2.5) that must exit 1 with a one-line error.  Start-up
(interpreter plus imports) dominates each process.  The traced variant runs
the same children under ``-X importtime``.
"""
from __future__ import annotations

import contextlib
import datetime as dt
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from common import (
    SRC, WORK_DIR, Gate, Op, close, es_h, median, op_times, reference_seconds,
    staircase_deviation,
)

IN_PROCESS = False
ES095 = 0.95
CHILD_TIMEOUT_S = 150.0
IMPORTTIME_PREFIX = b"import time:"


@dataclass
class Child:
    code: int
    stdout: bytes
    stderr: bytes
    rss_mb: float


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv, cwd, flags=()) -> tuple[float, Child]:
    """Run one interpreter to completion; returns (wall seconds, result)."""
    with tempfile.TemporaryFile(dir=cwd) as out, tempfile.TemporaryFile(dir=cwd) as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *flags, *argv], stdout=out, stderr=err,
                                env=child_env(), cwd=cwd)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return seconds, Child(proc.returncode, out.read(), err.read(), usage.ru_maxrss / 1024.0)


def _write_prices(path, rng, days: int) -> None:
    lines = ["date,AAA,BBB"]
    d = dt.date(2023, 1, 2)
    level = np.array([100.0, 80.0])
    count = 0
    while count < days:
        if d.weekday() < 5:
            level = level * np.exp(rng.normal(0.0002, 0.01, 2))
            lines.append(f"{d.isoformat()},{float(level[0])!r},{float(level[1])!r}")
            count += 1
        d += dt.timedelta(days=1)
    path.write_text("\n".join(lines) + "\n")


def make_inputs(seed: int, quick: bool) -> dict:
    from meandev.distributions import Normal

    WORK_DIR.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"cli-{seed}-", dir=WORK_DIR))
    rng = np.random.default_rng(seed)
    data = work / "sample.csv"
    Normal().sample(300, int(rng.integers(2 ** 31))).to_csv(str(data))
    prices = work / "prices.csv"
    _write_prices(prices, rng, 120)
    mc_seed = str(int(rng.integers(2 ** 31)))
    config = json.dumps({"window": 40, "alpha": 0.9, "g": {"kind": "gbeta", "beta": 3.0}})
    es09 = '{"kind":"es_dev","alpha":0.9}'
    invocations = [
        ("classify", ["classify", "--g", '{"kind":"pareto_cap","theta":4.0}'], 0),
        ("eval", ["eval", "--g", '{"kind":"gbeta","beta":3.0}', "--h", es09,
                  "--data", str(data)], 0),
        ("asymvar", ["asymvar", "--model", '{"kind":"exponential","beta":1.0}',
                     "--g", '{"kind":"linear","lambda":0.5}', "--h", '{"kind":"gini"}'], 0),
        ("mc", ["mc", "--model", '{"kind":"normal","mu":0,"sd":1}',
                "--g", '{"kind":"exp_shortfall","beta":1.0}', "--h", es09,
                "--n", "400", "--reps", "100", "--seed", mc_seed], 0),
        ("robust_moment", ["robust", "moment", "--g", '{"kind":"exp_cap","beta":1.0}',
                           "--h", '{"kind":"es_dev","alpha":0.95}', "--m", "1.0", "--v", "0.5"], 0),
        ("robust_wasserstein", ["robust", "wasserstein", "--g", '{"kind":"linear","lambda":1.0}',
                                "--h", '{"kind":"gini"}', "--eps", "0.3", "--data", str(data)], 0),
        ("backtest", ["backtest", "--prices", str(prices), "--config", config], 0),
        ("ingest", ["ingest", "--prices", str(prices)], 0),
        ("asymvar_divergent", ["asymvar", "--model", '{"kind":"lomax","theta":2.5}',
                               "--g", '{"kind":"linear","lambda":1.0}', "--h", es09], 1),
    ]
    if quick:
        invocations = [inv for inv in invocations
                       if inv[0] in ("classify", "eval", "asymvar_divergent")]
    return {"work": work, "data": data, "prices": prices, "invocations": invocations}


def cleanup(inputs) -> None:
    shutil.rmtree(inputs["work"], ignore_errors=True)


def run_batch(inputs, traced: bool = False) -> list:
    flags = ("-X", "importtime") if traced else ()
    ops = []
    for name, argv, _ in inputs["invocations"]:
        before = reference_seconds()
        seconds, child = run_child(["-m", "meandev", *argv], inputs["work"], flags)
        ops.append(Op(name, seconds, (before + reference_seconds()) / 2.0, value=child))
    return ops


def peak_rss_mb(batches) -> float:
    return max(op.value.rss_mb for _, ops in batches for op in ops)


# --- correctness ---------------------------------------------------------

def _reject_constant(text):
    raise ValueError(f"non-finite number {text} in JSON output")


def _finite_json(stdout: bytes):
    return json.loads(stdout.decode(), parse_constant=_reject_constant)


def _in_process(argv) -> tuple[int, str, str]:
    """Reference output: ``dispatch`` in this process, stdout captured."""
    import meandev.cli as cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.dispatch(argv)
    return code, out.getvalue(), err.getvalue()


def _gini_h(s):
    return s - s * s


def _month_start_rows(dates) -> list[int]:
    return [0] + [i for i in range(1, len(dates))
                  if (dates[i].year, dates[i].month) != (dates[i - 1].year, dates[i - 1].month)]


def _semantic(name, child: Child, inputs) -> list[str]:
    """Independent checks of one invocation's numbers."""
    problems = []

    def want(ok, text):
        if not ok:
            problems.append(text)

    if name == "asymvar_divergent":
        lines = [ln for ln in child.stderr.splitlines() if not ln.startswith(IMPORTTIME_PREFIX)]
        want(child.stdout == b"", "stdout must be empty on error")
        want(len(lines) == 1 and lines[0].startswith(b"meandev: error:"),
             f"stderr must be one 'meandev: error:' line, got {lines[:3]!r}")
        return problems
    if name == "ingest":
        rows = [ln.split(",") for ln in child.stdout.decode().splitlines()]
        table = np.loadtxt(inputs["prices"], delimiter=",", skiprows=1,
                           usecols=(1, 2), dtype=float)
        expected = -np.log(table[1:] / table[:-1])
        got = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
        want(rows[0] == ["date", "AAA", "BBB"], f"header {rows[0]!r}")
        want(got.shape == expected.shape and np.allclose(got, expected, rtol=1e-12, atol=1e-15),
             "losses differ from -log(p_t / p_t-1)")
        return problems

    out = _finite_json(child.stdout)
    x = np.loadtxt(inputs["data"], delimiter=",", skiprows=1, dtype=float)
    if name == "classify":
        want(out["g"] == {"kind": "pareto_cap", "theta": 4.0}, f"g spec {out['g']!r}")
        want(close(out["smallest_coherent_multiplier"], 1.0, abs_=1e-12),
             "smallest coherent multiplier of a cap weight must be 1")
    elif name == "eval":
        dev = staircase_deviation(es_h(0.9), x)
        md = dev + math.expm1(-3.0 * dev) / 3.0 + float(np.mean(x))
        want(close(out["deviation"], dev, rel=1e-9, abs_=1e-12), f"deviation {out['deviation']} vs {dev}")
        want(close(out["md"], md, rel=1e-9, abs_=1e-12), f"md {out['md']} vs {md}")
    elif name == "asymvar":
        want(close(out["md_true"], 1.25, rel=1e-6), f"md_true {out['md_true']} vs 5/4")
        want(close(out["sigma2"], 19.0 / 12.0, rel=1e-4), f"sigma2 {out['sigma2']} vs 19/12")
    elif name == "mc":
        from wl_sampling import mc_problems
        problems += mc_problems(out, n=400, reps=100, center=0.9279, variance=2.85)
    elif name == "robust_moment":
        a = ES095
        norm = a * (a ** 2 * (1 - a) + a * (1 - a) ** 2) ** -0.5
        worst = -math.expm1(-0.5 * norm) + 1.0
        want(close(out["worst_case"], worst, abs_=1e-8), f"worst_case {out['worst_case']} vs {worst}")
    elif name == "robust_wasserstein":
        nominal = staircase_deviation(_gini_h, x) + float(np.mean(x))
        worst = nominal + 0.3 * math.sqrt(4.0 / 3.0)
        want(close(out["nominal"], nominal, rel=1e-9, abs_=1e-12), f"nominal {out['nominal']} vs {nominal}")
        want(close(out["worst_case"], worst, abs_=1e-8), f"worst_case {out['worst_case']} vs {worst}")
    elif name == "backtest":
        dates = [dt.date.fromisoformat(ln.split(",")[0])
                 for ln in inputs["prices"].read_text().splitlines()[2:]]
        rebalances = [i for i in _month_start_rows(dates) if i >= 40]
        want(out["rebalances"] == len(rebalances), f"rebalances {out['rebalances']} vs {len(rebalances)}")
        want(out["days"] == len(dates) - rebalances[0], f"days {out['days']}")
        want(out["final_wealth"] > 0.0, "final wealth must be positive")
    return problems


def check(inputs, batches, gate: Gate) -> dict:
    reference = {name: _in_process(argv) for name, argv, _ in inputs["invocations"]}
    expected_code = {name: code for name, _, code in inputs["invocations"]}
    for _, ops in batches:
        for op in ops:
            def checks(op):
                child, (ref_code, ref_out, _) = op.value, reference[op.name]
                problems = []
                if child.code != expected_code[op.name]:
                    problems.append(f"exit {child.code}, expected {expected_code[op.name]}: "
                                    f"{child.stderr.decode()[-300:]!r}")
                    return problems
                if ref_code != child.code or ref_out.encode() != child.stdout:
                    problems.append("stdout differs from the in-process reference run")
                if b"Traceback" in child.stderr:
                    problems.append("traceback on stderr")
                return problems + _semantic(op.name, child, inputs)
            gate.op(op, checks)
    return {}


def end_to_end(batches) -> dict:
    return {"cli_p50_s": median(op.seconds for _, ops in batches for op in ops)}


# --- per-layer -------------------------------------------------------------

def _importtime_splits(stderr: bytes) -> dict:
    """Seconds spent importing scipy and numpy, and in meandev's own modules.

    scipy and numpy take the cumulative time of their imports that are not
    nested in another import of the same package; meandev takes the self
    time of its modules.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith(IMPORTTIME_PREFIX) or b"cumulative" in line:
            continue
        parts = line.decode()[len("import time:"):].split("|")
        self_us, cum_us, label = int(parts[0]), int(parts[1]), parts[2]
        depth = (len(label) - len(label.lstrip(" "))) // 2
        entries.append((depth, label.strip(), self_us, cum_us))
    totals = {"scipy": 0.0, "numpy": 0.0, "meandev": 0.0}
    # children are printed before their parent: walk backwards with a stack
    stack: list[tuple[int, str]] = []
    for depth, label, self_us, cum_us in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = label.split(".")[0]
        if top == "meandev":
            totals["meandev"] += self_us / 1e6
        elif top in ("scipy", "numpy") and not any(a.split(".")[0] == top for _, a in stack):
            totals[top] += cum_us / 1e6
        stack.append((depth, label))
    return totals


def traced_metrics(inputs, untraced, traced) -> dict:
    out = {}
    for name, _, _ in inputs["invocations"]:
        out[f"cli.{name}.p50_s"] = median(op_times(untraced, {name}))
    splits = [_importtime_splits(op.value.stderr) for _, ops in traced for op in ops]
    for key in ("scipy", "numpy", "meandev"):
        out[f"cli.import.{key}_s"] = median(s[key] for s in splits)
    out["cli.interpreter_s"] = median(run_child(["-c", "pass"], inputs["work"])[0]
                                      for _ in range(5))
    out["cli.import_s"] = median(run_child(["-c", "import meandev.cli"], inputs["work"])[0]
                                 for _ in range(3))
    return out
