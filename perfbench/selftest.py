"""Self-test of the benchmark harness (not part of the repository's test suite).

    python3 perfbench/selftest.py

Runs every workload in ``--quick`` mode (one small input, the same code path
and checks) with tracing off and on, on two seeds, and checks that the last
line of each run is a result with exactly the declared metrics, finite
values and a passing gate.  It also checks ``BENCHMARK.json`` against the
result contract and that the harness refuses to run, without printing a
result, in a directory that holds only ``BENCHMARK.json`` and ``perfbench``.
Exit code 0 means every check passed.
"""
from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec: dict) -> list[str]:
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"BENCHMARK.json keys {sorted(spec)}")
    if not 2 <= len(spec["workloads"]) <= 8:
        problems.append("2 to 8 workloads")
    if not isinstance(spec["run_seconds"], int) or not 1 <= spec["run_seconds"] <= 60:
        problems.append("run_seconds must be a whole number in 1..60")
    names = [w["name"] for w in spec["workloads"]]
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload {w.get('name')}")
    for group, fields in (("end_to_end", {"name", "unit", "better", "bound"}),
                          ("per_layer", {"name", "unit", "better"})):
        for m in spec[group]:
            names.append(m["name"])
            if set(m) != fields or not UNIT.match(m["unit"]) or m["better"] not in ("higher", "lower"):
                problems.append(f"{group} metric {m.get('name')}")
            if group == "end_to_end" and not 0 < m["bound"] <= 0.25:
                problems.append(f"bound of {m['name']}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s must be an end-to-end metric in s, lower is better")
    if len(set(names)) != len(names) or not all(NAME.match(n) for n in names):
        problems.append("names must be unique and well formed")
    return problems


def check_result(stdout: str, wanted: set) -> list[str]:
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        return [f"last line is not JSON: {exc}"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"gate failed: {result.get('failed')} of {result.get('attempted')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    metrics = result.get("metrics", {})
    if set(metrics) != wanted:
        problems.append(f"metric names differ: {sorted(set(metrics) ^ wanted)}")
    for name, entry in metrics.items():
        if not isinstance(entry.get("value"), (int, float)) or not math.isfinite(entry["value"]):
            problems.append(f"{name} is not a finite number")
    return problems


def run(cwd: Path, workload: str, seed: int, trace: int, quick: bool = True):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    if quick:
        cmd.append("--quick")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = [f"spec: {p}" for p in check_spec(spec)]
    e2e = {m["name"] for m in spec["end_to_end"]}
    layer = {m["name"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        for seed, trace in ((1, 0), (2, 1)):
            proc = run(ROOT, w["name"], seed, trace)
            label = f"{w['name']} seed {seed} trace {trace}"
            problems = [f"exit {proc.returncode}: {proc.stderr[-500:]}"] if proc.returncode else []
            problems += check_result(proc.stdout, layer if trace else e2e)
            failures += [f"{label}: {p}" for p in problems]
            print(f"{'ok  ' if not problems else 'FAIL'} {label}", flush=True)

    # without the library the harness must fail fast and print no result
    (BENCH_DIR / "_work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=BENCH_DIR / "_work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 1, 0, quick=False)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            failures.append("a directory without src/ must fail without a result")
        print(f"{'ok  ' if proc.returncode else 'FAIL'} bare directory exits {proc.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for failure in failures:
        print("FAIL", failure)
    print("selftest:", "passed" if not failures else f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
