"""Run the benchmark on a parent commit and on the working tree in alternating pairs.

    python3 scripts/bench_pairs.py --parent REV --seed N --out BENCH_<n>.json \\
                                   --pairs sampling=10 --pairs cli_cold=3 ...

Run from the repository root.  The parent commit is exported with
``git archive`` into a temporary directory, so the repository gains no
worktree entry.  Each pair runs ``perfbench/run.py --trace 0`` once on each
side with the same workload, seed and the ``run_seconds`` of
``BENCHMARK.json``; the side that runs first alternates from pair to pair.
The output file holds each side's machine record and, per workload and
end-to-end metric of ``BENCHMARK.json``, each side's runs, median and
quartiles, and how many pairs the change won (ties count for neither side).
"""
from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN_TIMEOUT_S = 900


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git revision to compare against")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=N",
                   help="pairs to run for one workload; repeat per workload")
    args = p.parse_args(argv)
    args.pairs = [parse_pairs(p, item) for item in args.pairs]
    return args


def parse_pairs(parser, item: str) -> tuple[str, int]:
    name, _, count = item.partition("=")
    if not count.isdigit() or int(count) < 2:
        parser.error(f"--pairs {item!r}: expected WORKLOAD=N with N >= 2")
    return name, int(count)


def export_revision(rev: str, dest: Path) -> str:
    """Write the files of ``rev`` under ``dest``; returns the full commit hash."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return sha


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One benchmark run in ``tree``: (result line, machine record)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.splitlines()
    machine = next(json.loads(line[len("# machine "):]) for line in lines
                   if line.startswith("# machine "))
    return json.loads(lines[-1]), machine


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "runs": values}


def compare(spec: dict, parent_runs: list[dict], change_runs: list[dict]) -> dict:
    """Per end-to-end metric: both sides' summaries and the change's wins."""
    out = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        parent = [run["metrics"][name]["value"] for run in parent_runs]
        change = [run["metrics"][name]["value"] for run in change_runs]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        out[name] = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "parent": summary(parent), "change": summary(change),
            "change_wins": sum(sign * (c - p) < 0.0 for p, c in zip(parent, change)),
            "ties": sum(c == p for p, c in zip(parent, change)),
        }
    return out


def error_rates(runs: list[dict]) -> list[float]:
    return [run["failed"] / max(run["attempted"], 1) for run in runs]


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = float(spec["run_seconds"])
    report = {"seed": args.seed, "seconds": seconds, "machine": {}, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_tree = Path(tmp)
        report["parent"] = export_revision(args.parent, parent_tree)
        report["change"] = {"head": git("rev-parse", "HEAD"),
                            "uncommitted": bool(git("status", "--porcelain"))}
        for workload, pairs in args.pairs:
            runs = {"parent": [], "change": []}
            order = []
            for i in range(pairs):
                sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                order.append(sides[0])
                for side in sides:
                    tree = parent_tree if side == "parent" else ROOT
                    result, machine = run_once(tree, workload, args.seed, seconds)
                    runs[side].append(result)
                    report["machine"].setdefault(side, machine)
                    print(f"{workload} pair {i + 1}/{pairs} {side}: "
                          f"wall_norm_s {result['metrics']['wall_norm_s']['value']:.4f}",
                          file=sys.stderr, flush=True)
            report["workloads"][workload] = {
                "pairs": pairs,
                "first_in_pair": order,
                "error_rate": {side: error_rates(r) for side, r in runs.items()},
                "metrics": compare(spec, runs["parent"], runs["change"]),
            }
    # a machine record also names the run's workload, seed and length
    for machine in report["machine"].values():
        for key in ("workload", "seed", "seconds", "trace", "quick", "repeats"):
            machine.pop(key, None)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
