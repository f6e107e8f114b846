"""scripts/bench_pairs.py: its pair count and the per-op medians it records."""
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH_PAIRS = load_script()
ARGS = ["--parent", "HEAD", "--seed", "7", "--out", "out.json"]


@pytest.mark.parametrize("count", ["3", "1", "0", "x"])
def test_odd_or_short_pair_count_is_a_usage_error(count, capsys):
    # with an odd count the parent would run first once more than the change
    with pytest.raises(SystemExit) as exc:
        BENCH_PAIRS.parse_args([*ARGS, "--pairs", "sampling=4", "--pairs", f"cli_cold={count}"])
    assert exc.value.code == 2
    assert f"--pairs 'cli_cold={count}': expected WORKLOAD=N with N even and >= 2" in capsys.readouterr().err


def test_even_pair_counts_parse():
    args = BENCH_PAIRS.parse_args([*ARGS, "--pairs", "sampling=10", "--pairs", "cli_cold=2"])
    assert args.pairs == [("sampling", 10), ("cli_cold", 2)]


def test_seed_defaults_to_seven():
    args = BENCH_PAIRS.parse_args(["--parent", "HEAD", "--out", "out.json", "--pairs", "sampling=2"])
    assert args.seed == 7


def test_op_medians_are_read_from_the_run_results_file(tmp_path):
    results = tmp_path / "perfbench" / "results"
    results.mkdir(parents=True)
    # [name, seconds, reference seconds] per op and batch; the reference machine's
    # loop takes REF_SECONDS = 0.005, so an op next to a 0.01 s loop counts half
    batches = [[["a", 1.0, 0.005], ["b", 2.0, 0.01]], [["a", 3.0, 0.005], ["b", 4.0, 0.01]]]
    (results / "sampling-seed7-trace0.json").write_text(json.dumps({"op_seconds_ref": batches}))
    medians = BENCH_PAIRS.op_medians(tmp_path, "sampling", 7)
    assert medians == {"normalized": {"a": 2.0, "b": 1.5}, "raw": {"a": 2.0, "b": 3.0}}


def test_per_op_summarizes_each_op_over_the_runs():
    runs = [{"normalized": {"a": v, "b": 2 * v}, "raw": {"a": v + 1, "b": v}} for v in (1.0, 2.0, 3.0)]
    summary = BENCH_PAIRS.per_op(runs)
    assert summary["normalized"]["b"]["runs"] == [2.0, 4.0, 6.0]
    assert summary["normalized"]["b"]["median"] == 4.0
    assert summary["raw"]["a"] == {"median": 3.0, "q1": 2.5, "q3": 3.5, "runs": [2.0, 3.0, 4.0]}
