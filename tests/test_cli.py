import datetime as dt
import json
import subprocess
import sys

import numpy as np
import pytest

from meandev.cli import dispatch
from meandev.distributions import Normal


def run_cli(*args, **kwargs):
    return subprocess.run([sys.executable, "-m", "meandev", *args],
                          capture_output=True, **kwargs)


@pytest.fixture(scope="module")
def sample_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "sample.csv"
    Normal().sample(400, 12).to_csv(str(path))
    return str(path)


@pytest.fixture(scope="module")
def prices_csv(tmp_path_factory):
    rng = np.random.Generator(np.random.PCG64(99))
    path = tmp_path_factory.mktemp("data") / "prices.csv"
    d = dt.date(2022, 1, 3)
    dates = []
    while len(dates) < 150:
        if d.weekday() < 5:
            dates.append(d)
        d += dt.timedelta(days=1)
    prices = 100.0 * np.exp(np.cumsum(rng.normal(0.0003, 0.01, size=(150, 2)), axis=0))
    lines = ["date,AAA,BBB"]
    for date, row in zip(dates, prices):
        lines.append(f"{date.isoformat()},{float(row[0])!r},{float(row[1])!r}")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestExitCodes:
    def test_classify_ok(self):
        proc = run_cli("classify", "--g", '{"kind":"linear","lambda":0.7}')
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        assert out["is_linear"] is True
        assert out["sup_ratio"] == 0.7

    def test_missing_flag_is_usage_error(self):
        proc = run_cli("eval", "--g", '{"kind":"linear","lambda":0.7}')
        assert proc.returncode == 2

    def test_unknown_flag_is_usage_error(self):
        proc = run_cli("classify", "--g", '{"kind":"linear","lambda":0.7}', "--bogus", "1")
        assert proc.returncode == 2

    def test_unknown_subcommand_is_usage_error(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 2

    def test_domain_error_exits_one(self, sample_csv):
        proc = run_cli("eval", "--g", '{"kind":"linear","lambda":1.5}',
                       "--h", '{"kind":"es_dev","alpha":0.9}', "--data", sample_csv)
        assert proc.returncode == 1
        assert b"error" in proc.stderr

    def test_numeric_error_exits_one(self):
        proc = run_cli("asymvar", "--model", '{"kind":"lomax","theta":2.0}',
                       "--g", '{"kind":"linear","lambda":1.0}',
                       "--h", '{"kind":"es_dev","alpha":0.9}')
        assert proc.returncode == 1

    def test_missing_file_exits_one(self):
        proc = run_cli("eval", "--g", '{"kind":"linear","lambda":1.0}',
                       "--h", '{"kind":"gini"}', "--data", "/nonexistent.csv")
        assert proc.returncode == 1

    def test_non_finite_json_number_exits_one(self, sample_csv):
        # json.loads alone accepts NaN and used to print "md": NaN with exit 0
        proc = run_cli("eval", "--g", '{"kind":"exp_shortfall","beta":NaN}',
                       "--h", '{"kind":"gini"}', "--data", sample_csv)
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"meandev: error:") and proc.stderr.count(b"\n") == 1

    def test_missing_spec_field_exits_one(self):
        proc = run_cli("classify", "--g", '{"kind":"linear"}')
        assert proc.returncode == 1
        assert proc.stderr.startswith(b"meandev: error:") and proc.stderr.count(b"\n") == 1
        assert b"'lambda'" in proc.stderr


LINEAR_G = '{"kind":"linear","lambda":1.0}'
GINI_H = '{"kind":"gini"}'


class TestInputValidation:
    # float() accepts nan and inf; each used to reach a "NaN" or "Infinity" on stdout
    @pytest.mark.parametrize("flags", [
        ["robust", "moment", "--g", LINEAR_G, "--h", GINI_H, "--m", "nan"],
        ["robust", "moment", "--g", LINEAR_G, "--h", GINI_H, "--m", "0", "--v", "inf",
         "--order", "2"],
        ["robust", "wasserstein", "--g", LINEAR_G, "--h", GINI_H, "--eps=-inf",
         "--data", "unused.csv"],
        ["robust", "moment", "--g", LINEAR_G, "--h", GINI_H, "--m", "0", "--sweep", "0:inf:3"],
    ], ids=["mean", "moment-levels", "eps", "sweep-bounds"])
    def test_non_finite_flag_is_usage_error(self, flags, capsys):
        assert dispatch(flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "expected a finite number" in captured.err

    @pytest.mark.parametrize("spec", [
        '{"kind":"linear","lambda":null}',
        '{"kind":"piecewise_linear","knots":5,"slopes":[1]}',
    ])
    def test_wrong_typed_spec_field_exits_one(self, spec):
        # both used to end in a TypeError traceback
        proc = run_cli("classify", "--g", spec)
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"meandev: error:") and proc.stderr.count(b"\n") == 1

    @pytest.mark.parametrize("argv, field", [
        (["eval", "--g", LINEAR_G, "--h", '{"kind":"es_dev","alpha":[0.9]}',
          "--data", "unused.csv"], "'alpha'"),
        (["asymvar", "--model", '{"kind":"normal","sd":null}', "--g", LINEAR_G,
          "--h", GINI_H], "'sd'"),
        (["classify", "--g", '{"kind":"exp_shortfall","beta":1e400}'], "finite"),
        (["classify", "--g", '{"kind":"exp_shortfall","beta":1%s}' % ("0" * 400)], "'beta'"),
        (["backtest", "--prices", None, "--config", '{"window":null}'], "'window'"),
    ], ids=["distortion", "model", "overflowing-float", "overflowing-int", "backtest-config"])
    def test_bad_spec_value_names_it(self, argv, field, prices_csv, capsys):
        argv = [prices_csv if a is None else a for a in argv]
        assert dispatch(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("meandev: error:") and captured.err.count("\n") == 1
        assert field in captured.err

    def test_non_finite_result_exits_one(self):
        # finite inputs whose worst case overflows used to print "Infinity" with exit 0
        proc = run_cli("robust", "moment", "--g", '{"kind":"linear","lambda":1}',
                       "--h", '{"kind":"es_dev","alpha":0.9}', "--m", "1e308", "--v", "1e308")
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert proc.stderr == b"meandev: error: worst_case is not a finite number; nothing was written\n"

    def test_non_finite_sweep_point_writes_nothing(self, capsys):
        # the first point (v = 1) is finite; nothing may be written before the second fails
        argv = ["robust", "moment", "--g", LINEAR_G, "--h", '{"kind":"es_dev","alpha":0.9}',
                "--m", "1e308", "--sweep", "1:1e308:2"]
        assert dispatch(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("meandev: error: worst_case at parameter 1e+308 is not a "
                                "finite number; nothing was written\n")

    def test_sweep_count_is_capped(self, capsys):
        # used to reach np.linspace and die allocating 74.5 GiB
        argv = ["robust", "moment", "--g", LINEAR_G, "--h", GINI_H, "--m", "0",
                "--sweep", "0:1:10000000000"]
        assert dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sweep count must be in [2, 100000]" in captured.err


class TestOutputs:
    def test_eval_fields(self, sample_csv):
        proc = run_cli("eval", "--g", '{"kind":"exp_shortfall","beta":1.0}',
                       "--h", '{"kind":"es_dev","alpha":0.9}', "--data", sample_csv)
        out = json.loads(proc.stdout)
        assert set(out) == {"md", "deviation", "mean", "classification"}
        assert out["classification"]["is_convex"] is True

    def test_asymvar_reference_value(self):
        proc = run_cli("asymvar", "--model", '{"kind":"normal","mu":0,"sd":1}',
                       "--g", '{"kind":"exp_shortfall","beta":1}',
                       "--h", '{"kind":"es_dev","alpha":0.9}')
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        assert out["sigma2"] == pytest.approx(2.85, rel=0.02)
        assert out["md_true"] == pytest.approx(0.9279, abs=1e-3)

    def test_mc_report_and_csv(self, tmp_path):
        est = tmp_path / "estimates.csv"
        proc = run_cli("mc", "--model", '{"kind":"normal","mu":0,"sd":1}',
                       "--g", '{"kind":"linear","lambda":1.0}',
                       "--h", '{"kind":"es_dev","alpha":0.9}',
                       "--n", "500", "--reps", "100", "--seed", "4",
                       "--estimates-csv", str(est))
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        assert out["replications"] == 100
        lines = est.read_text().strip().splitlines()
        assert lines[0] == "estimate"
        assert len(lines) == 101

    def test_robust_moment_value(self):
        proc = run_cli("robust", "moment", "--g", '{"kind":"linear","lambda":1.0}',
                       "--h", '{"kind":"es_dev","alpha":0.9}', "--m", "1", "--v", "1")
        out = json.loads(proc.stdout)
        assert out["worst_case"] == pytest.approx(4.0, abs=1e-9)

    def test_robust_sweep_csv(self):
        proc = run_cli("robust", "moment", "--g", '{"kind":"linear","lambda":1.0}',
                       "--h", '{"kind":"gini"}', "--m", "0", "--sweep", "0.5:1.5:3")
        lines = proc.stdout.decode().strip().splitlines()
        assert lines[0] == "parameter,worst_case"
        assert len(lines) == 4

    def test_ingest_round_trip(self, prices_csv):
        proc = run_cli("ingest", "--prices", prices_csv)
        assert proc.returncode == 0
        lines = proc.stdout.decode().strip().splitlines()
        assert lines[0] == "date,AAA,BBB"
        assert len(lines) == 150  # header + 149 loss rows

    def test_backtest_outputs(self, prices_csv, tmp_path):
        wealth = tmp_path / "wealth.csv"
        weights = tmp_path / "weights.csv"
        config = json.dumps({"window": 40, "alpha": 0.9, "g": {"kind": "gbeta", "beta": 3.0}})
        proc = run_cli("backtest", "--prices", prices_csv, "--config", config,
                       "--wealth-csv", str(wealth), "--weights-csv", str(weights))
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        assert out["final_wealth"] > 0.0
        assert wealth.read_text().splitlines()[0] == "date,wealth"
        assert weights.read_text().splitlines()[0] == "date,AAA,BBB"


class TestDeterminism:
    def invocations(self, sample_csv, prices_csv):
        config = json.dumps({"window": 40, "alpha": 0.9, "g": {"kind": "gbeta", "beta": 3.0}})
        return [
            ("classify", "--g", '{"kind":"exp_cap","beta":1.0}'),
            ("eval", "--g", '{"kind":"exp_shortfall","beta":1.0}',
             "--h", '{"kind":"gini"}', "--data", sample_csv),
            ("mc", "--model", '{"kind":"exponential","beta":1.0}',
             "--g", '{"kind":"linear","lambda":1.0}', "--h", '{"kind":"gini"}',
             "--n", "300", "--reps", "100", "--seed", "11"),
            ("robust", "wasserstein", "--g", '{"kind":"pareto_shortfall","theta":4.0}',
             "--h", '{"kind":"es_dev","alpha":0.9}', "--eps", "0.25", "--data", sample_csv),
            ("backtest", "--prices", prices_csv, "--config", config),
            ("ingest", "--prices", prices_csv),
        ]

    def test_byte_identical_across_runs(self, sample_csv, prices_csv):
        for args in self.invocations(sample_csv, prices_csv):
            first = run_cli(*args)
            second = run_cli(*args)
            assert first.returncode == 0, args
            assert first.stdout == second.stdout, args

    def test_json_round_trip_stable(self, sample_csv):
        proc = run_cli("eval", "--g", '{"kind":"exp_shortfall","beta":1.0}',
                       "--h", '{"kind":"gini"}', "--data", sample_csv)
        text = proc.stdout.decode()
        reparsed = json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
        assert reparsed == text
