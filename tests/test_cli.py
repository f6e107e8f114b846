import ast
import datetime as dt
import importlib
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import meandev
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
PIECEWISE_5_H = ('{"kind":"piecewise_linear","t":[0,0.25,0.5,0.75,1],'
                 '"h":[0,0.09375,0.125,0.09375,0]}')


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
        # each of these used to run, exit 0, with the value misread or the key ignored
        (["robust", "moment", "--g", '{"kind":"exp_shortfall","beta":"inf"}', "--h", GINI_H,
          "--m", "1"], "'beta'"),
        (["robust", "moment", "--g", LINEAR_G,
          "--h", '{"kind":"piecewise_linear","t":"01","h":[0,0]}', "--m", "1"], "'t'"),
        (["classify", "--g", '{"kind":"linear","lambda":true}'], "'lambda'"),
        (["classify", "--g", '{"kind":"piecewise_linear","knots":[true],"slopes":[0,1]}'],
         "'knots'"),
        (["backtest", "--prices", None, "--config", '{"window":40.7}'], "'window'"),
        (["classify", "--g", '{"kind":"linear","lambda":1,"lamda":0.5}'], "'lamda'"),
        (["asymvar", "--model", '{"kind":"lomax","theta":4,"sd":3}', "--g", LINEAR_G,
          "--h", GINI_H], "'sd'"),
        (["backtest", "--prices", None, "--config", '{"window":40,"windwo":60}'], "'windwo'"),
    ], ids=["distortion", "model", "overflowing-float", "overflowing-int", "backtest-config",
            "string-for-number", "string-for-list", "boolean", "boolean-in-list",
            "fractional-window", "misspelled-key", "key-of-another-kind", "unknown-config-key"])
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

    @pytest.mark.parametrize("setting, flags", [
        ("moment", ["--m", "0", "--v", "1e308"]), ("wasserstein", ["--eps", "1e308"])])
    def test_overflowing_nonlinear_worst_case_error_is_one_line(self, setting, flags, sample_csv):
        # g(inf) of x - log(1 + x) used to be inf - inf = NaN, and the Wasserstein
        # search overflowed in a numpy scalar add: each warned ahead of the error
        data = ["--data", sample_csv] if setting == "wasserstein" else []
        proc = run_cli("robust", setting, "--g", '{"kind":"pareto_shortfall","theta":1}',
                       "--h", '{"kind":"es_dev","alpha":0.9}', *flags, *data)
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert proc.stderr == b"meandev: error: worst_case is not a finite number; nothing was written\n"

    def test_extreme_model_error_is_one_line(self):
        # numpy's overflow warnings used to print four lines ahead of the error
        proc = run_cli("asymvar", "--model", '{"kind":"exponential","beta":1e-300}',
                       "--g", LINEAR_G, "--h", '{"kind":"es_dev","alpha":0.9}')
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert proc.stderr == (b"meandev: error: asymptotic-variance integral evaluated to a "
                               b"non-finite value\n")

    @pytest.mark.parametrize("model, variance", [
        ('{"kind":"normal","mu":0,"sd":1e-170}', "0"),
        ('{"kind":"exponential","beta":1e300}', "0"),
        ('{"kind":"normal","mu":0,"sd":1e-156}', "3.71e-312"),
    ], ids=["normal-underflow", "exponential-underflow", "normal-subnormal"])
    def test_mc_vanishing_variance_exits_one(self, model, variance, capsys):
        # the standardization sqrt(n / sigma^2) used to raise ZeroDivisionError,
        # or to overflow and report a normality statistic of 0.52
        argv = ["mc", "--model", model, "--g", LINEAR_G, "--h", '{"kind":"es_dev","alpha":0.9}',
                "--n", "400", "--reps", "100", "--seed", "1"]
        assert dispatch(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"meandev: error: the asymptotic variance {variance} is too small "
                                "to standardize the estimates at n = 400, so the normality "
                                "statistic is undefined\n")

    @staticmethod
    def mc_normal(mu):
        return ["mc", "--model", f'{{"kind":"normal","mu":{mu},"sd":1}}', "--g", LINEAR_G,
                "--h", '{"kind":"es_dev","alpha":0.9}', "--n", "400", "--reps", "100",
                "--seed", "1"]

    def test_mc_location_swamping_the_spread_exits_one(self, capsys):
        # every draw of Normal(1e300, 1) rounds to mu, which used to report a
        # scaled variance of 0 and a normality statistic of 1
        assert dispatch(self.mc_normal("1e300")) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("meandev: error: the float spacing 1.49e+284 at the center 1e+300 "
                                "is not small against the estimates' standard deviation 0.0963 "
                                "at n = 400, so the draws cannot resolve the estimator's spread\n")

    def test_mc_large_resolved_location_runs(self, capsys):
        # at mu = 1e12 the float spacing is 1.3e-3 of the estimates' standard deviation
        assert dispatch(self.mc_normal("1e12")) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and json.loads(captured.out)["center"] == 1e12

    def test_extreme_price_ratio_error_is_one_line(self, tmp_path):
        # the price ratio 1e300 / 1e-300 overflows; its warning used to precede the error
        prices = tmp_path / "extreme.csv"
        prices.write_text("date,AAA\n2023-01-02,1e-300\n2023-01-03,1e300\n")
        proc = run_cli("ingest", "--prices", str(prices))
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert proc.stderr == b"meandev: error: losses must all be finite\n"

    @pytest.mark.parametrize("command", ["eval", "ingest"])
    def test_oversized_csv_field_exits_one(self, command, tmp_path, capsys):
        # the csv module's field limit used to end in a _csv.Error traceback
        path = tmp_path / "oversized.csv"
        path.write_text(("value\n" if command == "eval" else "date,AAA\n2023-01-02,")
                        + "1" * 200_000 + "\n")
        argv = {"eval": ["eval", "--g", LINEAR_G, "--h", GINI_H, "--data", str(path)],
                "ingest": ["ingest", "--prices", str(path)]}[command]
        assert dispatch(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "meandev: error: field larger than field limit (131072)\n"

    @pytest.mark.parametrize("flag", ["--prices", "--wealth-csv"])
    def test_directory_for_a_file_exits_one(self, flag, prices_csv, tmp_path, capsys):
        # a directory in place of an input or output file ended in an IsADirectoryError traceback
        paths = {"--prices": prices_csv, "--wealth-csv": str(tmp_path / "wealth.csv"),
                 flag: str(tmp_path)}
        argv = ["backtest", "--config", '{"window":40}', *(x for kv in paths.items() for x in kv)]
        assert dispatch(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("meandev: error: ") and captured.err.count("\n") == 1

    def test_non_finite_sweep_point_writes_nothing(self, capsys):
        # the first point (v = 1) is finite; nothing may be written before the second fails
        argv = ["robust", "moment", "--g", LINEAR_G, "--h", '{"kind":"es_dev","alpha":0.9}',
                "--m", "1e308", "--sweep", "1:1e308:2"]
        assert dispatch(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("meandev: error: worst_case at parameter 1e+308 is not a "
                                "finite number; nothing was written\n")

    def test_zero_volatility_backtest_exits_one(self, tmp_path, capsys):
        # constant prices under the default positive risk-free rate: Sharpe is -inf
        prices = tmp_path / "flat.csv"
        rows = [f"{dt.date(2023, 1, 2) + dt.timedelta(days=i)},100.0,80.0" for i in range(80)]
        prices.write_text("date,AAA,BBB\n" + "\n".join(rows) + "\n")
        assert dispatch(["backtest", "--prices", str(prices), "--config", '{"window":40}']) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("meandev: error: sharpe_ratio is not a finite number; "
                                "nothing was written\n")

    def test_sweep_count_is_capped(self, capsys):
        # used to reach np.linspace and die allocating 74.5 GiB
        argv = ["robust", "moment", "--g", LINEAR_G, "--h", GINI_H, "--m", "0",
                "--sweep", "0:1:10000000000"]
        assert dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sweep count must be in [2, 100000]" in captured.err

    @pytest.mark.parametrize("flag, value, cap", [("--n", "100000000000", "10000000"),
                                                  ("--reps", "100000000", "1000000")])
    def test_mc_sizes_are_capped(self, flag, value, cap, capsys):
        # --n 1e11 used to die allocating 745 GiB of staircase weights, and
        # --reps 1e8 would hold about 16 GB
        sizes = {"--n": "400", "--reps": "100", flag: value}
        argv = ["mc", "--model", '{"kind":"normal"}', "--g", LINEAR_G, "--h", GINI_H,
                *(x for kv in sizes.items() for x in kv), "--seed", "1"]
        assert dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: must be at most {cap}, got {value}" in captured.err

    def test_negative_seed_is_usage_error(self, capsys):
        # used to pass argparse and exit 1 with numpy's bare "expected non-negative integer"
        argv = ["mc", "--model", '{"kind":"normal"}', "--g", LINEAR_G, "--h", GINI_H,
                "--n", "400", "--reps", "100", "--seed", "-1"]
        assert dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("error: argument --seed: must be non-negative, got -1\n")

    @pytest.mark.parametrize("argv, flag, value", [
        (["robust", "moment", "--g", LINEAR_G, "--h", GINI_H, "--m", "0", "--sweep", "0:1:1e3"],
         "--sweep", "1e3"),
        (["mc", "--model", '{"kind":"normal"}', "--g", LINEAR_G, "--h", GINI_H, "--n", "1e3",
          "--reps", "100", "--seed", "1"], "--n", "1e3"),
        (["mc", "--model", '{"kind":"normal"}', "--g", LINEAR_G, "--h", GINI_H, "--n", "400",
          "--reps", "x", "--seed", "1"], "--reps", "x"),
        (["mc", "--model", '{"kind":"normal"}', "--g", LINEAR_G, "--h", GINI_H, "--n", "400",
          "--reps", "100", "--seed", "1.5"], "--seed", "1.5"),
    ], ids=["sweep", "n", "reps", "seed"])
    def test_fractional_count_is_usage_error(self, argv, flag, value, capsys):
        # argparse used to name the private type function: "invalid _sweep value"
        assert dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"error: argument {flag}: expected a whole number, got {value!r}\n")

    @pytest.mark.parametrize("error, line", [
        (MemoryError("Unable to allocate 745. GiB for an array with shape (99999999999,) "
                     "and data type float64"),
         "Unable to allocate 745. GiB for an array with shape (99999999999,) "
         "and data type float64"),
        (MemoryError(), "out of memory"),
    ], ids=["numpy", "bare"])
    def test_memory_error_is_one_line(self, error, line, monkeypatch, capsys):
        # a failed allocation used to end in a traceback
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr("meandev.estimation.row_deviations", fail)
        argv = ["mc", "--model", '{"kind":"normal"}', "--g", LINEAR_G, "--h", GINI_H,
                "--n", "400", "--reps", "100", "--seed", "1"]
        assert dispatch(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"meandev: error: {line}\n"

    # "{file}" is a file written with the row's content, "{prices}" and "{sample}" the fixtures
    @pytest.mark.parametrize("argv, content, line", [
        (["ingest", "--prices", "{file}"], "", "{file}: empty price table"),
        (["ingest", "--prices", "{file}"], "date,A\n2023-01-02,1\n2023-13-01,2\n",
         "{file}: row 3: bad date '2023-13-01'"),
        (["ingest", "--prices", "{file}"], "date,A\n2023-01-02,1\n2023-01-03,x\n",
         "{file}: row 3: bad price 'x' for A"),
        (["eval", "--g", LINEAR_G, "--h", GINI_H, "--data", "{file}"], "value\n1\nabc\n",
         "{file}: line 3: 'abc' is not a number"),
        (["backtest", "--prices", "{prices}", "--config", '{"g":3}'], None,
         "--config has a bad value for the field 'g': "
         "risk-weight spec must be an object with a 'kind' field"),
        (["eval", "--g", LINEAR_G, "--h", '{"kind":"es_dev","alpha":1.5}', "--data", "{sample}"],
         None, "alpha must be in (0, 1), got 1.5"),
        (["eval", "--g", LINEAR_G, "--h", '{"kind":"piecewise_linear","t":[0,0.5,1],"h":[0,0]}',
          "--data", "{sample}"], None, "need matching 1-D arrays of knots and values, length >= 2"),
    ], ids=["empty-prices", "bad-date", "bad-price", "bad-sample-cell", "config-g-not-object",
            "es-alpha-above-one", "piecewise-h-lengths"])
    def test_bad_input_is_one_exact_line(self, argv, content, line, sample_csv, prices_csv,
                                         tmp_path, capsys):
        path = str(tmp_path / "input.csv")
        if content is not None:
            (tmp_path / "input.csv").write_text(content)
        paths = {"{file}": path, "{prices}": prices_csv, "{sample}": sample_csv}
        assert dispatch([paths.get(a, a) for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"meandev: error: {line.replace('{file}', path)}\n"

    # each spec flag that follows the command's first bad one is also bad
    @pytest.mark.parametrize("argv, first", [
        (["asymvar", "--model", "{}", "--g", "{}", "--h", "{}"], "model"),
        (["asymvar", "--h", "{}", "--g", "{}", "--model", "{}"], "model"),
        (["asymvar", "--model", '{"kind":"normal"}', "--h", "{}", "--g", "{}"], "risk-weight"),
        (["mc", "--h", "{}", "--model", "{}", "--g", LINEAR_G, "--n", "400", "--reps", "100",
          "--seed", "1"], "model"),
        (["mc", "--model", '{"kind":"normal"}', "--h", "{}", "--g", "{}", "--n", "400",
          "--reps", "100", "--seed", "1"], "risk-weight"),
        (["eval", "--h", "{}", "--g", "{}", "--data", "{sample}"], "risk-weight"),
        (["eval", "--g", LINEAR_G, "--h", "{}", "--data", "{sample}"], "distortion"),
        (["robust", "wasserstein", "--h", "{}", "--g", "{}", "--data", "{sample}"],
         "risk-weight"),
    ], ids=["asymvar", "asymvar-reversed", "asymvar-g-h", "mc-model-h", "mc-g-h", "eval",
            "eval-h", "robust-wasserstein"])
    def test_first_bad_spec_flag_is_reported(self, argv, first, sample_csv, capsys):
        # dispatch builds --model, then --g, then --h, whatever order they are given in
        assert dispatch([sample_csv if a == "{sample}" else a for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"meandev: error: {first} spec must be an object with a 'kind' field\n"

    def test_blank_price_row_is_skipped(self, tmp_path, capsys):
        blank, plain = tmp_path / "blank.csv", tmp_path / "plain.csv"
        blank.write_text("date,A\n2023-01-02,1\n\n2023-01-03,2\n")
        plain.write_text("date,A\n2023-01-02,1\n2023-01-03,2\n")
        assert dispatch(["ingest", "--prices", str(blank)]) == 0
        with_blank = capsys.readouterr()
        assert dispatch(["ingest", "--prices", str(plain)]) == 0
        assert with_blank.err == "" and with_blank.out == capsys.readouterr().out


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

    @pytest.mark.parametrize("h, order, expected", [
        # slopes +-0.375 and +-0.125 on equal lengths, antisymmetric, so centered
        # at 0: [h]_q = 0.375 ((1 + 3^-q) / 2)^(1/q) with q = p / (p - 1)
        (PIECEWISE_5_H, 1.001, lambda p: 0.375 * (0.5 + 0.5 * 3.0 ** (-p / (p - 1.0)))
         ** (1.0 - 1.0 / p)),
        (PIECEWISE_5_H, 1.01, lambda p: 0.375 * (0.5 + 0.5 * 3.0 ** (-p / (p - 1.0)))
         ** (1.0 - 1.0 / p)),
        ('{"kind":"es_dev","alpha":0.9}', 1.001,
         lambda p: 0.9 * (0.9 ** p * 0.1 + 0.9 * 0.1 ** p) ** (-1.0 / p)),
    ], ids=["piecewise-1.001", "piecewise-1.01", "es-1.001"])
    def test_robust_moment_near_order_one(self, h, order, expected, capsys):
        # q = 1001 once raised |h' - x| < 1 to 0 (printing 0.0) and 5 to inf (exit 1)
        assert dispatch(["robust", "moment", "--g", LINEAR_G, "--h", h, "--m", "0",
                         "--v", "1", "--order", str(order)]) == 0
        got = json.loads(capsys.readouterr().out)["worst_case"]
        assert got == pytest.approx(expected(order), rel=1e-11)

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

    @staticmethod
    def overflowing_backtest(tmp_path, wealth, weights):
        # one ticker climbing from 1e-300 to 1e300: the wealth path overflows to inf
        days = [d for d in (dt.date(2023, 1, 2) + dt.timedelta(k) for k in range(63))
                if d.weekday() < 5]
        rows = [f"{d.isoformat()},{10.0 ** (-300 + 600 * i / 44)!r}" for i, d in enumerate(days)]
        prices = tmp_path / "climb.csv"
        prices.write_text("\n".join(["date,AAA", *rows]) + "\n")
        proc = run_cli("backtest", "--prices", str(prices), "--config", '{"window":5}',
                       "--wealth-csv", str(wealth), "--weights-csv", str(weights))
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert proc.stderr == b"meandev: error: final_wealth is not a finite number; " \
                              b"nothing was written\n"

    def test_failed_backtest_writes_no_file(self, tmp_path):
        # the CSVs were once written before the report was checked, ending in inf rows
        wealth, weights = tmp_path / "wealth.csv", tmp_path / "weights.csv"
        self.overflowing_backtest(tmp_path, wealth, weights)
        assert not wealth.exists()
        assert not weights.exists()

    def test_failed_backtest_keeps_existing_files(self, tmp_path):
        wealth, weights = tmp_path / "wealth.csv", tmp_path / "weights.csv"
        wealth.write_bytes(b"old wealth\r\n")
        weights.write_bytes(b"old weights\r\n")
        self.overflowing_backtest(tmp_path, wealth, weights)
        assert wealth.read_bytes() == b"old wealth\r\n"
        assert weights.read_bytes() == b"old weights\r\n"

    @pytest.mark.parametrize("existing", [None, b"old wealth\r\n"], ids=["new", "existing"])
    @pytest.mark.parametrize("bad", ["missing-directory", "directory"])
    def test_unwritable_file_writes_no_other(self, bad, existing, prices_csv, tmp_path, capsys):
        # the files were once written one by one, so a second that could not be
        # written left the first complete
        wealth = tmp_path / "w.csv"
        if existing is not None:
            wealth.write_bytes(existing)
        target = tmp_path / "nonexistent" / "x.csv" if bad == "missing-directory" else tmp_path / "x"
        if bad == "directory":
            target.mkdir()
        argv = ["backtest", "--prices", prices_csv, "--config", '{"window":40}',
                "--wealth-csv", str(wealth), "--weights-csv", str(target)]
        assert dispatch(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        reason = "No such file or directory" if bad == "missing-directory" else "Is a directory"
        assert captured.err.startswith("meandev: error: [Errno ")
        assert captured.err.endswith(f"] {reason}: '{target}'\n")
        left = {"w.csv"} if existing is not None else set()
        assert {p.name for p in tmp_path.iterdir()} == left | ({"x"} if bad == "directory" else set())
        if existing is not None:
            assert wealth.read_bytes() == existing


    @staticmethod
    def write_wealth(prices_csv, *targets):
        argv = ["backtest", "--prices", prices_csv, "--config", '{"window":40}']
        for flag, target in zip(["--wealth-csv", "--weights-csv"], targets):
            argv += [flag, str(target)]
        assert dispatch(argv) == 0

    # the files were once written to temporary siblings and renamed over their
    # targets, which replaced symlinks and pipes and reset an existing file
    def test_symlink_target_is_written_through(self, prices_csv, tmp_path):
        real, link = tmp_path / "real.csv", tmp_path / "link.csv"
        link.symlink_to(real)
        self.write_wealth(prices_csv, link)
        assert link.is_symlink()
        assert real.read_text().splitlines()[0] == "date,wealth"

    def test_existing_file_keeps_mode_and_links(self, prices_csv, tmp_path):
        wealth, other = tmp_path / "w.csv", tmp_path / "other-name.csv"
        wealth.write_text("a much longer old content than the header of a wealth csv\n" * 99)
        wealth.chmod(0o604)
        other.hardlink_to(wealth)
        self.write_wealth(prices_csv, wealth)
        assert wealth.stat().st_mode & 0o777 == 0o604
        assert other.read_bytes() == wealth.read_bytes()
        assert wealth.read_text().splitlines()[0] == "date,wealth"

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_target_is_written_through(self, prices_csv, tmp_path):
        # a shell's process substitution, --wealth-csv >(gzip > w.gz), names /dev/fd/N
        read_end, write_end = os.pipe()
        try:
            self.write_wealth(prices_csv, f"/dev/fd/{write_end}")
        finally:
            os.close(write_end)
        with os.fdopen(read_end, "rb") as fh:
            assert fh.read().splitlines()[0] == b"date,wealth"

    def test_two_spellings_of_one_file(self, prices_csv, tmp_path):
        # the later option wins, as it did when the files were written one by one
        self.write_wealth(prices_csv, tmp_path / "w.csv", f"{tmp_path}/./w.csv")
        assert (tmp_path / "w.csv").read_text().splitlines()[0] == "date,AAA,BBB"
        assert [p.name for p in tmp_path.iterdir()] == ["w.csv"]


# runs `python -m meandev` and then reports every scipy module it loaded
SCIPY_PROBE = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),"
    " file=sys.stderr))\n"
    "sys.argv[0] = 'meandev'\n"
    "runpy.run_module('meandev', run_name='__main__', alter_sys=True)\n"
)


# runs `python -m meandev` and then reports, as a tuple, the meandev modules it
# loaded and whether numpy.random is loaded
LAYER_PROBE = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: print((sorted(m.split('.')[1] for m in sys.modules"
    " if m.startswith('meandev.')), 'numpy.random' in sys.modules), file=sys.stderr))\n"
    "sys.argv[0] = 'meandev'\n"
    "runpy.run_module('meandev', run_name='__main__', alter_sys=True)\n"
)
CLASSIFY_MODULES = ["_spec", "cli", "riskweight"]
EVAL_MODULES = sorted(CLASSIFY_MODULES + ["distortion", "distributions"])
# the names `from meandev import *` gave while the package imported every layer
# eagerly, and config_from_spec
STAR_NAMES = sorted("""
    distortion distributions estimation measures portfolio riskweight robust
    DistortionFunction ESDeviation Gini MeanAbsDevHalf PiecewiseLinearDistortion
    RangeDistortion choquet_deviation distortion_from_spec is_range_normalized
    Exponential Lomax Normal ParametricModel StateVector model_from_spec
    GaussianLimit MonteCarloReport NumericsError deviation_true gaussian_limit md_true
    monte_carlo sigma_g_squared
    MDMeasure adjusted_es_identity_gap es_alpha expectile md_eval var_alpha
    BacktestConfig BacktestReport LossPanel MarkowitzResult PortfolioWeights config_from_spec
    ingest_prices markowitz_baseline optimize_md portfolio_objective project_simplex run_backtest
    ExpCapWeight ExpShortfallWeight GClassification LinearWeight ParetoCapWeight
    ParetoShortfallWeight PiecewiseLinearWeight RiskWeightFunction conjugate g_from_spec
    MomentUncertainty WassersteinUncertainty worstcase_moment worstcase_wasserstein
""".split())


def probe_layers(argv) -> tuple[int, tuple]:
    proc = subprocess.run([sys.executable, "-c", LAYER_PROBE, *argv], capture_output=True)
    return proc.returncode, ast.literal_eval(proc.stderr.decode().splitlines()[-1])


class TestStartUp:
    def test_import_loads_no_scipy(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, meandev, meandev.portfolio;"
             " print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == b"[]\n"

    @pytest.mark.parametrize("argv", [
        ["classify", "--g", '{"kind":"pareto_cap","theta":4.0}'],
        ["eval", "--g", '{"kind":"gbeta","beta":3.0}', "--h", '{"kind":"es_dev","alpha":0.9}',
         "--data", None],
        ["asymvar", "--model", '{"kind":"exponential","beta":1.0}',
         "--g", '{"kind":"linear","lambda":0.5}', "--h", GINI_H],
        ["ingest", "--prices", None],
        ["robust", "moment", "--g", '{"kind":"exp_cap","beta":1.0}',
         "--h", '{"kind":"es_dev","alpha":0.95}', "--m", "1.0", "--v", "0.5"],
        ["robust", "moment", "--g", '{"kind":"exp_shortfall","beta":1.0}',
         "--h", '{"kind":"es_dev","alpha":0.9}', "--m", "1.0", "--v", "0.5", "--order", "1.5"],
        ["robust", "wasserstein", "--g", '{"kind":"linear","lambda":1}',
         "--h", '{"kind":"es_dev","alpha":0.9}', "--eps", "0.25", "--data", None],
        ["robust", "wasserstein", "--g", '{"kind":"pareto_shortfall","theta":4.0}',
         "--h", GINI_H, "--eps", "0.25", "--data", None],
        ["backtest", "--prices", None,
         "--config", '{"window":40,"g":{"kind":"gbeta","beta":3.0}}'],
    ], ids=["classify", "eval", "asymvar", "ingest", "robust-moment", "robust-moment-order-1.5",
            "robust-wasserstein-linear", "robust-wasserstein-pareto", "backtest"])
    def test_subcommand_loads_no_scipy(self, argv, sample_csv, prices_csv):
        argv = [(prices_csv if argv[0] in ("ingest", "backtest") else sample_csv)
                if a is None else a for a in argv]
        proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, *argv], capture_output=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout and proc.stderr == b"[]\n"

    def test_mc_on_a_non_normal_model_loads_no_scipy(self):
        # the KS statistic takes the normal CDF, whatever the model, from the in-house port
        proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, "mc",
                               "--model", '{"kind":"exponential","beta":1.0}', "--g", LINEAR_G,
                               "--h", GINI_H, "--n", "200", "--reps", "100", "--seed", "5"],
                              capture_output=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == b"[]\n"

    @pytest.mark.parametrize("argv, modules", [
        (["classify", "--g", LINEAR_G], CLASSIFY_MODULES),
        (["eval", "--g", LINEAR_G, "--h", GINI_H, "--data", None], EVAL_MODULES),
        (["asymvar", "--model", '{"kind":"exponential","beta":1.0}', "--g", LINEAR_G,
          "--h", GINI_H], EVAL_MODULES + ["measures", "estimation"]),
        (["mc", "--model", '{"kind":"exponential","beta":1.0}', "--g", LINEAR_G, "--h", GINI_H,
          "--n", "200", "--reps", "100", "--seed", "5"], EVAL_MODULES + ["measures", "estimation"]),
        (["robust", "moment", "--g", LINEAR_G, "--h", GINI_H, "--m", "1.0"],
         EVAL_MODULES + ["robust"]),
        (["robust", "wasserstein", "--g", LINEAR_G, "--h", GINI_H, "--data", None],
         EVAL_MODULES + ["measures", "robust"]),
        (["backtest", "--prices", None, "--config", '{"window":40}'],
         EVAL_MODULES + ["measures", "portfolio"]),
        (["ingest", "--prices", None], EVAL_MODULES + ["measures", "portfolio"]),
    ], ids=["classify", "eval", "asymvar", "mc", "robust-moment", "robust-wasserstein",
            "backtest", "ingest"])
    def test_subcommand_loads_only_its_layers(self, argv, modules, sample_csv, prices_csv):
        argv = [(prices_csv if argv[0] in ("ingest", "backtest") else sample_csv)
                if a is None else a for a in argv]
        code, (loaded, random) = probe_layers(argv)
        assert code == 0
        assert loaded == sorted(modules)
        assert random == (argv[0] == "mc")  # only Monte Carlo draws

    @pytest.mark.parametrize("argv, code", [
        (["--help"], 0), (["eval", "--g", LINEAR_G], 2), (["eval", "--help"], 0),
        (["asymvar", "--help"], 0), (["robust", "wasserstein", "--help"], 0),
    ], ids=["help", "usage-error", "eval-help", "asymvar-help", "robust-wasserstein-help"])
    def test_help_and_usage_error_load_no_layer(self, argv, code):
        assert probe_layers(argv) == (code, (["_spec", "cli"], False))

    @pytest.mark.parametrize("argv, flags", [
        (["classify"], ["--g"]), (["eval"], ["--g", "--h"]),
        (["asymvar"], ["--model", "--g", "--h"]), (["mc"], ["--model", "--g", "--h"]),
        (["robust", "moment"], ["--g", "--h"]), (["robust", "wasserstein"], ["--g", "--h"]),
    ], ids=["classify", "eval", "asymvar", "mc", "robust-moment", "robust-wasserstein"])
    def test_help_describes_each_spec_flag(self, argv, flags, capsys):
        assert dispatch([*argv, "--help"]) == 0
        nouns = {"--model": "model", "--g": "risk-weight", "--h": "distortion"}
        found = re.findall(r"^  (--model|--g|--h) \S+ *(.*)$", capsys.readouterr().out, re.M)
        assert found == [(flag, f"{nouns[flag]} spec as JSON") for flag in flags]

    def test_first_public_name_loads_every_layer(self):
        # perfbench's Tracer.install looks each traced layer up in sys.modules
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, meandev\n"
             "def loaded(): return sorted(m for m in sys.modules if m.startswith('meandev.'))\n"
             "print(loaded()); meandev.Normal; print(loaded())"],
            capture_output=True)
        assert proc.returncode == 0, proc.stderr
        before, after = map(ast.literal_eval, proc.stdout.decode().splitlines())
        assert before == []
        assert after == [f"meandev.{m}" for m in ["_spec", "distortion", "distributions",
                                                  "estimation", "measures", "portfolio",
                                                  "riskweight", "robust"]]

    def test_star_import_gives_every_export(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "ns = {}; exec('from meandev import *', ns); print(sorted(set(ns) - {'__builtins__'}))"],
            capture_output=True)
        assert proc.returncode == 0, proc.stderr
        assert ast.literal_eval(proc.stdout.decode()) == STAR_NAMES
        assert len(STAR_NAMES) == 62

    @pytest.mark.parametrize("layer", sorted(meandev._EXPORTS))
    def test_exports_are_in_the_layers_all(self, layer):
        # the package's export table and each layer's __all__ are kept separately
        module = importlib.import_module(f"meandev.{layer}")
        assert set(meandev._EXPORTS[layer]) <= set(module.__all__)


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
