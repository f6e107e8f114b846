"""Generated specs, backtest configs and CSV files through the CLI, in process.

Whatever the JSON or the CSV, every run must end in exit 0, 1 or 2 with no
exception or warning escaping ``dispatch``; stdout must be empty or the
command's output with only finite numbers, and an exit 1 must leave exactly
one line, the error, on stderr.
"""
import contextlib
import datetime as dt
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from meandev.cli import dispatch
from meandev.distributions import Normal

# one well-formed spec of each kind, which the strategies below perturb
G_SPECS = {
    "linear": {"lambda": 0.5},
    "exp_shortfall": {"beta": 1.0},
    "gbeta": {"beta": 3.0},
    "pareto_shortfall": {"theta": 4.0},
    "exp_cap": {"beta": 1.0},
    "pareto_cap": {"theta": 1.0},
    "piecewise_linear": {"knots": [1.0, 2.0], "slopes": [0.0, 0.5, 1.0]},
}
H_SPECS = {
    "es_dev": {"alpha": 0.9},
    "gini": {},
    "mad_half": {},
    "range": {},
    "piecewise_linear": {"t": [0.0, 0.25, 0.5, 1.0], "h": [0.0, 0.2, 0.3, 0.0]},
}
MODEL_SPECS = {
    "normal": {"mu": 0.0, "sd": 1.0},
    "lomax": {"theta": 4.0},
    "exponential": {"beta": 1.0},
}

MAGNITUDE = st.sampled_from([0, 1, -1, 1e-320, 1e-300, 1e-12, 0.999999999999, 1e12, 1e300,
                             -1e300, 10 ** 400])
SCALAR = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False, allow_infinity=False),
                   st.integers(), st.text(max_size=4))
JSON = st.recursive(
    SCALAR,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=8,
)


def _rarely(draw) -> bool:
    return draw(st.integers(0, 9)) == 9


def perturbed(value):
    """value itself, an extreme magnitude in its place, or any JSON at all; the
    unchanged value is listed twice so that about half the draws keep it."""
    if isinstance(value, list):
        elements = st.tuples(*(perturbed(v) for v in value)).map(list)
        return st.one_of(elements, elements, st.lists(MAGNITUDE, max_size=4), JSON)
    return st.one_of(st.just(value), st.just(value), MAGNITUDE, JSON)


@st.composite
def specs(draw, examples):
    """A spec of a known kind with perturbed fields, sometimes with a missing,
    misspelled or foreign key or a bad kind, and sometimes any JSON at all."""
    if _rarely(draw):
        return draw(JSON)
    kind = draw(st.sampled_from(sorted(examples)))
    spec = {"kind": kind if not _rarely(draw) else draw(JSON)}
    for name, value in examples[kind].items():
        if not _rarely(draw):
            spec[name] = draw(perturbed(value))
    if _rarely(draw):
        names = sorted({name for ex in (G_SPECS, H_SPECS, MODEL_SPECS)
                        for fields in ex.values() for name in fields})
        spec.update(draw(st.dictionaries(st.sampled_from(names) | st.text(max_size=4), JSON,
                                         min_size=1, max_size=2)))
    return spec


@st.composite
def configs(draw):
    config = {}
    for name, value in [("window", st.integers(2, 69) | perturbed(40)),
                        ("alpha", perturbed(0.9)), ("g", specs(G_SPECS)),
                        ("rebalance", perturbed("monthly")),
                        ("risk_free_rate", perturbed(0.02)), ("initial_wealth", perturbed(1.0))]:
        if draw(st.booleans()):
            config[name] = draw(value)
    if _rarely(draw):
        config.update(draw(st.dictionaries(st.text(max_size=6), JSON, min_size=1, max_size=2)))
    return config


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz")
    sample = work / "sample.csv"
    Normal().sample(50, 3).to_csv(str(sample))
    rng = np.random.Generator(np.random.PCG64(5))
    rows, d = ["date,AAA,BBB"], dt.date(2023, 1, 2)
    prices = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, size=(70, 2)), axis=0))
    for row in prices:
        while d.weekday() >= 5:
            d += dt.timedelta(days=1)
        rows.append(f"{d.isoformat()},{float(row[0])!r},{float(row[1])!r}")
        d += dt.timedelta(days=1)
    (work / "prices.csv").write_text("\n".join(rows) + "\n")
    return {"sample": str(sample), "prices": str(work / "prices.csv")}


def _not_finite(text):
    raise AssertionError(f"{text} on stdout")


def _finite(text):
    value = float(text)
    assert math.isfinite(value), f"{text} on stdout"
    return value


def check_run(argv):
    """Run argv; returns stdout, which is JSON unless argv is an ingest."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    assert code in (0, 1, 2), argv
    if code:
        assert out.getvalue() == "", argv
    elif argv[0] != "ingest":
        json.loads(out.getvalue(), parse_constant=_not_finite, parse_float=_finite)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("meandev: error: "), (argv, lines)
    return out.getvalue()


# a numpy RuntimeWarning at extreme parameters would reach stderr ahead of the
# error line, so here it fails the test
@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(command=st.sampled_from(["classify", "eval", "asymvar", "robust moment",
                                "robust wasserstein"]),
       g=specs(G_SPECS), h=specs(H_SPECS), model=specs(MODEL_SPECS),
       v=st.sampled_from(["1", "0.5", "1e-320", "1e300"]),
       order=st.sampled_from(["2", "1.5", "1.001", "40"]))
# beta * x overflows to inf in the exponent of the exponential weights
@example(command="robust moment", g={"kind": "exp_shortfall", "beta": 1e300},
         h={"kind": "es_dev", "alpha": 0.9}, model={}, v="1e300", order="2")
@example(command="robust wasserstein", g={"kind": "exp_cap", "beta": 1e300},
         h={"kind": "es_dev", "alpha": 0.9}, model={}, v="1e300", order="2")
def test_generated_specs(command, g, h, model, v, order, files):
    g, h, model = (json.dumps(s) for s in (g, h, model))
    argv = {
        "classify": ["classify", "--g", g],
        "eval": ["eval", "--g", g, "--h", h, "--data", files["sample"]],
        "asymvar": ["asymvar", "--model", model, "--g", g, "--h", h],
        "robust moment": ["robust", "moment", "--g", g, "--h", h, "--m", "1", "--v", v,
                          "--order", order],
        "robust wasserstein": ["robust", "wasserstein", "--g", g, "--h", h, "--eps", v,
                               "--data", files["sample"]],
    }[command]
    check_run(argv)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(config=configs())
def test_generated_backtest_configs(config, files):
    check_run(["backtest", "--prices", files["prices"], "--config", json.dumps(config)])


# --- CSV files ---------------------------------------------------------------

BAD_CELL = st.sampled_from(["", " ", "abc", "nan", "NaN", "inf", "-inf", "Infinity", "1e400",
                            "-1e400", "0", "-0", "-1", "1e-300", "1e300", "5e-324", "0x10",
                            "1,5", '"', "\x00"])
NUMBER_CELL = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.sampled_from(
    ["1e308", "-1e308", "1e-320", "1e-12", "1_0", " 2.5 "])


@st.composite
def sample_csvs(draw):
    """Text of a sample CSV: a `value` column, sometimes with a bad header,
    ragged rows, blank lines, non-numbers, nan/inf or extreme magnitudes."""
    header = "value"
    if _rarely(draw):
        header = draw(st.sampled_from(["", " value ", "Value", "values", "value,value"])
                      | st.text(max_size=6))
    rows = [repr(v) for v in draw(st.lists(st.floats(-10.0, 10.0), max_size=25))]
    for _ in range(draw(st.integers(1, 3)) if rows and draw(st.booleans()) else 0):
        rows[draw(st.integers(0, len(rows) - 1))] = draw(BAD_CELL | NUMBER_CELL)
    if rows and _rarely(draw):
        rows[draw(st.integers(0, len(rows) - 1))] += "," + draw(NUMBER_CELL)
    return "\n".join([header, *rows]) + "\n"


def _business_days(start: dt.date, count: int) -> list[dt.date]:
    days, d = [], start
    while len(days) < count:
        if d.weekday() < 5:
            days.append(d)
        d += dt.timedelta(days=1)
    return days


@st.composite
def price_csvs(draw):
    """Text of a price CSV over one to three tickers across a month start,
    sometimes with a bad header, ragged rows, unsorted, repeated or malformed
    dates, non-numbers, nan/inf, non-positive or extreme prices."""
    n_assets, n_rows = draw(st.integers(1, 3)), draw(st.integers(0, 45))
    tickers = [f"T{j}" for j in range(n_assets)]
    header = ",".join(["date", *tickers])
    if _rarely(draw):
        header = draw(st.sampled_from(["", "date", "Date," + ",".join(tickers), "time,T0",
                                       ",".join(tickers), "date,T0,T1,T2,T3"]))
    dates = [d.isoformat() for d in _business_days(dt.date(2023, 1, 16), n_rows)]
    if n_rows > 1 and _rarely(draw):  # a date after the next one, or repeated
        i = draw(st.integers(0, n_rows - 2))
        dates[i], dates[i + 1] = dates[i + 1], dates[i if draw(st.booleans()) else i + 1]
    if dates and _rarely(draw):
        dates[draw(st.integers(0, n_rows - 1))] = draw(st.sampled_from(
            ["", "2023-02-30", "20230201", "02/01/2023", "2023-1-5", "later"]))
    # log-prices: a random walk, or a climb from near the bottom of the float
    # range to near its top, where compounded wealth overflows
    sd, drift = draw(st.sampled_from([(0.0, 0.0), (0.01, 0.0), (0.3, 0.0), (30.0, 0.0),
                                      (1.0, 50.0)]))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2 ** 32))))
    steps = rng.normal(drift, sd, (n_rows, n_assets))
    prices = np.exp(np.clip(np.cumsum(steps, axis=0) + (-690.0 if drift else 4.6), -700.0, 700.0))
    cells = [[repr(float(p)) for p in row] for row in prices]
    for _ in range(draw(st.integers(1, 3)) if cells and _rarely(draw) else 0):
        row = cells[draw(st.integers(0, n_rows - 1))]
        row[draw(st.integers(0, n_assets - 1))] = draw(BAD_CELL | NUMBER_CELL)
    rows = [",".join([d, *row]) for d, row in zip(dates, cells)]
    if rows and _rarely(draw):
        rows[draw(st.integers(0, n_rows - 1))] += draw(st.sampled_from([",", ",1.0", ""]))
    return "\n".join([header, *rows]) + "\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(command=st.sampled_from(["eval", "robust wasserstein"]), text=sample_csvs(),
       g=st.sampled_from(['{"kind":"linear","lambda":0.5}', '{"kind":"exp_shortfall","beta":1}']),
       h=st.sampled_from(['{"kind":"es_dev","alpha":0.9}', '{"kind":"gini"}']),
       eps=st.sampled_from(["0", "0.5", "1e300"]))
def test_generated_sample_csvs(command, text, g, h, eps, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "generated-sample.csv"
    path.write_text(text)
    argv = {
        "eval": ["eval", "--g", g, "--h", h, "--data", str(path)],
        "robust wasserstein": ["robust", "wasserstein", "--g", g, "--h", h, "--eps", eps,
                               "--data", str(path)],
    }[command]
    check_run(argv)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(command=st.sampled_from(["ingest", "backtest"]), text=price_csvs(),
       window=st.integers(2, 30), g=st.sampled_from(['{"kind":"linear","lambda":1}',
                                                     '{"kind":"exp_shortfall","beta":3}']))
def test_generated_price_csvs(command, text, window, g, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "generated-prices.csv"
    path.write_text(text)
    if command == "ingest":
        out = check_run(["ingest", "--prices", str(path)])
        for row in out.splitlines()[1:]:
            assert all(math.isfinite(float(cell)) for cell in row.split(",")[1:]), row
    else:
        check_run(["backtest", "--prices", str(path), "--config",
                   json.dumps({"window": window, "g": json.loads(g)})])
