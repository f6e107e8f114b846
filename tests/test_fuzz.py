"""Generated specs and backtest configs through the CLI, in process.

Whatever the JSON, every run must end in exit 0, 1 or 2 with no exception
escaping ``dispatch``, and stdout must be empty or JSON whose numbers are
all finite.
"""
import contextlib
import datetime as dt
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given
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
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    assert code in (0, 1, 2), argv
    if code:
        assert out.getvalue() == "", argv
    else:
        json.loads(out.getvalue(), parse_constant=_not_finite, parse_float=_finite)
    if code == 1:
        assert err.getvalue().splitlines()[-1].startswith("meandev: error: "), argv


# numpy warns on stderr about overflow at extreme parameters; the exit code and
# stdout are what these tests check
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(command=st.sampled_from(["classify", "eval", "asymvar", "robust moment"]),
       g=specs(G_SPECS), h=specs(H_SPECS), model=specs(MODEL_SPECS),
       v=st.sampled_from(["1", "0.5", "1e-320", "1e300"]),
       order=st.sampled_from(["2", "1.5", "1.001", "40"]))
def test_generated_specs(command, g, h, model, v, order, files):
    g, h, model = (json.dumps(s) for s in (g, h, model))
    argv = {
        "classify": ["classify", "--g", g],
        "eval": ["eval", "--g", g, "--h", h, "--data", files["sample"]],
        "asymvar": ["asymvar", "--model", model, "--g", g, "--h", h],
        "robust moment": ["robust", "moment", "--g", g, "--h", h, "--m", "1", "--v", v,
                          "--order", order],
    }[command]
    check_run(argv)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(config=configs())
def test_generated_backtest_configs(config, files):
    check_run(["backtest", "--prices", files["prices"], "--config", json.dumps(config)])
