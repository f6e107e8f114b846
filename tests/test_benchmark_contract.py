"""The names the benchmark harness (perfbench/) patches or imports must resolve.

``perfbench/spans.py`` wraps library functions by ``(module, name)`` and
patches methods on the classes that define them; ``perfbench/common.py``
imports ``meandev.estimation.worker_count`` on every run.  Renaming or
removing one of these breaks ``--trace 1`` or every benchmark run, and
nothing else in the suite would notice.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import meandev.estimation
from meandev.distortion import DistortionFunction
from meandev.distributions import ParametricModel
from meandev.riskweight import RiskWeightFunction

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()


@pytest.mark.parametrize("module, name", SPANS.SPAN_FUNCTIONS + SPANS.COUNTED_FUNCTIONS)
def test_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"meandev.{module}"), name))


def test_patched_methods_are_defined_on_their_classes():
    assert "centered_q_norm" in DistortionFunction.__dict__
    assert "left_derivative" in RiskWeightFunction.__dict__
    assert "sample" in ParametricModel.__dict__
    assert any("quantile_weight" in cls.__dict__ for cls in DistortionFunction.__subclasses__())


def test_worker_count_exists():
    assert callable(meandev.estimation.worker_count)


def test_tracer_installs_and_restores():
    import meandev.portfolio

    original = meandev.portfolio.optimize_md
    tracer = SPANS.Tracer()
    try:
        tracer.install()
        assert meandev.portfolio.optimize_md is not original
    finally:
        tracer.uninstall()
    assert meandev.portfolio.optimize_md is original
