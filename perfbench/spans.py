"""In-memory span tracer that instruments meandev from the outside.

Spans are recorded at the public functions of each layer by replacing the
function in every ``meandev.*`` module namespace that holds it.  Module
globals are looked up at call time, so wrapping ``meandev.portfolio.
optimize_md`` also catches the calls made by ``run_backtest``.  Hot methods
(called once per quadrature node or solver iteration) get counters only.
Nothing under ``src/`` changes; ``Tracer.uninstall`` restores every
original.
"""
from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

# (module, function) pairs that get a span: name, start, end, parent.
SPAN_FUNCTIONS = [
    ("estimation", "gaussian_limit"),
    ("estimation", "md_true"),
    ("estimation", "deviation_true"),
    ("estimation", "sigma_g_squared"),
    ("estimation", "monte_carlo"),
    ("measures", "md_eval"),
    ("measures", "adjusted_es_identity_gap"),
    ("distortion", "choquet_deviation"),
    ("riskweight", "conjugate"),
    ("robust", "worstcase_moment"),
    ("robust", "worstcase_wasserstein"),
    ("portfolio", "run_backtest"),
    ("portfolio", "optimize_md"),
    ("portfolio", "markowitz_baseline"),
]
# Hot functions: call counter only.
COUNTED_FUNCTIONS = [
    ("portfolio", "portfolio_objective"),
    ("portfolio", "project_simplex"),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    thread: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is threading.main_thread() else []
            self._local.stack = stack
        return stack

    def count(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0.0) + amount

    def span_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            # a worker thread's first span hangs under the span that the
            # main thread has open (the call that started the pool)
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else -1)
            with self._lock:
                index = len(self.spans)
                self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                                       threading.get_ident()))
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                self.spans[index].end = time.perf_counter()
        return wrapper

    def counter_wrapper(self, name: str, fn, nodes: bool = False, timed: bool = False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name + ".calls")
            if nodes:
                self.count(name + ".nodes", np.size(args[-1]))
            if not timed:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.count(name + ".self_s", time.perf_counter() - start)
        return wrapper

    # --- installing --------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap_everywhere(self, original, wrapper) -> None:
        """Replace ``original`` in every loaded meandev module namespace."""
        for modname, module in list(sys.modules.items()):
            if modname != "meandev" and not modname.startswith("meandev."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, attr, wrapper)

    def install(self) -> None:
        import meandev.distortion as distortion
        import meandev.distributions as distributions
        import meandev.riskweight as riskweight

        for modname, fname in SPAN_FUNCTIONS:
            original = getattr(sys.modules[f"meandev.{modname}"], fname)
            self._wrap_everywhere(original, self.span_wrapper(f"{modname}.{fname}", original))
        for modname, fname in COUNTED_FUNCTIONS:
            original = getattr(sys.modules[f"meandev.{modname}"], fname)
            self._wrap_everywhere(original, self.counter_wrapper(f"{modname}.{fname}", original))

        # methods: patched on the classes that define them
        base = distributions.ParametricModel
        self._replace(base, "sample", self.span_wrapper("distributions.sample", base.sample))
        for cls in base.__subclasses__():
            for meth, key in (("quantile", "distributions.quantile"),
                              ("quantile_upper", "distributions.quantile"),
                              ("density_quantile", "distributions.density_quantile"),
                              ("density_quantile_upper", "distributions.density_quantile")):
                if meth in cls.__dict__:
                    self._replace(cls, meth, self.counter_wrapper(key, cls.__dict__[meth], nodes=True))
        for cls in distortion.DistortionFunction.__subclasses__():
            if "quantile_weight" in cls.__dict__:
                self._replace(cls, "quantile_weight", self.counter_wrapper(
                    "distortion.quantile_weight", cls.__dict__["quantile_weight"],
                    nodes=True, timed=True))
        dbase = distortion.DistortionFunction
        self._replace(dbase, "centered_q_norm",
                      self.span_wrapper("distortion.centered_q_norm", dbase.centered_q_norm))
        rbase = riskweight.RiskWeightFunction
        self._replace(rbase, "left_derivative",
                      self.counter_wrapper("riskweight.left_derivative", rbase.left_derivative))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    # --- analysis ----------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the union of its children's intervals."""
        children: dict[int, list[int]] = {}
        for i, span in enumerate(self.spans):
            if span.parent >= 0:
                children.setdefault(span.parent, []).append(i)
        out = []
        for i, span in enumerate(self.spans):
            covered, reach = 0.0, span.start
            for j in sorted(children.get(i, ()), key=lambda k: self.spans[k].start):
                lo = max(self.spans[j].start, reach)
                hi = min(self.spans[j].end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(span.end - span.start - covered)
        return out

    def layer_totals(self) -> dict[str, float]:
        """``<name>.calls`` and ``<name>.self_s`` for every span name, plus counters."""
        totals = dict(self.counts)
        for span, own in zip(self.spans, self.self_times()):
            totals[span.name + ".calls"] = totals.get(span.name + ".calls", 0.0) + 1.0
            totals[span.name + ".self_s"] = totals.get(span.name + ".self_s", 0.0) + own
        return totals

    def pool_stats(self, name: str, work_names) -> list[tuple[int, float]]:
        """(workers, busy ratio) of each ``name`` span that fanned out work.

        Workers are the distinct threads that ran its ``work_names`` children;
        the busy ratio is their summed time over (span wall x workers).
        """
        out = []
        for i, span in enumerate(self.spans):
            if span.name != name:
                continue
            kids = [s for s in self.spans if s.parent == i and s.name in work_names]
            if kids:
                workers = len({s.thread for s in kids})
                busy = sum(s.end - s.start for s in kids)
                out.append((workers, busy / ((span.end - span.start) * workers)))
        return out

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def export(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent, s.thread] for s in self.spans]
