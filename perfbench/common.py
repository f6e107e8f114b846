"""Shared pieces of the benchmark: timing loop, checks, machine record, output.

Every workload module ``wl_<name>.py`` exposes the same functions, called
in this order by ``run.py``:

    make_inputs(seed, quick)   -> inputs      (part of set-up)
    run_batch(inputs)          -> [Op, ...]   (the timed, fixed batch)
    check(inputs, batches, gate) -> {metric: value}   (outside the timed region)
    end_to_end(batches)        -> {metric: seconds}   (workload-specific figures)
    traced_metrics(inputs, untraced, traced) -> {metric: value}   (trace runs)
    run_once(inputs)           -> [Op, ...]   (optional: ops too long to repeat)

An ``Op`` is one call into the library's public API (or one CLI process)
with its wall time and its result or exception.  A module that sets
``IN_PROCESS = False`` runs the library in child processes; its
``run_batch`` takes ``traced=True`` for the traced half of a trace run.
"""
from __future__ import annotations

import ctypes
import glob
import math
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

# numpy is imported inside functions: run.py imports this module before it
# starts timing the set-up, which includes numpy's import.

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = BENCH_DIR / "_work"
RESULTS_DIR = BENCH_DIR / "results"
MIN_BATCHES = 2


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# The reference loop: fixed interpreter and small-array numpy work of the
# benchmark's own, which no change to the library can move.  REF_SECONDS is
# its fastest time on the 2-vCPU Xeon (KVM guest) the benchmark was written
# on, so normalized figures read as seconds at that machine's unloaded speed.
REF_SECONDS = 0.005
_REF_ROUNDS = 750


def _reference_work() -> float:
    import numpy as np

    x = np.linspace(0.3, 0.7, 10)
    acc = 0.0
    for i in range(_REF_ROUNDS):
        v = np.sort(x + (i % 7) * 1e-3)[::-1]
        acc += float(np.cumsum(v)[-1])
        for j in range(40):
            acc = (acc * 1.000001 + j) % 1000.0
    return acc


def reference_seconds() -> float:
    """Fastest of three runs of the reference loop (about 5 ms each)."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        _reference_work()
        best = min(best, time.perf_counter() - start)
    return best


@dataclass
class Op:
    """One timed operation of a batch.

    ``ref`` is the reference loop's time next to the operation (the mean of
    one run before and one after), on the same core and under the same load.
    """

    name: str
    seconds: float
    ref: float
    value: object = None
    error: BaseException | None = None

    @property
    def normalized(self) -> float:
        """The operation's time at the reference machine's unloaded speed."""
        return self.seconds * REF_SECONDS / self.ref


def timed(name: str, fn, *args, **kwargs) -> Op:
    """Call fn and time it between two reference runs; an exception is kept
    as the op's outcome."""
    before = reference_seconds()
    start = time.perf_counter()
    try:
        value, error = fn(*args, **kwargs), None
    except Exception as exc:  # the check decides whether this was expected
        value, error = None, exc
    seconds = time.perf_counter() - start
    return Op(name, seconds, (before + reference_seconds()) / 2.0, value=value, error=error)


def run_for(batch_fn, seconds: float) -> list[tuple[float, list[Op]]]:
    """Closed loop: repeat the fixed batch while one more is expected to end in time.

    The expected length of a batch is the fastest batch so far, so a run
    ends within about ``seconds`` unless load slows the last batch.  At
    least ``MIN_BATCHES`` batches run.  Returns (batch wall time, ops) per
    batch.
    """
    batches = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        ops = batch_fn()
        batches.append((time.perf_counter() - t0, ops))
        fastest = min(wall for wall, _ in batches)
        if len(batches) >= MIN_BATCHES and time.perf_counter() - start + fastest > seconds:
            return batches


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def op_medians(batches, normalized: bool = True) -> dict[str, float]:
    """Each operation's median time over the batches, in batch order.

    The benchmark's machine shares its cores with other tenants, whose load
    slows every operation by up to about 1.7x, for stretches of a fraction
    of a second to minutes, so raw times of the same code spread by a
    quarter or more between runs.  The load slows the reference loop run
    next to an operation by about as much, so the normalized time
    (``Op.normalized``) cancels most of it: over 20-second windows of one
    population case its median spread 0.02-0.09 of its level (quartile
    distance over median), the raw median 0.2-0.27 and the raw minimum
    0.09-0.16.
    """
    names = [op.name for op in batches[0][1]]
    return {name: median(op.normalized if normalized else op.seconds
                         for _, ops in batches for op in ops if op.name == name)
            for name in names}


def batch_seconds(batches, normalized: bool = True) -> float:
    """Time of one batch, as the sum of its operations' median times."""
    return sum(op_medians(batches, normalized).values())


def op_gmean_seconds(batches, normalized: bool = True) -> float:
    """Geometric mean over the batch's operations of their median times."""
    medians = list(op_medians(batches, normalized).values())
    return math.exp(sum(math.log(t) for t in medians) / len(medians))


def op_times(batches, names) -> list[float]:
    """Wall times of every op whose name is in ``names``, pooled over batches."""
    return [op.seconds for _, ops in batches for op in ops if op.name in names]


class Gate:
    """Correctness gate: counts attempted and failed operations.

    An operation fails if any of its checks fails; failures are kept as
    one-line messages.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def op(self, op: Op, checks) -> None:
        """Run ``checks(op)`` (a callable returning a list of failure texts)."""
        self.attempted += 1
        try:
            problems = list(checks(op))
        except Exception as exc:  # a check that cannot run is a failure
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.messages.extend(f"{op.name}: {p}" for p in problems)


def close(value, expected, rel=0.0, abs_=0.0) -> bool:
    return math.isfinite(value) and abs(value - expected) <= max(abs_, rel * abs(expected))


def no_error(op: Op) -> list[str]:
    if op.error is not None:
        return [f"raised {type(op.error).__name__}: {op.error}"]
    return []


def staircase_deviation(h, xs) -> float:
    """Choquet deviation of a sample, computed here as an independent reference:
    sum over i of h((n - i) / n) (x_(i+1) - x_(i))."""
    import numpy as np

    xs = np.sort(np.asarray(xs, dtype=float))
    levels = np.arange(xs.size - 1, 0, -1, dtype=float) / xs.size
    return float(np.dot(h(levels), np.diff(xs)))


def es_h(alpha: float):
    """h(s) = min(s / (1 - alpha), 1) - s: ES(alpha) minus the mean."""
    import numpy as np

    return lambda s: np.minimum(s / (1.0 - alpha), 1.0) - s


def peak_rss_mb_self() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "libscipy_openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record(args, repeats: int) -> dict:
    import numpy as np
    import scipy

    from meandev.estimation import worker_count

    return {
        "nproc": nproc(),
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": blas_threads(),
        "openblas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "worker_count": worker_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "repeats": repeats,
        "machine": platform.machine(),
    }
