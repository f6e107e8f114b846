"""Concave distortion functions and the signed Choquet deviation.

A distortion h is concave on [0, 1] with h(0) = h(1) = 0.  On a sample it
induces the deviation

    D_h(x) = sum_i h((n - i) / n) * (x_(i+1) - x_(i))
           = sum_i (h((n - i) / n) - h((n - i - 1) / n)) * x_(i),

the exact staircase integral of the empirical quantile weighted by h'.
The deviation is translation invariant, positively homogeneous, and (h
being concave) subadditive.  h'(1) = -1 is the range-normalization
criterion that makes D_h + mean a coherent functional with tight constant.

For a piecewise-linear h the order-statistic weights in the second form are
constant between the knots, so D_h needs only the order statistic at each
knot's rank and the sums of the blocks between them: one selection per knot,
not a sort (Rockafellar & Uryasev 2002 for ES).  Any other h takes the sort
and the staircase of the first form.
"""
from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from ._spec import build, number, numbers, spec_of
from .distributions import StateVector

__all__ = [
    "DistortionFunction",
    "ESDeviation",
    "Gini",
    "MeanAbsDevHalf",
    "RangeDistortion",
    "PiecewiseLinearDistortion",
    "choquet_deviation",
    "row_deviations",
    "staircase_weights",
    "staircase_sum",
    "is_range_normalized",
    "distortion_from_spec",
]

_RANGE_NORM_TOL = 1e-9
# longest dot product that OpenBLAS computes on one thread
_DOT_CHUNK = 10_000


class DistortionFunction:
    """Base class; subclasses are immutable value objects."""

    def __call__(self, t):
        raise NotImplementedError

    def left_derivative(self, s: float) -> float:
        """lim_{u -> s-} (h(s) - h(u)) / (s - u); decreasing in s by concavity."""
        raise NotImplementedError

    def quantile_weight(self, u):
        """h'(1 - u): the weight on the u-quantile in the deviation integral.

        Computed directly in u so the upper tail (u near 1) does not lose
        precision to the 1 - u rounding.
        """
        raise NotImplementedError

    def kink_points(self) -> tuple[float, ...]:
        """Interior points of (0, 1) where h' jumps."""
        return ()

    def spec(self) -> dict:
        return spec_of(self, _KINDS)

    # --- norms of h' ---------------------------------------------------

    def q_norm(self, q: float) -> float:
        """||h'||_q for q in [1, inf]; math.inf gives the sup norm."""
        if not q >= 1.0:
            raise ValueError(f"norm exponent must be >= 1, got {q}")
        return self.centered_norm_objective(0.0, q)

    def centered_norm_objective(self, x: float, q: float) -> float:
        """||h' - x||_q, the objective minimized by the centered norm."""
        raise NotImplementedError

    def derivative_range(self) -> tuple[float, float]:
        """(min h', max h') over (0, 1); brackets the optimal centering."""
        raise NotImplementedError

    def centering(self, q: float) -> float:
        """The constant x minimizing ||h' - x||_q, for 1 <= q < inf."""
        raise NotImplementedError

    def centered_q_norm(self, q: float) -> float:
        """[h]_q = min over constants x of ||h' - x||_q, for q in [1, inf]."""
        if not q >= 1.0:
            raise ValueError(f"norm exponent must be >= 1, got {q}")
        lo, hi = self.derivative_range()
        if q == math.inf:
            return (hi - lo) / 2.0
        if q == 2.0:
            # the minimizer is the mean of h', which is h(1) - h(0) = 0
            return self.q_norm(2.0)
        return self.centered_norm_objective(self.centering(q), q)


@dataclass(frozen=True)
class Gini(DistortionFunction):
    """h(t) = t - t^2; the induced deviation is half the mean absolute difference."""

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return t - t * t

    def left_derivative(self, s: float) -> float:
        if s <= 0.0:
            raise ValueError(f"left derivative needs s in (0, 1], got {s}")
        return 1.0 - 2.0 * s

    def quantile_weight(self, u):
        return 2.0 * np.asarray(u, dtype=float) - 1.0

    def centered_norm_objective(self, x: float, q: float) -> float:
        if q == math.inf:
            return max(abs(1.0 - x), abs(1.0 + x))
        # h'(t) - x = w runs over [-1 - x, 1 - x] at speed 2, and the
        # integral of |w|^q from 0 to b is sign(b) |b|^(q+1) / (q+1); the
        # ends are taken in units of the larger one, so no power overflows
        a, b = 1.0 + x, 1.0 - x
        top = max(abs(a), abs(b))
        total = (math.copysign((abs(a) / top) ** (q + 1.0), a)
                 + math.copysign((abs(b) / top) ** (q + 1.0), b))
        return top ** (1.0 + 1.0 / q) * (total / (2.0 * (q + 1.0))) ** (1.0 / q)

    def derivative_range(self) -> tuple[float, float]:
        return (-1.0, 1.0)

    def centering(self, q: float) -> float:
        # h'(t) = 1 - 2t takes values symmetric about 0
        return 0.0


@dataclass(frozen=True)
class RangeDistortion(DistortionFunction):
    """h = 1 on (0, 1), 0 at the endpoints; D_h is max - min (L^inf only)."""

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return np.where((t > 0.0) & (t < 1.0), 1.0, 0.0)

    def left_derivative(self, s: float) -> float:
        if s <= 0.0:
            raise ValueError(f"left derivative needs s in (0, 1], got {s}")
        return -math.inf if s >= 1.0 else 0.0

    def quantile_weight(self, u):
        raise ValueError("the range distortion has no integrable derivative")

    def centered_norm_objective(self, x: float, q: float) -> float:
        raise ValueError(
            "norm undefined: the range distortion is discontinuous, so ||h'||_q "
            "is infinite for every q"
        )

    def derivative_range(self) -> tuple[float, float]:
        raise ValueError("norm undefined for the range distortion")


@dataclass(frozen=True)
class PiecewiseLinearDistortion(DistortionFunction):
    """Concave piecewise-linear h given by knots t (including 0 and 1) and values.

    h' is piecewise constant, so every evaluation is a lookup of a segment
    slope.  ESDeviation and MeanAbsDevHalf are instances with one interior
    knot.
    """

    t: tuple
    h: tuple

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        h = np.asarray(self.h, dtype=float)
        if t.ndim != 1 or t.size < 2 or h.shape != t.shape:
            raise ValueError("need matching 1-D arrays of knots and values, length >= 2")
        for name, values in (("t", t), ("h", h)):
            if not np.isfinite(values).all():
                raise ValueError(f"{name} entries must all be finite")
        if t[0] != 0.0 or t[-1] != 1.0:
            raise ValueError("knots must start at 0 and end at 1")
        if np.any(np.diff(t) <= 0):
            raise ValueError("knots must be strictly increasing")
        if h[0] != 0.0 or h[-1] != 0.0:
            raise ValueError("h(0) and h(1) must both be 0")
        slopes = np.diff(h) / np.diff(t)
        if np.any(np.diff(slopes) > 1e-12):
            raise ValueError("h must be concave: segment slopes must be non-increasing")
        object.__setattr__(self, "t", tuple(float(v) for v in t))
        object.__setattr__(self, "h", tuple(float(v) for v in h))
        object.__setattr__(self, "_knots", t)
        object.__setattr__(self, "_values", h)
        object.__setattr__(self, "_slopes", slopes)
        object.__setattr__(self, "_lengths", np.diff(t))
        # the same segments seen from u = 1 - s, in increasing u; each u-side
        # knot is the smallest float u with u >= 1 - t[i] exactly, so the
        # lookup in u is exact for every float u
        u_knots = [1.0 - v for v in self.t[::-1]]
        u_knots = [math.nextafter(c, 2.0) if math.fsum((c, v, -1.0)) < 0.0 else c
                   for c, v in zip(u_knots, self.t[::-1])]
        object.__setattr__(self, "_u_knots", np.array(u_knots))
        object.__setattr__(self, "_u_slopes", slopes[::-1])

    def __call__(self, s):
        return np.interp(np.asarray(s, dtype=float), self._knots, self._values)

    def left_derivative(self, s: float) -> float:
        if s <= 0.0:
            raise ValueError(f"left derivative needs s in (0, 1], got {s}")
        # segment whose half-open interval (t[i], t[i+1]] contains s
        i = int(np.searchsorted(self._knots, s, side="left")) - 1
        return float(self._slopes[min(max(i, 0), self._slopes.size - 1)])

    def quantile_weight(self, u):
        # segment whose half-open interval [1 - t[i+1], 1 - t[i]) contains u
        i = np.searchsorted(self._u_knots, np.asarray(u, dtype=float), side="right") - 1
        weight = self._u_slopes[np.clip(i, 0, self._u_slopes.size - 1)]
        return float(weight) if np.ndim(weight) == 0 else weight

    def kink_points(self) -> tuple[float, ...]:
        return self.t[1:-1]

    def centered_norm_objective(self, x: float, q: float) -> float:
        deviations = np.abs(self._slopes - x)
        top = float(np.max(deviations))
        if q == math.inf or top == 0.0:
            return top
        # in units of the largest deviation, so no power under- or overflows
        return top * float(np.sum(self._lengths * (deviations / top) ** q) ** (1.0 / q))

    def derivative_range(self) -> tuple[float, float]:
        return (float(np.min(self._slopes)), float(np.max(self._slopes)))

    def centering(self, q: float) -> float:
        # ||h' - x||_q^q has the derivative -q F(x), where F(x), the sum over
        # segments of l_i sign(s_i - x) |s_i - x|^(q-1), decreases in x; its
        # sign change is bisected down to adjacent floats (at q = 1 it is the
        # weighted median of the slopes).  F is summed in units of the largest
        # |s_i - x|, so at large q no power overflows and not every one underflows.
        segments = list(zip(self._lengths.tolist(), self._slopes.tolist()))
        lo, hi = self.derivative_range()
        while lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            top = max(abs(s - mid) for _, s in segments)
            balance = math.fsum(
                math.copysign(length * (abs(s - mid) / top) ** (q - 1.0), s - mid)
                for length, s in segments if s != mid)
            if balance == 0.0:
                return mid
            lo, hi = (mid, hi) if balance > 0.0 else (lo, mid)
        return min((lo, hi), key=lambda x: self.centered_norm_objective(x, q))


class ESDeviation(PiecewiseLinearDistortion):
    """h(s) = min(s / (1 - alpha), 1) - s, the tail-average deviation at level alpha."""

    def __init__(self, alpha: float):
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        if 1.0 - alpha == 1.0:  # the knot 1 - alpha would meet the last knot
            raise ValueError(f"alpha must exceed 2**-54, where 1 - alpha rounds to 1; got {alpha}")
        object.__setattr__(self, "alpha", alpha)
        super().__init__(t=(0.0, 1.0 - alpha, 1.0), h=(0.0, alpha, 0.0))


class MeanAbsDevHalf(PiecewiseLinearDistortion):
    """h(t) = min(t, 1 - t); half the mean absolute deviation."""

    def __init__(self):
        super().__init__(t=(0.0, 0.5, 1.0), h=(0.0, 0.5, 0.0))


def staircase_weights(h: DistortionFunction, n: int, start: int = 0,
                      stop: int | None = None) -> np.ndarray:
    """h((n - 1 - j) / n) for j in [start, stop), by default every j < n - 1: gap j's weight.

    The levels are exact integers over n and h acts element by element, so
    any range is bit for bit that slice of the full weights.
    """
    stop = n - 1 if stop is None else stop
    return np.asarray(h(np.arange(n - 1 - start, n - 1 - stop, -1, dtype=float) / n), dtype=float)


def staircase_sum(weights_of, xs: np.ndarray) -> float:
    """Sum over j of w_j (xs[j+1] - xs[j]) for sorted xs, where weights_of(a, b) is w_a..w_(b-1).

    It adds the np.dot's of fixed chunks of _DOT_CHUNK gaps in order, each chunk
    forming its own gaps and weights, so only xs and one chunk are held; OpenBLAS
    splits no chunk across its threads, so the sum does not depend on their count.
    """
    def chunk(a: int) -> float:
        b = min(a + _DOT_CHUNK, xs.size - 1)
        return np.dot(weights_of(a, b), xs[a + 1:b + 1] - xs[a:b])

    total = chunk(0)
    for start in range(_DOT_CHUNK, xs.size - 1, _DOT_CHUNK):
        total += chunk(start)
    return float(total)


@functools.lru_cache(maxsize=64)
def _selection_plan(h: PiecewiseLinearDistortion, n: int):
    """The ranks to select at, the blocks between them and their weights, for h at size n.

    Knot t sits at q = n (1 - t) in the order-statistic index, where x_(i)
    covers [i, i + 1].  Each knot is selected at rank floor(q), from the top
    rank down; a q that is not whole makes that order statistic a block of
    its own, whose weight is h's exact difference across it.  Every other
    block lies on one segment of h and weighs its slope / n.  The arithmetic
    is on whole numbers over the knots' common power-of-two denominator, so
    each block's share of each segment is exact before it is rounded.
    Returns the ranks in descending order, the block starts, the block
    weights and the pivot: the rank nearest the median, None with no
    interior knot.  The arrays are read-only because all callers share them.
    """
    ratios = [t.as_integer_ratio() for t in h.t[1:-1]]
    den = max((d for _, d in ratios), default=1)
    # the segment edges in ascending q, in units of 1 / den; between edges m
    # and m + 1 the weight per unit of q is h._u_slopes[m] / n
    edges = [0, *(n * (d - a) * (den // d) for a, d in reversed(ratios)), n * den]
    ranks = sorted({q // den for q in edges[1:-1]}, reverse=True)
    starts = sorted({0, *ranks, *(q // den + 1 for q in edges[1:-1] if q % den)} - {n})
    weights = []
    for lo, hi in zip(starts, starts[1:] + [n]):
        lo, hi = lo * den, hi * den
        first, stop = bisect.bisect_right(edges, lo) - 1, bisect.bisect_left(edges, hi)
        weights.append(math.fsum(
            h._u_slopes[m] * ((min(edges[m + 1], hi) - max(edges[m], lo)) / (hi - lo))
            for m in range(first, stop)) / n)
    pivot = min(ranks, key=lambda r: abs(2 * r - n), default=None)
    starts, weights = np.array(starts), np.array(weights)
    for a in (starts, weights):
        a.setflags(write=False)
    return tuple(ranks), starts, weights, pivot


def row_deviations(h: DistortionFunction, rows: np.ndarray) -> np.ndarray:
    """D_h of each row of an (m, n) float array, whose values it overwrites.

    For a piecewise-linear h each row is partitioned in place at each knot's
    rank, from the top rank down, each partition on the part below the last;
    then shifted by its pivot order statistic, so a constant row gives exactly
    0.0 and a large location does not swamp the sums; then its blocks are
    summed and weighed.  Every other h sorts the rows in place and takes
    `staircase_sum` of each, with weights that are bit for bit the same
    whether built for the block or one chunk at a time.  A row's arithmetic
    does not depend on the other rows, so it gives the same float in any block.
    """
    n = rows.shape[1]
    if not isinstance(h, PiecewiseLinearDistortion):
        rows.sort(axis=1)
        weights = staircase_weights(h, n) if rows.shape[0] > 1 else None

        def weights_of(a: int, b: int) -> np.ndarray:
            # a block shares one set of weights; a single row builds one chunk at a time
            return staircase_weights(h, n, a, b) if weights is None else weights[a:b]

        return np.array([staircase_sum(weights_of, row) for row in rows])
    ranks, starts, weights, pivot = _selection_plan(h, n)
    if not ranks:  # no interior knot: h = 0, and 0 * a negative sum would read -0.0
        return np.zeros(rows.shape[0])
    part = rows
    for r in ranks:
        # one kth per call: a multi-kth partition is several times slower
        part.partition(r, axis=1)
        part = rows[:, :r]
    rows -= rows[:, pivot:pivot + 1].copy()
    sums = np.add.reduceat(rows, starts, axis=1)
    sums *= weights
    dev = sums[:, 0]
    for j in range(1, weights.size):  # in block order, one column at a time
        dev += sums[:, j]
    return dev


def choquet_deviation(h: DistortionFunction, x: StateVector) -> float:
    """Signed Choquet deviation of a sample: `row_deviations` of one copy of it.

    Equals the integral of the empirical quantile against h'(1 - u);
    zero on constant vectors, translation invariant, positively homogeneous,
    and subadditive for concave h.  Holds the copy plus, for an h that is not
    piecewise linear, one chunk of gaps and weights.
    """
    return float(row_deviations(h, x.values[None].copy())[0])


def is_range_normalized(h: DistortionFunction) -> bool:
    """True iff the left derivative of h at 1 equals -1 (tight coherence constant)."""
    d = h.left_derivative(1.0)
    return math.isfinite(d) and abs(d + 1.0) <= _RANGE_NORM_TOL


_KINDS = {
    "es_dev": (ESDeviation, {"alpha": ("alpha", number)}),
    "gini": (Gini, {}),
    "mad_half": (MeanAbsDevHalf, {}),
    "range": (RangeDistortion, {}),
    "piecewise_linear": (PiecewiseLinearDistortion, {"t": ("t", numbers), "h": ("h", numbers)}),
}


def distortion_from_spec(spec: dict) -> DistortionFunction:
    """Build a distortion from a JSON-style dict, e.g. {"kind": "es_dev", "alpha": 0.9}."""
    return build(spec, "distortion", _KINDS)
