"""Sample vectors, empirical distributions, and parametric loss models.

A loss random variable is represented either as a ``StateVector`` (values on
n equiprobable states) or as one of three parametric families (normal,
Lomax, exponential) with scipy-like quantile/density access.  Sampling is
inverse-transform on a seeded PCG64 generator, so results are reproducible
from the seed alone.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Union

import numpy as np
from scipy.special import ndtr, ndtri

from ._spec import spec_field

__all__ = [
    "StateVector",
    "EmpiricalDistribution",
    "ParametricModel",
    "Normal",
    "Lomax",
    "Exponential",
    "model_from_spec",
]

SeedLike = Union[int, np.random.SeedSequence]

# Uniform draws are clipped away from {0, 1} so that quantile() stays finite.
_UNIFORM_EPS = 2.0 ** -53


def _as_values(values: Iterable[float]) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError("state vector values must be one-dimensional")
    if arr.size < 1:
        raise ValueError("state vector needs at least one state")
    if not np.all(np.isfinite(arr)):
        raise ValueError("state vector values must all be finite")
    return arr


@dataclass(frozen=True)
class StateVector:
    """A random loss on n equiprobable states (each with probability 1/n)."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_values(self.values))
        self.values.setflags(write=False)

    @property
    def n(self) -> int:
        return self.values.size

    def mean(self) -> float:
        return float(np.mean(self.values))

    def min(self) -> float:
        return float(np.min(self.values))

    def max(self) -> float:
        return float(np.max(self.values))

    def sorted_values(self) -> np.ndarray:
        return np.sort(self.values)

    def __add__(self, other: "StateVector | float") -> "StateVector":
        if isinstance(other, StateVector):
            if other.n != self.n:
                raise ValueError(
                    f"cannot combine state vectors of lengths {self.n} and {other.n}"
                )
            return StateVector(self.values + other.values)
        return StateVector(self.values + float(other))

    __radd__ = __add__

    def __mul__(self, scalar: float) -> "StateVector":
        return StateVector(self.values * float(scalar))

    __rmul__ = __mul__

    @classmethod
    def from_csv(cls, path: str) -> "StateVector":
        """Read a single-column CSV with header ``value``."""
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [c.strip() for c in header] != ["value"]:
                raise ValueError(f"{path}: expected a single CSV column with header 'value'")
            out = []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 1:
                    raise ValueError(f"{path}: line {lineno}: expected one value per row")
                try:
                    out.append(float(row[0]))
                except ValueError as exc:
                    raise ValueError(f"{path}: line {lineno}: {row[0]!r} is not a number") from exc
        return cls(out)

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["value"])
            for v in self.values:
                writer.writerow([repr(float(v))])


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Order statistics of a sample; quantiles use the left-continuous inverse."""

    order_statistics: np.ndarray

    def __post_init__(self):
        arr = _as_values(self.order_statistics)
        if np.any(np.diff(arr) < 0):
            raise ValueError("order statistics must be sorted ascending")
        object.__setattr__(self, "order_statistics", arr)
        self.order_statistics.setflags(write=False)

    @classmethod
    def from_state_vector(cls, x: StateVector) -> "EmpiricalDistribution":
        return cls(x.sorted_values())

    @property
    def n(self) -> int:
        return self.order_statistics.size

    def quantile(self, u: float) -> float:
        """Left quantile: the order statistic at index ceil(n*u)."""
        if not 0.0 < u <= 1.0:
            raise ValueError(f"quantile level must be in (0, 1], got {u}")
        k = int(math.ceil(self.n * u))
        return float(self.order_statistics[max(k, 1) - 1])

    def cdf(self, x: float) -> float:
        return float(np.searchsorted(self.order_statistics, x, side="right")) / self.n


class ParametricModel:
    """Base for distributions with strictly increasing quantiles on (0, 1).

    Subclasses supply ``quantile``, ``cdf``, ``density``, the composite
    ``density_quantile`` (density evaluated at the quantile), and closed-form
    moments.  ``*_upper`` variants take the upper-tail probability eps and
    evaluate at level 1 - eps without cancellation, which matters when
    integrating into the far tail.
    """

    def quantile(self, u):
        raise NotImplementedError

    def quantile_upper(self, eps):
        """F^{-1}(1 - eps), computed stably from the tail probability eps."""
        raise NotImplementedError

    def cdf(self, x):
        raise NotImplementedError

    def density(self, x):
        raise NotImplementedError

    def density_quantile(self, u):
        raise NotImplementedError

    def density_quantile_upper(self, eps):
        """density_quantile(1 - eps) from the tail probability eps."""
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def variance(self) -> float:
        raise NotImplementedError

    def sample(self, n: int, seed: SeedLike) -> StateVector:
        """Inverse-transform sample of size n from a seeded PCG64 stream."""
        if n < 1:
            raise ValueError(f"sample size must be >= 1, got {n}")
        rng = np.random.Generator(np.random.PCG64(seed))
        u = rng.random(n)
        u = np.clip(u, _UNIFORM_EPS, 1.0 - _UNIFORM_EPS)
        return StateVector(self.quantile(u))

    def spec(self) -> dict:
        raise NotImplementedError


def _check_prob(u) -> np.ndarray:
    arr = np.asarray(u, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError("probability level must lie strictly inside (0, 1)")
    return arr


@dataclass(frozen=True)
class Normal(ParametricModel):
    mu: float = 0.0
    sd: float = 1.0

    def __post_init__(self):
        if self.sd <= 0:
            raise ValueError(f"sd must be > 0, got {self.sd}")

    def quantile(self, u):
        return self.mu + self.sd * ndtri(_check_prob(u))

    def quantile_upper(self, eps):
        return self.mu - self.sd * ndtri(_check_prob(eps))

    def cdf(self, x):
        return ndtr((np.asarray(x, dtype=float) - self.mu) / self.sd)

    def density(self, x):
        z = (np.asarray(x, dtype=float) - self.mu) / self.sd
        return np.exp(-0.5 * z * z) / (self.sd * math.sqrt(2.0 * math.pi))

    def density_quantile(self, u):
        z = ndtri(_check_prob(u))
        return np.exp(-0.5 * z * z) / (self.sd * math.sqrt(2.0 * math.pi))

    def density_quantile_upper(self, eps):
        z = ndtri(_check_prob(eps))
        return np.exp(-0.5 * z * z) / (self.sd * math.sqrt(2.0 * math.pi))

    def mean(self) -> float:
        return self.mu

    def variance(self) -> float:
        return self.sd ** 2

    def spec(self) -> dict:
        return {"kind": "normal", "mu": self.mu, "sd": self.sd}


@dataclass(frozen=True)
class Lomax(ParametricModel):
    """Pareto of the second kind: P(X > x) = (1 + x)^(-theta) on x >= 0."""

    theta: float

    def __post_init__(self):
        if self.theta <= 0:
            raise ValueError(f"theta must be > 0, got {self.theta}")

    def quantile(self, u):
        return (1.0 - _check_prob(u)) ** (-1.0 / self.theta) - 1.0

    def quantile_upper(self, eps):
        return _check_prob(eps) ** (-1.0 / self.theta) - 1.0

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.0, 0.0, 1.0 - (1.0 + np.maximum(x, 0.0)) ** (-self.theta))

    def density(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(
            x < 0.0, 0.0, self.theta * (1.0 + np.maximum(x, 0.0)) ** (-self.theta - 1.0)
        )

    def density_quantile(self, u):
        return self.theta * (1.0 - _check_prob(u)) ** (1.0 + 1.0 / self.theta)

    def density_quantile_upper(self, eps):
        return self.theta * _check_prob(eps) ** (1.0 + 1.0 / self.theta)

    def mean(self) -> float:
        if self.theta <= 1.0:
            raise ValueError(f"lomax mean is infinite for theta <= 1 (theta={self.theta})")
        return 1.0 / (self.theta - 1.0)

    def variance(self) -> float:
        if self.theta <= 2.0:
            raise ValueError(f"lomax variance is infinite for theta <= 2 (theta={self.theta})")
        return self.theta / ((self.theta - 1.0) ** 2 * (self.theta - 2.0))

    def spec(self) -> dict:
        return {"kind": "lomax", "theta": self.theta}


@dataclass(frozen=True)
class Exponential(ParametricModel):
    rate: float = 1.0

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")

    def quantile(self, u):
        return -np.log1p(-_check_prob(u)) / self.rate

    def quantile_upper(self, eps):
        return -np.log(_check_prob(eps)) / self.rate

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.0, 0.0, -np.expm1(-self.rate * np.maximum(x, 0.0)))

    def density(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.0, 0.0, self.rate * np.exp(-self.rate * np.maximum(x, 0.0)))

    def density_quantile(self, u):
        return self.rate * (1.0 - _check_prob(u))

    def density_quantile_upper(self, eps):
        return self.rate * _check_prob(eps)

    def mean(self) -> float:
        return 1.0 / self.rate

    def variance(self) -> float:
        return 1.0 / self.rate ** 2

    def spec(self) -> dict:
        return {"kind": "exponential", "beta": self.rate}


def model_from_spec(spec: dict) -> ParametricModel:
    """Build a model from a JSON-style dict, e.g. {"kind": "lomax", "theta": 4.0}."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("model spec must be an object with a 'kind' field")
    kind = spec["kind"]
    field = partial(spec_field, spec, "model spec")

    if kind == "normal":
        return Normal(mu=field("mu", default=0.0), sd=field("sd", default=1.0))
    if kind == "lomax":
        return Lomax(theta=field("theta"))
    if kind == "exponential":
        return Exponential(rate=field("beta"))
    raise ValueError(f"unknown model kind: {kind!r}")
