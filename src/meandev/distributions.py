"""Sample vectors and parametric loss models.

A loss random variable is represented either as a ``StateVector`` (values on
n equiprobable states) or as one of three parametric families (normal,
Lomax, exponential) with scipy-like quantile access.  Sampling is
inverse-transform on a seeded PCG64 generator, so results are reproducible
from the seed alone.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from ._spec import build, number, spec_of

__all__ = [
    "StateVector",
    "ParametricModel",
    "Normal",
    "Lomax",
    "Exponential",
    "model_from_spec",
]

SeedLike = Union[int, "np.random.SeedSequence"]  # a string, so import leaves numpy.random out

# Uniform draws are clipped away from {0, 1} so that quantile() stays finite.
_UNIFORM_EPS = 2.0 ** -53
_HALF_MAX = 0.5 * np.finfo(float).max  # n values below _HALF_MAX / n sum and differ finitely


@dataclass(frozen=True)
class StateVector:
    """A random loss on n equiprobable states (each with probability 1/n)."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1:
            raise ValueError("state vector values must be one-dimensional")
        if arr.size < 1:
            raise ValueError("state vector needs at least one state")
        _check_values(arr, arr.size)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.size

    def mean(self) -> float:
        return float(np.mean(self.values))

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


class ParametricModel:
    """Base for distributions with strictly increasing quantiles on (0, 1).

    Subclasses supply ``quantile``, ``cdf``, the composite ``density_quantile``
    (the density evaluated at the quantile), and closed-form moments.
    ``*_upper`` variants take the upper-tail probability eps and evaluate at
    level 1 - eps without cancellation, which matters when integrating into
    the far tail.
    """

    def quantile(self, u):
        raise NotImplementedError

    def quantile_upper(self, eps):
        """F^{-1}(1 - eps), computed stably from the tail probability eps."""
        raise NotImplementedError

    def cdf(self, x):
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
        return StateVector(self.sample_block(n, [seed])[0])

    def sample_block(self, n: int, seeds) -> np.ndarray:
        """A (len(seeds), n) array whose row i is the sample of size n from seeds[i].

        Each seed's PCG64 stream fills its own row; one clip, one quantile
        call and one check cover the block, and every row passes the check
        that a ``StateVector`` of it would.  The quantiles build their result
        in one new array and update it in place: with more block-sized
        temporaries, glibc trimmed the freed heap after each block and the
        next one page-faulted it back in.
        """
        if n < 1:
            raise ValueError(f"sample size must be >= 1, got {n}")
        u = np.empty((len(seeds), n))
        for row, seed in zip(u, seeds):
            np.random.Generator(np.random.PCG64(seed)).random(out=row)
        np.clip(u, _UNIFORM_EPS, 1.0 - _UNIFORM_EPS, out=u)
        x = self.quantile(u)
        _check_values(x, n)
        return x

    def spec(self) -> dict:
        return spec_of(self, _KINDS)


def _check_values(arr: np.ndarray, n: int) -> None:
    """Reject values that are not finite or too large for n of them to sum and differ finitely."""
    limit = _HALF_MAX / n
    if not (-limit <= arr.min() and arr.max() <= limit):
        raise ValueError("state vector values must all be finite and at most "
                         f"{limit:.6g} in absolute value")


def _check_prob(u) -> np.ndarray:
    arr = np.asarray(u, dtype=float)
    # NaN fails both comparisons, so it is rejected too
    if arr.size and not (0.0 < arr.min() and arr.max() < 1.0):
        raise ValueError("probability level must lie strictly inside (0, 1)")
    return arr


@dataclass(frozen=True)
class Normal(ParametricModel):
    """N(mu, sd^2).  Its methods import scipy.special themselves, so that
    importing meandev does not load scipy."""

    mu: float = 0.0
    sd: float = 1.0

    def __post_init__(self):
        if self.sd <= 0:
            raise ValueError(f"sd must be > 0, got {self.sd}")

    def quantile(self, u):
        from scipy.special import ndtri

        x = ndtri(_check_prob(u))
        x *= self.sd
        x += self.mu
        return x

    def quantile_upper(self, eps):
        from scipy.special import ndtri

        return self.mu - self.sd * ndtri(_check_prob(eps))

    def cdf(self, x):
        from scipy.special import ndtr

        return ndtr((np.asarray(x, dtype=float) - self.mu) / self.sd)

    def density_quantile(self, u):
        from scipy.special import ndtri

        z = ndtri(_check_prob(u))
        return np.exp(-0.5 * z * z) / (self.sd * math.sqrt(2.0 * math.pi))

    # the density is symmetric about mu, so the level 1 - eps gives the same value
    density_quantile_upper = density_quantile

    def mean(self) -> float:
        return self.mu

    def variance(self) -> float:
        return self.sd ** 2


@dataclass(frozen=True)
class Lomax(ParametricModel):
    """Pareto of the second kind: P(X > x) = (1 + x)^(-theta) on x >= 0."""

    theta: float

    def __post_init__(self):
        if self.theta <= 0:
            raise ValueError(f"theta must be > 0, got {self.theta}")

    def quantile(self, u):
        x = 1.0 - _check_prob(u)
        x **= -1.0 / self.theta
        x -= 1.0
        return x

    def quantile_upper(self, eps):
        return _check_prob(eps) ** (-1.0 / self.theta) - 1.0

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.0, 0.0, 1.0 - (1.0 + np.maximum(x, 0.0)) ** (-self.theta))

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


@dataclass(frozen=True)
class Exponential(ParametricModel):
    rate: float = 1.0

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")

    def quantile(self, u):
        x = -_check_prob(u)  # a new array, or a scalar for a scalar level
        x = np.log1p(x, out=x) if isinstance(x, np.ndarray) else np.log1p(x)
        x /= -self.rate
        return x

    def quantile_upper(self, eps):
        return -np.log(_check_prob(eps)) / self.rate

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.0, 0.0, -np.expm1(-self.rate * np.maximum(x, 0.0)))

    def density_quantile(self, u):
        return self.rate * (1.0 - _check_prob(u))

    def density_quantile_upper(self, eps):
        return self.rate * _check_prob(eps)

    def mean(self) -> float:
        return 1.0 / self.rate

    def variance(self) -> float:
        return 1.0 / self.rate ** 2


_KINDS = {
    "normal": (Normal, {"mu": ("mu", number), "sd": ("sd", number)}),
    "lomax": (Lomax, {"theta": ("theta", number)}),
    "exponential": (Exponential, {"beta": ("rate", number)}),
}


def model_from_spec(spec: dict) -> ParametricModel:
    """Build a model from a JSON-style dict, e.g. {"kind": "lomax", "theta": 4.0}."""
    return build(spec, "model", _KINDS)
