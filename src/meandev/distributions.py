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

    def quantile(self, u, out=None):
        """F^{-1}(u); an array ``out`` of u's shape receives the result, and may be u."""
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

    def sample_block(self, n: int, seeds, out=None) -> np.ndarray:
        """A (len(seeds), n) array whose row i is the sample of size n from seeds[i].

        The block is new, or the first len(seeds) * n values of the contiguous
        float array ``out`` (its first rows when ``out`` is (m, n)).  Each
        seed's PCG64 stream fills its own row; one clip, one in-place quantile
        call and one check cover the block, and every row passes the check
        that a ``StateVector`` of it would.  With block-sized temporaries, glibc
        trimmed the freed heap after each block and the next one faulted it back in.
        """
        if n < 1:
            raise ValueError(f"sample size must be >= 1, got {n}")
        u = np.ndarray((len(seeds), n), buffer=out)  # new memory when out is None
        for row, seed in zip(u, seeds):
            np.random.Generator(np.random.PCG64(seed)).random(out=row)
        np.clip(u, _UNIFORM_EPS, 1.0 - _UNIFORM_EPS, out=u)
        x = self.quantile(u, out=u)
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


# cephes' erf and erfc rational approximations (Moshier), as scipy.special.ndtr
# evaluates them: erf(x) = x T(x^2) / U(x^2) for |x| <= 1, and
# erfc(x) = e^(-x^2) P(x) / Q(x) on [1, 8), e^(-x^2) R(x) / S(x) from 8
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
           6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
           1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_MAXLOG = 7.09782712893383996843E2  # log of the largest float: e^(-x^2) underflows past it
_SQRT1_2 = 0.70710678118654752440


def _horner(x, coefficients, monic=False):
    """The polynomial with these coefficients, highest power first, by Horner's rule;
    ``monic`` puts a leading coefficient 1 in front of them."""
    y = x + coefficients[0] if monic else coefficients[0]
    for c in coefficients[1:]:
        y = y * x + c
    return y


def _ndtr(a: np.ndarray) -> np.ndarray:
    """Phi(a): a port of cephes ndtr, erf and erfc, bit for bit scipy.special.ndtr.

    Every operation is one IEEE operation in cephes' order, and e^(-x^2) is
    math.exp, the C library's exp that cephes calls.
    """
    x = a * _SQRT1_2
    z = np.abs(x)
    with np.errstate(all="ignore"):  # the branches not taken may overflow
        zz = z * z
        erf = z * _horner(zz, _ERF_T) / _horner(zz, _ERF_U, monic=True)
        low = z < 8.0
        p = np.where(low, _horner(z, _ERFC_P), _horner(z, _ERFC_R))
        q = np.where(low, _horner(z, _ERFC_Q, monic=True), _horner(z, _ERFC_S, monic=True))
        decay = np.fromiter((math.exp(-v) for v in zz.flat), float, zz.size).reshape(zz.shape)
        erfc = np.where(z < 1.0, 1.0 - erf, np.where(zz > _MAXLOG, 0.0, decay * p / q))
    half = 0.5 * erfc
    return np.where(z < _SQRT1_2, 0.5 + 0.5 * np.copysign(erf, x),
                    np.where(x > 0.0, 1.0 - half, half))[()]


@dataclass(frozen=True)
class Normal(ParametricModel):
    """N(mu, sd^2).  Its quantile methods import scipy.special themselves, so
    that importing meandev does not load scipy; its cdf needs no scipy."""

    mu: float = 0.0
    sd: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")
        if not 0.0 < self.sd < math.inf:
            raise ValueError(f"sd must be > 0, got {self.sd}")

    def quantile(self, u, out=None):
        from scipy.special import ndtri

        x = ndtri(_check_prob(u), out=out)
        x *= self.sd
        x += self.mu
        return x

    def quantile_upper(self, eps):
        from scipy.special import ndtri

        return self.mu - self.sd * ndtri(_check_prob(eps))

    def cdf(self, x):
        return _ndtr((np.asarray(x, dtype=float) - self.mu) / self.sd)

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
        if not 0.0 < self.theta < math.inf:
            raise ValueError(f"theta must be > 0, got {self.theta}")

    def quantile(self, u, out=None):
        x = np.subtract(1.0, _check_prob(u), out=out)
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
        if not 0.0 < self.rate < math.inf:
            raise ValueError(f"rate must be > 0, got {self.rate}")

    def quantile(self, u, out=None):
        x = np.negative(_check_prob(u), out=out)  # an array, or a scalar for a scalar level
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
