"""Estimators and confidence-interval assembly for reweighted survey data."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ci_solver import alpha_gamma
from .errors import InvalidInputError, _scalar, _vector, _whole

__all__ = [
    "CIOutput",
    "sample_variance",
    "bernstein_interval",
]


# (field, low, high) of each ``CIOutput`` field
_CI_FIELDS = (
    ("lower", -np.inf, np.inf),
    ("upper", -np.inf, np.inf),
    ("sample_mean", -np.inf, np.inf),
    ("sample_sigma", 0.0, np.inf),
    ("bias_term", 0.0, 1.0),
    ("gamma", 0.0, 1.0),
)


@dataclass(frozen=True)
class CIOutput:
    """A confidence interval with its building blocks.

    The upper endpoint carries the one-sided bias compensation for ignored
    data (data values are non-negative, so ignoring can only bias downward):
    ``upper - lower = 2 * alpha_gamma * sigma / sqrt(n) + bias_term``.

    Raises:
        InvalidInputError: unless the endpoints and the mean are finite
            numbers with ``lower <= upper``, ``sample_sigma`` is finite and
            non-negative, ``bias_term`` a number in [0, 1] and ``0 < gamma < 1``,
            the domains ``bernstein_interval`` checks.
    """

    lower: float
    upper: float
    sample_mean: float
    sample_sigma: float
    bias_term: float
    gamma: float

    def __post_init__(self):
        for name, low, high in _CI_FIELDS:
            object.__setattr__(self, name, _scalar(getattr(self, name), name, low, high))
        if not 0.0 < self.gamma < 1.0:
            raise InvalidInputError("gamma must lie strictly between 0 and 1")
        if not self.lower <= self.upper:
            raise InvalidInputError("lower must not exceed upper")

    @property
    def length(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


def sample_variance(y) -> float:
    """Unbiased (n-1 denominator) sample variance.

    Raises:
        InvalidInputError: unless at least two finite observations are given.
    """
    y = _vector(y, "y")
    if y.size < 2:
        raise InvalidInputError("sample variance needs at least two observations")
    if y.min() == y.max():  # keep constant vectors exactly at zero
        return 0.0
    return float(np.var(y, ddof=1))


def bernstein_interval(
    mean: float,
    sigma: float,
    n: int,
    gamma: float,
    bias_term: float = 0.0,
) -> CIOutput:
    """Empirical-variance confidence interval with upper-side bias padding.

    Raises:
        InvalidInputError: unless ``0 < gamma < 1``, ``n`` is a whole number
            of at least 2, the mean is finite, ``sigma`` finite and
            non-negative, and the bias term a number in [0, 1].
    """
    n = _scalar(n, "n", 2, convert=_whole)
    mean = _scalar(mean, "mean")
    sigma = _scalar(sigma, "sigma", 0.0)
    bias_term = _scalar(bias_term, "bias_term", 0.0, 1.0)
    radius = alpha_gamma(gamma) * sigma / math.sqrt(n)
    lower = mean - radius
    upper = mean + bias_term + radius
    return CIOutput(
        lower=lower,
        upper=upper,
        sample_mean=mean,
        sample_sigma=sigma,
        bias_term=bias_term,
        gamma=float(gamma),
    )
