"""Estimators and confidence-interval assembly for reweighted survey data."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ci_solver import alpha_gamma
from .errors import InvalidInputError

__all__ = [
    "CIOutput",
    "sample_variance",
    "bernstein_interval",
]


@dataclass(frozen=True)
class CIOutput:
    """A confidence interval with its building blocks.

    The upper endpoint carries the one-sided bias compensation for ignored
    data (data values are non-negative, so ignoring can only bias downward):
    ``upper - lower = 2 * alpha_gamma * sigma / sqrt(n) + bias_term``.
    """

    lower: float
    upper: float
    sample_mean: float
    sample_sigma: float
    bias_term: float
    gamma: float

    def __post_init__(self):
        if self.lower > self.upper:
            raise InvalidInputError("interval endpoints out of order")

    @property
    def length(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


def sample_variance(y) -> float:
    """Unbiased (n-1 denominator) sample variance.

    Raises:
        InvalidInputError: unless at least two observations are given.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size < 2:
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
        InvalidInputError: for invalid gamma, n < 2, negative sigma, or a
            bias term outside [0, 1].
    """
    if n < 2:
        raise InvalidInputError("interval needs n >= 2")
    sigma = float(sigma)
    if not np.isfinite(sigma) or sigma < 0:
        raise InvalidInputError("sigma must be a non-negative real")
    bias_term = float(bias_term)
    if not 0.0 <= bias_term <= 1.0:
        raise InvalidInputError("bias_term must lie in [0, 1]")
    radius = alpha_gamma(gamma) * sigma / math.sqrt(n)
    lower = float(mean) - radius
    upper = float(mean) + bias_term + radius
    return CIOutput(
        lower=lower,
        upper=upper,
        sample_mean=float(mean),
        sample_sigma=sigma,
        bias_term=bias_term,
        gamma=float(gamma),
    )
