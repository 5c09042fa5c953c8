"""Synthetic populations of (cost, datum) pairs for simulation runs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, _floats, _real, _required, _scalar, _value, _vector, _whole

__all__ = ["Population", "gen_population"]


@dataclass(frozen=True)
class Population:
    """Paired costs and data with the cost cap."""

    costs: np.ndarray
    data: np.ndarray
    cap: float

    def __post_init__(self):
        cap = _scalar(self.cap, "cap", error=ConfigError)
        costs = _vector(self.costs, "costs", 0.0, cap, ConfigError)
        data = _vector(self.data, "data", 0.0, 1.0, ConfigError)
        if costs.shape != data.shape:
            raise ConfigError("costs and data must have equal length")
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "cap", cap)

    @property
    def n(self) -> int:
        return int(self.costs.size)

    @property
    def mean(self) -> float:
        return float(np.mean(self.data))


def _draw_law(law, n: int, rng: np.random.Generator, upper: float) -> np.ndarray:
    """Sample n values from a small law descriptor, bounded by ``upper``."""
    if not isinstance(law, dict) or "dist" not in law:
        raise ConfigError(f"malformed law descriptor: {law!r}")
    dist = law["dist"]
    try:
        if dist == "uniform":
            low = _value(law, "low", _real, 0.0)
            high = _value(law, "high", _real, upper)
            if not 0 <= low <= high <= upper:
                raise ConfigError("bounds must satisfy 0 <= low <= high <= upper")
            return rng.uniform(low, high, size=n)
        if dist == "constant":
            value = _required(law, "value", _real)
            if not 0 <= value <= upper:
                raise ConfigError("value out of range")
            return np.full(n, value)
        if dist == "choice":
            values = _required(law, "values", _floats)
            if not values or not all(0 <= v <= upper for v in values):
                raise ConfigError("values out of range")
            probs = _value(law, "probs", _floats)
            if probs is not None and (len(probs) != len(values) or min(probs) < 0
                                      or not abs(sum(probs) - 1) <= 1e-9):
                raise ConfigError("probs must be a distribution over values")
            return rng.choice(values, size=n, p=probs)
    except ConfigError as exc:
        raise ConfigError(f"{dist} law: {exc}") from exc
    raise ConfigError(f"unknown law distribution {dist!r}")


def gen_population(spec, n: int, cap: float, seed) -> Population:
    """Deterministically generate a population from a descriptor.

    Supported kinds:
      worst_case   costs from ``cost_law`` (default uniform on [0, cap]), data = 1
      independent  costs from ``cost_law``, data from ``data_law`` independently
      correlated   costs from ``cost_law``, data = cost / cap
      two_point    exact fractions of two (cost, datum) types

    Raises:
        ConfigError: on malformed descriptors, a seed numpy rejects, an
            ``n`` that is not a whole number of at least 1, or a ``cap``
            that is not a finite number ``>= 0``.
    """
    n = _scalar(n, "n", 1, error=ConfigError, convert=_whole)
    cap = _scalar(cap, "cap", 0.0, error=ConfigError)
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"malformed population spec: {spec!r}")
    try:
        rng = np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid population seed {seed!r}: {exc}") from exc
    kind = spec["kind"]
    default_cost_law = {"dist": "uniform", "low": 0.0, "high": cap}

    if kind == "worst_case":
        costs = _draw_law(spec.get("cost_law", default_cost_law), n, rng, cap)
        data = np.ones(n)
    elif kind == "independent":
        costs = _draw_law(spec.get("cost_law", default_cost_law), n, rng, cap)
        data = _draw_law(spec.get("data_law", {"dist": "uniform", "low": 0.0, "high": 1.0}), n, rng, 1.0)
    elif kind == "correlated":
        costs = _draw_law(spec.get("cost_law", default_cost_law), n, rng, cap)
        data = costs / cap if cap > 0 else np.zeros(n)
    elif kind == "two_point":
        try:
            fractions = _required(spec, "fractions", _floats)
            cost_values = _required(spec, "costs", _floats)
            data_values = _value(spec, "data", _floats, [1.0, 1.0])
            if len(fractions) != 2 or len(cost_values) != 2 or len(data_values) != 2:
                raise ConfigError("needs exactly two types")
            if abs(sum(fractions) - 1.0) > 1e-9 or min(fractions) < 0:
                raise ConfigError("fractions must be non-negative and sum to 1")
        except ConfigError as exc:
            raise ConfigError(f"two_point population: {exc}") from exc
        n_first = int(round(fractions[0] * n))
        counts = [n_first, n - n_first]
        costs = np.repeat(cost_values, counts)
        data = np.repeat(data_values, counts)
    else:
        raise ConfigError(f"unknown population kind {kind!r}")

    return Population(costs=costs, data=data, cap=cap)
