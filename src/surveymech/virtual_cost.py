"""Virtual costs of a discrete uniform cost distribution and their ironing.

For a multiset of sorted costs ``c_1 <= ... <= c_m`` interpreted as a uniform
distribution, the virtual cost of the i-th entry is

    psi_i = i * c_i - (i - 1) * c_{i-1}       (c_0 = 0)

i.e. the cost plus the information rent a truthful mechanism must concede to
the lower-cost mass.  ``psi`` need not be monotone, so solvers work with the
regularized (ironed) profile ``phi``: the running maximum of the forward
minimum averages of ``psi``.  ``phi`` equals the block-average solution of
isotonic regression on ``psi`` (pool-adjacent-violators), which is how the
fast path computes it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "CostSet",
    "virtual_costs",
    "regularize",
]


@dataclass(frozen=True)
class CostSet:
    """Sorted non-negative costs together with the cost cap.

    Attributes:
        costs: non-decreasing 1-D array of reported costs, all in ``[0, cap]``.
        cap: upper bound on any admissible cost (the mechanism declines above it).
    """

    costs: np.ndarray
    cap: float

    def __post_init__(self):
        costs = np.asarray(self.costs, dtype=float)
        if costs.ndim != 1 or costs.size == 0:
            raise InvalidInputError("costs must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(costs)):
            raise InvalidInputError("costs must be finite")
        if np.any(np.diff(costs) < 0):
            raise InvalidInputError("costs must be sorted non-decreasing")
        cap = float(self.cap)
        if not np.isfinite(cap):
            raise InvalidInputError("cap must be finite")
        if costs[0] < 0 or costs[-1] > cap:
            raise InvalidInputError("costs must lie in [0, cap]")
        costs = costs.copy()
        costs.setflags(write=False)
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "cap", cap)

    def __len__(self) -> int:
        return int(self.costs.size)


def _psi_from_sorted(costs: np.ndarray) -> np.ndarray:
    # psi_i = i*c_i - (i-1)*c_{i-1}, 1-based, with c_0 = 0.
    m = costs.size
    idx = np.arange(1.0, m + 1.0)
    prev = np.empty(m)
    prev[0] = 0.0
    prev[1:] = costs[:-1]
    return idx * costs - (idx - 1.0) * prev


def _pav(psi: np.ndarray) -> np.ndarray:
    """Ironed profile via pool-adjacent-violators on ``psi``.

    Block averages are computed as prefix-sum differences divided by counts so
    that the result is bit-comparable with the direct min/max definition.
    Blocks merge on ties, giving maximal blocks of equal value.
    """
    values = psi.tolist()  # plain floats: the merge loop is scalar-heavy
    m = len(values)
    prefix = [0.0] * (m + 1)
    acc = 0.0
    for i, v in enumerate(values):
        acc += v
        prefix[i + 1] = acc
    starts: list[int] = []
    avgs: list[float] = []
    for i in range(m):
        start = i
        avg = values[i]
        while avgs and avg <= avgs[-1]:
            start = starts.pop()
            avgs.pop()
            avg = (prefix[i + 1] - prefix[start]) / (i + 1 - start)
        starts.append(start)
        avgs.append(avg)
    starts.append(m)
    sizes = [starts[j + 1] - starts[j] for j in range(len(avgs))]
    return np.repeat(avgs, sizes)


def virtual_costs(cost_set: CostSet) -> np.ndarray:
    """Virtual costs of the uniform distribution over ``cost_set``.

    Raises:
        InvalidInputError: if the cost set is empty or malformed.
    """
    return _psi_from_sorted(cost_set.costs)


def regularize(psi) -> np.ndarray:
    """Ironed virtual costs: running max of forward minimum averages of ``psi``.

    Computed by pool-adjacent-violators block averaging; agrees with the
    direct O(m^2) evaluation of the definition (see ``oracle.regularize_naive``)
    exactly up to floating-point block-boundary ties.
    """
    psi = np.asarray(psi, dtype=float)
    if psi.ndim != 1 or psi.size == 0:
        raise InvalidInputError("psi must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(psi)):
        raise InvalidInputError("psi must be finite")
    return _pav(psi)
