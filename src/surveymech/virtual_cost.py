"""Virtual costs of a discrete uniform cost distribution and their ironing.

For a multiset of sorted costs ``c_1 <= ... <= c_m`` interpreted as a uniform
distribution, the virtual cost of the i-th entry is

    psi_i = i * c_i - (i - 1) * c_{i-1}       (c_0 = 0)

i.e. the cost plus the information rent a truthful mechanism must concede to
the lower-cost mass.  ``psi`` need not be monotone, so solvers work with the
regularized (ironed) profile ``phi``: the running maximum of the forward
minimum averages of ``psi``.  ``phi`` equals the block-average solution of
isotonic regression on ``psi``, the ironing of Myerson (1981).

Ironing works on rows: ``_iron_rows`` irons every row of a padded 2-D array
in one set of vectorised adjacent-violator pooling passes, so the online
runner irons all the rounds of a run together.  Each pass gathers the blocks
it keeps by integer index (``np.flatnonzero`` and ``take``): its merge mask
is scattered, and a boolean compress of a scattered mask costs several times
more per element.  ``regularize`` and the solvers iron a single grid as a
batch of one row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, _scalar, _vector

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
        cap = _scalar(self.cap, "cap")
        costs = _vector(self.costs, "costs", 0.0, cap)
        if np.any(np.diff(costs) < 0):
            raise InvalidInputError("costs must be sorted non-decreasing")
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "cap", cap)

    def __len__(self) -> int:
        return int(self.costs.size)


def _psi_from_sorted(costs: np.ndarray) -> np.ndarray:
    # psi_i = i*c_i - (i-1)*c_{i-1}, 1-based, with c_0 = 0, along the last axis;
    # (i-1) at i >= 2 is the 1-based index of c_{i-1}, and psi_1 = 1*c_1 - 0*0 = c_1.
    idx = np.arange(1.0, costs.shape[-1] + 1.0)
    psi = costs * idx
    psi[..., 1:] -= costs[..., :-1] * idx[:-1]
    return psi


def _iron_rows(psi: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Ironed profiles of the rows of a padded 2-D ``psi``.

    Row ``r`` holds ``sizes[r]`` values followed by padding, which is ignored
    and comes back as 0.  The rows are laid end to end without their padding,
    each followed by a NaN: every element starts as its own block, and each
    pass merges every block whose average is at most its left neighbour's
    into that neighbour, until no such block is left.  No comparison with NaN
    holds, so no block merges across a row end.  A block's average is its
    prefix-sum difference over its size, and a block of one element keeps
    its raw value.  Blocks merge on ties, giving maximal blocks of equal value.
    A pass finds the indices of the blocks that stay and of those that grow,
    and gathers the bounds and averages with ``take``; only the grown blocks'
    averages are recomputed.  The NaN blocks are dropped before the blocks
    are spread back over their entries.
    """
    rows, width = psi.shape
    lanes = np.arange(width + 1) <= sizes[:, None]  # each row and its NaN
    ext = np.empty((rows, width + 1))
    ext[:, :width] = psi
    ext[np.arange(rows), sizes] = np.nan
    values = ext[lanes]
    # before[k]: sum of the row's values ahead of position k, 0.0 at its start
    ext[:, 0] = 0.0
    np.cumsum(psi, axis=1, out=ext[:, 1:])
    before = ext[lanes]
    # Block k spans [bounds[k], bounds[k+1]); ``bounds`` ends with a sentinel.
    bounds = np.arange(values.size + 1)
    avg = values
    while True:
        merge = avg[1:] <= avg[:-1]
        if not merge.any():
            break
        # the blocks that stay, then the sentinel; the last block is a NaN and stays
        kept = np.flatnonzero(np.concatenate(((True,), ~merge, (True,))))
        # a block that absorbs its right neighbour has merge set at its index
        grown = np.flatnonzero(merge.take(kept[:-2]))
        bounds = bounds.take(kept)
        avg = avg.take(kept[:-1])
        lo = bounds.take(grown)
        hi = bounds.take(grown + 1)
        avg[grown] = (before.take(hi) - before.take(lo)) / (hi - lo)
    # drops the NaN ending each row: a NaN never pools, so it is a block of its own
    first = values.take(bounds[:-1])
    real = np.flatnonzero(first == first)
    phi = np.zeros_like(psi)
    phi[np.arange(width) < sizes[:, None]] = np.repeat(avg.take(real), np.diff(bounds).take(real))
    return phi


def virtual_costs(cost_set: CostSet) -> np.ndarray:
    """Virtual costs of the uniform distribution over ``cost_set``.

    Raises nothing: the ``CostSet`` constructor has already rejected an
    empty or malformed cost set with ``InvalidInputError``.
    """
    return _psi_from_sorted(cost_set.costs)


def regularize(psi) -> np.ndarray:
    """Ironed virtual costs: running max of forward minimum averages of ``psi``.

    Computed by the pooling passes of ``_iron_rows`` on a single row, the
    same code that irons a batch of online rounds; agrees with the direct
    O(m^2) evaluation of the definition (see ``oracle.regularize_naive``)
    exactly up to floating-point block-boundary ties.
    """
    psi = _vector(psi, "psi")
    return _iron_rows(psi[None, :], np.array([psi.size]))[0]
