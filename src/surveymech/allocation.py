"""Budget-feasible allocation rules for unbiased mean estimation.

The solved rule has the water-filling form ``A_k = min(1, lam / sqrt(phi_k))``
with ``lam`` calibrated so the expected spend ``sum_k A_k psi_k`` equals the
budget.  Because the spend is piecewise linear and increasing in ``lam``, the
calibration locates the saturation breakpoint (the largest ironed cost whose
allocation is clipped at 1) and solves the remaining linear segment exactly.

Payments are the minimal truthful, individually rational prices for a
monotone non-increasing allocation rule:

    P_i = c_i + (1 / A_i) * sum_{j > i} A_j * (c_j - c_{j-1})

so the highest cost is paid exactly its cost.  The expected payment equals
the expected virtual cost, ``sum_k A_k P_k = sum_k A_k psi_k``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, _positive, _scalar, _vector
from .virtual_cost import CostSet, _iron_rows, virtual_costs

__all__ = [
    "AllocationRule",
    "PaymentRule",
    "solve_unbiased",
    "myerson_payments",
    "worst_case_variance",
]

_MONOTONE_SLACK = 1e-12


@dataclass(frozen=True)
class AllocationRule:
    """Purchase probabilities aligned with a cost set.

    Attributes:
        probabilities: per-cost purchase probabilities in ``(0, 1]``,
            monotone non-increasing.
        lam: calibration multiplier of the water-filling form.
        saturated: True when the budget covers full collection (all ones).
    """

    probabilities: np.ndarray
    lam: float
    saturated: bool = False

    def __post_init__(self):
        probs = _vector(self.probabilities, "probabilities", 0.0, 1.0)
        if np.any(np.diff(probs) > _MONOTONE_SLACK):
            raise InvalidInputError("probabilities must be monotone non-increasing")
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "lam", _scalar(self.lam, "lam", 0.0))

    def __len__(self) -> int:
        return int(self.probabilities.size)


@dataclass(frozen=True)
class PaymentRule:
    """Prices offered on successful allocation, aligned with a cost set."""

    payments: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "payments", _vector(self.payments, "payments"))

    def __len__(self) -> int:
        return int(self.payments.size)


def _calibrate_rows(phi, psi, weights, budgets, sizes):
    """Water-filling allocations binding ``sum_k w_k A_k psi_k`` to each row's budget.

    Row ``r`` of the padded 2-D ``phi``/``psi`` (and ``weights``; None means
    all ones) holds ``sizes[r]`` entries, then padding with ``phi = 0``.  Each
    row's ``phi`` must be non-decreasing and non-negative, and its weights
    non-negative and constant on every maximal equal-phi block; then the
    spend equals ``sum_k w_k min(phi_k, lam*sqrt(phi_k))`` and is piecewise
    linear in ``lam``.  The square roots, weights and prefix sums run on all
    rows at once; the budget test, the breakpoint spends and the two
    breakpoint searches run per row on its own entries, so each row's
    arithmetic is that of a single-row call.  Returns ``(A, lam, saturated)``,
    with ``A`` 1 on the padding.
    """
    sqrt_phi = np.sqrt(phi)
    # Weighted, w * phi already vanishes wherever w or phi does, so no mask
    # is needed; unweighted, the products by 1.0 they stand for are exact.
    if weights is None:
        wpsi, pref_wphi, pref_wsqrt = psi, phi.copy(), sqrt_phi.copy()
    else:
        wpsi, pref_wphi, pref_wsqrt = weights * psi, weights * phi, weights * sqrt_phi
    # Prefix sums in place: fresh arrays here raised the peak RSS of a 5-run
    # n=1000 Monte Carlo batch by about 3 MB through heap fragmentation.
    np.cumsum(pref_wphi, axis=1, out=pref_wphi)
    np.cumsum(pref_wsqrt, axis=1, out=pref_wsqrt)
    lam = np.empty(phi.shape[0])
    saturated = np.zeros(phi.shape[0], dtype=bool)
    for r, (m, budget) in enumerate(zip(sizes.tolist(), budgets)):
        total_wsqrt = pref_wsqrt[r, m - 1]
        j = m
        if float(np.add.reduce(wpsi[r, :m])) > budget:
            # Spend when lam sits at breakpoint sqrt(phi_j): entries below j are clipped.
            spend_bp = pref_wphi[r, :m] + sqrt_phi[r, :m] * (total_wsqrt - pref_wsqrt[r, :m])
            j = int(spend_bp.searchsorted(budget, side="left"))
        if j < m:
            i0 = int(sqrt_phi[r, :m].searchsorted(sqrt_phi[r, j], side="left"))
            clipped_spend = float(pref_wphi[r, i0 - 1]) if i0 > 0 else 0.0
            slope = float(total_wsqrt - (pref_wsqrt[r, i0 - 1] if i0 > 0 else 0.0))
            if slope > 0:
                lam[r] = (budget - clipped_spend) / slope
                continue
        # The budget covers full collection, or numerically sits at its
        # boundary: the search passed every breakpoint, or the segment it
        # found carries no live weight, so the live mass is bought in full
        # up to rounding.
        saturated[r] = True
        lam[r] = sqrt_phi[r, m - 1]
    # A saturated row's lam is its largest sqrt(phi), so it gets all ones too.
    alloc = np.ones_like(phi)
    np.divide(lam[:, None], sqrt_phi, out=alloc, where=phi > 0)
    np.minimum(alloc, 1.0, out=alloc)
    return alloc, lam, saturated


def solve_unbiased(cost_set: CostSet, budget: float) -> AllocationRule:
    """Variance-minimizing allocation under the expected-budget constraint.

    Solves ``min sum_k 1/A_k`` over monotone rules with ``sum_k A_k psi_k <= B``;
    the optimum is ``A_k = min(1, lam/sqrt(phi_k))`` with the budget binding
    whenever ``sum psi > B``, else the all-ones rule (``saturated``).

    Raises:
        InvalidInputError: for a non-positive or non-finite budget.
    """
    budget = _positive(budget, "budget")
    psi = virtual_costs(cost_set)[None, :]
    sizes = np.array([psi.size])
    alloc, lam, saturated = _calibrate_rows(_iron_rows(psi, sizes)[0], psi, None, (budget,), sizes)
    return AllocationRule(probabilities=alloc[0], lam=lam[0], saturated=bool(saturated[0]))


def _myerson(costs: np.ndarray, alloc: np.ndarray) -> np.ndarray:
    """Minimal truthful IR payments; NaN where the allocation is zero.

    Works along the last axis, so a 2-D call prices every row at once; a row
    padded by repeating its last cost adds nothing to the payments before it.
    """
    tail = np.empty_like(alloc)
    tail[..., -1] = 0.0
    np.subtract(costs[..., 1:], costs[..., :-1], out=tail[..., :-1])
    tail[..., :-1] *= alloc[..., 1:]
    back = tail[..., ::-1]
    np.cumsum(back, axis=-1, out=back)
    live = alloc > 0
    np.divide(tail, alloc, out=tail, where=live)
    prices = np.add(costs, tail, out=tail)
    prices[~live] = np.nan  # never bought, so never priced
    return prices


def myerson_payments(cost_set: CostSet, rule: AllocationRule) -> PaymentRule:
    """Minimal truthful and individually rational payment rule for ``rule``.

    Raises:
        InvalidInputError: if lengths mismatch or any allocation is zero
            (the price is undefined for never-allocated costs).
    """
    alloc = rule.probabilities
    if alloc.size != len(cost_set):
        raise InvalidInputError("rule and cost set lengths differ")
    if np.any(alloc <= 0):
        raise InvalidInputError("payments undefined for zero allocation probabilities")
    return PaymentRule(payments=_myerson(cost_set.costs, alloc))


def worst_case_variance(rule: AllocationRule, cost_set: CostSet) -> float:
    """Worst-case estimator variance ``(1/n^2) (sum_k 1/A_k - n)``.

    The adversarial data assignment sets every datum to 1; a zero allocation
    anywhere makes the worst case unbounded (returns ``inf``).
    """
    alloc = rule.probabilities
    if alloc.size != len(cost_set):
        raise InvalidInputError("rule and cost set lengths differ")
    n = alloc.size
    if np.any(alloc == 0):
        return float("inf")
    return float((np.sum(1.0 / alloc) - n) / n**2)

