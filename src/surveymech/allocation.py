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
the expected virtual cost, an identity used as a runtime self-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, OutOfRangeError, SolverError
from .virtual_cost import CostSet, _iron, virtual_costs

__all__ = [
    "AllocationRule",
    "PaymentRule",
    "solve_unbiased",
    "myerson_payments",
    "extend",
    "worst_case_variance",
    "expected_spend",
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
        probs = np.asarray(self.probabilities, dtype=float)
        if probs.ndim != 1 or probs.size == 0:
            raise InvalidInputError("probabilities must be a non-empty 1-D sequence")
        if np.any(probs < 0) or np.any(probs > 1) or not np.all(np.isfinite(probs)):
            raise InvalidInputError("probabilities must lie in [0, 1]")
        if np.any(np.diff(probs) > _MONOTONE_SLACK):
            raise InvalidInputError("probabilities must be monotone non-increasing")
        if not np.isfinite(self.lam) or self.lam < 0:
            raise InvalidInputError("lam must be a non-negative real")
        probs = probs.copy()
        probs.setflags(write=False)
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "lam", float(self.lam))

    def __len__(self) -> int:
        return int(self.probabilities.size)


@dataclass(frozen=True)
class PaymentRule:
    """Prices offered on successful allocation, aligned with a cost set."""

    payments: np.ndarray

    def __post_init__(self):
        pay = np.asarray(self.payments, dtype=float)
        if pay.ndim != 1 or pay.size == 0:
            raise InvalidInputError("payments must be a non-empty 1-D sequence")
        pay = pay.copy()
        pay.setflags(write=False)
        object.__setattr__(self, "payments", pay)

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
        if j >= m:  # budget covers full collection, or numerically at its boundary
            saturated[r] = True
            lam[r] = sqrt_phi[r, m - 1]
            continue
        i0 = int(sqrt_phi[r, :m].searchsorted(sqrt_phi[r, j], side="left"))
        clipped_spend = float(pref_wphi[r, i0 - 1]) if i0 > 0 else 0.0
        slope = float(total_wsqrt - (pref_wsqrt[r, i0 - 1] if i0 > 0 else 0.0))
        if slope <= 0:
            raise SolverError("degenerate calibration segment")
        lam[r] = (budget - clipped_spend) / slope
    # A saturated row's lam is its largest sqrt(phi), so it gets all ones too.
    alloc = np.ones_like(phi)
    np.divide(lam[:, None], sqrt_phi, out=alloc, where=phi > 0)
    np.minimum(alloc, 1.0, out=alloc)
    return alloc, lam, saturated


def _calibrate(phi: np.ndarray, psi: np.ndarray, weights: np.ndarray | None, budget: float):
    """``_calibrate_rows`` on one 1-D row; returns ``(A, lam, saturated)``."""
    alloc, lam, saturated = _calibrate_rows(
        phi[None, :], psi[None, :], None if weights is None else weights[None, :],
        (budget,), np.array([phi.size]),
    )
    return alloc[0], float(lam[0]), bool(saturated[0])


def solve_unbiased(cost_set: CostSet, budget: float) -> AllocationRule:
    """Variance-minimizing allocation under the expected-budget constraint.

    Solves ``min sum_k 1/A_k`` over monotone rules with ``sum_k A_k psi_k <= B``;
    the optimum is ``A_k = min(1, lam/sqrt(phi_k))`` with the budget binding
    whenever ``sum psi > B``, else the all-ones rule (``saturated``).

    Raises:
        InvalidInputError: for a non-positive or non-finite budget.
    """
    budget = float(budget)
    if not np.isfinite(budget) or budget <= 0:
        raise InvalidInputError("budget must be a positive finite real")
    psi = virtual_costs(cost_set)
    phi = _iron(psi)
    alloc, lam, saturated = _calibrate(phi, psi, None, budget)
    return AllocationRule(probabilities=alloc, lam=lam, saturated=saturated)


def _myerson(costs: np.ndarray, alloc: np.ndarray) -> np.ndarray:
    """Minimal truthful IR payments; NaN where the allocation is zero.

    Works along the last axis, so a 2-D call prices every row at once; a row
    padded by repeating its last cost adds nothing to the payments before it.
    """
    tail = np.zeros_like(alloc)
    tail[..., :-1] = alloc[..., 1:] * np.diff(costs, axis=-1)
    tail = np.cumsum(tail[..., ::-1], axis=-1)[..., ::-1]
    return costs + np.divide(tail, alloc, out=np.full_like(alloc, np.nan), where=alloc > 0)


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


def extend(
    cost_set: CostSet,
    rule: AllocationRule,
    payments: PaymentRule,
    query_cost: float,
) -> tuple[float, float]:
    """Evaluate the continuum extension of a discrete rule at ``query_cost``.

    The extension maps a cost to the least grid cost above it and reuses that
    grid point's allocation and price, which preserves truthfulness and
    individual rationality.

    Raises:
        OutOfRangeError: if ``query_cost`` exceeds the largest grid cost.
    """
    q = float(query_cost)
    if not np.isfinite(q) or q < 0:
        raise InvalidInputError("query cost must be a finite non-negative real")
    costs = cost_set.costs
    if q > costs[-1]:
        raise OutOfRangeError(f"query cost {q} exceeds the cost cap {costs[-1]}")
    idx = int(np.searchsorted(costs, q, side="left"))
    return float(rule.probabilities[idx]), float(payments.payments[idx])


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


def expected_spend(rule: AllocationRule, payments: PaymentRule, cost_set: CostSet) -> float:
    """Expected payment ``(1/m) sum_k A_k P_k`` under the uniform cost draw.

    Asserts the identity with the expected virtual cost
    ``(1/m) sum_k A_k psi_k`` to 1e-9 relative.
    """
    alloc = rule.probabilities
    pay = payments.payments
    if alloc.size != len(cost_set) or pay.size != len(cost_set):
        raise InvalidInputError("rule, payments and cost set lengths differ")
    m = alloc.size
    spend = float(np.dot(alloc, pay)) / m
    virt = float(np.dot(alloc, virtual_costs(cost_set))) / m
    if abs(spend - virt) > max(1e-9 * abs(virt), 1e-12):
        raise SolverError(
            f"payment identity violated: spend {spend!r} vs virtual {virt!r}"
        )
    return spend
