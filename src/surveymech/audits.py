"""Property sweeps over randomized instances, shared by tests and the CLI.

Each suite draws its instances from an explicit seed, exercises one family of
structural guarantees, and reports the worst deviation observed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .allocation import _myerson, myerson_payments, solve_unbiased
from .ci_solver import _objective_rows, solve_ci
from .errors import InvalidInputError, _scalar, _whole
from .oracle import grid_search_unbiased, regularize_naive
from .simharness import truthfulness_audit
from .virtual_cost import CostSet, regularize, virtual_costs

__all__ = ["AuditOutcome", "SUITES", "run_suite"]


@dataclass
class AuditOutcome:
    """Result of one property sweep."""

    suite: str
    trials: int
    passed: bool
    worst: float
    detail: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.suite}: trials={self.trials} worst={self.worst:.3e} {self.detail}"


def random_cost_set(rng: np.random.Generator, max_m: int = 200, min_m: int = 1) -> CostSet:
    """Random sorted cost set; duplicates injected to exercise equal costs."""
    m = int(rng.integers(min_m, max_m + 1))
    cap = float(rng.uniform(1.0, 50.0))
    costs = np.sort(rng.uniform(0.0, cap, size=m))
    if m > 1 and rng.random() < 0.4:
        costs = np.sort(np.round(costs, 1))
        costs = np.minimum(costs, cap)
    return CostSet(costs=costs, cap=cap)


def _rel_gap(a: np.ndarray, b: np.ndarray) -> float:
    scale = np.maximum(np.abs(a), np.abs(b))
    scale[scale == 0] = 1.0
    return float(np.max(np.abs(a - b) / scale))


def audit_ironing(trials: int = 1000, seed: int = 0) -> AuditOutcome:
    """Fast ironing equals the literal O(m^2) definition to 1e-12 relative."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    anchor = CostSet(costs=np.array([1.0, 10.0, 11.0]), cap=11.0)
    psi = virtual_costs(anchor)
    worst = max(worst, _rel_gap(regularize(psi), regularize_naive(psi)))
    worst = max(worst, float(np.max(np.abs(psi - [1.0, 19.0, 13.0]))))
    worst = max(worst, float(np.max(np.abs(regularize(psi) - [1.0, 16.0, 16.0]))))
    for _ in range(trials):
        cs = random_cost_set(rng)
        p = virtual_costs(cs)
        worst = max(worst, _rel_gap(regularize(p), regularize_naive(p)))
    return AuditOutcome("ironing", trials, worst <= 1e-12, worst)


def _phi_of(costs: np.ndarray, cap: float) -> np.ndarray:
    return regularize(virtual_costs(CostSet(costs=costs, cap=cap)))


def audit_adjacency(trials: int = 1000, seed: int = 0) -> AuditOutcome:
    """Removing one cost changes ironed costs by at most 2x, and the solved
    rules/ignore masses move the guaranteed way under the paired budgets.

    ``detail`` separates the families.  The literal one-sided claim
    solve(T1, B/2) <= solve(T2, B) on shared upper entries is recorded in two
    disjoint families keyed by the size of the smaller set T1:

    * ``rule_vs_double``: T1 holds two or more costs.
    * ``rule_vs_double_singleton``: T1 is a single cost.  Here the literal
      claim fails at some budgets for every exact solver.  With T2 = {a, c}, 0 < a < c,
      T1 = {c} and B/2 < c, the lone cost pays no information rent, so
      solve(T1, B/2)(c) = B/(2c), while in T2 the cost c has virtual cost
      2c - a.  Unclipped, the ratio of the two allocations at c is
      (sqrt(a(2c - a)) + 2c - a) / (2c), maximal at a = (1 - 1/sqrt(2)) c
      where it equals (1 + sqrt(2))/2; clipping the low entry only lowers
      it, and B/2 >= c saturates both sides.  The allocation gap and the
      scaled A*P gap are therefore at most 1 - 2/(1 + sqrt(2)) =
      3 - 2*sqrt(2) ~ 0.17157, and the bound is sharp.

    The provable constant over all pairs is sqrt(2), see
    ``rule_vs_double_sqrt2``.  The outcome's ``passed`` covers the provable
    families (``phi_sandwich``, ``rule_vs_double_sqrt2``,
    ``rule_vs_quarter``, ``ignore_mass``); both literal families are
    reported for the caller to bound.
    """
    rng = np.random.default_rng(seed)
    tol = 1e-9
    sqrt2 = math.sqrt(2.0)
    worst = {
        "phi_sandwich": 0.0,
        "rule_vs_double": 0.0,
        "rule_vs_double_singleton": 0.0,
        "rule_vs_double_sqrt2": 0.0,
        "rule_vs_quarter": 0.0,
        "ignore_mass": 0.0,
    }
    for _ in range(trials):
        base = random_cost_set(rng, max_m=24, min_m=2)
        big = base.costs
        m = big.size
        k = int(rng.integers(0, m - 1))
        small = np.delete(big, k)
        cap = base.cap

        phi2 = _phi_of(big, cap)
        phi1 = _phi_of(small, cap)
        shared_small = np.delete(np.arange(m), k)
        for pos_small, pos_big in enumerate(shared_small):
            lo = 0.5 * phi1[pos_small] - tol
            hi = 2.0 * phi1[pos_small] + tol
            worst["phi_sandwich"] = max(
                worst["phi_sandwich"], lo - phi2[pos_big], phi2[pos_big] - hi
            )

        budget = float(rng.uniform(0.05, 1.5)) * float(np.sum(virtual_costs(base)))
        set1 = CostSet(costs=small, cap=cap)
        set2 = base
        r1 = solve_unbiased(set1, budget / 2)
        r2 = solve_unbiased(set2, budget)
        r3 = solve_unbiased(set2, budget / 4)
        p1 = myerson_payments(set1, r1).payments
        p2 = myerson_payments(set2, r2).payments
        p3 = myerson_payments(set2, r3).payments
        upper_big = np.arange(k + 1, m)
        upper_small = upper_big - 1
        a1 = r1.probabilities[upper_small]
        a2 = r2.probabilities[upper_big]
        a3 = r3.probabilities[upper_big]
        ap1 = r1.probabilities[k] * p1[k]
        ap2 = r2.probabilities[k + 1] * p2[k + 1]
        ap3 = r3.probabilities[k + 1] * p3[k + 1]
        scale = max(1.0, abs(ap1))
        literal = "rule_vs_double" if small.size >= 2 else "rule_vs_double_singleton"
        worst[literal] = max(
            worst[literal],
            float(np.max(a1 - a2)) - tol,
            (ap1 - ap2) / scale - tol,
        )
        worst["rule_vs_double_sqrt2"] = max(
            worst["rule_vs_double_sqrt2"],
            float(np.max(a1 - sqrt2 * a2)) - tol,
            (ap1 - sqrt2 * ap2) / scale - tol,
        )
        worst["rule_vs_quarter"] = max(
            worst["rule_vs_quarter"],
            float(np.max(a3 - a1)) - tol,
            (ap3 - ap1) / scale - tol,
        )

        beta = float(rng.uniform(0.1, 3.0))
        _, ig1 = solve_ci(set1, budget, beta)
        _, ig2 = solve_ci(set2, budget / 2, beta)
        worst["ignore_mass"] = max(
            worst["ignore_mass"], ig1.total_mass - ig2.total_mass - 1e-6
        )

    worst = {name: float(max(v, 0.0)) for name, v in worst.items()}
    provable = ("phi_sandwich", "rule_vs_double_sqrt2", "rule_vs_quarter", "ignore_mass")
    passed = all(worst[name] <= 1e-6 for name in provable)
    return AuditOutcome(
        "adjacency", trials, passed, max(worst[name] for name in provable), dict(worst)
    )


def audit_truthfulness(trials: int = 1000, seed: int = 0) -> AuditOutcome:
    """Solved and random monotone mechanisms pass the pairwise audit, and a
    deliberately corrupted payment is caught."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for t in range(trials):
        cs = random_cost_set(rng, max_m=25, min_m=1)
        if t % 2 == 0:
            budget = float(rng.uniform(0.02, 1.2)) * max(float(np.sum(virtual_costs(cs))), 1e-6) + 1e-9
            alloc = solve_unbiased(cs, budget).probabilities
        else:
            alloc = np.sort(rng.uniform(0.05, 1.0, size=len(cs)))[::-1]
        pay = _myerson(cs.costs, alloc)
        report = truthfulness_audit(cs.costs, alloc, pay)
        worst = max(worst, report.max_violation, report.ir_violation)

    corrupted = truthfulness_audit(
        np.array([1.0, 2.0]), np.array([1.0, 0.5]), np.array([1.4, 2.0])
    )
    detected = not corrupted.passed and abs(corrupted.max_violation - 0.1) < 1e-9
    passed = worst <= 1e-9 and detected
    return AuditOutcome(
        "truthfulness", trials, passed, worst,
        {"corruption_detected": detected, "corruption_violation": corrupted.max_violation},
    )


def audit_oracle(trials: int = 100, seed: int = 0) -> AuditOutcome:
    """Closed-form objective never exceeds the exhaustive grid optimum, on
    allocation steps of 0.01, by more than 1% relative (it may win, since
    the oracle is discretized)."""
    rng = np.random.default_rng(seed)
    worst = -math.inf
    for _ in range(trials):
        cs = random_cost_set(rng, max_m=6, min_m=1)
        psi_sum = float(np.sum(virtual_costs(cs)))
        if psi_sum <= 0:
            continue
        budget = float(rng.uniform(0.05, 1.15)) * psi_sum
        rule = solve_unbiased(cs, budget)
        closed = float(np.sum(1.0 / rule.probabilities))
        _, grid_obj = grid_search_unbiased(cs, budget, 1e-2)
        worst = max(worst, (closed - grid_obj) / grid_obj)
    passed = worst <= 0.01
    return AuditOutcome("oracle", trials, passed, worst)


def audit_convexity(trials: int = 100, seed: int = 0) -> AuditOutcome:
    """The outer CI objective, sampled at 101 evenly spaced ignored masses,
    is convex, and the solver's chosen mass sits within one sample cell of
    the sampled argmin."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        cs = random_cost_set(rng, max_m=30, min_m=2)
        psi_sum = float(np.sum(virtual_costs(cs)))
        budget = float(rng.uniform(0.05, 1.1)) * max(psi_sum, 1e-9)
        beta = float(rng.uniform(0.1, 3.0))
        m = len(cs)
        grid = np.linspace(0.0, m, 101)
        values = np.array(_objective_rows(cs, budget, beta, grid))
        second = np.diff(values, 2)
        worst = max(worst, float(np.max(-second)) if second.size else 0.0)
        _, ignore = solve_ci(cs, budget, beta)
        cell = grid[1] - grid[0]
        gap = abs(ignore.total_mass - grid[int(np.argmin(values))])
        worst = max(worst, max(0.0, gap - cell * 1.0000001))
    return AuditOutcome("convexity", trials, worst <= 1e-6, worst)


SUITES = {
    "ironing": audit_ironing,
    "adjacency": audit_adjacency,
    "truthfulness": audit_truthfulness,
    "oracle": audit_oracle,
    "convexity": audit_convexity,
}


def run_suite(name: str, trials: int | None = None, seed: int = 0) -> AuditOutcome:
    """Run one named suite.

    Raises:
        InvalidInputError: for an unknown name, ``trials`` (unless None)
            not a whole number ``>= 1``, or ``seed`` not a whole number
            ``>= 0``.
    """
    if name not in SUITES:
        raise InvalidInputError(f"unknown audit suite {name!r}; choose from {sorted(SUITES)}")
    if trials is not None:
        trials = _scalar(trials, "trials", 1, convert=_whole)
    seed = _scalar(seed, "seed", 0, convert=_whole)
    func = SUITES[name]
    if trials is None:
        return func(seed=seed)
    return func(trials=trials, seed=seed)
