"""Joint allocation/ignore rules minimizing confidence-interval length.

The solver trades the bias of discarding expensive data against the variance
of inverse-probability weighting.  For a cost set of size ``m`` and a width
multiplier ``beta`` it minimizes, at the adversarial data assignment z = 1,

    beta^2 * (1/m) * sum_j (1 - U_j) / A_j  +  (M / m)^2,      M = sum_j U_j,

subject to the expected spend of the non-ignored mass staying within budget
and ``(1 - U) * A`` monotone non-increasing.  The optimum ignores every cost
whose ironed virtual cost exceeds a threshold, splits one boundary block
fractionally, and uses the water-filling allocation on the rest.  The outer
objective is convex in the ignored mass ``M`` and a convex quadratic between
block events, so one upward sweep over those pieces finds its minimizer in
closed form; the rule at that mass comes from the same fill-from-the-top
step and calibration that ``objective_at_mass`` and ``g_derivative`` use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .allocation import AllocationRule, _calibrate, _myerson
from .errors import InvalidInputError, SolverError
from .virtual_cost import CostSet, _iron, virtual_costs

__all__ = [
    "IgnoreRule",
    "CIParameters",
    "alpha_gamma",
    "ci_parameters",
    "solve_ci",
    "g_derivative",
    "ci_objective",
    "objective_at_mass",
]

@dataclass(frozen=True)
class IgnoreRule:
    """Threshold rule discarding data by ironed virtual cost.

    ``u_values[k]`` is the probability of discarding the k-th grid cost: zero
    below ``threshold_phi``, one above it, and ``boundary_fraction`` on the
    block equal to it.  ``total_mass`` is the expected number of discards.
    """

    u_values: np.ndarray
    threshold_phi: float
    boundary_fraction: float
    total_mass: float

    def __post_init__(self):
        u = np.asarray(self.u_values, dtype=float)
        if u.ndim != 1 or u.size == 0:
            raise InvalidInputError("u_values must be a non-empty 1-D sequence")
        if np.any(u < 0) or np.any(u > 1):
            raise InvalidInputError("u_values must lie in [0, 1]")
        if np.any(np.diff(u) < -1e-12):
            raise InvalidInputError("u_values must be monotone non-decreasing")
        if not 0 < self.boundary_fraction <= 1:
            raise InvalidInputError("boundary_fraction must lie in (0, 1]")
        u = u.copy()
        u.setflags(write=False)
        object.__setattr__(self, "u_values", u)
        object.__setattr__(self, "threshold_phi", float(self.threshold_phi))
        object.__setattr__(self, "boundary_fraction", float(self.boundary_fraction))
        object.__setattr__(self, "total_mass", float(self.total_mass))

    def __len__(self) -> int:
        return int(self.u_values.size)


@dataclass(frozen=True)
class CIParameters:
    """Confidence level and the derived interval-width constants."""

    gamma: float
    alpha_gamma: float
    beta: float


def alpha_gamma(gamma: float) -> float:
    """Concentration constant of the empirical-variance interval.

    Uses the conservative upper end ``sqrt(2 ln(4/g)) + 7 ln(4/g) / 3``, valid
    because the weighted data are bounded by ``sqrt(n) * sigma_hat``.

    Raises:
        InvalidInputError: unless ``0 < gamma < 1``.
    """
    gamma = float(gamma)
    if not 0.0 < gamma < 1.0:
        raise InvalidInputError("gamma must lie strictly between 0 and 1")
    log_term = math.log(4.0 / gamma)
    return math.sqrt(2.0 * log_term) + 7.0 * log_term / 3.0


def ci_parameters(gamma: float, n: int) -> CIParameters:
    """Width constants for a survey of ``n`` agents at confidence ``gamma``."""
    if n < 1:
        raise InvalidInputError("n must be at least 1")
    alpha = alpha_gamma(gamma)
    return CIParameters(gamma=float(gamma), alpha_gamma=alpha, beta=2.0 * alpha / math.sqrt(n))


def _phi_blocks(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start/end (exclusive) indices of maximal equal-phi blocks."""
    change = np.flatnonzero(np.diff(phi) != 0) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [phi.size]))
    return starts, ends


def _fill_from_top(sizes, mass: float) -> tuple[int, float]:
    """Spread ignored mass ``mass`` over the blocks of ``sizes`` from the top.

    Returns ``(top, fraction)``: every block above ``top`` is ignored in full
    and block ``top`` in ``fraction`` of its size, with ``0 < fraction <= 1``;
    ``top == len(sizes)`` (fraction 1) when nothing is ignored.
    """
    top = len(sizes)
    rem = mass
    while rem > 0 and top > 0:
        top -= 1
        if rem < sizes[top]:
            return top, rem / sizes[top]
        rem -= sizes[top]
    return top, 1.0


def _ignore_profile(phi: np.ndarray, starts: np.ndarray, ends: np.ndarray, mass: float):
    """Per-cost ignore probabilities of mass ``mass``, with threshold and fraction."""
    top, fraction = _fill_from_top((ends - starts).tolist(), mass)
    u = np.zeros(phi.size)
    if top == starts.size:
        return u, math.inf, fraction
    u[starts[top]:ends[top]] = fraction
    u[ends[top]:] = 1.0
    return u, float(phi[starts[top]]), fraction


def _rule_at_mass(phi, psi, starts, ends, budget, mass):
    """The rule at ignored mass ``mass``: fill it from the top, then calibrate.

    Returns ``(alloc, lam, saturated, u, threshold, fraction)``.
    """
    u, threshold, fraction = _ignore_profile(phi, starts, ends, mass)
    alloc, lam, saturated = _calibrate(phi, psi, 1.0 - u, budget)
    return alloc, lam, saturated, u, threshold, fraction


def _optimal_mass(phi, starts, ends, budget, beta):
    """Smallest minimizer of the outer objective over ignored mass in [0, m].

    ``F(M) = s V(M) + (M/m)^2`` with ``s = beta^2/m``.  While the budget
    binds, the live blocks below ``j`` are clipped at A = 1 and
    ``V = K + S1^2 / (B - C)``: ``K`` and ``C`` are the size and spend of the
    clipped blocks and ``S1`` the sum of ``w * size * sqrt(phi)`` over the
    rest, linear in ``M``.  So ``F`` is a convex quadratic on each piece, with
    right slope ``-2s / A_top + 2M/m^2``.  A piece ends when the top live
    block runs out, when ``lam = (B - C)/S1`` reaches ``sqrt(phi_j)``, or when
    the live spend reaches ``B``; from there on the budget is slack and
    ``F = s (m - M) + (M/m)^2``.  Walks the pieces upward and returns
    ``(mass, slack)``: the first point whose right slope is >= 0, and whether
    the budget is slack there.
    """
    m = phi.size
    sizes = ends - starts
    block_phi = phi[starts]
    block_sqrt = np.sqrt(block_phi)
    spend_below = np.concatenate(([0.0], np.cumsum(sizes * block_phi)))
    sqrt_below = np.concatenate(([0.0], np.cumsum(sizes * block_sqrt)))
    # lowest block not clipped at M = 0, as in the calibration's breakpoint scan
    spend_at_breakpoints = spend_below[:-1] + block_sqrt * (sqrt_below[-1] - sqrt_below[:-1])
    j = int(np.searchsorted(spend_at_breakpoints, budget))
    sizes, block_phi, block_sqrt = sizes.tolist(), block_phi.tolist(), block_sqrt.tolist()
    spend_below, sqrt_below = spend_below.tolist(), sqrt_below.tolist()
    s = beta * beta / m
    inv_m2 = 1.0 / (m * m)
    slack_root = min(float(m), 0.5 * beta * beta * m)  # zero of -s + 2M/m^2
    top = len(sizes) - 1
    live = float(sizes[top])
    above = 0  # mass of the blocks above ``top``, all ignored
    while top >= 0:
        mass = above + (sizes[top] - live)
        live_spend = spend_below[top] + live * block_phi[top]
        if live_spend <= budget or j > top:
            return max(mass, slack_root), True
        to_slack = (live_spend - budget) / block_phi[top]
        event = min(live, to_slack)
        room = budget - spend_below[j]
        if room > 0:  # else lam = 0 and the slope is -inf up to the event
            s1 = sqrt_below[top] - sqrt_below[j] + live * block_sqrt[top]
            a = s * block_sqrt[top] / room
            if mass * inv_m2 >= a * s1:
                return mass, False
            step = (a * s1 - mass * inv_m2) / (a * block_sqrt[top] + inv_m2)
            if j < top:
                event = min(event, (s1 - room / block_sqrt[j]) / block_sqrt[top])
            if step < event:
                return mass + step, False
        if event == to_slack:
            return max(mass + event, slack_root), True
        if event < live:
            # lam reached sqrt(phi_j): advance j explicitly, since recomputing
            # lam at this point can stall on rounding
            live -= event
            j += 1
        else:
            above += sizes[top]
            top -= 1
            live = float(sizes[top])
    return float(m), True


def _solve_ci_arrays(phi, psi, budget, beta):
    """Full CI solve on raw arrays; returns (alloc, lam, saturated, u, H, p, mass)."""
    starts, ends = _phi_blocks(phi)
    mass, slack = _optimal_mass(phi, starts, ends, budget, beta)
    rule = _rule_at_mass(phi, psi, starts, ends, budget, mass)
    # On the saturation kink the calibration's own spend sum decides: step up
    # until it agrees the budget is slack (rule[2], ``saturated``), so the
    # rule is the right-hand one.
    step = math.ulp(float(phi.size))
    while slack and not rule[2] and mass < phi.size:
        mass = min(float(phi.size), mass + step)
        step *= 2.0
        rule = _rule_at_mass(phi, psi, starts, ends, budget, mass)
    return rule + (mass,)


def solve_ci(cost_set: CostSet, budget: float, beta: float) -> tuple[AllocationRule, IgnoreRule]:
    """Jointly optimal allocation and ignore rules for interval length.

    Raises:
        InvalidInputError: for a negative budget or non-positive ``beta``.
    """
    budget = float(budget)
    beta = float(beta)
    if not np.isfinite(budget) or budget < 0:
        raise InvalidInputError("budget must be a non-negative finite real")
    if not np.isfinite(beta) or beta <= 0:
        raise InvalidInputError("beta must be a positive finite real")
    psi = virtual_costs(cost_set)
    phi = _iron(psi)
    alloc, lam, saturated, u, threshold, fraction, mass = _solve_ci_arrays(phi, psi, budget, beta)
    rule = AllocationRule(probabilities=alloc, lam=lam, saturated=saturated)
    ignore = IgnoreRule(
        u_values=u,
        threshold_phi=threshold,
        boundary_fraction=fraction,
        total_mass=mass,
    )
    return rule, ignore


def _variance_sum(alloc: np.ndarray, u: np.ndarray) -> float:
    """``sum_k (1 - U_k) / A_k`` over the costs not ignored for sure."""
    weights = 1.0 - u
    live = weights > 0
    with np.errstate(divide="ignore"):
        return float(np.sum(weights[live] / alloc[live]))


def _deployed_policy(costs: np.ndarray, alloc: np.ndarray, u: np.ndarray):
    """The ignore indicator ``U >= 1/2`` that is deployed, and its prices.

    Payments are the minimal truthful prices for the effective allocation
    ``(1 - indicator) * A`` (prices against the raw A would let an ignored
    agent profit by under-reporting); NaN where it is zero.
    """
    ignored = u >= 0.5
    return ignored, _myerson(costs, np.where(ignored, 0.0, alloc))


def _rule_for(cost_set: CostSet, budget: float, mass: float):
    """``_rule_at_mass`` on a cost set; returns ``(alloc, saturated, u)``."""
    psi = virtual_costs(cost_set)
    phi = _iron(psi)
    starts, ends = _phi_blocks(phi)
    alloc, _, saturated, u, _, _ = _rule_at_mass(phi, psi, starts, ends, budget, mass)
    return alloc, saturated, u


def g_derivative(cost_set: CostSet, budget: float, beta: float, mass: float) -> float:
    """Right derivative of the variance term at ignored mass ``mass``.

    Equals ``-beta^2 * (2/m) / A_M(c_r)`` while the budget binds, where
    ``c_r`` is the largest cost not ignored with probability one, and
    ``-beta^2 / m`` where the live set is bought in full; non-decreasing in
    ``mass`` because the variance term is convex.

    Raises:
        SolverError: when the budget cannot support any purchase at ``mass``
            (the subproblem's allocation vanishes at ``c_r``).
    """
    budget = float(budget)
    beta = float(beta)
    mass = float(mass)
    m = len(cost_set)
    if not 0 <= mass < m:
        raise InvalidInputError("mass must lie in [0, m)")
    if not np.isfinite(budget) or budget < 0:
        raise InvalidInputError("budget must be a non-negative finite real")
    alloc, saturated, u = _rule_for(cost_set, budget, mass)
    if saturated:
        return -beta * beta / m
    a_r = float(alloc[np.flatnonzero(u < 1.0)[-1]])
    if a_r <= 0:
        raise SolverError("subproblem infeasible: zero allocation at the marginal cost")
    return -beta * beta * 2.0 / m / a_r


def objective_at_mass(cost_set: CostSet, budget: float, beta: float, mass: float) -> float:
    """Outer objective at a prescribed ignored mass (allocation optimized).

    Convex in ``mass``; used to audit the outer search.  Evaluates the rule
    ``solve_ci`` would return at this mass.
    """
    mass = float(mass)
    m = len(cost_set)
    if not 0 <= mass <= m:
        raise InvalidInputError("mass must lie in [0, m]")
    alloc, _, u = _rule_for(cost_set, float(budget), mass)
    return float(beta) ** 2 * _variance_sum(alloc, u) / m + (mass / m) ** 2


def ci_objective(rule: AllocationRule, ignore: IgnoreRule, beta: float, n: int) -> float:
    """Objective ``beta^2 (1/n) sum (1-U_k)/A_k + (sum U_k / n)^2`` at z = 1."""
    alloc = rule.probabilities
    u = ignore.u_values
    if alloc.size != u.size or alloc.size != n:
        raise InvalidInputError("rule, ignore rule and n must agree in length")
    return float(beta) ** 2 * _variance_sum(alloc, u) / n + (float(np.sum(u)) / n) ** 2
