"""Joint allocation/ignore rules minimizing confidence-interval length.

The solver trades the bias of discarding expensive data against the variance
of inverse-probability weighting.  For a cost set of size ``m`` and a width
multiplier ``beta`` it minimizes, at the adversarial data assignment z = 1,

    beta^2 * (1/m) * sum_j (1 - U_j) / A_j  +  (M / m)^2,      M = sum_j U_j,

subject to the expected spend of the non-ignored mass staying within budget
and ``(1 - U) * A`` monotone non-increasing.  The optimum ignores every cost
whose ironed virtual cost exceeds a threshold, splits one boundary block
fractionally, and uses the water-filling allocation on the rest.  The outer
objective is convex in the ignored mass ``M``, so a golden-section search
over ``M`` with exact inner calibration finds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .allocation import AllocationRule, _calibrate
from .errors import InvalidInputError, SolverError
from .virtual_cost import CostSet, _pav, virtual_costs

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

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_MAX_OUTER_ITERS = 200


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


def _block_mass_value(block_phi, block_sqrt, sizes, mass, budget, scale, m):
    """Outer objective at ignored mass ``mass`` from block-level sums only.

    Equivalent to the array evaluation: within every maximal equal-phi block
    the ignore weight and the allocation are constant, so the calibration and
    the variance term reduce to O(#blocks) scalar arithmetic.
    """
    nblocks = len(sizes)
    top, fraction = _fill_from_top(sizes, mass)
    weights = [1.0] * nblocks
    if top < nblocks:
        weights[top] = 1.0 - fraction
        weights[top + 1:] = [0.0] * (nblocks - top - 1)
    total_spend = 0.0
    slope = 0.0
    for b in range(nblocks):
        total_spend += weights[b] * block_phi[b] * sizes[b]
        slope += weights[b] * block_sqrt[b] * sizes[b]
    bias = (mass / m) ** 2
    if total_spend <= budget:
        return scale * (m - mass) + bias
    # breakpoint scan as in the array calibration: the first breakpoint whose
    # spend reaches the budget pins the linear segment holding lam
    clipped = 0.0
    lam = None
    for t in range(nblocks):
        if clipped + block_sqrt[t] * slope >= budget:
            lam = (budget - clipped) / slope
            break
        clipped += weights[t] * block_phi[t] * sizes[t]
        slope -= weights[t] * block_sqrt[t] * sizes[t]
    if lam is None:  # numerically at the saturation boundary
        return scale * (m - mass) + bias
    variance_term = 0.0
    for b in range(nblocks):
        w = weights[b]
        if w <= 0:
            continue
        if lam <= 0:
            if block_phi[b] > 0:
                return math.inf
            variance_term += w * sizes[b]
            continue
        ratio = block_sqrt[b] / lam
        variance_term += w * sizes[b] * (ratio if ratio > 1.0 else 1.0)
    return scale * variance_term + bias


def _mass_objective(phi, starts, ends, budget, beta):
    """The outer objective as a function of the ignored mass, per block."""
    m = phi.size
    block_phi = phi[starts].tolist()
    block_sqrt = [math.sqrt(p) for p in block_phi]
    sizes = (ends - starts).tolist()
    scale = beta * beta / m

    def value(mass):
        return _block_mass_value(block_phi, block_sqrt, sizes, mass, budget, scale, m)

    return value


def _solve_mass(value, m):
    """Golden-section search for the convex outer ``value`` over mass in [0, m]."""
    lo, hi = 0.0, float(m)
    x1 = hi - _INVPHI * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    f1, f2 = value(x1), value(x2)
    for _ in range(_MAX_OUTER_ITERS):
        if hi - lo <= 1e-12 * max(1.0, m):
            break
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INVPHI * (hi - lo)
            f1 = value(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INVPHI * (hi - lo)
            f2 = value(x2)
    # Snap to the best of the bracket, its midpoint, and the endpoints; ties
    # resolve toward less ignoring.
    candidates = sorted({0.0, float(m), lo, hi, 0.5 * (lo + hi), x1, x2})
    best_mass, best_val = 0.0, math.inf
    for mass in candidates:
        val = value(mass)
        if val < best_val:
            best_mass, best_val = mass, val
    return best_mass


def _solve_ci_arrays(phi, psi, budget, beta):
    """Full CI solve on raw arrays; returns (alloc, lam, saturated, u, H, p, mass)."""
    starts, ends = _phi_blocks(phi)
    mass = _solve_mass(_mass_objective(phi, starts, ends, budget, beta), phi.size)
    u, threshold, fraction = _ignore_profile(phi, starts, ends, mass)
    alloc, lam, saturated = _calibrate(phi, psi, 1.0 - u, budget)
    return alloc, lam, saturated, u, threshold, fraction, mass


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
    phi = _pav(psi)
    alloc, lam, saturated, u, threshold, fraction, mass = _solve_ci_arrays(phi, psi, budget, beta)
    rule = AllocationRule(probabilities=alloc, lam=lam, saturated=saturated)
    ignore = IgnoreRule(
        u_values=u,
        threshold_phi=threshold,
        boundary_fraction=fraction,
        total_mass=mass,
    )
    return rule, ignore


def g_derivative(cost_set: CostSet, budget: float, beta: float, mass: float) -> float:
    """Right derivative of the variance term at ignored mass ``mass``.

    Equals ``-beta^2 * (2/m) / A_M(c_r)`` where ``c_r`` is the largest cost
    not ignored with probability one; non-decreasing in ``mass`` because the
    variance term is convex.

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
    psi = virtual_costs(cost_set)
    phi = _pav(psi)
    starts, ends = _phi_blocks(phi)
    u, _, _ = _ignore_profile(phi, starts, ends, mass)
    alloc, _, _ = _calibrate(phi, psi, 1.0 - u, budget)
    live = np.flatnonzero(u < 1.0)
    r = int(live[-1])
    if alloc[r] <= 0:
        raise SolverError("subproblem infeasible: zero allocation at the marginal cost")
    return -beta * beta * 2.0 / m / float(alloc[r])


def objective_at_mass(cost_set: CostSet, budget: float, beta: float, mass: float) -> float:
    """Outer objective at a prescribed ignored mass (allocation optimized).

    Convex in ``mass``; used to audit the outer search.
    """
    mass = float(mass)
    m = len(cost_set)
    if not 0 <= mass <= m:
        raise InvalidInputError("mass must lie in [0, m]")
    phi = _pav(virtual_costs(cost_set))
    starts, ends = _phi_blocks(phi)
    return _mass_objective(phi, starts, ends, float(budget), float(beta))(mass)


def ci_objective(rule: AllocationRule, ignore: IgnoreRule, beta: float, n: int) -> float:
    """Objective ``beta^2 (1/n) sum (1-U_k)/A_k + (sum U_k / n)^2`` at z = 1."""
    alloc = rule.probabilities
    u = ignore.u_values
    if alloc.size != u.size or alloc.size != n:
        raise InvalidInputError("rule, ignore rule and n must agree in length")
    weights = 1.0 - u
    live = weights > 0
    with np.errstate(divide="ignore"):
        variance_term = float(np.sum(weights[live] / alloc[live]))
    return float(beta) ** 2 * variance_term / n + (float(np.sum(u)) / n) ** 2
