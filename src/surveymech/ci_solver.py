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
Every step works on the rows of a padded batch: the online runner solves a
batch of rounds in one call, and ``solve_ci`` a batch of one.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .allocation import AllocationRule, _calibrate_rows, _myerson
from .errors import InvalidInputError, SolverError, _scalar, _vector, _whole
from .virtual_cost import CostSet, _iron_rows, virtual_costs

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
        u = _vector(self.u_values, "u_values", 0.0, 1.0)
        if np.any(np.diff(u) < -1e-12):
            raise InvalidInputError("u_values must be monotone non-decreasing")
        # the threshold alone may be +inf: no cost is ignored for sure
        threshold = self.threshold_phi
        threshold = math.inf if threshold == math.inf else _scalar(threshold, "threshold_phi")
        fraction = _scalar(self.boundary_fraction, "boundary_fraction", 0.0, 1.0)
        if not fraction > 0:
            raise InvalidInputError("boundary_fraction must be positive")
        object.__setattr__(self, "u_values", u)
        object.__setattr__(self, "threshold_phi", threshold)
        object.__setattr__(self, "boundary_fraction", fraction)
        object.__setattr__(self, "total_mass", _scalar(self.total_mass, "total_mass", 0.0, u.size))

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
    gamma = _scalar(gamma, "gamma", 0.0, 1.0)
    if not 0.0 < gamma < 1.0:
        raise InvalidInputError("gamma must lie strictly between 0 and 1")
    log_term = math.log(4.0 / gamma)
    return math.sqrt(2.0 * log_term) + 7.0 * log_term / 3.0


def ci_parameters(gamma: float, n: int) -> CIParameters:
    """Width constants for a survey of ``n`` agents at confidence ``gamma``.

    Raises:
        InvalidInputError: unless ``0 < gamma < 1`` and ``n`` is a whole
            number of at least 1.
    """
    n = _scalar(n, "n", 1, convert=_whole)
    alpha = alpha_gamma(gamma)
    return CIParameters(gamma=float(gamma), alpha_gamma=alpha, beta=2.0 * alpha / math.sqrt(n))


def _block_rows(phi, sizes):
    """``(edges, counts)`` of the maximal equal-phi blocks of each row of a
    padded 2-D ``phi``: the block starts, then the row size, padded with it,
    and the number of blocks."""
    cols = np.arange(phi.shape[1] + 1)
    m = sizes[:, None]
    first = np.ones((phi.shape[0], cols.size), dtype=bool)
    np.not_equal(phi[:, 1:], phi[:, :-1], out=first[:, 1:-1])
    first &= cols < m
    edges = np.where(first, cols, m)
    edges.sort(axis=1)
    counts = np.add.reduce(first, axis=1)
    return edges[:, :max(counts.tolist()) + 1], counts


def _rule_at_mass(phi, psi, sizes, budgets, edges, mass):
    """Each row's ``(alloc, lam, saturated, u)`` at ignored mass ``mass[r]``.

    Block ``b`` gets ``u = clip((M - mass of the blocks above b) / size_b, 0, 1)``,
    so the mass fills from the top; the padding gets none.  The rows are then
    calibrated together with weights ``1 - u``.
    """
    block_size = edges[:, 1:] - edges[:, :-1]
    # exact while non-negative: the remainder left by ignoring the blocks above one by one
    left = mass[:, None] - (sizes[:, None] - edges[:, 1:])
    share = np.clip(left / np.maximum(block_size, 1), 0.0, 1.0)  # padding blocks span no entry
    u = np.zeros(phi.shape)
    u[np.arange(phi.shape[1]) < sizes[:, None]] = np.repeat(share.ravel(), block_size.ravel())
    return _calibrate_rows(phi, psi, 1.0 - u, budgets, sizes) + (u,)


def _optimal_mass(sizes, block_phi, block_sqrt, spend_below, sqrt_below, j, top, above, m, budget, beta):
    """Smallest minimizer of the outer objective over ignored mass in [0, m].

    Takes a row's blocks as lists (sizes, phi, sqrt(phi), and the sums of
    ``size * phi`` and ``size * sqrt(phi)`` below each), the lowest block
    ``j`` not clipped at M = 0, and the block ``top`` the walk starts at,
    with ``above`` the (integer) mass of the blocks above it, all ignored.
    The lists need only reach ``top``: the walk reads nothing above it.
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

    Started at the top block, the walk reaches a lower block ``t`` with
    ``j`` unchanged, ``live = size_t`` and ``above`` the mass over ``t``
    whenever every iteration above ``t`` only dropped its block; so starting
    at ``t`` in that state, as ``_solve_ci_rows`` does, gives the same bits.
    """
    s = beta * beta / m
    inv_m2 = 1.0 / (m * m)
    slack_root = min(float(m), 0.5 * beta * beta * m)  # zero of -s + 2M/m^2
    live = float(sizes[top])
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


def _walk_starts(edges, counts, block_phi, block_sqrt, spend_below, sqrt_below, j, budgets, beta):
    """Each row's highest block at which ``_optimal_mass``' first iteration
    does more than drop the block, or -1 where there is none.

    Evaluates that iteration at every block ``t`` of every row at once, in
    the state the walk reaches ``t`` in while it only drops blocks: ``live =
    size_t``, ``above`` the mass over ``t`` and ``j`` unchanged.  Every
    expression is the walk's, in its order, and Python's ``min(a, b)`` is
    ``where(b < a, b, a)``, so each test gives the walk's answer wherever the
    walk gets to ask it; lanes it never reaches may divide by zero or overflow.
    """
    rows = np.arange(edges.shape[0])[:, None]
    t = np.arange(block_phi.shape[1])
    m = edges[:, -1:]
    size = edges[:, 1:] - edges[:, :-1]
    budget = np.array(budgets, dtype=float)[:, None]
    j = j[:, None]
    s = beta * beta / m
    inv_m2 = 1.0 / (m * m)
    live = size.astype(float)
    mass = (m - edges[:, 1:]) + (size - live)
    with np.errstate(all="ignore"):
        live_spend = spend_below[:, :-1] + live * block_phi
        acts = (live_spend <= budget) | (j > t)
        to_slack = (live_spend - budget) / block_phi
        event = np.where(to_slack < live, to_slack, live)
        room = budget - spend_below[rows, j]
        s1 = sqrt_below[:, :-1] - sqrt_below[rows, j] + live * block_sqrt
        a = s * block_sqrt / room
        acts |= (room > 0) & (mass * inv_m2 >= a * s1)
        step = (a * s1 - mass * inv_m2) / (a * block_sqrt + inv_m2)
        lam_event = (s1 - room / block_sqrt[rows, np.minimum(j, t[-1])]) / block_sqrt
        event = np.where((room > 0) & (j < t) & (lam_event < event), lam_event, event)
        acts |= (room > 0) & (step < event)
    acts |= (event == to_slack) | (event < live)
    acts &= t < counts[:, None]
    return np.where(acts.any(axis=1), t[-1] - np.argmax(acts[:, ::-1], axis=1), -1)


def _solve_ci_rows(phi, psi, sizes, budgets, beta):
    """The CI solve of each row of a padded batch: ``(A, lam, saturated, U, mass)``.

    Row ``r`` holds ``sizes[r]`` ironed and raw virtual costs, padded with
    ``phi = 0`` as for ``_calibrate_rows``, and has budget ``budgets[r]``.
    The block split, the sweep's set-up, the fill and the calibration run on
    all rows at once; ``np.add.accumulate`` adds along a row in order, so each row
    gets the bits of a batch of one.  ``A`` is 1 and ``U`` 0 on the padding.

    Most iterations of a row's walk from its top block only drop an ignored
    block.  ``_walk_starts`` finds, for all rows at once, the highest block
    where the first iteration does more; the walk starts there, in the state
    it would have reached it in, and reads only the blocks up to it.  A row
    with no such block has mass ``m`` and a slack budget, as the walk would
    return after dropping them all.  The walk still computes every result."""
    edges, counts = _block_rows(phi, sizes)
    block_size = edges[:, 1:] - edges[:, :-1]  # 0 past a row's last block
    block_phi = np.take_along_axis(phi, edges[:, 1:] - 1, axis=1)  # read at each block's last entry
    block_sqrt = np.sqrt(block_phi)
    spend_below, sqrt_below = sums = np.zeros((2, phi.shape[0], edges.shape[1]))
    np.add.accumulate(block_size * np.array((block_phi, block_sqrt)), axis=2, out=sums[:, :, 1:])
    # spend with lam at each breakpoint, as in the calibration's breakpoint
    # scan; ``bisect_left`` probes as ``searchsorted`` does, sorted or not
    spend_bp = spend_below[:, :-1] + block_sqrt * (sqrt_below[:, -1:] - sqrt_below[:, :-1])
    j = np.array([bisect.bisect_left(bp, budget, 0, k)
                  for bp, budget, k in zip(spend_bp.tolist(), budgets, counts.tolist())])
    start = _walk_starts(edges, counts, block_phi, block_sqrt, spend_below, sqrt_below, j, budgets, beta)
    above = sizes - np.take_along_axis(edges, start[:, None] + 1, axis=1)[:, 0]
    # the walk reads each row's blocks up to its start only: gather those, row after row
    read = np.flatnonzero(np.arange(block_phi.shape[1]) <= start[:, None])
    lists = [block_size.take(read).tolist()] + np.array(
        (block_phi, block_sqrt, spend_below[:, :-1], sqrt_below[:, :-1])).reshape(4, -1).take(read, axis=1).tolist()
    ends = np.add.accumulate(start + 1).tolist()
    mass, slack = map(np.array, zip(*[
        _optimal_mass(*[part[end - top - 1:end] for part in lists], j0, top, above_top, m, budget, beta)
        if top >= 0 else (float(m), True)
        for m, top, above_top, j0, budget, end in zip(sizes.tolist(), start.tolist(), above.tolist(),
                                                      j.tolist(), budgets, ends)]))
    alloc, lam, saturated, u = _rule_at_mass(phi, psi, sizes, budgets, edges, mass)
    # On the saturation kink the calibration's own spend sum decides: step a row up from
    # ulp(m), doubling, until it agrees the budget is slack (as it does at mass m).
    todo = (slack & ~saturated).nonzero()[0]
    scale = 1.0
    while todo.size:
        mass[todo] = np.minimum(sizes[todo], mass[todo] + np.spacing(sizes[todo].astype(float)) * scale)
        scale *= 2.0
        alloc[todo], lam[todo], saturated[todo], u[todo] = _rule_at_mass(
            phi[todo], psi[todo], sizes[todo], [budgets[r] for r in todo.tolist()], edges[todo],
            mass[todo])
        todo = todo[~saturated[todo] & (mass[todo] < sizes[todo])]
    return alloc, lam, saturated, u, mass


def solve_ci(cost_set: CostSet, budget: float, beta: float) -> tuple[AllocationRule, IgnoreRule]:
    """Jointly optimal allocation and ignore rules for the CI task.

    Minimises the squared surrogate ``beta^2 (1/m) sum (1-U)/A + (sum U / m)^2``
    of the module docstring, the value ``ci_objective`` and
    ``oracle.grid_search_ci`` compute, over relaxed rules (``U`` fractional).
    That is not the interval length ``beta sqrt((1/m) sum (1-U)/A) + sum U / m``,
    which ``online_runner.benchmark_ci`` reports as ``L*``.  With ``x`` and
    ``y`` the length's two terms, ``x^2 + y^2 <= (x + y)^2 <= 2 (x^2 + y^2)``,
    so the surrogate's minimiser is at most ``sqrt(2)`` times longer than the
    shortest relaxed rule.

    Raises:
        InvalidInputError: for a negative or non-finite budget, or a
            non-positive or non-finite ``beta``.
    """
    budget = _scalar(budget, "budget", 0.0)
    beta = _scalar(beta, "beta", 0.0)
    if not beta > 0:
        raise InvalidInputError("beta must be positive")
    psi = virtual_costs(cost_set)[None, :]
    sizes = np.array([psi.size])
    phi = _iron_rows(psi, sizes)
    alloc, lam, saturated, u, mass = _solve_ci_rows(phi, psi, sizes, (budget,), beta)
    # The boundary block is the lowest one with any ignore probability.
    touched = (u[0] > 0).nonzero()[0]
    threshold, fraction = math.inf, 1.0
    if touched.size:
        threshold, fraction = float(phi[0, touched[0]]), float(u[0, touched[0]])
    rule = AllocationRule(probabilities=alloc[0], lam=lam[0], saturated=bool(saturated[0]))
    ignore = IgnoreRule(
        u_values=u[0],
        threshold_phi=threshold,
        boundary_fraction=fraction,
        total_mass=mass[0],
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


def _rule_for(cost_set: CostSet, budget: float, masses):
    """``_rule_at_mass`` on a cost set at each of ``masses``, one row per mass
    of a batch ironed and split into blocks once; ``(alloc, saturated, u)``."""
    psi = virtual_costs(cost_set)[None, :]
    sizes = np.array([psi.size])
    phi = _iron_rows(psi, sizes)
    rows = len(masses)
    phi, psi, sizes, edges = (
        np.repeat(a, rows, axis=0) for a in (phi, psi, sizes, _block_rows(phi, sizes)[0]))
    alloc, _, saturated, u = _rule_at_mass(
        phi, psi, sizes, (budget,) * rows, edges, np.array(masses, dtype=float))
    return alloc, saturated, u


def _objective_rows(cost_set: CostSet, budget: float, beta: float, masses) -> list[float]:
    """The outer objective at each of ``masses``, from one ``_rule_for`` batch."""
    m = len(cost_set)
    masses = np.array(masses, dtype=float)
    alloc, _, u = _rule_for(cost_set, budget, masses)
    return [beta ** 2 * _variance_sum(a, w) / m + (mass / m) ** 2
            for a, w, mass in zip(alloc, u, masses.tolist())]


def g_derivative(cost_set: CostSet, budget: float, beta: float, mass: float) -> float:
    """Right derivative of the variance term at ignored mass ``mass``.

    Equals ``-beta^2 * (2/m) / A_M(c_r)`` while the budget binds, where
    ``c_r`` is the largest cost not ignored with probability one, and
    ``-beta^2 / m`` where the live set is bought in full; non-decreasing in
    ``mass`` because the variance term is convex.

    Raises:
        InvalidInputError: for an invalid budget, ``beta`` or ``mass``.
        SolverError: when the budget cannot support any purchase at ``mass``
            (the subproblem's allocation vanishes at ``c_r``).
    """
    budget = _scalar(budget, "budget", 0.0)
    beta = _scalar(beta, "beta", 0.0)
    if not beta > 0:
        raise InvalidInputError("beta must be positive")
    m = len(cost_set)
    mass = _scalar(mass, "mass", 0.0, m)
    if not mass < m:
        raise InvalidInputError("mass must lie in [0, m)")
    [alloc], [saturated], [u] = _rule_for(cost_set, budget, (mass,))
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

    Raises:
        InvalidInputError: for an invalid budget, ``beta`` or ``mass``.
    """
    budget = _scalar(budget, "budget", 0.0)
    beta = _scalar(beta, "beta", 0.0)
    if not beta > 0:
        raise InvalidInputError("beta must be positive")
    m = len(cost_set)
    mass = _scalar(mass, "mass", 0.0, m)
    return _objective_rows(cost_set, budget, beta, (mass,))[0]


def ci_objective(rule: AllocationRule, ignore: IgnoreRule, beta: float, n: int) -> float:
    """Squared surrogate ``beta^2 (1/n) sum (1-U_k)/A_k + (sum U_k / n)^2`` at z = 1.

    This is what ``solve_ci`` minimises, not the interval length
    ``beta sqrt((1/n) sum (1-U_k)/A_k) + sum U_k / n``; see ``solve_ci`` for
    how the two bound each other.

    Raises:
        InvalidInputError: for rules not of length ``n``, or an invalid ``beta``.
    """
    alloc = rule.probabilities
    u = ignore.u_values
    n = _scalar(n, "n", convert=_whole)
    if alloc.size != u.size or alloc.size != n:
        raise InvalidInputError("rule, ignore rule and n must agree in length")
    beta = _scalar(beta, "beta", 0.0)
    if not beta > 0:
        raise InvalidInputError("beta must be positive")
    return beta ** 2 * _variance_sum(alloc, u) / n + (float(np.sum(u)) / n) ** 2
