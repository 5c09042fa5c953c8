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
Every step works on the rows of a padded batch, the sweep included: one step
function, run once on every block of every row to find where each row's walk
starts, then once a step on the rows still walking.  The online runner
solves a batch of rounds in one call, and ``solve_ci`` a batch of one.
Given each row's report position, the solve first drops the rows whose
report is ignored at a floor on the ignored mass, ``min(m, beta^2 m / 2)``,
then walks the rest and calibrates only the rows whose report the walk's
mass leaves unignored, as a report ignored there stays ignored.  With no
positions every row is walked and calibrated.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .allocation import AllocationRule, _calibrate_rows, _myerson
from .errors import InvalidInputError, SolverError, _positive, _scalar, _vector, _whole
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
        fraction = _positive(self.boundary_fraction, "boundary_fraction", 1.0)
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


def _fill_share(mass, above, size):
    """The ignore share ``clip((M - above) / size, 0, 1)`` of a block of
    ``size`` entries with ``above`` entries over it, at ignored mass ``M``
    filled from the top; non-decreasing in ``M``."""
    # exact while non-negative: the remainder left by ignoring the blocks above one by one
    return np.clip((mass - above) / np.maximum(size, 1), 0.0, 1.0)  # padding blocks span no entry


def _mass_floor(beta, m):
    """``min(m, beta^2 m / 2)`` for each row size in ``m``: the walk's clamp
    where the budget is slack, and the floor ``_solve_ci_rows`` screens at."""
    floor = 0.5 * beta * beta * m
    return np.where(floor < m, floor, m)


def _rule_at_mass(phi, psi, sizes, budgets, edges, mass):
    """Each row's ``(alloc, lam, saturated, u)`` at ignored mass ``mass[r]``.

    Block ``b`` gets ``u = clip((M - mass of the blocks above b) / size_b, 0, 1)``
    (``_fill_share``), so the mass fills from the top; the padding gets none.
    The rows are then calibrated together with weights ``1 - u``.
    """
    block_size = edges[:, 1:] - edges[:, :-1]
    share = _fill_share(mass[:, None], sizes[:, None] - edges[:, 1:], block_size)
    u = np.zeros(phi.shape)
    u[np.arange(phi.shape[1]) < sizes[:, None]] = np.repeat(share.ravel(), block_size.ravel())
    return _calibrate_rows(phi, psi, 1.0 - u, budgets, sizes) + (u,)


@np.errstate(all="ignore")
def _walk_step(at_top, at_j, top, j, live, above, budget, s, inv_m2, slack_root):
    """One iteration of ``_walk`` on arrays: ``(stop, mass, slack, event)``.

    ``at_top`` and ``at_j`` hold the walk table's five entries at blocks
    ``top`` and ``j``.  Where ``stop`` the walk returns ``(mass, slack)``;
    elsewhere it advances ``j`` if ``event < live`` and drops block ``top``
    if not.  Every expression is the walk's, in its order, with
    ``where(b < a, b, a)`` for Python's ``min(a, b)`` and ``where(b > a, b, a)``
    for ``max(a, b)``, so a lane gets the bits of the iteration on Python
    floats wherever the walk reaches it; lanes it never reaches may divide by
    zero or overflow, which is why the step ignores floating-point errors.
    """
    size, phi, root, spend, roots = at_top
    _, _, root_j, spend_j, roots_j = at_j
    mass = above + (size - live)
    live_spend = spend + live * phi
    slack_now = (live_spend <= budget) | (j > top)
    to_slack = (live_spend - budget) / phi
    event = np.where(to_slack < live, to_slack, live)
    room = budget - spend_j  # where it is not positive, lam = 0 and the slope is -inf up to the event
    s1 = roots - roots_j + live * root
    a = s * root / room
    at_min = (room > 0) & (mass * inv_m2 >= a * s1)
    step = (a * s1 - mass * inv_m2) / (a * root + inv_m2)
    lam_event = (s1 - room / root_j) / root
    event = np.where((room > 0) & (j < top) & (lam_event < event), lam_event, event)
    inside = (room > 0) & (step < event)
    stop = slack_now | at_min | inside | (event == to_slack)
    slack = slack_now | ~(at_min | inside)
    mass = np.where(slack_now | at_min, mass, np.where(inside, mass + step, mass + event))
    return stop, np.where(slack & (slack_root > mass), slack_root, mass), slack, event


def _walk_start(table, above, counts, j, params):
    """Each row's highest block at which ``_walk_step`` does more than drop
    the block, or -1 where there is none: the step on every block of every
    row at once, in the state the walk reaches a block in while it only
    drops blocks (``live`` its size, ``above`` the mass over it)."""
    live = table[0, :, :-1]
    t = np.arange(live.shape[1])
    stop, _, _, event = _walk_step(table[:, :, :-1], table[:, np.arange(j.size)[:, None], j[:, None]],
                                   t, j[:, None], live, above, *params[:, :, None])
    acts = (stop | (event < live)) & (t < counts[:, None])
    return np.where(acts.any(axis=1), t[-1] - np.argmax(acts[:, ::-1], axis=1), -1)


def _walk(table, above, m, counts, j, budgets, beta):
    """Each row's ``(mass, slack)``: the smallest minimizer of the outer
    objective over ignored mass in [0, m], and whether the budget is slack there.

    ``table[:, r, b]`` holds block ``b`` of row ``r``: its size, phi and
    sqrt(phi), and the sums of ``size * phi`` and ``size * sqrt(phi)`` below
    it; ``above[r, b]`` is the (integer) mass over it, ``m[r]`` the row's
    size and ``j[r]`` its lowest block not clipped at M = 0.

    ``F(M) = s V(M) + (M/m)^2`` with ``s = beta^2/m``.  While the budget
    binds, the live blocks below ``j`` are clipped at A = 1 and
    ``V = K + S1^2 / (B - C)``: ``K`` and ``C`` are the size and spend of the
    clipped blocks and ``S1`` the sum of ``w * size * sqrt(phi)`` over the
    rest, linear in ``M``.  So ``F`` is a convex quadratic on each piece, with
    right slope ``-2s / A_top + 2M/m^2``.  A piece ends when the top live
    block runs out, when ``lam = (B - C)/S1`` reaches ``sqrt(phi_j)``, or when
    the live spend reaches ``B``; from there on the budget is slack and
    ``F = s (m - M) + (M/m)^2``.  The walk goes up the pieces from M = 0 at
    the top block and stops at the first point whose right slope is >= 0.

    Started at the top block, the walk reaches a lower block ``t`` with ``j``
    unchanged, ``live = size_t`` and ``above`` the mass over ``t`` whenever
    every iteration above ``t`` only dropped its block.  So each row starts
    at the block ``_walk_start`` finds, in that state, with the same bits; a
    row with none has mass ``m`` and a slack budget, as the walk ends after
    dropping every block.  Then ``_walk_step`` runs once a step on the rows
    still walking, and a row leaves as soon as it stops.  A step that does
    not stop a row advances ``j`` or lowers ``top``, and a row stops once
    ``j > top`` or ``top < 0``; so a row started at ``top`` stops within
    ``top - j + 2`` steps, and the loop runs no more.  ``j`` is advanced
    explicitly, since recomputing ``lam`` where it reaches ``sqrt(phi_j)``
    can stall on rounding.
    """
    # the slack clamp is the zero of -s + 2M/m^2, at most m
    params = np.array((budgets, beta * beta / m, 1.0 / (m * m), _mass_floor(beta, m)))
    start = _walk_start(table, above, counts, j, params)
    mass, slack = m.astype(float), np.ones(m.size, dtype=bool)
    rows = np.flatnonzero(start >= 0)
    top, j = start[rows], j[rows]
    live, above = table[0, rows, top], above[rows, top]
    for _ in range(int(np.max(top - j, initial=-1)) + 2):
        if not rows.size:
            break
        stop, out, out_slack, event = _walk_step(
            table[:, rows, top], table[:, rows, j], top, j, live, above, *params[:, rows])
        mass[rows[stop]], slack[rows[stop]] = out[stop], out_slack[stop]
        advance = event < live
        j = j + advance
        above = np.where(advance, above, above + table[0, rows, top])
        top = top - ~advance
        live = np.where(advance, live - event, table[0, rows, top])
        keep = ~stop & (top >= 0)
        rows, top, j, live, above = rows[keep], top[keep], j[keep], live[keep], above[keep]
    if rows.size:
        raise SolverError("the outer walk overran its step bound")
    return mass, slack


def _solve_ci_rows(phi, psi, sizes, budgets, beta, at=None):
    """The CI solve of the rows of a padded batch it keeps: ``(kept, A, lam,
    saturated, U, mass)``, with row ``k`` of each array for batch row ``kept[k]``.

    Row ``r`` holds ``sizes[r]`` ironed and raw virtual costs, padded with
    ``phi = 0`` as for ``_calibrate_rows``, and has budget ``budgets[r]``.
    Every step runs on all rows at once: the block split, the walk's table,
    the outer walk, the fill and the calibration; ``np.add.accumulate`` adds
    along a row in order, so each row gets the bits of a batch of one.  ``A``
    is 1 and ``U`` 0 on the padding.

    With ``at``, the position of each row's report, only the rows whose
    report the deployed rule leaves unignored are kept, in two screens on
    the share ``_fill_share`` of the report's block (ignored where it is
    ``>= 1/2``).  Right after the block split, the rows whose report is
    ignored at the floor ``L = min(m, beta^2 m / 2)`` on the ignored mass
    are dropped; a batch left with no row returns there.  The rest are
    walked, and the rows whose report the walk's mass ignores are dropped
    before calibration.  Neither is calibrated or priced: the walk's mass
    is at least ``L``, the kink pass only raises it, and the share does not
    fall as the mass rises, so the report stays ignored.  With ``at`` None
    every row is walked and kept.

    The floor.  A row with no start, or whose walk ends without stopping,
    has mass ``m``, and a stop where the budget is slack returns at least
    the walk's clamp ``_mass_floor``.  A stop where it binds (``at_min`` or
    ``inside`` in ``_walk_step``) has a live spend above ``B``, and phi does
    not fall below the top block, so ``sqrt(phi_top) S1`` is at least the
    spend of the blocks ``j..top-1`` plus ``live phi_top``, the live spend
    less ``C``, which exceeds the room ``B - C``.  So ``A_top = (B - C) /
    (sqrt(phi_top) S1) < 1``, the right slope ``-2s / A_top + 2M/m^2`` is
    below ``2 (M/m^2 - s)``, and that is negative below ``M = beta^2 m``:
    in exact arithmetic on the walk's table a binding stop is at twice the
    floor at least, and every row's mass is at least ``L``.

    The rounding margin is zero.  The screen's floor is ``_mass_floor``,
    the walk's own clamp, so a slack stop and an unstopped row are at or
    above it bit for bit, and the computed ``_fill_share`` is non-decreasing
    in the computed mass, as each of its operations rounds monotonically.
    A binding stop's test reads ``sqrt(phi_top) S1`` and ``B - C`` from the
    table's prefix sums.  The prefix below block ``j`` is at most ``m``
    times block ``j``'s own term, so against the live spend they are off by
    a relative ``O(m^2 eps)``, as in ``online_runner._screen_slack``, and
    the factor 2 absorbs that.  The exception is a room ``B - C`` within
    that rounding of zero, a round budget within about ``m^2`` ulps of a
    prefix spend of the grid, such as ``1e-14`` on costs of order 1: there
    rounding can stop the walk short of the floor, and the screen ignores
    the report as exact arithmetic does.
    """
    edges, counts = _block_rows(phi, sizes)
    kept = np.arange(sizes.size)
    if at is not None:
        block = np.add.reduce(edges[:, 1:] <= at[:, None], axis=1)  # the block holding the report
        report_above = sizes - edges[kept, block + 1]
        report_size = edges[kept, block + 1] - edges[kept, block]
        kept = np.flatnonzero(_fill_share(_mass_floor(beta, sizes), report_above, report_size) < 0.5)
        if not kept.size:
            rows = np.zeros((0, phi.shape[1]))
            return kept, rows + 1.0, np.zeros(0), np.ones(0, dtype=bool), rows, np.zeros(0)
        phi, psi, sizes, counts, report_above, report_size = (
            a[kept] for a in (phi, psi, sizes, counts, report_above, report_size))
        edges = edges[kept, :max(counts.tolist()) + 1]
        budgets = [budgets[r] for r in kept.tolist()]
    # the walk's table: size, phi, sqrt(phi) and the sums of size * phi and size * sqrt(phi)
    # below each block, with one more column for the sums below all blocks
    table = np.zeros((5, phi.shape[0], edges.shape[1]))
    block_size, block_phi, block_sqrt, spend_below, sqrt_below = table
    block_size[:, :-1] = edges[:, 1:] - edges[:, :-1]  # 0 past a row's last block
    block_phi[:, :-1] = np.take_along_axis(phi, edges[:, 1:] - 1, axis=1)  # read at each block's last entry
    np.sqrt(block_phi, out=block_sqrt)
    np.add.accumulate(block_size[:, :-1] * table[1:3, :, :-1], axis=2, out=table[3:, :, 1:])
    # spend with lam at each breakpoint, as in the calibration's breakpoint
    # scan; ``bisect_left`` probes as ``searchsorted`` does, sorted or not
    spend_bp = spend_below[:, :-1] + block_sqrt[:, :-1] * (sqrt_below[:, -1:] - sqrt_below[:, :-1])
    j = np.array([bisect.bisect_left(bp, budget, 0, k)
                  for bp, budget, k in zip(spend_bp.tolist(), budgets, counts.tolist())])
    mass, slack = _walk(table, sizes[:, None] - edges[:, 1:], sizes, counts, j, budgets, beta)
    if at is not None:
        walked = np.flatnonzero(_fill_share(mass, report_above, report_size) < 0.5)
        kept = kept[walked]
        phi, psi, sizes, edges, mass, slack = (a[walked] for a in (phi, psi, sizes, edges, mass, slack))
        budgets = [budgets[r] for r in walked.tolist()]
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
    return kept, alloc, lam, saturated, u, mass


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
    beta = _positive(beta, "beta")
    psi = virtual_costs(cost_set)[None, :]
    sizes = np.array([psi.size])
    phi = _iron_rows(psi, sizes)
    _, alloc, lam, saturated, u, mass = _solve_ci_rows(phi, psi, sizes, (budget,), beta)
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
    beta = _positive(beta, "beta")
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
    beta = _positive(beta, "beta")
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
    beta = _positive(beta, "beta")
    return beta ** 2 * _variance_sum(alloc, u) / n + (float(np.sum(u)) / n) ** 2
