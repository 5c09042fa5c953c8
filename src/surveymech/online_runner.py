"""Round-by-round execution of the online acquisition mechanisms.

At round i the buyer only knows the i-1 previously reported costs, so it
solves the offline problem on the grid ``T_i = {c_1, ..., c_{i-1}, cap}``
with round budget ``xi * B * sqrt(i)`` and applies the continuum extension of
the resulting rule to the arriving report.  Front-loading the per-agent
budget as ``1/sqrt(i)`` is what keeps the final estimator within a constant
factor of the known-costs benchmark while the empirical cost distribution is
still coarse.

Known-costs benchmarks are solved on the true cost multiset augmented with
the cap (the online mechanism can never rule out a cap-cost arrival, so the
fair comparison point carries one extra agent at the cap).
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .allocation import AllocationRule, _calibrate_rows, _myerson, solve_unbiased, worst_case_variance
from .ci_solver import _deployed_policy, _solve_ci_rows, _variance_sum, ci_parameters, solve_ci
from .errors import InvalidInputError, _scalar, _whole
from .estimation import CIOutput, bernstein_interval, sample_variance
from .populations import Population
from .virtual_cost import CostSet, _iron_rows, _psi_from_sorted

__all__ = [
    "BudgetSchedule",
    "RoundTranscript",
    "UnbiasedRunResult",
    "CIRunResult",
    "unbiased_schedule",
    "ci_schedule",
    "run_unbiased_online",
    "run_ci_online",
    "benchmark_unbiased",
    "benchmark_ci",
    "unbiased_bound_rhs",
    "ci_bound_rhs",
]

# Grid points per batch of ``_solve_rounds``, counted as its rows times its
# widest row: each padded temporary of a batch stays within 256 KB whatever
# n, unless one grid alone is wider (it is then a batch of its own).
_BATCH_POINTS = 2**15


@dataclass(frozen=True)
class BudgetSchedule:
    """Total budget and the square-root front-loading coefficient.

    Raises:
        InvalidInputError: unless the total budget is a finite number
            ``>= 0`` and ``xi`` a finite number ``> 0``.
    """

    total_budget: float
    xi: float

    def __post_init__(self):
        object.__setattr__(self, "total_budget", _scalar(self.total_budget, "total_budget", 0.0))
        xi = _scalar(self.xi, "xi", 0.0)
        if not xi > 0:
            raise InvalidInputError("xi must be positive")
        object.__setattr__(self, "xi", xi)

    def per_round(self, i: int) -> float:
        return self.xi * self.total_budget * math.sqrt(i)


def unbiased_schedule(n: int, total_budget: float) -> BudgetSchedule:
    """Schedule for the unbiased task: xi = 1 / (4 sqrt(n)).

    Raises:
        InvalidInputError: unless ``n`` is a whole number of at least 1 and
            the total budget a finite number ``>= 0``.
    """
    n = _scalar(n, "n", 1, convert=_whole)
    return BudgetSchedule(total_budget=total_budget, xi=1.0 / (4.0 * math.sqrt(n)))


def ci_schedule(n: int, total_budget: float) -> BudgetSchedule:
    """Schedule for the confidence-interval task: xi = 1 / (16 sqrt(n)).

    A deployed CI round spends at most twice its budget ``B``:
    ``sum_k A_eff_k P_k <= 2 B`` over the round's grid.  The solver binds
    ``sum_k (1 - U_k) A_k psi_k <= B``.  Deployment keeps an agent only when
    ``U_k < 1/2`` and then buys at ``A_eff_k = A_k <= 2 (1 - U_k) A_k``;
    ignored agents get ``A_eff_k = 0``.  Virtual costs on a sorted grid are
    non-negative, ``psi_k = c_k + (k - 1)(c_k - c_{k-1}) >= 0``, and the
    payment identity for the monotone ``A_eff`` gives
    ``sum A_eff P = sum A_eff psi <= 2 sum (1 - U) A psi <= 2 B``.  This xi
    is a quarter of the unbiased task's, which more than covers the factor 2.

    Raises:
        InvalidInputError: as ``unbiased_schedule``.
    """
    n = _scalar(n, "n", 1, convert=_whole)
    return BudgetSchedule(total_budget=total_budget, xi=1.0 / (16.0 * math.sqrt(n)))


@dataclass(frozen=True)
class RoundTranscript:
    """One round's offer, decisions and accounting."""

    round_index: int
    cost: float
    grid: tuple
    alloc: float
    payment_offer: float
    ignored: bool
    purchased: bool
    observed: float
    y: float
    paid: float
    flagged: bool = False


@dataclass(frozen=True)
class UnbiasedRunResult:
    """Final estimator and accounting of one unbiased online run."""

    estimate: float
    total_paid: float
    flagged: int
    transcripts: list = field(default_factory=list)


@dataclass(frozen=True)
class CIRunResult:
    """Final interval and accounting of one confidence-interval online run."""

    interval: CIOutput
    total_paid: float
    ignored_count: int
    flagged: int
    transcripts: list = field(default_factory=list)


def _batch_bounds(widths):
    """Split rows of the given widths, in order, into ``(lo, hi)`` runs of at
    most ``_BATCH_POINTS`` padded points (rows times the widest row); a row
    wider than that is a batch alone."""
    bounds = []
    lo = widest = 0
    for hi, width in enumerate(widths):
        widest = max(widest, width)
        if hi > lo and (hi + 1 - lo) * widest > _BATCH_POINTS:
            bounds.append((lo, hi))
            lo, widest = hi, width
    if lo < len(widths):
        bounds.append((lo, len(widths)))
    return bounds


def _solve_rounds(costs, sizes, budgets, beta):
    """Solve a batch of rounds, one per row of the 2-D ``costs``.

    Row ``r`` is a sorted grid of ``sizes[r]`` costs with round budget
    ``budgets[r]``, padded by repeating its last cost.  Every step runs on
    all rows together: virtual costs, ironing, the solve (``_calibrate_rows``,
    or ``_solve_ci_rows`` for the CI task, ``beta`` not None) and payments.
    Returns the batch's 2-D arrays that offers read, row ``r`` valid in its
    first ``sizes[r]`` columns: ``(A, payments)``, or ``(A, ignored,
    payments)`` for the CI task.
    """
    if beta is None and min(budgets) <= 0:
        raise InvalidInputError("unbiased rounds need a positive budget")
    psi = _psi_from_sorted(costs)
    phi = _iron_rows(psi, sizes)
    if beta is None:
        alloc, _, _ = _calibrate_rows(phi, psi, None, budgets, sizes)
        return alloc, _myerson(costs, alloc)
    alloc, _, _, u, _ = _solve_ci_rows(phi, psi, sizes, budgets, beta)
    return (alloc,) + _deployed_policy(costs, alloc, u)


def _screen_slack(m):
    """Relative slack by which a computed unbiased rule on a grid of at most
    ``m`` points may exceed the offer bound of the purchase screen.

    On a sorted grid ``c_0 <= ... <= c_{m-1}`` the virtual costs
    ``psi_k = (k+1) c_k - k c_{k-1}`` are non-negative, and the rule ``A``
    is non-increasing, constant on each ironed block, and spends
    ``sum_k A_k psi_k <= B`` with ``A_k phi_k = min(phi_k, lam sqrt(phi_k))``
    on the ironed costs ``phi``.  Let ``hi`` end the block of position
    ``idx``.  Up to ``hi`` the ``psi`` sum to ``(hi+1) c_hi`` and ``A_k >=
    A_idx``, so they spend at least ``A_idx (hi+1) c_hi``.  Above ``hi`` the
    blocks are whole, so they spend ``sum_k A_k phi_k``, whose terms grow
    with ``phi_k >= phi_idx`` and so are each at least ``A_idx phi_idx``.  A
    block ``lo..hi`` averages ``((hi+1) c_hi - lo c_{lo-1}) / (hi-lo+1) >=
    c_hi``, so ``phi_idx >= c_hi >= c_idx``.  Together, in exact arithmetic,
    ``A_idx m c_idx <= A_idx ((hi+1) c_hi + (m-1-hi) c_idx) <= B``, with
    equality on ``m`` equal costs whose budget buys less than all of them.
    The computed rule meets it up to rounding: each computed ``psi_k`` is
    off by a few ulps of ``(k+1) c_k <= m psi_k``; a pooled block's average
    is a difference of prefix sums of at most ``m c_hi`` for a block sum of
    at least ``c_hi``, so the computed ``phi`` is off by a relative few
    times ``m^2`` ulps; and the calibration's prefix sums add a few times
    ``m`` ulps.  So the computed offer exceeds the bound by a relative
    ``O(m^2 eps)``; the factor 64 covers those few-ulp constants with room
    to spare.
    """
    return 64 * m * m * sys.float_info.epsilon


def _run_online(costs_seq, data_seq, cap, schedule, gamma, rng, cache, record, keys=None):
    """One online run in arrival order: the unbiased task if ``gamma`` is None,
    else the confidence-interval task at confidence ``gamma``.

    Every round not flagged solves its rule on the grid of earlier reports
    plus the cap, or takes it from ``cache``; with ``cache`` None it solves
    every such round and stores nothing.  Round ``i`` is keyed by
    ``keys[i - 1]``, which the caller supplies and which must be equal for
    two rounds exactly when their grids are; with ``keys`` None it is keyed
    by the grid tuple, as user caches and transcripts read it (a run that
    records transcripts keeps ``keys`` None).  An entry is the round's key
    (slot 0), ``_solve_rounds``' arrays for the round (slots 1-3: ``A``,
    then ``ignored`` on the CI task, then the payments), and the budget and
    the CI ``beta`` (None for the unbiased task) it was solved for.  A hit
    solved for another budget or ``beta`` is solved again: the same grid
    recurs at a later round after a flagged arrival, and a shared cache may
    have served a run at another ``gamma``.

    No round's grid depends on a purchase, so the run takes three steps
    after one draw of ``n`` purchase coins: one pass looks every round up;
    the misses are solved together by ``_solve_rounds`` in batches of at
    most ``_BATCH_POINTS`` grid points (``_batch_bounds``), and each batch's
    offers are read from its arrays with one gather per array, while only a
    cache gets copies of its rows, in round order; a last pass makes the
    offers with the coins.  So a run holds the cache, one batch and O(n)
    offers, not every solved row.

    The purchase screen: round ``i`` buys when its coin is below the offer
    ``A_idx`` at the report's grid position ``idx``, and an unbiased round
    that does not buy neither pays nor adds to the estimate.  The offer is
    at most ``B_i / (m c_idx)`` on a grid of ``m`` points (``_screen_slack``),
    so a missed unbiased round whose coin is at or above that bound, widened
    by the slack, is not solved and not cached: it enters the last pass as
    not bought, with offer 0.  The screen is off on the CI task, whose
    interval counts every round's ignore decision; in a run that records
    transcripts, which show every round's offer; and on rounds with budget
    ``B_i <= 0``, which ``_solve_rounds`` rejects.  Hits read their cached
    offer as before.
    """
    n = costs_seq.size
    ci = gamma is not None
    beta = ci_parameters(gamma, n).beta if ci else None
    coins = rng.random(n).tolist()
    screen = not ci and not record
    # every grid of the run has at most n + 1 points
    widen = 1.0 + _screen_slack(n + 1)
    lookup = ({} if cache is None else cache).get  # no cache: nothing ever hits
    # Grid tuples are built only where a key or a transcript reads them.
    tuples = keys is None and (record or cache is not None)
    grid: list[float] = [cap]
    # Per round: (grid key, position of the cost on it, cache entry), where
    # the entry is None on a flagged round, an index into ``misses`` and
    # ``offers`` on a round still to be solved, and -1 on a screened round:
    # ``offers`` ends with the offer that buys nothing.  Every round not
    # flagged adds its cost to the grid, so no grid is missed twice in one run.
    plan: list[tuple] = []
    misses: list[tuple] = []  # (grid key, budget, grid size, position of the cost)
    for i, cost in enumerate(costs_seq.tolist(), 1):
        if cost > cap:
            plan.append((tuple(grid) if record else None, 0, None))
            continue
        key = keys[i - 1] if keys is not None else tuple(grid) if tuples else None
        idx = bisect.bisect_left(grid, cost)
        budget = schedule.per_round(i)
        entry = lookup(key)
        if entry is None or entry[-2:] != (budget, beta):
            if screen and budget > 0 and coins[i - 1] * len(grid) * grid[idx] >= budget * widen:
                entry = -1
            else:
                entry = len(misses)
                misses.append((key, budget, len(grid), idx))
        plan.append((key, idx, entry))
        bisect.insort(grid, cost)
    offers: list[tuple] = []  # (A, ignored, payment) of each miss's arrival
    if misses:
        # A grid is the sorted first k of the cap and the costs not flagged;
        # the stable sort keeps ties in arrival order, as ``insort`` does.
        arrivals = np.concatenate(([cap], costs_seq[~(costs_seq > cap)]))
        order = np.argsort(arrivals, kind="stable")
        for lo, hi in _batch_bounds([size for _, _, size, _ in misses]):
            batch = misses[lo:hi]
            sizes = np.array([size for _, _, size, _ in batch])
            width = int(sizes.max())
            # the arrivals the batch's widest grid holds, in sorted order
            held = order[order < width]
            taken = held < sizes[:, None]
            costs = np.full((len(batch), width), cap)
            costs[np.arange(width) < sizes[:, None]] = np.broadcast_to(
                arrivals[held], taken.shape)[taken]
            parts = _solve_rounds(costs, sizes, [budget for _, budget, _, _ in batch], beta)
            # each offer's flat position in the batch's C-ordered arrays
            at = [r * width + idx for r, (_, _, _, idx) in enumerate(batch)]
            got = [part.take(at).tolist() for part in parts]
            offers += zip(got[0], got[1] if ci else [False] * len(batch), got[-1])
            if cache is not None:
                # copies, so a cached rule holds its own row and not the whole batch
                for r, (key, budget, size, _) in enumerate(batch):
                    cache[key] = (key, *(part[r, :size].copy() for part in parts), budget, beta)
    offers.append((0.0, False, math.nan))  # a screened round's: no coin is below 0
    y = np.zeros(n)
    total_paid = 0.0
    flagged = 0
    ignored_count = 0
    transcripts: list[RoundTranscript] = []
    for i, (key, idx, entry) in enumerate(plan, 1):
        if entry is None:
            flagged += 1
            a, p, ignored = 0.0, math.nan, False
        else:
            if type(entry) is int:
                a, ignored, p = offers[entry]
            else:
                a = float(entry[1][idx])
                ignored = ci and bool(entry[2][idx])
                # an ignored agent's price is NaN: its effective allocation is zero
                p = float(entry[-3][idx])
            ignored_count += ignored
        purchased = not ignored and coins[i - 1] < a
        observed = float(data_seq[i - 1]) if purchased else 0.0
        if purchased:
            y[i - 1] = observed / a
        paid = p if purchased else 0.0
        total_paid += paid
        if record:
            transcripts.append(RoundTranscript(
                round_index=i, cost=float(costs_seq[i - 1]), grid=key, alloc=a,
                payment_offer=p, ignored=ignored, purchased=purchased, observed=observed,
                y=float(y[i - 1]), paid=paid, flagged=entry is None,
            ))
    mean = float(np.mean(y))
    if not ci:
        return UnbiasedRunResult(
            estimate=mean, total_paid=total_paid, flagged=flagged, transcripts=transcripts,
        )
    sigma = math.sqrt(sample_variance(y)) if n >= 2 else 0.0
    interval = bernstein_interval(mean, sigma, max(n, 2), gamma, bias_term=ignored_count / n)
    return CIRunResult(
        interval=interval, total_paid=total_paid, ignored_count=ignored_count,
        flagged=flagged, transcripts=transcripts,
    )


def _run_population(population, schedule, gamma, rng_seed, cap, record, cache):
    """``_run_online`` over a population in its given order, for both public runners."""
    cap = population.cap if cap is None else _scalar(cap, "cap")
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
    return _run_online(population.costs, population.data, cap, schedule, gamma, rng, cache, record)


def run_unbiased_online(
    population: Population,
    schedule: BudgetSchedule,
    rng_seed,
    cap: float | None = None,
    record_transcripts: bool = True,
    cache: dict | None = None,
) -> UnbiasedRunResult:
    """Run the unbiased mechanism over the population in its given order.

    Reports above the cap are declined and flagged: the agent is skipped with
    y = 0, which voids unbiasedness, so the flag is surfaced in the result.

    ``cache``, if given, is a dict of solved rounds keyed by grid tuple that
    the run reads and adds to, and that may be shared between runs.  With
    ``cache`` None the run solves every round it needs, stores nothing and
    holds only one batch of rounds and one offer per round at a time.

    ``record_transcripts=True``, the default, keeps each round's grid tuple
    in its transcript, so the result grows as O(n^2): 35.8 MB at n = 3000
    with continuous costs (tracemalloc), against a 3.9 MB peak with False.
    Pass False for long runs.  With False, a round bought with probability
    ``A`` at most ``B_i / (m c_idx)`` (its budget over its grid's size ``m``
    and the grid cost at the report's position) whose purchase coin lands at
    or above that bound is neither solved nor cached: it cannot buy, and the
    estimate and the spend come out the same bits.  On continuous costs that
    skips about 88% of the rounds.
    """
    return _run_population(population, schedule, None, rng_seed, cap, record_transcripts, cache)


def run_ci_online(
    population: Population,
    schedule: BudgetSchedule,
    gamma: float,
    rng_seed,
    cap: float | None = None,
    record_transcripts: bool = True,
    cache: dict | None = None,
) -> CIRunResult:
    """Run the confidence-interval mechanism over the population in order.

    Ignore decisions round the solved rule at 1/2 into a deterministic
    indicator (ties ignore); the interval's upper endpoint carries the
    resulting bias allowance ``(# ignored) / n``.

    ``cache``, if given, is a dict of solved rounds keyed by grid tuple that
    the run reads and adds to, and that may be shared between runs.  With
    ``cache`` None the run solves every round, stores nothing and holds only
    one batch of rounds and one offer per round at a time.

    ``record_transcripts=True``, the default, keeps each round's grid tuple
    in its transcript, so the result grows as O(n^2): 35.8 MB at n = 3000
    with continuous costs (tracemalloc), against a 3.9 MB peak with False.
    Pass False for long runs.
    """
    return _run_population(population, schedule, gamma, rng_seed, cap, record_transcripts, cache)


def _augmented(costs, cap: float) -> CostSet:
    return CostSet(costs=np.append(np.sort(costs), cap), cap=cap)


def benchmark_unbiased(costs, cap: float, budget: float) -> tuple[AllocationRule, float]:
    """Known-costs benchmark: optimal rule on the cap-augmented cost set.

    Returns the rule over the n+1 augmented costs and its worst-case variance
    (the objective at the all-ones data assignment over the n+1 points).
    """
    aug = _augmented(costs, cap)
    rule = solve_unbiased(aug, budget)
    return rule, worst_case_variance(rule, aug)


def benchmark_ci(costs, cap: float, budget: float, gamma: float):
    """Known-costs CI benchmark on the cap-augmented set.

    Returns ``((rule, ignore), l_star)`` where ``l_star`` is the worst-case
    expected length ``beta * sqrt((1/m) sum (1-U)/A) + M/m`` of ``solve_ci``'s
    rule, with ``beta = 2 alpha_gamma / sqrt(m)`` and m = n + 1.  That rule
    minimises the squared surrogate ``beta^2 (1/m) sum (1-U)/A + (M/m)^2``,
    not this length, so ``l_star`` is at most ``sqrt(2)`` times the shortest
    relaxed rule's length (see ``solve_ci``).
    """
    aug = _augmented(costs, cap)
    m = len(aug)
    beta = ci_parameters(gamma, m).beta
    rule, ignore = solve_ci(aug, budget, beta)
    variance_term = _variance_sum(rule.probabilities, ignore.u_values)
    l_star = beta * math.sqrt(variance_term / m) + ignore.total_mass / m
    return (rule, ignore), l_star


def unbiased_bound_rhs(n: int, var_star: float, alloc_at_cap: float) -> float:
    """Guaranteed variance ceiling of the online mechanism vs the benchmark.

    Raises:
        InvalidInputError: unless ``n`` is a whole number of at least 1,
            ``var_star`` a finite number ``>= 0`` and ``alloc_at_cap`` a
            probability in ``(0, 1]``.
    """
    n = _scalar(n, "n", 1, convert=_whole)
    var_star = _scalar(var_star, "var_star", 0.0)
    alloc_at_cap = _scalar(alloc_at_cap, "alloc_at_cap", 0.0, 1.0)
    if not alloc_at_cap > 0:
        raise InvalidInputError("alloc_at_cap must be positive")
    return 16.0 * (
        (1.0 + 1.0 / n) ** 2 * var_star
        + 1.0 / n
        + (1.0 / (n * math.sqrt(n))) / alloc_at_cap
    )


def ci_bound_rhs(n: int, l_star: float) -> float:
    """Guaranteed mean-length ceiling of the online CI vs the benchmark.

    The vanishing remainder term is replaced by the fixed audit constant
    ``1/sqrt(n)``.

    Raises:
        InvalidInputError: unless ``n`` is a whole number of at least 1 and
            ``l_star`` a finite number ``>= 0``.
    """
    n = _scalar(n, "n", 1, convert=_whole)
    l_star = _scalar(l_star, "l_star", 0.0)
    root10 = math.sqrt(10.0)
    return 8.0 * root10 * l_star + 2.0 * root10 / math.sqrt(n) + 1.0 / math.sqrt(n)
