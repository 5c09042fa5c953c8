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
from dataclasses import dataclass, field

import numpy as np

from .allocation import AllocationRule, _calibrate_rows, _myerson, solve_unbiased, worst_case_variance
from .ci_solver import _deployed_policy, _solve_ci_rows, _variance_sum, ci_parameters, solve_ci
from .errors import InvalidInputError
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

# Rows per batch of ``_solve_rounds``: keeps its padded temporaries at a few
# MB on grids of up to a few thousand points.
_BATCH_ROWS = 128


@dataclass(frozen=True)
class BudgetSchedule:
    """Total budget and the square-root front-loading coefficient."""

    total_budget: float
    xi: float

    def __post_init__(self):
        if not math.isfinite(self.total_budget) or self.total_budget < 0:
            raise InvalidInputError("total budget must be a non-negative finite real")
        if not math.isfinite(self.xi) or self.xi <= 0:
            raise InvalidInputError("xi must be a positive finite real")

    def per_round(self, i: int) -> float:
        return self.xi * self.total_budget * math.sqrt(i)


def unbiased_schedule(n: int, total_budget: float) -> BudgetSchedule:
    """Schedule for the unbiased task: xi = 1 / (4 sqrt(n))."""
    if n < 1:
        raise InvalidInputError("n must be at least 1")
    return BudgetSchedule(total_budget=float(total_budget), xi=1.0 / (4.0 * math.sqrt(n)))


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
    """
    if n < 1:
        raise InvalidInputError("n must be at least 1")
    return BudgetSchedule(total_budget=float(total_budget), xi=1.0 / (16.0 * math.sqrt(n)))


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


def _solve_rounds(costs, sizes, budgets, beta):
    """Solve a batch of rounds, one per row of the 2-D ``costs``.

    Row ``r`` is a sorted grid of ``sizes[r]`` costs with round budget
    ``budgets[r]``, padded by repeating its last cost.  Every step runs on
    all rows together: virtual costs, ironing, the solve (``_calibrate_rows``,
    or ``_solve_ci_rows`` for the CI task, ``beta`` not None) and payments.
    Returns one tuple per row of the arrays its offers read, each of the
    row's size: ``(A, payments)``, or ``(A, ignored, payments)`` for the CI
    task.
    """
    if beta is None and min(budgets) <= 0:
        raise InvalidInputError("unbiased rounds need a positive budget")
    psi = _psi_from_sorted(costs)
    phi = _iron_rows(psi, sizes)
    if beta is None:
        alloc, _, _ = _calibrate_rows(phi, psi, None, budgets, sizes)
        parts = (alloc, _myerson(costs, alloc))
    else:
        alloc, _, _, u, _ = _solve_ci_rows(phi, psi, sizes, budgets, beta)
        parts = (alloc,) + _deployed_policy(costs, alloc, u)
    # copies, so a cached rule holds its own row and not the whole batch
    return [tuple(part[r, :m].copy() for part in parts) for r, m in enumerate(sizes.tolist())]


def _run_online(costs_seq, data_seq, cap, schedule, gamma, rng, cache, record, keys=None):
    """One online run in arrival order: the unbiased task if ``gamma`` is None,
    else the confidence-interval task at confidence ``gamma``.

    Every round not flagged solves its rule on the grid of earlier reports
    plus the cap, or takes it from ``cache``.  Round ``i`` is keyed by
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

    No round's grid depends on a purchase, so the run takes three steps: one
    pass looks every round up; the misses are solved together by
    ``_solve_rounds``, ``_BATCH_ROWS`` at a time, and enter the cache in
    round order; a last pass makes the offers with one draw of ``n``
    purchase coins.
    """
    n = costs_seq.size
    ci = gamma is not None
    beta = ci_parameters(gamma, n).beta if ci else None
    grid: list[float] = [cap]
    # Per round: (grid key, position of the cost on it, cache entry), where
    # the entry is None on a flagged round and an index into ``misses`` on a
    # round still to be solved.  Every round not flagged adds its cost to the
    # grid, so no grid is missed twice in one run.
    plan: list[tuple] = []
    misses: list[tuple] = []  # (grid key, budget, grid size)
    for i, cost in enumerate(costs_seq.tolist(), 1):
        if cost > cap:
            plan.append((tuple(grid) if record else None, 0, None))
            continue
        key = tuple(grid) if keys is None else keys[i - 1]
        budget = schedule.per_round(i)
        entry = cache.get(key)
        if entry is None or entry[-2:] != (budget, beta):
            entry = len(misses)
            misses.append((key, budget, len(grid)))
        plan.append((key, bisect.bisect_left(grid, cost), entry))
        bisect.insort(grid, cost)
    solved: list[tuple] = []
    if misses:
        # A grid is the sorted first k of the cap and the costs not flagged;
        # the stable sort keeps ties in arrival order, as ``insort`` does.
        arrivals = np.concatenate(([cap], costs_seq[~(costs_seq > cap)]))
        order = np.argsort(arrivals, kind="stable")
        sorted_arrivals = arrivals[order]
        for lo in range(0, len(misses), _BATCH_ROWS):
            batch = misses[lo:lo + _BATCH_ROWS]
            sizes = np.array([k for _, _, k in batch])
            taken = order < sizes[:, None]
            costs = np.full((len(batch), int(sizes.max())), cap)
            costs[np.arange(costs.shape[1]) < sizes[:, None]] = np.broadcast_to(
                sorted_arrivals, taken.shape)[taken]
            solved += _solve_rounds(costs, sizes, [b for _, b, _ in batch], beta)
    for j, (key, budget, _) in enumerate(misses):
        solved[j] = cache[key] = (key, *solved[j], budget, beta)
    coins = rng.random(n).tolist()
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
                entry = solved[entry]
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
    cap = population.cap if cap is None else float(cap)
    if not math.isfinite(cap):
        raise InvalidInputError("cap must be a finite real")
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
    return _run_online(
        population.costs, population.data, cap, schedule, gamma, rng,
        {} if cache is None else cache, record,
    )


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
    """
    return _run_population(population, schedule, gamma, rng_seed, cap, record_transcripts, cache)


def _augmented(costs, cap: float) -> CostSet:
    costs = np.sort(np.asarray(costs, dtype=float))
    if costs.size and costs[-1] > cap:
        raise InvalidInputError("benchmark costs must not exceed the cap")
    return CostSet(costs=np.append(costs, cap), cap=cap)


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
    """Guaranteed variance ceiling of the online mechanism vs the benchmark."""
    return 16.0 * (
        (1.0 + 1.0 / n) ** 2 * var_star
        + 1.0 / n
        + (1.0 / (n * math.sqrt(n))) / alloc_at_cap
    )


def ci_bound_rhs(n: int, l_star: float) -> float:
    """Guaranteed mean-length ceiling of the online CI vs the benchmark.

    The vanishing remainder term is replaced by the fixed audit constant
    ``1/sqrt(n)``.
    """
    root10 = math.sqrt(10.0)
    return 8.0 * root10 * l_star + 2.0 * root10 / math.sqrt(n) + 1.0 / math.sqrt(n)
