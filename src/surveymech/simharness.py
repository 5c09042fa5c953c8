"""Monte Carlo harness: random-order runs, metric aggregation, audits.

Every run derives its generator from ``(master_seed, run_index)``, so results
are independent of scheduling: per-run outputs land in arrays indexed by run
and are reduced in run order, making reports byte-identical for any worker
count.  Workers are separate processes (runs are CPU-bound).
"""

from __future__ import annotations

import csv
import json
import math
import operator
from collections import OrderedDict
from dataclasses import asdict, dataclass
from itertools import accumulate

import numpy as np

from .ci_solver import ci_parameters
from .errors import InvalidInputError, _float_array, _scalar, _vector, _whole
from .online_runner import (
    _chunk_bounds,
    _run_cached,
    _run_chunk,
    benchmark_ci,
    benchmark_unbiased,
    ci_bound_rhs,
    ci_schedule,
    unbiased_bound_rhs,
    unbiased_schedule,
)
from .populations import Population

__all__ = [
    "SimMetrics",
    "monte_carlo",
    "truthfulness_audit",
    "AuditReport",
    "draw_permutation",
    "metrics_json",
    "run_log_csv",
]

_TASKS = ("unbiased", "ci")

# Grid points the Monte Carlo round cache keeps; ``_mc_batch`` keeps one only
# on a population where some cost repeats.  An entry holds two float arrays
# of its grid's size (and a bool one on the CI task) under an int key: at the
# bound 4.0-4.25 MB of arrays, and 4.5-6.3 MB with the per-entry overhead on
# five- to twenty-value populations at n = 100 to 1000 (12-14 MB on fifty
# values at n = 30, whose grids are short).  A run's working set is this
# cache, if any, plus one batch of ``_solve_rounds``.
_CACHE_POINTS = 2**18
# Points of the uniform grid ``truthfulness_audit`` checks the extension on,
# and the violation it tolerates.
_AUDIT_POINTS = 201
_AUDIT_TOL = 1e-9


class _RoundCache(OrderedDict):
    """Round cache that evicts its oldest entries beyond ``max_points`` grid points.

    A grid's points are counted from its entry (slot 1, ``A``, has the
    grid's size) when its key is first added, and the key added last is
    never evicted; a key stored again keeps its place, as in a dict.  Every
    entry stored under a key is for the same grid, so eviction subtracts
    what was added.
    """

    def __init__(self, max_points: int):
        super().__init__()
        self.max_points = max_points
        self.points = 0

    def __setitem__(self, key, entry):
        size = len(self)
        super().__setitem__(key, entry)
        if len(self) > size:
            self.points += entry[1].size
        while self.points > self.max_points and len(self) > 1:
            _, oldest = self.popitem(last=False)
            self.points -= oldest[1].size


@dataclass(frozen=True)
class SimMetrics:
    """Aggregated Monte Carlo outputs plus benchmark comparison targets.

    Fields that do not apply to the task at hand are None.  ``flagged_count``
    is 0 in every ``monte_carlo`` report: a population holds no cost above
    its cap, and the runs use that cap.  Flagged arrivals come only from the
    ``cap`` override of the public runners.
    """

    task: str
    runs: int
    estimator_mean: float
    estimator_variance: float
    expected_spend: float
    ci_mean_length: float | None
    ci_coverage: float | None
    benchmark_var_star: float | None
    benchmark_L_star: float | None
    bound_rhs_unbiased: float | None
    bound_rhs_ci: float | None
    seed: int
    flagged_count: int


@dataclass(frozen=True)
class AuditReport:
    """Worst violations found by a truthfulness/IR sweep."""

    max_violation: float
    ir_violation: float
    passed: bool


def draw_permutation(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform arrival order; the single permutation primitive used by runs.

    Raises:
        InvalidInputError: unless ``n`` is a whole number of at least 1.
    """
    return rng.permutation(_scalar(n, "n", 1, convert=_whole))


def _count_weights(costs):
    """Each cost's weight in a mixed radix over the distinct values of ``costs``.

    Distinct value ``j`` of multiplicity ``mult_j`` weighs ``W_j``, with
    ``W_0 = 1`` and ``W_{j+1} = W_j * (mult_j + 1)``.  The weights of any
    sub-multiset of ``costs`` sum to ``sum_j count_j * W_j`` with
    ``count_j <= mult_j``: an exact key of its counts, for any number of
    distinct values, because Python ints do not overflow.
    """
    _, classes, mult = np.unique(costs, return_inverse=True, return_counts=True)
    weights = list(accumulate((mult[:-1] + 1).tolist(), operator.mul, initial=1))
    return [weights[j] for j in classes.tolist()]


def _mc_batch(task, costs, data, cap, budget, gamma, master_seed, run_lo, run_hi):
    """Per-run outputs for run indices [run_lo, run_hi); order-independent.

    A round's grid is the cap and the costs that arrived before it (a
    population has no cost above its cap, so none is flagged).  The runs go
    in chunks of at most ``_CHUNK_ROUNDS`` rounds (``_chunk_bounds``), each
    run drawing its permutation and then its purchase coins from its own
    ``(master_seed, run_index)`` generator into the chunk's arrays.  On a
    population without ties two runs share round ``i``'s grid only if they
    drew the same ``i - 1`` earlier arrivals, so a round cache would almost
    never be read again: a chunk goes through ``online_runner._run_chunk``,
    planned, solved and settled as arrays, as a public runner does with
    ``cache`` None.  Where some cost repeats, the batch keeps one round
    cache, and each run of a chunk goes in run order through ``_run_cached``,
    keyed exactly by the running sum of ``_count_weights``.
    """
    n = costs.size
    count = run_hi - run_lo
    estimates = np.empty(count)
    spends = np.empty(count)
    lowers = np.full(count, np.nan)
    uppers = np.full(count, np.nan)
    flagged = np.zeros(count, dtype=np.int64)
    schedule = (unbiased_schedule if task == "unbiased" else ci_schedule)(n, budget)
    # Ties by adjacent equality after a sort: a plain ``np.unique`` imports
    # ``numpy.ma``, about 1 MB of resident memory, on every call.
    ordered = np.sort(costs)
    cache = None
    if (ordered[1:] == ordered[:-1]).any():
        cache, weight_of = _RoundCache(_CACHE_POINTS), _count_weights(costs)
    for lo, hi in _chunk_bounds(count, n):
        perms = np.empty((hi - lo, n), dtype=np.intp)
        coins = np.empty((hi - lo, n))
        for k in range(hi - lo):
            rng = np.random.default_rng([master_seed, run_lo + lo + k])
            perms[k] = draw_permutation(rng, n)
            coins[k] = rng.random(n)
        if cache is None:
            results = _run_chunk(costs[perms], data[perms], coins, cap, schedule, gamma, False)
        else:
            results = (
                _run_cached(costs[perm], data[perm], coin, cap, schedule, gamma, cache, False,
                            list(accumulate(map(weight_of.__getitem__, perm.tolist()), initial=0)))
                for perm, coin in zip(perms, coins))
        for k, result in enumerate(results, lo):
            if task == "unbiased":
                estimates[k] = result.estimate
            else:
                interval = result.interval
                estimates[k] = interval.sample_mean
                lowers[k] = interval.lower
                uppers[k] = interval.upper
            spends[k] = result.total_paid
            flagged[k] = result.flagged
    return estimates, spends, lowers, uppers, flagged


def monte_carlo(
    task: str,
    population: Population,
    budget: float,
    gamma: float | None,
    runs: int,
    master_seed: int,
    workers: int = 1,
    return_per_run: bool = False,
):
    """Random-arrival Monte Carlo of an online task with benchmark targets.

    Returns ``SimMetrics``; with ``return_per_run`` also a dict of per-run
    arrays (estimate, spend, lower, upper, length, covered, flagged).

    ``gamma`` is the confidence level of the ci task's intervals; the
    unbiased task takes None.

    Raises:
        InvalidInputError: for an unknown task, a ``gamma`` on the unbiased
            task, a ``gamma`` on the ci task that is missing or not a number
            strictly between 0 and 1, a budget not a finite number ``>= 0``,
            ``runs`` or ``workers`` not a whole number ``>= 1``, or
            ``master_seed`` not a whole number ``>= 0``.  All are raised
            before any worker starts.
    """
    if task not in _TASKS:
        raise InvalidInputError(f"task must be one of {_TASKS}")
    if task == "unbiased" and gamma is not None:
        raise InvalidInputError("the unbiased task takes no gamma")
    if task == "ci":
        if gamma is None:
            raise InvalidInputError("ci task needs a confidence level gamma")
        gamma = ci_parameters(gamma, population.n).gamma
    budget = _scalar(budget, "budget", 0.0)
    runs = _scalar(runs, "runs", 1, convert=_whole)
    master_seed = _scalar(master_seed, "master_seed", 0, convert=_whole)
    workers = _scalar(workers, "workers", 1, convert=_whole)

    args = (task, population.costs, population.data, population.cap,
            budget, gamma, master_seed)
    if workers == 1 or runs < 2 * workers:
        parts = [_mc_batch(*args, 0, runs)]
    else:
        # Imported here: the pool's multiprocessing modules add about 1.5 MB
        # to the resident memory of every process that imports them.
        from concurrent.futures import ProcessPoolExecutor

        chunk = math.ceil(runs / workers)
        bounds = [(lo, min(lo + chunk, runs)) for lo in range(0, runs, chunk)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_mc_batch, *args, lo, hi) for lo, hi in bounds]
            parts = [f.result() for f in futures]
    estimates, spends, lowers, uppers, flagged = (
        np.concatenate([p[j] for p in parts]) for j in range(5)
    )
    # Interval length and coverage of the population mean, as CIOutput has them.
    pop_mean = float(np.mean(population.data))
    lengths = uppers - lowers
    covered = ((lowers <= pop_mean) & (pop_mean <= uppers)).astype(float)

    n = population.n
    ci = task == "ci"
    var_star = l_star = rhs_unbiased = rhs_ci = None
    if ci:
        _, l_star = benchmark_ci(population.costs, population.cap, budget, gamma)
        rhs_ci = ci_bound_rhs(n, l_star)
    else:
        rule, var_star = benchmark_unbiased(population.costs, population.cap, budget)
        rhs_unbiased = unbiased_bound_rhs(n, var_star, float(rule.probabilities[-1]))
    metrics = SimMetrics(
        task=task, runs=runs,
        estimator_mean=float(np.mean(estimates)),
        estimator_variance=float(np.var(estimates, ddof=1)) if runs > 1 else 0.0,
        expected_spend=float(np.mean(spends)),
        ci_mean_length=float(np.mean(lengths)) if ci else None,
        ci_coverage=float(np.mean(covered)) if ci else None,
        benchmark_var_star=var_star, benchmark_L_star=l_star,
        bound_rhs_unbiased=rhs_unbiased, bound_rhs_ci=rhs_ci,
        seed=master_seed, flagged_count=int(np.sum(flagged)),
    )
    if return_per_run:
        per_run = {
            "estimate": estimates, "spend": spends, "lower": lowers,
            "upper": uppers, "length": lengths, "covered": covered,
            "flagged": flagged,
        }
        return metrics, per_run
    return metrics


def _max_gain(costs, alloc, payments):
    """Largest gain of any of ``costs`` from reporting another over the truth.

    ``util[t, r]`` is the utility of true cost ``costs[t]`` reporting
    ``costs[r]``, which is allocated ``alloc[r]`` at price ``payments[r]``;
    a zero-allocation report earns nothing.
    """
    gains = np.where(alloc > 0, alloc * payments, 0.0)
    util = gains[None, :] - costs[:, None] * alloc[None, :]
    return float(np.max(util.max(axis=1) - np.diag(util)))


def truthfulness_audit(costs, alloc, payments) -> AuditReport:
    """Max truthfulness/IR violation of a discrete rule and its extension.

    Checks every ordered (true, reported) pair on the discrete grid and on a
    uniform grid of ``_AUDIT_POINTS`` costs over [0, largest cost], each
    taking the rule of the least grid cost at or above it; the utility of
    reporting a cost with zero allocation is zero.  Passes iff no violation
    exceeds ``_AUDIT_TOL``.

    Raises:
        InvalidInputError: unless the three arrays are aligned and 1-D, the
            costs non-empty, finite and sorted non-decreasing, ``alloc`` in
            [0, 1], and every payment finite where ``alloc`` is positive.
    """
    costs = _vector(costs, "costs")
    alloc = _vector(alloc, "alloc", 0.0, 1.0)
    payments = _float_array(payments, "payments")
    if alloc.shape != costs.shape or payments.shape != costs.shape:
        raise InvalidInputError("costs, alloc and payments must be aligned")
    # a price is paid only where the allocation is positive; elsewhere it may
    # be NaN, as ``_myerson`` gives
    if not np.all(np.isfinite(payments[alloc > 0])):
        raise InvalidInputError("payments must be finite where alloc is positive")
    if np.any(np.diff(costs) < 0):
        raise InvalidInputError("costs must be sorted non-decreasing")
    grid = np.linspace(0.0, float(costs[-1]), _AUDIT_POINTS)
    idx = np.searchsorted(costs, grid, side="left")
    max_violation = max(
        _max_gain(costs, alloc, payments),
        _max_gain(grid, alloc[idx], payments[idx]),
    )
    live = alloc > 0
    ir_violation = float(np.max(costs[live] - payments[live])) if np.any(live) else 0.0
    passed = max_violation <= _AUDIT_TOL and ir_violation <= _AUDIT_TOL
    return AuditReport(max_violation=max_violation, ir_violation=ir_violation, passed=passed)


def _clean(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def metrics_json(metrics: SimMetrics) -> str:
    """Deterministic JSON rendering of a metrics report."""
    payload = {k: _clean(v) for k, v in asdict(metrics).items()}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def run_log_csv(per_run: dict, handle) -> None:
    """Per-run CSV log to an open text handle: run, estimate, spend, lower, upper, covered."""
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(["run", "estimate", "spend", "lower", "upper", "covered"])
    runs = len(per_run["estimate"])
    for r in range(runs):
        lower = per_run["lower"][r]
        upper = per_run["upper"][r]
        writer.writerow([
            r,
            repr(float(per_run["estimate"][r])),
            repr(float(per_run["spend"][r])),
            "" if math.isnan(lower) else repr(float(lower)),
            "" if math.isnan(upper) else repr(float(upper)),
            "" if math.isnan(lower) else int(per_run["covered"][r]),
        ])
