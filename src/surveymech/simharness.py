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
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidInputError
from .online_runner import (
    _run_online,
    benchmark_ci,
    benchmark_unbiased,
    ci_bound_rhs,
    ci_schedule,
    unbiased_bound_rhs,
    unbiased_schedule,
)
from .populations import Population, gen_population  # noqa: F401  (re-export)

__all__ = [
    "Population",
    "gen_population",
    "SimMetrics",
    "monte_carlo",
    "truthfulness_audit",
    "AuditReport",
    "draw_permutation",
    "metrics_json",
    "run_log_csv",
]

_TASKS = ("unbiased", "ci")

# Grid points the Monte Carlo round cache keeps, about 8 MB of entries.
_CACHE_POINTS = 2**18


class _RoundCache(OrderedDict):
    """Round cache that evicts its oldest entries beyond ``max_points`` grid points.

    A grid's points are counted when its key is first added, and the key
    added last is never evicted; a key stored again keeps its place, as in a
    dict.  Evicting through ``popitem`` reuses the hash ``OrderedDict`` keeps
    for each key, so long keys are not hashed again.
    """

    def __init__(self, max_points: int):
        super().__init__()
        self.max_points = max_points
        self.points = 0

    def __setitem__(self, key, entry):
        size = len(self)
        super().__setitem__(key, entry)
        if len(self) > size:
            self.points += len(key)
        while self.points > self.max_points and len(self) > 1:
            oldest, _ = self.popitem(last=False)
            self.points -= len(oldest)


@dataclass(frozen=True)
class SimMetrics:
    """Aggregated Monte Carlo outputs plus benchmark comparison targets.

    Fields that do not apply to the task at hand are None.
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
    """Uniform arrival order; the single permutation primitive used by runs."""
    return rng.permutation(n)


def _mc_batch(task, costs, data, cap, budget, gamma, master_seed, run_lo, run_hi):
    """Per-run outputs for run indices [run_lo, run_hi); order-independent."""
    n = costs.size
    count = run_hi - run_lo
    estimates = np.empty(count)
    spends = np.empty(count)
    lowers = np.full(count, np.nan)
    uppers = np.full(count, np.nan)
    lengths = np.full(count, np.nan)
    covered = np.zeros(count)
    flagged = np.zeros(count, dtype=np.int64)
    pop_mean = float(np.mean(data))
    cache = _RoundCache(_CACHE_POINTS)
    if task == "unbiased":
        schedule = unbiased_schedule(n, budget)
        gamma = None
    else:
        schedule = ci_schedule(n, budget)
    for k in range(count):
        run_index = run_lo + k
        rng = np.random.default_rng([master_seed, run_index])
        perm = draw_permutation(rng, n)
        cseq = costs[perm]
        zseq = data[perm]
        result = _run_online(cseq, zseq, cap, schedule, gamma, rng, cache, False)
        if task == "unbiased":
            estimates[k] = result.estimate
        else:
            interval = result.interval
            estimates[k] = interval.sample_mean
            lowers[k] = interval.lower
            uppers[k] = interval.upper
            lengths[k] = interval.length
            covered[k] = 1.0 if interval.contains(pop_mean) else 0.0
        spends[k] = result.total_paid
        flagged[k] = result.flagged
    return estimates, spends, lowers, uppers, lengths, covered, flagged


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

    Raises:
        InvalidInputError: for an unknown task, runs < 1, or a missing gamma
            on the ci task.
    """
    if task not in _TASKS:
        raise InvalidInputError(f"task must be one of {_TASKS}")
    if runs < 1:
        raise InvalidInputError("runs must be at least 1")
    if task == "ci" and gamma is None:
        raise InvalidInputError("ci task needs a confidence level gamma")
    master_seed = int(master_seed)
    if master_seed < 0:
        raise InvalidInputError("master seed must be non-negative")
    workers = max(1, int(workers))

    args = (task, population.costs, population.data, population.cap,
            float(budget), gamma, master_seed)
    if workers == 1 or runs < 2 * workers:
        parts = [_mc_batch(*args, 0, runs)]
    else:
        chunk = math.ceil(runs / workers)
        bounds = [(lo, min(lo + chunk, runs)) for lo in range(0, runs, chunk)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_mc_batch, *args, lo, hi) for lo, hi in bounds]
            parts = [f.result() for f in futures]
    estimates, spends, lowers, uppers, lengths, covered, flagged = (
        np.concatenate([p[j] for p in parts]) for j in range(7)
    )

    n = population.n
    est_var = float(np.var(estimates, ddof=1)) if runs > 1 else 0.0
    if task == "unbiased":
        rule, var_star = benchmark_unbiased(population.costs, population.cap, budget)
        rhs = unbiased_bound_rhs(n, var_star, float(rule.probabilities[-1]))
        metrics = SimMetrics(
            task=task, runs=runs,
            estimator_mean=float(np.mean(estimates)),
            estimator_variance=est_var,
            expected_spend=float(np.mean(spends)),
            ci_mean_length=None, ci_coverage=None,
            benchmark_var_star=var_star, benchmark_L_star=None,
            bound_rhs_unbiased=rhs, bound_rhs_ci=None,
            seed=master_seed, flagged_count=int(np.sum(flagged)),
        )
    else:
        _, l_star = benchmark_ci(population.costs, population.cap, budget, gamma)
        metrics = SimMetrics(
            task=task, runs=runs,
            estimator_mean=float(np.mean(estimates)),
            estimator_variance=est_var,
            expected_spend=float(np.mean(spends)),
            ci_mean_length=float(np.mean(lengths)),
            ci_coverage=float(np.mean(covered)),
            benchmark_var_star=None, benchmark_L_star=l_star,
            bound_rhs_unbiased=None, bound_rhs_ci=ci_bound_rhs(n, l_star),
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


def truthfulness_audit(
    costs,
    alloc,
    payments,
    cap: float | None = None,
    grid_points: int = 201,
    tol: float = 1e-9,
) -> AuditReport:
    """Max truthfulness/IR violation of a discrete rule and its extension.

    Checks every ordered (true, reported) pair on the discrete grid and on a
    uniform ``grid_points`` grid of [0, cap]; the utility of reporting a cost
    with zero allocation is zero.  Passes iff no violation exceeds ``tol``.
    """
    costs = np.asarray(costs, dtype=float)
    alloc = np.asarray(alloc, dtype=float)
    payments = np.asarray(payments, dtype=float)
    if costs.shape != alloc.shape or costs.shape != payments.shape or costs.ndim != 1:
        raise InvalidInputError("costs, alloc and payments must be aligned 1-D arrays")
    cap = float(costs[-1]) if cap is None else float(cap)
    if cap > costs[-1]:
        raise InvalidInputError("extension audit needs the cap present in the grid")

    def pair_violation(true_costs, report_alloc, report_pay):
        # utility[t, r] of true cost t reporting r; zero-alloc reports pay nothing
        gains = np.where(report_alloc > 0, report_alloc * report_pay, 0.0)
        util = gains[None, :] - true_costs[:, None] * report_alloc[None, :]
        truthful = np.diag(util) if util.shape[0] == util.shape[1] else None
        return util, truthful

    util, truthful = pair_violation(costs, alloc, payments)
    max_violation = float(np.max(util.max(axis=1) - truthful))

    grid = np.linspace(0.0, cap, grid_points)
    idx = np.searchsorted(costs, grid, side="left")
    a_ext = alloc[idx]
    p_ext = payments[idx]
    gains = np.where(a_ext > 0, a_ext * p_ext, 0.0)
    util_ext = gains[None, :] - grid[:, None] * a_ext[None, :]
    truthful_ext = np.diag(util_ext)
    max_violation = max(max_violation, float(np.max(util_ext.max(axis=1) - truthful_ext)))

    live = alloc > 0
    ir_violation = float(np.max(costs[live] - payments[live])) if np.any(live) else 0.0
    passed = max_violation <= tol and ir_violation <= tol
    return AuditReport(max_violation=max_violation, ir_violation=ir_violation, passed=passed)


def _clean(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def metrics_json(metrics: SimMetrics) -> str:
    """Deterministic JSON rendering of a metrics report."""
    payload = {k: _clean(v) for k, v in asdict(metrics).items()}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def run_log_csv(per_run: dict, target) -> None:
    """Per-run CSV log: run, estimate, spend, lower, upper, covered."""
    own = isinstance(target, (str, bytes))
    handle = open(target, "w", encoding="utf-8", newline="") if own else target
    try:
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
    finally:
        if own:
            handle.close()
