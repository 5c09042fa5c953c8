import bisect
import concurrent.futures
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from surveymech import (
    InvalidInputError,
    Population,
    ci_schedule,
    draw_permutation,
    gen_population,
    metrics_json,
    monte_carlo,
    run_ci_online,
    run_log_csv,
    run_unbiased_online,
    truthfulness_audit,
    unbiased_schedule,
)
from surveymech import online_runner, simharness


@pytest.fixture(scope="module")
def small_pop():
    spec = {"kind": "worst_case", "cost_law": {"dist": "choice", "values": [1.0, 4.0]}}
    return gen_population(spec, 30, 6.0, 2)


class TestMonteCarlo:
    def test_single_run_saturating_budget(self, small_pop):
        n = small_pop.n
        # enough budget to saturate every round's grid
        budget = 4 * math.sqrt(n) * (n + 1) * 6.0 * (n + 1)
        metrics = monte_carlo("unbiased", small_pop, budget, None, 1, 5)
        assert metrics.estimator_variance == 0.0
        assert metrics.estimator_mean == pytest.approx(small_pop.mean)

    def test_unbiased_self_consistency(self, small_pop):
        metrics = monte_carlo("unbiased", small_pop, 40.0, None, 600, 5)
        se = math.sqrt(metrics.estimator_variance / metrics.runs)
        assert abs(metrics.estimator_mean - small_pop.mean) <= 3 * se
        assert metrics.expected_spend <= 40.0

    def test_ci_coverage(self, small_pop):
        metrics = monte_carlo("ci", small_pop, 40.0, 0.9, 150, 5)
        assert metrics.ci_coverage >= 0.9 - 2 * math.sqrt(0.9 * 0.1 / 150)
        assert metrics.ci_mean_length is not None

    def test_rejects_bad_task(self, small_pop):
        with pytest.raises(InvalidInputError):
            monte_carlo("nope", small_pop, 1.0, None, 1, 0)

    def test_rejects_zero_runs(self, small_pop):
        with pytest.raises(InvalidInputError):
            monte_carlo("unbiased", small_pop, 1.0, None, 0, 0)

    @pytest.mark.parametrize("workers", [0, -4])
    def test_rejects_fewer_than_one_worker(self, small_pop, workers):
        with pytest.raises(InvalidInputError):
            monte_carlo("unbiased", small_pop, 1.0, None, 4, 0, workers=workers)

    def test_ci_needs_gamma(self, small_pop):
        with pytest.raises(InvalidInputError):
            monte_carlo("ci", small_pop, 1.0, None, 1, 0)

    @pytest.mark.parametrize("gamma", [0.9, 1.7, math.nan])
    def test_unbiased_task_takes_no_gamma(self, small_pop, gamma):
        with pytest.raises(InvalidInputError, match="gamma"):
            monte_carlo("unbiased", small_pop, 1.0, gamma, 1, 0)

    @pytest.mark.parametrize("task, gamma", [("unbiased", 0.9), ("ci", 1.7), ("ci", 0.0)])
    def test_gamma_is_checked_before_any_worker_starts(self, small_pop, monkeypatch, task, gamma):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        with pytest.raises(InvalidInputError, match="gamma"):
            monte_carlo(task, small_pop, 1.0, gamma, 4, 0, workers=2)

    def test_runner_errors_propagate(self, small_pop):
        with pytest.raises(InvalidInputError):
            monte_carlo("unbiased", small_pop, 0.0, None, 2, 0)

    def test_worker_count_does_not_change_bytes(self, small_pop):
        m1, r1 = monte_carlo("unbiased", small_pop, 30.0, None, 64, 9, workers=1, return_per_run=True)
        m8, r8 = monte_carlo("unbiased", small_pop, 30.0, None, 64, 9, workers=8, return_per_run=True)
        assert metrics_json(m1) == metrics_json(m8)
        buf1, buf8 = io.StringIO(), io.StringIO()
        run_log_csv(r1, buf1)
        run_log_csv(r8, buf8)
        assert buf1.getvalue() == buf8.getvalue()

    def test_harness_report_has_no_flagged_arrivals(self):
        # A population holds no cost above its cap and the harness runs at
        # that cap, so even a cost equal to the cap is offered, not flagged.
        pop = Population(costs=np.array([1.0, 5.0]), data=np.ones(2), cap=5.0)
        metrics = monte_carlo("unbiased", pop, 10.0, None, 4, 0)
        assert metrics.flagged_count == 0

    def test_different_seeds_move_metrics_not_verdicts(self, small_pop):
        budget = 40.0
        a, pa = monte_carlo("unbiased", small_pop, budget, None, 400, 1, return_per_run=True)
        b, pb = monte_carlo("unbiased", small_pop, budget, None, 400, 2, return_per_run=True)
        assert a.estimator_mean != b.estimator_mean
        for m, p in ((a, pa), (b, pb)):
            se = float(np.std(p["spend"], ddof=1)) / math.sqrt(m.runs)
            assert m.expected_spend <= budget + 3 * se
            assert m.estimator_variance <= m.bound_rhs_unbiased


class TestPermutationUniformity:
    def test_chi_square_all_orders(self):
        # Same per-run generator derivation the Monte Carlo harness uses.
        n, draws, master_seed = 4, 100_000, 123
        counts: dict[tuple, int] = {}
        for run in range(draws):
            rng = np.random.default_rng([master_seed, run])
            perm = tuple(draw_permutation(rng, n))
            counts[perm] = counts.get(perm, 0) + 1
        assert len(counts) == math.factorial(n)
        observed = np.array(list(counts.values()))
        _, p_value = stats.chisquare(observed)
        assert p_value > 0.001


class TestTruthfulnessAudit:
    def test_myerson_rule_passes(self):
        report = truthfulness_audit(
            np.array([1.0, 2.0]), np.array([1.0, 0.5]), np.array([1.5, 2.0])
        )
        assert report.passed
        assert report.max_violation <= 1e-9

    def test_corrupted_payment_detected(self):
        report = truthfulness_audit(
            np.array([1.0, 2.0]), np.array([1.0, 0.5]), np.array([1.4, 2.0])
        )
        assert not report.passed
        assert report.max_violation == pytest.approx(0.1, abs=1e-9)

    def test_ir_violation_detected(self):
        report = truthfulness_audit(
            np.array([1.0, 2.0]), np.array([1.0, 1.0]), np.array([2.0, 1.5])
        )
        assert not report.passed
        assert report.ir_violation == pytest.approx(0.5)

    def test_effective_rule_with_zeros(self):
        # discard suffix behaves like a zero-utility outside option
        costs = np.array([1.0, 2.0, 8.0])
        alloc = np.array([0.8, 0.4, 0.0])
        from surveymech.allocation import _myerson

        pay = _myerson(costs, alloc)
        report = truthfulness_audit(costs, alloc, pay)
        assert report.passed

    def test_rejects_empty_costs(self):
        with pytest.raises(InvalidInputError):
            truthfulness_audit([], [], [])

    @pytest.mark.parametrize("costs, alloc", [
        ([1.0, math.nan], [1.0, 0.5]), ([1.0, 2.0], [1.0, math.nan]), ([1.0, 2.0], [1.5, 0.5]),
    ], ids=["nan_cost", "nan_alloc", "alloc_above_one"])
    def test_rejects_malformed_costs_or_alloc(self, costs, alloc):
        with pytest.raises(InvalidInputError):
            truthfulness_audit(costs, alloc, [1.5, 2.0])

    def test_rejects_non_finite_price_where_allocated(self):
        # once a NaN verdict: max_violation=nan, ir_violation=nan, passed=False
        for bad in (math.nan, math.inf):
            with pytest.raises(InvalidInputError, match="payments must be finite"):
                truthfulness_audit([1.0, 2.0], [1.0, 0.5], [bad, 2.0])

    def test_allows_nan_price_where_never_allocated(self):
        report = truthfulness_audit([1.0, 2.0], [1.0, 0.0], [1.0, math.nan])
        assert report.passed and report.max_violation == 0.0 and report.ir_violation == 0.0

    def test_rejects_unsorted_costs(self):
        with pytest.raises(InvalidInputError):
            truthfulness_audit([2.0, 1.0], [0.5, 1.0], [2.0, 1.5])


class TestReports:
    def test_metrics_json_deterministic(self, small_pop):
        m = monte_carlo("unbiased", small_pop, 20.0, None, 8, 3)
        assert metrics_json(m) == metrics_json(m)
        assert '"task": "unbiased"' in metrics_json(m)

    def test_run_log_csv_columns(self, small_pop):
        _, per_run = monte_carlo("ci", small_pop, 20.0, 0.9, 5, 3, return_per_run=True)
        buf = io.StringIO()
        run_log_csv(per_run, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "run,estimate,spend,lower,upper,covered"
        assert len(lines) == 6


class TestRoundCacheBound:
    def test_harness_cache_never_exceeds_its_point_bound(self, monkeypatch):
        # Five cost values at n = 80: 4 runs of 80 rounds store almost
        # 4 * 3240 grid points, all kept under the default bound; a bound of
        # 1000 evicts most and changes no output.  On the CI task every miss
        # is solved and stored; the unbiased task's purchase screen stores
        # far fewer.
        pop = gen_population(_spread(), 80, 25.0, 2)
        args = ("ci", pop, 120.0, 0.9, 4, 9)
        _, unbounded = monte_carlo(*args, return_per_run=True)
        seen, added = [], []

        class Spy(simharness._RoundCache):
            def __setitem__(self, key, entry):
                super().__setitem__(key, entry)
                # slot 1, the round's allocations, has its grid's size
                seen.append((self.points, sum(e[1].size for e in self.values())))
                added.append(entry[1].size)

        monkeypatch.setattr(simharness, "_RoundCache", Spy)
        monkeypatch.setattr(simharness, "_CACHE_POINTS", 1000)
        _, bounded = monte_carlo(*args, return_per_run=True)
        assert len(seen) > 4 * 80 / 2
        assert sum(added) > 4 * 1000
        assert all(counted == stored <= 1000 for counted, stored in seen)
        for key, values in unbounded.items():
            assert np.array_equal(bounded[key], values, equal_nan=True), key

    def test_continuous_costs_run_in_bounded_memory(self):
        # Every round misses with continuous costs, so the harness keeps no
        # round cache: 6 runs at n = 600 solve 6 * 180,300 grid points; kept
        # without a bound they peak at 35 MB.
        pop = gen_population({"kind": "independent"}, 600, 25.0, 4)
        tracemalloc.start()
        try:
            monte_carlo("unbiased", pop, 900.0, None, 6, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20


def _pop(costs, cap):
    costs = np.asarray(costs, dtype=float)
    data = np.random.default_rng(costs.size).uniform(0.0, 1.0, costs.size)
    return Population(costs=costs, data=data, cap=cap)


def _spread(k=5, top=20.0):
    return {"kind": "worst_case", "cost_law": {"dist": "choice", "values": list(np.linspace(0.5, top, k))}}


# (population, budget): the edge cases of a round grid, and the acceptance shapes at n = 30.
COUNT_KEY_POPULATIONS = {
    "ties": (_pop([3.0, 1.0, 2.0, 1.0, 3.0, 2.0, 1.0, 3.0], 4.0), 6.0),
    "zero_costs": (_pop([0.0, 2.0, 0.0, 5.0, 0.0, 1.0, 2.0], 6.0), 5.0),
    "cost_at_cap": (_pop([5.0, 1.0, 5.0, 2.0, 5.0, 3.0], 5.0), 4.0),
    "one_agent": (_pop([2.0], 3.0), 1.5),
    "continuous": (gen_population({"kind": "independent"}, 25, 25.0, 3), 37.5),
    "two_point": (gen_population(
        {"kind": "two_point", "fractions": [0.9, 0.1], "costs": [1.0, 20.0]}, 30, 25.0, 4), 45.0),
    "spread": (gen_population(_spread(), 30, 25.0, 5), 45.0),
    "correlated": (gen_population(
        {"kind": "correlated", "cost_law": {"dist": "choice", "values": [0.5, 5.0, 12.0, 20.0]}},
        30, 25.0, 6), 45.0),
}


def _public_runs(task, pop, budget, gamma, runs, seed):
    """``monte_carlo``'s per-run outputs from the public runners: the harness's
    per-run generators, and one plain dict shared by every run where the
    harness keeps a cache, that is where some cost repeats."""
    cache = {} if np.unique(pop.costs).size < pop.n else None
    out = {name: np.full(runs, np.nan) for name in ("estimate", "spend", "lower", "upper")}
    out["flagged"] = np.zeros(runs, dtype=np.int64)
    for r in range(runs):
        rng = np.random.default_rng([seed, r])
        perm = draw_permutation(rng, pop.n)
        arrived = Population(costs=pop.costs[perm], data=pop.data[perm], cap=pop.cap)
        if task == "unbiased":
            res = run_unbiased_online(arrived, unbiased_schedule(pop.n, budget), rng,
                                      record_transcripts=False, cache=cache)
            out["estimate"][r] = res.estimate
        else:
            res = run_ci_online(arrived, ci_schedule(pop.n, budget), gamma, rng,
                                record_transcripts=False, cache=cache)
            interval = res.interval
            out["estimate"][r] = interval.sample_mean
            out["lower"][r], out["upper"][r] = interval.lower, interval.upper
        out["spend"][r] = res.total_paid
        out["flagged"][r] = res.flagged
    return out


def _screened_rounds(pop, budget, runs, seed):
    """Rounds of ``runs`` harness runs of the unbiased task that the purchase
    screen of ``online_runner._plan_chunk`` leaves to be solved, from each
    run's own coins and the bound ``A_idx (idx c_idx + sqrt(c_idx) S) <= B_i
    (1 + slack)``, where ``S`` sums the square roots of the grid costs at
    positions ``idx`` and above."""
    schedule = unbiased_schedule(pop.n, budget)
    widen = 1.0 + online_runner._screen_slack(pop.n + 1)
    left = 0
    for r in range(runs):
        rng = np.random.default_rng([seed, r])
        perm = draw_permutation(rng, pop.n)
        coins = rng.random(pop.n)
        grid = [pop.cap]
        for i, (cost, coin) in enumerate(zip(pop.costs[perm].tolist(), coins.tolist()), 1):
            idx = bisect.bisect_left(grid, cost)
            top = grid[idx]
            bound = idx * top + math.sqrt(top) * math.fsum(map(math.sqrt, grid[idx:]))
            left += not coin * bound >= schedule.per_round(i) * widen
            bisect.insort(grid, cost)
    return left


class TestCachePolicy:
    """``monte_carlo`` keeps a round cache only where some cost repeats: with
    all-distinct costs it solves every round the purchase screen leaves, as
    the public runners do with ``cache`` None."""

    RUNS = 6
    SEED = 23

    @pytest.mark.parametrize("task", ["unbiased", "ci"])
    @pytest.mark.parametrize("name", ["continuous", "one_agent", "spread"])
    def test_caches_only_where_a_cost_repeats(self, monkeypatch, name, task):
        pop, budget = COUNT_KEY_POPULATIONS[name]
        caches, rows = [], []
        solve = online_runner._solve_rounds

        class Spy(simharness._RoundCache):
            def __init__(self, max_points):
                super().__init__(max_points)
                caches.append(self)

        def spy(costs, sizes, budgets, beta, at):
            rows.append(len(sizes))
            return solve(costs, sizes, budgets, beta, at)

        monkeypatch.setattr(simharness, "_RoundCache", Spy)
        monkeypatch.setattr(online_runner, "_solve_rounds", spy)
        monte_carlo(task, pop, budget, 0.9 if task == "ci" else None, self.RUNS, self.SEED)
        if name == "spread":
            assert len(caches) == 1 and len(caches[0]) > 0
            assert 0 < sum(rows) < self.RUNS * pop.n
        elif task == "unbiased":
            assert not caches
            assert sum(rows) == _screened_rounds(pop, budget, self.RUNS, self.SEED)
        else:
            assert not caches and sum(rows) == self.RUNS * pop.n

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("task", ["unbiased", "ci"])
    @pytest.mark.parametrize("name", ["continuous", "spread"])
    def test_matches_public_runners_for_any_worker_count(self, name, task, workers):
        pop, budget = COUNT_KEY_POPULATIONS[name]
        gamma = 0.9 if task == "ci" else None
        _, per_run = monte_carlo(task, pop, budget, gamma, self.RUNS, self.SEED,
                                 workers=workers, return_per_run=True)
        want = _public_runs(task, pop, budget, gamma, self.RUNS, self.SEED)
        for key, values in want.items():
            assert per_run[key].tobytes() == values.tobytes(), key


class TestCountKeys:
    """Where some cost repeats, the harness keys its round cache by counts
    over the distinct costs; the public runners key a plain dict by grid
    tuples."""

    RUNS = 40
    SEED = 17

    @pytest.mark.parametrize("task", ["unbiased", "ci"])
    @pytest.mark.parametrize("name", sorted(COUNT_KEY_POPULATIONS))
    def test_monte_carlo_matches_public_runners_bit_for_bit(self, monkeypatch, name, task):
        pop, budget = COUNT_KEY_POPULATIONS[name]
        gamma = 0.9 if task == "ci" else None
        rows = []
        solve = online_runner._solve_rounds

        def spy(costs, sizes, budgets, beta, at):
            rows.append(len(sizes))
            return solve(costs, sizes, budgets, beta, at)

        monkeypatch.setattr(online_runner, "_solve_rounds", spy)
        _, per_run = monte_carlo(task, pop, budget, gamma, self.RUNS, self.SEED, return_per_run=True)
        harness_rows = sum(rows)
        rows.clear()
        want = _public_runs(task, pop, budget, gamma, self.RUNS, self.SEED)
        assert harness_rows == sum(rows) > 0
        for key, values in want.items():
            assert per_run[key].tobytes() == values.tobytes(), key

    @given(st.lists(st.integers(1, 6), min_size=1, max_size=8).flatmap(
        lambda mult: st.tuples(*(st.tuples(st.just(m), st.integers(0, m), st.integers(0, m))
                                 for m in mult))))
    @settings(max_examples=300, deadline=None)
    def test_count_keys_equal_only_for_equal_counts(self, classes):
        # Distinct cost j appears mult_j times, in shuffled order; two
        # sub-multisets take the first count_j copies of each.
        costs = np.repeat(np.arange(len(classes), dtype=float), [m for m, _, _ in classes])
        costs = np.random.default_rng(costs.size).permutation(costs)
        weights = simharness._count_weights(costs)
        where = [np.flatnonzero(costs == j).tolist() for j in range(len(classes))]

        def key(which):
            return sum(weights[i] for j, c in enumerate(classes) for i in where[j][:c[which]])

        first = [c[1] for c in classes]
        second = [c[2] for c in classes]
        assert (key(1) == key(2)) == (first == second)
        # the key is the counts' mixed-radix numeral: it decodes back to them
        decoded, rest = [], key(1)
        for m, _, _ in classes:
            rest, count = divmod(rest, m + 1)
            decoded.append(count)
        assert decoded == first and rest == 0
