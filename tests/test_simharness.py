import io
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from surveymech import (
    InvalidInputError,
    draw_permutation,
    gen_population,
    metrics_json,
    monte_carlo,
    run_log_csv,
    truthfulness_audit,
)
from surveymech import simharness


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

    def test_ci_needs_gamma(self, small_pop):
        with pytest.raises(InvalidInputError):
            monte_carlo("ci", small_pop, 1.0, None, 1, 0)

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

    def test_flagged_costs_surface_in_metrics(self):
        from surveymech import Population

        pop = Population(costs=np.array([1.0, 5.0]), data=np.ones(2), cap=5.0)
        # run with a tighter cap by rebuilding the population
        tight = Population(costs=pop.costs, data=pop.data, cap=5.0)
        metrics = monte_carlo("unbiased", tight, 10.0, None, 4, 0)
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
        # 4 runs of 80 rounds store 4 * 3240 grid points, all kept under the
        # default bound; a bound of 1000 evicts most and changes no output.
        pop = gen_population({"kind": "independent"}, 80, 25.0, 2)
        args = ("unbiased", pop, 120.0, None, 4, 9)
        _, unbounded = monte_carlo(*args, return_per_run=True)
        seen = []

        class Spy(simharness._RoundCache):
            def __setitem__(self, key, entry):
                super().__setitem__(key, entry)
                seen.append((self.points, sum(map(len, self))))

        monkeypatch.setattr(simharness, "_RoundCache", Spy)
        monkeypatch.setattr(simharness, "_CACHE_POINTS", 1000)
        _, bounded = monte_carlo(*args, return_per_run=True)
        assert len(seen) > 4 * 80 / 2
        assert all(counted == stored <= 1000 for counted, stored in seen)
        for key, values in unbounded.items():
            assert np.array_equal(bounded[key], values, equal_nan=True), key

    def test_continuous_costs_run_in_bounded_memory(self):
        # Every round misses with continuous costs: 6 runs at n = 600 solve
        # 6 * 180,300 grid points; kept without a bound they peak at 35 MB.
        pop = gen_population({"kind": "independent"}, 600, 25.0, 4)
        tracemalloc.start()
        try:
            monte_carlo("unbiased", pop, 900.0, None, 6, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20
