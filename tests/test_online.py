import math

import numpy as np
import pytest

from surveymech import (
    CostSet,
    InvalidInputError,
    Population,
    benchmark_ci,
    benchmark_unbiased,
    ci_parameters,
    ci_schedule,
    gen_population,
    run_ci_online,
    run_unbiased_online,
    solve_unbiased,
    unbiased_schedule,
    virtual_costs,
    worst_case_variance,
)
from surveymech.audits import random_cost_set
from surveymech.online_runner import _solve_rounds


def make_pop(costs, data=None, cap=None):
    costs = np.asarray(costs, dtype=float)
    data = np.ones_like(costs) if data is None else np.asarray(data, dtype=float)
    cap = float(costs.max() if cap is None else cap)
    return Population(costs=costs, data=data, cap=cap)


class TestSchedules:
    def test_unbiased_xi(self):
        sched = unbiased_schedule(64, 10.0)
        assert sched.xi == pytest.approx(1 / 32)
        assert sched.per_round(4) == pytest.approx(10.0 * 2 / 32)

    def test_ci_xi(self):
        sched = ci_schedule(64, 10.0)
        assert sched.xi == pytest.approx(1 / 128)

    def test_rejects_bad_n(self):
        with pytest.raises(InvalidInputError):
            unbiased_schedule(0, 1.0)


class TestRunUnbiased:
    def test_saturating_budget_recovers_exact_mean(self):
        pop = make_pop([1, 2, 3, 2], data=[0.1, 0.2, 0.9, 0.4], cap=3.0)
        n = pop.n
        # every round's grid spend is at most sum(psi) of the cap-augmented
        # set, so a budget of 4*sqrt(n)*that saturates every round
        worst = float(np.sum(virtual_costs(CostSet(costs=np.full(n, 3.0), cap=3.0))))
        sched = unbiased_schedule(n, 4 * math.sqrt(n) * worst)
        res = run_unbiased_online(pop, sched, rng_seed=0)
        assert res.estimate == pytest.approx(pop.mean)
        assert all(t.alloc == 1.0 for t in res.transcripts)

    def test_single_agent_round_budget(self):
        pop = make_pop([2.0], cap=10.0)
        sched = unbiased_schedule(1, 4.0)
        res = run_unbiased_online(pop, sched, rng_seed=1)
        t = res.transcripts[0]
        assert t.grid == (10.0,)
        # round budget is xi*B*sqrt(1) = 1.0; psi on {cap} is cap
        assert t.alloc == pytest.approx(min(1.0, 1.0 / 10.0))

    def test_determinism(self):
        pop = make_pop([1, 5, 2, 4, 3], cap=6.0)
        sched = unbiased_schedule(5, 3.0)
        a = run_unbiased_online(pop, sched, rng_seed=123)
        b = run_unbiased_online(pop, sched, rng_seed=123)
        assert a.estimate == b.estimate
        assert a.transcripts == b.transcripts

    def test_zero_budget_rejected(self):
        pop = make_pop([1.0, 2.0], cap=3.0)
        sched = unbiased_schedule(2, 0.0)
        with pytest.raises(InvalidInputError):
            run_unbiased_online(pop, sched, rng_seed=0)

    def test_shared_cache_resolves_for_round_budget(self):
        # After the flagged first arrival, grid {4} serves round 2 and {1, 4}
        # round 3; a run without flags warmed those grids at rounds 1 and 2,
        # at smaller budgets, and a shared cache must not serve those rules.
        def round_allocs(costs, cache):
            pop = Population(costs=np.array(costs, dtype=float), data=np.ones(3), cap=6.0)
            res = run_unbiased_online(pop, unbiased_schedule(3, 2.0), 0, cap=4.0, cache=cache)
            return [t.alloc for t in res.transcripts]

        fresh = round_allocs([5, 1, 2], None)
        assert fresh == pytest.approx([0.0, 0.102, 0.052], abs=5e-4)
        cache: dict = {}
        round_allocs([1, 2, 3], cache)
        assert round_allocs([5, 1, 2], cache) == fresh

    @pytest.mark.parametrize("run", ["unbiased", "ci"])
    @pytest.mark.parametrize("cap", [float("inf"), float("nan")])
    def test_rejects_non_finite_cap_override(self, run, cap):
        # An infinite override once ran to a silent estimate of 0.0, and NaN
        # failed inside the round engine.
        pop = make_pop([1.0, 2.0, 3.0])
        with pytest.raises(InvalidInputError):
            if run == "unbiased":
                run_unbiased_online(pop, unbiased_schedule(3, 3.0), 0, cap=cap)
            else:
                run_ci_online(pop, ci_schedule(3, 3.0), 0.9, 0, cap=cap)

    def test_flagged_report_above_cap(self):
        pop = Population(costs=np.array([1.0, 2.0]), data=np.ones(2), cap=5.0)
        sched = unbiased_schedule(2, 10.0)
        res = run_unbiased_online(pop, sched, rng_seed=0, cap=1.5)
        assert res.flagged == 1
        flagged = [t for t in res.transcripts if t.flagged]
        assert len(flagged) == 1 and flagged[0].y == 0.0 and not flagged[0].purchased

    def test_flagged_round_transcript(self):
        # Round 2 reports above the cap override: it is declined on the grid
        # of round 1's report plus the cap, and round 3 meets that same grid.
        pop = Population(costs=np.array([1.0, 5.0, 2.0]), data=np.array([0.5, 0.7, 0.9]), cap=6.0)
        res = run_unbiased_online(pop, unbiased_schedule(3, 4.0), 0, cap=4.0)
        t = res.transcripts[1]
        assert (t.round_index, t.cost, t.flagged) == (2, 5.0, True)
        assert t.grid == (1.0, 4.0)
        assert t.alloc == 0.0 and math.isnan(t.payment_offer)
        assert not t.purchased and not t.ignored
        assert (t.observed, t.y, t.paid) == (0.0, 0.0, 0.0)
        after = res.transcripts[2]
        assert after.grid == (1.0, 4.0) and not after.flagged and after.purchased

    def test_transcript_reweighting(self):
        pop = make_pop([1, 2, 3], cap=4.0)
        sched = unbiased_schedule(3, 5.0)
        res = run_unbiased_online(pop, sched, rng_seed=7)
        for t in res.transcripts:
            if t.purchased:
                assert t.y == pytest.approx(t.observed / t.alloc)
                assert t.paid >= t.cost
            else:
                assert t.y == 0.0 and t.paid == 0.0


class TestRunCI:
    def test_zero_budget_gives_unit_interval(self):
        pop = make_pop([1, 2, 3, 4], cap=5.0)
        sched = ci_schedule(4, 0.0)
        res = run_ci_online(pop, sched, 0.5, rng_seed=0)
        assert res.ignored_count == 4
        assert (res.interval.lower, res.interval.upper) == (0.0, 1.0)

    def test_huge_budget_buys_every_offer(self):
        pop = make_pop([1, 1, 2, 2], data=[0.3, 0.6, 0.2, 0.9], cap=2.0)
        n = pop.n
        worst = float(np.sum(virtual_costs(CostSet(costs=np.full(n, 2.0), cap=2.0))))
        sched = ci_schedule(n, 16 * math.sqrt(n) * worst * 1e6)
        res = run_ci_online(pop, sched, 0.9, rng_seed=3)
        for t in res.transcripts:
            if not t.ignored:
                assert t.alloc == 1.0 and t.purchased
        assert res.interval.bias_term == pytest.approx(res.ignored_count / n)

    def test_determinism(self):
        pop = make_pop([1, 5, 2, 4, 3, 2, 2, 1], cap=6.0)
        sched = ci_schedule(8, 20.0)
        a = run_ci_online(pop, sched, 0.9, rng_seed=11)
        b = run_ci_online(pop, sched, 0.9, rng_seed=11)
        assert a.interval == b.interval
        # repr, since an ignored round's NaN offer is unequal to itself
        assert list(map(repr, a.transcripts)) == list(map(repr, b.transcripts))

    def test_ignored_rounds_pay_nothing(self):
        pop = make_pop([1, 1, 9, 9, 9, 1], cap=9.0)
        sched = ci_schedule(6, 3.0)
        res = run_ci_online(pop, sched, 0.9, rng_seed=2)
        for t in res.transcripts:
            if t.ignored:
                assert t.paid == 0.0 and not t.purchased and t.y == 0.0

    def test_shared_cache_resolves_for_gamma(self):
        # Same n, budget and grids, another gamma: a cache warmed at gamma
        # 0.95 must not serve its rules to a run at gamma 0.05.
        pop = gen_population(
            {"kind": "two_point", "fractions": [0.85, 0.15], "costs": [1.0, 20.0],
             "data": [1.0, 0.3]},
            200, 25.0, 0,
        )
        perm = np.random.default_rng(5).permutation(200)
        arrived = Population(costs=pop.costs[perm], data=pop.data[perm], cap=25.0)
        sched = ci_schedule(200, 300.0)
        fresh = run_ci_online(arrived, sched, 0.05, rng_seed=11)
        assert (fresh.ignored_count, fresh.total_paid) == (200, 0.0)
        cache: dict = {}
        run_ci_online(arrived, sched, 0.95, rng_seed=11, cache=cache)
        warm = run_ci_online(arrived, sched, 0.05, rng_seed=11, cache=cache)
        assert (warm.ignored_count, warm.total_paid) == (200, 0.0)
        assert warm.interval == fresh.interval

    def test_ignored_round_transcript(self):
        pop = gen_population(
            {"kind": "two_point", "fractions": [0.85, 0.15], "costs": [1.0, 20.0],
             "data": [1.0, 0.3]},
            200, 25.0, 0,
        )
        perm = np.random.default_rng(5).permutation(200)
        arrived = Population(costs=pop.costs[perm], data=pop.data[perm], cap=25.0)
        sched = ci_schedule(200, 300.0)
        res = run_ci_online(arrived, sched, 0.95, rng_seed=11)
        assert (res.ignored_count, sum(t.purchased for t in res.transcripts)) == (187, 13)
        t = res.transcripts[198]
        assert (t.round_index, t.cost, t.ignored, t.flagged) == (199, 1.0, True, False)
        assert t.alloc == pytest.approx(0.6040363458752281, abs=1e-12)
        assert math.isnan(t.payment_offer) and not t.purchased
        assert (t.observed, t.y, t.paid) == (0.0, 0.0, 0.0)
        # the offer shown is the round rule's allocation at the report
        beta = ci_parameters(0.95, 200).beta
        [(alloc, ignored, _)] = _solve_rounds(
            np.array([t.grid]), np.array([len(t.grid)]), [sched.per_round(199)], beta
        )
        idx = int(np.searchsorted(t.grid, t.cost))
        assert len(t.grid) == 199 and ignored[idx] and t.alloc == alloc[idx]


class TestUserCache:
    @pytest.mark.parametrize("gamma", [None, 0.9])
    def test_receives_every_solved_grid_in_round_order(self, gamma):
        # A cap override flags some arrivals; every other round's grid is
        # stored once, in round order, as its grid key, the round's arrays
        # and (budget, beta).
        pop = gen_population({"kind": "independent"}, 60, 25.0, 3)
        cache: dict = {}
        if gamma is None:
            sched, beta, width = unbiased_schedule(60, 90.0), None, 3
            res = run_unbiased_online(pop, sched, 1, cap=20.0, cache=cache)
        else:
            sched, beta, width = ci_schedule(60, 90.0), ci_parameters(gamma, 60).beta, 4
            res = run_ci_online(pop, sched, gamma, 1, cap=20.0, cache=cache)
        solved = [t for t in res.transcripts if not t.flagged]
        assert 0 < res.flagged < 60
        assert list(cache) == [t.grid for t in solved]
        for t in solved:
            entry = cache[t.grid]
            budget = sched.per_round(t.round_index)
            assert len(entry) == width + 2 and entry[-2:] == (budget, beta)
            assert entry[0] == t.grid
            [want] = _solve_rounds(np.array([t.grid]), np.array([len(t.grid)]), [budget], beta)
            assert len(want) == width - 1
            for got, part in zip(entry[1:width], want):
                assert np.array_equal(got, part, equal_nan=True)


class TestBenchmarks:
    def test_free_data(self):
        rule, var = benchmark_unbiased(np.zeros(3), 0.0, 1.0)
        assert np.allclose(rule.probabilities, 1.0)
        assert var == 0.0

    def test_augmented_anchor(self):
        rule, var = benchmark_unbiased(np.array([1.0, 10.0]), 11.0, 3.0)
        assert np.allclose(rule.probabilities, [1 / 3, 1 / 12, 1 / 12])
        assert var == pytest.approx(8 / 3)

    def test_saturated_variance_zero(self):
        rule, var = benchmark_unbiased(np.array([1.0, 10.0]), 11.0, 33.0)
        assert var == 0.0
        assert rule.saturated

    def test_ci_zero_budget_length_one(self):
        (_, ignore), l_star = benchmark_ci(np.array([1.0, 2.0]), 3.0, 0.0, 0.1)
        assert np.allclose(ignore.u_values, 1.0)
        assert l_star == pytest.approx(1.0)

    def test_ci_huge_budget_saturates(self):
        costs = np.full(80, 1.0)
        (rule, ignore), l_star = benchmark_ci(costs, 1.0, 1e9, 0.9)
        m = costs.size + 1
        from surveymech import alpha_gamma

        beta = 2 * alpha_gamma(0.9) / math.sqrt(m)
        assert rule.saturated
        assert np.allclose(rule.probabilities, 1.0)
        # within sqrt(2) of the best length achievable at unit allocation
        q = np.linspace(0.0, 1.0, 100001)
        best = float(np.min(np.sqrt(beta**2 * (1 - q) + q**2) * math.sqrt(2)))
        assert l_star <= best + 1e-6
        # the quadratic surrogate puts the ignore mass near beta^2 * m / 2
        assert ignore.total_mass == pytest.approx(min(m, beta**2 * m / 2), rel=1e-6)

    def test_ci_matches_grid_oracle(self):
        from surveymech import alpha_gamma, grid_search_ci

        costs = np.array([1.0, 1.0, 100.0])
        cap = 100.0
        (_, _), l_star = benchmark_ci(costs, cap, 2.0, 0.1)
        aug = CostSet(costs=np.append(costs, cap), cap=cap)
        beta = 2 * alpha_gamma(0.1) / 2.0
        (_, _), grid_obj = grid_search_ci(aug, 2.0, beta)
        # squared objective sandwich: l_star in [sqrt(obj), sqrt(2 obj)]
        assert math.sqrt(grid_obj) - 1e-3 <= l_star <= math.sqrt(2 * grid_obj) + 1e-3


class TestPerRoundTruthfulness:
    def test_unbiased_round_mechanisms_pass_audit(self):
        from surveymech import truthfulness_audit

        pop = make_pop([1, 5, 2, 4, 3, 2.5, 1.5], cap=6.0)
        sched = unbiased_schedule(7, 12.0)
        res = run_unbiased_online(pop, sched, rng_seed=5)
        for t in res.transcripts:
            [(alloc, payments)] = _solve_rounds(
                np.array([t.grid]), np.array([len(t.grid)]), [sched.per_round(t.round_index)], None
            )
            rep = truthfulness_audit(t.grid, alloc, payments)
            assert rep.passed, (t.round_index, rep)

    def test_ci_round_effective_mechanisms_pass_audit(self):
        from surveymech import alpha_gamma, truthfulness_audit

        pop = make_pop([1, 1, 9, 2, 9, 1.5, 8, 3], cap=9.0)
        n = pop.n
        sched = ci_schedule(n, 10.0)
        beta = 2 * alpha_gamma(0.9) / math.sqrt(n)
        res = run_ci_online(pop, sched, 0.9, rng_seed=5)
        for t in res.transcripts:
            [(alloc, ignored, payments)] = _solve_rounds(
                np.array([t.grid]), np.array([len(t.grid)]), [sched.per_round(t.round_index)], beta
            )
            effective = np.where(ignored, 0.0, alloc)
            rep = truthfulness_audit(t.grid, effective, payments)
            assert rep.passed, (t.round_index, rep)


class TestRoundSpend:
    def test_unbiased_within_budget_and_deployed_ci_within_twice(self):
        # A round spends sum(A * P) over its grid.  The unbiased round binds
        # its budget; the deployed CI round keeps U < 1/2 agents at their
        # full A and so may spend up to twice it (see ``ci_schedule``).
        rng = np.random.default_rng(8)
        worst_unbiased = worst_ci = 0.0
        for _ in range(3000):
            cs = random_cost_set(rng, max_m=79)
            grid = np.append(cs.costs, cs.cap)
            psi_sum = float(np.sum(virtual_costs(CostSet(costs=grid, cap=cs.cap))))
            budget = float(rng.uniform(0.01, 1.3)) * psi_sum
            beta = ci_parameters(float(rng.uniform(0.05, 0.95)), int(rng.integers(2, 401))).beta
            batch = (grid[None, :], np.array([grid.size]), [budget])
            [(alloc, payments)] = _solve_rounds(*batch, None)
            [(alloc_ci, ignored, payments_ci)] = _solve_rounds(*batch, beta)
            kept = ~ignored & (alloc_ci > 0)
            worst_unbiased = max(worst_unbiased, float(np.sum(alloc * payments)) / budget)
            worst_ci = max(worst_ci, float(np.sum(alloc_ci[kept] * payments_ci[kept])) / budget)
        assert worst_unbiased <= 1 + 1e-12
        assert worst_ci <= 2 * (1 + 1e-12)
        assert worst_ci > 1  # the deployed rounding does overspend the round budget

