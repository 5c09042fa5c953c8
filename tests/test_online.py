import bisect
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surveymech import (
    BudgetSchedule,
    CIRunResult,
    CostSet,
    InvalidInputError,
    Population,
    RoundTranscript,
    UnbiasedRunResult,
    bernstein_interval,
    benchmark_ci,
    benchmark_unbiased,
    ci_parameters,
    ci_schedule,
    gen_population,
    monte_carlo,
    run_ci_online,
    run_unbiased_online,
    sample_variance,
    solve_unbiased,
    unbiased_schedule,
    virtual_costs,
    worst_case_variance,
)
from surveymech import online_runner, simharness
from surveymech.audits import random_cost_set
from surveymech.online_runner import _solve_rounds
from test_round_batch import _ci_round_ref, _unbiased_round_ref
from test_simharness import _distinct_grids


def make_pop(costs, data=None, cap=None):
    costs = np.asarray(costs, dtype=float)
    data = np.ones_like(costs) if data is None else np.asarray(data, dtype=float)
    cap = float(costs.max() if cap is None else cap)
    return Population(costs=costs, data=data, cap=cap)


def run_online(costs, data, cap, schedule, gamma, rng, cache, record):
    """One run as the public runners make it, on arrays and with any
    generator: ``_run_cached`` with a round cache, else the array steps of
    ``_run_chunk`` as a chunk of one run."""
    coins = rng.random(costs.size)
    if cache is not None:
        return online_runner._run_cached(costs, data, coins, cap, schedule, gamma, cache, record)
    return online_runner._run_chunk(costs[None], data[None], coins[None], cap, schedule, gamma,
                                    record)[0]


def solve_round(grid, budget, beta):
    """``_solve_rounds`` on a batch of one grid: the row of each array it returns."""
    grid = np.asarray(grid, dtype=float)
    return tuple(part[0] for part in _solve_rounds(grid[None, :], np.array([grid.size]), [budget], beta))


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

    @pytest.mark.parametrize("budget, xi", [
        (-1.0, 0.1), (math.nan, 0.1), (math.inf, 0.1), (1.0, 0.0), (1.0, -0.1), (1.0, math.nan),
        (1.0, math.inf),
    ])
    def test_rejects_bad_budget_or_xi(self, budget, xi):
        with pytest.raises(InvalidInputError):
            BudgetSchedule(total_budget=budget, xi=xi)


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

    def test_takes_every_seed_default_rng_takes(self):
        # a whole number, a sequence such as the harness's [seed, run], a
        # SeedSequence or a Generator seeds the run as default_rng does;
        # None draws fresh entropy
        pop = make_pop([1, 5, 2, 4, 3], cap=6.0)
        sched = unbiased_schedule(5, 3.0)
        for seed in (7, [7, 2], np.random.SeedSequence(7)):
            want = run_unbiased_online(pop, sched, np.random.default_rng(seed))
            assert run_unbiased_online(pop, sched, seed) == want, seed
        assert np.isfinite(run_unbiased_online(pop, sched, None).estimate)

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
        alloc, ignored, _ = solve_round(t.grid, sched.per_round(199), beta)
        idx = int(np.searchsorted(t.grid, t.cost))
        assert len(t.grid) == 199 and ignored[idx] and t.alloc == alloc[idx]

    @pytest.mark.parametrize("shape", ["tied", "distinct", "zeros", "at_cap", "one_agent", "flagged"])
    def test_runs_dropping_ignored_rounds_give_the_same_bits(self, shape, monkeypatch):
        # A cacheless run without transcripts drops the rounds its walk
        # ignores before they are calibrated and priced; with transcripts, or
        # with a round cache, every round is solved whole.  The interval,
        # spend, ignored count and flag count must be the same bits.
        queue_rounds, flush_ci = online_runner._queue_rounds, online_runner._flush_ci
        # rows queued and rows kept by the flushes, with report positions and without
        queued, kept, positioned = {True: 0, False: 0}, {True: 0, False: 0}, []

        def queue_spy(costs, sizes, budgets, beta, at):
            positioned[:] = [at is not None]
            queued[at is not None] += sizes.size
            return queue_rounds(costs, sizes, budgets, beta, at)

        def flush_spy(*args):
            for rows, parts in flush_ci(*args):
                kept[positioned[0]] += rows.size
                yield rows, parts

        monkeypatch.setattr(online_runner, "_queue_rounds", queue_spy)
        monkeypatch.setattr(online_runner, "_flush_ci", flush_spy)
        n = 1 if shape == "one_agent" else 120
        spec = ({"kind": "two_point", "fractions": [0.7, 0.3], "costs": [2.0, 9.0]}
                if shape == "tied" else {"kind": "independent"})
        pop = gen_population(spec, n, 25.0, 8)
        if shape in ("zeros", "at_cap"):
            value = 0.0 if shape == "zeros" else pop.cap
            mixed = np.where(np.random.default_rng(8).random(n) < 0.6, value, pop.costs)
            pop = dataclasses.replace(pop, costs=mixed)
        cap = 15.0 if shape == "flagged" else pop.cap
        for total in (0.0, 0.2 * n, 1.5 * n, 40.0 * n):
            schedule = ci_schedule(n, total)
            for seed in range(3):
                runs = [run_online(pop.costs, pop.data, cap, schedule, 0.9,
                                   np.random.default_rng(seed), cache, record)
                        for cache, record in ((None, False), (None, True), ({}, False))]
                outputs = {repr((run.interval, run.total_paid, run.ignored_count, run.flagged))
                           for run in runs}
                assert len(outputs) == 1, (total, seed)
                assert (runs[0].flagged > 0) == (shape == "flagged")
        # only the cacheless runs without transcripts pass report positions,
        # and those drop rows
        assert queued[True] > 0 and queued[False] > 0
        assert kept[False] == queued[False]
        assert kept[True] < queued[True]


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
            want = solve_round(t.grid, budget, beta)
            assert len(want) == width - 1
            for got, part in zip(entry[1:width], want):
                assert np.array_equal(got, part, equal_nan=True)


class TestWorkingSet:
    @staticmethod
    def _run(task, n, cache):
        pop = gen_population({"kind": "independent"}, n, 25.0, 4)
        rng = np.random.default_rng(9)
        if task == "unbiased":
            return run_online(pop.costs, pop.data, 24.0, unbiased_schedule(n, 1.5 * n), None,
                              rng, cache, True)
        return run_online(pop.costs, pop.data, 24.0, ci_schedule(n, 1.5 * n), 0.9,
                          rng, cache, True)

    @pytest.mark.parametrize("task", ["unbiased", "ci"])
    def test_batch_bounds_move_no_bits(self, task, monkeypatch):
        # One row per batch, the default bound, and the whole run in one
        # batch: the same offers with a cache (the round loop) or without
        # one (the array steps), and the same cache entries in the same order.
        # A cap below the costs' range flags some arrivals, so batches are
        # assembled from arrival lists with gaps.
        # a chunk solves an unbiased batch with ``_solve_rounds`` and queues
        # a CI batch with ``_queue_rounds``
        batch_rows = []

        for name in ("_solve_rounds", "_queue_rounds"):
            def spy(costs, sizes, budgets, beta, at, solve=getattr(online_runner, name)):
                batch_rows.append(len(sizes))
                return solve(costs, sizes, budgets, beta, at)

            monkeypatch.setattr(online_runner, name, spy)
        runs = []
        for points in (1, online_runner._BATCH_POINTS, math.inf):
            monkeypatch.setattr(online_runner, "_BATCH_POINTS", points)
            cache: dict = {}
            batch_rows.clear()
            runs.append((self._run(task, 600, cache), cache, list(batch_rows)))
            assert repr(self._run(task, 600, None)) == repr(runs[-1][0])
        (want, want_cache, one_row), *others = runs
        assert 0 < want.flagged and set(one_row) == {1}
        assert 1 < len(others[0][2]) < len(one_row) and len(others[1][2]) == 1
        # each offer is the one its round's cached rule makes at the report
        for t in want.transcripts:
            if not t.flagged:
                entry, idx = want_cache[t.grid], int(np.searchsorted(t.grid, t.cost))
                assert (t.alloc, t.ignored) == (entry[1][idx], task == "ci" and entry[2][idx])
                assert repr(t.payment_offer) == repr(float(entry[-3][idx]))
        for got, got_cache, _ in others:
            assert repr(got) == repr(want)
            assert list(got_cache) == list(want_cache)
            for key, entry in got_cache.items():
                want_entry = want_cache[key]
                assert len(entry) == len(want_entry) and entry[-2:] == want_entry[-2:]
                for part, want_part in zip(entry[1:-2], want_entry[1:-2]):
                    assert part.dtype == want_part.dtype and part.tobytes() == want_part.tobytes()

    @pytest.mark.parametrize("task, tied", [
        ("unbiased", False), ("ci", False), ("unbiased", True), ("ci", True),
    ], ids=["unbiased", "ci", "unbiased-tied", "ci-tied"])
    def test_monte_carlo_chunks_move_no_bits(self, task, tied, monkeypatch):
        # ``monte_carlo`` draws its runs in chunks of at most
        # ``_CHUNK_ROUNDS`` rounds, and solves them in batches of at most
        # ``_BATCH_POINTS`` points: one run per chunk and one row per batch,
        # chunks of six runs, the default bounds and the whole call in one
        # chunk give the same per-run arrays, with one worker or two.  Tied
        # or not, every chunk goes through ``_run_chunk`` in the same sizes,
        # and solves each distinct ``(round, grid)`` of its rounds once.
        spec = ({"kind": "two_point", "fractions": [0.7, 0.3], "costs": [2.0, 9.0]} if tied
                else {"kind": "independent"})
        pop = gen_population(spec, 40, 25.0, 5)
        gamma = 0.9 if task == "ci" else None
        run_chunk = simharness._run_chunk
        chunks, rows = [], []

        def chunk_spy(costs, *args):
            chunks.append(len(costs))
            return run_chunk(costs, *args)

        monkeypatch.setattr(simharness, "_run_chunk", chunk_spy)
        # the batches a chunk solves (unbiased) or queues (CI)
        for name in ("_solve_rounds", "_queue_rounds"):
            def solve_spy(costs, sizes, *args, solve=getattr(online_runner, name)):
                rows.append(len(sizes))
                return solve(costs, sizes, *args)

            monkeypatch.setattr(online_runner, name, solve_spy)
        want = None
        defaults = (online_runner._BATCH_POINTS, online_runner._CHUNK_ROUNDS)
        for bounds, runs_per_chunk in (((1, 1), 1), ((6 * 40,) * 2, 6), (defaults, 30),
                                       ((math.inf,) * 2, 30)):
            monkeypatch.setattr(online_runner, "_BATCH_POINTS", bounds[0])
            monkeypatch.setattr(online_runner, "_CHUNK_ROUNDS", bounds[1])
            for workers in (1, 2):
                chunks.clear()
                rows.clear()
                _, per_run = monte_carlo(task, pop, 60.0, gamma, 30, 7, workers=workers,
                                         return_per_run=True)
                if workers == 1:
                    assert chunks == [runs_per_chunk] * (30 // runs_per_chunk)
                    assert 0 < sum(rows) == _distinct_grids(task, pop, 60.0, 30, 7, runs_per_chunk)
                if want is None:
                    want = per_run
                for key, values in want.items():
                    assert per_run[key].tobytes() == values.tobytes(), (bounds, workers, key)

    # (shape, traced MB a call may peak at): the two continuous-cost
    # benchmark calls at full size, which peaked at 3.17 and 1.38 MB on
    # numpy 2.4.6, and 2,000 runs at n = 100, which peaked at 2.96 MB.  Each
    # bound is twice that peak, room for the temporaries of sorts and
    # gathers on other numpy versions.  With batches of 2^14 points rather
    # than 2^15 they peak at 1.81, 1.58 and 2.16 MB, a batch's arrays kept
    # until the next batch replaces them.  The 2,000 runs peaked
    # at 25 MB in one chunk: ``_CHUNK_ROUNDS`` keeps their per-round arrays
    # to one chunk of runs at a time.
    @pytest.mark.parametrize("task, n, runs, bound_mb", [
        ("unbiased", 1000, 5, 6.4), ("ci", 100, 10, 2.8), ("unbiased", 100, 2000, 6.0),
    ])
    def test_cacheless_monte_carlo_memory_is_bounded(self, task, n, runs, bound_mb):
        pop = gen_population({"kind": "independent"}, n, 25.0, 1)
        gamma = 0.9 if task == "ci" else None
        monte_carlo(task, pop, 1.5 * n, gamma, 2, 1)  # numpy's lazy imports happen here
        tracemalloc.start()
        try:
            monte_carlo(task, pop, 1.5 * n, gamma, runs, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound_mb * 2**20

    @pytest.mark.parametrize("task", ["unbiased", "ci"])
    def test_cacheless_run_matches_fresh_cache(self, task):
        assert repr(self._run(task, 300, None)) == repr(self._run(task, 300, {}))

    def test_cacheless_run_memory_is_bounded(self):
        # A run solves about n^2 / 2 grid points; without a cache it holds one
        # batch of them and O(n) offers at a time.  Keeping every solved row
        # peaked at 121 MB here at n = 3000.
        pop = gen_population({"kind": "independent"}, 3000, 25.0, 4)
        tracemalloc.start()
        try:
            run_unbiased_online(pop, unbiased_schedule(3000, 4500.0), 9, record_transcripts=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


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
    # Each round not flagged must offer the audited rule of its grid at the
    # least grid cost at or above the arriving one: a grid point maps to
    # itself, a cost between grid points rounds up, and a zero cost maps to
    # the first grid point.  The populations after the first hold a zero
    # cost and a tie, and the cap override flags the costs above it.

    def test_unbiased_round_mechanisms_pass_audit(self):
        from surveymech import truthfulness_audit

        for costs, cap in (([1, 5, 2, 4, 3, 2.5, 1.5], None),
                           ([0, 2, 2, 0.5, 3.5, 2, 0, 1.25], None),
                           ([2, 0, 5, 1, 1, 4.5, 0, 3], 4.0)):
            pop = make_pop(costs, cap=6.0)
            sched = unbiased_schedule(pop.n, 12.0)
            res = run_unbiased_online(pop, sched, rng_seed=5, cap=cap)
            for t in res.transcripts:
                alloc, payments = solve_round(t.grid, sched.per_round(t.round_index), None)
                rep = truthfulness_audit(t.grid, alloc, payments)
                assert rep.passed, (t.round_index, rep)
                if not t.flagged:
                    at = np.searchsorted(t.grid, t.cost, side="left")
                    assert (t.alloc, t.payment_offer) == (alloc[at], payments[at]), t.round_index
            assert res.flagged == (0 if cap is None else 2)

    def test_ci_round_effective_mechanisms_pass_audit(self):
        from surveymech import alpha_gamma, truthfulness_audit

        # at n <= 10 the rule ignores every round; the n = 80 run buys some
        tiled = np.random.default_rng(3).permutation(np.tile([0, 1, 1.5, 2, 2.25, 3, 4, 6, 8, 9], 8))
        priced = 0
        for costs, cap, budget in (([1, 1, 9, 2, 9, 1.5, 8, 3], None, 10.0),
                                   ([0, 1, 1, 9, 2, 9, 0, 1.5, 8, 3], None, 10.0),
                                   ([8, 0, 1, 9, 1, 0.5, 0, 7.5], 8.0, 10.0),
                                   (tiled, None, 200.0)):
            pop = make_pop(costs, cap=9.0)
            n = pop.n
            sched = ci_schedule(n, budget)
            beta = 2 * alpha_gamma(0.9) / math.sqrt(n)
            res = run_ci_online(pop, sched, 0.9, rng_seed=5, cap=cap)
            for t in res.transcripts:
                alloc, ignored, payments = solve_round(t.grid, sched.per_round(t.round_index), beta)
                effective = np.where(ignored, 0.0, alloc)
                rep = truthfulness_audit(t.grid, effective, payments)
                assert rep.passed, (t.round_index, rep)
                if not t.flagged:
                    at = np.searchsorted(t.grid, t.cost, side="left")
                    # an ignored round offers no price: NaN on both sides compares equal
                    np.testing.assert_array_equal(
                        (t.alloc, t.ignored, t.payment_offer),
                        (alloc[at], ignored[at], payments[at]), err_msg=str(t.round_index))
            assert res.flagged == (0 if cap is None else 1)
            priced += n - res.flagged - res.ignored_count
        assert priced > 0  # so some offer compared carries a finite price


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
            alloc, payments = solve_round(grid, budget, None)
            alloc_ci, ignored, payments_ci = solve_round(grid, budget, beta)
            kept = ~ignored & (alloc_ci > 0)
            worst_unbiased = max(worst_unbiased, float(np.sum(alloc * payments)) / budget)
            worst_ci = max(worst_ci, float(np.sum(alloc_ci[kept] * payments_ci[kept])) / budget)
        assert worst_unbiased <= 1 + 1e-12
        assert worst_ci <= 2 * (1 + 1e-12)
        assert worst_ci > 1  # the deployed rounding does overspend the round budget



def _screen_grids(rng):
    """Sorted round grids, each ending at its cap: continuous costs, integer
    ties, mostly zeros, the cap alone or repeated, heavy-tailed costs, and
    a few wide grids."""
    cap = 25.0
    grids = [np.array([cap]), np.full(3, cap), np.full(40, cap), np.array([0.0, cap]), np.zeros(5)]
    for m in list(rng.integers(2, 60, size=60)) + [400, 1500]:
        grids += [
            np.append(np.sort(rng.uniform(0.0, cap, m - 1)), cap),
            np.append(np.sort(rng.integers(0, 6, m - 1).astype(float)), cap),
            np.append(np.sort(np.where(rng.random(m - 1) < 0.8, 0.0, rng.uniform(0.0, cap, m - 1))), cap),
            np.append(np.sort(np.minimum(rng.pareto(1.2, m - 1), cap)), cap),
        ]
    return grids


class _Coins:
    """Stands in for a generator: ``random(n)`` gives the chosen coins."""

    def __init__(self, coins):
        self.coins = np.asarray(coins, dtype=float)

    def random(self, n):
        return self.coins[:n].copy()


def _outputs(result):
    """A run's result without its transcripts, to compare bit for bit."""
    return repr(dataclasses.replace(result, transcripts=[]))


def _offer_bounds(grid):
    """The purchase screen's offer denominators ``idx c_idx + sqrt(c_idx) S``
    at every position ``idx`` of a sorted grid, where ``S`` sums the square
    roots of the grid costs at positions ``idx`` and above."""
    roots = [math.sqrt(c) for c in grid.tolist()]
    tails = [math.fsum(roots[k:]) for k in range(grid.size)]
    return np.arange(grid.size) * grid + np.sqrt(grid) * np.array(tails)


class TestPurchaseScreen:
    # An unbiased round that does not buy neither pays nor adds to the
    # estimate, and its offer is at most B / (idx c_idx + sqrt(c_idx) S) at
    # the report's position idx of its grid; so a run that records no
    # transcripts skips solving a missed round whose coin is at or above
    # that bound, widened by ``_screen_slack``.

    def test_computed_offers_meet_the_bound(self):
        rng = np.random.default_rng(11)
        worst = 0.0  # on grids of unequal costs
        sharp = []  # (m, worst share) of each grid of m equal positive costs
        for grid in _screen_grids(rng):
            m = grid.size
            total = m * float(grid[-1])  # the virtual costs' sum: it buys everything
            fractions = [1e-9, 1e-3, 0.05, 0.3, 0.7, 0.99, 1 - 1e-12, 1.0, 2.0]
            budgets = [f * total for f in fractions] if total > 0 else [1e-9, 1.0]
            width = len(budgets)
            alloc, _ = _solve_rounds(np.tile(grid, (width, 1)), np.full(width, m), budgets, None)
            bounds = _offer_bounds(grid)
            # never looser than the bound m c_idx of equal costs
            assert np.all(bounds >= m * grid * (1 - 1e-12)), m
            shares = []
            for row, budget in zip(alloc, budgets):
                spent = row * bounds
                assert np.all(spent <= budget * (1 + online_runner._screen_slack(m))), m
                shares.append(float(np.max(spent)) / budget)
            if grid[0] == grid[-1] > 0:
                sharp.append((m, max(shares)))
            else:
                worst = max(worst, *shares)
        assert worst <= 1 + 1e-12, worst
        # the bound is sharp: on m equal costs it is B / (m c), which an offer
        # meets exactly when the budget buys less than all of them, on one
        # point and on every wider grid alike
        assert {1, 3, 40} <= {m for m, _ in sharp}, sharp
        assert all(1 - 1e-12 < share <= 1 + 1e-12 for _, share in sharp), sharp

    def test_a_coin_between_the_bound_and_m_c_idx_is_screened(self, monkeypatch):
        # The last report, 1.0, lands at position 0 of the grid (5, 10, 15,
        # 20, 25): the bound B / (m c_idx) = B / 25 would leave the round to
        # solve, the square-root bound B / (sqrt(5) S) = B / 41.9 rules it
        # out, and the run's bits stay the same.
        pop = make_pop([5.0, 10.0, 15.0, 20.0, 1.0], data=np.full(5, 0.5), cap=25.0)
        schedule = unbiased_schedule(5, 40.0)
        budget = schedule.per_round(5)
        grid = np.array([5.0, 10.0, 15.0, 20.0, 25.0])
        bound = _offer_bounds(grid)[0]
        widen = 1 + online_runner._screen_slack(6)
        coin = budget * widen / math.sqrt(bound * 5 * 5.0)
        assert budget * widen / bound < coin < budget * widen / (5 * 5.0) < 1
        # earlier rounds draw coin 1, which buys nothing
        coins = np.array([1.0] * 4 + [coin])
        solve = online_runner._plan_chunk(pop.costs[None], coins[None], 25.0, schedule, True)[-1]
        assert not solve[0, 4]
        rows = []
        solve_rounds = online_runner._solve_rounds

        def spy(costs, sizes, budgets, beta, at):
            rows.append(sizes.tolist())
            return solve_rounds(costs, sizes, budgets, beta, at)

        monkeypatch.setattr(online_runner, "_solve_rounds", spy)
        caches = [None, {}, None, {}]
        runs = [run_online(pop.costs, pop.data, 25.0, schedule, None, _Coins(coins), cache, record)
                for record, cache in zip((True, True, False, False), caches)]
        assert len({_outputs(run) for run in runs}) == 1
        offer = runs[0].transcripts[-1].alloc
        assert not runs[0].transcripts[-1].purchased and offer * bound <= budget * widen
        # only the runs that record transcripts solve round 5, and the run
        # that screens it does not cache it
        assert sum(5 in sizes for sizes in rows) == 2
        assert tuple(grid) in caches[1] and tuple(grid) not in caches[3]

    @pytest.mark.parametrize("gamma", [None, 0.9])
    @pytest.mark.parametrize("shape", ["continuous", "tied", "flagged", "zeros", "capped"])
    def test_runs_without_transcripts_give_the_same_bits(self, shape, gamma):
        spec = ({"kind": "two_point", "fractions": [0.7, 0.3], "costs": [2.0, 9.0]}
                if shape == "tied" else {"kind": "independent"})
        n = 150
        pop = gen_population(spec, n, 25.0, 6)
        if shape in ("zeros", "capped"):
            # the bound's edges: a zero cost, whose offer the screen can never
            # rule out, and a block of equal costs at the cap, its sharp case
            value = 0.0 if shape == "zeros" else pop.cap
            mixed = np.where(np.random.default_rng(6).random(n) < 0.7, value, pop.costs)
            pop = dataclasses.replace(pop, costs=mixed)
        cap = 20.0 if shape == "flagged" else pop.cap
        for total in (0.2 * n, 1.5 * n, 5.0 * n, 40.0 * n):
            schedule = unbiased_schedule(n, total) if gamma is None else ci_schedule(n, total)
            for seed in range(3):
                runs = [run_online(pop.costs, pop.data, cap, schedule, gamma,
                                   np.random.default_rng(seed), cache, record)
                        for record in (True, False) for cache in (None, {})]
                assert len({_outputs(run) for run in runs}) == 1, (total, seed)
                assert (runs[0].flagged > 0) == (shape == "flagged")

    def test_only_unbiased_runs_without_transcripts_solve_fewer_rounds(self, monkeypatch):
        rule_rows = online_runner._rule_rows
        rows, calibrated = [], []

        # the batches a chunk solves (unbiased) or queues (CI)
        for name in ("_solve_rounds", "_queue_rounds"):
            def spy(costs, sizes, budgets, beta, at, solve=getattr(online_runner, name)):
                rows.append(len(sizes))
                return solve(costs, sizes, budgets, beta, at)

            monkeypatch.setattr(online_runner, name, spy)

        def calibration_spy(phi, *args):
            # a flush calibrates every row it keeps once, kink pass included
            calibrated.append(len(phi))
            return rule_rows(phi, *args)

        monkeypatch.setattr(online_runner, "_rule_rows", calibration_spy)
        pop = gen_population({"kind": "independent"}, 200, 25.0, 2)
        solved, calibrated_rows = {}, {}
        for gamma, schedule in ((None, unbiased_schedule(200, 300.0)), (0.9, ci_schedule(200, 300.0))):
            for record in (True, False):
                rows.clear()
                calibrated.clear()
                res = run_online(pop.costs, pop.data, 20.0, schedule, gamma,
                                 np.random.default_rng(4), None, record)
                solved[gamma, record] = sum(rows)
                calibrated_rows[gamma, record] = sum(calibrated)
        unflagged = 200 - res.flagged
        assert solved[None, True] == solved[0.9, True] == solved[0.9, False] == unflagged
        assert 0 < solved[None, False] < unflagged / 2
        # the CI rows that reach calibration: every row with transcripts, and
        # without them only those whose report the walk does not ignore
        assert calibrated_rows[None, True] == calibrated_rows[None, False] == 0
        assert calibrated_rows[0.9, True] == unflagged
        assert 0 < calibrated_rows[0.9, False] < unflagged / 2

    def test_a_coin_just_above_the_exact_bound_still_buys(self):
        # Round m of a run whose costs all sit at the cap has a grid of m
        # equal costs, where the computed offer may round above the bound
        # B / (m * cap); a coin between the two must buy, so the screen needs
        # its slack, and its bound may count no more than the m grid points.
        for m in (1, 2, 5, 40):
            pop = make_pop(np.full(m, 3.0), data=np.full(m, 0.5), cap=3.0)
            cases = 0
            for total in np.linspace(0.1, 9.0, 60).tolist():
                schedule = unbiased_schedule(m, total)
                budget = schedule.per_round(m)
                offer = float(solve_round(np.full(m, 3.0), budget, None)[0][0])
                coin = budget / (m * 3.0)
                while coin * m * 3.0 < budget:
                    coin = math.nextafter(coin, 1.0)
                if not coin < offer:
                    continue
                cases += 1
                # earlier rounds draw coin 1, which buys nothing
                coins = _Coins([1.0] * (m - 1) + [coin])
                runs = [run_online(pop.costs, pop.data, 3.0, schedule, None, coins, None, record)
                        for record in (True, False)]
                assert runs[0].transcripts[-1].purchased
                assert _outputs(runs[0]) == _outputs(runs[1]), (m, total)
            assert cases > 0, m

    def test_zero_budget_is_rejected_without_transcripts(self):
        # a zero budget puts every coin above the bound, yet must still raise
        pop = make_pop([1.0, 2.0], cap=3.0)
        with pytest.raises(InvalidInputError):
            run_unbiased_online(pop, unbiased_schedule(2, 0.0), 0, record_transcripts=False)


_PLAN_CAP = 10.0
# Report values of each kind of run: ties, all distinct, zero costs, costs at
# the cap, and one agent; a cap override below the cap flags some of them.
_PLAN_VALUES = {
    "tied": st.sampled_from([1.0, 2.5, 4.0]),
    "distinct": st.floats(0.0, _PLAN_CAP),
    "zero": st.just(0.0) | st.floats(0.0, _PLAN_CAP),
    "cap": st.just(_PLAN_CAP) | st.floats(0.0, _PLAN_CAP),
    "single": st.floats(0.0, _PLAN_CAP),
}


@st.composite
def _plan_cases(draw):
    kind = draw(st.sampled_from(sorted(_PLAN_VALUES)))
    n = 1 if kind == "single" else draw(st.integers(2, 40))
    costs = np.array(draw(st.lists(_PLAN_VALUES[kind], min_size=n, max_size=n)))
    cap = draw(st.sampled_from([_PLAN_CAP, 3.0]))
    total = draw(st.sampled_from([0.02, 0.3, 1.0, 5.0])) * n * _PLAN_CAP
    return costs, cap, total, draw(st.integers(0, 2**16))


def _reference_run(costs, data, coins, cap, schedule, gamma, patch):
    """One online run, literally round by round: the outside reference that
    both runners, with a round cache and without, are checked against.  The
    unbiased task if ``gamma`` is None, else the confidence-interval task;
    the result carries every round's transcript.

    The grid of earlier reports plus the cap is kept with ``bisect.insort``.
    A report above the cap is flagged: it enters no grid, solves nothing and
    gets ``y = 0``.  Every other round solves its whole grid with the
    per-grid references of ``test_round_batch`` (``patch``, a
    ``MonkeyPatch``, serves the CI one) and offers the rule at
    ``bisect_left(grid, cost)``; it buys when it is not ignored and its coin
    is below ``A``.  The spend adds up in round order from 0.0, and the
    estimate or the interval is assembled as ``online_runner._result`` does.
    """
    n = costs.size
    beta = None if gamma is None else ci_parameters(gamma, n).beta
    grid = [cap]
    y = np.zeros(n)
    spend, ignored_count, flagged = 0.0, 0, 0
    transcripts = []
    for i, (cost, z, coin) in enumerate(zip(costs.tolist(), data.tolist(), coins.tolist())):
        alloc, ignore, price = 0.0, False, math.nan
        if cost > cap:
            flagged += 1
        else:
            budget = float(schedule.per_round(i + 1))
            if gamma is None:
                allocs, prices = _unbiased_round_ref(grid, budget)
                ignores = np.zeros(len(grid), dtype=bool)
            else:
                (allocs, ignores, prices), _ = _ci_round_ref(grid, budget, beta, patch)
            at = bisect.bisect_left(grid, cost)
            alloc, ignore, price = float(allocs[at]), bool(ignores[at]), float(prices[at])
            ignored_count += ignore
        bought = not ignore and coin < alloc
        if bought:
            y[i] = z / alloc
            spend += price
        transcripts.append(RoundTranscript(
            round_index=i + 1, cost=cost, grid=tuple(grid), alloc=alloc, payment_offer=price,
            ignored=ignore, purchased=bought, observed=z if bought else 0.0, y=float(y[i]),
            paid=price if bought else 0.0, flagged=cost > cap,
        ))
        if not cost > cap:
            bisect.insort(grid, cost)
    mean = float(np.mean(y))
    if gamma is None:
        return UnbiasedRunResult(estimate=mean, total_paid=spend, flagged=flagged,
                                 transcripts=transcripts)
    sigma = math.sqrt(sample_variance(y)) if n >= 2 else 0.0
    interval = bernstein_interval(mean, sigma, max(n, 2), gamma, bias_term=ignored_count / n)
    return CIRunResult(interval=interval, total_paid=spend, ignored_count=ignored_count,
                       flagged=flagged, transcripts=transcripts)


def _exact_ties(costs, cap):
    """Whether every value that repeats in a run's last grid (its reports
    not above ``cap``, and the cap) has exact virtual costs in a tie,
    ``(k + 1) c - k c == c`` at every position ``k``.  Where a tie rounds,
    the pooling passes and the per-grid loop may merge in another order and
    end an ulp apart (``test_round_batch``)."""
    grid = np.append(costs[~(costs > cap)], cap)
    values, counts = np.unique(grid, return_counts=True)
    k = np.arange(1.0, grid.size + 1.0)
    return all(np.all((k + 1.0) * c - k * c == c) for c in values[counts > 1].tolist())


def _leaves(result):
    """A run's result as a flat list of its fields, transcripts included."""
    leaves, stack = [], [dataclasses.astuple(result)]
    while stack:
        item = stack.pop()
        if isinstance(item, (tuple, list)):
            stack.extend(reversed(item))
        else:
            leaves.append(item)
    return leaves


def _check_against_reference(costs, data, coins, cap, total):
    """Both tasks, with and without transcripts, with a round cache and
    without: each run gives the reference runner's bits where every tie is
    exact, and its decisions with every float within rounding where one is
    not."""
    n = costs.size
    exact = _exact_ties(costs, cap)
    for gamma in (None, 0.9):
        schedule = unbiased_schedule(n, total) if gamma is None else ci_schedule(n, total)
        with pytest.MonkeyPatch.context() as patch:
            want = _reference_run(costs, data, coins, cap, schedule, gamma, patch)
        for record in (True, False):
            ref = want if record else dataclasses.replace(want, transcripts=[])
            for cache in (None, {}):
                got = run_online(costs, data, cap, schedule, gamma, _Coins(coins), cache, record)
                if exact:
                    assert repr(got) == repr(ref), (gamma, record, cache)
                    continue
                for a, b in zip(_leaves(got), _leaves(ref), strict=True):
                    if isinstance(a, float):
                        assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12) or (
                            math.isnan(a) and math.isnan(b)), (gamma, record, a, b)
                    else:
                        assert a == b, (gamma, record, a, b)


class TestPlanners:
    """A run without a round cache is planned, solved and settled as arrays;
    a run with one looks its rounds up one by one.  Both must make every
    round the same decision and give the same bits."""

    @given(_plan_cases())
    @settings(max_examples=150, deadline=None)
    def test_array_plan_and_runs_match_the_loop(self, case):
        costs, cap, total, seed = case
        n = costs.size
        rng = np.random.default_rng(seed)
        data, coins = rng.random(n), rng.random(n)
        schedule = unbiased_schedule(n, total)
        # the loop's grids, from its transcripts, and the rounds it solves,
        # which are the rounds it caches
        loop = run_online(costs, data, cap, schedule, None, _Coins(coins), {}, True)
        solved: dict = {}
        run_online(costs, data, cap, schedule, None, _Coins(coins), solved, False)
        _, sizes, idx, tops, budgets, keys, solve = online_runner._plan_chunk(
            costs[None], coins[None], cap, schedule, True)
        assert solve.shape == keys.shape == (1, n)
        grid_of = {}  # key -> grid: one grid per key, and no grid under two keys
        for t in loop.transcripts:
            i = t.round_index - 1
            if t.flagged:
                assert not solve[0, i]
                continue
            k = bisect.bisect_left(t.grid, t.cost)
            assert (sizes[0, i], idx[0, i], tops[0, i]) == (len(t.grid), k, t.grid[k])
            assert budgets[i] == schedule.per_round(t.round_index)
            assert solve[0, i] == (t.grid in solved)
            assert grid_of.setdefault(keys[0, i], t.grid) == t.grid
        assert len(set(grid_of.values())) == len(grid_of)
        for gamma in (None, 0.9):
            schedule = unbiased_schedule(n, total) if gamma is None else ci_schedule(n, total)
            for record in (True, False):
                runs = [repr(run_online(costs, data, cap, schedule, gamma, _Coins(coins), cache, record))
                        for cache in (None, {})]
                assert runs[0] == runs[1], (gamma, record)

    @given(_plan_cases())
    @settings(max_examples=150, deadline=None)
    def test_both_runners_match_the_reference_runner(self, case):
        costs, cap, total, seed = case
        rng = np.random.default_rng(seed)
        _check_against_reference(costs, rng.random(costs.size), rng.random(costs.size), cap, total)

    @pytest.mark.parametrize("shape", ["tied", "distinct", "zeros", "at_cap", "flagged"])
    def test_long_runs_match_the_reference_runner(self, shape):
        # Longer runs than the drawn ones, at budgets where the CI walk
        # ignores part of a block at some reports and buys at others.
        n = 120
        spec = ({"kind": "two_point", "fractions": [0.7, 0.3], "costs": [2.0, 9.0]}
                if shape == "tied" else {"kind": "independent"})
        pop = gen_population(spec, n, 25.0, 8)
        costs = pop.costs
        if shape in ("zeros", "at_cap"):
            value = 0.0 if shape == "zeros" else pop.cap
            costs = np.where(np.random.default_rng(8).random(n) < 0.6, value, costs)
        cap = 15.0 if shape == "flagged" else pop.cap
        for total in (0.2 * n, 1.5 * n, 40.0 * n):
            coins = np.random.default_rng(int(total)).random(n)
            _check_against_reference(costs, pop.data, coins, cap, total)

    def test_prefix_root_sums_match_fsum(self):
        # Each entry's root sum from ``_prefix_ranks`` against ``math.fsum`` of
        # the square roots of the earlier entries at or above it, on rows of
        # continuous, integer-tied, zero-heavy and cap-first values; where no
        # earlier entry qualifies, the sum is exactly 0.
        rng = np.random.default_rng(5)
        worst = 0.0
        for width in sorted({1, 2, 3, 300, *rng.integers(1, 301, size=16).tolist()}):
            rows = np.stack([
                rng.uniform(0.0, 25.0, width),
                rng.integers(0, 6, width).astype(float),
                np.where(rng.random(width) < 0.8, 0.0, rng.uniform(0.0, 25.0, width)),
                np.concatenate(([25.0], rng.uniform(0.0, 25.0, width - 1))),
            ])
            roots = online_runner._prefix_ranks(rows)[2]
            for row, got in zip(rows.tolist(), roots.tolist()):
                for j, (value, sum_) in enumerate(zip(row, got)):
                    want = math.fsum(math.sqrt(v) for v in row[:j] if v >= value)
                    if want == 0:
                        assert sum_ == 0.0, (width, j)
                    else:
                        worst = max(worst, abs(sum_ - want) / want)
        assert worst < 1e-13, worst
