import math

import numpy as np
import pytest

from surveymech import (
    InvalidInputError,
    alpha_gamma,
    bernstein_interval,
    sample_variance,
)


class TestSampleVariance:
    def test_constant_vector(self):
        assert sample_variance([3.3, 3.3, 3.3]) == 0.0

    def test_two_points(self):
        assert sample_variance([0, 2]) == pytest.approx(2.0)

    def test_four_points(self):
        assert sample_variance([1, 2, 3, 4]) == pytest.approx(5 / 3)

    def test_rejects_short(self):
        with pytest.raises(InvalidInputError):
            sample_variance([1.0])


class TestBernsteinInterval:
    def test_degenerate(self):
        out = bernstein_interval(0.5, 0.0, 10, 0.1, 0.0)
        assert out.lower == out.upper == 0.5

    def test_pure_bias(self):
        out = bernstein_interval(0.0, 0.0, 10, 0.1, 1.0)
        assert (out.lower, out.upper) == (0.0, 1.0)

    def test_radius_and_asymmetry(self):
        out = bernstein_interval(0.4, 0.5, 100, 0.05, 0.1)
        radius = alpha_gamma(0.05) * 0.5 / 10.0
        assert radius == pytest.approx(0.6593, abs=5e-4)
        assert out.lower == pytest.approx(0.4 - radius)
        assert out.upper == pytest.approx(0.4 + 0.1 + radius)
        assert out.length == pytest.approx(2 * radius + 0.1)

    def test_length_identity(self):
        out = bernstein_interval(0.2, 0.3, 50, 0.9, 0.25)
        expected = 2 * alpha_gamma(0.9) * 0.3 / math.sqrt(50) + 0.25
        assert out.length == pytest.approx(expected)

    def test_rejects_bad_gamma(self):
        with pytest.raises(InvalidInputError):
            bernstein_interval(0.5, 0.1, 10, 1.5, 0.0)

    def test_rejects_bad_bias(self):
        with pytest.raises(InvalidInputError):
            bernstein_interval(0.5, 0.1, 10, 0.5, 1.5)

    def test_contains(self):
        out = bernstein_interval(0.5, 0.1, 10, 0.5, 0.0)
        assert out.contains(0.5)
        assert not out.contains(10.0)


class TestSigmaMoments:
    def test_sigma_squared_dominated_by_second_moment(self):
        # E[sigma_hat^2] <= mean E[y^2] for independent y with bounded means
        rng = np.random.default_rng(5)
        n, runs = 60, 4000
        probs = rng.uniform(0.2, 1.0, size=n)
        z = rng.uniform(0.0, 1.0, size=n)
        sig2 = np.empty(runs)
        ysq = np.empty(runs)
        for r in range(runs):
            hit = rng.random(n) < probs
            y = np.where(hit, z / probs, 0.0)
            sig2[r] = np.var(y, ddof=1)
            ysq[r] = np.mean(y**2)
        diff = sig2 - ysq
        se = diff.std(ddof=1) / math.sqrt(runs)
        assert diff.mean() <= 3 * se

    def test_sigma_squared_inequality_on_runner_transcripts(self):
        # same inequality driven through the actual online runner
        from surveymech import Population, run_ci_online, ci_schedule

        rng = np.random.default_rng(8)
        n, runs = 25, 800
        pop = Population(
            costs=np.sort(rng.uniform(0.5, 4.0, n)),
            data=rng.uniform(0.2, 1.0, n),
            cap=4.0,
        )
        sched = ci_schedule(n, 30.0)
        diffs = np.empty(runs)
        cache: dict = {}
        for r in range(runs):
            run_rng = np.random.default_rng([4040, r])
            perm = run_rng.permutation(n)
            shuffled = Population(costs=pop.costs[perm], data=pop.data[perm], cap=pop.cap)
            res = run_ci_online(shuffled, sched, 0.9, run_rng, cache=cache)
            y = np.array([t.y for t in res.transcripts])
            diffs[r] = np.var(y, ddof=1) - np.mean(y**2)
        se = diffs.std(ddof=1) / math.sqrt(runs)
        assert diffs.mean() <= 3 * se

    def test_sigma_gap_bounded(self):
        # sqrt(mean y^2) - E[sigma_hat] stays within 1 + c/n for E[y] in [0,1]
        rng = np.random.default_rng(6)
        n, runs, c = 80, 4000, 10.0
        probs = rng.uniform(0.15, 1.0, size=n)
        z = rng.uniform(0.0, 1.0, size=n)
        sig = np.empty(runs)
        ysq = np.empty(runs)
        for r in range(runs):
            hit = rng.random(n) < probs
            y = np.where(hit, z / probs, 0.0)
            sig[r] = math.sqrt(np.var(y, ddof=1))
            ysq[r] = np.mean(y**2)
        gap = math.sqrt(ysq.mean()) - sig.mean()
        assert gap <= 1.0 + c / n
