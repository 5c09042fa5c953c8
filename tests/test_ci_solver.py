import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surveymech import (
    CostSet,
    InvalidInputError,
    SolverError,
    alpha_gamma,
    ci_objective,
    ci_parameters,
    g_derivative,
    grid_search_ci,
    objective_at_mass,
    solve_ci,
    solve_unbiased,
    virtual_costs,
)
from surveymech.audits import random_cost_set


def make_set(costs, cap=None):
    costs = np.asarray(costs, dtype=float)
    return CostSet(costs=costs, cap=float(costs.max() if cap is None else cap))


random_instance = st.tuples(
    st.lists(st.floats(min_value=0.0, max_value=30.0), min_size=1, max_size=25).map(sorted),
    st.floats(min_value=1e-3, max_value=1.5),
    st.floats(min_value=0.05, max_value=3.0),
)


class TestAlphaGamma:
    def test_five_percent(self):
        log80 = math.log(80.0)
        assert alpha_gamma(0.05) == pytest.approx(math.sqrt(2 * log80) + 7 * log80 / 3)
        assert alpha_gamma(0.05) == pytest.approx(13.185, abs=5e-4)

    def test_log_term_two(self):
        gamma = 4.0 / math.e**2
        assert alpha_gamma(gamma) == pytest.approx(2.0 + 14.0 / 3.0)

    def test_point_nine(self):
        assert alpha_gamma(0.9) == pytest.approx(5.208, abs=5e-4)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0])
    def test_rejects_out_of_domain(self, bad):
        with pytest.raises(InvalidInputError):
            alpha_gamma(bad)

    def test_range_bound(self):
        for gamma in (0.01, 0.1, 0.5, 0.9, 0.99):
            lo = math.sqrt(2 * math.log(4 / gamma))
            hi = lo + 7 * math.log(4 / gamma) / 3
            assert lo <= alpha_gamma(gamma) <= hi

    def test_parameters_beta(self):
        params = ci_parameters(0.1, 4)
        assert params.beta == pytest.approx(2 * alpha_gamma(0.1) / 2.0)


class TestSolveCI:
    def test_zero_budget_full_ignore(self):
        cs = make_set([1, 2, 3])
        rule, ignore = solve_ci(cs, 0.0, 1.0)
        assert np.allclose(ignore.u_values, 1.0)
        assert ignore.total_mass == pytest.approx(3.0)
        assert ci_objective(rule, ignore, 1.0, 3) == pytest.approx(1.0)

    def test_rejects_negative_budget(self):
        with pytest.raises(InvalidInputError):
            solve_ci(make_set([1.0]), -1.0, 1.0)

    def test_rejects_bad_beta(self):
        with pytest.raises(InvalidInputError):
            solve_ci(make_set([1.0]), 1.0, 0.0)

    def test_matches_grid_oracle_two_blocks(self):
        cs = make_set([1.0, 1.0, 100.0, 100.0])
        params = ci_parameters(0.1, 4)
        rule, ignore = solve_ci(cs, 2.0, params.beta)
        obj = ci_objective(rule, ignore, params.beta, 4)
        _, grid_obj = grid_search_ci(cs, 2.0, params.beta)
        assert obj <= grid_obj + 1e-3

    def test_matches_grid_oracle_moderate_beta(self):
        cs = make_set([1.0, 2.0, 6.0])
        rule, ignore = solve_ci(cs, 3.0, 0.8)
        obj = ci_objective(rule, ignore, 0.8, 3)
        _, grid_obj = grid_search_ci(cs, 3.0, 0.8)
        assert obj <= grid_obj + 1e-3
        # grid objective cannot beat the continuous optimum
        assert grid_obj >= obj - 1e-9

    def test_matches_grid_oracle_random_sweep(self):
        rng = np.random.default_rng(55)
        for _ in range(15):
            m = int(rng.integers(2, 5))
            costs = np.sort(rng.uniform(0.2, 8.0, m))
            cs = make_set(costs, cap=8.0)
            budget = float(rng.uniform(0.1, 1.2)) * float(np.sum(virtual_costs(cs)))
            beta = float(rng.uniform(0.2, 0.8))
            _, grid_obj = grid_search_ci(cs, budget, beta)
            rule, ignore = solve_ci(cs, budget, beta)
            obj = ci_objective(rule, ignore, beta, m)
            assert obj <= grid_obj + 1e-3
            assert grid_obj >= obj - 1e-9

    @given(random_instance)
    @settings(max_examples=120, deadline=None)
    def test_structure_invariants(self, instance):
        costs, frac, beta = instance
        cs = make_set(costs, cap=31.0)
        psi = virtual_costs(cs)
        budget = frac * float(np.sum(psi))
        rule, ignore = solve_ci(cs, budget, beta)
        u = ignore.u_values
        alloc = rule.probabilities
        m = len(cs)
        # threshold structure against ironed costs
        from surveymech import regularize

        phi = regularize(psi)
        below = phi < ignore.threshold_phi
        above = phi > ignore.threshold_phi
        at = phi == ignore.threshold_phi
        assert np.all(u[below] == 0.0)
        assert np.all(u[above] == 1.0)
        if np.any(at):
            assert np.allclose(u[at], ignore.boundary_fraction)
        assert np.all(np.diff(u) >= -1e-12)
        eff = (1.0 - u) * alloc
        assert np.all(np.diff(eff) <= 1e-12)
        assert ignore.total_mass == pytest.approx(float(np.sum(u)), abs=1e-9)
        # budget feasibility with equality when unsaturated
        spend = float(np.dot((1.0 - u) * alloc, psi))
        assert spend <= budget + max(1e-9 * budget, 1e-9)
        if not rule.saturated and budget > 0:
            assert spend == pytest.approx(budget, rel=1e-9, abs=1e-12)

    @given(random_instance)
    @settings(max_examples=60, deadline=None)
    def test_two_approximation_sandwich(self, instance):
        costs, frac, beta = instance
        cs = make_set(costs, cap=31.0)
        budget = frac * float(np.sum(virtual_costs(cs)))
        rule, ignore = solve_ci(cs, budget, beta)
        m = len(cs)
        quad = ci_objective(rule, ignore, beta, m)
        weights = 1.0 - ignore.u_values
        live = weights > 0
        with np.errstate(divide="ignore"):
            var_term = float(np.sum(weights[live] / rule.probabilities[live]))
        length = beta * math.sqrt(var_term / m) + ignore.total_mass / m
        assert math.sqrt(quad) <= length + 1e-9
        assert length <= math.sqrt(2.0) * math.sqrt(quad) + 1e-9


class TestGDerivative:
    def test_water_filling_anchor(self):
        cs = make_set([1, 10, 11])
        assert g_derivative(cs, 3.0, 1.0, 0.0) == pytest.approx(-8.0)

    def test_saturated_unit_allocation(self):
        # The budget buys every live cost: the variance term is
        # beta^2 (m - M) / m, of slope -beta^2 / m (not twice that).
        cs = make_set([1, 1, 1])
        assert g_derivative(cs, 100.0, 2.0, 0.0) == pytest.approx(-4.0 / 3.0)

    @pytest.mark.parametrize(
        "costs, budget, beta, mass",
        [([1, 10, 11], 3.0, 1.0, 0.0),  # the budget binds
         ([1, 10, 11], 3.0, 1.0, 0.4),
         ([1, 3, 9, 27], 5.0, 1.2, 2.5),  # the live set is bought in full
         ([1, 1, 1], 100.0, 2.0, 0.0)],
    )
    def test_matches_finite_difference(self, costs, budget, beta, mass):
        cs = make_set(costs)
        m = len(cs)
        h = 1e-6
        ahead = objective_at_mass(cs, budget, beta, mass + h)
        rise = ahead - objective_at_mass(cs, budget, beta, mass)
        variance_slope = rise / h - (2.0 * mass + h) / m**2
        assert g_derivative(cs, budget, beta, mass) == pytest.approx(variance_slope, rel=1e-4)

    def test_optimality_at_solver_mass(self):
        # At the chosen mass the right slope of the whole objective is >= 0,
        # also where the optimum sits on the kink at which the budget stops
        # binding.
        for seed in range(1200):
            rng = np.random.default_rng([99, seed])
            cs = random_cost_set(rng, max_m=60, min_m=1)
            budget = float(rng.uniform(0.0, 1.2)) * float(np.sum(virtual_costs(cs)))
            beta = float(rng.uniform(0.05, 3.0))
            if budget <= 0:
                continue
            _, ignore = solve_ci(cs, budget, beta)
            m = len(cs)
            mass = ignore.total_mass
            if mass < m:
                slope = g_derivative(cs, budget, beta, mass) + 2.0 * mass / m**2
                assert slope >= -1e-9, seed

    def test_monotone_in_mass(self):
        cs = make_set([1, 3, 9, 27])
        d1 = g_derivative(cs, 5.0, 1.2, 0.5)
        d2 = g_derivative(cs, 5.0, 1.2, 2.5)
        assert d1 <= d2 + 1e-12

    def test_infeasible_raises(self):
        cs = make_set([1, 2])
        with pytest.raises(SolverError):
            g_derivative(cs, 0.0, 1.0, 0.0)

    def test_rejects_mass_out_of_range(self):
        cs = make_set([1, 2])
        with pytest.raises(InvalidInputError):
            g_derivative(cs, 1.0, 1.0, 2.0)


class TestCIObjective:
    def test_full_ignore_is_one(self):
        cs = make_set([1, 2, 3])
        rule, ignore = solve_ci(cs, 0.0, 1.0)
        assert ci_objective(rule, ignore, 1.0, 3) == pytest.approx(1.0)

    def test_no_ignore_full_collection(self):
        cs = make_set([1, 1])
        rule, ignore = solve_ci(cs, 100.0, 0.05)
        # tiny beta drives the optimum toward no ignoring
        assert ignore.total_mass < 0.01
        assert ci_objective(rule, ignore, 0.05, 2) <= 0.05**2 + 1e-4

    def test_direct_evaluation(self):
        from surveymech import AllocationRule, IgnoreRule

        rule = AllocationRule(probabilities=np.array([1 / 3, 1 / 12, 1 / 12]), lam=1 / 3)
        ignore = IgnoreRule(
            u_values=np.zeros(3), threshold_phi=float("inf"),
            boundary_fraction=1.0, total_mass=0.0,
        )
        assert ci_objective(rule, ignore, 1.0, 3) == pytest.approx(9.0)

    def test_full_collection_no_ignore_is_beta_squared(self):
        from surveymech import AllocationRule, IgnoreRule

        rule = AllocationRule(probabilities=np.ones(5), lam=2.0, saturated=True)
        ignore = IgnoreRule(
            u_values=np.zeros(5), threshold_phi=float("inf"),
            boundary_fraction=1.0, total_mass=0.0,
        )
        assert ci_objective(rule, ignore, 0.7, 5) == pytest.approx(0.49)


class TestOuterSearch:
    @given(random_instance)
    @settings(max_examples=40, deadline=None)
    def test_convexity_and_argmin(self, instance):
        costs, frac, beta = instance
        cs = make_set(costs, cap=31.0)
        budget = frac * float(np.sum(virtual_costs(cs)))
        m = len(cs)
        grid = np.linspace(0.0, m, 101)
        values = np.array([objective_at_mass(cs, budget, beta, x) for x in grid])
        finite = np.isfinite(values)
        second = np.diff(values[finite], 2)
        if second.size:
            assert np.min(second) >= -1e-6
        _, ignore = solve_ci(cs, budget, beta)
        cell = grid[1] - grid[0]
        assert abs(ignore.total_mass - grid[int(np.argmin(values))]) <= cell * 1.0000001


    @given(random_instance)
    @settings(max_examples=200, deadline=None)
    def test_objective_at_chosen_mass_matches_rule(self, instance):
        # The objective at the solver's mass against the array objective of
        # the rules it returns.
        costs, frac, beta = instance
        cs = make_set(costs, cap=31.0)
        budget = frac * float(np.sum(virtual_costs(cs)))
        rule, ignore = solve_ci(cs, budget, beta)
        expected = ci_objective(rule, ignore, beta, len(cs))
        got = objective_at_mass(cs, budget, beta, ignore.total_mass)
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "seed, mass",
        [(196, 5.412695937616619), (62, 8.39023976697904), (2513, 16.36226414625823)],
    )
    def test_objective_continuous_at_saturation_mass(self, seed, mass):
        # Masses where the budget stops binding: the objective is continuous
        # there, as the rule solve_ci builds is.
        cs = random_cost_set(np.random.default_rng(seed), max_m=60, min_m=2)
        budget = 0.5 * float(np.sum(virtual_costs(cs)))
        value = objective_at_mass(cs, budget, 1.0, mass)
        assert math.isfinite(value)
        for side in (mass - 1e-9, mass + 1e-9):
            assert value == pytest.approx(objective_at_mass(cs, budget, 1.0, side), rel=1e-9)


class TestDegenerateSingleton:
    def test_single_cost_interior_tradeoff(self):
        # With one agent the solver still optimizes the continuous mass.
        cs = make_set([4.0])
        rule, ignore = solve_ci(cs, 1.0, 1.0)
        grid = np.linspace(0.0, 1.0, 2001)
        vals = [objective_at_mass(cs, 1.0, 1.0, x) for x in grid]
        best = min(vals)
        got = ci_objective(rule, ignore, 1.0, 1)
        assert got <= best + 1e-6
