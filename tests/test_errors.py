"""Every public scalar argument is checked by ``errors._scalar``: a value
that is not a finite number in its range, a boolean, a non-number, or a
fraction where a whole number is due raises the package's documented
error naming the argument, never numpy's or Python's own exception."""

import math

import numpy as np
import pytest

from surveymech import (
    AllocationRule,
    BudgetSchedule,
    CIOutput,
    ConfigError,
    CostSet,
    IgnoreRule,
    InvalidInputError,
    Population,
    alpha_gamma,
    bernstein_interval,
    ci_bound_rhs,
    ci_objective,
    ci_parameters,
    ci_schedule,
    draw_permutation,
    g_derivative,
    gen_population,
    grid_search_ci,
    grid_search_unbiased,
    monte_carlo,
    objective_at_mass,
    run_ci_online,
    run_unbiased_online,
    solve_ci,
    solve_unbiased,
    unbiased_bound_rhs,
    unbiased_schedule,
)
from surveymech.audits import run_suite

REAL = (math.nan, math.inf, -math.inf, True, "x")
WHOLE = REAL + (2.5,)

CS = CostSet(costs=np.array([1.0, 10.0, 11.0]), cap=11.0)
POP = Population(costs=np.array([1.0, 2.0, 2.0]), data=np.ones(3), cap=3.0)
RULE, IGNORE = solve_ci(CS, 2.0, 1.0)
SPEC = {"kind": "worst_case"}


def _ignore_rule(threshold=1.0, fraction=1.0, mass=1.5):
    return IgnoreRule(u_values=[0.0, 0.5, 1.0], threshold_phi=threshold,
                      boundary_fraction=fraction, total_mass=mass)


def _monte_carlo(budget=5.0, runs=2, master_seed=1, workers=1):
    return monte_carlo("unbiased", POP, budget, None, runs, master_seed, workers=workers)


def _ci_output(**fields):
    return CIOutput(**{"lower": 0.4, "upper": 0.6, "sample_mean": 0.5, "sample_sigma": 0.1,
                       "bias_term": 0.0, "gamma": 0.5, **fields})


# {"function-argument": (call taking the argument, a valid value, invalid
# values, the error they raise)}; each call's other arguments are valid.
SCALAR_ARGUMENTS = {
    "AllocationRule-lam": (lambda v: AllocationRule(probabilities=[1.0, 0.5], lam=v), 1.0,
                           REAL + (-1.0,), InvalidInputError),
    "IgnoreRule-threshold_phi": (lambda v: _ignore_rule(threshold=v), math.inf,
                                 (math.nan, -math.inf, True, "x"), InvalidInputError),
    "IgnoreRule-boundary_fraction": (lambda v: _ignore_rule(fraction=v), 0.5,
                                     REAL + (0.0, 1.5), InvalidInputError),
    "IgnoreRule-total_mass": (lambda v: _ignore_rule(mass=v), 3.0, REAL + (-0.5, 3.5),
                              InvalidInputError),
    "solve_unbiased-budget": (lambda v: solve_unbiased(CS, v), 3.0, REAL + (0.0,),
                              InvalidInputError),
    "solve_ci-budget": (lambda v: solve_ci(CS, v, 1.0), 0.0, REAL + (-1.0,), InvalidInputError),
    "solve_ci-beta": (lambda v: solve_ci(CS, 2.0, v), 1.0, REAL + (0.0,), InvalidInputError),
    "g_derivative-budget": (lambda v: g_derivative(CS, v, 1.0, 1.0), 2.0, REAL + (-1.0,),
                            InvalidInputError),
    "g_derivative-beta": (lambda v: g_derivative(CS, 2.0, v, 1.0), 1.0, REAL + (0.0,),
                          InvalidInputError),
    "g_derivative-mass": (lambda v: g_derivative(CS, 2.0, 1.0, v), 0.0, REAL + (-1.0, 3.0),
                          InvalidInputError),
    "objective_at_mass-budget": (lambda v: objective_at_mass(CS, v, 1.0, 1.0), 2.0,
                                 REAL + (-1.0,), InvalidInputError),
    "objective_at_mass-beta": (lambda v: objective_at_mass(CS, 2.0, v, 1.0), 1.0,
                               REAL + (0.0,), InvalidInputError),
    "objective_at_mass-mass": (lambda v: objective_at_mass(CS, 2.0, 1.0, v), 3.0,
                               REAL + (-1.0, 3.5), InvalidInputError),
    "ci_objective-beta": (lambda v: ci_objective(RULE, IGNORE, v, 3), 1.0, REAL + (0.0,),
                          InvalidInputError),
    "ci_objective-n": (lambda v: ci_objective(RULE, IGNORE, 1.0, v), 3, WHOLE + (2,),
                       InvalidInputError),
    "alpha_gamma-gamma": (alpha_gamma, 0.9, REAL + (0.0, 1.0), InvalidInputError),
    "ci_parameters-gamma": (lambda v: ci_parameters(v, 10), 0.9, REAL + (1.0,),
                            InvalidInputError),
    "ci_parameters-n": (lambda v: ci_parameters(0.9, v), 10, WHOLE + (0, 1.5), InvalidInputError),
    "bernstein_interval-mean": (lambda v: bernstein_interval(v, 0.1, 10, 0.9), 0.5, REAL,
                                InvalidInputError),
    "bernstein_interval-sigma": (lambda v: bernstein_interval(0.5, v, 10, 0.9), 0.0,
                                 REAL + (-0.1,), InvalidInputError),
    "bernstein_interval-n": (lambda v: bernstein_interval(0.5, 0.1, v, 0.9), 2, WHOLE + (1,),
                             InvalidInputError),
    "bernstein_interval-gamma": (lambda v: bernstein_interval(0.5, 0.1, 10, v), 0.9,
                                 REAL + (0.0,), InvalidInputError),
    "bernstein_interval-bias_term": (lambda v: bernstein_interval(0.5, 0.1, 10, 0.9, v), 1.0,
                                     REAL + (1.5,), InvalidInputError),
    "BudgetSchedule-total_budget": (lambda v: BudgetSchedule(total_budget=v, xi=0.1), 0.0,
                                    REAL + (-1.0,), InvalidInputError),
    "BudgetSchedule-xi": (lambda v: BudgetSchedule(total_budget=1.0, xi=v), 0.1, REAL + (0.0,),
                          InvalidInputError),
    "unbiased_schedule-n": (lambda v: unbiased_schedule(v, 1.0), 1, WHOLE + (0,),
                            InvalidInputError),
    "unbiased_schedule-total_budget": (lambda v: unbiased_schedule(4, v), 1.0, REAL + (-1.0,),
                                       InvalidInputError),
    "ci_schedule-n": (lambda v: ci_schedule(v, 1.0), 1, WHOLE + (0,), InvalidInputError),
    "ci_schedule-total_budget": (lambda v: ci_schedule(4, v), 1.0, REAL + (-1.0,),
                                 InvalidInputError),
    "run_unbiased_online-cap": (
        lambda v: run_unbiased_online(POP, unbiased_schedule(3, 5.0), 0, cap=v), 2.0,
        REAL + (-1.0,), InvalidInputError),
    "run_unbiased_online-rng_seed": (
        lambda v: run_unbiased_online(POP, unbiased_schedule(3, 5.0), v), 0,
        WHOLE + (-1, 1.5, [1, -1], [1.5], ["x"]), InvalidInputError),
    "run_ci_online-cap": (lambda v: run_ci_online(POP, ci_schedule(3, 5.0), 0.9, 0, cap=v), 2.0,
                          REAL + (-1.0,), InvalidInputError),
    "run_ci_online-rng_seed": (lambda v: run_ci_online(POP, ci_schedule(3, 5.0), 0.9, v), 0,
                               WHOLE + (-1, 1.5, [1, -1], [1.5], ["x"]), InvalidInputError),
    "unbiased_bound_rhs-n": (lambda v: unbiased_bound_rhs(v, 0.1, 0.5), 1, WHOLE + (0,),
                             InvalidInputError),
    "unbiased_bound_rhs-var_star": (lambda v: unbiased_bound_rhs(4, v, 0.5), 0.0,
                                    REAL + (-0.1,), InvalidInputError),
    "unbiased_bound_rhs-alloc_at_cap": (lambda v: unbiased_bound_rhs(4, 0.1, v), 1.0,
                                        REAL + (0.0, -0.5, 1.5), InvalidInputError),
    "ci_bound_rhs-n": (lambda v: ci_bound_rhs(v, 0.1), 1, WHOLE + (0,), InvalidInputError),
    "ci_bound_rhs-l_star": (lambda v: ci_bound_rhs(4, v), 0.0, REAL + (-0.1,), InvalidInputError),
    "CIOutput-lower": (lambda v: _ci_output(lower=v), 0.6, REAL + (0.7,), InvalidInputError),
    "CIOutput-upper": (lambda v: _ci_output(upper=v), 0.4, REAL + (0.3,), InvalidInputError),
    "CIOutput-sample_mean": (lambda v: _ci_output(sample_mean=v), -2.0, REAL, InvalidInputError),
    "CIOutput-sample_sigma": (lambda v: _ci_output(sample_sigma=v), 0.0, REAL + (-0.1,),
                              InvalidInputError),
    "CIOutput-bias_term": (lambda v: _ci_output(bias_term=v), 1.0, REAL + (-0.1, 1.5),
                           InvalidInputError),
    "CIOutput-gamma": (lambda v: _ci_output(gamma=v), 0.99, REAL + (0.0, 1.0, -0.5),
                       InvalidInputError),
    "draw_permutation-n": (lambda v: draw_permutation(np.random.default_rng(0), v), 1,
                           WHOLE + (0,), InvalidInputError),
    "CostSet-cap": (lambda v: CostSet(costs=[1.0, 2.0], cap=v), 2.0, REAL, InvalidInputError),
    "Population-cap": (lambda v: Population(costs=[1.0, 2.0], data=[1.0, 1.0], cap=v), 2.0,
                       REAL, ConfigError),
    "gen_population-n": (lambda v: gen_population(SPEC, v, 5.0, 0), 1, WHOLE + (0,),
                         ConfigError),
    "gen_population-cap": (lambda v: gen_population(SPEC, 10, v, 0), 0.0, REAL + (-1.0,),
                           ConfigError),
    "monte_carlo-budget": (lambda v: _monte_carlo(budget=v), 5.0, REAL + (-1.0, 0.0),
                           InvalidInputError),
    "monte_carlo-runs": (lambda v: _monte_carlo(runs=v), 1, WHOLE + (0,), InvalidInputError),
    "monte_carlo-master_seed": (lambda v: _monte_carlo(master_seed=v), 0, WHOLE + (-1, 1.5),
                                InvalidInputError),
    "monte_carlo-workers": (lambda v: _monte_carlo(workers=v), 1, WHOLE + (0, 1.7),
                            InvalidInputError),
    "monte_carlo-gamma": (lambda v: monte_carlo("ci", POP, 5.0, v, 2, 1), 0.9,
                          REAL + (0.0, 1.0, 1.7), InvalidInputError),
    "run_suite-trials": (lambda v: run_suite("ironing", trials=v), 1, WHOLE + (0,),
                         InvalidInputError),
    "run_suite-seed": (lambda v: run_suite("ironing", trials=1, seed=v), 0, WHOLE + (-1, 1.5),
                       InvalidInputError),
    "grid_search_unbiased-budget": (lambda v: grid_search_unbiased(CS, v, 1e-2), 3.0,
                                    REAL + (0.0,), InvalidInputError),
    "grid_search_unbiased-step": (lambda v: grid_search_unbiased(CS, 3.0, v), 1e-2, REAL,
                                  InvalidInputError),
    "grid_search_ci-budget": (lambda v: grid_search_ci(CS, v, 1.0), 2.0, REAL + (-1.0,),
                              InvalidInputError),
    "grid_search_ci-beta": (lambda v: grid_search_ci(CS, 2.0, v), 1.0, REAL + (0.0,),
                            InvalidInputError),
}

INVALID = [(name, value) for name, (_, _, bad, _) in SCALAR_ARGUMENTS.items() for value in bad]


@pytest.mark.parametrize("name, value", INVALID, ids=[f"{n}-{v!r}" for n, v in INVALID])
def test_invalid_scalar_raises_the_documented_error(name, value):
    call, good, _, error = SCALAR_ARGUMENTS[name]
    call(good)  # so the rejection below is the argument's own
    with pytest.raises(error) as info:
        call(value)
    assert name.split("-")[1] in str(info.value)
