"""Budget-feasible data acquisition for population-mean estimation.

A library plus CLI for buying data from self-interested agents under an
expected budget: optimal allocation/payment rules for unbiased estimation,
joint allocation/ignore rules for shortest confidence intervals, their
online random-arrival variants, and a Monte Carlo verification harness.
"""

from .allocation import (
    AllocationRule,
    PaymentRule,
    myerson_payments,
    solve_unbiased,
    worst_case_variance,
)
from .ci_solver import (
    CIParameters,
    IgnoreRule,
    alpha_gamma,
    ci_objective,
    ci_parameters,
    g_derivative,
    objective_at_mass,
    solve_ci,
)
from .errors import ConfigError, InvalidInputError, SolverError
from .estimation import CIOutput, bernstein_interval, sample_variance
from .online_runner import (
    BudgetSchedule,
    CIRunResult,
    RoundTranscript,
    UnbiasedRunResult,
    benchmark_ci,
    benchmark_unbiased,
    ci_bound_rhs,
    ci_schedule,
    run_ci_online,
    run_unbiased_online,
    unbiased_bound_rhs,
    unbiased_schedule,
)
from .oracle import grid_search_ci, grid_search_unbiased, regularize_naive
from .populations import Population, gen_population
from .simharness import (
    AuditReport,
    SimMetrics,
    draw_permutation,
    metrics_json,
    monte_carlo,
    run_log_csv,
    truthfulness_audit,
)
from .virtual_cost import CostSet, regularize, virtual_costs

__version__ = "0.1.0"

__all__ = [
    "AllocationRule",
    "AuditReport",
    "BudgetSchedule",
    "CIOutput",
    "CIParameters",
    "CIRunResult",
    "ConfigError",
    "CostSet",
    "IgnoreRule",
    "InvalidInputError",
    "PaymentRule",
    "Population",
    "RoundTranscript",
    "SimMetrics",
    "SolverError",
    "UnbiasedRunResult",
    "alpha_gamma",
    "benchmark_ci",
    "benchmark_unbiased",
    "bernstein_interval",
    "ci_bound_rhs",
    "ci_objective",
    "ci_parameters",
    "ci_schedule",
    "draw_permutation",
    "g_derivative",
    "gen_population",
    "grid_search_ci",
    "grid_search_unbiased",
    "metrics_json",
    "monte_carlo",
    "myerson_payments",
    "objective_at_mass",
    "regularize",
    "regularize_naive",
    "run_ci_online",
    "run_log_csv",
    "run_unbiased_online",
    "sample_variance",
    "solve_ci",
    "solve_unbiased",
    "truthfulness_audit",
    "unbiased_bound_rhs",
    "unbiased_schedule",
    "virtual_costs",
    "worst_case_variance",
]
