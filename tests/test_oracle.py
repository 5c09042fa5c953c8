import ast
import sys
from pathlib import Path

import numpy as np
import pytest

from surveymech import oracle
from surveymech import (
    CostSet,
    InvalidInputError,
    grid_search_ci,
    grid_search_unbiased,
    regularize_naive,
    solve_unbiased,
    virtual_costs,
)


def make_set(costs, cap=None):
    costs = np.asarray(costs, dtype=float)
    return CostSet(costs=costs, cap=float(costs.max() if cap is None else cap))


class TestRegularizeNaive:
    def test_anchor(self):
        assert np.allclose(regularize_naive([1, 19, 13]), [1, 16, 16])

    def test_monotone_identity(self):
        assert np.allclose(regularize_naive([1, 3, 5]), [1, 3, 5])

    def test_all_equal_identity(self):
        assert np.allclose(regularize_naive([2, 2, 2]), [2, 2, 2])

    @pytest.mark.parametrize("psi", [[], [1.0, np.nan], [1.0, np.inf]], ids=["empty", "nan", "inf"])
    def test_rejects_malformed_psi(self, psi):
        with pytest.raises(InvalidInputError):
            regularize_naive(psi)


class TestGridSearchUnbiased:
    def test_saturated(self):
        rule, obj = grid_search_unbiased(make_set([1, 1, 1, 1]), 4.0, 1e-2)
        assert np.allclose(rule, 1.0)
        assert obj == pytest.approx(4.0)

    def test_anchor_within_one_percent(self):
        cs = make_set([1, 10, 11])
        _, obj = grid_search_unbiased(cs, 3.0, 1e-3)
        assert abs(obj - 27.0) <= 0.27

    def test_generous_budget(self):
        cs = make_set([1, 2, 3])
        rule, obj = grid_search_unbiased(cs, 100.0, 1e-2)
        assert np.allclose(rule, 1.0)

    def test_refuses_large_m(self):
        with pytest.raises(InvalidInputError):
            grid_search_unbiased(make_set(np.arange(1.0, 8.0)), 5.0, 1e-2)

    def test_refuses_bad_step(self):
        with pytest.raises(InvalidInputError):
            grid_search_unbiased(make_set([1.0]), 1.0, 0.5)

    def test_feasible_and_monotone(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            m = int(rng.integers(1, 7))
            cs = make_set(np.sort(rng.uniform(0.1, 9.0, m)), cap=10.0)
            psi = virtual_costs(cs)
            budget = float(rng.uniform(0.05, 1.1)) * float(np.sum(psi))
            rule, obj = grid_search_unbiased(cs, budget, 1e-2)
            assert np.all(np.diff(rule) <= 1e-12)
            assert float(np.dot(rule, psi)) <= budget * (1 + 1e-9) + 1e-12
            assert obj == pytest.approx(float(np.sum(1.0 / rule)))

    def test_never_beats_continuous_optimum(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            m = int(rng.integers(1, 7))
            cs = make_set(np.sort(rng.uniform(0.1, 9.0, m)), cap=10.0)
            psi = virtual_costs(cs)
            budget = float(rng.uniform(0.05, 1.1)) * float(np.sum(psi))
            _, grid_obj = grid_search_unbiased(cs, budget, 1e-2)
            closed = float(np.sum(1.0 / solve_unbiased(cs, budget).probabilities))
            assert grid_obj >= closed - 1e-9 * closed

    def test_exhaustive_vs_rounded_closed_form(self):
        # the grid optimum is at least as good as rounding the closed form down
        rng = np.random.default_rng(2)
        step = 1e-2
        for _ in range(20):
            m = int(rng.integers(1, 7))
            cs = make_set(np.sort(rng.uniform(0.5, 9.0, m)), cap=10.0)
            psi = virtual_costs(cs)
            budget = float(rng.uniform(0.3, 1.1)) * float(np.sum(psi))
            probs = solve_unbiased(cs, budget).probabilities
            rounded = np.floor(probs / step + 1e-12) * step
            if np.any(rounded < step):
                continue
            _, grid_obj = grid_search_unbiased(cs, budget, step)
            assert grid_obj <= float(np.sum(1.0 / rounded)) + 1e-9


class TestGridSearchCI:
    def test_zero_budget(self):
        (alloc, u), obj = grid_search_ci(make_set([1, 2]), 0.0, 1.0)
        assert np.allclose(u, 1.0)
        assert obj == pytest.approx(1.0)

    def test_generous_budget_small_beta(self):
        (alloc, u), obj = grid_search_ci(make_set([1, 1]), 100.0, 0.1)
        # full collection is near-free; ignoring is capped by the bias term
        assert obj <= 0.1**2 + 1e-9

    def test_large_beta_prefers_full_ignore(self):
        (alloc, u), obj = grid_search_ci(make_set([1, 1]), 100.0, 5.0)
        assert np.allclose(u, 1.0)
        assert obj == pytest.approx(1.0)

    def test_refuses_large_m(self):
        with pytest.raises(InvalidInputError):
            grid_search_ci(make_set([1, 2, 3, 4, 5]), 1.0, 1.0)

    @pytest.mark.parametrize("beta", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_beta(self, beta):
        with pytest.raises(InvalidInputError):
            grid_search_ci(make_set([1, 2]), 1.0, beta)

    def test_feasibility_of_reported_solution(self):
        cs = make_set([1.0, 3.0, 9.0])
        (alloc, u), obj = grid_search_ci(cs, 4.0, 0.7)
        psi = virtual_costs(cs)
        eff = (1 - u) * alloc
        assert np.all(np.diff(eff) <= 1e-12)
        assert np.all(np.diff(alloc) <= 1e-12)
        assert float(np.dot(eff, psi)) <= 4.0 * (1 + 1e-9)


def test_oracle_imports_no_solver():
    # The oracle checks the closed-form solvers, so it may use only the
    # error types and the cost-set primitives, never solver code, not even
    # through an import inside a function.
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    allowed_local = {"errors", "virtual_cost"}
    allowed_external = set(sys.stdlib_module_names) | {"numpy"}
    seen = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names, allowed = [node.module], allowed_local
        elif isinstance(node, ast.ImportFrom):
            names, allowed = [node.module.split(".")[0]], allowed_external
        elif isinstance(node, ast.Import):
            names, allowed = [a.name.split(".")[0] for a in node.names], allowed_external
        else:
            continue
        for name in names:
            assert name in allowed, f"line {node.lineno}: import of {name}"
        seen.update(names)
    assert {"errors", "virtual_cost", "numpy"} <= seen
