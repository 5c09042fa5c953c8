import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surveymech import (
    AllocationRule,
    CostSet,
    IgnoreRule,
    InvalidInputError,
    PaymentRule,
    Population,
    myerson_payments,
    solve_unbiased,
    virtual_costs,
    worst_case_variance,
)


def make_set(costs, cap=None):
    costs = np.asarray(costs, dtype=float)
    return CostSet(costs=costs, cap=float(costs.max() if cap is None else cap))


random_instance = st.tuples(
    st.lists(st.floats(min_value=0.0, max_value=30.0), min_size=1, max_size=40).map(sorted),
    st.floats(min_value=1e-3, max_value=2.0),
)


class TestSolveUnbiased:
    def test_saturation_equal_costs(self):
        rule = solve_unbiased(make_set([1, 1, 1, 1]), 4.0)
        assert rule.saturated
        assert np.allclose(rule.probabilities, 1.0)

    def test_water_filling_example(self):
        cs = make_set([1, 10, 11])
        rule = solve_unbiased(cs, 3.0)
        assert not rule.saturated
        assert np.allclose(rule.probabilities, [1 / 3, 1 / 12, 1 / 12])
        assert rule.lam == pytest.approx(1 / 3, rel=1e-12)
        assert np.dot(rule.probabilities, virtual_costs(cs)) == pytest.approx(3.0, rel=1e-12)

    def test_saturation_boundary(self):
        rule = solve_unbiased(make_set([1, 10, 11]), 33.0)
        assert rule.saturated
        assert np.allclose(rule.probabilities, 1.0)

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(InvalidInputError):
            solve_unbiased(make_set([1.0]), 0.0)
        with pytest.raises(InvalidInputError):
            solve_unbiased(make_set([1.0]), -1.0)

    def test_rejects_nonfinite_budget(self):
        with pytest.raises(InvalidInputError):
            solve_unbiased(make_set([1.0]), float("nan"))

    def test_zero_costs_are_free(self):
        # psi = {0, 0, 6}: the paid entry carries the rent of the free prefix
        rule = solve_unbiased(make_set([0.0, 0.0, 2.0], cap=2.0), 0.5)
        assert rule.probabilities[0] == 1.0 and rule.probabilities[1] == 1.0
        assert rule.probabilities[2] == pytest.approx(0.5 / 6.0)

    @given(random_instance)
    @settings(max_examples=200, deadline=None)
    def test_budget_binding_and_monotone(self, instance):
        costs, frac = instance
        cs = make_set(costs, cap=31.0)
        psi = virtual_costs(cs)
        total = float(np.sum(psi))
        budget = frac * total
        if budget <= 0:
            return
        rule = solve_unbiased(cs, budget)
        probs = rule.probabilities
        assert np.all(np.diff(probs) <= 1e-12)
        assert np.all(probs > 0)
        spend = float(np.dot(probs, psi))
        if rule.saturated:
            assert total <= budget * (1 + 1e-12)
        else:
            assert abs(spend - budget) <= max(1e-9 * budget, 1e-12)


@pytest.mark.parametrize("probs, lam", [
    ([], 1.0), ([[1.0, 0.5]], 1.0), ([1.0, 1.5], 1.0), ([1.0, -0.5], 1.0), ([1.0, np.nan], 1.0),
    ([0.5, 1.0], 1.0), ([1.0, 0.5], -1.0), ([1.0, 0.5], np.nan), ([1.0, 0.5], np.inf),
], ids=["empty", "2-d", "above_one", "negative", "nan", "increasing",
        "negative_lam", "nan_lam", "infinite_lam"])
def test_allocation_rule_rejects_malformed_input(probs, lam):
    with pytest.raises(InvalidInputError):
        AllocationRule(probabilities=np.array(probs), lam=lam)


@pytest.mark.parametrize("payments", [[], [[1.0, 2.0]], [1.0, np.nan], [1.0, np.inf]],
                         ids=["empty", "2-d", "nan", "inf"])
def test_payment_rule_rejects_malformed_input(payments):
    with pytest.raises(InvalidInputError):
        PaymentRule(payments=np.array(payments))


# {id: (record built from the caller's array, the field holding it, its values)}
RECORD_ARRAYS = {
    "CostSet": (lambda a: CostSet(costs=a, cap=4.0), "costs", [1.0, 2.0, 4.0]),
    "AllocationRule": (lambda a: AllocationRule(probabilities=a, lam=1.0), "probabilities",
                       [1.0, 0.5, 0.25]),
    "PaymentRule": (lambda a: PaymentRule(payments=a), "payments", [1.0, 2.0, 4.0]),
    "IgnoreRule": (lambda a: IgnoreRule(u_values=a, threshold_phi=1.0, boundary_fraction=1.0,
                                        total_mass=1.5), "u_values", [0.0, 0.5, 1.0]),
    "Population-costs": (lambda a: Population(costs=a, data=np.ones(3), cap=4.0), "costs",
                         [1.0, 2.0, 4.0]),
    "Population-data": (lambda a: Population(costs=np.ones(3), data=a, cap=4.0), "data",
                        [0.0, 0.5, 1.0]),
}


@pytest.mark.parametrize("make, field, values", list(RECORD_ARRAYS.values()), ids=list(RECORD_ARRAYS))
def test_record_holds_a_read_only_copy(make, field, values):
    caller = np.array(values)
    stored = getattr(make(caller), field)
    assert not stored.flags.writeable
    with pytest.raises(ValueError):
        stored[0] = 0.5
    caller[:] = 0.75  # the caller's array is not the stored one
    assert stored.tolist() == values


class TestMyersonPayments:
    def test_two_point(self):
        cs = make_set([1, 2])
        rule = AllocationRule(probabilities=np.array([1.0, 0.5]), lam=1.0)
        pay = myerson_payments(cs, rule)
        assert np.allclose(pay.payments, [1.5, 2.0])

    def test_constant_allocation_pays_top_cost(self):
        cs = make_set([1, 4, 9])
        rule = AllocationRule(probabilities=np.array([0.4, 0.4, 0.4]), lam=1.0)
        pay = myerson_payments(cs, rule)
        assert np.allclose(pay.payments, 9.0)

    def test_water_filling_payments(self):
        cs = make_set([1, 10, 11])
        rule = solve_unbiased(cs, 3.0)
        pay = myerson_payments(cs, rule)
        assert np.allclose(pay.payments, [3.5, 11.0, 11.0])

    def test_highest_cost_paid_its_cost(self):
        cs = make_set([2, 5, 7])
        rule = solve_unbiased(cs, 4.0)
        pay = myerson_payments(cs, rule)
        assert pay.payments[-1] == pytest.approx(7.0)

    def test_rejects_zero_allocation(self):
        cs = make_set([1, 2])
        rule = AllocationRule(probabilities=np.array([1.0, 0.0]), lam=1.0)
        with pytest.raises(InvalidInputError):
            myerson_payments(cs, rule)

    @given(random_instance)
    @settings(max_examples=150, deadline=None)
    def test_payment_identity(self, instance):
        costs, frac = instance
        cs = make_set(costs, cap=31.0)
        psi = virtual_costs(cs)
        budget = frac * float(np.sum(psi))
        if budget <= 0:
            return
        rule = solve_unbiased(cs, budget)
        pay = myerson_payments(cs, rule)
        lhs = float(np.dot(rule.probabilities, pay.payments))
        rhs = float(np.dot(rule.probabilities, psi))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)
        # individual rationality
        assert np.all(pay.payments >= cs.costs - 1e-12)


class TestWorstCaseVariance:
    def test_full_collection_zero(self):
        cs = make_set([1, 1, 1])
        rule = AllocationRule(probabilities=np.ones(3), lam=2.0, saturated=True)
        assert worst_case_variance(rule, cs) == 0.0

    def test_half_collection(self):
        cs = make_set(np.ones(10))
        rule = AllocationRule(probabilities=np.full(10, 0.5), lam=1.0)
        assert worst_case_variance(rule, cs) == pytest.approx(0.1)

    def test_water_filling_variance(self):
        cs = make_set([1, 10, 11])
        rule = solve_unbiased(cs, 3.0)
        assert worst_case_variance(rule, cs) == pytest.approx(8 / 3)

    def test_zero_allocation_is_infinite(self):
        cs = make_set([1, 2])
        rule = AllocationRule.__new__(AllocationRule)
        object.__setattr__(rule, "probabilities", np.array([1.0, 0.0]))
        object.__setattr__(rule, "lam", 0.0)
        object.__setattr__(rule, "saturated", False)
        assert worst_case_variance(rule, cs) == float("inf")

