import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surveymech import (
    CostSet,
    InvalidInputError,
    regularize,
    virtual_costs,
)
from surveymech.oracle import regularize_naive


def make_set(costs, cap=None):
    costs = np.asarray(costs, dtype=float)
    return CostSet(costs=costs, cap=float(costs.max() if cap is None else cap))


sorted_costs = st.lists(
    st.floats(min_value=0.0, max_value=40.0, allow_nan=False), min_size=1, max_size=60
).map(sorted)


class TestVirtualCosts:
    def test_irregular_example(self):
        psi = virtual_costs(make_set([1, 10, 11]))
        assert np.allclose(psi, [1, 19, 13])

    def test_equal_costs_telescope(self):
        psi = virtual_costs(make_set([3.5, 3.5, 3.5]))
        assert np.allclose(psi, [3.5, 3.5, 3.5])

    def test_arithmetic_sequence(self):
        psi = virtual_costs(make_set([1, 2, 3]))
        assert np.allclose(psi, [1, 3, 5])

    def test_first_entry_is_lowest_cost(self):
        psi = virtual_costs(make_set([0.7, 2.0]))
        assert psi[0] == 0.7

    def test_rejects_unsorted(self):
        with pytest.raises(InvalidInputError):
            CostSet(costs=np.array([2.0, 1.0]), cap=2.0)

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            CostSet(costs=np.array([]), cap=1.0)

    def test_rejects_cost_above_cap(self):
        with pytest.raises(InvalidInputError):
            CostSet(costs=np.array([1.0, 3.0]), cap=2.0)

    @pytest.mark.parametrize("costs, cap", [
        ([1.0, np.nan], 2.0), ([np.nan], 2.0), ([1.0, 2.0], np.inf), ([1.0, 2.0], np.nan),
    ], ids=["nan_cost", "nan_only", "infinite_cap", "nan_cap"])
    def test_rejects_non_finite_input(self, costs, cap):
        with pytest.raises(InvalidInputError):
            CostSet(costs=np.array(costs), cap=cap)

    def test_rejects_ragged_costs_with_its_own_error(self):
        # not numpy's bare ValueError about an inhomogeneous shape
        with pytest.raises(InvalidInputError, match="costs must be an array of numbers"):
            CostSet(costs=[[1], [1, 2]], cap=3)


class TestRegularize:
    def test_ironed_example(self):
        assert np.allclose(regularize([1, 19, 13]), [1, 16, 16])

    def test_monotone_input_unchanged(self):
        assert np.allclose(regularize([1, 3, 5]), [1, 3, 5])

    def test_two_point_average(self):
        assert np.allclose(regularize([4, 2]), [3, 3])

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            regularize([])

    def test_rejects_ragged_psi_with_its_own_error(self):
        with pytest.raises(InvalidInputError, match="psi must be an array of numbers"):
            regularize([[1.0], [1.0, 2.0]])

    @given(sorted_costs)
    @settings(max_examples=200, deadline=None)
    def test_matches_naive_definition(self, costs):
        psi = virtual_costs(make_set(costs, cap=50.0))
        fast = regularize(psi)
        naive = regularize_naive(psi)
        scale = np.maximum(np.maximum(np.abs(fast), np.abs(naive)), 1e-30)
        assert np.max(np.abs(fast - naive) / scale) <= 1e-12

    @given(sorted_costs)
    @settings(max_examples=200, deadline=None)
    def test_profile_invariants(self, costs):
        psi = virtual_costs(make_set(costs, cap=50.0))
        phi = regularize(psi)
        assert np.all(np.diff(phi) >= 0)
        pref_gap = np.cumsum(psi) - np.cumsum(phi)
        assert np.all(pref_gap >= -1e-9 * np.maximum(np.abs(np.cumsum(psi)), 1.0))
        # prefix sums agree at block right-ends (phi changes) and overall
        ends = np.flatnonzero(np.diff(phi) != 0)
        tol = 1e-9 * np.maximum(np.abs(np.cumsum(psi)), 1.0)
        for e in ends:
            assert abs(pref_gap[e]) <= tol[e]
        assert abs(pref_gap[-1]) <= tol[-1]


class TestProfileInvariantsLarge:
    def test_random_sets_up_to_200(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            m = int(rng.integers(1, 201))
            cap = float(rng.uniform(0.5, 40.0))
            costs = np.sort(rng.uniform(0.0, cap, size=m))
            psi = virtual_costs(CostSet(costs=costs, cap=cap))
            phi = regularize(psi)
            assert np.all(np.diff(phi) >= 0)
            pref_gap = np.cumsum(psi) - np.cumsum(phi)
            tol = 1e-9 * np.maximum(np.abs(np.cumsum(psi)), 1.0)
            assert np.all(pref_gap >= -tol)
            ends = np.flatnonzero(np.diff(phi) != 0)
            for e in ends:
                assert abs(pref_gap[e]) <= tol[e]
            assert abs(pref_gap[-1]) <= tol[-1]


class TestSubsetPayments:
    @given(sorted_costs, st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_subset_virtual_spend_never_higher(self, costs, rnd):
        # For monotone non-increasing A and any subset, the virtual-cost spend
        # over the subset's own virtual costs is dominated by the full set's.
        full = make_set(costs, cap=50.0)
        m = len(full)
        alloc = np.sort(np.array([rnd.uniform(0.05, 1.0) for _ in range(m)]))[::-1]
        keep = sorted(rnd.sample(range(m), rnd.randint(1, m)))
        sub = CostSet(costs=full.costs[keep], cap=full.cap)
        lhs = float(np.dot(alloc[keep], virtual_costs(sub)))
        rhs = float(np.dot(alloc, virtual_costs(full)))
        assert lhs <= rhs + 1e-9 * max(abs(rhs), 1.0)
