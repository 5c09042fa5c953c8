import numpy as np
import pytest

from surveymech import ConfigError, Population, gen_population


class TestGenPopulation:
    def test_worst_case_all_ones(self):
        pop = gen_population({"kind": "worst_case"}, 5, 10.0, 1)
        assert np.all(pop.data == 1.0)
        assert pop.n == 5

    def test_two_point_exact_counts(self):
        spec = {"kind": "two_point", "fractions": [0.9, 0.1], "costs": [1, 25]}
        pop = gen_population(spec, 200, 30.0, 0)
        assert int(np.sum(pop.costs == 1.0)) == 180
        assert int(np.sum(pop.costs == 25.0)) == 20
        assert np.all(pop.data == 1.0)

    def test_correlated_map_reproducible(self):
        spec = {"kind": "correlated", "cost_law": {"dist": "uniform", "low": 0, "high": 8}}
        pop = gen_population(spec, 50, 8.0, 3)
        assert np.allclose(pop.data, pop.costs / 8.0)

    def test_independent_laws(self):
        spec = {
            "kind": "independent",
            "cost_law": {"dist": "choice", "values": [1.0, 2.0]},
            "data_law": {"dist": "constant", "value": 0.5},
        }
        pop = gen_population(spec, 20, 5.0, 4)
        assert set(np.unique(pop.costs)) <= {1.0, 2.0}
        assert np.all(pop.data == 0.5)

    def test_deterministic_given_seed(self):
        spec = {"kind": "worst_case"}
        a = gen_population(spec, 30, 5.0, 9)
        b = gen_population(spec, 30, 5.0, 9)
        assert np.array_equal(a.costs, b.costs)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            gen_population({"kind": "nope"}, 5, 1.0, 0)

    def test_rejects_missing_kind(self):
        with pytest.raises(ConfigError):
            gen_population({}, 5, 1.0, 0)

    def test_rejects_bad_fractions(self):
        spec = {"kind": "two_point", "fractions": [0.7, 0.7], "costs": [1, 2]}
        with pytest.raises(ConfigError):
            gen_population(spec, 10, 5.0, 0)

    def test_rejects_cost_above_cap(self):
        spec = {"kind": "two_point", "fractions": [0.5, 0.5], "costs": [1, 9]}
        with pytest.raises(ConfigError):
            gen_population(spec, 10, 5.0, 0)


class TestPopulation:
    # Each case was accepted once: comparisons with NaN are all False, so a
    # check of the form ``any(costs < 0)`` let NaN through.
    @pytest.mark.parametrize("costs, data, cap", [
        ([1.0, float("nan"), 2.0], [1.0, 1.0, 1.0], 5.0),
        ([1.0, 2.0], [0.5, float("nan")], 5.0),
        ([1.0, 2.0, 3.0], [1.0, 1.0, 1.0], float("inf")),
    ], ids=["nan_cost", "nan_datum", "infinite_cap"])
    def test_rejects_non_finite_input(self, costs, data, cap):
        with pytest.raises(ConfigError):
            Population(costs=costs, data=data, cap=cap)

    def test_rejects_non_numeric_cost_as_config_error(self):
        # not numpy's bare ValueError about converting a string to float
        with pytest.raises(ConfigError, match="costs must be an array of numbers"):
            Population(costs=["x", 1], data=[1, 1], cap=2)

    def test_accepts_bounds(self):
        pop = Population(costs=[0.0, 5.0], data=[0.0, 1.0], cap=5.0)
        assert pop.n == 2
