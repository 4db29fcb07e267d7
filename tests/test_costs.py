"""Unit tests for the cost models and their effect on distances."""

import pytest

from repro.costs import (
    CallableCostModel,
    CostModel,
    PerLabelCostModel,
    StringRenameCostModel,
    UnitCostModel,
    WeightedCostModel,
)
from repro.exceptions import CostModelError
from repro.trees import tree_from_nested
from repro.algorithms import RTED, SimpleTED, make_algorithm


class TestUnitCostModel:
    def test_costs(self):
        model = UnitCostModel()
        assert model.delete("a") == 1.0
        assert model.insert("b") == 1.0
        assert model.rename("a", "a") == 0.0
        assert model.rename("a", "b") == 1.0

    def test_validate_passes(self):
        UnitCostModel().validate()


class TestWeightedCostModel:
    def test_costs(self):
        model = WeightedCostModel(delete_cost=2.0, insert_cost=3.0, rename_cost=0.5)
        assert model.delete("a") == 2.0
        assert model.insert("a") == 3.0
        assert model.rename("a", "b") == 0.5
        assert model.rename("a", "a") == 0.0

    def test_negative_costs_rejected(self):
        with pytest.raises(CostModelError):
            WeightedCostModel(delete_cost=-1)


class TestPerLabelCostModel:
    def test_lookup_and_defaults(self):
        model = PerLabelCostModel(
            delete_costs={"wrapper": 0.1}, insert_costs={"wrapper": 0.2}, default_delete=1.0
        )
        assert model.delete("wrapper") == 0.1
        assert model.insert("wrapper") == 0.2
        assert model.delete("content") == 1.0

    def test_negative_costs_rejected(self):
        with pytest.raises(CostModelError):
            PerLabelCostModel(delete_costs={"x": -0.5})


class TestStringRenameCostModel:
    def test_identical_labels_are_free(self):
        assert StringRenameCostModel().rename("author", "author") == 0.0

    def test_similar_labels_cheaper_than_different(self):
        model = StringRenameCostModel()
        assert model.rename("author", "authors") < model.rename("author", "price")

    def test_rename_cost_is_at_most_one(self):
        model = StringRenameCostModel()
        assert 0 < model.rename("abc", "xyz") <= 1.0


class TestCallableCostModel:
    def test_delegates_to_functions(self):
        model = CallableCostModel(
            delete=lambda label: 5.0,
            insert=lambda label: 7.0,
            rename=lambda a, b: 0.0 if a == b else 2.0,
        )
        assert model.delete("a") == 5.0
        assert model.insert("a") == 7.0
        assert model.rename("a", "b") == 2.0


class TestValidation:
    def test_validate_rejects_negative_delete(self):
        class Broken(CostModel):
            def delete(self, label):
                return -1.0

            def insert(self, label):
                return 1.0

            def rename(self, a, b):
                return 0.0

        with pytest.raises(CostModelError):
            Broken().validate()

    def test_validate_rejects_nonzero_identity_rename(self):
        class Broken(CostModel):
            def delete(self, label):
                return 1.0

            def insert(self, label):
                return 1.0

            def rename(self, a, b):
                return 0.5

        with pytest.raises(CostModelError):
            Broken().validate()


class TestCostModelsInDistances:
    @pytest.fixture
    def pair(self):
        t1 = tree_from_nested(("a", ["b", "c"]))
        t2 = tree_from_nested(("a", ["b", "d"]))
        return t1, t2

    def test_unit_cost_rename(self, pair):
        t1, t2 = pair
        assert make_algorithm("zhang-l").distance(t1, t2) == 1.0

    def test_weighted_rename_cost_scales_distance(self, pair):
        t1, t2 = pair
        model = WeightedCostModel(rename_cost=0.25)
        assert make_algorithm("zhang-l").distance(t1, t2, cost_model=model) == 0.25

    def test_expensive_rename_forces_delete_insert(self, pair):
        t1, t2 = pair
        # Renaming costs more than delete + insert, so the optimum switches.
        model = WeightedCostModel(delete_cost=1.0, insert_cost=1.0, rename_cost=5.0)
        assert make_algorithm("zhang-l").distance(t1, t2, cost_model=model) == 2.0

    def test_all_algorithms_respect_custom_costs(self, pair):
        t1, t2 = pair
        model = WeightedCostModel(delete_cost=2.0, insert_cost=3.0, rename_cost=1.5)
        reference = SimpleTED().distance(t1, t2, cost_model=model)
        assert RTED().distance(t1, t2, cost_model=model) == pytest.approx(reference)
        zhang_l = make_algorithm("zhang-l")
        assert zhang_l.distance(t1, t2, cost_model=model) == pytest.approx(reference)

    def test_asymmetric_costs_break_symmetry(self):
        t1 = tree_from_nested(("a", ["b"]))
        t2 = tree_from_nested("a")
        model = WeightedCostModel(delete_cost=3.0, insert_cost=1.0)
        assert RTED().distance(t1, t2, cost_model=model) == 3.0
        assert RTED().distance(t2, t1, cost_model=model) == 1.0


class TestIsMetric:
    """is_metric() — the soundness gate for triangle-inequality indexing.

    A wrong True silently drops query results, so every case that cannot be
    proven metric must answer False (conservatism only costs speed)."""

    def test_unit_model_is_metric(self):
        assert UnitCostModel().is_metric()

    def test_base_class_defaults_to_false(self):
        assert not CostModel().is_metric()
        assert not CallableCostModel(
            lambda l: 1.0, lambda l: 1.0, lambda a, b: 0.0 if a == b else 1.0
        ).is_metric()

    def test_weighted_symmetric_models(self):
        assert WeightedCostModel(0.5, 0.5, 0.5).is_metric()
        assert WeightedCostModel(1.0, 1.0, 2.0).is_metric()
        # rename > delete + insert breaks the triangle via ε.
        assert not WeightedCostModel(1.0, 1.0, 2.5).is_metric()
        # delete != insert breaks symmetry.
        assert not WeightedCostModel(1.0, 2.0, 1.5).is_metric()

    def test_per_label_models(self):
        assert PerLabelCostModel().is_metric()
        # Asymmetric tables break symmetry.
        assert not PerLabelCostModel(delete_costs={"a": 2.0}).is_metric()
        # Symmetric tables within the triangle bounds stay metric.
        assert PerLabelCostModel(
            delete_costs={"a": 1.5}, insert_costs={"a": 1.5}, rename_cost=1.0
        ).is_metric()
        # A label far cheaper than the rename route breaks delete-via-rename.
        assert not PerLabelCostModel(
            delete_costs={"a": 0.1}, insert_costs={"a": 0.1}, rename_cost=1.0
        ).is_metric()

    def test_string_rename_model_is_not_metric(self):
        assert not StringRenameCostModel().is_metric()
