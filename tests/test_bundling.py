"""Tests for the six bundling strategies (paper §4.2.1)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.bundling import (
    BundlingInputs,
    ClassAwareBundling,
    CostDivisionBundling,
    CostWeightedBundling,
    DemandWeightedBundling,
    IndexDivisionBundling,
    OptimalBundling,
    ProfitWeightedBundling,
    evaluate_partition,
    iter_partitions,
    paper_strategies,
    stable_argsort,
    strategy_by_name,
    token_bucket_partition,
)
from repro.core.ced import CEDDemand
from repro.core.logit import LogitDemand
from repro.errors import BundlingError


def make_inputs(demands, costs, model=None, classes=None, blended_rate=20.0):
    """Calibrate a BundlingInputs snapshot from raw demand/cost arrays."""
    model = model or CEDDemand(alpha=1.1)
    demands = np.asarray(demands, dtype=float)
    costs = np.asarray(costs, dtype=float)
    valuations = model.fit_valuations(demands, blended_rate)
    return BundlingInputs(
        model=model,
        demands=demands,
        valuations=valuations,
        costs=costs,
        potential_profits=model.potential_profits(valuations, costs),
        classes=classes,
    )


def as_sets(bundles):
    return sorted((frozenset(int(i) for i in b) for b in bundles), key=min)


#: Few distinct values, so drawn keys tie heavily; ``0.0``/``-0.0`` and
#: the infinities compare equal to themselves and must tie too.
tie_heavy = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e-300, np.inf, -np.inf])
any_float = st.floats(allow_nan=False)


def stable_reference(keys):
    return np.argsort(keys, kind="stable")


class TestStableArgsort:
    @given(st.lists(tie_heavy, max_size=300))
    def test_tie_heavy_keys(self, keys):
        k = np.asarray(keys, dtype=float)
        assert np.array_equal(stable_argsort(k), stable_reference(k))
        assert np.array_equal(stable_argsort(-k), stable_reference(-k))

    @given(st.lists(any_float, min_size=1, max_size=300))
    def test_arbitrary_keys(self, keys):
        k = np.asarray(keys, dtype=float)
        assert np.array_equal(stable_argsort(k), stable_reference(k))
        assert np.array_equal(stable_argsort(-k), stable_reference(-k))

    @given(any_float, st.integers(min_value=1, max_value=300))
    def test_all_equal_keys(self, value, n):
        k = np.full(n, value)
        assert np.array_equal(stable_argsort(k), np.arange(n))

    @given(st.lists(st.integers(-3, 3), max_size=300))
    def test_integer_keys(self, keys):
        k = np.asarray(keys, dtype=np.int64)
        assert np.array_equal(stable_argsort(k), stable_reference(k))

    def test_large_tied_input(self, rng):
        k = rng.integers(0, 50, size=200_000).astype(float)
        k[rng.random(k.size) < 0.5] = rng.random()  # one huge run as well
        assert np.array_equal(stable_argsort(k), stable_reference(k))

    def test_single_and_empty(self):
        assert stable_argsort(np.array([-0.0])).tolist() == [0]
        assert stable_argsort(np.array([], dtype=float)).size == 0


class TestTokenBucket:
    def test_paper_worked_example(self):
        # Demands (30, 10, 10, 10) into two bundles -> {30} and the rest.
        bundles = token_bucket_partition(np.array([30.0, 10.0, 10.0, 10.0]), 2)
        assert as_sets(bundles) == [frozenset({0}), frozenset({1, 2, 3})]

    def test_deficit_carry_cascades_heavy_flows(self):
        # One huge flow eats several budgets; next flows start new bundles.
        bundles = token_bucket_partition(np.array([100.0, 10.0, 10.0]), 3)
        assert as_sets(bundles)[0] == frozenset({0})
        assert len(bundles) <= 3

    def test_uniform_weights_split_evenly(self):
        bundles = token_bucket_partition(np.ones(9), 3)
        assert sorted(len(b) for b in bundles) == [3, 3, 3]

    def test_every_flow_assigned_exactly_once(self, rng):
        w = rng.lognormal(0, 1.5, 40)
        bundles = token_bucket_partition(w, 5)
        assigned = np.concatenate(bundles)
        assert sorted(assigned.tolist()) == list(range(40))

    def test_single_bundle(self):
        bundles = token_bucket_partition(np.array([3.0, 1.0]), 1)
        assert as_sets(bundles) == [frozenset({0, 1})]


class TestWeightedStrategies:
    def test_demand_weighted_groups_by_demand(self):
        inputs = make_inputs([30.0, 10.0, 10.0, 10.0], [1.0, 1.0, 1.0, 1.0])
        bundles = DemandWeightedBundling().bundle(inputs, 2)
        assert as_sets(bundles) == [frozenset({0}), frozenset({1, 2, 3})]

    def test_cost_weighted_separates_local_flows(self):
        # Weights 1/c: the cheap (local) flow dominates the token budget
        # and gets its own bundle; long-haul flows share.
        inputs = make_inputs(
            [10.0, 10.0, 10.0, 10.0], [1.0, 10.0, 12.0, 15.0]
        )
        bundles = CostWeightedBundling().bundle(inputs, 2)
        assert frozenset({0}) in as_sets(bundles)

    def test_profit_weighted_beats_or_matches_demand_weighted(self, rng):
        demands = rng.lognormal(2.0, 1.5, 30)
        costs = rng.uniform(0.5, 10.0, 30)
        inputs = make_inputs(demands, costs)
        for n_bundles in (2, 3, 4):
            pw = evaluate_partition(
                inputs.model,
                inputs.valuations,
                inputs.costs,
                ProfitWeightedBundling().bundle(inputs, n_bundles),
            )
            dw = evaluate_partition(
                inputs.model,
                inputs.valuations,
                inputs.costs,
                DemandWeightedBundling().bundle(inputs, n_bundles),
            )
            assert pw >= dw - 1e-9

    def test_weights_must_be_positive(self):
        inputs = make_inputs([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        bad = BundlingInputs(
            model=inputs.model,
            demands=np.array([1.0, -2.0, 3.0]),
            valuations=inputs.valuations,
            costs=inputs.costs,
            potential_profits=inputs.potential_profits,
        )
        with pytest.raises(BundlingError, match="positive"):
            DemandWeightedBundling().bundle(bad, 2)


class TestDivisionStrategies:
    def test_cost_division_paper_example(self):
        # Most expensive flow $10, two bundles: $0-4.99 and $5-10.
        inputs = make_inputs(
            [1.0, 1.0, 1.0, 1.0], [1.0, 4.9, 5.1, 10.0]
        )
        bundles = CostDivisionBundling().bundle(inputs, 2)
        assert as_sets(bundles) == [frozenset({0, 1}), frozenset({2, 3})]

    def test_cost_division_drops_empty_ranges(self):
        inputs = make_inputs([1.0, 1.0], [1.0, 10.0])
        bundles = CostDivisionBundling().bundle(inputs, 2)
        # Wait - 1.0 falls in [0,5), 10.0 in [5,10]: two bundles.
        assert len(bundles) == 2
        # Now cluster costs so lower ranges are empty: with five flows in
        # [9, 10] and four ranges over [0, 10], everything lands in the
        # topmost range and the empty ranges are dropped.
        inputs = make_inputs(
            [1.0, 1.0, 1.0, 1.0, 1.0], [9.0, 9.2, 9.5, 9.8, 10.0]
        )
        bundles = CostDivisionBundling().bundle(inputs, 4)
        assert len(bundles) == 1

    def test_index_division_equal_chunks(self):
        inputs = make_inputs(
            np.ones(6), [6.0, 5.0, 4.0, 3.0, 2.0, 1.0]
        )
        bundles = IndexDivisionBundling().bundle(inputs, 3)
        # Cheapest flows are indices 4-5, then 2-3, then 0-1.
        assert as_sets(bundles) == [
            frozenset({0, 1}),
            frozenset({2, 3}),
            frozenset({4, 5}),
        ]

    def test_index_division_is_cost_contiguous(self, rng):
        costs = rng.uniform(1.0, 30.0, 20)
        inputs = make_inputs(np.ones(20), costs)
        bundles = IndexDivisionBundling().bundle(inputs, 4)
        maxima = sorted(max(costs[b]) for b in bundles)
        minima = sorted(min(costs[b]) for b in bundles)
        for hi, lo in zip(maxima[:-1], minima[1:]):
            assert hi <= lo


class TestStrategyContract:
    @pytest.mark.parametrize("strategy", paper_strategies(), ids=lambda s: s.name)
    def test_partition_is_exact(self, strategy, rng):
        demands = rng.lognormal(2.0, 1.0, 12)
        costs = rng.uniform(0.5, 8.0, 12)
        inputs = make_inputs(demands, costs)
        for n_bundles in (1, 3, 12, 20):
            bundles = strategy.bundle(inputs, n_bundles)
            assigned = sorted(int(i) for b in bundles for i in b)
            assert assigned == list(range(12))
            assert len(bundles) <= min(n_bundles, 12)

    @pytest.mark.parametrize("strategy", paper_strategies(), ids=lambda s: s.name)
    def test_more_bundles_than_flows_gives_singletons(self, strategy):
        inputs = make_inputs([5.0, 2.0, 1.0], [1.0, 2.0, 3.0])
        bundles = strategy.bundle(inputs, 10)
        assert as_sets(bundles) == [frozenset({0}), frozenset({1}), frozenset({2})]

    @pytest.mark.parametrize("strategy", paper_strategies(), ids=lambda s: s.name)
    def test_zero_bundles_rejected(self, strategy):
        inputs = make_inputs([1.0], [1.0])
        with pytest.raises(BundlingError):
            strategy.bundle(inputs, 0)

    def test_strategy_by_name(self):
        assert strategy_by_name("optimal").name == "optimal"
        assert strategy_by_name("cost-division").name == "cost-division"
        with pytest.raises(BundlingError):
            strategy_by_name("k-means")


class TestIterPartitions:
    def test_counts_small_cases(self):
        # Bell numbers with block limit: n=3, max 3 blocks -> 5 partitions.
        assert len(list(iter_partitions(3, 3))) == 5
        # n=3, at most 2 blocks -> 4 (drop the all-singletons one).
        assert len(list(iter_partitions(3, 2))) == 4
        # n=4, at most 2 blocks -> S(4,1) + S(4,2) = 1 + 7 = 8.
        assert len(list(iter_partitions(4, 2))) == 8

    def test_partitions_are_valid(self):
        for blocks in iter_partitions(4, 3):
            items = sorted(i for block in blocks for i in block)
            assert items == [0, 1, 2, 3]
            assert 1 <= len(blocks) <= 3


class TestOptimalBundling:
    @pytest.mark.parametrize("family", ["ced", "logit"])
    def test_dp_matches_exhaustive_on_small_instances(self, family, rng):
        model = (
            CEDDemand(alpha=1.3)
            if family == "ced"
            else LogitDemand(alpha=1.3, s0=0.2)
        )
        for trial in range(6):
            n = 7
            demands = rng.lognormal(1.0, 1.2, n)
            costs = rng.uniform(0.5, 6.0, n)
            inputs = make_inputs(demands, costs, model=model)
            for n_bundles in (2, 3):
                exhaustive = OptimalBundling(exhaustive_limit=10)
                dp = OptimalBundling(exhaustive_limit=0)
                profit_exh = evaluate_partition(
                    model,
                    inputs.valuations,
                    inputs.costs,
                    exhaustive.bundle(inputs, n_bundles),
                )
                profit_dp = evaluate_partition(
                    model,
                    inputs.valuations,
                    inputs.costs,
                    dp.bundle(inputs, n_bundles),
                )
                assert profit_dp == pytest.approx(profit_exh, rel=1e-9), (
                    family,
                    trial,
                    n_bundles,
                )

    @pytest.mark.parametrize("family", ["ced", "logit"])
    def test_optimal_dominates_heuristics(self, family, rng):
        model = (
            CEDDemand(alpha=1.1)
            if family == "ced"
            else LogitDemand(alpha=1.1, s0=0.2)
        )
        demands = rng.lognormal(2.0, 1.5, 40)
        costs = rng.uniform(0.5, 10.0, 40)
        inputs = make_inputs(demands, costs, model=model)
        for n_bundles in (2, 4):
            profits = {}
            for strategy in paper_strategies():
                bundles = strategy.bundle(inputs, n_bundles)
                profits[strategy.name] = evaluate_partition(
                    model, inputs.valuations, inputs.costs, bundles
                )
            best_heuristic = max(
                v for k, v in profits.items() if k != "optimal"
            )
            assert profits["optimal"] >= best_heuristic - 1e-9

    def test_more_bundles_never_hurt_optimal(self, rng):
        inputs = make_inputs(
            rng.lognormal(2.0, 1.0, 20), rng.uniform(1.0, 9.0, 20)
        )
        strategy = OptimalBundling()
        profits = [
            evaluate_partition(
                inputs.model,
                inputs.valuations,
                inputs.costs,
                strategy.bundle(inputs, b),
            )
            for b in (1, 2, 3, 4, 5)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(profits, profits[1:]))

    def test_exhaustive_limit_validation(self):
        with pytest.raises(BundlingError):
            OptimalBundling(exhaustive_limit=-1)

    def test_two_cost_classes_need_only_two_bundles(self):
        # With exactly two distinct costs, the optimum at B=2 separates
        # them perfectly and B=3 adds nothing.
        demands = np.array([5.0, 7.0, 3.0, 8.0, 2.0, 6.0])
        costs = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
        inputs = make_inputs(demands, costs)
        strategy = OptimalBundling()
        two = evaluate_partition(
            inputs.model,
            inputs.valuations,
            inputs.costs,
            strategy.bundle(inputs, 2),
        )
        three = evaluate_partition(
            inputs.model,
            inputs.valuations,
            inputs.costs,
            strategy.bundle(inputs, 3),
        )
        assert three == pytest.approx(two)
        bundles = strategy.bundle(inputs, 2)
        for members in bundles:
            assert len(set(costs[members])) == 1


class TestClassAwareBundling:
    def test_never_mixes_classes(self, rng):
        n = 12
        demands = rng.lognormal(1.0, 1.0, n)
        costs = np.where(np.arange(n) < 6, 1.0, 2.0)
        classes = tuple("on" if i < 6 else "off" for i in range(n))
        inputs = make_inputs(demands, costs, classes=classes)
        strategy = ClassAwareBundling(ProfitWeightedBundling())
        for n_bundles in (2, 3, 5):
            bundles = strategy.bundle(inputs, n_bundles)
            for members in bundles:
                labels = {classes[int(i)] for i in members}
                assert len(labels) == 1

    def test_falls_back_without_classes(self):
        inputs = make_inputs([3.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        inner = ProfitWeightedBundling()
        aware = ClassAwareBundling(inner)
        assert as_sets(aware.bundle(inputs, 2)) == as_sets(
            inner.bundle(inputs, 2)
        )

    def test_falls_back_when_fewer_bundles_than_classes(self):
        classes = ("a", "b", "c")
        inputs = make_inputs([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], classes=classes)
        bundles = ClassAwareBundling(ProfitWeightedBundling()).bundle(inputs, 2)
        # Constraint unsatisfiable: plain strategy output (may mix).
        assert sorted(i for b in bundles for i in b) == [0, 1, 2]

    def test_every_class_gets_a_bundle(self):
        classes = ("a", "a", "b", "b", "c", "c")
        inputs = make_inputs(
            [10.0, 9.0, 1.0, 1.0, 1.0, 1.0],
            [1.0, 1.0, 2.0, 2.0, 3.0, 3.0],
            classes=classes,
        )
        bundles = ClassAwareBundling(ProfitWeightedBundling()).bundle(inputs, 3)
        covered = {classes[int(i)] for b in bundles for i in [b[0]]}
        assert covered == {"a", "b", "c"}

    def test_name_mentions_inner(self):
        aware = ClassAwareBundling(CostWeightedBundling())
        assert "cost-weighted" in aware.name
