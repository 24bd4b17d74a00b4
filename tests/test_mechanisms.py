"""Tests for the pluggable pricing-mechanism layer.

The load-bearing guarantees:

* **Byte-identity** — the default posted-tiers mechanism reproduces the
  legacy bundling path exactly: same designs, captures, snapshot
  digests, and spec cache keys, for all six paper strategies.
* **Auction invariants** — the spot clearing price is strictly
  decreasing in supply, inverts exactly, and by Jensen's inequality spot
  revenue never exceeds the per-flow posted optimum.
* **Hybrid semantics** — posted book + spot lots partition the flows;
  the repricer's drift gate governs only the posted component while the
  spot side re-clears (and republishes) every priced window.
"""

import types

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import MECHANISMS, MechanismConfig
from repro.core.bundling import paper_strategies
from repro.core.ced import CEDDemand
from repro.core.cost import LinearDistanceCost
from repro.core.logit import LogitDemand
from repro.core.market import Market
from repro.errors import ConfigurationError, MechanismError
from repro.mechanisms import (
    ASSIGN_PEERED,
    ASSIGN_POSTED,
    ASSIGN_SPOT,
    DEFAULT_MECHANISM,
    MECHANISM_NAMES,
    Hybrid,
    PaidPeering,
    PostedTiers,
    SpotAuction,
    cleared_supply,
    clearing_price,
    mechanism_by_name,
    tag_config_digest,
)
from repro.runtime.spec import ExperimentSpec
from repro.stream import (
    STATUS_PRICED,
    StreamConfig,
    StreamingPipeline,
    TraceReplaySource,
)
from repro.synth.datasets import load_dataset
from repro.synth.trace import generate_network_trace
from tests.oracles import hybrid_spot_flows_reference

P0 = 20.0


@pytest.fixture(scope="module")
def flows():
    return load_dataset("eu_isp", n_flows=120, seed=7)


@pytest.fixture(scope="module")
def market(flows):
    return Market(flows, CEDDemand(alpha=1.1), LinearDistanceCost(theta=0.2), P0)


@pytest.fixture(scope="module")
def elastic_market(flows):
    return Market(flows, CEDDemand(alpha=3.0), LinearDistanceCost(theta=0.2), P0)


class TestRegistry:
    def test_names_in_sync_with_config(self):
        # repro.config carries a literal copy (to avoid importing this
        # package from the config layer); they must never diverge.
        assert tuple(MECHANISMS) == tuple(MECHANISM_NAMES)

    def test_by_name_builds_each(self):
        for name in MECHANISM_NAMES:
            assert mechanism_by_name(name).name == name

    def test_unknown_name_raises(self):
        with pytest.raises(MechanismError, match="unknown mechanism"):
            mechanism_by_name("dutch-auction")

    def test_digest_tagging(self):
        assert tag_config_digest("abc123", DEFAULT_MECHANISM) == "abc123"
        assert (
            tag_config_digest("abc123", "spot-auction")
            == "abc123|mechanism=spot-auction"
        )


class TestPostedTiersByteIdentity:
    @pytest.mark.parametrize(
        "strategy", paper_strategies(), ids=lambda s: s.name
    )
    def test_matches_legacy_path_exactly(self, market, strategy):
        outcome = market.tiered_outcome(strategy, 3)
        design = PostedTiers(strategy=strategy, n_tiers=3).design_on(market)
        assert design.profit == outcome.profit
        assert design.profit_capture == outcome.profit_capture
        assert design.consumer_surplus == outcome.consumer_surplus
        assert [t.price for t in design.tiers] == [
            t.price for t in outcome.tiers
        ]
        assert [t.n_flows for t in design.tiers] == [
            t.n_flows for t in outcome.tiers
        ]
        assert [t.demand_mbps for t in design.tiers] == [
            t.demand_mbps for t in outcome.tiers
        ]

    def test_capture_protocol_entry_point(self, flows, market):
        capture = PostedTiers(n_tiers=3).capture(
            flows, CEDDemand(alpha=1.1), LinearDistanceCost(theta=0.2), P0
        )
        assert capture == market.tiered_outcome(
            PostedTiers().strategy, 3
        ).profit_capture

    def test_all_tiers_posted_none_spot(self, market):
        design = PostedTiers(n_tiers=3).design_on(market)
        assert design.posted_tiers == design.n_tiers
        assert design.spot_tiers == 0
        assert design.assignment is None

    def test_spec_cache_key_unchanged_for_default(self):
        spec = ExperimentSpec(dataset="eu_isp", n_flows=32, seed=1)
        assert spec.mechanism == DEFAULT_MECHANISM
        assert "mechanism" not in spec.key()
        tagged = ExperimentSpec(
            dataset="eu_isp", n_flows=32, seed=1, mechanism="spot-auction"
        )
        assert tagged.key()["mechanism"] == "spot-auction"
        assert tagged.digest() != spec.digest()

    def test_snapshot_digest_unchanged_for_default(self, flows):
        # Snapshots need destination addresses, which the synthetic
        # counterfactual datasets omit — rebuild the columns with them.
        from repro.core.flow import FlowTable

        addressed = FlowTable(
            flows.demands,
            flows.distances,
            dsts=[f"10.0.{i // 256}.{i % 256}" for i in range(len(flows))],
        )
        market = Market(
            addressed, CEDDemand(alpha=1.1), LinearDistanceCost(theta=0.2), P0
        )
        posted = PostedTiers(n_tiers=3).design_on(market)
        snapshot = PostedTiers().snapshot(
            posted, version=1, config_digest="deadbeef"
        )
        assert snapshot.config_digest == "deadbeef"
        spot_snapshot = SpotAuction(windows=4).snapshot(
            SpotAuction(windows=4).design_on(market),
            version=1,
            config_digest="deadbeef",
        )
        assert spot_snapshot.config_digest == "deadbeef|mechanism=spot-auction"


class TestSpotAuction:
    def test_clearing_price_monotone_in_supply(self, elastic_market):
        v = elastic_market.valuations
        supplies = np.linspace(10.0, 1000.0, 8)
        prices = [clearing_price(v, s, 3.0) for s in supplies]
        assert all(a > b for a, b in zip(prices, prices[1:]))

    def test_clearing_price_inverts_exactly(self, elastic_market):
        v = elastic_market.valuations
        for supply in (25.0, 400.0, 9000.0):
            p = clearing_price(v, supply, 2.0)
            assert cleared_supply(v, p, 2.0) == pytest.approx(
                supply, rel=1e-9
            )

    def test_clearing_price_validation(self):
        with pytest.raises(MechanismError):
            clearing_price([], 10.0, 2.0)
        with pytest.raises(MechanismError):
            clearing_price([1.0, -2.0], 10.0, 2.0)
        with pytest.raises(MechanismError):
            clearing_price([1.0], 0.0, 2.0)
        with pytest.raises(MechanismError):
            clearing_price([1.0], 10.0, 1.0)
        with pytest.raises(MechanismError):
            cleared_supply([1.0], 0.0, 2.0)

    def test_revenue_never_exceeds_per_flow_optimum(self, flows):
        # Jensen: p^(1-alpha) is convex for alpha > 1, so any uniform
        # price on a lot earns at most the sum of per-flow optima —
        # spot profit <= max_profit, under inelastic AND elastic demand.
        for alpha in (1.1, 3.0):
            m = Market(
                flows, CEDDemand(alpha=alpha), LinearDistanceCost(theta=0.2), P0
            )
            for windows in (1, 6, 24, 120):
                design = SpotAuction(windows=windows).design_on(m)
                assert design.profit <= m.max_profit() + 1e-9
                assert design.profit_capture <= 1.0 + 1e-12

    def test_more_windows_never_hurt(self, elastic_market):
        profits = [
            SpotAuction(windows=w).design_on(elastic_market).profit
            for w in (1, 3, 12, 60)
        ]
        assert all(a <= b + 1e-9 for a, b in zip(profits, profits[1:]))

    def test_spot_beats_posted_on_elastic_family(self, elastic_market):
        spot = SpotAuction(windows=24).design_on(elastic_market)
        posted = PostedTiers(n_tiers=3).design_on(elastic_market)
        assert spot.profit_capture >= posted.profit_capture

    def test_every_flow_assigned_spot(self, market):
        design = SpotAuction(windows=8).design_on(market)
        assert design.posted_tiers == 0
        assert design.spot_tiers == design.n_tiers == 8
        assert np.all(design.assignment == ASSIGN_SPOT)

    def test_lots_partition_cost_ordered(self, market):
        lots = SpotAuction(windows=5).lots(market.costs)
        merged = np.concatenate(lots)
        assert sorted(merged.tolist()) == list(range(market.n_flows))
        boundaries = [market.costs[lot].max() for lot in lots[:-1]]
        nexts = [market.costs[lot].min() for lot in lots[1:]]
        assert all(b <= n + 1e-12 for b, n in zip(boundaries, nexts))


class TestPaidPeering:
    def test_two_posted_tiers(self, market):
        design = PaidPeering().design_on(market)
        assert design.n_tiers == 2
        assert design.posted_tiers == 2
        peered = design.assignment == ASSIGN_PEERED
        assert 0 < int(peered.sum()) < market.n_flows
        assert np.all(design.assignment[~peered] == ASSIGN_POSTED)

    def test_rate_between_floor_and_cap(self, market):
        terms = PaidPeering().negotiate(market)
        assert terms.n_peered + terms.n_transit == market.n_flows
        if terms.cap > terms.floor:
            assert terms.floor <= terms.rate <= terms.cap
        else:
            assert terms.rate == terms.floor

    def test_bargaining_weight_moves_rate(self, market):
        low = PaidPeering(bargaining=0.0).negotiate(market)
        high = PaidPeering(bargaining=1.0).negotiate(market)
        assert low.rate <= high.rate
        assert low.rate == low.floor
        if high.cap > high.floor:
            assert high.rate == pytest.approx(high.cap)

    def test_degenerate_split_raises(self, market):
        # A sub-mile exchange catchment leaves no eligible flows.
        with pytest.raises(MechanismError, match="degenerates"):
            PaidPeering(exchange_radius_miles=1e-6).negotiate(market)

    def test_validation(self):
        with pytest.raises(MechanismError):
            PaidPeering(exchange_radius_miles=-1.0)
        with pytest.raises(MechanismError):
            PaidPeering(bargaining=1.5)
        with pytest.raises(MechanismError):
            PaidPeering(direct_cost_factor=0.0)


class TestHybrid:
    def test_posted_and_spot_partition(self, market):
        design = Hybrid(n_tiers=3, spot_windows=6).design_on(market)
        assert design.posted_tiers == 3
        assert design.spot_tiers == 6
        n_spot = int(np.sum(design.assignment == ASSIGN_SPOT))
        assert n_spot == round(0.5 * market.n_flows)
        assert int(np.sum(design.assignment == ASSIGN_POSTED)) == (
            market.n_flows - n_spot
        )

    def test_split_extremes(self, market):
        pure_posted = Hybrid(elasticity_split=0.0, n_tiers=3).design_on(market)
        assert pure_posted.spot_tiers == 0
        assert np.all(pure_posted.assignment == ASSIGN_POSTED)
        pure_spot = Hybrid(elasticity_split=1.0, spot_windows=4).design_on(
            market
        )
        assert pure_spot.posted_tiers == 0
        assert np.all(pure_spot.assignment == ASSIGN_SPOT)

    def test_spot_side_takes_most_elastic_flows(self, market):
        hybrid = Hybrid(elasticity_split=0.25)
        spot_idx = hybrid.spot_flows(market)
        ratio = market.costs / market.valuations
        assert spot_idx.size == round(0.25 * market.n_flows)
        assert ratio[spot_idx].min() >= np.partition(
            ratio, market.n_flows - spot_idx.size - 1
        )[market.n_flows - spot_idx.size - 1] - 1e-12

    @given(
        st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0]), min_size=2, max_size=200),
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    )
    def test_spot_flows_match_the_stable_sort_on_ties(self, costs, split):
        costs = np.asarray(costs)
        valuations = np.ones_like(costs)
        stub = types.SimpleNamespace(
            n_flows=costs.size, costs=costs, valuations=valuations
        )
        got = Hybrid(elasticity_split=split).spot_flows(stub)
        n_spot = min(max(int(round(split * costs.size)), 1), costs.size - 1)
        want = hybrid_spot_flows_reference(costs / valuations, n_spot)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_validation(self):
        with pytest.raises(MechanismError):
            Hybrid(n_tiers=0)
        with pytest.raises(MechanismError):
            Hybrid(spot_windows=0)
        with pytest.raises(MechanismError):
            Hybrid(elasticity_split=-0.1)


class TestScoringAgainstWelfare:
    def test_design_scores_are_consistent(self, market):
        for name in MECHANISM_NAMES:
            design = mechanism_by_name(name, spot_windows=6).design_on(market)
            assert design.welfare == pytest.approx(
                design.profit + design.consumer_surplus
            )
            assert design.n_tiers == len(design.tier_prices)
            assert design.tier_prices == tuple(sorted(design.tier_prices))
            # Synthetic datasets carry no destination addresses, so the
            # design scores but cannot be published.
            assert design.tier_design is None
            with pytest.raises(MechanismError, match="destination"):
                mechanism_by_name(name).snapshot(
                    design, version=1, config_digest="d"
                )


class TestMechanismConfig:
    def test_defaults(self):
        cfg = MechanismConfig.resolve()
        assert cfg.mechanism == DEFAULT_MECHANISM
        assert cfg.is_default
        assert cfg.spot_windows == 24

    def test_env_and_explicit_precedence(self, monkeypatch):
        monkeypatch.setenv("REPRO_MECHANISM", "spot-auction")
        monkeypatch.setenv("REPRO_MECHANISM_SPOT_WINDOWS", "12")
        cfg = MechanismConfig.resolve()
        assert cfg.mechanism == "spot-auction"
        assert cfg.spot_windows == 12
        assert not cfg.is_default
        explicit = MechanismConfig.resolve(mechanism="hybrid")
        assert explicit.mechanism == "hybrid"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MechanismConfig(mechanism="sealed-bid")
        with pytest.raises(ConfigurationError):
            MechanismConfig(spot_windows=0)
        with pytest.raises(ConfigurationError):
            MechanismConfig(elasticity_split=2.0)
        with pytest.raises(ConfigurationError):
            MechanismConfig(bargaining=-0.5)
        with pytest.raises(ConfigurationError):
            MechanismConfig(exchange_radius_miles=0.0)

    def test_build_constructs_selected_mechanism(self):
        cfg = MechanismConfig(
            mechanism="hybrid", spot_windows=6, elasticity_split=0.3
        )
        mech = cfg.build(n_tiers=4)
        assert isinstance(mech, Hybrid)
        assert mech.spot_windows == 6
        assert mech.elasticity_split == 0.3
        assert mech.n_tiers == 4


def make_pipeline(trace, mechanism=None, **overrides):
    defaults = dict(window_ms=600_000, drift_threshold=0.1)
    defaults.update(overrides)
    return StreamingPipeline(
        TraceReplaySource(trace, export_interval_ms=60_000),
        distance_fn=trace.distance_for,
        demand_model=CEDDemand(alpha=1.1),
        cost_model=LinearDistanceCost(theta=0.2),
        config=StreamConfig(**defaults),
        mechanism=mechanism,
    )


class TestStreamingMechanisms:
    @pytest.fixture(scope="class")
    def trace(self):
        return generate_network_trace(
            "eu_isp", n_flows=40, seed=11, duration_seconds=1800.0
        )

    def test_default_pipeline_digest_untagged(self, trace):
        legacy = make_pipeline(trace)
        spot = make_pipeline(trace, mechanism=SpotAuction(windows=4))
        assert "|mechanism=" not in legacy.config_digest
        assert spot.config_digest == (
            legacy.config_digest + "|mechanism=spot-auction"
        )

    def test_reclearing_mechanism_publishes_every_priced_window(self, trace):
        published = []
        pipeline = make_pipeline(trace, mechanism=Hybrid(spot_windows=4))
        pipeline.repricer.on_design_published = published.append
        report = pipeline.run()
        priced = [r for r in report.results if r.status == STATUS_PRICED]
        assert priced
        # Spot re-clears → a publication for every priced window, while
        # the drift gate re-tiered only a subset of them.
        assert len(published) == len(priced)
        assert sum(1 for r in priced if r.retier) < len(priced)
        sequences = [pub.sequence for pub in published]
        assert sequences == sorted(sequences)

    def test_posted_mechanism_publishes_only_on_retier(self, trace):
        published = []
        pipeline = make_pipeline(
            trace, mechanism=PostedTiers(n_tiers=3)
        )
        pipeline.repricer.on_design_published = published.append
        report = pipeline.run()
        assert len(published) == report.retier_events

    def test_mechanism_stream_matches_legacy_design(self, trace):
        legacy = make_pipeline(trace).run()
        posted = make_pipeline(trace, mechanism=PostedTiers(n_tiers=3)).run()
        assert posted.design is not None
        assert posted.design.rates == legacy.design.rates
        assert (
            posted.design.tier_of_destination
            == legacy.design.tier_of_destination
        )

    def test_hybrid_reclear_pins_posted_book(self, trace):
        pipeline = make_pipeline(trace, mechanism=Hybrid(spot_windows=4))
        report = pipeline.run()
        final = report.design
        assert final is not None
        posted = pipeline.repricer._posted_tiers
        assert posted and posted > 0
        # Final design still carries the posted book up front plus spot
        # lots behind it.
        assert len(final.rates) - 1 >= posted
