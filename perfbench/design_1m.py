"""design_1m: one batch columnar tier design at 10^6 flows.

Chosen because it is the paper's product at scale: generate a columnar
flow table, calibrate a market on it, and design prices with all four
mechanisms.  It exercises the big vectorized kernels (the
``token_bucket_partition`` argsorts among them) and bypasses netflow,
stream, serve, fleet and the executor.
"""

from __future__ import annotations

import time

import numpy as np

from common import median, peak_rss_mb

MECHANISMS = (
    ("posted-tiers", "mechanisms.posted"),
    ("spot-auction", "mechanisms.spot"),
    ("hybrid", "mechanisms.hybrid"),
    ("paid-peering", "mechanisms.peering"),
)
N_TIERS = 3
#: Peak memory is read after this many passes.  Each 10^6-flow table
#: generation leaves about 23 MB resident behind (see README, known
#: defects), so a later reading would grow with however many passes the
#: host's speed let a run fit.
RSS_PASSES = 3


def params(tiny: bool) -> dict:
    return {
        "dataset": "eu_isp",
        "n_flows": 20_000 if tiny else 1_000_000,
        "demand": "ced(alpha=1.1)",
        "cost": "linear(theta=0.2)",
        "blended_rate": 20.0,
        "n_tiers": N_TIERS,
        "mechanisms": [name for name, _ in MECHANISMS],
    }


class State:
    def __init__(self, p: dict, seed: int) -> None:
        from repro.core.ced import CEDDemand
        from repro.core.cost import LinearDistanceCost
        from repro.mechanisms import mechanism_by_name
        from repro.runtime import cache

        # Every pass must generate its table for real, not hit the
        # in-memory dataset cache.
        cache.configure(enabled=False)
        self.params = p
        self.seed = seed
        self.demand = CEDDemand(1.1)
        self.cost = LinearDistanceCost(0.2)
        self.mechanisms = [
            (mechanism_by_name(name, n_tiers=N_TIERS), span)
            for name, span in MECHANISMS
        ]
        self.last = None

    def close(self) -> None:
        pass


def setup(p: dict, seed: int, guard, traced: bool) -> State:
    from common import NullTracer

    state = State(p, seed)
    # Warm every code path on a 10 % table, so the first measured pass
    # pays no lazy imports or first-call costs.
    warm = State(dict(p, n_flows=max(1_000, p["n_flows"] // 10)), seed)
    _one_pass(warm, seed, NullTracer())
    return state


def _one_pass(state: State, seed: int, tracer) -> tuple:
    from repro.core.market import Market
    from repro.synth import generate_flow_table

    p = state.params
    with tracer.span("synth.generate_flow_table"):
        flows = generate_flow_table(p["dataset"], size=p["n_flows"], seed=seed)
    with tracer.span("core.calibrate"):
        market = Market(flows, state.demand, state.cost, p["blended_rate"])
    designs = {}
    for mechanism, span in state.mechanisms:
        with tracer.span(span):
            designs[mechanism.name] = mechanism.design_on(market)
    return market, designs


def measure(state: State, seconds: float, tracer) -> dict:
    walls = []
    per_pass_layers = []
    rss_mb = None
    deadline = time.perf_counter() + seconds
    n = 0
    while not walls or time.perf_counter() < deadline:
        # Each pass designs a fresh table: the seed advances per pass, so
        # no pass reuses another's inputs.
        seed = state.seed * 1000 + n
        # Free the previous pass first, so peak memory is one pass's.
        state.last = None
        before = len(tracer.spans)
        start = time.perf_counter()
        with tracer.span("bench.pass"):
            state.last = (seed, *_one_pass(state, seed, tracer))
        walls.append(time.perf_counter() - start)
        if tracer.enabled:
            spans = tracer.spans[before:]
            layers = {s.name: s.seconds for s in spans}
            per_pass_layers.append(
                {
                    "synth.generate_s": layers["synth.generate_flow_table"],
                    "core.calibrate_s": layers["core.calibrate"],
                    "mechanisms.posted_s": layers["mechanisms.posted"],
                    "mechanisms.spot_s": layers["mechanisms.spot"],
                    "mechanisms.hybrid_s": layers["mechanisms.hybrid"],
                    "mechanisms.peering_s": layers["mechanisms.peering"],
                }
            )
        n += 1
        if n == RSS_PASSES:
            rss_mb = peak_rss_mb()
    flows = state.params["n_flows"]
    layers = {}
    if per_pass_layers:
        layers = {k: median(d[k] for d in per_pass_layers) for k in per_pass_layers[0]}
    # A pass is timed by its fastest run: the host's slow spells only
    # ever add time, and every pass does the same work on a fresh table.
    best = min(walls)
    return {
        "work_per_s": flows / best,
        "latency_ms": best * 1000.0,
        "latency_tail_ms": max(walls) * 1000.0,
        "attempted": n * len(MECHANISMS),
        "failed": 0,
        "primary_s": best,
        "layers": layers,
        "peak_rss_mb": rss_mb,
        "samples": {"passes": n, "pass_walls_s": walls},
    }


def check(state: State) -> dict:
    """Correctness of the last measured pass."""
    from repro.core.bundling import ProfitWeightedBundling

    _, market, designs = state.last
    posted = designs["posted-tiers"]
    outcome = market.tiered_outcome(ProfitWeightedBundling(), N_TIERS)
    identical = (
        np.array_equal(posted.prices, outcome.prices)
        and posted.profit == outcome.profit
        and posted.profit_capture == outcome.profit_capture
        and [(t.price, t.n_flows) for t in posted.tiers]
        == [(t.price, t.n_flows) for t in outcome.tiers]
    )
    capture_bounded = all(
        designs[name].profit_capture <= 1.0 + 1e-9
        for name in ("posted-tiers", "spot-auction")
    )
    # Cost floor: no posted tier is priced below the unit cost of the
    # cheapest-to-serve flow it contains, and every tier's price covers
    # its mean unit cost.
    floor_ok = True
    for tier_price in np.unique(posted.prices):
        members = posted.prices == tier_price
        costs = market.costs[members]
        if tier_price < costs.min() or tier_price < costs.mean():
            floor_ok = False
    partition_ok = all(
        sum(t.n_flows for t in d.tiers) == market.n_flows
        for d in designs.values()
    )
    return {
        "design_1m.posted_equals_tiered_outcome": bool(identical),
        "design_1m.capture_at_most_1": bool(capture_bounded),
        "design_1m.prices_above_cost_floor": bool(floor_ok),
        "design_1m.partitions_cover_all_flows": bool(partition_ok),
    }
