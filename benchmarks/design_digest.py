"""Byte-level digest of generated flow tables and designed prices.

Prints one sha256 per configuration (dataset size x seed x CED alpha)
and a combined digest over all of them.  Each configuration hashes

* the generated flow table's columns (demands, distances, label codes);
* for each of the four mechanisms: per-flow prices, profit, capture,
  consumer surplus, tier summaries, per-flow assignment and the frozen
  tier rates;
* at small sizes, the three-tier outcome of all six paper strategies
  (the optimal DP is quadratic, so it runs only below 5,000 flows).

Two commits that print the same combined digest produce byte-identical
designs, so this is the check for refactors and optimisations that must
not change any number::

    PYTHONPATH=src python benchmarks/design_digest.py
    PYTHONPATH=src python benchmarks/design_digest.py --sizes 3000 --seeds 5
"""

from __future__ import annotations

import argparse
import hashlib

import numpy as np

from repro.core.bundling import paper_strategies
from repro.core.ced import CEDDemand
from repro.core.cost import LinearDistanceCost
from repro.core.market import Market
from repro.mechanisms import MECHANISM_NAMES, mechanism_by_name
from repro.runtime import cache
from repro.synth import generate_flow_table


def _feed_array(h, array) -> None:
    if array is None:
        h.update(b"none")
        return
    a = np.ascontiguousarray(array)
    h.update(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())


def _feed_tiers(h, tiers) -> None:
    for t in tiers:
        h.update(repr((t.price, t.n_flows, t.demand_mbps, t.mean_cost)).encode())


def config_digest(size: int, seed: int, alpha: float) -> str:
    h = hashlib.sha256()
    flows = generate_flow_table("eu_isp", size=size, seed=seed)
    for column in (
        flows.demands,
        flows.distances,
        flows.region_codes,
        flows.class_codes,
        flows.src_codes,
        flows.dst_codes,
    ):
        _feed_array(h, column)
    h.update(repr((flows.class_table, flows.src_table, flows.dst_table)).encode())
    market = Market(flows, CEDDemand(alpha), LinearDistanceCost(0.2), 20.0)
    for name in MECHANISM_NAMES:
        design = mechanism_by_name(name, n_tiers=3).design_on(market)
        h.update(name.encode())
        _feed_array(h, design.prices)
        h.update(
            repr(
                (
                    design.profit,
                    design.profit_capture,
                    design.consumer_surplus,
                    design.posted_tiers,
                )
            ).encode()
        )
        _feed_tiers(h, design.tiers)
        _feed_array(h, design.assignment)
        if design.tier_design is not None:
            h.update(repr(sorted(design.tier_design.rates.items())).encode())
    if size < 5000:
        for strategy in paper_strategies():
            outcome = market.tiered_outcome(strategy, 3)
            h.update(strategy.name.encode())
            for members in outcome.bundles:
                _feed_array(h, members)
            _feed_array(h, outcome.prices)
            h.update(repr((outcome.profit, outcome.profit_capture)).encode())
            _feed_tiers(h, outcome.tiers)
    return h.hexdigest()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[1_000_000, 3_000])
    parser.add_argument("--seeds", type=int, nargs="+", default=[5, 6])
    parser.add_argument("--alphas", type=float, nargs="+", default=[1.1, 3.0])
    args = parser.parse_args(argv)
    cache.configure(enabled=False)
    combined = hashlib.sha256()
    for size in args.sizes:
        for seed in args.seeds:
            for alpha in args.alphas:
                digest = config_digest(size, seed, alpha)
                combined.update(digest.encode())
                print(f"n={size} seed={seed} alpha={alpha}: {digest}", flush=True)
    print(f"combined: {combined.hexdigest()}")


if __name__ == "__main__":
    main()
