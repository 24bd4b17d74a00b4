"""paper_sweep: cold, then warm, sweeps of paper-figure work units.

Chosen because it is how the paper's figures are made: small markets
(three networks, CED and logit demand), each scored by the optimal
dynamic program and the five heuristics at B = 1..6, fanned out by
``runtime.spec.run_specs`` on a 2-worker pool with a fresh on-disk
cache, then re-run warm.  It exercises runtime (specs, executor, cache
spill and read) and small-n DP and logit price solves; columnar scale
and serving stay idle.

The same sweep is repeated for the whole run and timed by its fastest
cold pass: a sweep is short (about half a second), and the host's slow
spells only ever add time to it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import time

from common import CACHE_DIR_PREFIX, median

NETWORKS = ("eu_isp", "cdn", "internet2")
FAMILIES = ("ced", "logit")
WORKERS = 2


def params(tiny: bool) -> dict:
    return {
        "networks": list(NETWORKS),
        "families": list(FAMILIES),
        "n_flows": 40 if tiny else 60,
        "bundle_counts": [1, 2, 3, 4, 5, 6],
        "executor": "pool",
        "workers": WORKERS,
    }


class State:
    def __init__(self, p: dict, seed: int, guard) -> None:
        from repro.core.bundling import paper_strategies
        from repro.runtime.spec import ExperimentSpec

        strategies = tuple(s.name for s in paper_strategies())
        self.params = dict(p, strategies=list(strategies))
        self.guard = guard
        cells = [(family, network) for family in FAMILIES for network in NETWORKS]
        # Every unit gets a dataset seed of its own: two workers writing
        # the same dataset entry race on its fixed ``.tmp`` name in
        # ``runtime.cache.CacheStore.put`` (a known defect, see
        # perfbench/README.md).
        self.specs = [
            ExperimentSpec(
                dataset=network,
                family=family,
                strategies=strategies,
                n_flows=p["n_flows"],
                seed=seed * 100 + k,
                bundle_counts=tuple(p["bundle_counts"]),
            )
            for k, (family, network) in enumerate(cells)
        ]
        self.last_pool = None

    def close(self) -> None:
        pass


def setup(p: dict, seed: int, guard, traced: bool) -> State:
    from repro.runtime import cache
    from repro.runtime.spec import evaluate_spec

    state = State(p, seed, guard)
    # Pay the one-time solver and dataset warm-up before any timer, so
    # forked workers inherit a warm interpreter: one unit per family, on
    # a dataset seed the sweep does not use.
    first = state.specs[0]
    cache.configure(enabled=False)
    for family in FAMILIES:
        evaluate_spec(dataclasses.replace(first, family=family, seed=first.seed + 99))
    cache.configure(enabled=True)
    return state


def _fresh_cache(state: State):
    """Point the cache (and pool workers, via the environment) at a new
    temporary directory."""
    from repro.runtime import cache

    directory = state.guard.mkdtemp(CACHE_DIR_PREFIX)
    os.environ["REPRO_CACHE_DIR"] = str(directory)
    cache.configure(enabled=True, directory=directory)
    return directory


def _drop_cache(directory) -> None:
    from repro.runtime import cache

    cache.configure(enabled=True, directory="")
    os.environ.pop("REPRO_CACHE_DIR", None)
    shutil.rmtree(directory, ignore_errors=True)


def _timed_submit(executor, clock: dict) -> None:
    """Record when the executor yields its first result."""
    original = executor.submit

    def submit(specs):
        for item in original(specs):
            clock.setdefault("first", time.perf_counter())
            yield item

    executor.submit = submit


def _stages(delta: dict) -> dict:
    stages = delta["stages"]
    return {
        "build_market": stages.get("build_market", 0.0),
        "counterfactuals": stages.get("counterfactuals", 0.0),
    }


def measure(state: State, seconds: float, tracer) -> dict:
    from repro.obs import METRICS
    from repro.runtime import cache
    from repro.runtime.executor import PoolExecutor
    from repro.runtime.spec import run_specs

    from common import metrics_delta

    walls = []
    passes = []
    deadline = time.perf_counter() + seconds
    n_specs = len(state.specs)
    while not walls or time.perf_counter() < deadline:
        directory = _fresh_cache(state)
        try:
            with tracer.span("bench.pass"):
                clock: dict = {}
                executor = PoolExecutor(jobs=WORKERS)
                _timed_submit(executor, clock)
                before = METRICS.snapshot()
                start = time.perf_counter()
                with tracer.span("runtime.run_specs") as cold_span:
                    cold = run_specs(state.specs, executor=executor)
                cold_wall = time.perf_counter() - start
                cold_delta = metrics_delta(before, METRICS.snapshot())
                stages = _stages(cold_delta)
                # Workers run in parallel: the wall share of their core
                # work is its summed seconds over the worker count.
                tracer.add(
                    "core.evaluate_specs",
                    (stages["build_market"] + stages["counterfactuals"]) / WORKERS,
                    n_specs,
                    cold_span,
                )
                # A fresh store reads the results back from disk.
                cache.configure(enabled=True, directory=directory)
                before = METRICS.snapshot()
                with tracer.span("runtime.run_specs_warm"):
                    warm = run_specs(state.specs, executor=PoolExecutor(jobs=WORKERS))
                warm_delta = metrics_delta(before, METRICS.snapshot())
        finally:
            _drop_cache(directory)
        walls.append(cold_wall)
        c, w = cold_delta["counters"], warm_delta["counters"]
        hits = w.get("cache_hits:result", 0)
        lookups = hits + w.get("cache_misses:result", 0)
        passes.append(
            {
                "core.markets_built": c.get("markets_built", 0),
                "core.build_market_s": stages["build_market"],
                "core.counterfactuals_s": stages["counterfactuals"],
                "runtime.first_result_s": clock["first"] - start,
                "runtime.specs_completed": len(cold),
                "runtime.cache_misses_result": c.get("cache_misses:result", 0),
                "runtime.cache_hit_ratio": hits / lookups if lookups else 0.0,
                "runtime.pool_efficiency": (
                    stages["build_market"] + stages["counterfactuals"]
                )
                / (WORKERS * cold_wall),
                "warm_markets_built": w.get("markets_built", 0),
            }
        )
        state.last_pool = (cold, warm)
    layers = {
        k: median(p[k] for p in passes)
        for k in passes[0]
        if k != "warm_markets_built"
    }
    state.warm_rebuilt = sum(p["warm_markets_built"] for p in passes)
    best = min(walls)
    return {
        "work_per_s": n_specs / best,
        "latency_ms": best * 1000.0,
        "latency_tail_ms": max(walls) * 1000.0,
        "attempted": n_specs * len(walls),
        "failed": 0,
        "primary_s": best,
        "layers": layers,
        "samples": {"passes": len(walls), "specs_per_pass": n_specs, "pass_walls_s": walls},
    }


def _floors(results: "list[dict]") -> bool:
    """The paper's headline (§4.2.2): 3-4 well-chosen tiers capture
    90-95 % of the maximum profit.  Checked on the sweep's mean over
    networks, demand families and dataset seeds of the optimal capture
    at four tiers, and per cell: optimal never loses capture as tiers
    are added and dominates every heuristic."""
    at4 = [r["capture"]["optimal"][3] for r in results]
    if sum(at4) / len(at4) < 0.90:
        return False
    for r in results:
        optimal = r["capture"]["optimal"]
        if any(b < a - 1e-9 for a, b in zip(optimal, optimal[1:])):
            return False
        for curve in r["capture"].values():
            if any(v > o + 1e-6 for v, o in zip(curve, optimal)):
                return False
    return True


def check(state: State) -> dict:
    from repro.runtime import cache
    from repro.runtime.spec import run_specs

    cache.configure(enabled=False)
    try:
        serial = run_specs(state.specs, executor="serial", use_cache=False)
    finally:
        cache.configure(enabled=True)
    cold, warm = state.last_pool
    encode = lambda results: json.dumps(results, sort_keys=True)  # noqa: E731
    return {
        "paper_sweep.pool_equals_serial_bytes": encode(cold) == encode(serial),
        "paper_sweep.warm_equals_cold_bytes": encode(warm) == encode(cold),
        "paper_sweep.warm_builds_no_markets": state.warm_rebuilt == 0,
        "paper_sweep.paper_capture_floors": _floors(serial),
    }
