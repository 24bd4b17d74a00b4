"""stream_v5: binary NetFlow v5 through the streaming repricer.

Chosen because it is the online form of the paper's pipeline: v5
packets, encoded during set-up in export order, are decoded by
``V5PacketSource`` and windowed by ``StreamingPipeline``; a
``DemandShift`` lands mid-trace so drift-gated re-tiers fire, and every
accepted design is published into a ``serve.SnapshotRegistry``.  It
exercises the netflow codec, stream windowing and repricing, and the
serve write path (snapshot build and swap); core work per window stays
small (a few hundred destinations).
"""

from __future__ import annotations

import time

from common import median

EXPORT_INTERVAL_MS = 30_000


def params(tiny: bool) -> dict:
    # 1-in-1000 sampling keeps 30 s export counters far inside v5's
    # 32-bit fields even for the shifted flows.  3-minute windows keep
    # stationary drift below the 0.1 gate; the shift moves it well past.
    return {
        "dataset": "eu_isp",
        "captures": 1 if tiny else 2,
        "n_flows": 100,
        "duration_s": 5400.0,
        "sampling_interval": 1000,
        "window_ms": 180_000,
        "export_interval_ms": EXPORT_INTERVAL_MS,
        "shift": {"at": "mid-trace", "flows": "nearer half by distance", "factor": 10.0},
        "demand": "ced(alpha=1.1)",
        "cost": "linear(theta=0.2)",
    }


def nearer_half_surge(trace, at_ms: int, factor: float):
    """A ``DemandShift`` that multiplies the nearer half of the flows.

    ``DemandShift`` picks its flows by key order, and on some seeds those
    flows are too small to move the design at all.  Tiers bundle flows by
    distance (their cost), so moving demand toward the short-haul half
    shifts the profit-optimal tier boundaries on every seed: the stale
    tiers lose far more than the 0.1 capture the drift gate allows.
    """
    import dataclasses
    import math

    from repro.stream import DemandShift

    keys = {record.key for record in trace.records}
    ranked = tuple(
        sorted(
            keys,
            key=lambda k: (
                trace.distance_for(k), k.src_addr, k.dst_addr, k.src_port, k.dst_port, k.protocol
            ),
        )
    )

    @dataclasses.dataclass(frozen=True)
    class DistanceRankedShift(DemandShift):
        def selected_keys(self, keys) -> set:
            return set(ranked[: max(1, math.ceil(self.fraction * len(ranked)))])

    return DistanceRankedShift(at_ms=at_ms, factor=factor, fraction=0.5)


def encode_in_export_order(records, engines) -> "list[bytes]":
    """v5 packets in the order a set of routers would export them.

    Records are taken in arrival order and buffered per router; at every
    export tick (the active timeout) each router flushes its buffer as
    packets of up to 30 records with its own flow-sequence counter.  A
    tick never straddles a window boundary, so no record arrives late.
    """
    from repro.netflow.codec import MAX_RECORDS_PER_PACKET, encode_packet

    packets: "list[bytes]" = []
    buffers: "dict[str, list]" = {}
    sequence: "dict[str, int]" = {}

    def flush() -> None:
        for router in sorted(buffers):
            group = buffers[router]
            for at in range(0, len(group), MAX_RECORDS_PER_PACKET):
                chunk = group[at : at + MAX_RECORDS_PER_PACKET]
                packets.append(
                    encode_packet(chunk, engines, flow_sequence=sequence.get(router, 0))
                )
                sequence[router] = sequence.get(router, 0) + len(chunk)
        buffers.clear()

    tick = None
    for record in records:
        this_tick = record.last_ms // EXPORT_INTERVAL_MS
        if this_tick != tick:
            flush()
            tick = this_tick
        buffers.setdefault(record.router, []).append(record)
    flush()
    return packets


class Capture:
    """One exporter capture: a trace, its v5 packets, and a replay digest."""

    def __init__(self, p: dict, seed: int) -> None:
        from repro.netflow.codec import EngineMap
        from repro.stream import TraceReplaySource
        from repro.synth.trace import generate_network_trace

        self.trace = generate_network_trace(
            p["dataset"],
            n_flows=p["n_flows"],
            seed=seed,
            duration_seconds=p["duration_s"],
            sampling_interval=p["sampling_interval"],
        )
        self.shift_at_ms = int(p["duration_s"] * 500)
        replay = TraceReplaySource(
            self.trace,
            export_interval_ms=EXPORT_INTERVAL_MS,
            shift=nearer_half_surge(self.trace, self.shift_at_ms, p["shift"]["factor"]),
        )
        records = replay.records()
        self.engines = EngineMap(sorted({r.router for r in records}))
        self.packets = encode_in_export_order(records, self.engines)
        # Only a digest of the replay outlives set-up, so the measured
        # passes' garbage collections do not walk benchmark-only objects.
        self.replay_digest = record_digest(records)
        self.last = None


class State:
    def __init__(self, p: dict, seed: int) -> None:
        from repro.core.ced import CEDDemand
        from repro.core.cost import LinearDistanceCost

        self.params = p
        # Several captures per run, so one trace's quirks (how many
        # records a window holds) weigh less in the run's figures.
        self.captures = [
            Capture(p, seed * p["captures"] + k) for k in range(p["captures"])
        ]
        self.demand = CEDDemand(1.1)
        self.cost = LinearDistanceCost(0.2)

    def close(self) -> None:
        pass


def record_digest(records) -> tuple:
    """(count, total octets, sha256 of the sorted record fields)."""
    import hashlib

    rows = sorted(
        (
            r.key.src_addr, r.key.dst_addr, r.key.src_port, r.key.dst_port,
            r.key.protocol, r.router, r.first_ms, r.last_ms, r.octets, r.packets,
        )
        for r in records
    )
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    return len(rows), sum(r.octets for r in records), digest


def setup(p: dict, seed: int, guard, traced: bool) -> State:
    return State(p, seed)


class _Clock:
    """Source wrapper: remembers when the newest record was yielded and,
    when traced, times the decode work done inside ``next()``."""

    def __init__(self, source, tracer) -> None:
        self.source = source
        self.tracer = tracer
        self.last_yield = 0.0

    def __iter__(self):
        it = iter(self.source)
        clock = time.perf_counter
        decode = self.tracer.leaf("netflow.decode") if self.tracer.enabled else None
        while True:
            if decode is not None:
                start = clock()
                record = next(it, None)
                decode.seconds += clock() - start
                decode.calls += 1
            else:
                record = next(it, None)
            if record is None:
                return
            self.last_yield = clock()
            yield record


def _one_pass(state: State, capture: Capture, tracer) -> dict:
    from repro.obs import METRICS
    from repro.serve import SnapshotRegistry
    from repro.stream import StreamConfig, StreamingPipeline, V5PacketSource

    from common import metrics_delta

    registry = SnapshotRegistry()
    v5 = V5PacketSource(capture.packets, capture.engines)
    source = _Clock(v5, tracer)
    pipeline = StreamingPipeline(
        source,
        distance_fn=capture.trace.distance_for,
        demand_model=state.demand,
        cost_model=state.cost,
        config=StreamConfig(window_ms=state.params["window_ms"], blended_rate=20.0),
    )
    publish = registry.subscriber(pipeline.config_digest)

    def on_design_published(publication) -> None:
        with tracer.span("serve.publish_snapshot", aggregate=True):
            publish(publication)

    pipeline.repricer.on_design_published = on_design_published
    lags: "list[float]" = []
    #: When each window's result was ready: the replay's wall splits at
    #: these marks into one segment per window.
    marks: "list[float]" = []
    repricer = pipeline.repricer

    def lagged(method, span):
        def call(*args, **kwargs):
            with tracer.span(span, aggregate=True):
                result = method(*args, **kwargs)
            now = time.perf_counter()
            lags.append((now - source.last_yield) * 1000.0)
            marks.append(now)
            return result

        return call

    repricer.price_window = lagged(repricer.price_window, "stream.price_window")
    repricer.empty_window = lagged(repricer.empty_window, "stream.empty_window")
    before = METRICS.snapshot()
    start = time.perf_counter()
    with tracer.span("stream.run") as run_span:
        tracer.wrap(pipeline.windower, "ingest", "stream.ingest")
        report = pipeline.run()
    end = time.perf_counter()
    bounds = [start, *marks, end]
    stages = metrics_delta(before, METRICS.snapshot())["stages"]
    if tracer.enabled:
        price_span = next(
            i for i, s in enumerate(tracer.spans)
            if s.name == "stream.price_window" and s.parent == run_span
        )
        windows, priced = len(report.results), report.windows_priced
        tracer.add("stream.aggregate", stages.get("stream.aggregate", 0.0), windows, run_span)
        tracer.add("core.calibrate", stages.get("stream.calibrate", 0.0), priced, price_span)
        tracer.add("core.rebundle", stages.get("stream.rebundle", 0.0), priced, price_span)
    return {
        "wall": end - start,
        "segments": [b - a for a, b in zip(bounds, bounds[1:])],
        "report": report,
        "lags": lags,
        "registry": registry,
        "packets": v5.packets_decoded,
        "stages": stages,
    }


def measure(state: State, seconds: float, tracer) -> dict:
    from common import quantile, tail

    n_captures = len(state.captures)
    walls: "list[list[float]]" = [[] for _ in range(n_captures)]
    # lags[k][i] and segments[k][i]: window i of capture k, one value per
    # replay.  A replay feeds identical packets, so its windows line up
    # one to one.
    lags: "list[list[list[float]]]" = [[] for _ in range(n_captures)]
    segments: "list[list[list[float]]]" = [[] for _ in range(n_captures)]
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < n_captures or time.perf_counter() < deadline:
        k = len(passes) % n_captures
        capture = state.captures[k]
        before = len(tracer.spans)
        with tracer.span("bench.pass"):
            out = _one_pass(state, capture, tracer)
        report = out["report"]
        walls[k].append(out["wall"])
        if not lags[k]:
            lags[k] = [[] for _ in out["lags"]]
            segments[k] = [[] for _ in out["segments"]]
        for window, lag in zip(lags[k], out["lags"]):
            window.append(lag)
        for segment, seconds in zip(segments[k], out["segments"]):
            segment.append(seconds)
        layers = {
            "netflow.packets": out["packets"],
            "netflow.records": report.records_consumed,
            "stream.aggregate_s": out["stages"].get("stream.aggregate", 0.0),
            "stream.windows_priced": report.windows_priced,
            "stream.retier_events": report.retier_events,
            "stream.late_dropped": report.late_dropped,
            "stream.queue_dropped": report.queue_dropped,
            "serve.swaps": out["registry"].swaps,
        }
        if tracer.enabled:
            spans = tracer.spans[before:]
            total = lambda name: sum(s.seconds for s in spans if s.name == name)  # noqa: E731
            layers.update(
                {
                    "netflow.decode_s": total("netflow.decode"),
                    "stream.ingest_s": total("stream.ingest"),
                    "stream.price_window_s": total("stream.price_window"),
                    "serve.snapshot_build_s": total("serve.publish_snapshot"),
                }
            )
        passes.append(layers)
        capture.last = out
    # Every capture is replayed several times and each of its windows is
    # timed by its fastest replay: the host's slow spells only ever add
    # time, and a window's work is the same in every replay.  Throughput
    # is records per replay of every capture, each replay's wall being
    # the sum of its windows' segments.
    cycle_s = sum(min(segment) for capture in segments for segment in capture)
    cycle_records = sum(c.last["report"].records_consumed for c in state.captures)
    best_lags = [min(window) for capture in lags for window in capture]
    tail_pct, tail_ms = tail(best_lags)
    return {
        "work_per_s": cycle_records / cycle_s,
        "latency_ms": quantile(best_lags, 0.5),
        "latency_tail_ms": tail_ms,
        "attempted": sum(p["netflow.records"] for p in passes),
        "failed": sum(p["stream.late_dropped"] + p["stream.queue_dropped"] for p in passes),
        "primary_s": cycle_s,
        "layers": {k: median(p[k] for p in passes) for k in passes[0]},
        "samples": {
            "passes": len(passes),
            "windows": len(best_lags),
            "replays_per_capture": [len(w) for w in walls],
            "tail_pct": tail_pct,
            "pass_walls_s": walls,
            "fastest_replays_s": sum(min(w) for w in walls),
        },
    }


def check(state: State) -> dict:
    """Every capture's last measured pass (a capture never run fails)."""
    from repro.stream import V5PacketSource

    checks = {
        "stream_v5.decoded_equals_replay": True,
        "stream_v5.retier_after_shift": True,
        "stream_v5.zero_late_drops": True,
        "stream_v5.every_retier_published": True,
    }
    for capture in state.captures:
        out = capture.last
        if out is None:
            return {name: False for name in checks}
        report = out["report"]
        decoded = list(V5PacketSource(capture.packets, capture.engines))
        shifted = [
            r for r in report.results if r.retier and r.start_ms >= capture.shift_at_ms
        ]
        results = {
            "stream_v5.decoded_equals_replay": record_digest(decoded) == capture.replay_digest
            and report.records_consumed == len(decoded),
            "stream_v5.retier_after_shift": bool(shifted),
            "stream_v5.zero_late_drops": report.late_dropped == 0,
            "stream_v5.every_retier_published": out["registry"].swaps == report.retier_events,
        }
        checks = {name: checks[name] and ok for name, ok in results.items()}
    return checks
