"""The quote_serve system under test: a 1-shard fleet behind a front door.

Run as a child process of the benchmark::

    python3 perfbench/sut.py     (with src/ on PYTHONPATH)

Control is one JSON object per line on stdin, answered one per line on
stdout.  The first line configures the child (seed, destination count,
tracing); the child replies ``{"port": ...}`` once the front door
listens.  Then:

* ``{"op": "publish"}`` cuts the fleet over to the other snapshot and
  replies with the new version and how long ``ShardFleet.publish`` took;
* ``{"op": "stats"}`` replies with fleet counters and shard-hop timing;
* ``{"op": "stop"}``, end of stdin (the parent's pipe closed) or SIGTERM
  stop the front door and the fleet, then the child exits.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import threading
import time


def _reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


class _HopTimer:
    """Times ``ShardFleet.quote_shard`` on the instance the front door
    calls (dispatch threads call it, hence the lock)."""

    def __init__(self, fleet) -> None:
        self.lock = threading.Lock()
        self.seconds = 0.0
        self.calls = 0
        self.requests = 0
        original = fleet.quote_shard

        def quote_shard(shard_id, requests, timeout_s=None):
            start = time.perf_counter()
            try:
                return original(shard_id, requests, timeout_s)
            finally:
                elapsed = time.perf_counter() - start
                with self.lock:
                    self.seconds += elapsed
                    self.calls += 1
                    self.requests += len(requests)

        fleet.quote_shard = quote_shard

    def read(self) -> dict:
        with self.lock:
            return {"seconds": self.seconds, "calls": self.calls, "requests": self.requests}


async def _serve(fleet, snapshots, traced: bool) -> None:
    from repro.fleet import FrontDoor
    from repro.obs import METRICS

    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    loop.add_signal_handler(signal.SIGINT, stop.set)
    hops = _HopTimer(fleet) if traced else None
    door = FrontDoor(fleet)
    await door.start()
    try:
        _reply({"port": door.port})
        lines: "asyncio.Queue[str]" = asyncio.Queue()

        def pump() -> None:
            # A daemon thread, so a signal-driven stop never waits on a
            # blocked read; "" marks the parent's pipe closing.
            line = "-"
            while line:
                line = sys.stdin.readline()
                try:
                    loop.call_soon_threadsafe(lines.put_nowait, line)
                except RuntimeError:  # the loop already closed
                    return

        threading.Thread(target=pump, name="sut-control", daemon=True).start()
        published = 1
        while True:
            getter = asyncio.ensure_future(lines.get())
            waiter = asyncio.ensure_future(stop.wait())
            done, pending = await asyncio.wait(
                {getter, waiter}, return_when=asyncio.FIRST_COMPLETED
            )
            for task in pending:
                task.cancel()
            if getter not in done:
                break  # SIGTERM or SIGINT
            line = getter.result()
            if not line:
                break  # the parent's pipe closed
            op = json.loads(line).get("op")
            if op == "publish":
                snapshot = snapshots[published % len(snapshots)]
                published += 1
                start = time.perf_counter()
                fresh = await loop.run_in_executor(None, fleet.publish, snapshot)
                _reply(
                    {
                        "version": fresh.version,
                        "publish_ms": (time.perf_counter() - start) * 1000.0,
                    }
                )
            elif op == "stats":
                _reply(
                    {
                        "batches": METRICS.counter("fleet.batches"),
                        "requests": METRICS.counter("fleet.requests"),
                        "shed": METRICS.counter("fleet.shed"),
                        "degraded": METRICS.counter("fleet.degraded"),
                        "hops": hops.read() if hops else None,
                    }
                )
            elif op == "stop":
                break
    finally:
        await door.stop()


def main() -> int:
    # SIGTERM before the event loop owns it must still stop the fleet.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    config = json.loads(sys.stdin.readline())
    from repro.config import FleetConfig
    from repro.core.cost import LinearDistanceCost
    from repro.fleet import ShardFleet

    from quote_serve import build_snapshots

    snapshots = build_snapshots(config["seed"], config["n_dsts"])
    fleet = ShardFleet(
        LinearDistanceCost(0.2),
        FleetConfig(shards=1, queue_depth=config["queue_depth"]),
        fallback_blended_rate=20.0,
    )
    try:
        fleet.start()
        fleet.publish(snapshots[0])
        asyncio.run(_serve(fleet, snapshots, config["traced"]))
    finally:
        fleet.stop()
        from repro.obs import METRICS

        _reply(
            {
                "final": True,
                "serve_quotes": METRICS.counter("serve.quotes"),
                "serve_seconds": METRICS.stage_seconds("serve.lookup")
                + METRICS.stage_seconds("serve.cost"),
            }
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
