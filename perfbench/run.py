"""The repo benchmark: one command, four workloads, end-to-end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload design_1m --seed 1 --trace 0
    python3 perfbench/run.py --self-check

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``
with tracing off.  ``--trace 1`` measures the per-layer metrics instead:
half the time untraced, half traced, so the difference between the two
halves is the tracing overhead.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it (``record: {...}``) carries the provenance stamp, every
correctness check, sample counts and the teardown audit.  See
``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import importlib
import json
import pathlib
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("design_1m", "paper_sweep", "stream_v5", "quote_serve")
#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3

sys.path.insert(0, str(HERE))

from common import (  # noqa: E402
    Interrupted,
    NullTracer,
    RunGuard,
    Tracer,
    fail,
    median,
    peak_rss_mb,
    stamp,
)


def _load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


def _import_repo() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        fail("no src/repro under the checkout root; nothing to measure")
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        fail(f"cannot import repro: {exc}")


def _end_to_end(result: dict, setup_s: float, attempted: int, failed: int) -> dict:
    return {
        "setup_s": setup_s,
        "peak_rss_mb": result.get("peak_rss_mb") or peak_rss_mb(),
        "ok_ratio": 1.0 - failed / attempted,
        "work_per_s": result["work_per_s"],
        "latency_ms": result["latency_ms"],
        "latency_tail_ms": result["latency_tail_ms"],
    }


def _per_layer(untraced: dict, traced: dict, tracer: Tracer) -> dict:
    layers = dict(traced["layers"])
    for name, seconds in tracer.self_times().items():
        layers[f"self_s.{name}"] = seconds
    layers["trace.overhead_ratio"] = traced["primary_s"] / untraced["primary_s"] - 1.0
    layers["trace.spans"] = len(tracer.spans)
    return layers


def run_workload(args, spec: dict) -> int:
    _import_repo()
    module = importlib.import_module(args.workload)
    params = module.params(args.tiny)
    traced = bool(args.trace)
    record = {"stamp": stamp(ROOT, args.workload, args.seed, params), "trace": traced}
    guard = RunGuard(ROOT)
    state = None
    result = None
    checks: dict = {}
    with guard:
        try:
            setups = []
            for _ in range(SETUP_REPEATS):
                start = time.perf_counter()
                fresh = module.setup(params, args.seed, guard, traced)
                setups.append(time.perf_counter() - start)
                if state is not None:
                    state.close()
                state = fresh
            if traced:
                half = args.seconds / 2.0
                untraced = module.measure(state, half, NullTracer())
                tracer = Tracer()
                traced_result = module.measure(state, half, tracer)
                result = traced_result
                layers = _per_layer(untraced, traced_result, tracer)
                attempted = untraced["attempted"] + traced_result["attempted"]
                failed = untraced["failed"] + traced_result["failed"]
            else:
                result = module.measure(state, args.seconds, NullTracer())
                attempted, failed = result["attempted"], result["failed"]
            checks = module.check(state)
        finally:
            if state is not None:
                state.close()
            guard.close_owned()
            leftovers = guard.leftovers()
    checks["teardown.no_leftovers"] = not any(leftovers.values())
    failed += sum(leftovers.values()) + sum(1 for ok in checks.values() if not ok)
    e2e = _end_to_end(result, median(setups), attempted, failed)
    record.update(
        checks=checks,
        leftovers=leftovers,
        samples=dict(result["samples"], setups=setups),
        end_to_end=e2e,
    )
    if traced:
        record["per_layer"] = layers
        trace_path = ROOT / ".perfbench_out" / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.dump(trace_path)
        record["trace_file"] = str(trace_path.relative_to(ROOT))
    metric_specs = spec["per_layer"] if traced else spec["end_to_end"]
    values = layers if traced else e2e
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in metric_specs
    }
    print("record: " + json.dumps(record, sort_keys=True, default=str))
    print(
        json.dumps(
            {
                "correct": all(checks.values()),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            }
        )
    )
    return 0


def self_check(spec: dict) -> int:
    """Run every workload once, tiny, both modes; validate the output."""
    import subprocess

    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            label = f"{workload} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-400:]}")
                continue
            result = json.loads(lines[-1])
            record = json.loads(lines[-2][len("record: "):])
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if set(result["metrics"]) != {m["name"] for m in wanted}:
                problems.append(f"{label}: metric names differ from BENCHMARK.json")
            if not result["correct"]:
                bad = [k for k, ok in record["checks"].items() if not ok]
                problems.append(f"{label}: checks failed: {bad}")
            if any(record["leftovers"].values()):
                problems.append(f"{label}: leftovers {record['leftovers']}")
            if not isinstance(result["attempted"], int) or result["attempted"] < 1:
                problems.append(f"{label}: attempted {result['attempted']!r}")
            print(f"{label}: ok={not problems} {json.dumps(result['metrics'])[:160]}")
    for problem in problems:
        print("FAIL " + problem)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="how long to measure (default: run_seconds in BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes (self-check)")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    spec = _load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.self_check:
        _import_repo()
        return self_check(spec)
    if args.workload is None:
        parser.error("--workload is required")
    try:
        return run_workload(args, spec)
    except Interrupted as exc:
        # Teardown already ran in run_workload's ``finally``.
        print(f"perfbench: interrupted by {exc}; no result", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
