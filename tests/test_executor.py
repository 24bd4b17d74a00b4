"""Tests for the pluggable sweep executors (serial / pool / socket).

Conformance contract (parametrized over every backend): identical
result bytes, cold == warm cache behavior, and zero orphan spans in the
rolled-up trace.  Plus the distributed backend's failure modes: a
SIGKILLed worker's leases are reclaimed and the sweep still completes
byte-identically; a SIGKILLed *coordinator* leaves a disk cache the
rerun resumes from; and a worker that keeps dying fails the sweep with
the named :class:`WorkerLostError` (exit code 22) instead of hanging.
"""

import argparse
import dataclasses
import json
import os
import signal
import socket as socket_module
import struct
import subprocess
import sys
import threading
import time

import pytest

from repro import obs
from repro.cli import build_parser, main
from repro.config import EXECUTOR_BACKENDS, ExecutorConfig
from repro.errors import (
    ConfigurationError,
    DataError,
    ExecutorError,
    WorkerLostError,
    exit_code_for,
)
from repro.obs import METRICS, Tracer, summarize_trace
from repro.runtime import cache as runtime_cache
from repro.runtime.executor import (
    Executor,
    PoolExecutor,
    SerialExecutor,
    SocketExecutor,
    get_executor,
    recv_frame,
    send_frame,
    spec_from_wire,
    spec_to_wire,
)
from repro.runtime.spec import ExperimentSpec, run_specs

#: Small-but-real specs: distinct seeds so nothing collapses to one
#: cache entry, two budgets so the capture curves have shape.
SPECS = [
    ExperimentSpec(
        dataset="eu_isp", n_flows=16, seed=seed, bundle_counts=(1, 2)
    )
    for seed in range(4)
]


def _bytes(results) -> str:
    return json.dumps(results, sort_keys=True)


@pytest.fixture
def fresh_cache():
    """An empty, enabled, memory-only global cache for the test's duration."""
    runtime_cache.configure(enabled=True, directory="", fresh=True)
    yield
    runtime_cache.configure(enabled=True, directory="", fresh=True)


@pytest.fixture
def tracer():
    installed = Tracer()
    previous = obs.set_tracer(installed)
    yield installed
    obs.set_tracer(previous)


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------


class TestWire:
    def test_frame_round_trip(self):
        a, b = socket_module.socketpair()
        try:
            send_frame(a, {"op": "pull", "n": [1, 2.5, "x"]})
            assert recv_frame(b) == {"op": "pull", "n": [1, 2.5, "x"]}
        finally:
            a.close()
            b.close()

    def test_eof_is_none(self):
        a, b = socket_module.socketpair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    @pytest.mark.parametrize(
        "body", [b"\xff\xfe", b'{"op": ', b"[1, 2]", b'"pull"', b"null"]
    )
    def test_undecodable_or_non_object_frame_is_data_error(self, body):
        a, b = socket_module.socketpair()
        try:
            a.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(DataError, match="incoming frame"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_oversize_send_refused(self):
        a, b = socket_module.socketpair()
        try:
            with pytest.raises(DataError, match="MAX_FRAME_BYTES"):
                send_frame(a, {"blob": "x" * (8 * 1024 * 1024)})
        finally:
            a.close()
            b.close()

    def test_spec_survives_the_wire(self):
        spec = dataclasses.replace(SPECS[0], trace_context=("t" * 16, "s" * 8))
        wire = spec_to_wire(spec)
        json.dumps(wire)  # must already be plain data
        assert "trace_context" not in wire
        back = spec_from_wire(
            json.loads(json.dumps(wire)), trace=["t" * 16, "s" * 8]
        )
        assert back == spec  # trace_context excluded from equality anyway
        assert back.digest() == spec.digest()
        assert back.trace_context == spec.trace_context
        assert isinstance(back.strategies, tuple)
        assert isinstance(back.bundle_counts, tuple)


# ----------------------------------------------------------------------
# Config + construction
# ----------------------------------------------------------------------


class TestExecutorConfig:
    def test_defaults(self):
        config = ExecutorConfig.resolve()
        assert config.backend == "pool"
        assert config.jobs is None
        assert config.worker_count() == 1
        assert config.spawn_count() == config.worker_count()

    def test_env_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "socket")
        assert ExecutorConfig.resolve().backend == "socket"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "socket")
        assert ExecutorConfig.resolve(backend="serial").backend == "serial"

    def test_cli_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "socket")
        namespace = argparse.Namespace(executor="serial", jobs=None)
        assert ExecutorConfig.resolve(cli=namespace).backend == "serial"

    def test_unknown_backend_is_named_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "carrier-pigeon")
        with pytest.raises(ConfigurationError, match="carrier-pigeon"):
            ExecutorConfig.resolve()

    def test_zero_jobs_means_all_cores(self):
        config = ExecutorConfig.resolve(jobs=0)
        assert config.worker_count() == (os.cpu_count() or 1)

    def test_spawn_overrides_worker_count(self):
        config = ExecutorConfig.resolve(jobs=4, spawn=0)
        assert config.worker_count() == 4
        assert config.spawn_count() == 0

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("backend", "fax"),
            ("host", ""),
            ("port", -1),
            ("port", 70_000),
            ("heartbeat_ms", 0.0),
            ("lease_timeout_ms", -5.0),
            ("max_retries", -1),
            ("spawn", -2),
        ],
    )
    def test_validation(self, field, bad):
        with pytest.raises(ConfigurationError):
            ExecutorConfig.resolve(**{field: bad})

    def test_malformed_env_timeout(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR_HEARTBEAT_MS", "soon")
        with pytest.raises(ConfigurationError, match="HEARTBEAT"):
            ExecutorConfig.resolve()


class TestGetExecutor:
    def test_default_is_pool(self):
        with get_executor() as executor:
            assert isinstance(executor, PoolExecutor)
            assert executor.name == "pool"

    def test_by_name(self):
        with get_executor("serial") as executor:
            assert isinstance(executor, SerialExecutor)

    def test_by_config(self):
        with get_executor(ExecutorConfig.resolve(backend="serial")) as ex:
            assert isinstance(ex, SerialExecutor)

    def test_by_experiment_config_shape(self):
        from repro.experiments.config import ExperimentConfig

        shaped = ExperimentConfig(jobs=3, executor="pool")
        with get_executor(shaped) as executor:
            assert isinstance(executor, PoolExecutor)
            assert executor.jobs == 3

    def test_unknown_name_is_named_error(self):
        with pytest.raises(ConfigurationError, match="smoke-signal"):
            get_executor("smoke-signal")

    def test_cli_flag_parses(self):
        args = build_parser().parse_args(["table1", "--executor", "socket"])
        assert args.executor == "socket"
        assert ExecutorConfig.resolve(cli=args).backend == "socket"


# ----------------------------------------------------------------------
# Conformance: every backend, same bytes / same cache behavior / no
# orphan spans
# ----------------------------------------------------------------------


class TestConformance:
    @pytest.fixture(scope="class")
    def serial_bytes(self):
        runtime_cache.configure(enabled=True, directory="", fresh=True)
        reference = _bytes(run_specs(SPECS, executor="serial", use_cache=False))
        runtime_cache.configure(enabled=True, directory="", fresh=True)
        return reference

    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_backends_byte_identical(self, fresh_cache, serial_bytes, backend):
        results = run_specs(SPECS, jobs=2, executor=backend, use_cache=False)
        assert _bytes(results) == serial_bytes

    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_cold_equals_warm(self, fresh_cache, backend):
        cold = run_specs(SPECS, jobs=2, executor=backend)
        METRICS.reset()
        warm = run_specs(SPECS, jobs=2, executor=backend)
        assert _bytes(warm) == _bytes(cold)
        counters = METRICS.snapshot()["counters"]
        assert counters.get("markets_built", 0) == 0
        assert counters.get("cache_hits:result", 0) == len(SPECS)

    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_zero_orphan_spans(self, fresh_cache, tracer, backend):
        with tracer.span("driver") as driver:
            run_specs(SPECS, jobs=2, executor=backend, use_cache=False)
        spans = tracer.drain()
        units = [s for s in spans if s.name == "runtime.evaluate_spec"]
        assert len(units) == len(SPECS)
        assert {s.trace_id for s in units} == {driver.trace_id}
        summary = summarize_trace(spans)
        assert summary["orphans"] == 0
        if backend == "socket":
            # The work demonstrably ran in other processes.
            assert all(s.pid != os.getpid() for s in units)
            assert len(summary["processes"]) >= 2

    def test_caller_owned_executor_stays_open(self, fresh_cache):
        with get_executor("serial") as executor:
            first = run_specs(SPECS[:2], executor=executor, use_cache=False)
            second = run_specs(SPECS[:2], executor=executor, use_cache=False)
        assert _bytes(first) == _bytes(second)

    def test_incomplete_sweep_is_named_error(self, fresh_cache):
        class Lossy(Executor):
            name = "lossy"

            def submit(self, specs):
                return iter(())  # pragma: no branch

        with pytest.raises(ExecutorError, match="incomplete"):
            run_specs(SPECS[:2], executor=Lossy(), use_cache=False)


# ----------------------------------------------------------------------
# SocketExecutor chaos
# ----------------------------------------------------------------------


class TestSocketChaos:
    def test_worker_sigkill_mid_sweep_still_completes(self, fresh_cache):
        """Kill one of two workers after the first results; the survivor
        picks up the reclaimed leases and the sweep ends byte-identical."""
        specs = [
            ExperimentSpec(
                dataset="eu_isp", n_flows=16, seed=seed, bundle_counts=(1, 2)
            )
            for seed in range(10)
        ]
        reference = _bytes(run_specs(specs, executor="serial", use_cache=False))
        runtime_cache.configure(fresh=True)
        with SocketExecutor(jobs=2) as executor:
            victim = executor.worker_pids()[0]
            seen = {}
            stream = executor.submit(
                [
                    dataclasses.replace(s, trace_context=None)
                    for s in specs
                ]
            )
            for count, (digest, result) in enumerate(stream, start=1):
                seen[digest] = result
                if count == 2:
                    os.kill(victim, signal.SIGKILL)
        assert len(seen) == len(specs)
        results = [seen[spec.digest()] for spec in specs]
        assert _bytes(results) == reference

    def test_worker_lost_error_when_retries_exhausted(self, fresh_cache):
        """A worker that takes a lease and dies, with max_retries=0,
        fails the sweep with the named error — and its exit code."""
        with SocketExecutor(jobs=1, spawn=0, max_retries=0) as executor:

            def fake_worker():
                sock = socket_module.create_connection(
                    (executor.host, executor.port)
                )
                try:
                    send_frame(sock, {"op": "hello", "pid": -1})
                    while True:
                        send_frame(sock, {"op": "pull"})
                        frame = recv_frame(sock)
                        if frame is None or frame["op"] == "done":
                            return
                        if frame["op"] == "spec":
                            return  # die holding the lease
                        time.sleep(float(frame.get("ms", 50)) / 1000.0)
                finally:
                    sock.close()

            saboteur = threading.Thread(target=fake_worker, daemon=True)
            saboteur.start()
            with pytest.raises(WorkerLostError, match="retries exhausted"):
                list(executor.submit(SPECS[:1]))
            saboteur.join(timeout=5.0)
        assert exit_code_for(WorkerLostError("x")) == 22
        assert exit_code_for(ExecutorError("x")) == 21

    def test_all_workers_dead_fails_fast(self, fresh_cache):
        """Every local worker gone with work outstanding -> named error,
        not a hang."""
        with SocketExecutor(jobs=1, heartbeat_ms=50.0) as executor:
            for pid in executor.worker_pids():
                os.kill(pid, signal.SIGKILL)
            with pytest.raises(WorkerLostError):
                list(executor.submit(SPECS[:2]))

    def test_coordinator_sigkill_resumes_from_disk_cache(self, tmp_path):
        """SIGKILL the whole driver mid-sweep; a rerun picks up the
        already-spilled results from the disk cache and finishes
        byte-identical to a serial run."""
        cache_dir = tmp_path / "cache"
        driver = tmp_path / "driver.py"
        driver.write_text(
            "import json, sys\n"
            "from repro.runtime.spec import ExperimentSpec, run_specs\n"
            "specs = [\n"
            "    ExperimentSpec(dataset='eu_isp', n_flows=16, seed=s,\n"
            "                   bundle_counts=(1, 2))\n"
            "    for s in range(30)\n"
            "]\n"
            "results = run_specs(specs, jobs=2, executor=sys.argv[1])\n"
            "print(json.dumps(results, sort_keys=True))\n"
        )
        env = dict(
            os.environ,
            REPRO_CACHE_DIR=str(cache_dir),
            PYTHONPATH=os.pathsep.join(
                filter(None, ["src", os.environ.get("PYTHONPATH")])
            ),
        )

        def cached_results() -> int:
            return sum(1 for _ in cache_dir.glob("result/*.pkl"))

        victim = subprocess.Popen(
            [sys.executable, str(driver), "socket"],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 60.0
        while cached_results() < 3 and time.monotonic() < deadline:
            assert victim.poll() is None, "sweep finished before the kill"
            time.sleep(0.01)
        victim.kill()
        victim.wait(timeout=30.0)
        spilled = cached_results()
        assert 0 < spilled < 30, spilled  # died mid-sweep, partial spill

        resumed = subprocess.run(
            [sys.executable, str(driver), "socket"],
            env=env,
            capture_output=True,
            text=True,
            timeout=120.0,
        )
        assert resumed.returncode == 0, resumed.stderr
        serial = subprocess.run(
            [sys.executable, str(driver), "serial"],
            env=dict(env, REPRO_CACHE_DIR=str(tmp_path / "serial-cache")),
            capture_output=True,
            text=True,
            timeout=120.0,
        )
        assert serial.returncode == 0, serial.stderr
        assert resumed.stdout == serial.stdout


# ----------------------------------------------------------------------
# `repro workers` CLI
# ----------------------------------------------------------------------


class TestWorkersCommand:
    def test_malformed_connect_is_configuration_error(self, capsys):
        assert main(["workers", "--connect", "nonsense"]) == 15
        assert "HOST:PORT" in capsys.readouterr().err

    def test_cli_worker_serves_a_sweep(self, fresh_cache, capsys):
        reference = _bytes(
            run_specs(SPECS[:2], executor="serial", use_cache=False)
        )
        runtime_cache.configure(fresh=True)
        with SocketExecutor(jobs=1, spawn=0) as executor:
            exit_codes = []
            cli = threading.Thread(
                target=lambda: exit_codes.append(
                    main(
                        [
                            "workers",
                            "--connect",
                            f"{executor.host}:{executor.port}",
                        ]
                    )
                ),
                daemon=True,
            )
            cli.start()
            seen = {}
            for digest, result in executor.submit(SPECS[:2]):
                seen[digest] = result
        cli.join(timeout=10.0)
        assert exit_codes == [0]
        assert "worker exited after 2 spec(s)" in capsys.readouterr().out
        results = [seen[spec.digest()] for spec in SPECS[:2]]
        assert _bytes(results) == reference
