"""Shared pieces of the benchmark: spans, statistics, run guard, stamp.

Everything here is measurement plumbing that lives outside ``src/``: the
benchmark times calls into the repo's public functions and reads the
existing ``repro.obs.METRICS`` counters, and never switches on the repo's
own tracer.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pathlib
import platform
import shutil
import signal
import sys
import tempfile
import time

#: The repo modules the benchmark attributes time to, in chain order.
LAYERS = ("synth", "core", "mechanisms", "runtime", "netflow", "stream", "serve", "fleet")

SHM_DIR = pathlib.Path("/dev/shm")
SHM_PREFIX = "repro-snap-"
#: Name prefix of the temporary cache directories a run creates.
CACHE_DIR_PREFIX = "perfbench-cache-"


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


class Span:
    """One timed call (``calls == 1``) or an aggregate of many calls.

    High-frequency calls (one per packet, record or window) are folded
    into one aggregate per (name, parent) that carries their summed
    seconds and call count, so tracing never allocates per flow.
    """

    __slots__ = ("name", "parent", "start", "end", "seconds", "calls")

    def __init__(self, name: str, parent: int, start: float) -> None:
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.seconds = 0.0
        self.calls = 0

    def to_dict(self, index: int) -> dict:
        return {
            "id": index,
            "name": self.name,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "seconds": self.seconds,
            "calls": self.calls,
        }


class Tracer:
    """In-memory span recorder; spans are written out when the run ends."""

    enabled = True

    def __init__(self) -> None:
        self.spans: "list[Span]" = []
        self._stack: "list[int]" = []
        self._aggregates: "dict[tuple[str, int], int]" = {}

    def _open(self, name: str, aggregate: bool, start: float) -> int:
        parent = self._stack[-1] if self._stack else -1
        if aggregate:
            index = self._aggregates.get((name, parent))
            if index is not None:
                return index
        self.spans.append(Span(name, parent, start))
        index = len(self.spans) - 1
        if aggregate:
            self._aggregates[(name, parent)] = index
        return index

    @contextlib.contextmanager
    def span(self, name: str, aggregate: bool = False):
        start = time.perf_counter()
        index = self._open(name, aggregate, start)
        self._stack.append(index)
        try:
            yield index
        finally:
            end = time.perf_counter()
            self._stack.pop()
            record = self.spans[index]
            record.end = end
            record.seconds += end - start
            record.calls += 1

    def add(self, name: str, seconds: float, calls: int, parent: int) -> int:
        """Record time measured elsewhere (a METRICS stage, another
        process) as an aggregate child of ``parent``; returns its index."""
        now = time.perf_counter()
        record = Span(name, parent, now)
        record.seconds = float(seconds)
        record.calls = int(calls)
        self.spans.append(record)
        return len(self.spans) - 1

    def leaf(self, name: str) -> Span:
        """The aggregate span ``name`` under the current span, for callers
        that add to ``seconds`` and ``calls`` themselves.  Cheaper than
        :meth:`span` per call, and right only for calls that open no
        spans of their own."""
        return self.spans[self._open(name, True, time.perf_counter())]

    def wrap(self, obj, attr: str, name: str) -> None:
        """Time every call of ``obj.attr`` (an instance attribute the
        benchmark owns, opening no spans itself) as a leaf aggregate."""
        original = getattr(obj, attr)
        record = self.leaf(name)
        clock = time.perf_counter

        def timed(*args, **kwargs):
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                record.seconds += clock() - start
                record.calls += 1
                record.end = clock()

        setattr(obj, attr, timed)

    def self_times(self) -> "dict[str, float]":
        """Per-layer self time plus the unattributed remainder.

        A span's self time is its seconds minus its children's seconds.
        Spans whose name does not start with a layer (the benchmark's own
        pass spans) count as unattributed.
        """
        child_seconds = [0.0] * len(self.spans)
        for record in self.spans:
            if record.parent >= 0:
                child_seconds[record.parent] += record.seconds
        totals = {layer: 0.0 for layer in LAYERS}
        totals["unattributed"] = 0.0
        for record, children in zip(self.spans, child_seconds):
            layer = record.name.split(".", 1)[0]
            key = layer if layer in totals else "unattributed"
            totals[key] += record.seconds - children
        return totals

    def dump(self, path: pathlib.Path) -> None:
        import json

        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, record in enumerate(self.spans):
                handle.write(json.dumps(record.to_dict(index)) + "\n")


class NullTracer:
    """Stand-in for untraced runs: spans cost one call and record nothing."""

    enabled = False
    spans: tuple = ()

    @contextlib.contextmanager
    def span(self, name: str, aggregate: bool = False):
        yield -1

    def add(self, name: str, seconds: float, calls: int, parent: int) -> int:
        return -1

    def wrap(self, obj, attr: str, name: str) -> None:
        pass


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(values) -> "tuple[float, float]":
    """(percentile, value) of the highest percentile that still has at
    least ten samples beyond it; the maximum when there are fewer than
    eleven samples (the record says so through the sample count)."""
    n = len(values)
    if n <= 10:
        return 100.0, float(max(values))
    q = (n - 10) / n
    return 100.0 * q, quantile(values, q)


def metrics_delta(before: dict, after: dict) -> dict:
    """Counter and stage-seconds differences between two METRICS
    snapshots."""
    counters = {
        name: value - before["counters"].get(name, 0)
        for name, value in after["counters"].items()
    }
    stages = {
        name: stage["seconds"] - before["stages"].get(name, {}).get("seconds", 0.0)
        for name, stage in after["stages"].items()
    }
    return {"counters": counters, "stages": stages}


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest finished child."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ----------------------------------------------------------------------
# Provenance stamp
# ----------------------------------------------------------------------


def git_sha(root: pathlib.Path) -> "str | None":
    """HEAD's commit from ``.git`` files, or ``None`` outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest(root: pathlib.Path) -> str:
    """sha256 over the ``src/`` tree's Python files (path + bytes), which
    names the code measured even where no git metadata exists."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def stamp(root: pathlib.Path, workload: str, seed: int, params: dict) -> dict:
    import numpy

    return {
        "git_sha": git_sha(root),
        "src_sha256": source_digest(root),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "workload": workload,
        "seed": seed,
        "params": params,
    }


# ----------------------------------------------------------------------
# Run guard: signals, scratch space, and the leftover check
# ----------------------------------------------------------------------


class Interrupted(BaseException):
    """Raised in the main thread when SIGTERM or SIGINT arrives; a
    ``BaseException``, like ``KeyboardInterrupt``, so no ``except
    Exception`` on the way out swallows it."""




def _proc_table() -> "dict[int, tuple[int, int]]":
    """pid -> (ppid, pgid) for every live, non-zombie process."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read().decode("ascii", "replace")
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2 :].split()
        if fields[0] == "Z":
            continue
        table[int(entry)] = (int(fields[1]), int(fields[2]))
    return table


class RunGuard:
    """Owns everything a run may leave behind.

    * SIGTERM/SIGINT raise :class:`Interrupted` in the main thread, so
      every ``finally`` (pool shutdown, SUT stop) runs;
    * the process becomes a child subreaper (Linux), so a grandchild whose
      parent died is re-parented here and still found;
    * ``TMPDIR`` points into a per-run directory inside the checkout;
    * :meth:`leftovers` counts descendants still alive two seconds after
      the workload's own teardown, shared-memory segments of the
      snapshots the run registered in :attr:`shm_digests`, and temporary
      cache directories, then removes them.
    """

    def __init__(self, root: pathlib.Path) -> None:
        self.root = root
        self.scratch_root = root / ".perfbench_tmp"
        self.pid = os.getpid()
        self.scratch = self.scratch_root / f"run-{self.pid}"
        self.process_groups: "set[int]" = set()
        #: Digests of the snapshots the run publishes; their segments are
        #: named ``repro-snap-<digest[:12]>-v<N>``.
        self.shm_digests: "set[str]" = set()
        #: Objects holding processes, closed by :meth:`close_owned` even
        #: when a signal lands before the workload has a handle on them.
        self.owned: list = []

    def _on_signal(self, signum, frame) -> None:
        if os.getpid() != self.pid:
            # A forked worker inherited this handler: die as the signal means.
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        # Teardown runs once: a second signal must not cut it short.
        for other in (signal.SIGTERM, signal.SIGINT):
            signal.signal(other, signal.SIG_IGN)
        raise Interrupted(f"signal {signum}")

    def __enter__(self) -> "RunGuard":
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, self._on_signal)
        try:
            import ctypes

            libc = ctypes.CDLL(None, use_errno=True)
            libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
            libc.prctl.restype = ctypes.c_int
            libc.prctl(36, 1)  # PR_SET_CHILD_SUBREAPER
        except (OSError, AttributeError):
            pass
        self.scratch.mkdir(parents=True, exist_ok=True)
        os.environ["TMPDIR"] = str(self.scratch)
        tempfile.tempdir = str(self.scratch)
        return self

    def __exit__(self, *exc_info) -> None:
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, signal.SIG_DFL)

    def own(self, resource) -> None:
        self.owned.append(resource)

    def close_owned(self) -> None:
        while self.owned:
            self.owned.pop().close()

    def mkdtemp(self, prefix: str) -> pathlib.Path:
        return pathlib.Path(tempfile.mkdtemp(prefix=prefix, dir=self.scratch))

    def _shm_segments(self) -> "list[str]":
        prefixes = tuple(f"{SHM_PREFIX}{digest[:12]}-" for digest in self.shm_digests)
        if not prefixes:
            return []
        try:
            return sorted(p.name for p in SHM_DIR.iterdir() if p.name.startswith(prefixes))
        except OSError:
            return []

    def descendants(self) -> "list[int]":
        table = _proc_table()
        me = os.getpid()
        found: "set[int]" = set()
        changed = True
        while changed:
            changed = False
            for pid, (ppid, pgid) in table.items():
                if pid in found or pid == me:
                    continue
                if ppid == me or ppid in found or pgid in self.process_groups:
                    found.add(pid)
                    changed = True
        return sorted(found)

    def _reap(self) -> None:
        while True:
            try:
                pid, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return
            if pid == 0:
                return

    def leftovers(self) -> dict:
        """Count what the run left behind, then clean it up."""
        deadline = time.monotonic() + 2.0
        self._reap()
        live = self.descendants()
        while live and time.monotonic() < deadline:
            time.sleep(0.05)
            self._reap()
            live = self.descendants()
        for pid in live:
            with contextlib.suppress(ProcessLookupError, PermissionError):
                os.kill(pid, signal.SIGKILL)
        if live:
            time.sleep(0.1)
            self._reap()
        segments = self._shm_segments()
        for name in segments:
            with contextlib.suppress(OSError):
                (SHM_DIR / name).unlink()
        dirs = sorted(self.scratch.glob(f"{CACHE_DIR_PREFIX}*"))
        shutil.rmtree(self.scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.scratch_root.rmdir()
        return {"processes": len(live), "shm_segments": len(segments), "temp_dirs": len(dirs)}


def fail(message: str, code: int = 2) -> "None":
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(code)
