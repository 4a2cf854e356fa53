"""Reusable concurrency / fault stress harness for the serving tier.

The serving stack's correctness claims are concurrent claims — "a hot
swap never tears an answer", "a reader racing the publisher lands on a
complete version", "a corrupt shard fails typed, not garbled" — so the
tests that pin them need machinery beyond one-shot asserts. This module
is that machinery, shared by the stress tests under ``tests/stress/``,
the deterministic race tests in ``tests/serving/``, and
``benchmarks/bench_sharded_serving.py``:

* :func:`run_storm` — run a query function from many threads at once
  (optionally rate-free soak by duration), collecting every exception
  and per-thread op counts instead of dying on the first;
* :class:`BarrierSchedule` — a named-rendezvous wrapper over
  :class:`threading.Barrier` for *deterministic* interleavings: every
  party calls ``sync("tag")`` at the scripted points, so a swap is
  guaranteed to happen between two specific queries rather than
  whenever the scheduler feels like it;
* fault injectors (:func:`truncate_file`, :func:`tear_json`,
  :func:`set_current_pointer`, :func:`drop_shard_dir`) — the on-disk
  damage the open paths must answer with typed
  :mod:`repro.errors` exceptions.

Knobs are documented in ``tests/stress/README.md``.
"""

from __future__ import annotations

import json
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.serving import QueryEngine

__all__ = ["StormResult", "run_storm", "BarrierSchedule", "truncate_file",
           "tear_json", "set_current_pointer", "drop_shard_dir",
           "generation_embedding", "SlowEngine", "http_json",
           "LatencyRecorder"]


# ----------------------------------------------------------------------
# query storms
# ----------------------------------------------------------------------

@dataclass
class StormResult:
    """What a storm did: per-thread op counts and every exception."""

    ops: list[int] = field(default_factory=list)
    errors: list[BaseException] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def total_ops(self) -> int:
        return int(sum(self.ops))

    def raise_errors(self, *, allowed: tuple[type, ...] = ()) -> None:
        """Fail loudly unless every collected error is an allowed type.

        ``allowed`` whitelists exception types a scenario *expects*
        (e.g. a typed corruption error while a fault is injected);
        anything else re-raises the first offender with the full count
        in its chain.
        """
        unexpected = [e for e in self.errors
                      if not isinstance(e, allowed)]
        if unexpected:
            raise AssertionError(
                f"storm hit {len(unexpected)} unexpected error(s), "
                f"first: {unexpected[0]!r}") from unexpected[0]


def run_storm(work, *, threads: int = 4, iterations: int | None = None,
              duration: float | None = None,
              stop: threading.Event | None = None,
              metrics_label: str | None = None) -> StormResult:
    """Hammer ``work`` from ``threads`` threads; collect, don't crash.

    ``work(thread_index, iteration, rng)`` is called in a loop from
    every thread — it should perform one operation (a query, an open,
    a validation) and raise on any violation. The loop ends after
    ``iterations`` calls per thread, after ``duration`` seconds,
    or when ``stop`` is set, whichever comes first (at least one of
    the three must be given). ``rng`` is a per-thread
    ``numpy.random.Generator`` seeded by thread index, so storms are
    as reproducible as the interleaving allows.

    ``metrics_label`` feeds per-op latencies into the
    ``storm_op_seconds{storm=...}`` histogram when :mod:`repro.obs`
    collection is enabled (no-op otherwise), so storm runs show up in
    metrics snapshots next to the serving series they exercised.

    Threads start behind a barrier so the contention window opens for
    all of them at once; every exception is captured into the returned
    :class:`StormResult` rather than tearing down the storm.
    """
    if iterations is None and duration is None and stop is None:
        raise ValueError("give iterations=, duration=, or stop=")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    from repro import obs
    histogram = None
    if metrics_label is not None and obs.enabled():
        histogram = obs.get_registry().histogram(
            "storm_op_seconds", {"storm": metrics_label})
    result = StormResult(ops=[0] * threads)
    start_line = threading.Barrier(threads + 1)
    deadline = None

    def runner(tid: int) -> None:
        rng = np.random.default_rng(tid)
        start_line.wait()
        i = 0
        while True:
            if iterations is not None and i >= iterations:
                break
            if deadline is not None and time.perf_counter() >= deadline:
                break
            if stop is not None and stop.is_set():
                break
            try:
                if histogram is not None:
                    op_start = time.perf_counter()
                    work(tid, i, rng)
                    histogram.observe(time.perf_counter() - op_start)
                else:
                    work(tid, i, rng)
            except BaseException as exc:   # noqa: BLE001 - harness collects
                result.errors.append(exc)
                break
            result.ops[tid] = i = i + 1

    workers = [threading.Thread(target=runner, args=(tid,), daemon=True)
               for tid in range(threads)]
    for t in workers:
        t.start()
    start_line.wait()          # release everyone together
    started = time.perf_counter()
    if duration is not None:
        deadline = started + duration
    for t in workers:
        t.join()
    result.seconds = time.perf_counter() - started
    return result


class BarrierSchedule:
    """Named rendezvous points shared by the parties of a race test.

    Every party calls :meth:`sync` with the same tags in the same
    order; the call returns only once all ``parties`` arrived, which
    turns "hopefully the swap lands mid-stream" into "the swap happens
    exactly between tag ``before`` and tag ``after``". A generous
    timeout converts a deadlocked schedule into a test failure instead
    of a hung suite.
    """

    def __init__(self, parties: int, *, timeout: float = 30.0) -> None:
        self._barrier = threading.Barrier(parties)
        self._timeout = timeout
        self.trace: list[str] = []
        self._lock = threading.Lock()

    def sync(self, tag: str = "") -> None:
        with self._lock:
            self.trace.append(tag)
        self._barrier.wait(timeout=self._timeout)

    def abort(self) -> None:
        """Break every waiting party out (used on failure paths)."""
        self._barrier.abort()


# ----------------------------------------------------------------------
# real-socket HTTP storms
# ----------------------------------------------------------------------

def http_json(conn, method: str, path: str, payload=None, *,
              headers: dict | None = None) -> tuple[int, dict, dict]:
    """One JSON exchange on a persistent ``http.client`` connection.

    Returns ``(status, body, headers)``; non-JSON bodies come back as
    ``{"raw": text}``. ``headers=`` adds request headers (e.g. a
    ``traceparent`` for propagation tests). Storm work functions keep
    one connection per thread (HTTP keep-alive), which is both faster
    and exactly how a production client pool behaves.
    """
    body = None
    send_headers = dict(headers or {})
    if payload is not None:
        body = json.dumps(payload)
        send_headers["content-type"] = "application/json"
    conn.request(method, path, body, send_headers)
    response = conn.getresponse()
    raw = response.read()
    try:
        parsed = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        parsed = {"raw": raw.decode("utf-8", "replace")}
    return response.status, parsed, dict(response.getheaders())


class LatencyRecorder:
    """Per-thread latency collection with percentile/SLO asserts.

    ``record(tid)`` is a context manager a storm work function wraps
    one operation in; lists are per-thread so recording takes no lock.
    """

    def __init__(self, threads: int) -> None:
        self._lists: list[list[float]] = [[] for _ in range(threads)]

    class _Timed:
        __slots__ = ("sink", "start")

        def __init__(self, sink: list) -> None:
            self.sink = sink

        def __enter__(self) -> "LatencyRecorder._Timed":
            self.start = time.perf_counter()
            return self

        def __exit__(self, exc_type, *exc_info) -> None:
            if exc_type is None:
                self.sink.append(time.perf_counter() - self.start)

    def record(self, tid: int) -> "_Timed":
        return self._Timed(self._lists[tid])

    @property
    def samples(self) -> np.ndarray:
        merged = [v for sink in self._lists for v in sink]
        return np.asarray(merged, dtype=np.float64)

    def percentile(self, q: float) -> float:
        samples = self.samples
        if not len(samples):
            raise AssertionError("no latencies recorded")
        return float(np.percentile(samples, q))

    def assert_slo(self, *, p50: float | None = None,
                   p99: float | None = None) -> None:
        """Fail with the measured numbers when a percentile SLO breaks."""
        if p50 is not None and self.percentile(50) > p50:
            raise AssertionError(
                f"p50 SLO broken: {self.percentile(50):.4f}s > {p50}s")
        if p99 is not None and self.percentile(99) > p99:
            raise AssertionError(
                f"p99 SLO broken: {self.percentile(99):.4f}s > {p99}s")


# ----------------------------------------------------------------------
# fault injection
# ----------------------------------------------------------------------

def truncate_file(path: str | Path, *, keep_fraction: float = 0.5) -> int:
    """Chop a file down to ``keep_fraction`` of its bytes; returns kept.

    Models a crashed copy / out-of-space export: the ``.npy`` header
    survives but the payload it promises does not.
    """
    path = Path(path)
    size = path.stat().st_size
    keep = int(size * keep_fraction)
    with open(path, "r+b") as fh:
        fh.truncate(keep)
    return keep


def tear_json(path: str | Path, *, keep_fraction: float = 0.5) -> None:
    """Leave a half-written JSON file, as a torn manifest write would.

    The kept prefix is byte-truncated mid-document, so ``json.load``
    fails the way it does on a real torn write (no closing brace), not
    with a tidy empty object.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    path.write_text(text[:max(1, int(len(text) * keep_fraction))],
                    encoding="utf-8")


def set_current_pointer(root: str | Path, target: str) -> None:
    """Aim a versioned root's ``CURRENT`` pointer at ``target``.

    Pointing it at a version that does not exist models the stale
    pointer left behind by hand-pruning version directories.
    """
    from repro.serving.store import CURRENT_NAME
    (Path(root) / CURRENT_NAME).write_text(target + "\n", encoding="utf-8")


def drop_shard_dir(root: str | Path, index: int) -> None:
    """Delete shard ``index``'s directory under a sharded store root.

    Models a lost disk / partial rsync: the shard map still names the
    directory, the bytes are gone.
    """
    from repro.serving.sharding import _shard_dir_name
    shutil.rmtree(Path(root) / _shard_dir_name(index))


# ----------------------------------------------------------------------
# generation-tagged sources
# ----------------------------------------------------------------------

def generation_embedding(generation: int, *, n: int = 64, dim: int = 8):
    """An :class:`~repro.io.EmbeddingBundle` whose scores reveal its gen.

    Every generation shares one random geometry scaled by
    ``generation + 1``, so any answer mixing rows of two generations is
    detectable from score ratios alone — the torn-swap detector used
    across the concurrency tests (``score(gen g) = (g+1)^2 *
    score(gen 0)``).
    """
    from repro.io import EmbeddingBundle
    rng = np.random.default_rng(7)          # same geometry every gen
    base = rng.standard_normal((n, dim))
    return EmbeddingBundle(name=f"gen{generation}", directional=False,
                           embedding=(generation + 1.0) * base)


class SlowEngine(QueryEngine):
    """A QueryEngine whose ``topk`` sleeps ``delay`` seconds first.

    Holds an engine call in flight, so HTTP tests can queue requests
    behind it: backpressure, deadline shedding, and batch coalescing
    (the batcher never waits for company, so riders only pile up while
    a call is running).
    """

    delay = 0.3

    def topk(self, src_nodes, k=10):
        time.sleep(self.delay)
        return super().topk(src_nodes, k)


def _manifest_of(path: str | Path) -> dict:
    """Parse a JSON manifest (test convenience, not a public API)."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
