"""Async HTTP serving tier with dynamic micro-batching.

The network front of the serving stack: a stdlib-``asyncio`` HTTP/1.1
service over a :class:`~repro.serving.registry.ServingRegistry`, so the
batched top-k machinery the in-process tiers already prove out can
serve real sockets. Routes:

* ``GET  /v1/models`` — the registered models and their shapes;
* ``POST /v1/{model}/topk`` — ``{"node": 3}`` or ``{"nodes": [...]}``
  plus optional ``"k"`` and ``"timeout"`` (seconds);
* ``POST /v1/{model}/score`` — aligned ``{"src": ..., "dst": ...}``
  pairs (either side may be a scalar, broadcast against the other);
* ``GET  /healthz`` — liveness plus the model list;
* ``GET  /metrics`` — the :mod:`repro.obs` registry in Prometheus text
  exposition format;
* ``GET  /debug/traces`` — a bounded ring of recent *sampled* request
  trace trees (``?route=&status=&min_ms=&limit=`` filters);
* ``GET  /debug/vars`` — config, models, batcher/queue state, and a
  metrics snapshot in one JSON document.

The core is the **work-conserving micro-batcher**, one per model: when
no batch of the model is in flight, the collector dispatches whatever
is queued (up to ``max_batch`` source nodes) at once; while one is, new
requests pile up and ride the next batch, whatever their ``k``. A lone
request never waits on a timer, and batch size follows load
(Clipper-style adaptive batching). A batch is *one*
:meth:`~repro.serving.engine.QueryEngine.topk` call — one tall GEMM on
the model's own thread — with one ``k`` per source node, so each
request gets (and caches) rows at its own ``k``. While the server runs,
OpenBLAS is held to one thread (:func:`~repro.parallel.limit_blas_threads`):
a multi-threaded GEMM under load stalls on whichever BLAS worker the OS
has not scheduled yet.

Production concerns are first-class:

* **backpressure** — at most ``max_queue`` requests may be pending;
  excess admissions get ``429`` with a ``Retry-After`` hint instead of
  unbounded queueing;
* **deadline admission control** — every request carries a deadline
  (client ``"timeout"`` or ``default_deadline``); requests whose
  deadline passed while queued are shed with ``504`` *before* wasting
  a BLAS call on them;
* **hot-swap safety** — the engine is resolved from the registry per
  *batch*, at dispatch time: a ``repro-stream`` publish that swaps the
  model mid-flight never tears a batch (in-flight batches finish on
  the old engine, whose retrieval backend degrades gracefully while
  closing);
* **graceful shutdown** — new admissions get ``503``, queued batches
  drain, then the loop exits;
* **per-request visibility** — every request gets a
  :class:`~repro.obs.requestctx.TraceContext` (honoring an incoming
  W3C ``traceparent`` header; malformed headers start a fresh trace)
  that survives the queue hand-off and the executor hop, and every
  response carries ``x-trace-id`` / ``x-request-id`` / ``traceparent``
  headers. With collection on, sampled requests build a
  root → queue → batch → engine(→ shard) span chain — the *batch* span
  is shared by (and linked to) every member request, so one slow batch
  explains all its riders — retained in a bounded ring behind
  ``/debug/traces``; latency histograms carry trace exemplars; and an
  optional :class:`~repro.obs.requestlog.RequestLogger` emits one
  rate-bounded JSON access-log line per request (queue wait, batch
  size, engine time, shed reason).

``repro-serve serve`` (:mod:`repro.serving.cli`) wraps this in a
console command; ``examples/http_serving.py`` is the end-to-end tour.
"""

from __future__ import annotations

import asyncio
import contextvars
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from urllib.parse import parse_qs

import numpy as np

from .. import obs
from ..errors import ParameterError, ReproError
from ..obs import requestctx
from ..obs.requestlog import RequestLogger, TraceRing
from ..obs.tracing import Span
from ..parallel import limit_blas_threads
from .registry import ServingRegistry

__all__ = ["HTTPServingConfig", "ServingHTTPServer"]


_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            429: "Too Many Requests", 431: "Request Header Fields Too Large",
            500: "Internal Server Error", 501: "Not Implemented",
            503: "Service Unavailable", 504: "Gateway Timeout"}


@dataclass(frozen=True)
class HTTPServingConfig:
    """Knobs of the HTTP tier (validated once, immutable afterwards).

    ``max_batch`` caps the *source nodes* coalesced into one engine
    call (1 turns batching off); ``max_queue`` bounds pending requests
    before admissions turn into 429s; ``default_deadline`` is the
    per-request deadline when the client does not send ``"timeout"``;
    ``retry_after`` is the hint attached to 429 responses;
    ``max_body`` bounds request bodies.

    Tracing knobs: ``trace_sample`` is the head-sampling rate for
    requests that *start* a trace here (propagated ``traceparent``
    headers keep their own sampled flag) — sampled requests retain
    their span trees in the ``/debug/traces`` ring (``trace_ring``
    entries) and attach exemplars to the latency histograms;
    ``access_log_per_second`` bounds the structured access-log rate.
    """

    max_batch: int = 64
    max_queue: int = 1024
    default_deadline: float = 2.0
    retry_after: float = 0.05
    max_body: int = 1 << 20
    trace_sample: float = 1.0
    trace_ring: int = 256
    access_log_per_second: float = 500.0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ParameterError("max_batch must be >= 1")
        if self.max_queue < 1:
            raise ParameterError("max_queue must be >= 1")
        if self.default_deadline <= 0:
            raise ParameterError("default_deadline must be > 0")
        if self.retry_after < 0:
            raise ParameterError("retry_after must be >= 0")
        if self.max_body < 1:
            raise ParameterError("max_body must be >= 1")
        if not 0.0 <= self.trace_sample <= 1.0:
            raise ParameterError("trace_sample must be in [0, 1]")
        if self.trace_ring < 1:
            raise ParameterError("trace_ring must be >= 1")
        if self.access_log_per_second <= 0:
            raise ParameterError("access_log_per_second must be > 0")


class _HTTPError(Exception):
    """A handler outcome that maps straight onto an HTTP error reply."""

    def __init__(self, status: int, message: str,
                 headers: dict | None = None) -> None:
        super().__init__(message)
        self.status = status
        self.headers = headers or {}


class _Deadline(Exception):
    """A queued request's deadline passed before its batch dispatched."""


@dataclass(slots=True)
class _TopkRequest:
    """One admitted top-k request waiting in a batcher queue.

    Beyond the payload it carries the request's identity across the
    queue hand-off: the :class:`TraceContext` (so the dispatcher can
    attribute queue wait / batch size back to the request), the live
    root span (so the dispatcher can graft the queue and batch spans
    into the request's tree), and the enqueue timestamps.
    """

    nodes: np.ndarray
    k: int
    future: asyncio.Future
    deadline: float
    ctx: "requestctx.TraceContext | None" = None
    span: Span | None = None
    enqueued_mono: float = 0.0
    enqueued_wall: float = 0.0


class _Batcher:
    """Coalesce concurrent top-k requests for one model, work-conserving.

    A single collector task owns the queue: it blocks for the first
    request, takes whatever else is queued — up to ``max_batch`` source
    nodes — and awaits that batch's engine call before it collects
    again. All the model's engine calls (``/score`` too) run on one
    thread of its own: back-to-back submits to a shared pool start a
    second thread, with its own allocator arena and BLAS buffers.
    """

    def __init__(self, server: "ServingHTTPServer", model: str) -> None:
        self.server = server
        self.model = model
        self.queue: asyncio.Queue[_TopkRequest] = asyncio.Queue()
        self.busy = False
        self.executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"http-batch-{model}")
        # The batcher outlives the request that lazily created it, so
        # its task must start from an *empty* context — created inside
        # the creating request's context it would inherit that request's
        # live span and parent every later batch under a finished tree.
        loop = asyncio.get_running_loop()
        self.task = contextvars.Context().run(
            loop.create_task, self._run(), name=f"batcher-{model}")

    async def _run(self) -> None:
        max_batch = self.server.config.max_batch
        while True:
            batch = [await self.queue.get()]
            total = len(batch[0].nodes)
            while total < max_batch and not self.queue.empty():
                batch.append(self.queue.get_nowait())
                total += len(batch[-1].nodes)
            self.busy = True
            try:
                await self.server._dispatch(self.model, batch)
            finally:
                self.busy = False

    def close(self) -> None:
        self.task.cancel()
        self.executor.shutdown(wait=False)


class ServingHTTPServer:
    """Asyncio HTTP front over a :class:`ServingRegistry`.

    Use either the async entry point (``await server.serve(...)``
    inside an event loop you own) or the threaded lifecycle the CLI,
    tests, and benchmarks use::

        server = ServingHTTPServer(registry).start(port=0)
        ...
        server.stop()

    ``start`` binds the socket before returning, so ``server.port`` is
    immediately queryable. ``metrics=True`` (the default) enables
    :mod:`repro.obs` collection so ``/metrics`` has something to say.
    """

    def __init__(self, registry: ServingRegistry, *,
                 config: HTTPServingConfig | None = None,
                 metrics: bool = True,
                 access_log: RequestLogger | None = None) -> None:
        self.registry = registry
        self.config = config or HTTPServingConfig()
        self.host: str | None = None
        self.port: int | None = None
        #: recent sampled request traces, served by /debug/traces
        self.traces = TraceRing(self.config.trace_ring)
        self.access_log = access_log
        self._started_at = time.time()
        self._batchers: dict[str, _Batcher] = {}
        self._conns: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._pending = 0
        self._closing = False
        self._metrics = metrics
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._startup_error: BaseException | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, host: str = "127.0.0.1",
              port: int = 0) -> "ServingHTTPServer":
        """Run the server on a background thread; returns once bound."""
        if self._thread is not None:
            raise ReproError("server already started")
        if self._metrics:
            obs.set_enabled(True)
        ready = threading.Event()
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self.serve(host, port, _ready=ready)),
            name="http-serve-loop", daemon=True)
        self._thread.start()
        ready.wait(timeout=30.0)
        if self._startup_error is not None:
            self._thread.join()
            self._thread = None
            raise ReproError(
                f"server failed to bind {host}:{port}: "
                f"{self._startup_error}") from self._startup_error
        if self.port is None:
            raise ReproError("server failed to start within 30s")
        return self

    def stop(self, *, close_registry: bool = False) -> None:
        """Gracefully stop: drain queued batches, then shut down.

        ``close_registry=True`` additionally closes every engine in the
        registry — what the CLI does, since it owns its registry; an
        embedding application sharing a registry keeps it open.
        """
        loop, self._loop = self._loop, None
        if loop is not None and self._stop_event is not None:
            event = self._stop_event
            try:
                loop.call_soon_threadsafe(event.set)
            except RuntimeError:     # loop already gone
                pass
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            self._thread = None
        if close_registry:
            self.registry.close()

    def __enter__(self) -> "ServingHTTPServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    async def serve(self, host: str = "127.0.0.1", port: int = 0, *,
                    _ready: threading.Event | None = None) -> None:
        """Async entry point: bind, serve until :meth:`stop` (or cancel)."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._handle_connection, host, port,
                limit=self.config.max_body + (1 << 16))
        except OSError as exc:
            self._startup_error = exc
            if _ready is not None:
                _ready.set()
            return
        sockname = server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        if _ready is not None:
            _ready.set()
        reaper = asyncio.create_task(self._reap_batchers())
        try:
            with limit_blas_threads(1):
                async with server:
                    await self._stop_event.wait()
                    self._closing = True
                    server.close()
                    await server.wait_closed()
                    await self._drain()
        finally:
            self._closing = True
            reaper.cancel()
            # Close idle keep-alive connections so their handler tasks
            # exit on EOF before the loop tears down — cancellation
            # would be noisy (3.11's streams wrapper logs it) and rude.
            conns = dict(self._conns)
            for conn_writer in conns.values():
                conn_writer.close()
            if conns:
                await asyncio.wait(set(conns), timeout=5.0)
            for batcher in self._batchers.values():
                batcher.close()

    async def _drain(self, timeout: float = 5.0) -> None:
        """Let queued batches finish before the loop exits."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while loop.time() < deadline:
            if not any(b.busy or not b.queue.empty()
                       for b in self._batchers.values()):
                return
            await asyncio.sleep(0.01)

    async def _reap_batchers(self) -> None:
        """Each second, retire idle batchers of unregistered models."""
        while True:
            await asyncio.sleep(1.0)
            for model, batcher in list(self._batchers.items()):
                if (model not in self.registry and not batcher.busy
                        and batcher.queue.empty()):
                    del self._batchers[model]
                    batcher.close()

    def _batcher(self, model: str) -> _Batcher:
        batcher = self._batchers.get(model)
        if batcher is None:
            batcher = self._batchers[model] = _Batcher(self, model)
        return batcher

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conns[task] = writer
        try:
            while True:
                keep_alive = await self._handle_one(reader, writer)
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass                       # client went away mid-exchange
        finally:
            if task is not None:
                self._conns.pop(task, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _handle_one(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> bool:
        """Serve one request; returns whether to keep the connection."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if exc.partial:
                raise
            return False               # clean EOF between requests
        except asyncio.LimitOverrunError:
            return await self._refuse(writer, 431,
                                      "request headers too large")
        try:
            method, path, headers, keep_alive = _parse_head(head)
        except ValueError as exc:
            return await self._refuse(writer, 400, str(exc))
        bodiless = method == "HEAD"     # RFC 9110 §9.3.2
        # Bodies are framed by content-length only (RFC 9112 §6-7): any
        # other framing would leave body bytes to parse as a request.
        if "transfer-encoding" in headers:
            return await self._refuse(
                writer, 501, "transfer-encoding is not supported; send "
                             "content-length", bodiless)
        length = headers.get("content-length", "0")
        if not (length.isascii() and length.isdigit()):
            return await self._refuse(
                writer, 400, f"malformed content-length {length!r}",
                bodiless)
        length = int(length)
        if length > self.config.max_body:
            return await self._refuse(
                writer, 413, f"request body must be 0..."
                             f"{self.config.max_body} bytes", bodiless)
        body = await reader.readexactly(length) if length else b""

        start = time.perf_counter()
        route = _route_label(method, path)
        ctx = self._request_context(headers)
        tracing = self._metrics and obs.enabled()
        root_span = Span("http.request", labels={"route": route},
                         attributes={"method": method,
                                     "trace_id": ctx.trace_id,
                                     "span_id": ctx.span_id}) \
            if tracing else None
        status = 500
        with requestctx.activate(ctx):
            if root_span is not None:
                root_span.__enter__()
            try:
                status, payload, content_type, extra = await self._route(
                    method, path, body)
            except _HTTPError as exc:
                status, content_type = exc.status, "application/json"
                payload, extra = self._error_body(str(exc)), exc.headers
            except Exception as exc:   # noqa: BLE001 - last-resort 500
                status, content_type = 500, "application/json"
                payload, extra = self._error_body(
                    f"internal error: {type(exc).__name__}: {exc}"), {}
            finally:
                if root_span is not None:
                    root_span.annotate(status=status)
                    root_span.__exit__(None, None, None)
        duration = time.perf_counter() - start
        meta = ctx.meta
        if tracing:
            registry = obs.get_registry()
            registry.histogram(
                "http_request_seconds", {"route": route},
                description="wall-clock request latency per route",
                ).observe(duration,
                          {"trace_id": ctx.trace_id} if ctx.sampled
                          else None)
            registry.counter(
                "http_requests_total",
                {"route": route, "status": str(status)},
                description="requests served, by route and status").inc()
        if root_span is not None and ctx.sampled:
            self.traces.record(
                trace_id=ctx.trace_id, route=route, status=status,
                duration_seconds=duration, tree=root_span.to_dict(),
                queue_wait_ms=meta.get("queue_wait_ms"),
                batch_size=meta.get("batch_size"))
        if self.access_log is not None:
            self.access_log.log(
                route=route, method=method, status=status,
                duration_ms=round(duration * 1e3, 3),
                trace_id=ctx.trace_id, request_id=ctx.span_id,
                model=meta.get("model"), k=meta.get("k"),
                nodes=meta.get("nodes"),
                queue_wait_ms=meta.get("queue_wait_ms"),
                batch_size=meta.get("batch_size"),
                engine_ms=meta.get("engine_ms"),
                shed=meta.get("shed"))
        extra = {**(extra or {}),
                 "x-trace-id": ctx.trace_id,
                 "x-request-id": ctx.span_id,
                 "traceparent": requestctx.format_traceparent(ctx)}
        await self._write(writer, status, payload,
                          content_type=content_type, extra=extra,
                          keep_alive=keep_alive, bodiless=bodiless)
        return keep_alive

    def _request_context(self, headers: dict) -> "requestctx.TraceContext":
        """Mint (or adopt) the request's trace context.

        A valid incoming ``traceparent`` is continued — same trace id,
        fresh span id, the remote sampled flag honored. Anything else
        (absent *or malformed*) starts a fresh trace whose sampling
        decision comes from ``config.trace_sample``; a bad header must
        never be an error.
        """
        parent = requestctx.parse_traceparent(headers.get("traceparent"))
        if parent is not None:
            return requestctx.child_context(parent)
        ctx = requestctx.new_trace()
        ctx.sampled = requestctx.sample_decision(ctx.trace_id,
                                                 self.config.trace_sample)
        return ctx

    @staticmethod
    def _error_body(message: str) -> bytes:
        return json.dumps({"error": message}).encode("utf-8")

    async def _refuse(self, writer: asyncio.StreamWriter, status: int,
                      message: str, bodiless: bool = False) -> bool:
        """Answer a request that cannot be framed or read, and close."""
        await self._write(writer, status, self._error_body(message),
                          keep_alive=False, bodiless=bodiless)
        return False

    async def _write(self, writer: asyncio.StreamWriter, status: int,
                     payload: bytes, *,
                     content_type: str = "application/json",
                     extra: dict | None = None,
                     keep_alive: bool = True,
                     bodiless: bool = False) -> None:
        reason = _REASONS.get(status, "Error")
        head = [f"HTTP/1.1 {status} {reason}",
                f"content-type: {content_type}",
                f"content-length: {len(payload)}",
                f"connection: {'keep-alive' if keep_alive else 'close'}"]
        for key, value in (extra or {}).items():
            head.append(f"{key}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
                     + (b"" if bodiless else payload))
        await writer.drain()

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _route(self, method: str, path: str, body: bytes,
                     ) -> tuple[int, bytes, str, dict]:
        path, _, query = path.partition("?")
        if path == "/healthz":
            _require(method, "GET")
            return self._json(200, {"status": "ok",
                                    "models": self.registry.names()})
        if path == "/metrics":
            _require(method, "GET")
            return (200, obs.to_prometheus_text().encode("utf-8"),
                    "text/plain; version=0.0.4", {})
        if path == "/debug/traces":
            _require(method, "GET")
            return self._handle_debug_traces(query)
        if path == "/debug/vars":
            _require(method, "GET")
            return self._handle_debug_vars()
        if path == "/v1/models":
            _require(method, "GET")
            return self._json(200, {"models": [
                self._model_info(name) for name in self.registry.names()]})
        parts = [p for p in path.split("/") if p]
        if len(parts) == 3 and parts[0] == "v1":
            _, model, verb = parts
            if verb == "topk":
                _require(method, "POST")
                return await self._handle_topk(model, _parse_json(body))
            if verb == "score":
                _require(method, "POST")
                return await self._handle_score(model, _parse_json(body))
        raise _HTTPError(404, f"no route for {method} {path}")

    def _model_info(self, name: str) -> dict:
        engine = self.registry.get(name)
        return {"name": name, "num_nodes": engine.num_nodes,
                "index": engine.index.kind,
                "directional": engine.directional,
                "engine": type(engine).__name__}

    def _get_engine(self, model: str):
        try:
            return self.registry.get(model)
        except ReproError as exc:
            raise _HTTPError(404, str(exc)) from None

    # ------------------------------------------------------------------
    # /debug/* — operator introspection
    # ------------------------------------------------------------------
    def _handle_debug_traces(self, query: str,
                             ) -> tuple[int, bytes, str, dict]:
        params = parse_qs(query, keep_blank_values=False)

        def one(name: str) -> str | None:
            values = params.get(name)
            return values[-1] if values else None

        status = route = None
        min_ms = 0.0
        limit = 32
        try:
            if one("status") is not None:
                status = int(one("status"))
            if one("min_ms") is not None:
                min_ms = float(one("min_ms"))
            if one("limit") is not None:
                limit = int(one("limit"))
        except ValueError as exc:
            raise _HTTPError(400, f"bad query parameter: {exc}") from None
        route = one("route")
        records = self.traces.list(route=route, status=status,
                                   min_duration_ms=min_ms, limit=limit)
        return self._json(200, {"traces": records,
                                "ring_size": len(self.traces),
                                "recorded": self.traces.recorded})

    def _handle_debug_vars(self) -> tuple[int, bytes, str, dict]:
        body = {
            "uptime_seconds": round(time.time() - self._started_at, 3),
            "config": asdict(self.config),
            "models": self.registry.names(),
            "pending_requests": self._pending,
            "batchers": [{"model": model, "busy": b.busy,
                          "queued": b.queue.qsize()}
                         for model, b in sorted(self._batchers.items())],
            "closing": self._closing,
            "obs_enabled": obs.enabled(),
            "trace_ring": {"size": len(self.traces),
                           "recorded": self.traces.recorded},
            "access_log": (self.access_log.stats()
                           if self.access_log is not None else None),
        }
        if obs.enabled():
            body["metrics"] = obs.snapshot(spans=False)
        return self._json(200, body)

    # ------------------------------------------------------------------
    # /v1/{model}/topk — the micro-batched path
    # ------------------------------------------------------------------
    async def _handle_topk(self, model: str, payload: dict,
                           ) -> tuple[int, bytes, str, dict]:
        scalar = "node" in payload
        if scalar == ("nodes" in payload):
            raise _HTTPError(400, 'body must have exactly one of '
                                  '"node" (scalar) or "nodes" (list)')
        raw = payload["node"] if scalar else payload["nodes"]
        k = _as_int(payload.get("k", 10), "k", minimum=1)
        timeout = _as_timeout(payload.get("timeout"),
                              self.config.default_deadline)
        try:
            nodes = np.atleast_1d(np.asarray(raw, dtype=np.int64))
        except (TypeError, ValueError, OverflowError):
            raise _HTTPError(400, '"node"/"nodes" must be integer node '
                                  'ids') from None
        if nodes.ndim != 1:
            raise _HTTPError(400, '"nodes" must be a flat list of node ids')
        # Validate per request, pre-admission: a bad node id must 400
        # its own request, not poison the whole coalesced batch.
        engine = self._get_engine(model)
        k = min(k, engine.num_nodes)    # wider only sorts whole rows
        if len(nodes) and (nodes.min() < 0
                           or nodes.max() >= engine.num_nodes):
            raise _HTTPError(400, f"node ids must be in "
                                  f"[0, {engine.num_nodes})")
        ctx = requestctx.current()
        if ctx is not None:
            ctx.meta.update(model=model, k=k, nodes=int(len(nodes)))
        if len(nodes) == 0:
            return self._json(200, {"model": model, "k": k, "results": []})

        ids, scores = await self._enqueue_topk(model, k, nodes, timeout)
        results = [
            {"node": int(node),
             "neighbors": [int(v) for v in row_ids if v >= 0],
             "scores": [float(s) for v, s in zip(row_ids, row_scores)
                        if v >= 0]}
            for node, row_ids, row_scores in zip(nodes, ids, scores)]
        if scalar:
            body = {"model": model, "k": k, **results[0]}
        else:
            body = {"model": model, "k": k, "results": results}
        return self._json(200, body)

    async def _enqueue_topk(self, model: str, k: int, nodes: np.ndarray,
                            timeout: float,
                            ) -> tuple[np.ndarray, np.ndarray]:
        """Admission control + the queue hand-off to the batcher."""
        ctx = requestctx.current()

        def shed(reason: str) -> None:
            if ctx is not None:
                ctx.meta["shed"] = reason

        if self._closing:
            shed("shutdown")
            raise _HTTPError(503, "server is shutting down")
        config = self.config
        if self._pending >= config.max_queue:
            shed("overload")
            if self._metrics and obs.enabled():
                obs.get_registry().counter("http_overload_total").inc()
            raise _HTTPError(
                429, f"queue full ({config.max_queue} pending requests)",
                headers={"retry-after": f"{config.retry_after:.3f}"})
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        request = _TopkRequest(nodes, k, future, loop.time() + timeout,
                               ctx=ctx, span=obs.current_span(),
                               enqueued_mono=loop.time(),
                               enqueued_wall=time.time())
        batcher = self._batcher(model)
        self._pending += 1
        self._set_queue_depth()
        batcher.queue.put_nowait(request)
        try:
            return await future
        except _Deadline:
            shed("deadline")
            raise _HTTPError(
                504, f"deadline exceeded after {timeout:.3f}s in queue",
                headers={"retry-after": f"{config.retry_after:.3f}"}
                ) from None
        except ParameterError as exc:
            raise _HTTPError(400, str(exc)) from None
        except ReproError as exc:
            raise _HTTPError(404, str(exc)) from None
        finally:
            self._pending -= 1
            self._set_queue_depth()

    def _set_queue_depth(self) -> None:
        if self._metrics and obs.enabled():
            obs.get_registry().gauge("http_queue_depth").set(self._pending)

    async def _dispatch(self, model: str,
                        batch: list[_TopkRequest]) -> None:
        """One coalesced engine call; splits the rows back per request,
        each cut to its own ``k``.

        The batcher side of the trace chain: per-member queue waits go
        into the requests' ``ctx.meta`` (and a histogram), one shared
        ``http.batch`` span wraps the engine call — entered here, in the
        batcher's own (clean) context, so the ``serving.engine`` span
        the worker thread opens nests under it via :func:`requestctx.bind`
        — and after the call both a synthetic ``http.queue`` span and
        the batch span are grafted into every member request's tree.
        """
        loop = asyncio.get_running_loop()
        now = loop.time()
        live: list[_TopkRequest] = []
        for request in batch:
            if request.future.done():       # client connection dropped
                continue
            if now > request.deadline:
                request.future.set_exception(_Deadline())
                if self._metrics and obs.enabled():
                    obs.get_registry().counter(
                        "http_deadline_shed_total").inc()
                continue
            live.append(request)
        if not live:
            return
        tracing = self._metrics and obs.enabled()
        for request in live:
            wait = max(0.0, now - request.enqueued_mono)
            if request.ctx is not None:
                request.ctx.meta["queue_wait_ms"] = round(wait * 1e3, 3)
                request.ctx.meta["batch_size"] = len(live)
            if tracing:
                sampled = request.ctx is not None and request.ctx.sampled
                obs.get_registry().histogram(
                    "http_queue_wait_seconds",
                    description="time a request waited in the batcher "
                                "queue before dispatch",
                    ).observe(wait, {"trace_id": request.ctx.trace_id}
                              if sampled else None)
        if tracing:
            obs.get_registry().histogram(
                "http_batch_requests", {"model": model}).observe(len(live))
        k = max(r.k for r in live)
        member_ids = [r.ctx.trace_id for r in live
                      if r.ctx is not None and r.ctx.sampled]
        batch_span = Span(
            "http.batch", labels={"model": model},
            attributes={"k": k, "batch_size": len(live),
                        "nodes": int(sum(len(r.nodes) for r in live)),
                        "member_trace_ids": member_ids}) \
            if tracing else None
        exemplar_ctx = next((r.ctx for r in live
                             if r.ctx is not None and r.ctx.sampled), None)
        engine_t0 = time.perf_counter()
        if batch_span is not None:
            batch_span.__enter__()
        try:
            engine = self.registry.get(model)
            nodes = (live[0].nodes if len(live) == 1
                     else np.concatenate([r.nodes for r in live]))
            row_k = (k if all(r.k == k for r in live) else np.repeat(
                [r.k for r in live], [len(r.nodes) for r in live]))
            ids, scores = await loop.run_in_executor(
                self._batcher(model).executor,
                requestctx.bind(self._engine_call, engine, nodes, row_k,
                                ctx=exemplar_ctx))
        except BaseException as exc:   # noqa: BLE001 - routed per request
            if batch_span is not None:
                batch_span.__exit__(type(exc), exc, None)
                batch_span = None
            # A swap can shrink the model between per-request validation
            # and dispatch; re-run requests solo so one stale id cannot
            # poison its batch peers.
            if len(live) > 1 and isinstance(exc, ParameterError):
                for request in live:
                    await self._dispatch(model, [request])
                return
            for request in live:
                if not request.future.done():
                    request.future.set_exception(exc)
            return
        engine_ms = round((time.perf_counter() - engine_t0) * 1e3, 3)
        if batch_span is not None:
            batch_span.annotate(engine_ms=engine_ms)
            batch_span.__exit__(None, None, None)
        offset = 0
        for request in live:
            count = len(request.nodes)
            if request.ctx is not None:
                request.ctx.meta["engine_ms"] = engine_ms
            if request.span is not None and batch_span is not None:
                # Synthetic queue span: timed from the enqueue stamps,
                # never entered (so it feeds no span metrics), grafted
                # next to the shared batch span. This runs on the loop
                # thread *before* the future resolves, so the handler
                # cannot be serializing the tree concurrently.
                queue_span = Span("http.queue")
                queue_span.started_at = request.enqueued_wall
                queue_span.duration = max(0.0, now - request.enqueued_mono)
                request.span.children.append(queue_span)
                request.span.children.append(batch_span)
            if not request.future.done():
                request.future.set_result(
                    (ids[offset:offset + count, :request.k],
                     scores[offset:offset + count, :request.k]))
            offset += count

    def _engine_call(self, engine, nodes: np.ndarray, k):
        """The coalesced call, on the model's thread, inside the trace."""
        with obs.trace("serving.engine", nodes=int(len(nodes)),
                       k=int(np.max(k))):
            return engine.topk(nodes, k)

    # ------------------------------------------------------------------
    # /v1/{model}/score
    # ------------------------------------------------------------------
    async def _handle_score(self, model: str, payload: dict,
                            ) -> tuple[int, bytes, str, dict]:
        if "src" not in payload or "dst" not in payload:
            raise _HTTPError(400, 'body must have "src" and "dst"')
        engine = self._get_engine(model)
        try:
            src = np.asarray(payload["src"], dtype=np.int64)
            dst = np.asarray(payload["dst"], dtype=np.int64)
        except (TypeError, ValueError, OverflowError):
            raise _HTTPError(400, '"src"/"dst" must be integer node ids'
                             ) from None
        loop = asyncio.get_running_loop()
        try:
            scores = await loop.run_in_executor(
                self._batcher(model).executor, engine.score, src, dst)
        except ParameterError as exc:
            raise _HTTPError(400, str(exc)) from None
        if src.ndim == 0 and dst.ndim == 0:
            return self._json(200, {"model": model,
                                    "score": float(scores[0])})
        return self._json(200, {"model": model,
                                "scores": [float(s) for s in scores]})

    # ------------------------------------------------------------------
    @staticmethod
    def _json(status: int, body: dict) -> tuple[int, bytes, str, dict]:
        return (status, json.dumps(body).encode("utf-8"),
                "application/json", {})

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ServingHTTPServer(host={self.host!r}, port={self.port}, "
                f"models={self.registry.names()})")


# ----------------------------------------------------------------------
# request parsing helpers
# ----------------------------------------------------------------------

def _parse_head(blob: bytes) -> tuple[str, str, dict, bool]:
    """Parse request line + headers; raises ValueError on malformed."""
    try:
        text = blob.decode("latin-1")
    except UnicodeDecodeError:       # pragma: no cover - latin-1 total
        raise ValueError("undecodable request head") from None
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise ValueError(f"malformed request line {lines[0]!r}")
    method, path, version = parts
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise ValueError(f"malformed header line {line!r}")
        headers[key.strip().lower()] = value.strip()
    keep_alive = (version == "HTTP/1.1"
                  and headers.get("connection", "").lower() != "close")
    return method, path, headers, keep_alive


def _route_label(method: str, path: str) -> str:
    """Bounded route label for metrics (no per-model cardinality blowup
    beyond the registry's own model names)."""
    path = path.split("?", 1)[0]
    if path in ("/healthz", "/metrics", "/v1/models"):
        return path
    parts = [p for p in path.split("/") if p]
    if len(parts) == 3 and parts[0] == "v1" and parts[2] in ("topk",
                                                             "score"):
        return f"/v1/{{model}}/{parts[2]}"
    return "other"


def _require(method: str, expected: str) -> None:
    if method != expected:
        raise _HTTPError(405, f"use {expected} for this route")


def _parse_json(body: bytes) -> dict:
    try:
        payload = json.loads(body.decode("utf-8") or "{}")
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _HTTPError(400, f"request body is not valid JSON: {exc}"
                         ) from None
    if not isinstance(payload, dict):
        raise _HTTPError(400, "request body must be a JSON object")
    return payload


def _as_int(value, name: str, *, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _HTTPError(400, f'"{name}" must be an integer')
    if value < minimum:
        raise _HTTPError(400, f'"{name}" must be >= {minimum}')
    return value


def _as_timeout(value, default: float) -> float:
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _HTTPError(400, '"timeout" must be a number of seconds')
    if value <= 0:
        raise _HTTPError(400, '"timeout" must be > 0')
    return float(value)
