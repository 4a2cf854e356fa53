"""Tests for the asyncio HTTP serving tier (:mod:`repro.serving.http`).

Fast, in-process companions to the socket storms in
``tests/stress/test_http_serving.py``: every route, every error status
the tier promises (400/404/405/413/429/503/504), the micro-batcher's
coalescing, hot-swap consistency mid-traffic, and the ``repro-serve
serve`` subcommand end to end (run in-thread so the coverage gate's
``threading.settrace`` hook sees it).
"""

import http.client
import io
import json
import socket
import threading
import time

import numpy as np
import pytest
from harness import SlowEngine, generation_embedding, http_json

from repro import obs
from repro.errors import ParameterError, ReproError
from repro.obs.requestlog import RequestLogger
from repro.serving import (HTTPServingConfig, QueryEngine,
                           ServingHTTPServer, ServingRegistry,
                           publish_version)
from repro.serving.cli import main
from repro.serving.store import export_store

N, DIM = 64, 8


def _conn(server) -> http.client.HTTPConnection:
    return http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)


def _header(headers: dict, name: str) -> str | None:
    for key, value in headers.items():
        if key.lower() == name:
            return value
    return None


@pytest.fixture(scope="module")
def served():
    """One module-wide server over a gen-0 embedding named ``live``."""
    registry = ServingRegistry()
    registry.register("live", generation_embedding(0, n=N, dim=DIM),
                      cache_size=0)
    server = ServingHTTPServer(registry).start(port=0)
    yield server
    server.stop(close_registry=True)
    obs.set_enabled(False)
    obs.get_registry().clear()


@pytest.fixture(scope="module")
def reference():
    """A private engine over the same embedding, for expected answers."""
    return QueryEngine(generation_embedding(0, n=N, dim=DIM), cache_size=0)


# ----------------------------------------------------------------------
# read-only routes
# ----------------------------------------------------------------------

def test_healthz_and_models(served):
    conn = _conn(served)
    try:
        status, body, headers = http_json(conn, "GET", "/healthz")
        assert status == 200
        assert body == {"status": "ok", "models": ["live"]}
        assert _header(headers, "content-type") == "application/json"

        status, body, _ = http_json(conn, "GET", "/v1/models")
        assert status == 200
        (info,) = body["models"]
        assert info["name"] == "live"
        assert info["num_nodes"] == N
        assert info["index"] == "exact"
    finally:
        conn.close()


def test_metrics_exposition(served):
    conn = _conn(served)
    try:
        http_json(conn, "POST", "/v1/live/topk", {"node": 1, "k": 3})
        status, body, headers = http_json(conn, "GET", "/metrics")
        assert status == 200
        assert _header(headers, "content-type").startswith("text/plain")
        text = body["raw"]
        assert "http_requests_total" in text
        assert "http_request_seconds" in text
        assert "serving_topk_batch_size" in text
    finally:
        conn.close()


# ----------------------------------------------------------------------
# /v1/{model}/topk
# ----------------------------------------------------------------------

def test_topk_scalar_matches_engine(served, reference):
    ids, scores = reference.topk(7, 5)
    conn = _conn(served)
    try:
        status, body, _ = http_json(conn, "POST", "/v1/live/topk",
                                    {"node": 7, "k": 5})
    finally:
        conn.close()
    assert status == 200
    assert body["model"] == "live" and body["k"] == 5
    assert body["node"] == 7
    assert body["neighbors"] == [int(v) for v in ids]
    np.testing.assert_allclose(body["scores"], scores)


def test_topk_batch_matches_engine(served, reference):
    nodes = [3, 1, 4, 1, 59]
    ids, scores = reference.topk(nodes, 6)
    conn = _conn(served)
    try:
        status, body, _ = http_json(conn, "POST", "/v1/live/topk",
                                    {"nodes": nodes, "k": 6})
    finally:
        conn.close()
    assert status == 200
    assert len(body["results"]) == len(nodes)
    for row, row_ids, row_scores in zip(body["results"], ids, scores):
        assert row["neighbors"] == [int(v) for v in row_ids]
        np.testing.assert_allclose(row["scores"], row_scores)


def test_topk_k_wider_than_model_clamps(served):
    conn = _conn(served)
    try:
        status, body, _ = http_json(conn, "POST", "/v1/live/topk",
                                    {"node": 0, "k": N + 100})
    finally:
        conn.close()
    assert status == 200
    assert len(body["neighbors"]) == N      # -1 padding filtered, if any


def test_topk_empty_nodes_is_empty_200(served):
    conn = _conn(served)
    try:
        status, body, _ = http_json(conn, "POST", "/v1/live/topk",
                                    {"nodes": [], "k": 5})
    finally:
        conn.close()
    assert status == 200 and body["results"] == []


@pytest.mark.parametrize("payload, fragment", [
    ({}, "exactly one"),
    ({"node": 1, "nodes": [2]}, "exactly one"),
    ({"node": "seven"}, "integer node"),
    ({"nodes": [[0, 1]]}, "flat list"),
    ({"node": 0, "k": 0}, '"k" must be >= 1'),
    ({"node": 0, "k": "ten"}, '"k" must be an integer'),
    ({"node": 0, "timeout": 0}, '"timeout" must be > 0'),
    ({"node": 0, "timeout": "fast"}, "number of seconds"),
    ({"node": N}, f"[0, {N})"),
    ({"nodes": [0, -3]}, f"[0, {N})"),
])
def test_topk_bad_requests_are_400(served, payload, fragment):
    conn = _conn(served)
    try:
        status, body, _ = http_json(conn, "POST", "/v1/live/topk", payload)
    finally:
        conn.close()
    assert status == 400
    assert fragment in body["error"]


# ----------------------------------------------------------------------
# /v1/{model}/score
# ----------------------------------------------------------------------

def test_score_pairs_and_broadcast(served, reference):
    conn = _conn(served)
    try:
        status, body, _ = http_json(conn, "POST", "/v1/live/score",
                                    {"src": [0, 5, 9], "dst": [7, 2, 11]})
        assert status == 200
        np.testing.assert_allclose(
            body["scores"], reference.score([0, 5, 9], [7, 2, 11]))

        # scalar src fans out against a dst list
        status, body, _ = http_json(conn, "POST", "/v1/live/score",
                                    {"src": 3, "dst": [7, 2, 11]})
        assert status == 200
        np.testing.assert_allclose(
            body["scores"], reference.score([3, 3, 3], [7, 2, 11]))

        # scalar/scalar returns one number under "score"
        status, body, _ = http_json(conn, "POST", "/v1/live/score",
                                    {"src": 3, "dst": 7})
        assert status == 200
        assert body["score"] == pytest.approx(
            float(reference.score([3], [7])[0]))
    finally:
        conn.close()


@pytest.mark.parametrize("payload, fragment", [
    ({"src": [0, 1]}, '"src" and "dst"'),
    ({"src": [0, 1], "dst": [2]}, "aligned pairs"),
    ({"src": "zero", "dst": 1}, "integer node ids"),
    ({"src": 0, "dst": N + 5}, "out of range"),
])
def test_score_bad_requests_are_400(served, payload, fragment):
    conn = _conn(served)
    try:
        status, body, _ = http_json(conn, "POST", "/v1/live/score", payload)
    finally:
        conn.close()
    assert status == 400
    assert fragment in body["error"]


# ----------------------------------------------------------------------
# protocol errors
# ----------------------------------------------------------------------

def test_unknown_model_is_404(served):
    conn = _conn(served)
    try:
        status, body, _ = http_json(conn, "POST", "/v1/nope/topk",
                                    {"node": 0})
        assert status == 404 and "nope" in body["error"]
        status, body, _ = http_json(conn, "POST", "/v1/nope/score",
                                    {"src": 0, "dst": 1})
        assert status == 404
    finally:
        conn.close()


def test_unknown_route_is_404(served):
    conn = _conn(served)
    try:
        status, _, _ = http_json(conn, "GET", "/v2/anything")
        assert status == 404
    finally:
        conn.close()


def test_wrong_method_is_405(served):
    conn = _conn(served)
    try:
        status, body, _ = http_json(conn, "GET", "/v1/live/topk")
        assert status == 405 and "POST" in body["error"]
        status, body, _ = http_json(conn, "POST", "/healthz", {})
        assert status == 405 and "GET" in body["error"]
    finally:
        conn.close()


def test_malformed_json_body_is_400(served):
    conn = _conn(served)
    try:
        conn.request("POST", "/v1/live/topk", "{not json",
                     {"content-type": "application/json"})
        response = conn.getresponse()
        body = json.loads(response.read())
        assert response.status == 400
        assert "not valid JSON" in body["error"]

        # a JSON body that is not an object is equally rejected
        conn.request("POST", "/v1/live/topk", "[1, 2]",
                     {"content-type": "application/json"})
        response = conn.getresponse()
        assert response.status == 400
        assert "JSON object" in json.loads(response.read())["error"]
    finally:
        conn.close()


def test_malformed_request_line_is_400(served):
    with socket.create_connection(("127.0.0.1", served.port),
                                  timeout=5) as sock:
        sock.sendall(b"THIS IS NOT HTTP\r\n\r\n")
        reply = sock.recv(65536)
    assert reply.split(b" ", 2)[1] == b"400"


def test_oversized_body_is_413():
    registry = ServingRegistry()
    registry.register("m", generation_embedding(0, n=N, dim=DIM))
    config = HTTPServingConfig(max_body=64)
    server = ServingHTTPServer(registry, config=config,
                               metrics=False).start(port=0)
    try:
        conn = _conn(server)
        try:
            status, body, _ = http_json(
                conn, "POST", "/v1/m/topk",
                {"nodes": list(range(N)), "k": 5, "pad": "x" * 256})
        finally:
            conn.close()
        assert status == 413
        assert "64 bytes" in body["error"]
    finally:
        server.stop(close_registry=True)


def test_shutting_down_sheds_with_503(served):
    served._closing = True
    conn = _conn(served)
    try:
        status, body, _ = http_json(conn, "POST", "/v1/live/topk",
                                    {"node": 0})
        assert status == 503 and "shutting down" in body["error"]
        # liveness stays answerable while draining
        status, _, _ = http_json(conn, "GET", "/healthz")
        assert status == 200
    finally:
        served._closing = False
        conn.close()


# ----------------------------------------------------------------------
# backpressure + deadlines (dedicated slow-engine servers)
# ----------------------------------------------------------------------

def _slow_server(**config_kwargs):
    registry = ServingRegistry()
    engine = SlowEngine(generation_embedding(0, n=N, dim=DIM),
                        cache_size=0)
    registry.register("slow", engine)
    config = HTTPServingConfig(**config_kwargs)
    return ServingHTTPServer(registry, config=config,
                             metrics=False).start(port=0)


def test_queue_full_is_429_with_retry_after():
    server = _slow_server(max_queue=1, retry_after=0.125)
    try:
        first: list = []

        def occupant():
            conn = _conn(server)
            try:
                first.append(http_json(conn, "POST", "/v1/slow/topk",
                                       {"node": 0, "k": 3}))
            finally:
                conn.close()

        thread = threading.Thread(target=occupant)
        thread.start()
        time.sleep(0.1)            # the occupant is mid-engine-call
        conn = _conn(server)
        try:
            status, body, headers = http_json(conn, "POST",
                                              "/v1/slow/topk",
                                              {"node": 1, "k": 3})
        finally:
            conn.close()
        thread.join()
        assert status == 429
        assert "queue full" in body["error"]
        assert _header(headers, "retry-after") == "0.125"
        assert first[0][0] == 200       # the occupant was served fine
    finally:
        server.stop(close_registry=True)


def test_expired_deadline_is_shed_with_504():
    server = _slow_server(max_queue=64)
    try:
        first: list = []

        def occupant():
            conn = _conn(server)
            try:
                first.append(http_json(conn, "POST", "/v1/slow/topk",
                                       {"node": 0, "k": 3}))
            finally:
                conn.close()

        thread = threading.Thread(target=occupant)
        thread.start()
        time.sleep(0.1)
        # queued behind a 0.3s engine call with a 0.05s budget: by the
        # time its batch could dispatch, the deadline has passed — shed
        # before wasting an engine call on it.
        conn = _conn(server)
        try:
            status, body, _ = http_json(
                conn, "POST", "/v1/slow/topk",
                {"node": 1, "k": 3, "timeout": 0.05})
        finally:
            conn.close()
        thread.join()
        assert status == 504
        assert "deadline" in body["error"]
        assert first[0][0] == 200
    finally:
        server.stop(close_registry=True)


# ----------------------------------------------------------------------
# the micro-batcher
# ----------------------------------------------------------------------

def test_concurrent_requests_coalesce_into_batches(served):
    """Concurrent requests to one model share engine calls.

    8 keep-alive clients hammer one model whose engine call takes
    50ms: requests that arrive while a call is in flight must leave
    together in the next one, visible in both the HTTP tier's batch
    histogram and the engine's ``serving_topk_batch_size`` series.
    """
    registry = ServingRegistry()
    engine = SlowEngine(generation_embedding(5, n=N, dim=DIM),
                        cache_size=0)
    engine.delay = 0.05
    registry.register("co", engine)
    config = HTTPServingConfig(max_batch=64)
    server = ServingHTTPServer(registry, config=config).start(port=0)
    try:
        errors: list = []
        gate = threading.Barrier(8)

        def client(tid: int) -> None:
            conn = _conn(server)
            try:
                gate.wait(timeout=10)
                for i in range(4):
                    status, body, _ = http_json(
                        conn, "POST", "/v1/co/topk",
                        {"node": (tid * 4 + i) % N, "k": 5})
                    assert status == 200, body
            except BaseException as exc:   # noqa: BLE001 - collected
                errors.append(exc)
            finally:
                conn.close()

        threads = [threading.Thread(target=client, args=(tid,))
                   for tid in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

        http_hist = obs.get_registry().get("http_batch_requests",
                                           {"model": "co"})
        assert http_hist is not None and http_hist.count >= 1
        assert http_hist.sum / http_hist.count > 1.0
        engine_hist = obs.get_registry().get("serving_topk_batch_size",
                                             {"engine": "gen5"})
        assert engine_hist is not None
        assert engine_hist.sum / engine_hist.count > 1.0
        # fewer engine calls than requests is the whole point
        assert http_hist.count < 32
    finally:
        server.stop(close_registry=True)


def test_lone_request_is_dispatched_without_waiting():
    """An idle model dispatches a request at once: no batching timer.

    One client, cache off, 20 sequential requests: each is alone in the
    queue, so its queue wait (access log and trace meta) is one event
    loop hop, far below a millisecond.
    """
    registry = ServingRegistry()
    registry.register("lone", generation_embedding(0, n=N, dim=DIM),
                      cache_size=0)
    buffer = io.StringIO()
    server = ServingHTTPServer(
        registry, access_log=RequestLogger(buffer, buffer_lines=1),
        ).start(port=0)
    try:
        conn = _conn(server)
        try:
            for node in range(20):
                status, _, _ = http_json(conn, "POST", "/v1/lone/topk",
                                         {"node": node, "k": 5})
                assert status == 200
        finally:
            conn.close()
        server.access_log.flush()
        records = [json.loads(line)
                   for line in buffer.getvalue().splitlines()]
    finally:
        server.stop(close_registry=True)
    waits = [r["queue_wait_ms"] for r in records
             if r["route"] == "/v1/{model}/topk"]
    assert len(waits) == 20
    assert all(r["batch_size"] == 1 for r in records)
    assert float(np.median(waits)) < 1.0, waits


def test_mixed_k_requests_share_one_engine_call():
    """Different ``k`` for one model ride one engine call, each cut to
    its own ``k``.

    An occupant request holds the slow engine; ``k=3``, ``k=7`` and a
    two-node ``k=7`` request queue up behind it and must leave in one
    batch, each answer matching a solo ``engine.topk(node, k)``.
    """
    registry = ServingRegistry()
    registry.register("mixk", SlowEngine(
        generation_embedding(2, n=N, dim=DIM), cache_size=0))
    server = ServingHTTPServer(registry).start(port=0)
    reference = QueryEngine(generation_embedding(2, n=N, dim=DIM),
                            cache_size=0)
    payloads = [{"node": 0, "k": 5},
                {"node": 3, "k": 3}, {"node": 11, "k": 7},
                {"nodes": [5, 40], "k": 7}]
    replies: dict = {}

    def client(i: int) -> None:
        conn = _conn(server)
        try:
            replies[i] = http_json(conn, "POST", "/v1/mixk/topk",
                                   payloads[i])
        finally:
            conn.close()

    try:
        occupant = threading.Thread(target=client, args=(0,))
        occupant.start()
        time.sleep(0.1)            # the occupant is mid-engine-call
        riders = [threading.Thread(target=client, args=(i,))
                  for i in range(1, len(payloads))]
        for t in riders:
            t.start()
        for t in [occupant, *riders]:
            t.join(timeout=10)
            assert not t.is_alive()
    finally:
        server.stop(close_registry=True)

    hist = obs.get_registry().get("http_batch_requests", {"model": "mixk"})
    # two engine calls: the occupant alone, then all three riders
    assert hist.count == 2 and hist.sum == len(payloads)
    for i, payload in enumerate(payloads):
        status, body, _ = replies[i]
        assert status == 200, body
        k = payload["k"]
        rows = ([body] if "node" in payload else body["results"])
        for row in rows:
            ids, scores = reference.topk(row["node"], k)
            assert len(row["neighbors"]) == k
            # equal up to ties: same scores in order, and each returned
            # id really has the score reported for it
            np.testing.assert_allclose(row["scores"], scores)
            np.testing.assert_allclose(
                reference.score([row["node"]] * k, row["neighbors"]),
                row["scores"])


def test_mixed_k_riders_use_their_own_cache_entries():
    """A rider batched with wider peers reads and fills the cache at its
    own ``k``; a ``k`` beyond the model is capped at its node count."""
    registry = ServingRegistry()
    engine = SlowEngine(generation_embedding(4, n=N, dim=DIM),
                        cache_size=64)
    engine.delay = 0.2
    registry.register("warm", engine)
    server = ServingHTTPServer(registry).start(port=0)
    payloads = [{"node": 0, "k": 5},
                {"node": 3, "k": 5}, {"node": 11, "k": 7},
                {"node": 20, "k": 10 ** 9}]
    replies: dict = {}

    def client(i: int) -> None:
        conn = _conn(server)
        try:
            replies[i] = http_json(conn, "POST", "/v1/warm/topk",
                                   payloads[i])
        finally:
            conn.close()

    try:
        client(1)                      # warms (3, 5)
        occupant = threading.Thread(target=client, args=(0,))
        occupant.start()
        time.sleep(0.1)                # the occupant is mid-engine-call
        riders = [threading.Thread(target=client, args=(i,))
                  for i in range(1, len(payloads))]
        for t in riders:
            t.start()
        for t in [occupant, *riders]:
            t.join(timeout=10)
            assert not t.is_alive()
        hist = obs.get_registry().get("http_batch_requests",
                                      {"model": "warm"})
        # warm-up, occupant, then the three riders together
        assert hist.count == 3 and hist.sum == 5
        stats = engine.cache_stats()
        assert stats.hits == 1 and stats.misses == 4   # node 3's rider
        assert set(engine._cache) == {(3, 5), (0, 5), (11, 7), (20, N)}
    finally:
        server.stop(close_registry=True)
    status, body, _ = replies[3]
    assert status == 200 and body["k"] == N
    assert len(body["neighbors"]) == N


def test_unregistered_models_batcher_and_thread_are_retired():
    """A model's batcher (and its engine thread) leaves with the model;
    a model that stays keeps its own."""
    registry = ServingRegistry()
    for name in ("stay", "gone"):
        registry.register(name, generation_embedding(0, n=N, dim=DIM),
                          cache_size=0)
    server = ServingHTTPServer(registry).start(port=0)

    def batch_threads() -> set:           # of this test's models
        return {t.name.split("_")[0] for t in threading.enumerate()} & {
            "http-batch-stay", "http-batch-gone"}

    conn = _conn(server)
    try:
        for name in ("stay", "gone"):
            status, _, _ = http_json(conn, "POST", f"/v1/{name}/topk",
                                     {"node": 1, "k": 3})
            assert status == 200
            status, _, _ = http_json(conn, "POST", f"/v1/{name}/score",
                                     {"src": 1, "dst": 2})
            assert status == 200
        assert batch_threads() == {"http-batch-stay", "http-batch-gone"}
        registry.unregister("gone")
        deadline = time.monotonic() + 5.0
        while ("http-batch-gone" in batch_threads()
               and time.monotonic() < deadline):
            time.sleep(0.02)
        assert batch_threads() == {"http-batch-stay"}
        _, body, _ = http_json(conn, "GET", "/debug/vars")
        assert [b["model"] for b in body["batchers"]] == ["stay"]
    finally:
        conn.close()
        server.stop(close_registry=True)


def test_server_runs_blas_single_threaded_while_serving():
    from repro.parallel import _openblas_pools
    before = [get() for get, _ in _openblas_pools()]
    if not before:
        pytest.skip("no OpenBLAS loaded in this process")
    registry = ServingRegistry()
    registry.register("m", generation_embedding(0, n=N, dim=DIM))
    server = ServingHTTPServer(registry, metrics=False).start(port=0)
    try:
        assert [get() for get, _ in _openblas_pools()] == [1] * len(before)
    finally:
        server.stop(close_registry=True)
    assert [get() for get, _ in _openblas_pools()] == before


def test_hot_swap_mid_traffic_stays_generation_consistent():
    """Responses during a swap are whole-generation, never torn."""
    registry = ServingRegistry()
    registry.register("hot", generation_embedding(0, n=N, dim=DIM),
                      cache_size=0)
    server = ServingHTTPServer(registry, metrics=False).start(port=0)
    try:
        _, base_scores = QueryEngine(
            generation_embedding(0, n=N, dim=DIM),
            cache_size=0).topk(7, 5)
        results: list = []
        errors: list = []
        stop = threading.Event()

        def client() -> None:
            conn = _conn(server)
            try:
                while not stop.is_set():
                    status, body, _ = http_json(conn, "POST",
                                                "/v1/hot/topk",
                                                {"node": 7, "k": 5})
                    assert status == 200, body
                    results.append(body["scores"])
            except BaseException as exc:   # noqa: BLE001 - collected
                errors.append(exc)
            finally:
                conn.close()

        threads = [threading.Thread(target=client) for _ in range(4)]
        for t in threads:
            t.start()
        time.sleep(0.1)
        registry.swap("hot", generation_embedding(1, n=N, dim=DIM),
                      cache_size=0)
        time.sleep(0.1)
        stop.set()
        for t in threads:
            t.join()
        assert not errors
        assert results
        for scores in results:
            ratio = np.asarray(scores) / base_scores
            # gen g scales every score by (g+1)^2: a row is all-gen0
            # (ratio 1) or all-gen1 (ratio 4), never a mixture
            assert (np.allclose(ratio, 1.0) or np.allclose(ratio, 4.0)), \
                f"torn generation in {scores}"

        conn = _conn(server)
        try:
            _, body, _ = http_json(conn, "POST", "/v1/hot/topk",
                                   {"node": 7, "k": 5})
        finally:
            conn.close()
        np.testing.assert_allclose(
            np.asarray(body["scores"]) / base_scores, 4.0)
    finally:
        server.stop(close_registry=True)


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------

def test_start_twice_and_port_conflict_raise(served):
    with pytest.raises(ReproError, match="already started"):
        served.start(port=0)
    registry = ServingRegistry()
    registry.register("m", generation_embedding(0, n=N, dim=DIM))
    clash = ServingHTTPServer(registry, metrics=False)
    with pytest.raises(ReproError, match="failed to bind"):
        clash.start(port=served.port)


@pytest.mark.parametrize("kwargs", [
    {"max_batch": 0}, {"max_queue": 0},
    {"default_deadline": 0.0}, {"retry_after": -1.0}, {"max_body": 0},
    {"trace_sample": 1.5}, {"trace_ring": 0},
    {"access_log_per_second": 0.0},
])
def test_config_validation(kwargs):
    with pytest.raises(ParameterError):
        HTTPServingConfig(**kwargs)


# ----------------------------------------------------------------------
# the `repro-serve serve` subcommand
# ----------------------------------------------------------------------

def _serve_in_thread(argv: list) -> tuple[threading.Thread, list]:
    codes: list = []
    thread = threading.Thread(target=lambda: codes.append(main(argv)),
                              daemon=True)
    thread.start()
    return thread, codes


def _wait_ready(path, timeout: float = 15.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if path.is_file():
            return json.loads(path.read_text(encoding="utf-8"))
        time.sleep(0.05)
    raise AssertionError(f"server never wrote {path}")


def test_cli_serve_flat_store(tmp_path, capsys):
    export_store(generation_embedding(0, n=N, dim=DIM),
                 tmp_path / "store")
    ready = tmp_path / "ready.json"
    thread, codes = _serve_in_thread(
        ["serve", str(tmp_path / "store"), "--port", "0", "--name", "m",
         "--max-seconds", "2", "--ready-file", str(ready)])
    info = _wait_ready(ready)
    assert info["model"] == "m" and info["num_nodes"] == N
    conn = http.client.HTTPConnection(info["host"], info["port"],
                                      timeout=10)
    try:
        status, body, _ = http_json(conn, "GET", "/healthz")
        assert status == 200 and body["models"] == ["m"]
        status, body, _ = http_json(conn, "POST", "/v1/m/topk",
                                    {"node": 3, "k": 4})
        assert status == 200 and len(body["neighbors"]) == 4
    finally:
        conn.close()
    thread.join(timeout=30)
    assert codes == [0]
    events = [json.loads(line)
              for line in capsys.readouterr().out.strip().splitlines()]
    assert [e["event"] for e in events] == ["serving", "stopped"]


def test_cli_serve_watch_hot_swaps_published_versions(tmp_path, capsys):
    root = tmp_path / "root"
    publish_version(root, generation_embedding(0, n=N, dim=DIM))
    ready = tmp_path / "ready.json"
    thread, codes = _serve_in_thread(
        ["serve", str(root), "--port", "0", "--name", "m",
         "--watch", "0.1", "--max-seconds", "6",
         "--ready-file", str(ready)])
    info = _wait_ready(ready)
    assert info["version"] == 1
    _, base_scores = QueryEngine(generation_embedding(0, n=N, dim=DIM),
                                 cache_size=0).topk(7, 5)
    conn = http.client.HTTPConnection(info["host"], info["port"],
                                      timeout=10)
    try:
        status, body, _ = http_json(conn, "POST", "/v1/m/topk",
                                    {"node": 7, "k": 5})
        assert status == 200
        np.testing.assert_allclose(body["scores"], base_scores)

        publish_version(root, generation_embedding(1, n=N, dim=DIM))
        deadline = time.monotonic() + 5.0
        swapped = False
        while time.monotonic() < deadline and not swapped:
            status, body, _ = http_json(conn, "POST", "/v1/m/topk",
                                        {"node": 7, "k": 5})
            assert status == 200
            swapped = np.allclose(np.asarray(body["scores"]) / base_scores,
                                  4.0)
            if not swapped:
                time.sleep(0.05)
        assert swapped, "serve --watch never hot-swapped onto v2"
    finally:
        conn.close()
    thread.join(timeout=30)
    assert codes == [0]
    events = [json.loads(line)
              for line in capsys.readouterr().out.strip().splitlines()]
    assert [e["event"] for e in events] == ["serving", "swap", "stopped"]
    assert events[1]["version"] == 2


def test_cli_serve_flag_validation(tmp_path, capsys):
    export_store(generation_embedding(0, n=N, dim=DIM),
                 tmp_path / "flat")
    # --watch needs a versioned root
    assert main(["serve", str(tmp_path / "flat"), "--watch", "1",
                 "--max-seconds", "0"]) == 2
    assert "versioned store root" in capsys.readouterr().err
    # --workers needs a sharded store
    assert main(["serve", str(tmp_path / "flat"), "--workers", "2",
                 "--max-seconds", "0"]) == 2
    assert "sharded store" in capsys.readouterr().err
    # ivf knobs need --index ivf
    assert main(["serve", str(tmp_path / "flat"), "--nprobe", "4",
                 "--max-seconds", "0"]) == 2
    assert "--index ivf" in capsys.readouterr().err
