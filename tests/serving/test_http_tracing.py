"""End-to-end request tracing through the HTTP serving tier.

The PR-8 acceptance surface: W3C ``traceparent`` in/out, per-response
trace ids, the root -> queue -> batch -> engine span chain under
micro-batched fan-in (batch span linked to every member request),
``/debug/traces`` / ``/debug/vars``, structured access-log lines, and
the ``repro-serve serve`` SIGTERM drain that flushes them.
"""

import http.client
import io
import json
import signal
import threading
import time

import pytest
from harness import SlowEngine, generation_embedding, http_json

from repro import obs
from repro.obs.requestlog import RequestLogger
from repro.serving import (HTTPServingConfig, ServingHTTPServer,
                           ServingRegistry)
from repro.serving.cli import main
from repro.serving.store import export_store

N, DIM = 64, 8
HEX = set("0123456789abcdef")


def _conn(server) -> http.client.HTTPConnection:
    return http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)


def _header(headers: dict, name: str) -> str | None:
    for key, value in headers.items():
        if key.lower() == name:
            return value
    return None


def _span_names(tree: dict) -> list:
    """Flatten a span tree into (depth-first) names."""
    names = [tree["name"]]
    for child in tree.get("children", ()):
        names.extend(_span_names(child))
    return names


def _find_span(tree: dict, name: str) -> dict | None:
    if tree["name"] == name:
        return tree
    for child in tree.get("children", ()):
        found = _find_span(child, name)
        if found is not None:
            return found
    return None


@pytest.fixture(scope="module")
def access_buffer():
    return io.StringIO()


@pytest.fixture(scope="module")
def served(access_buffer):
    """A traced server: sampling on, access log into a StringIO."""
    registry = ServingRegistry()
    registry.register("live", generation_embedding(0, n=N, dim=DIM),
                      cache_size=0)
    logger = RequestLogger(access_buffer, buffer_lines=1)
    server = ServingHTTPServer(registry, access_log=logger).start(port=0)
    yield server
    server.stop(close_registry=True)
    obs.set_enabled(False)
    obs.get_registry().clear()


# ----------------------------------------------------------------------
# response identity headers
# ----------------------------------------------------------------------

def test_every_response_carries_trace_headers(served):
    conn = _conn(served)
    try:
        for method, path, payload, expected in [
                ("GET", "/healthz", None, 200),
                ("POST", "/v1/live/topk", {"node": 1, "k": 3}, 200),
                ("POST", "/v1/live/topk", {"node": "x"}, 400),
                ("GET", "/nope", None, 404)]:
            status, _, headers = http_json(conn, method, path, payload)
            assert status == expected
            trace_id = _header(headers, "x-trace-id")
            request_id = _header(headers, "x-request-id")
            parent = _header(headers, "traceparent")
            assert len(trace_id) == 32 and set(trace_id) <= HEX
            assert len(request_id) == 16 and set(request_id) <= HEX
            assert parent == f"00-{trace_id}-{request_id}-01"
    finally:
        conn.close()


def test_incoming_traceparent_continued(served):
    trace_id, remote_span = "ab" * 16, "cd" * 8
    conn = _conn(served)
    try:
        status, _, headers = http_json(
            conn, "POST", "/v1/live/topk", {"node": 2},
            headers={"traceparent": f"00-{trace_id}-{remote_span}-01"})
        assert status == 200
        assert _header(headers, "x-trace-id") == trace_id
        # the local hop got its own span id, not the remote one
        assert _header(headers, "x-request-id") != remote_span
    finally:
        conn.close()


def test_incoming_unsampled_flag_honored(served):
    trace_id = "ef" * 16
    conn = _conn(served)
    try:
        status, _, headers = http_json(
            conn, "POST", "/v1/live/topk", {"node": 2},
            headers={"traceparent": f"00-{trace_id}-{'cd' * 8}-00"})
        assert status == 200
        assert _header(headers, "traceparent").endswith("-00")
        # unsampled requests never reach the /debug/traces ring
        status, body, _ = http_json(conn, "GET", "/debug/traces?limit=256")
        assert status == 200
        assert trace_id not in {t["trace_id"] for t in body["traces"]}
    finally:
        conn.close()


@pytest.mark.parametrize("header", [
    "garbage", "00-zz-xx-01", "00-" + "0" * 32 + "-" + "1" * 16 + "-01",
    "ff-" + "a" * 32 + "-" + "b" * 16 + "-01"])
def test_malformed_traceparent_starts_fresh_trace_not_500(served, header):
    conn = _conn(served)
    try:
        status, body, headers = http_json(
            conn, "POST", "/v1/live/topk", {"node": 3, "k": 2},
            headers={"traceparent": header})
        assert status == 200
        assert len(body["neighbors"]) == 2
        trace_id = _header(headers, "x-trace-id")
        assert len(trace_id) == 32 and set(trace_id) <= HEX
        assert trace_id not in header
    finally:
        conn.close()


# ----------------------------------------------------------------------
# /debug endpoints
# ----------------------------------------------------------------------

def test_debug_traces_records_span_chain(served):
    conn = _conn(served)
    try:
        status, _, headers = http_json(conn, "POST", "/v1/live/topk",
                                       {"node": 5, "k": 3})
        assert status == 200
        trace_id = _header(headers, "x-trace-id")
        status, body, _ = http_json(conn, "GET", "/debug/traces?limit=256")
        assert status == 200
        record = next(t for t in body["traces"]
                      if t["trace_id"] == trace_id)
        assert record["route"] == "/v1/{model}/topk"
        assert record["status"] == 200
        assert record["duration_ms"] > 0
        assert record["queue_wait_ms"] >= 0
        assert record["batch_size"] >= 1
        names = _span_names(record["tree"])
        for expected in ("http.request", "http.queue", "http.batch",
                         "serving.engine"):
            assert expected in names, names
        batch = _find_span(record["tree"], "http.batch")
        assert trace_id in batch["attributes"]["member_trace_ids"]
        engine = _find_span(batch, "serving.engine")
        assert engine is not None          # engine nests under the batch
    finally:
        conn.close()


def test_debug_traces_filters(served):
    conn = _conn(served)
    try:
        http_json(conn, "POST", "/v1/live/topk", {"node": 6})
        http_json(conn, "GET", "/healthz")
        status, body, _ = http_json(
            conn, "GET", "/debug/traces?route=/healthz&limit=5")
        assert status == 200
        assert body["traces"]
        assert all(t["route"] == "/healthz" for t in body["traces"])
        status, body, _ = http_json(
            conn, "GET", "/debug/traces?status=200&min_ms=0.0&limit=2")
        assert status == 200
        assert len(body["traces"]) <= 2
        status, body, _ = http_json(
            conn, "GET", "/debug/traces?min_ms=1e9")
        assert status == 200 and body["traces"] == []
        status, _, _ = http_json(conn, "GET", "/debug/traces?limit=junk")
        assert status == 400
        status, _, _ = http_json(conn, "POST", "/debug/traces")
        assert status == 405
    finally:
        conn.close()


def test_debug_vars_surface(served):
    conn = _conn(served)
    try:
        http_json(conn, "POST", "/v1/live/topk", {"node": 7})
        status, body, _ = http_json(conn, "GET", "/debug/vars")
        assert status == 200
        assert body["models"] == ["live"]
        assert body["obs_enabled"] is True
        assert body["config"]["max_batch"] == 64
        assert body["config"]["trace_sample"] == 1.0
        assert body["uptime_seconds"] >= 0
        assert body["trace_ring"]["recorded"] >= 1
        assert body["access_log"]["written"] >= 1
        assert any(b["model"] == "live" for b in body["batchers"])
        names = {c["name"] for c in body["metrics"]["counters"]}
        assert "http_requests_total" in names
    finally:
        conn.close()


def test_latency_histograms_carry_exemplars(served):
    conn = _conn(served)
    try:
        status, _, headers = http_json(conn, "POST", "/v1/live/topk",
                                       {"node": 9, "k": 2})
        assert status == 200
        trace_id = _header(headers, "x-trace-id")
    finally:
        conn.close()
    snapshot = obs.snapshot(spans=False)
    by_name = {}
    for hist in snapshot["histograms"]:
        for ex in hist.get("exemplars", ()):
            by_name.setdefault(hist["name"], set()).add(
                ex["labels"]["trace_id"])
    assert trace_id in by_name["http_request_seconds"]
    assert trace_id in by_name["serving_topk_seconds"]
    assert trace_id in by_name["http_queue_wait_seconds"]


# ----------------------------------------------------------------------
# access log
# ----------------------------------------------------------------------

def test_access_log_lines_are_complete_json(served, access_buffer):
    conn = _conn(served)
    try:
        status, _, headers = http_json(conn, "POST", "/v1/live/topk",
                                       {"node": 11, "k": 4})
        assert status == 200
        trace_id = _header(headers, "x-trace-id")
    finally:
        conn.close()
    served.access_log.flush()
    records = [json.loads(line)
               for line in access_buffer.getvalue().splitlines()]
    record = next(r for r in records if r.get("trace_id") == trace_id)
    assert record["route"] == "/v1/{model}/topk"
    assert record["method"] == "POST"
    assert record["status"] == 200
    assert record["model"] == "live" and record["k"] == 4
    assert record["queue_wait_ms"] >= 0
    assert record["batch_size"] >= 1
    assert record["engine_ms"] > 0
    assert record["duration_ms"] > 0


def test_sampling_off_keeps_serving_but_skips_ring():
    registry = ServingRegistry()
    registry.register("m", generation_embedding(0, n=N, dim=DIM),
                      cache_size=0)
    server = ServingHTTPServer(
        registry, config=HTTPServingConfig(trace_sample=0.0)).start(port=0)
    try:
        conn = _conn(server)
        try:
            for _ in range(5):
                status, _, headers = http_json(conn, "POST", "/v1/m/topk",
                                               {"node": 1})
                assert status == 200
                assert _header(headers, "traceparent").endswith("-00")
            status, body, _ = http_json(conn, "GET", "/debug/traces")
            assert status == 200 and body["traces"] == []
        finally:
            conn.close()
    finally:
        server.stop(close_registry=True)


# ----------------------------------------------------------------------
# the acceptance storm: >= 32 concurrent requests
# ----------------------------------------------------------------------

def test_storm_traces_batches_and_logs(served, access_buffer):
    clients = 32
    results: list = [None] * clients
    barrier = threading.Barrier(clients, timeout=30)
    # The storm's model holds each engine call for 20ms, so requests
    # that arrive while one is in flight must share the next batch.
    engine = SlowEngine(generation_embedding(0, n=N, dim=DIM),
                        cache_size=0)
    engine.delay = 0.02
    served.registry.register("storm", engine)

    def one(i):
        conn = _conn(served)
        try:
            barrier.wait()
            results[i] = http_json(conn, "POST", "/v1/storm/topk",
                                   {"node": i % N, "k": 5})
        finally:
            conn.close()

    threads = [threading.Thread(target=one, args=(i,))
               for i in range(clients)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
    finally:
        served.registry.unregister("storm")
    # the storm model's batcher and engine thread leave with it
    deadline = time.monotonic() + 10.0
    while (any(t.name.startswith("http-batch-storm")
               for t in threading.enumerate())
           and time.monotonic() < deadline):
        time.sleep(0.05)
    assert not any(t.name.startswith("http-batch-storm")
                   for t in threading.enumerate())

    # every 2xx response carries a trace id
    trace_ids = set()
    for status, body, headers in results:
        assert status == 200
        trace_id = _header(headers, "x-trace-id")
        assert len(trace_id) == 32 and set(trace_id) <= HEX
        trace_ids.add(trace_id)
    assert len(trace_ids) == clients

    # sampled traces show the full chain, and at least one batch span
    # is linked to >= 2 member requests (31 clients queue behind the
    # first one's 20ms engine call)
    conn = _conn(served)
    try:
        status, body, _ = http_json(
            conn, "GET", "/debug/traces?route=/v1/{model}/topk&limit=256")
    finally:
        conn.close()
    assert status == 200
    mine = [t for t in body["traces"] if t["trace_id"] in trace_ids]
    assert len(mine) == clients
    max_members = 0
    for record in mine:
        names = _span_names(record["tree"])
        for expected in ("http.request", "http.queue", "http.batch",
                         "serving.engine"):
            assert expected in names, names
        batch = _find_span(record["tree"], "http.batch")
        members = batch["attributes"]["member_trace_ids"]
        assert record["trace_id"] in members
        assert len(members) == batch["attributes"]["batch_size"]
        max_members = max(max_members, len(members))
    assert max_members >= 2, "no batch span linked to >=2 member requests"

    # one valid-JSON access-log line per request, queue wait + batch
    # size attached
    served.access_log.flush()
    records = [json.loads(line)
               for line in access_buffer.getvalue().splitlines()]
    mine_logs = [r for r in records if r.get("trace_id") in trace_ids]
    assert len(mine_logs) == clients
    for record in mine_logs:
        assert record["status"] == 200
        assert record["queue_wait_ms"] >= 0
        assert record["batch_size"] >= 1
    assert any(r["batch_size"] >= 2 for r in mine_logs)


# ----------------------------------------------------------------------
# `repro-serve serve`: SIGTERM drain flushes buffers
# ----------------------------------------------------------------------

def _wait_ready(path, timeout: float = 15.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if path.is_file():
            return json.loads(path.read_text(encoding="utf-8"))
        time.sleep(0.05)
    raise AssertionError(f"server never wrote {path}")


def test_cli_serve_sigterm_drains_and_flushes(tmp_path, capsys):
    if threading.current_thread() is not threading.main_thread():
        pytest.skip("signal handlers need the main thread")
    export_store(generation_embedding(0, n=N, dim=DIM),
                 tmp_path / "store")
    ready = tmp_path / "ready.json"
    access = tmp_path / "access.log"
    metrics_path = tmp_path / "metrics.json"
    failures: list = []

    def client_then_sigterm():
        try:
            info = _wait_ready(ready)
            conn = http.client.HTTPConnection(info["host"], info["port"],
                                              timeout=10)
            try:
                status, _, headers = http_json(conn, "POST", "/v1/m/topk",
                                               {"node": 1, "k": 3})
                assert status == 200
                assert _header(headers, "x-trace-id")
            finally:
                conn.close()
        except Exception as exc:   # surface in the main thread's assert
            failures.append(exc)
        finally:
            signal.raise_signal(signal.SIGTERM)

    helper = threading.Thread(target=client_then_sigterm, daemon=True)
    helper.start()
    # main() runs in the pytest main thread so _cmd_serve installs its
    # SIGTERM handler; --max-seconds is only the safety net
    code = main(["--metrics-json", str(metrics_path),
                 "serve", str(tmp_path / "store"), "--port", "0",
                 "--name", "m", "--max-seconds", "30",
                 "--ready-file", str(ready),
                 "--access-log", str(access),
                 "--trace-sample", "1.0"])
    helper.join(timeout=10)
    assert not failures, failures
    assert code == 0
    events = [json.loads(line)
              for line in capsys.readouterr().out.strip().splitlines()]
    assert [e["event"] for e in events] == ["serving", "stopped"]

    # the drain path flushed the access log buffers to disk...
    records = [json.loads(line)
               for line in access.read_text().strip().splitlines()]
    topk = [r for r in records if r["route"] == "/v1/{model}/topk"]
    assert topk and topk[0]["status"] == 200
    assert "trace_id" in topk[0] and "batch_size" in topk[0]
    # ...and --metrics-json still wrote the final snapshot
    snapshot = json.loads(metrics_path.read_text())
    names = {c["name"] for c in snapshot["counters"]}
    assert "http_requests_total" in names
    obs.set_enabled(False)
    obs.get_registry().clear()
