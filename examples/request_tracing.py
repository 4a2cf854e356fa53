"""Request tracing: follow one request through the whole serving path.

Run:  python examples/request_tracing.py

The observability end of the HTTP tier, in four acts:

1. boot :class:`~repro.serving.ServingHTTPServer` with tracing on
   (``trace_sample=1.0``) and a structured JSON access log attached,
2. send a request carrying a W3C ``traceparent`` header and watch the
   server join the caller's trace: the response echoes the inherited
   trace id in ``x-trace-id`` and a fresh ``traceparent``; a malformed
   header starts a new trace instead of failing the request,
3. storm the server from concurrent clients so requests queued
   behind an in-flight engine call share the next batch, then read
   ``/debug/traces`` — every sampled tree shows the
   ``http.request -> http.queue -> http.batch -> serving.engine``
   chain, and the batch span lists the trace ids of every request
   that rode it,
4. read the access log back: one JSON line per request with queue
   wait, batch size, and engine time — the flat-file view of the same
   facts the trace trees show structurally.

The same server from the shell:

    repro-serve serve /tmp/nrp_store --port 8000 \
        --trace-sample 1.0 --access-log /tmp/access.log
    curl -sD - -o /dev/null localhost:8000/v1/nrp/topk \
        -H 'traceparent: 00-00000000000000000000000000abcdef-0000000000abcdef-01' \
        -d '{"node": 7, "k": 5}'
    curl -s 'localhost:8000/debug/traces?limit=3'
"""

import http.client
import io
import json
import threading

import numpy as np

from repro import NRP, obs
from repro.graph import powerlaw_community
from repro.serving import (HTTPServingConfig, ServingHTTPServer,
                           ServingRegistry)

NUM_NODES = 2000
K = 5
CLIENTS = 8
REQUESTS_PER_CLIENT = 10


def call(port: int, method: str, path: str, payload=None,
         headers=None) -> tuple[int, dict, dict]:
    """One JSON request; returns (status, body, response headers)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        body = json.dumps(payload) if payload is not None else None
        send = dict(headers or {})
        if body is not None:
            send["content-type"] = "application/json"
        conn.request(method, path, body, send)
        response = conn.getresponse()
        raw = response.read().decode("utf-8")
        resp_headers = dict(response.getheaders())
    finally:
        conn.close()
    try:
        return response.status, json.loads(raw), resp_headers
    except json.JSONDecodeError:
        return response.status, {"raw": raw}, resp_headers


def show_tree(span: dict, depth: int = 0) -> None:
    """Print one span tree the way the request executed."""
    pad = "  " * depth
    extras = []
    for key in ("batch_size", "engine_ms", "shards"):
        if key in span.get("attributes", {}):
            extras.append(f"{key}={span['attributes'][key]}")
    print(f"{pad}{span['name']:<16} "
          f"{span['duration_seconds'] * 1e3:7.2f} ms  "
          f"{' '.join(extras)}".rstrip())
    for child in span.get("children", ()):
        show_tree(child, depth + 1)


def main() -> None:
    # --- act 1: boot with tracing + access log on ----------------------
    graph, _ = powerlaw_community(NUM_NODES, NUM_NODES * 6,
                                  num_communities=8, seed=7)
    model = NRP(dim=32, seed=0).fit(graph)
    obs.set_enabled(True)

    registry = ServingRegistry()
    registry.register("nrp", model.to_serving())
    access_buffer = io.StringIO()
    access_log = obs.RequestLogger(access_buffer, buffer_lines=1)
    config = HTTPServingConfig(max_batch=64, trace_sample=1.0)
    server = ServingHTTPServer(registry, config=config,
                               access_log=access_log).start(port=0)
    print(f"Serving on http://127.0.0.1:{server.port} "
          f"(trace_sample={config.trace_sample})\n")

    try:
        # --- act 2: traceparent in, trace id out -----------------------
        inherited = "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01"
        status, _, headers = call(
            server.port, "POST", "/v1/nrp/topk",
            {"node": 7, "k": K}, headers={"traceparent": inherited})
        print(f"traceparent sent:     {inherited}")
        print(f"x-trace-id returned:  {headers['x-trace-id']} "
              f"(status {status})")
        print(f"traceparent returned: {headers['traceparent']}")
        assert headers["x-trace-id"] == "ab" * 16   # joined our trace

        status, _, headers = call(
            server.port, "POST", "/v1/nrp/topk",
            {"node": 7, "k": K}, headers={"traceparent": "garbage"})
        print(f"malformed traceparent -> status {status}, fresh trace "
              f"{headers['x-trace-id']}\n")

        # --- act 3: storm, then read the sampled trace trees -----------
        barrier = threading.Barrier(CLIENTS)

        def client(tid: int) -> None:
            rng = np.random.default_rng(tid)
            barrier.wait()
            for _ in range(REQUESTS_PER_CLIENT):
                node = int(rng.integers(0, NUM_NODES))
                call(server.port, "POST", "/v1/nrp/topk",
                     {"node": node, "k": K})

        threads = [threading.Thread(target=client, args=(tid,))
                   for tid in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        status, debug, _ = call(
            server.port, "GET",
            "/debug/traces?route=/v1/%7Bmodel%7D/topk&limit=3")
        print(f"/debug/traces kept {debug['ring_size']} of "
              f"{debug['recorded']} sampled traces; newest 3:")
        for record in debug["traces"]:
            print(f"- trace {record['trace_id']}  "
                  f"status={record['status']}  "
                  f"queue_wait_ms={record.get('queue_wait_ms')}  "
                  f"batch_size={record.get('batch_size')}")
            show_tree(record["tree"], depth=1)
        batch = next(
            child for child in debug["traces"][0]["tree"]["children"]
            if child["name"] == "http.batch")
        members = batch["attributes"]["member_trace_ids"]
        print(f"\nnewest batch carried {len(members)} sampled "
              f"request(s): {members}\n")

        # --- act 4: the access log, line by line -----------------------
        access_log.flush()
        lines = access_buffer.getvalue().strip().splitlines()
        print(f"access log wrote {len(lines)} JSON lines; last 3:")
        for line in lines[-3:]:
            record = json.loads(line)
            print("  " + json.dumps(
                {key: record[key] for key in
                 ("route", "status", "duration_ms", "trace_id",
                  "queue_wait_ms", "batch_size") if key in record}))

        vars_status, debug_vars, _ = call(server.port, "GET",
                                          "/debug/vars")
        print(f"\n/debug/vars: uptime "
              f"{debug_vars['uptime_seconds']:.1f}s, "
              f"{debug_vars['trace_ring']['recorded']} traces recorded, "
              f"access log written="
              f"{debug_vars['access_log']['written']}")
    finally:
        server.stop(close_registry=True)
        obs.set_enabled(False)
        obs.reset()


if __name__ == "__main__":
    main()
