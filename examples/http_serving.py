"""HTTP serving: boot the async tier, storm it, hot-swap it live.

Run:  python examples/http_serving.py

The network end of the offline-to-online hand-off, in five acts:
1. fit NRP and publish it as version 1 of a versioned store root
   (what ``repro-stream`` emits),
2. boot :class:`~repro.serving.ServingHTTPServer` over it — the same
   server ``repro-serve serve STORE --port 8000`` runs,
3. talk plain HTTP to it: ``/healthz``, ``/v1/models``, scalar and
   batched ``topk``, broadcast ``score``,
4. storm it from concurrent keep-alive clients and read
   ``/metrics`` to watch the work-conserving micro-batcher coalesce
   the requests that queue behind an in-flight engine call,
5. publish version 2 and hot-swap the live model mid-traffic —
   zero dropped requests, responses flip to the new version.

The same server from the shell (it hot-swaps on its own with
``--watch``):

    repro-serve serve /tmp/nrp_root --port 8000 --watch 2
    curl -s localhost:8000/v1/nrp/topk -d '{"node": 7, "k": 5}'
"""

import http.client
import json
import tempfile
import threading
from pathlib import Path

from repro import NRP
from repro.graph import powerlaw_community
from repro.serving import (HTTPServingConfig, ServingHTTPServer,
                           ServingRegistry, open_current,
                           publish_version)

NUM_NODES = 2000
K = 5
CLIENTS = 8
REQUESTS_PER_CLIENT = 30


def call(port: int, method: str, path: str, payload=None) -> dict:
    """One JSON request against the local server."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        body = json.dumps(payload) if payload is not None else None
        conn.request(method, path, body,
                     {"content-type": "application/json"} if body else {})
        response = conn.getresponse()
        raw = response.read().decode("utf-8")
    finally:
        conn.close()
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return {"raw": raw}


def main() -> None:
    # --- act 1: offline fit -> versioned publish -----------------------
    graph, _ = powerlaw_community(NUM_NODES, NUM_NODES * 6,
                                  num_communities=8, seed=7)
    model = NRP(dim=32, seed=0).fit(graph)
    root = Path(tempfile.mkdtemp(prefix="repro_http_")) / "root"
    publish_version(root, model)
    print(f"Published v1 under {root}")

    # --- act 2: boot the HTTP tier -------------------------------------
    registry = ServingRegistry()
    registry.register("nrp", open_current(root))
    config = HTTPServingConfig(max_batch=64, max_queue=1024)
    server = ServingHTTPServer(registry, config=config).start(port=0)
    print(f"Serving on http://127.0.0.1:{server.port}  "
          f"(max_batch={config.max_batch}, max_queue={config.max_queue})")

    try:
        # --- act 3: the routes -----------------------------------------
        print("\n/healthz      ->", call(server.port, "GET", "/healthz"))
        print("/v1/models    ->", call(server.port, "GET", "/v1/models"))
        one = call(server.port, "POST", "/v1/nrp/topk",
                   {"node": 7, "k": K})
        print(f"topk(7)       -> neighbors={one['neighbors']}")
        many = call(server.port, "POST", "/v1/nrp/topk",
                    {"nodes": [0, 1, 2], "k": K})
        print(f"topk([0,1,2]) -> {len(many['results'])} rows")
        fanout = call(server.port, "POST", "/v1/nrp/score",
                      {"src": 7, "dst": one["neighbors"]})
        print(f"score(7, *)   -> {[round(s, 3) for s in fanout['scores']]}")

        # --- act 4: a concurrent storm + /metrics ----------------------
        def client(tid: int) -> None:
            for i in range(REQUESTS_PER_CLIENT):
                call(server.port, "POST", "/v1/nrp/topk",
                     {"node": (tid * 31 + i) % NUM_NODES, "k": K})

        threads = [threading.Thread(target=client, args=(tid,))
                   for tid in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        metrics = call(server.port, "GET", "/metrics")["raw"]
        for line in metrics.splitlines():
            if line.startswith(("serving_topk_batch_size_sum",
                                "serving_topk_batch_size_count",
                                "http_requests_total",
                                "http_batch_requests_sum",
                                "http_batch_requests_count")):
                print("metrics:", line)

        # --- act 5: hot-swap to version 2, mid-traffic -----------------
        model2 = NRP(dim=32, seed=1).fit(graph)
        publish_version(root, model2)
        registry.swap("nrp", open_current(root))
        two = call(server.port, "POST", "/v1/nrp/topk",
                   {"node": 7, "k": K})
        print(f"\nAfter swap to v2: topk(7) -> {two['neighbors']}")
        print("In-flight requests during the swap finish on the old "
              "engine; new ones land on v2.")
    finally:
        server.stop(close_registry=True)
    print("Server stopped (drained gracefully).")


if __name__ == "__main__":
    main()
