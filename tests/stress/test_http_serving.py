"""Socket-level storms against the asyncio HTTP serving tier.

The heavyweight companions (marked ``slow``, run by the CI slow job) to
the deterministic route tests in ``tests/serving/test_http.py``: 32
real keep-alive HTTP connections hammering a live server while the
publish/hot-swap machinery churns underneath. Invariants pinned:

* a storm racing ``publish_version`` + ``ServingRegistry.swap`` (and
  the streaming tier's ``StreamingUpdater.publish`` + ``swap_into``)
  sees **zero 5xx** responses — every answer is a complete 200;
* every answer is **generation-consistent**: the ``(g+1)^2`` score
  scaling of :func:`harness.generation_embedding` proves no response
  row ever mixes two model generations across a hot swap;
* the dynamic micro-batcher actually coalesces under concurrency —
  the ``serving_topk_batch_size`` histogram's mean observed batch size
  is > 1 (the acceptance bar for the batching tier);
* p50/p99 latency SLOs hold while all of the above is happening.
"""

import http.client
import threading
import time

import numpy as np
import pytest
from harness import (LatencyRecorder, generation_embedding, http_json,
                     run_storm)

from repro import NRP, obs
from repro.graph import powerlaw_community
from repro.serving import (HTTPServingConfig, QueryEngine,
                           ServingHTTPServer, ServingRegistry,
                           open_current, publish_version)
from repro.streaming import StreamingConfig, StreamingUpdater

pytestmark = pytest.mark.slow

N, DIM, K = 96, 8, 7
CONCURRENCY = 32
GENERATIONS = 6


def _live_bundle(generation: int):
    """A generation-tagged bundle under one fixed serving name, so all
    generations share one ``serving_topk_batch_size{engine=...}``
    series."""
    bundle = generation_embedding(generation, n=N, dim=DIM)
    bundle.name = "live"
    return bundle


def _connect(server) -> http.client.HTTPConnection:
    return http.client.HTTPConnection("127.0.0.1", server.port,
                                      timeout=30)


def _assert_whole_generation(scores, base_row) -> None:
    """One response row must be a single generation's answer."""
    ratio = np.asarray(scores, dtype=np.float64) / base_row
    mean = float(ratio.mean())
    generation = np.sqrt(mean) - 1.0
    assert abs(generation - round(generation)) < 1e-6, \
        f"score scaling {mean} is no (g+1)^2: torn swap?"
    assert 0 <= round(generation) <= GENERATIONS
    np.testing.assert_allclose(ratio, mean, rtol=1e-6,
                               err_msg="one row mixes two generations")


def test_storm_survives_publish_swap_churn_with_batching(tmp_path):
    """The acceptance storm: 32 sockets, hot swaps, zero 5xx, batches.

    A publisher thread pushes ``GENERATIONS`` new versions through
    ``publish_version`` + ``open_current`` + ``registry.swap`` — the
    exact pipeline ``repro-stream`` / ``repro-serve serve --watch``
    run — while 32 keep-alive clients storm ``topk``. Every response
    must be a 200 carrying exactly one generation's scores, and the
    micro-batcher must have coalesced (mean observed batch size > 1).
    """
    obs.set_enabled(True)
    obs.get_registry().clear()
    root = tmp_path / "root"
    publish_version(root, _live_bundle(0))

    registry = ServingRegistry()
    registry.register("live", open_current(root), cache_size=0)
    config = HTTPServingConfig(max_batch=64)
    server = ServingHTTPServer(registry, config=config).start(port=0)

    probe = np.arange(12)
    base_ids, base_scores = QueryEngine(_live_bundle(0),
                                        cache_size=0).topk(probe, K)
    latency = LatencyRecorder(CONCURRENCY)
    statuses: list[int] = []
    status_lock = threading.Lock()
    conns: dict[int, http.client.HTTPConnection] = {}
    stop = threading.Event()

    def work(tid, i, rng):
        conn = conns.get(tid)
        if conn is None:
            conn = conns[tid] = _connect(server)
        if i % 7 == 3:       # a minority of batch requests in the mix
            nodes = [int(v) for v in probe]
            with latency.record(tid):
                status, body, _ = http_json(conn, "POST",
                                            "/v1/live/topk",
                                            {"nodes": nodes, "k": K})
            rows = [(node, row["scores"])
                    for node, row in zip(nodes, body.get("results", ()))]
        else:
            node = int(probe[int(rng.integers(len(probe)))])
            with latency.record(tid):
                status, body, _ = http_json(conn, "POST",
                                            "/v1/live/topk",
                                            {"node": node, "k": K})
            rows = [(node, body.get("scores"))]
        with status_lock:
            statuses.append(status)
        assert status == 200, f"non-200 under churn: {status} {body}"
        for node, scores in rows:
            assert len(scores) == K
            _assert_whole_generation(scores, base_scores[node])

    def publisher():
        for generation in range(1, GENERATIONS + 1):
            time.sleep(0.15)
            publish_version(root, _live_bundle(generation))
            registry.swap("live", open_current(root), cache_size=0)
        stop.set()

    flipper = threading.Thread(target=publisher, daemon=True)
    flipper.start()
    try:
        result = run_storm(work, threads=CONCURRENCY, stop=stop,
                           metrics_label="http_topk")
    finally:
        flipper.join()
        for conn in conns.values():
            conn.close()
        server.stop(close_registry=True)

    result.raise_errors()
    assert result.total_ops > CONCURRENCY          # the storm really ran
    assert statuses and all(s == 200 for s in statuses), \
        f"5xx/4xx under churn: {sorted(set(statuses))}"

    # the acceptance bar: the micro-batcher coalesced concurrent
    # requests — mean observed engine batch size above 1
    batch_hist = obs.get_registry().get("serving_topk_batch_size",
                                        {"engine": "live"})
    assert batch_hist is not None and batch_hist.count > 0
    mean_batch = batch_hist.sum / batch_hist.count
    assert mean_batch > 1.0, \
        f"no coalescing: mean engine batch size {mean_batch:.2f}"
    http_hist = obs.get_registry().get("http_batch_requests",
                                       {"model": "live"})
    assert http_hist.sum / http_hist.count > 1.0

    # loose SLOs: the point is "no pathological stall under churn",
    # not a benchmark (benchmarks/bench_http_serving.py measures those)
    latency.assert_slo(p50=0.5, p99=2.0)

    obs.set_enabled(False)
    obs.get_registry().clear()


def _fresh_edges(graph, count: int, seed: int):
    rng = np.random.default_rng(seed)
    out: list[tuple[int, int]] = []
    while len(out) < count:
        u, v = (int(x) for x in rng.integers(0, graph.num_nodes, 2))
        if u != v and not graph.has_edge(u, v) \
                and (u, v) not in out and (v, u) not in out:
            out.append((u, v))
    return (np.array([u for u, _ in out]),
            np.array([v for _, v in out]))


def test_streaming_updater_publishes_and_swaps_into_live_server(tmp_path):
    """The full streaming -> serving loop under a socket storm.

    A :class:`StreamingUpdater` absorbs edge batches, publishes each
    result as a new version, and ``swap_into``s the live registry —
    while 32 sockets keep querying ``topk``, ``score``, ``/healthz``
    and ``/metrics``. No request may see a 5xx or a malformed answer.
    """
    graph, _ = powerlaw_community(N, 400, num_communities=4, seed=3)
    model = NRP(dim=DIM, svd="exact", seed=0, keep_factor_state=True)
    updater = StreamingUpdater(
        graph, model,
        config=StreamingConfig(drift_threshold=None, max_staleness=None))

    registry = ServingRegistry()
    updater.swap_into(registry, "live", cache_size=0)
    server = ServingHTTPServer(registry).start(port=0)

    statuses: list[int] = []
    status_lock = threading.Lock()
    conns: dict[int, http.client.HTTPConnection] = {}
    stop = threading.Event()

    def work(tid, i, rng):
        conn = conns.get(tid)
        if conn is None:
            conn = conns[tid] = _connect(server)
        kind = i % 4
        if kind == 0:
            status, body, _ = http_json(conn, "GET", "/healthz")
            assert body.get("models") == ["live"]
        elif kind == 1:
            src = int(rng.integers(N))
            status, body, _ = http_json(
                conn, "POST", "/v1/live/score",
                {"src": src,
                 "dst": [int(v) for v in rng.integers(0, N, 5)]})
            assert len(body.get("scores", ())) == 5
        elif kind == 2:
            status, body, _ = http_json(conn, "GET", "/metrics")
            assert "http_requests_total" in body.get("raw", "")
        else:
            node = int(rng.integers(N))
            status, body, _ = http_json(conn, "POST", "/v1/live/topk",
                                        {"node": node, "k": K})
            scores = body.get("scores", ())
            assert len(scores) == K
            assert list(scores) == sorted(scores, reverse=True)
        with status_lock:
            statuses.append(status)
        assert status == 200, f"non-200 from live streaming: {status}"

    def streamer():
        try:
            for batch in range(3):
                time.sleep(0.1)
                src, dst = _fresh_edges(updater.graph, 10,
                                        seed=500 + batch)
                updater.apply_batch(src, dst)
                updater.publish(root=tmp_path / "root")
                updater.swap_into(registry, "live", cache_size=0)
        finally:
            stop.set()

    flipper = threading.Thread(target=streamer, daemon=True)
    flipper.start()
    try:
        result = run_storm(work, threads=CONCURRENCY, stop=stop)
    finally:
        flipper.join()
        for conn in conns.values():
            conn.close()
        server.stop(close_registry=True)

    result.raise_errors()
    assert statuses and all(s == 200 for s in statuses)
    assert updater.num_batches == 3
    # the publishes really landed as versions on disk
    assert open_current(tmp_path / "root").version == 3
