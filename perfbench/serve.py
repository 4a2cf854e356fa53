"""``serve``: open-loop ``/v1/{model}/topk`` load on ``repro-serve serve``.

Set-up writes an NRP-shaped 50k x 128 bundle, exports it with
``repro-serve export`` and boots ``repro-serve serve`` at its defaults.
The load is single-node top-10 requests with Zipf-skewed node ids, sent
at fixed spacing over two keep-alive connections: a cache fill and a
window at the nominal rate on each of several server boots (latency),
then up a rate ladder on the last boot (capacity).
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import time
from pathlib import Path

import numpy as np

import inputs
import loadgen
from common import BenchError, Children, Outcome, cli, now, quantile
from probes import Probes, http_layers

NOMINAL_RPS = 250.0
SETUPS = 5               # timed set-ups: generate, export, boot
SESSIONS = 4             # server boots each measured for one window
# Before each window the server's LRU cache is filled with what an LRU
# of its size holds after FILL_DRAWS Zipf draws: a simulated LRU over
# these draws is full after ~7k and holds its ~0.89 hit ratio from ~10k
# on. The ids go out as small bulk requests; larger ones raised the
# server's peak RSS by up to 90 MB and made serve_rss_mb vary. WARMUP_S
# of single-node requests at the nominal rate then warm the connections
# and the batcher.
CACHE_SIZE = 1024        # repro-serve serve --cache-size default
FILL_DRAWS = 12_000
FILL_BULK = 8
WARMUP_S = 1.0
LIMIT_MS = 50.0          # ladder: p99 limit that counts as keeping up
LADDER_START = 400.0
COARSE, FINE = 1.25, 1.04
CHECKED = 100            # responses compared with brute-force top-k


def boot(kids: Children, store: Path, *extra: str,
         traced: Path | None = None):
    proc = kids.start(cli("serve", "serve", str(store), "--port", "0",
                          *extra, traced=traced), "repro-serve")
    _, event = proc.wait_event(lambda r: r.get("event") == "serving", 60)
    return proc, (event["port"], f"/v1/{event['model']}/topk")


def prepare(seed: int, work: Path, kids: Children) -> tuple[dict, Path]:
    """Generate the bundle in ``work`` and export it into a new store."""
    info = inputs.make_serve(seed, work / "in")
    store = work / "store"
    kids.run(cli("serve", "export", str(work / "in" / "bundle.npz"),
                 str(store)), "repro-serve-export", 120)
    return info, store


def topk_ok(fwd, bwd, node: int, ids, scores, k: int) -> bool:
    """Ids exact up to ties: a valid top-k set with its true scores."""
    truth = bwd @ fwd[node]
    ids = np.asarray(ids, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    if len(ids) != min(k, len(truth)) or len(set(ids.tolist())) != len(ids):
        return False
    tol = 1e-9 * max(1.0, float(np.abs(truth).max()))
    if not np.allclose(truth[ids], scores, rtol=0, atol=tol):
        return False
    rest = np.ones(len(truth), dtype=bool)
    rest[ids] = False
    # nothing left out may score above what was returned
    return not rest.any() or bool(truth[rest].max() <= scores.min() + tol)


def check_responses(out: Outcome, name: str, bodies, fwd, bwd, k) -> None:
    bad = 0
    for body in bodies:
        reply = json.loads(body)
        rows = reply.get("results", [reply])
        bad += not all(topk_ok(fwd, bwd, r["node"], r["neighbors"],
                               r["scores"], k) for r in rows)
    out.check(name, bad == 0 and len(bodies) > 0,
              f"{bad} of {len(bodies)} responses differ from brute force")


def latencies(results) -> np.ndarray:
    """Per-request latency from due time; failures count as infinite."""
    return np.array([(r.done - r.due) * 1e3 if r.status == 200
                     else np.inf for r in results])


def lru_contents(draws: np.ndarray, size: int) -> np.ndarray:
    """The ``size`` most recently drawn distinct ids, oldest first: what
    an LRU cache of ``size`` entries holds after serving ``draws``."""
    newest_first = draws[::-1]
    _, first = np.unique(newest_first, return_index=True)
    return newest_first[np.sort(first)][:size][::-1]


class Load:
    """Seeded Zipf request stream; ``endpoint`` follows server reboots."""

    def __init__(self, seed: int, sizes: inputs.ServeSizes):
        self.nodes = inputs.ZipfNodes(inputs.rng_for(seed, "queries"),
                                      sizes.nodes, sizes.zipf)
        self.sizes = sizes
        self.endpoint = None

    async def phase(self, rate: float, seconds: float, keep=None):
        nodes = self.nodes.draw(int(rate * seconds))
        payloads = [loadgen.topk_payload(v, self.sizes.k) for v in nodes]
        port, path = self.endpoint
        return await loadgen.run_open_loop(
            "127.0.0.1", port, path, payloads,
            np.arange(len(payloads)) / rate, keep_body=keep)

    async def fill(self) -> None:
        """Fill the cache with bulk requests, back to back."""
        nodes = lru_contents(self.nodes.draw(FILL_DRAWS), CACHE_SIZE)
        payloads = [loadgen.topk_payload(nodes[i:i + FILL_BULK],
                                         self.sizes.k)
                    for i in range(0, len(nodes), FILL_BULK)]
        port, path = self.endpoint
        done = await loadgen.run_open_loop("127.0.0.1", port, path, payloads,
                                           np.zeros(len(payloads)))
        if loadgen.failures(done):
            raise BenchError("cache fill requests failed")

    def window(self, seconds: float) -> list:
        """Fill and warm the cache, then one window at the nominal rate."""
        async def both():
            await self.fill()
            await self.phase(NOMINAL_RPS, WARMUP_S)
            return await self.phase(NOMINAL_RPS, seconds,
                                    keep=lambda i: i % 10 == 0)
        return asyncio.run(both())

    async def step(self, rate: float, seconds: float) -> tuple[bool, float]:
        """Whether a step at ``rate`` kept up, and the rate it served."""
        results = await self.phase(rate, seconds)
        lat = latencies(results)
        tail = lat[-max(1, len(lat) // 10):]    # backlog still growing?
        ok = bool(np.isfinite(lat).all() and quantile(lat, 0.99) <= LIMIT_MS
                  and quantile(tail, 0.5) <= LIMIT_MS)
        served = len(results) / (results[-1].done - results[0].due)
        return ok, served

    async def capacity(self, step_seconds: float) -> tuple[float, list]:
        """Served rate of the highest passing step: x1.25 steps up to the
        first failure, then geometric bisection to within 4%."""
        lo, hi, best, tried = 0.0, np.inf, 0.0, []
        rate = LADDER_START
        while hi / max(lo, 1e-9) > FINE:
            ok, served = await self.step(rate, step_seconds)
            tried.append((round(rate, 1), ok))
            if ok:
                lo, best = rate, served
            elif lo == 0.0:
                break                  # below the ladder: capacity 0
            else:
                hi = rate
            rate = rate * COARSE if np.isinf(hi) else np.sqrt(lo * hi)
        return best, tried


def summarize(windows) -> tuple[float, float, float]:
    """Pooled p50 and p75, and the median of the windows' p99s."""
    lat = [latencies(w) for w in windows]
    pooled = np.concatenate(lat)
    return (quantile(pooled, 0.5), quantile(pooled, 0.75),
            quantile([quantile(x, 0.99) for x in lat], 0.5))


def sample_bodies(windows, seed: int) -> list:
    bodies = [r.body for w in windows for r in w if r.body]
    rng = np.random.default_rng(seed)
    pick = rng.choice(len(bodies), size=min(CHECKED, len(bodies)),
                      replace=False) if bodies else []
    return [bodies[i] for i in sorted(pick)]


def store_matrices(store: Path):
    return (np.load(store / "forward.npy", mmap_mode="r"),
            np.load(store / "backward.npy", mmap_mode="r"))


def run(seed: int, seconds: float, trace: bool, work: Path,
        kids: Children) -> Outcome:
    """Timed set-ups first; then one nominal window on each of
    ``SESSIONS`` server boots (p99 spreads more between boots than
    within one), then the capacity ladder on the last boot."""
    out = Outcome()
    load = Load(seed, inputs.ServeSizes())
    window_s = seconds * 2 / 15      # 1000 requests: 10 beyond the p99
    if trace:
        return traced_run(out, seed, window_s, work, kids, load)
    setup_times = []
    for i in range(SETUPS):
        # each set-up writes into a new directory, as a user's would:
        # overwriting the last one's files made its timing swing
        if i:
            shutil.rmtree(work / f"setup-{i - 1}")
        start = now()
        out.context["inputs"], store = prepare(seed, work / f"setup-{i}",
                                               kids)
        proc = boot(kids, store)[0]
        setup_times.append(now() - start)    # up to "serving", not the stop
        proc.stop()
    os.sync()    # the export's writeback must not land in a window
    windows = []
    for session in range(SESSIONS):
        proc, load.endpoint = boot(kids, store)
        windows.append(load.window(window_s))
        if session < SESSIONS - 1:
            proc.stop()
    capacity, out.context["ladder"] = asyncio.run(
        load.capacity(seconds / 20))
    if proc.stop() != 0:
        raise BenchError("repro-serve did not shut down cleanly")
    out.count(sum(len(w) for w in windows),
              sum(loadgen.failures(w) for w in windows))
    check_responses(out, "serve.topk_exact", sample_bodies(windows, seed),
                    *store_matrices(store), load.sizes.k)
    out.context["client_late_p99_ms"] = quantile(
        np.concatenate([loadgen.late_ms(w) for w in windows]), 0.99)
    p50, p75, p99 = summarize(windows)
    out.metric("setup_s", quantile(setup_times, 0.5), "s")
    out.metric("latency_p50_ms", p50, "ms")
    out.metric("latency_p75_ms", p75, "ms")
    out.metric("peak_rss_mb", proc.peak_rss_mb, "MB")
    # p99 is bimodal here: 5.6-6.3 ms on a quiet host, 11.7-13.5 ms
    # while co-tenants stall the VM, in alternating runs of one seed set
    out.unbounded["topk_p99_ms"] = (p99, "ms")
    out.unbounded["topk_capacity_rps"] = (capacity, "req/s")
    return out


def traced_run(out, seed, window_s, work, kids, load) -> Outcome:
    """A nominal window on a plain server, then on a traced one."""
    out.context["inputs"], store = prepare(seed, work, kids)
    os.sync()
    proc, load.endpoint = boot(kids, store)
    plain = load.window(window_s)
    proc.stop()
    probes_path = work / "probes-serve.json"
    access = work / "access.jsonl"
    proc, load.endpoint = boot(kids, store, "--access-log", str(access),
                               traced=probes_path)
    since, since_wall = now(), time.time()
    traced = load.window(window_s)
    proc.stop()
    for window in (plain, traced):
        out.count(len(window), loadgen.failures(window))
    check_responses(out, "serve.topk_exact", sample_bodies([traced], seed),
                    *store_matrices(store), load.sizes.k)
    # the fill and warm-up requests are logged too; keep the window
    start = traced[0].due - 0.001
    http_layers(out, access, since_wall + (start - since))
    Probes.load(probes_path, since=start).layers(out)
    out.metric("streaming.escalated_frac", 0.0, "1")   # no stream batches
    out.metric("client.late_p99_ms",
               quantile(loadgen.late_ms(traced), 0.99), "ms")
    out.metric("obs.trace_overhead_frac",
               summarize([traced])[0] / summarize([plain])[0] - 1.0, "1")
    return out

