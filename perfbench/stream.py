"""``stream``: ``repro-stream --follow`` publishing, ``repro-serve --watch``
hot-swapping, while bulk top-k reads arrive.

Set-up writes a 5k-node base graph, starts ``repro-stream --follow``
(initial fit, version 1) and a ``repro-serve serve --watch`` process on
its versioned root. The measured phase appends one valid insert/delete
batch to the delta file every ``PERIOD_S`` seconds and, concurrently,
sends uniform 32-node ``topk`` reads at ``READ_RPS``. A batch's lag runs
from its last delta line being written to the server announcing the
swap onto the version that batch produced: a batch is this workload's
unit of work, and its lag is the latency reported. Memory is the larger
peak RSS of the two processes.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import time
from pathlib import Path

import numpy as np

import inputs
import loadgen
import serve
from common import (BenchError, Children, Outcome, cli, fresh_dir, now,
                    quantile)
from probes import Probes, http_layers

# One batch per period, on a fixed schedule. The period is not a
# multiple of the 0.1 s polls, so the poll phase a batch lands on sweeps
# evenly across a run instead of sitting wherever the run started.
PERIOD_S = 0.6618
READ_RPS = 40.0
# Streamer and server share the box: with OpenBLAS sizing its pool to
# every CPU in both processes, 4 spinning BLAS threads on 2 CPUs make
# batch times bimodal (0.5 s or 1.5 s, in phases) and lag p50 swing
# 0.6-2 s between identical runs. One BLAS thread per process keeps the
# workload steady; fit and serve run with the default pool.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1"}
SETUPS = 3
POLL_S = "0.1"           # repro-stream --poll-interval / serve --watch
CHECKED = 30             # churn reads compared with brute-force top-k
SWAP_TIMEOUT_S = 30.0


class Session:
    """One streamer + one watching server over a fresh versioned root."""

    def __init__(self, seed: int, work: Path, kids: Children,
                 traced: bool = False) -> None:
        start = now()
        self.sizes = inputs.StreamSizes()
        self.info = inputs.make_stream(seed, work / "in")
        self.batches = json.loads((work / "in" / "batches.json").read_text())
        self.deltas = work / "deltas.txt"
        self.deltas.write_text("")
        self.root = fresh_dir(work / "root")
        self.probe_files = ([work / "probes-stream.json",
                             work / "probes-serve.json"] if traced
                            else [None, None])
        self.access = work / "access.jsonl"
        batch = self.sizes.inserts + self.sizes.deletes
        self.streamer = kids.start(cli(
            "stream", str(work / "in" / "base.txt"), str(self.deltas),
            str(self.root), "--directed",
            "--num-nodes", str(self.sizes.nodes),
            "--batch-size", str(batch), "--follow",
            "--poll-interval", POLL_S, traced=self.probe_files[0]),
            "repro-stream")
        self.streamer.wait_event(lambda r: r.get("event") == "publish", 120)
        extra = ("--access-log", str(self.access)) if traced else ()
        self.server, (self.port, self.path) = serve.boot(
            kids, self.root, "--watch", POLL_S, *extra,
            traced=self.probe_files[1])
        self.setup_s = now() - start

    async def _write(self, count: int, start: float) -> list[float]:
        stamps = []
        for i in range(count):
            await asyncio.sleep(max(0.0, start + i * PERIOD_S - now()))
            with open(self.deltas, "a", encoding="utf-8") as fh:
                fh.write(self.batches[i])
            stamps.append(now())
        return stamps

    async def _churn(self, count: int, rng) -> tuple[list, list]:
        reads = int(READ_RPS * count * PERIOD_S)
        payloads = [loadgen.topk_payload(
            rng.choice(self.sizes.nodes, self.sizes.read_nodes,
                       replace=False), self.sizes.k) for _ in range(reads)]
        keep = set(rng.choice(reads, size=min(CHECKED, reads),
                              replace=False).tolist())
        writes, results = await asyncio.gather(
            self._write(count, now() + 0.05),
            loadgen.run_open_loop("127.0.0.1", self.port, self.path,
                                  payloads, np.arange(reads) / READ_RPS,
                                  keep_body=keep.__contains__))
        return writes, results

    def measure(self, count: int, seed: int, out: Outcome) -> dict:
        """Write ``count`` batches under read load; lags and reads."""
        if count > len(self.batches):
            raise BenchError(f"only {len(self.batches)} batches generated")
        rng = inputs.rng_for(seed, "queries")
        since, since_wall = now(), time.time()
        writes, reads = asyncio.run(self._churn(count, rng))
        last = count + 1                       # version 1 is the base fit
        try:
            self.server.wait_event(lambda r: r.get("event") == "swap"
                                   and r.get("version") == last,
                                   SWAP_TIMEOUT_S)
            # the server may see the version before the streamer has
            # printed its batch line
            self.streamer.wait_event(lambda r: r.get("event") == "batch"
                                     and r.get("version") == last, 5.0)
        except BenchError:
            pass                               # counted as missed below
        swaps = {r["version"]: t for t, r in self.server.events
                 if r.get("event") == "swap"}
        published = {r["version"]: r for _, r in self.streamer.events
                     if r.get("event") == "batch"}
        lags = np.array([swaps.get(i + 2, np.inf) - w
                         for i, w in enumerate(writes)])
        out.count(count, int(np.isinf(lags).sum()))
        out.count(len(reads), loadgen.failures(reads))
        self.check(out, count, published, swaps, reads)
        return {"since": since, "since_wall": since_wall, "lags": lags,
                "reads": reads, "published": published}

    def version_matrices(self) -> dict:
        found = {}
        for vdir in self.root.iterdir():
            manifest = vdir / "store.json"
            if manifest.is_file():
                version = json.loads(manifest.read_text())["version"]
                found[version] = serve.store_matrices(vdir)
        return found

    def check(self, out: Outcome, count: int, published: dict, swaps: dict,
              reads: list) -> None:
        want = set(range(2, count + 2))
        out.check("stream.all_versions_swapped",
                  set(published) == want and want <= set(swaps),
                  f"published {sorted(set(published) ^ want)} off, "
                  f"not swapped {sorted(want - set(swaps))}")
        arcs = (self.sizes.arcs
                + count * (self.sizes.inserts - self.sizes.deletes))
        final = published.get(count + 1, {}).get("num_edges")
        out.check("stream.final_arc_count", final == arcs,
                  f"{final} arcs, want {arcs}")
        matrices = self.version_matrices()

        def live(t: float) -> int:
            """Newest version announced by time ``t``."""
            return max([1] + [v for v, s in swaps.items() if s <= t])

        bad, checked = 0, 0
        for res in reads:
            if not res.body or res.status != 200:
                continue
            # a swap lands a little before the server's line announcing
            # it, so the window reaches past the response
            seen = range(live(res.due), live(res.done + 0.1) + 1)
            bad += not any(_matches(res.body, *matrices[v], self.sizes.k)
                           for v in seen if v in matrices)
            checked += 1
        out.check("stream.reads_exact", checked > 0 and bad == 0,
                  f"{bad} of {checked} churn reads match no live version")

    def stop(self) -> tuple[int, int]:
        return self.streamer.stop(), self.server.stop()


def _matches(body: bytes, fwd, bwd, k: int) -> bool:
    reply = json.loads(body)
    return all(serve.topk_ok(fwd, bwd, r["node"], r["neighbors"],
                             r["scores"], k) for r in reply["results"])


def batch_count(seconds: float) -> int:
    return max(1, int((seconds - 3.0) / PERIOD_S))


def run(seed: int, seconds: float, trace: bool, work: Path,
        kids: Children) -> Outcome:
    out = Outcome()
    kids.env.update(BLAS_ENV)
    out.context["stream_env"] = BLAS_ENV
    if trace:
        return traced_run(out, seed, seconds, work, kids)
    setups = []
    for i in range(SETUPS):        # set-ups run one at a time
        if setups:
            # each in a new directory, as in serve's set-up
            setups[-1].stop()
            shutil.rmtree(work / f"setup-{i - 1}")
        setups.append(Session(seed, work / f"setup-{i}", kids))
    session = setups[-1]
    out.context["inputs"] = session.info
    result = session.measure(batch_count(seconds), seed, out)
    session.stop()
    rss = max(session.streamer.peak_rss_mb, session.server.peak_rss_mb)
    lags, lat = result["lags"], serve.latencies(result["reads"])
    out.context["batches"] = len(lags)
    out.context["escalations"] = sum(
        bool(r.get("escalated")) for r in result["published"].values())
    out.context["client_late_p99_ms"] = quantile(
        loadgen.late_ms(result["reads"]), 0.99)
    out.metric("setup_s", quantile([x.setup_s for x in setups], 0.5), "s")
    out.metric("latency_p50_ms", quantile(lags, 0.5) * 1e3, "ms")
    out.metric("latency_p75_ms", quantile(lags, 0.75) * 1e3, "ms")
    out.metric("peak_rss_mb", rss, "MB")
    out.unbounded["stream_read_p50_ms"] = (quantile(lat, 0.5), "ms")
    out.unbounded["stream_read_p99_ms"] = (quantile(lat, 0.99), "ms")
    return out


def traced_run(out: Outcome, seed: int, seconds: float, work: Path,
               kids: Children) -> Outcome:
    """Half the batches on plain processes, half on traced ones."""
    count = batch_count(seconds / 2)
    plain = Session(seed, work / "plain", kids)
    base = plain.measure(count, seed, out)
    plain.stop()
    session = Session(seed, work / "traced", kids, traced=True)
    result = session.measure(count, seed, out)
    session.stop()
    out.context["inputs"] = session.info
    probes = Probes.load(*session.probe_files, since=result["since"])
    batches = max(1, len(result["lags"]))
    probes.layers(out, per=batches)
    out.metric("streaming.escalated_frac",
               sum(bool(r.get("escalated"))
                   for r in result["published"].values()) / batches, "1")
    http_layers(out, session.access, result["since_wall"])
    out.metric("client.late_p99_ms",
               quantile(loadgen.late_ms(result["reads"]), 0.99), "ms")
    out.metric("obs.trace_overhead_frac",
               quantile(result["lags"], 0.5) / quantile(base["lags"], 0.5)
               - 1.0, "1")
    return out
