"""Aggregate the probe events ``launch.py`` writes into per-layer numbers."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from common import BenchError, quantile


class Probes:
    def __init__(self, events: dict, since: float = float("-inf")) -> None:
        # keep calls that started inside the measured window only
        self.events = {}
        for name, rows in events.items():
            kept = [row for row in rows if row[0] >= since]
            if kept:
                self.events[name] = np.array(kept, dtype=np.float64)

    @classmethod
    def load(cls, *paths: Path, since: float = float("-inf")) -> "Probes":
        merged: dict = {}
        for path in paths:
            for name, rows in json.loads(Path(path).read_text()).items():
                merged.setdefault(name, []).extend(rows)
        return cls(merged, since)

    def _rows(self, name: str) -> np.ndarray:
        return self.events.get(name, np.zeros((0, 2)))

    def calls(self, name: str) -> int:
        return len(self._rows(name))

    def total(self, name: str) -> float:
        return float(self._rows(name)[:, 1].sum())

    def mean(self, name: str) -> float:
        rows = self._rows(name)
        return float(rows[:, 1].mean()) if len(rows) else 0.0

    def extra(self, name: str, index: int) -> np.ndarray:
        rows = self._rows(name)
        return rows[:, 2 + index] if len(rows) else np.zeros(0)

    def max_extra(self, name: str, index: int) -> float:
        values = self.extra(name, index)
        return float(values.max()) if len(values) else 0.0

    def reweighting(self, out, per: int = 1) -> None:
        """Sweep time and count (per ``per`` units of work) and
        microseconds per node per sweep."""
        names = ("core.reweighting.backward", "core.reweighting.forward")
        seconds = sum(self.total(n) for n in names)
        sweeps = sum(self.calls(n) for n in names)
        node_sweeps = sum(float(self.extra(n, 0).sum()) for n in names)
        out.metric("core.reweighting.sweep_s", seconds / per, "s")
        out.metric("core.reweighting.sweeps", sweeps / per, "count")
        out.metric("core.reweighting.node_us",
                   seconds / node_sweeps * 1e6 if node_sweeps else 0.0, "us")

    def layers(self, out, per: int = 1) -> None:
        """Every probe-derived per-layer metric, per ``per`` units of
        work (a fit, a batch). A layer the workload never called in the
        window reads 0: its calls and its time are both none."""
        for metric, probe in PER_UNIT_SECONDS.items():
            out.metric(metric, self.total(probe) / per, "s")
        for metric, probe in PER_UNIT_CALLS.items():
            out.metric(metric, self.calls(probe) / per, "count")
        out.metric("linalg.bksvd_peak_mb",
                   self.max_extra("linalg.bksvd", 0), "MB")
        out.metric("core.approx_ppr.propagation_s",
                   (self.total("core.approx_ppr_state")
                    - self.total("linalg.bksvd")) / per, "s")
        self.reweighting(out, per)
        refresh = "streaming.incremental.refresh"
        out.metric("streaming.incremental.touched",
                   self.extra(refresh, 0).sum() / per, "count")
        out.metric("streaming.incremental.sweeps",
                   self.extra(refresh, 1).sum() / per, "count")
        # server side of a hot swap: open_current of the new version
        # plus the registry swap, per swap
        swap = "serving.registry.swap"
        out.metric("serving.registry.swap_s",
                   (self.total(swap) + self.extra(swap, 0).sum())
                   / max(1, self.calls(swap)), "s")
        topk = "serving.engine.topk"
        hits = self.extra(topk, 1).sum()
        misses = self.extra(topk, 2).sum()
        out.metric("serving.engine.topk_ms", self.mean(topk) * 1e3, "ms")
        out.metric("serving.engine.batch_nodes",
                   float(self.extra(topk, 0).mean()) if self.calls(topk)
                   else 0.0, "count")
        out.metric("serving.engine.cache_hit_ratio",
                   hits / (hits + misses) if hits + misses else 0.0, "1")


# per-layer metric -> probe, as seconds or calls per unit of work
PER_UNIT_SECONDS = {
    "graph.read_s": "graph.read_edge_list",
    "linalg.bksvd_s": "linalg.bksvd",
    "core.nrp.warm_refit_s": "core.nrp.warm_refit",
    "parallel.map_s": "parallel.parallel_map",
    "serving.store.export_s": "serving.store.export_store",
    "serving.store.publish_s": "serving.store.publish_version",
    "streaming.delta.compact_s": "streaming.delta.compact",
    "streaming.incremental.refresh_s": "streaming.incremental.refresh",
    "ppr.kernels.spread_frontier_s": "ppr.kernels.spread_frontier",
}
PER_UNIT_CALLS = {
    "parallel.map_calls": "parallel.parallel_map",
    "ppr.kernels.spread_frontier_calls": "ppr.kernels.spread_frontier",
}


def http_layers(out, access_log: Path | None, since_wall: float) -> None:
    """Queue wait, batch size and self time from the server's access
    log; all 0 on a workload that runs no server."""
    rows = []
    if access_log is not None:
        rows = [json.loads(line) for line in
                access_log.read_text().splitlines() if line.strip()]
        rows = [r for r in rows if r.get("ts", 0) >= since_wall
                and r.get("route") == "/v1/{model}/topk"
                and "engine_ms" in r]
        if not rows:
            raise BenchError("access log has no topk requests in the window")
    wait = np.array([r["queue_wait_ms"] for r in rows])
    self_ms = np.array([r["duration_ms"] - r["queue_wait_ms"] - r["engine_ms"]
                        for r in rows])
    out.metric("serving.http.queue_wait_ms",
               wait.mean() if rows else 0.0, "ms")
    out.metric("serving.http.queue_wait_p99_ms",
               quantile(wait, 0.99) if rows else 0.0, "ms")
    # each member of a b-request batch logs batch_size b: sum(1/b) counts
    # the batches, so this is requests per engine call
    out.metric("serving.http.batch_requests",
               len(rows) / sum(1.0 / r["batch_size"] for r in rows)
               if rows else 0.0, "count")
    out.metric("serving.http.self_ms", self_ms.mean() if rows else 0.0, "ms")
