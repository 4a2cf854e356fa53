"""Batched online query engine over one embedding model.

The offline side of the paper produces ``X``/``Y`` (or ``Z``); the
online side — the part that actually serves recommendation traffic in
production PPR systems — answers two queries:

* ``topk(src_nodes, k)``: the ``k`` highest-proximity nodes for each
  source, i.e. the head of ``argsort(-score_all_from(src))``;
* ``score(src, dst)``: exact proximity of explicit pairs.

:class:`QueryEngine` wraps any fitted :class:`~repro.embedder.Embedder`,
loaded :class:`~repro.io.EmbeddingBundle`, or mmap'd
:class:`~repro.serving.store.EmbeddingStore` behind those two calls,
routing top-k through a pluggable :mod:`~repro.serving.index` backend
and memoizing hot sources in a small LRU cache (real query streams are
heavily skewed, so even a tiny cache absorbs a large share of traffic).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..embedder import has_custom_scoring
from ..errors import ParameterError, ReproError
from .index import TopKIndex, build_index

__all__ = ["QueryEngine", "CacheStats"]


@dataclass
class CacheStats:
    """Hit/miss counters for the engine's top-k LRU cache.

    ``hit_rate`` is defined as 0.0 before any request has been seen
    (not NaN / ZeroDivisionError — dashboards divide by these numbers).
    The same counters feed the ``serving_cache_{hits,misses}_total``
    metrics series when :mod:`repro.obs` collection is enabled, so the
    in-process view and the exported view cannot drift apart.
    """

    hits: int = 0
    misses: int = 0
    capacity: int = 0
    size: int = field(default=0)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        """JSON-ready form (what the CLIs and snapshots embed)."""
        return {"hits": self.hits, "misses": self.misses,
                "capacity": self.capacity, "size": self.size,
                "hit_rate": self.hit_rate}


def _resolve_matrices(source) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(query_matrix, database_matrix)`` for a model-like source.

    Directional methods score ``X_u . Y_v``: queries come from the
    forward matrix, the index is built over the backward matrix.
    Single-vector methods use the one matrix for both sides.
    """
    name = getattr(source, "name", type(source).__name__)
    # A model whose native score is not an inner product (e.g. RaRE's
    # sigmoid rule) cannot be served by a dot-product index — that
    # would silently return different scores than the model itself.
    # has_custom_scoring also honors the marker a bundle/store carries.
    if has_custom_scoring(source):
        raise ParameterError(
            f"{name}: uses a non-inner-product scoring rule, which the "
            f"serving index cannot reproduce")
    if getattr(source, "directional", False):
        queries, database = source.forward_, source.backward_
    else:
        queries = database = source.embedding_
    if queries is None or database is None:
        raise ReproError(
            f"{name}: source has no fitted matrices "
            "(call fit() or load a bundle)")
    return queries, database


class QueryEngine:
    """Top-k / pair-score serving facade over one embedding model."""

    def __init__(self, source, *, index: str | TopKIndex = "exact",
                 cache_size: int = 1024, **index_options) -> None:
        self._queries, self._database = _resolve_matrices(source)
        self.name: str = getattr(source, "name", type(source).__name__)
        self.directional: bool = bool(getattr(source, "directional", False))
        self.source = source
        self.index = self._make_index(index, index_options)
        if cache_size < 0:
            raise ParameterError("cache_size must be >= 0")
        self._cache_capacity = int(cache_size)
        self._cache: OrderedDict[tuple[int, int], tuple[np.ndarray,
                                                        np.ndarray]]
        self._cache = OrderedDict()
        # Serving is multi-threaded (registry hot swaps, concurrent
        # readers); the LRU bookkeeping is the one mutable spot, so its
        # compound operations (get + move_to_end, put + evict) take a
        # lock. Index searches run outside it and stay parallel.
        self._cache_lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        # cached metric handles (rebuilt when the registry is cleared);
        # saves the per-call name+label series lookups on the hot path
        self._obs_series: tuple | None = None

    def _make_index(self, index, index_options: dict):
        """Build (or validate) the top-k backend for ``self._database``.

        Subclasses override this to route retrieval differently (the
        sharded engine swaps in a scatter-gather router) while keeping
        the batching/LRU machinery of this class untouched.
        """
        if isinstance(index, TopKIndex):
            if index_options:
                raise ParameterError(
                    "index_options only apply when building by kind name")
            if index.num_items != self._database.shape[0]:
                raise ParameterError(
                    f"prebuilt index holds {index.num_items} items but the "
                    f"model has {self._database.shape[0]} nodes")
            return index
        return build_index(self._database, index, **index_options)

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self._queries.shape[0]

    # ------------------------------------------------------------------
    def topk(self, src_nodes, k=10,
             ) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` neighbors by proximity score for each source node.

        ``src_nodes`` may be a scalar node id (returns ``(k,)`` arrays)
        or a sequence (returns ``(len(src_nodes), k)`` arrays). The
        result is ``(indices, scores)`` sorted by descending score; with
        the exact backend the indices match
        ``argsort(-score_all_from(src))[:k]``.

        ``k`` may also be one value per source node (a 1-D sequence as
        long as ``src_nodes``): the result is as wide as the largest,
        and row ``i`` holds its top ``k[i]`` followed by index ``-1`` /
        score ``-inf``. Each row reads and fills the cache at its own
        ``k``, so a request batched with wider peers keeps its entries.
        """
        if not obs.enabled():
            return self._topk(src_nodes, k)
        latency, batch_size, hits, misses = self._metric_handles()
        hits0, misses0 = self._hits, self._misses
        start = time.perf_counter()
        try:
            return self._topk(src_nodes, k)
        finally:
            # exemplar: a sampled serving request links its trace id to
            # the latency observation (no-op outside a request context)
            latency.observe(time.perf_counter() - start,
                            obs.requestctx.exemplar())
            batch_size.observe(max(1, np.size(src_nodes)))
            # deltas, not absolutes: concurrent topk calls each publish
            # their own counter increments; clamp against a racing
            # cache_clear() flooring the totals mid-flight
            hits.inc(max(0, self._hits - hits0))
            misses.inc(max(0, self._misses - misses0))

    def _metric_handles(self) -> tuple:
        """Hot-path metric handles, re-resolved after a registry clear."""
        registry = obs.get_registry()
        cached = self._obs_series
        if cached is not None and cached[0] == registry.generation:
            return cached[1]
        labels = {"engine": self.name}
        handles = (registry.histogram("serving_topk_seconds", labels),
                   registry.histogram("serving_topk_batch_size", labels),
                   registry.counter("serving_cache_hits_total", labels),
                   registry.counter("serving_cache_misses_total", labels))
        self._obs_series = (registry.generation, handles)
        return handles

    def _topk(self, src_nodes, k) -> tuple[np.ndarray, np.ndarray]:
        nodes = np.atleast_1d(np.asarray(src_nodes, dtype=np.int64))
        scalar = np.isscalar(src_nodes) or getattr(src_nodes, "ndim", 1) == 0
        if nodes.ndim != 1:
            raise ParameterError("src_nodes must be a scalar or 1-D")
        row_k = None                    # per-row k, or None: k for all
        if np.ndim(k):
            row_k = np.asarray(k, dtype=np.int64)
            if row_k.shape != nodes.shape:
                raise ParameterError(
                    "a per-node k must have one entry per source node")
            k = int(row_k.max(initial=1))
            if row_k.size and row_k.min() < 1:
                raise ParameterError("k must be >= 1")
        if k < 1:
            raise ParameterError("k must be >= 1")
        if len(nodes) and (nodes.min() < 0 or nodes.max() >= self.num_nodes):
            raise ParameterError(
                f"src node out of range [0, {self.num_nodes})")

        if len(nodes) == 0:
            # same column convention as the non-empty path: the index
            # decides the width (min(k, num_items)), not the engine
            empty = np.empty((0, min(k, self.index.num_items)))
            return empty.astype(np.int64), empty.astype(np.float64)
        if not self._cache_capacity:
            # cache disabled: skip the per-node bookkeeping entirely
            with self._cache_lock:
                self._misses += len(nodes)
            out_ids, out_scores = self.index.search(self._queries[nodes], k)
            if row_k is not None:
                beyond = np.arange(out_ids.shape[1]) >= row_k[:, None]
                out_ids[beyond], out_scores[beyond] = -1, -np.inf
            if scalar:
                return out_ids[0], out_scores[0]
            return out_ids, out_scores
        k_at = (lambda pos: k) if row_k is None else \
            (lambda pos: int(row_k[pos]))
        missing: list[int] = []
        cached: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for pos, node in enumerate(nodes):
            entry = self._cache_get(int(node), k_at(pos))
            if entry is None:
                missing.append(pos)
            else:
                cached[pos] = entry
        if missing:
            # dedupe: a hot node repeated in one batch is searched once
            uniq, inverse = np.unique(nodes[missing], return_inverse=True)
            ids, scores = self.index.search(
                self._queries[uniq], max(k_at(pos) for pos in missing))
            entries: dict[tuple[int, int], tuple] = {}
            for j, pos in enumerate(missing):
                row, row_width = int(inverse[j]), k_at(pos)
                entry = entries.get((row, row_width))
                if entry is None:
                    # copy: a cached row must not pin the batch result
                    entry = entries[row, row_width] = (
                        ids[row, :row_width].copy(),
                        scores[row, :row_width].copy())
                    self._cache_put(int(uniq[row]), row_width, entry)
                cached[pos] = entry
        if row_k is None:
            # np.stack allocates fresh arrays, so callers can't corrupt
            # the cached rows; only the scalar path needs a copy.
            out_ids = np.stack([cached[p][0] for p in range(len(nodes))])
            out_scores = np.stack([cached[p][1]
                                   for p in range(len(nodes))])
        else:                           # narrower rows padded -1 / -inf
            width = min(k, self.index.num_items)
            out_ids = np.full((len(nodes), width), -1, np.int64)
            out_scores = np.full((len(nodes), width), -np.inf,
                                 cached[0][1].dtype)
            for pos, (row_ids, row_scores) in cached.items():
                out_ids[pos, :len(row_ids)] = row_ids
                out_scores[pos, :len(row_scores)] = row_scores
        if scalar:
            return out_ids[0].copy(), out_scores[0].copy()
        return out_ids, out_scores

    def score(self, src, dst) -> np.ndarray:
        """Exact proximity score for aligned ``(src, dst)`` pairs.

        ``src`` and ``dst`` are equal-length sequences of node ids; a
        scalar on either side broadcasts against the other (one source
        scored against many destinations, or the reverse). Mismatched
        lengths raise :class:`~repro.errors.ParameterError` — this is
        the malformed-request shape the HTTP ``/score`` route turns
        into a 400.
        """
        if not obs.enabled():
            return self._score(src, dst)
        start = time.perf_counter()
        try:
            return self._score(src, dst)
        finally:
            obs.get_registry().histogram(
                "serving_score_seconds",
                {"engine": self.name}).observe(time.perf_counter() - start)

    def _score(self, src, dst) -> np.ndarray:
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        for label, nodes in (("src", src), ("dst", dst)):
            if nodes.ndim > 1:
                raise ParameterError(
                    f"{label} must be a scalar node id or a 1-D sequence, "
                    f"got a {nodes.ndim}-D array")
        if src.ndim != dst.ndim:
            # scalar-vs-array: score one fixed endpoint against many
            src, dst = np.broadcast_arrays(src, dst)
        elif src.shape != dst.shape:
            raise ParameterError(
                f"src and dst must be aligned pairs: got {src.size} src "
                f"node(s) vs {dst.size} dst node(s)")
        for label, nodes in (("src", src), ("dst", dst)):
            if nodes.size and (nodes.min() < 0
                               or nodes.max() >= self.num_nodes):
                raise ParameterError(
                    f"{label} node out of range [0, {self.num_nodes})")
        return np.einsum("ij,ij->i", np.atleast_2d(self._queries[src]),
                         np.atleast_2d(self._database[dst]))

    #: Alias so an engine can stand in for an embedder in the tasks.
    score_pairs = score

    # ------------------------------------------------------------------
    def _cache_get(self, node: int, k: int,
                   ) -> tuple[np.ndarray, np.ndarray] | None:
        with self._cache_lock:
            entry = self._cache.get((node, k))
            if entry is None:
                self._misses += 1
                return None
            self._cache.move_to_end((node, k))
            self._hits += 1
            return entry

    def _cache_put(self, node: int, k: int,
                   entry: tuple[np.ndarray, np.ndarray]) -> None:
        with self._cache_lock:
            self._cache[(node, k)] = entry
            self._cache.move_to_end((node, k))
            while len(self._cache) > self._cache_capacity:
                self._cache.popitem(last=False)

    def cache_stats(self) -> CacheStats:
        """Current LRU cache counters.

        With :mod:`repro.obs` enabled this also refreshes the
        ``serving_cache_hit_rate`` / ``serving_cache_size`` gauges, so
        a snapshot exported after a traffic run carries the cache's
        effectiveness without a separate publishing step.
        """
        with self._cache_lock:
            stats = CacheStats(hits=self._hits, misses=self._misses,
                               capacity=self._cache_capacity,
                               size=len(self._cache))
        if obs.enabled():
            registry = obs.get_registry()
            labels = {"engine": self.name}
            registry.gauge("serving_cache_hit_rate", labels).set(
                stats.hit_rate)
            registry.gauge("serving_cache_size", labels).set(stats.size)
        return stats

    def cache_clear(self) -> None:
        """Drop every cached result and reset the counters."""
        with self._cache_lock:
            self._cache.clear()
            self._hits = self._misses = 0

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release resources held by the retrieval backend.

        The flat engine holds nothing beyond numpy arrays, so this is a
        no-op; the sharded engine shuts its router's thread pool down
        here. :class:`~repro.serving.registry.ServingRegistry` calls it
        on every engine it evicts (swap / unregister / close), so a
        long-lived server churning hot swaps does not strand idle
        threads. Closing is safe while queries are still in flight —
        backends degrade to serial execution rather than failing.
        """

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"QueryEngine(name={self.name!r}, n={self.num_nodes}, "
                f"index={self.index.kind!r})")
