"""Top-k inner-product similarity indexes.

Both the paper's directional methods (score ``X_u . Y_v``) and the
single-vector baselines (score ``Z_u . Z_v``) reduce online top-k
retrieval to maximum-inner-product search over one *database* matrix
(``Y`` resp. ``Z``); the query vector comes from the other side. Two
backends cover the latency/recall trade-off:

* :class:`ExactIndex` — blocked brute force. Exact by construction and
  the parity reference for everything else; the block size bounds the
  size of the temporary score matrix so multi-million-row (mmap'd)
  databases never materialize an ``n x n`` anything.
* :class:`IVFIndex` — an inverted-file index in the FAISS style, pure
  numpy: k-means partitions the database rows into ``num_lists``
  buckets, a query scores only the ``nprobe`` buckets whose centroids
  have the largest inner product with it. Approximate, with recall
  controlled by ``nprobe``.

Both return ``(indices, scores)`` sorted by descending score, one row
per query.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..errors import ParameterError
from ..ml.kmeans import kmeans
from ..rng import ensure_rng

__all__ = ["TopKIndex", "ExactIndex", "IVFIndex", "build_index",
           "INDEX_KINDS"]


def _topk_rows(scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row top-k of a 2-D score matrix, sorted descending.

    Returns ``(columns, scores)`` of shape ``(rows, k)``.
    """
    n = scores.shape[1]
    k = min(k, n)
    if k == n:
        part = np.argsort(-scores, axis=1, kind="stable")[:, :k]
        return part, np.take_along_axis(scores, part, axis=1)
    # The k largest, not the k smallest of ``-scores``: on a multi-row
    # matrix NumPy's argpartition measured ~3x slower per row that way.
    part = np.argpartition(scores, n - k, axis=1)[:, n - k:]
    part_scores = np.take_along_axis(scores, part, axis=1)
    order = np.argsort(-part_scores, axis=1, kind="stable")
    cols = np.take_along_axis(part, order, axis=1)
    return cols, np.take_along_axis(part_scores, order, axis=1)


class TopKIndex(ABC):
    """Base class: wraps one ``(num_items, dim)`` database matrix."""

    #: Registry key, e.g. ``"exact"``.
    kind: str = "base"

    def __init__(self, database: np.ndarray) -> None:
        if database.ndim != 2 or database.shape[0] == 0:
            raise ParameterError(
                f"index database must be a non-empty 2-D matrix, "
                f"got shape {database.shape}")
        self._db = database

    @property
    def num_items(self) -> int:
        return self._db.shape[0]

    @property
    def dim(self) -> int:
        return self._db.shape[1]

    # ------------------------------------------------------------------
    def search(self, queries: np.ndarray, k: int,
               ) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` database rows per query row, by inner product.

        ``queries`` is ``(m, dim)``; returns ``(indices, scores)`` of
        shape ``(m, min(k, num_items))`` — a database smaller than ``k``
        narrows the result — with each row sorted by descending score.
        Within that width, slots a backend cannot fill (an IVF probe set
        smaller than ``k``) hold index ``-1`` and score ``-inf``.
        """
        queries = np.atleast_2d(np.asarray(queries))
        if queries.shape[1] != self.dim:
            raise ParameterError(
                f"query dim {queries.shape[1]} != index dim {self.dim}")
        if k < 1:
            raise ParameterError("k must be >= 1")
        return self._search(queries, min(k, self.num_items))

    @abstractmethod
    def _search(self, queries: np.ndarray, k: int,
                ) -> tuple[np.ndarray, np.ndarray]:
        """Backend implementation; ``k <= num_items`` is guaranteed."""


class ExactIndex(TopKIndex):
    """Blocked brute-force maximum-inner-product search."""

    kind = "exact"

    def __init__(self, database: np.ndarray, *,
                 block_rows: int = 65536) -> None:
        super().__init__(database)
        if block_rows < 1:
            raise ParameterError("block_rows must be >= 1")
        self.block_rows = int(block_rows)

    def _search(self, queries, k):
        n = self.num_items
        if n <= self.block_rows:
            return _topk_rows(queries @ self._db.T, k)
        # Running top-k merge over database blocks: memory stays
        # O(m * (block_rows + k)) regardless of n.
        best_ids = None
        best_scores = None
        for lo in range(0, n, self.block_rows):
            hi = min(lo + self.block_rows, n)
            block_scores = queries @ self._db[lo:hi].T
            cols, scores = _topk_rows(block_scores, k)
            ids = cols + lo
            if best_ids is None:
                best_ids, best_scores = ids, scores
                continue
            merged_scores = np.hstack([best_scores, scores])
            merged_ids = np.hstack([best_ids, ids])
            pos, best_scores = _topk_rows(merged_scores, k)
            best_ids = np.take_along_axis(merged_ids, pos, axis=1)
        return best_ids, best_scores


class IVFIndex(TopKIndex):
    """Coarse-quantized (inverted file) approximate index.

    The database is clustered once at build time; queries probe the
    ``nprobe`` closest clusters by centroid inner product. With
    ``num_lists ~ sqrt(n)`` a probe visits roughly
    ``nprobe / num_lists`` of the database, which is where the speedup
    over brute force comes from.

    Build-time options: ``train_size`` caps how many rows k-means sees
    (sampled without replacement); ``copy_vectors`` controls whether the
    index keeps a contiguous per-list copy of the vectors (fastest) or
    only the row-id lists, gathering vectors from the database at query
    time (no extra memory). The default is ``None``: copy for in-heap
    databases, gather for mmap'd ones — an mmap store's whole point is
    that workers share pages instead of each holding a private copy.
    """

    kind = "ivf"

    def __init__(self, database: np.ndarray, *, num_lists: int | None = None,
                 nprobe: int | None = None, train_size: int = 20000,
                 kmeans_iters: int = 25, copy_vectors: bool | None = None,
                 seed: int | None = 0) -> None:
        super().__init__(database)
        n = self.num_items
        if num_lists is None:
            num_lists = max(1, int(np.sqrt(n)))
        num_lists = min(int(num_lists), n)
        if num_lists < 1:
            raise ParameterError("num_lists must be >= 1")
        if nprobe is None:
            nprobe = max(1, num_lists // 8)
        self.num_lists = num_lists
        self.nprobe = min(int(nprobe), num_lists)
        if self.nprobe < 1:
            raise ParameterError("nprobe must be >= 1")

        rng = ensure_rng(seed)
        # k-means needs at least one training row per list
        train_size = max(int(train_size), num_lists)
        if n > train_size:
            rows = rng.choice(n, size=train_size, replace=False)
            rows.sort()
            # fancy-index first so an mmap'd database is never fully
            # materialized just to train the quantizer
            sample = np.asarray(database[rows], dtype=np.float64)
        else:
            sample = np.asarray(database, dtype=np.float64)
        _, self._centroids = kmeans(sample, num_lists,
                                    max_iters=kmeans_iters, seed=rng)
        assign = self._assign(database)
        order = np.argsort(assign, kind="stable")
        counts = np.bincount(assign, minlength=num_lists)
        self._offsets = np.concatenate([[0], np.cumsum(counts)])
        self._ids = order.astype(np.int64)
        if copy_vectors is None:
            copy_vectors = not isinstance(database, np.memmap)
        # Contiguous per-list vector storage makes each probe a cheap
        # slice instead of a fancy-index gather into the mmap.
        self._vecs = np.ascontiguousarray(database[order]) \
            if copy_vectors else None

    def _assign(self, matrix: np.ndarray, block: int = 65536) -> np.ndarray:
        """Nearest centroid (L2) for every row, computed in blocks."""
        c_sq = (self._centroids * self._centroids).sum(axis=1)
        out = np.empty(len(matrix), dtype=np.int64)
        for lo in range(0, len(matrix), block):
            rows = np.asarray(matrix[lo:lo + block], dtype=np.float64)
            d2 = c_sq[None, :] - 2.0 * (rows @ self._centroids.T)
            out[lo:lo + block] = d2.argmin(axis=1)
        return out

    def _search(self, queries, k):
        m = len(queries)
        probe_lists, _ = _topk_rows(
            np.asarray(queries, dtype=np.float64) @ self._centroids.T,
            self.nprobe)
        indices = np.full((m, k), -1, dtype=np.int64)
        scores = np.full((m, k), -np.inf)
        for i in range(m):
            spans = [(self._offsets[c], self._offsets[c + 1])
                     for c in probe_lists[i]]
            cand_ids = np.concatenate(
                [self._ids[lo:hi] for lo, hi in spans])
            if len(cand_ids) == 0:
                continue
            if self._vecs is not None:
                cand_vecs = np.vstack([self._vecs[lo:hi] for lo, hi in spans])
            else:
                cand_vecs = self._db[cand_ids]
            cand_scores = cand_vecs @ queries[i]
            kk = min(k, len(cand_ids))
            if kk == len(cand_ids):
                top = np.argsort(-cand_scores, kind="stable")
            else:
                top = np.argpartition(-cand_scores, kk - 1)[:kk]
                top = top[np.argsort(-cand_scores[top], kind="stable")]
            indices[i, :kk] = cand_ids[top]
            scores[i, :kk] = cand_scores[top]
        return indices, scores


#: kind name -> index class, for the engine/CLI factory.
INDEX_KINDS: dict[str, type[TopKIndex]] = {
    ExactIndex.kind: ExactIndex,
    IVFIndex.kind: IVFIndex,
}


def build_index(database: np.ndarray, kind: str = "exact",
                **options) -> TopKIndex:
    """Instantiate an index backend by name (``"exact"`` or ``"ivf"``)."""
    try:
        cls = INDEX_KINDS[kind]
    except KeyError:
        raise ParameterError(
            f"unknown index kind {kind!r}; known: {sorted(INDEX_KINDS)}"
            ) from None
    return cls(database, **options)
