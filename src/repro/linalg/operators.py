"""Block-sparse linear operators for the chunked fit pipeline.

:class:`BlockSparseOperator` wraps a scipy CSR matrix and evaluates
``op @ dense`` one row-chunk at a time, optionally fanning the chunks
out to worker threads. Two properties make it a drop-in replacement
for the raw matrix inside :func:`repro.linalg.bksvd` /
:func:`repro.linalg.randomized_svd` (which only ever form matrix–block
products):

* each output row is computed with exactly the arithmetic a full CSR
  product uses, so the result is **bit-identical** to ``csr @ dense``
  for any chunk grid or worker count;
* the transpose is materialized once as CSR (rows of ``A^T``), so
  ``op.T @ dense`` is row-chunkable the same way — and accumulates each
  output element in the same ascending-index order scipy's CSC kernel
  uses, preserving bit-identity there too.

Peak dense memory per task is one ``chunk_size x k`` block, which is
what lets the SVD stage run on graphs whose full dense product would
not fit alongside the rest of the pipeline.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..errors import DimensionError
from ..parallel import parallel_map
from ..ppr.chunks import iter_chunks

__all__ = ["BlockSparseOperator"]


def _matmul_chunk(block: tuple[int, int, sp.csr_matrix], dense: np.ndarray,
                  out: np.ndarray) -> None:
    start, stop, rows = block
    out[start:stop] = rows @ dense


class BlockSparseOperator:
    """A CSR matrix evaluated in row chunks, optionally in parallel.

    Parameters
    ----------
    matrix:
        Any scipy sparse matrix; converted to CSR once.
    chunk_size:
        Rows per block (``None`` = package default grid).
    workers:
        Worker threads for the chunk map; 1 = in the calling thread.
    """

    def __init__(self, matrix, *, chunk_size: int | None = None,
                 workers: int = 1) -> None:
        self._matrix = sp.csr_matrix(matrix)
        self.chunk_size = chunk_size
        self.workers = workers
        # row blocks are sliced once: slicing per product costs more
        # than the threads win on a graph-sized operand
        self._blocks = [(start, stop, self._matrix[start:stop])
                        for start, stop in iter_chunks(self.shape[0],
                                                       chunk_size)]
        self._transpose: "BlockSparseOperator | None" = None

    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self._matrix.shape

    @property
    def dtype(self):
        return self._matrix.dtype

    @property
    def matrix(self) -> sp.csr_matrix:
        """The wrapped CSR matrix."""
        return self._matrix

    @property
    def T(self) -> "BlockSparseOperator":
        """The transposed operator (transpose materialized as CSR once)."""
        if self._transpose is None:
            t_csr = self._matrix.T.tocsr()
            t_csr.sort_indices()
            self._transpose = BlockSparseOperator(
                t_csr, chunk_size=self.chunk_size, workers=self.workers)
            self._transpose._transpose = self
        return self._transpose

    # ------------------------------------------------------------------
    def __matmul__(self, dense) -> np.ndarray:
        dense = np.asarray(dense)
        if dense.ndim not in (1, 2) or dense.shape[0] != self.shape[1]:
            raise DimensionError(
                f"operand of shape {dense.shape} does not match operator "
                f"shape {self.shape}")
        # C order once here: scipy would otherwise copy a strided
        # operand into C order again for every chunk
        dense = np.ascontiguousarray(dense)
        rows = self.shape[0]
        out = np.empty((rows,) + dense.shape[1:],
                       dtype=np.result_type(self.dtype, dense.dtype))
        parallel_map(_matmul_chunk, self._blocks, dense, out,
                     workers=self.workers)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"BlockSparseOperator(shape={self.shape}, "
                f"nnz={self._matrix.nnz}, chunk_size={self.chunk_size}, "
                f"workers={self.workers})")
