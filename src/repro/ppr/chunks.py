"""Shared row-chunk grid used by every chunked kernel in the package.

The fit pipeline's chunked stages (block-sparse operator products for
the SVD and the power iterations, reweighting precomputation) all
partition node rows the same way: contiguous ``[start, stop)`` blocks of
``chunk_size`` rows. Centralizing the grid matters for determinism —
results of a chunked computation are a function of the grid, so two
stages (or two worker counts) that share ``chunk_size`` produce
bit-identical outputs.
"""

from __future__ import annotations

from typing import Iterator

from ..errors import ParameterError

__all__ = ["DEFAULT_CHUNK_SIZE", "resolve_chunk_size", "iter_chunks",
           "num_chunks"]

#: Default rows per chunk when the caller does not pin one. Large enough
#: that per-chunk overhead (one task hand-off, one BLAS call) amortizes,
#: small enough that a chunk of a 128-dim float64 embedding stays in the
#: low tens of megabytes.
DEFAULT_CHUNK_SIZE = 8192


def resolve_chunk_size(num_rows: int, chunk_size: int | None = None) -> int:
    """Validate and resolve a chunk size for ``num_rows`` rows.

    ``None`` selects :data:`DEFAULT_CHUNK_SIZE`; the result is clamped
    to ``[1, num_rows]`` (a single full-width chunk degenerates to the
    unchunked computation). Non-positive explicit values raise
    :class:`ParameterError` — the resolved grid must never depend on a
    silently "fixed up" input.
    """
    if num_rows < 0:
        raise ParameterError(f"num_rows must be >= 0, got {num_rows}")
    if chunk_size is None:
        chunk_size = DEFAULT_CHUNK_SIZE
    if int(chunk_size) != chunk_size or chunk_size < 1:
        raise ParameterError(f"chunk_size must be a positive integer, "
                             f"got {chunk_size!r}")
    return max(1, min(int(chunk_size), max(num_rows, 1)))


def iter_chunks(num_rows: int, chunk_size: int | None = None,
                ) -> Iterator[tuple[int, int]]:
    """Yield ``(start, stop)`` row bounds covering ``0 .. num_rows``."""
    size = resolve_chunk_size(num_rows, chunk_size)
    for start in range(0, num_rows, size):
        yield start, min(num_rows, start + size)


def num_chunks(num_rows: int, chunk_size: int | None = None) -> int:
    """Number of chunks :func:`iter_chunks` will yield."""
    size = resolve_chunk_size(num_rows, chunk_size)
    return max(0, -(-num_rows // size))
