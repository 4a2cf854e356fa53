"""Deterministic chunk map on a thread pool.

The fit pipeline splits row-parallel work (sparse products, reweighting
precomputation) into row chunks and maps a chunk function over them.
Chunk functions receive their inputs as arguments and write their rows
into a preallocated output, so no input is copied to a worker and no
output is stitched together afterwards. The chunks run on threads: the
heavy work inside them is NumPy BLAS and SciPy sparse kernels, which
release the GIL, so the threads share the caller's arrays and overlap
on real cores.

Two properties are load-bearing and guaranteed here:

* **Determinism regardless of worker count.** Chunk boundaries are a
  function of ``chunk_size`` alone (see :mod:`repro.ppr.chunks`), every
  chunk is computed with the same arithmetic on whichever thread runs
  it, and results come back in task order — so the bits of the output
  never depend on ``workers``.
* **No thread outlives the call.** Each call opens its own pool and
  joins it before returning; starting a thread costs far less than one
  chunk of work.

``workers`` is capped at the number of usable cores: oversubscribing a
machine only adds contention without changing results.

:func:`limit_blas_threads` caps OpenBLAS's own thread pool for a span of
time (process-wide), for callers that bring their own parallelism.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence

from .errors import ParameterError

__all__ = ["available_cpus", "effective_workers", "limit_blas_threads",
           "parallel_map"]


def available_cpus() -> int:
    """Usable CPU count (CPU affinity mask when available)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def effective_workers(workers: int, num_tasks: int | None = None) -> int:
    """Clamp a requested worker count to what can actually help.

    Never more than the usable CPUs and never more than the number of
    tasks; always at least 1. Raises :class:`ParameterError` for a
    non-positive request so misconfiguration fails loudly.
    """
    if int(workers) != workers or workers < 1:
        raise ParameterError(f"workers must be a positive integer, "
                             f"got {workers!r}")
    capped = min(int(workers), available_cpus())
    if num_tasks is not None:
        capped = min(capped, max(1, num_tasks))
    return max(1, capped)


def parallel_map(fn: Callable[..., Any], tasks: Sequence[Any], *args: Any,
                 workers: int = 1) -> list[Any]:
    """Call ``fn(task, *args)`` for every task; results in task order.

    ``workers > 1`` runs the calls on that many threads (capped by
    :func:`effective_workers`). An exception raised by any call
    propagates to the caller once the pool has been joined.
    """
    tasks = list(tasks)
    nthreads = effective_workers(workers, len(tasks))
    if nthreads <= 1:
        return [fn(task, *args) for task in tasks]
    with ThreadPoolExecutor(max_workers=nthreads,
                            thread_name_prefix="repro-chunk") as pool:
        return list(pool.map(lambda task: fn(task, *args), tasks))


# Symbol names of OpenBLAS's thread-count API: NumPy/SciPy wheels bundle
# a prefixed 64-bit-int build, system builds export the plain names.
_BLAS_API = (("scipy_openblas_get_num_threads64_",
              "scipy_openblas_set_num_threads64_"),
             ("openblas_get_num_threads", "openblas_set_num_threads"))
_blas_lock = threading.Lock()
_blas_holders = 0
_blas_limit = 0
_blas_saved: list[tuple[Callable, int]] = []


def _openblas_pools() -> list[tuple[Callable, Callable]]:
    """``(get, set)`` thread-count calls of each OpenBLAS in this process.

    Found through ``/proc/self/maps``; empty where that does not exist
    or no OpenBLAS is loaded (other BLAS builds are left alone).
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower()})
    except OSError:                   # pragma: no cover - non-Linux
        return []
    pools = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:               # pragma: no cover - unmapped since
            continue
        for get, set_ in _BLAS_API:
            if hasattr(lib, get) and hasattr(lib, set_):
                pools.append((getattr(lib, get), getattr(lib, set_)))
                break
    return pools


@contextmanager
def limit_blas_threads(threads: int) -> Iterator[None]:
    """Run OpenBLAS on at most ``threads`` threads inside the block.

    The limit is process-wide (OpenBLAS has one pool per library), so
    nested or concurrent holders share it: the first one in records the
    pools' sizes, the smallest limit held applies, and the last one out
    restores the sizes. A no-op where no OpenBLAS is found.
    """
    global _blas_holders, _blas_limit
    if int(threads) != threads or threads < 1:
        raise ParameterError(f"threads must be a positive integer, "
                             f"got {threads!r}")
    with _blas_lock:
        if _blas_holders == 0:
            _blas_saved[:] = [(set_, get()) for get, set_ in
                              _openblas_pools()]
        _blas_limit = (int(threads) if _blas_holders == 0
                       else min(_blas_limit, int(threads)))
        _blas_holders += 1
        for set_, saved in _blas_saved:
            set_(min(_blas_limit, saved))
    try:
        yield
    finally:
        with _blas_lock:
            _blas_holders -= 1
            if _blas_holders == 0:
                for set_, saved in _blas_saved:
                    set_(saved)
                _blas_saved.clear()
