"""The thread-pool chunk map: ordering, bits, errors, no leftovers."""

import multiprocessing
import sys
import threading

import numpy as np
import pytest

from repro import parallel
from repro.errors import ParameterError
from repro.parallel import (_openblas_pools, effective_workers,
                            limit_blas_threads, parallel_map)


def _square(task):
    return task * task


def _scale_rows(bounds, matrix, factor, out):
    start, stop = bounds
    out[start:stop] = matrix[start:stop] @ factor


def _chunk_map(workers):
    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((400, 24))
    factor = rng.standard_normal((24, 5))
    tasks = [(s, min(400, s + 37)) for s in range(0, 400, 37)]
    out = np.empty((400, 5))
    parallel_map(_scale_rows, tasks, matrix, factor, out, workers=workers)
    return out, matrix, factor, tasks


def test_results_preserve_task_order():
    assert parallel_map(_square, [3, 1, 4, 1, 5]) == [9, 1, 16, 1, 25]
    assert parallel_map(_square, [3, 1, 4, 1, 5],
                        workers=2) == [9, 1, 16, 1, 25]


def test_chunk_arguments_are_passed_through():
    matrix = np.arange(12.0).reshape(6, 2)
    out = np.empty((6, 2))
    parallel_map(_scale_rows, [(0, 3), (3, 6)], matrix, np.eye(2) * 2.0,
                 out)
    np.testing.assert_array_equal(out, matrix * 2.0)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_thread_pool_matches_inline_loop(workers):
    """Every worker count writes the bits of a plain loop over tasks."""
    out, matrix, factor, tasks = _chunk_map(workers)
    inline = np.empty_like(out)
    for task in tasks:
        _scale_rows(task, matrix, factor, inline)
    assert np.array_equal(out, inline)


def test_chunk_exception_propagates():
    def fail_on_three(task):
        if task == 3:
            raise ValueError("chunk 3 failed")
        return task

    with pytest.raises(ValueError, match="chunk 3 failed"):
        parallel_map(fail_on_three, range(8), workers=2)


def test_more_threads_than_cores_write_disjoint_rows(monkeypatch):
    """Eight threads whatever the machine, switching every microsecond:
    each chunk's rows land exactly once, so no write is lost or
    misplaced."""
    monkeypatch.setattr(parallel, "available_cpus", lambda: 8)

    def add_rows(bounds, out):
        start, stop = bounds
        for i in range(start, stop):     # Python-level: many switches
            out[i] += i

    out = np.zeros(4000)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        parallel_map(add_rows, [(s, s + 50) for s in range(0, 4000, 50)],
                     out, workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(out, np.arange(4000.0))


def test_no_thread_or_process_outlives_the_call():
    baseline = threading.active_count()
    for workers in (2, 4):
        _chunk_map(workers)
        assert threading.active_count() == baseline
    assert not any(t.name.startswith("repro-chunk")
                   for t in threading.enumerate())
    assert multiprocessing.active_children() == []


def test_workers_capped_by_cpus_and_tasks():
    cpus = parallel.available_cpus()
    assert effective_workers(1000) == cpus
    assert effective_workers(1000, num_tasks=1) == 1
    assert effective_workers(1) == 1


@pytest.mark.parametrize("workers", [0, -1])
def test_invalid_workers_raise(workers):
    with pytest.raises(ParameterError):
        effective_workers(workers)
    with pytest.raises(ParameterError):
        parallel_map(_square, [1, 2], workers=workers)


def test_fractional_workers_raise():
    with pytest.raises(ParameterError):
        effective_workers(2.5)


def _blas_threads() -> list[int]:
    return [get() for get, _ in _openblas_pools()]


def test_limit_blas_threads_nests_and_restores():
    """The smallest limit held applies; the last holder out restores."""
    before = _blas_threads()
    if not before:
        pytest.skip("no OpenBLAS loaded in this process")
    with limit_blas_threads(1):
        assert _blas_threads() == [1] * len(before)
        with limit_blas_threads(2):
            assert _blas_threads() == [1] * len(before)
        assert _blas_threads() == [1] * len(before)
    assert _blas_threads() == before


@pytest.mark.parametrize("threads", [0, -1, 1.5])
def test_limit_blas_threads_rejects_bad_counts(threads):
    with pytest.raises(ParameterError):
        with limit_blas_threads(threads):
            pass
