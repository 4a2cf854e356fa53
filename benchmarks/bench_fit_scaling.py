"""Fit-pipeline scaling: one engine, serial vs threaded, vs the paper loop.

At several graph sizes it times three fits of the same graph:

* ``oracle`` — ``NRP(dim)`` with its reweighting sweeps run by the
  per-node loop of Algorithms 2/4 as the paper writes them (the parity
  oracle in ``tests/core/reweighting_oracle.py``);
* ``default`` — ``NRP(dim)`` exactly as a user gets it (``workers=1``);
* ``threaded`` — ``NRP(dim, workers=available_cpus())``.

Alongside wall-clock it records the parity between the embeddings and
writes the whole trajectory to ``benchmarks/results/fit_scaling.json``
so CI can archive it. The final asserts pin the engine's contract:

* ``threaded`` is bit-identical to ``default`` at every size;
* ``default`` is within 1e-8 of ``oracle`` at every size;
* at >= 50k nodes ``default`` is >= 2x faster than ``oracle``. Both run
  on one thread, so this holds on any CPU count.

``threaded`` vs ``default`` is recorded, not gated. About half of a fit
is the sequential Gauss-Seidel recurrence, which no thread count
shortens, so threads can at best halve a fit; the rest is sparse
products (memory-bound) and dense BLAS work that BLAS already spreads
over every core. On 2 CPUs the two measure within noise of each other
at 50k nodes and threads lose up to ~25% on graphs of one or two
chunks, where BLAS's own worker threads compete with the chunk threads.

Runnable standalone (``python benchmarks/bench_fit_scaling.py``) or via
pytest (marked ``slow``).
"""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent.parent / "tests" / "core"))
from reweighting_oracle import fit_with_oracle               # noqa: E402

from repro import NRP                                        # noqa: E402
from repro.bench import bench_scale, format_table            # noqa: E402
from repro.graph import powerlaw_community                   # noqa: E402
from repro.parallel import available_cpus                    # noqa: E402

try:
    from conftest import report
except ImportError:      # standalone script mode
    def report(name, block):
        print(block)

pytestmark = pytest.mark.slow

SIZES = (10_000, 25_000, 50_000)
DIM = 32
EDGE_FACTOR = 5
PARITY_TOL = 1e-8
RESULTS_PATH = Path(__file__).parent / "results" / "fit_scaling.json"


def _timed_fit(fit) -> tuple[NRP, float]:
    start = time.perf_counter()
    model = fit()
    return model, time.perf_counter() - start


def _max_diff(a: NRP, b: NRP) -> float:
    return max(float(np.abs(a.forward_ - b.forward_).max()),
               float(np.abs(a.backward_ - b.backward_).max()))


def _measure(num_nodes: int, workers: int, seed: int = 0) -> dict:
    graph, _ = powerlaw_community(num_nodes, EDGE_FACTOR * num_nodes,
                                  num_communities=16, seed=seed)
    oracle, oracle_s = _timed_fit(
        lambda: fit_with_oracle(NRP(dim=DIM, seed=seed), graph))
    default, default_s = _timed_fit(lambda: NRP(dim=DIM, seed=seed).fit(graph))
    threaded, threaded_s = _timed_fit(
        lambda: NRP(dim=DIM, seed=seed, workers=workers).fit(graph))
    return {"nodes": graph.num_nodes, "edges": graph.num_edges,
            "oracle_seconds": round(oracle_s, 3),
            "default_seconds": round(default_s, 3),
            "threaded_seconds": round(threaded_s, 3),
            "speedup_vs_oracle": round(oracle_s / default_s, 2),
            "thread_speedup": round(default_s / threaded_s, 2),
            "oracle_max_abs_diff": _max_diff(default, oracle),
            "threaded_bit_identical": bool(
                np.array_equal(default.forward_, threaded.forward_)
                and np.array_equal(default.backward_, threaded.backward_))}


def run_scaling(sizes=SIZES) -> dict:
    workers = available_cpus()
    rows = [_measure(n, workers) for n in sizes]
    record = {"dim": DIM, "edge_factor": EDGE_FACTOR, "workers": workers,
              "available_cpus": available_cpus(), "rows": rows}
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(record, indent=2) + "\n",
                            encoding="utf-8")

    title = (f"NRP.fit scaling: paper loop vs default vs {workers} threads "
             f"(dim={DIM}, {available_cpus()} CPUs)")
    table = format_table(
        ["nodes", "edges", "oracle (s)", "default (s)", "threaded (s)",
         "vs oracle", "threads", "max |diff|", "same bits"],
        [[f"{r['nodes']:,}", f"{r['edges']:,}", f"{r['oracle_seconds']:.2f}",
          f"{r['default_seconds']:.2f}", f"{r['threaded_seconds']:.2f}",
          f"{r['speedup_vs_oracle']:.2f}x", f"{r['thread_speedup']:.2f}x",
          f"{r['oracle_max_abs_diff']:.1e}",
          str(r["threaded_bit_identical"])] for r in rows])
    report("fit_scaling", title + "\n" + table)
    return record


def test_fit_scaling():
    sizes = tuple(max(2_000, int(n * bench_scale())) for n in SIZES)
    record = run_scaling(sizes)
    for row in record["rows"]:
        assert row["threaded_bit_identical"], row
        assert row["oracle_max_abs_diff"] <= PARITY_TOL, row
    largest = record["rows"][-1]
    if largest["nodes"] >= 50_000:
        assert largest["speedup_vs_oracle"] >= 2.0, (
            f"default fit only {largest['speedup_vs_oracle']}x faster "
            f"than the per-node loop at {largest['nodes']} nodes")


if __name__ == "__main__":
    print(json.dumps(run_scaling(), indent=2))
