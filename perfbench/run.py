"""Benchmark entry point: one workload, one seed, one run.

From the repository root::

    python3 perfbench/run.py --workload fit --seed 0 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` makes a separate traced run and reports the per-layer
metrics, including the tracing overhead. Every workload reports every
metric of the list it is asked for. The program is run from
``src/`` of the checkout, through its CLIs. Human-readable lines come
first; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A copy of the result with
its context (CPU count, BLAS threads, versions, sizes, seed, input
hash) is kept under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import sys

import fit
import serve
import stream
from common import (ROOT, STATE, BenchError, Children, check_program,
                    fresh_dir, program_context)

WORKLOADS = {"fit": fit, "serve": serve, "stream": stream}
RUN_LIMIT_S = 170


def _timeout(signum, frame):
    raise BenchError(f"run exceeded {RUN_LIMIT_S} s")


def spec_units(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description="repro benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    trace = bool(args.trace)

    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(RUN_LIMIT_S)
    check_program()
    units = spec_units(trace)
    work = fresh_dir(STATE / "work" / f"{args.workload}-{os.getpid()}")
    kids = Children(work)
    try:
        context = program_context()
        out = WORKLOADS[args.workload].run(args.seed, args.seconds, trace,
                                           work, kids)
    finally:
        kids.stop_all()
        shutil.rmtree(work, ignore_errors=True)
    signal.alarm(0)

    # every workload reports every metric of the manifest's list
    missing = sorted(set(units) - set(out.metrics))
    if missing:
        raise BenchError(f"{args.workload} did not measure {missing}")
    for name, (value, unit) in out.metrics.items():
        if units.get(name) != unit:
            raise BenchError(f"metric {name} [{unit}] is not declared in "
                             f"BENCHMARK.json")
        if not math.isfinite(value):
            raise BenchError(f"metric {name} is not finite ({value})")
    context.update(out.context, workload=args.workload, seed=args.seed,
                   seconds=args.seconds, trace=args.trace)
    correct = out.failed == 0 and all(ok for _, ok, _ in out.checks)
    result = {"correct": correct, "attempted": out.attempted,
              "failed": out.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in out.metrics.items()}}

    print(f"# perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace}")
    print("# context " + json.dumps(context, sort_keys=True))
    for name, ok, detail in out.checks:
        print(f"# check {'ok  ' if ok else 'FAIL'} {name} {detail}")
    # failed_frac is 0 on a healthy run, so it cannot carry a relative
    # bound; it is printed here and travels as "failed" / "attempted"
    out.unbounded["failed_frac"] = (out.failed / max(1, out.attempted), "1")
    for name, (value, unit) in {**out.unbounded, **out.metrics}.items():
        print(f"{name:40s} {value:14.6f} {unit}")
    print(f"# {out.failed} of {out.attempted} operations failed")
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"context": context, "unbounded": out.unbounded,
                              **result}, indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        sys.exit(2)
