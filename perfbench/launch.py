"""Run a repro CLI with timing wrappers around its layers' public calls.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/launch.py --out probes.json fit -- graph.txt store

installs the wrappers below, then calls the CLI's own ``main`` with the
arguments after ``--``. Every wrapped call appends one event
``[start, seconds, *extras]`` (``time.monotonic`` clock, comparable
across processes) under its probe name; the events are written to
``--out`` when ``main`` returns or the process is stopped with SIGTERM.
Nothing in ``src/`` is changed: the wrappers replace module and class
attributes in this process only.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import signal
import sys
import time
import tracemalloc
from collections import defaultdict

MAINS = {"fit": "repro.cli_fit", "serve": "repro.serving.cli",
         "stream": "repro.cli_stream"}

EVENTS: dict[str, list] = defaultdict(list)
_LAST_OPEN = [0.0]   # seconds of the latest open_current call


def _peak_start(args):
    tracemalloc.start()


def _peak_mb(args, result, seconds, state):
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return [peak / 2**20]


def _rows(args, result, seconds, state):
    return [len(args[0])]


def _cache_before(args):
    return args[0].cache_stats()


def _topk(args, result, seconds, before):
    after = args[0].cache_stats()
    return [len(result[0]), after.hits - before.hits,
            after.misses - before.misses]


def _refresh(args, result, seconds, state):
    return [result["touched"], result["sweeps"]]


def _opened(args, result, seconds, state):
    _LAST_OPEN[0] = seconds
    return []


def _swap(args, result, seconds, state):
    # the server opens the new version right before swapping onto it
    return [_LAST_OPEN[0]]


# probe name -> (module, attribute path, before hook, after hook); the
# after hook returns the extra columns of the call's event
PROBES = {
    "graph.read_edge_list": ("repro.graph.build", "read_edge_list",
                             None, None),
    "linalg.bksvd": ("repro.linalg.bksvd", "bksvd", _peak_start, _peak_mb),
    "core.approx_ppr_state": ("repro.core.approx_ppr", "approx_ppr_state",
                              None, None),
    "core.reweighting.backward": ("repro.core.reweighting",
                                  "update_backward_weights", None, _rows),
    "core.reweighting.forward": ("repro.core.reweighting",
                                 "update_forward_weights", None, _rows),
    "core.nrp.warm_refit": ("repro.core.nrp", "NRP.warm_refit", None, None),
    "parallel.parallel_map": ("repro.parallel", "parallel_map", None, None),
    "serving.store.export_store": ("repro.serving.store", "export_store",
                                   None, None),
    "serving.store.publish_version": ("repro.serving.store",
                                      "publish_version", None, None),
    "serving.store.open_current": ("repro.serving.store", "open_current",
                                   None, _opened),
    "serving.registry.swap": ("repro.serving.registry",
                              "ServingRegistry.swap", None, _swap),
    "serving.engine.topk": ("repro.serving.engine", "QueryEngine.topk",
                            _cache_before, _topk),
    "streaming.delta.compact": ("repro.streaming.delta",
                                "DeltaGraph.compact", None, None),
    "streaming.incremental.refresh": ("repro.streaming.incremental",
                                      "IncrementalPPR.refresh", None,
                                      _refresh),
    "ppr.kernels.spread_frontier": ("repro.ppr.kernels", "spread_frontier",
                                    None, None),
}


def _wrapper(name: str, original, before, after):
    events = EVENTS[name]
    clock = time.monotonic

    @functools.wraps(original)
    def timed(*args, **kwargs):
        state = before(args) if before else None
        start = clock()
        result = original(*args, **kwargs)
        seconds = clock() - start
        events.append([start, seconds, *(after(args, result, seconds, state)
                                         if after else [])])
        return result
    return timed


def install() -> None:
    """Wrap every probe, rebinding names other modules imported."""
    swapped = {}
    for name, (module, path, before, after) in PROBES.items():
        owner = importlib.import_module(module)
        *parents, leaf = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        original = getattr(owner, leaf)
        wrapped = _wrapper(name, original, before, after)
        setattr(owner, leaf, wrapped)
        if not parents:
            swapped[id(original)] = wrapped
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in swapped:
                setattr(module, attr, swapped[id(value)])


def dump(path: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(EVENTS, fh)
    os.replace(tmp, path)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, help="probe events JSON")
    parser.add_argument("cli", choices=sorted(MAINS))
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    cli_main = importlib.import_module(MAINS[args.cli]).main
    install()

    def _stop(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, _stop)
    try:
        return cli_main(argv)
    finally:
        dump(args.out)


if __name__ == "__main__":
    sys.exit(main())
