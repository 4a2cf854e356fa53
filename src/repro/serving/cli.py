"""``repro-serve``: build, query, and serve embedding stores.

Five subcommands cover the offline -> online hand-off:

* ``repro-serve export BUNDLE.npz STORE_DIR [--shards N]`` — convert a
  compressed bundle written by :func:`repro.io.save_embeddings` into an
  mmap-able :class:`~repro.serving.store.EmbeddingStore` directory
  (sharded into ``N`` node ranges when ``--shards`` is given);
* ``repro-serve shard STORE_DIR OUT_DIR --shards N`` — re-export an
  existing store (flat or sharded) as ``N`` node-range shards;
* ``repro-serve info STORE_DIR`` — print a store's manifest (flat or
  sharded, auto-detected);
* ``repro-serve query STORE_DIR --nodes 3,17 -k 10`` — answer top-k
  queries against a store, optionally through the approximate backend
  (``--index ivf --nprobe 16``); sharded stores scatter-gather across
  their shards (``--workers`` sizes the fan-out pool);
* ``repro-serve serve STORE_DIR --port 8000`` — the long-lived network
  tier: an asyncio HTTP server (:mod:`repro.serving.http`) over the
  store, with dynamic micro-batching, backpressure, and — given a
  *versioned* root plus ``--watch SECONDS`` — hot swaps onto every new
  version a concurrent ``repro-stream`` publishes.

Installed as a console script by ``setup.py``; also runnable as
``python -m repro.serving.cli``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .. import obs
from ..errors import ReproError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve top-k queries from saved NRP-style embeddings.")
    # shared flags live on the main parser: `repro-serve --metrics-json
    # out.json query ...` works for every subcommand
    obs.add_observability_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    p_export = sub.add_parser(
        "export", help="convert a .npz bundle into an mmap store directory")
    p_export.add_argument("bundle", help="path to a save_embeddings() .npz")
    p_export.add_argument("store", help="output store directory")
    p_export.add_argument("--shards", type=int, default=None,
                          help="write N node-range shards instead of one "
                               "flat store")

    p_shard = sub.add_parser(
        "shard", help="re-export an existing store as node-range shards")
    p_shard.add_argument("store", help="source store directory")
    p_shard.add_argument("out", help="output sharded store directory")
    p_shard.add_argument("--shards", type=int, required=True,
                         help="number of node-range shards")

    p_info = sub.add_parser("info", help="print a store's manifest")
    p_info.add_argument("store", help="store directory (flat or sharded)")

    p_query = sub.add_parser("query", help="top-k neighbors for nodes")
    p_query.add_argument("store", help="store directory (flat or sharded)")
    p_query.add_argument("--nodes", required=True,
                         help="comma-separated source node ids")
    p_query.add_argument("-k", type=int, default=10,
                         help="neighbors per node (default 10)")
    p_query.add_argument("--index", default="exact",
                         choices=("exact", "ivf"),
                         help="retrieval backend (default exact)")
    p_query.add_argument("--num-lists", type=int, default=None,
                         help="ivf: number of k-means partitions")
    p_query.add_argument("--nprobe", type=int, default=None,
                         help="ivf: partitions probed per query")
    p_query.add_argument("--workers", type=int, default=None,
                         help="sharded stores: scatter-gather threads "
                              "(default: one per shard, CPU-capped)")

    p_serve = sub.add_parser(
        "serve", help="serve top-k/score queries over HTTP with "
                      "dynamic micro-batching")
    p_serve.add_argument("store", help="store directory (flat or sharded) "
                                       "or a versioned store root")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8000,
                         help="bind port; 0 picks a free one "
                              "(default 8000)")
    p_serve.add_argument("--name", default=None,
                         help="model name in the routes "
                              "(default: the store's name)")
    p_serve.add_argument("--index", default="exact",
                         choices=("exact", "ivf"),
                         help="retrieval backend (default exact)")
    p_serve.add_argument("--num-lists", type=int, default=None,
                         help="ivf: number of k-means partitions")
    p_serve.add_argument("--nprobe", type=int, default=None,
                         help="ivf: partitions probed per query")
    p_serve.add_argument("--workers", type=int, default=None,
                         help="sharded stores: scatter-gather threads")
    p_serve.add_argument("--cache-size", type=int, default=1024,
                         help="per-engine (node, k) LRU entries "
                              "(default 1024)")
    p_serve.add_argument("--max-batch", type=int, default=64,
                         help="source nodes coalesced into one engine "
                              "call (default 64)")
    p_serve.add_argument("--max-queue", type=int, default=1024,
                         help="pending requests before 429s "
                              "(default 1024)")
    p_serve.add_argument("--deadline", type=float, default=2.0,
                         help="default per-request deadline in seconds "
                              "(default 2.0)")
    p_serve.add_argument("--watch", type=float, default=None,
                         metavar="SECONDS",
                         help="versioned roots: poll CURRENT at this "
                              "interval and hot-swap onto new versions")
    p_serve.add_argument("--max-seconds", type=float, default=None,
                         help="exit after this long (demos and tests; "
                              "default: serve until interrupted)")
    p_serve.add_argument("--ready-file", default=None, metavar="PATH",
                         help="write a {host, port} JSON file once the "
                              "socket is bound (for test orchestration)")
    p_serve.add_argument("--trace-sample", type=float, default=1.0,
                         metavar="RATE",
                         help="head-sampling rate in [0, 1] for request "
                              "traces kept in /debug/traces and histogram "
                              "exemplars (default 1.0)")
    p_serve.add_argument("--access-log", default=None, metavar="PATH",
                         help="append one JSON access-log line per request "
                              "to PATH (rate-bounded; buffers are flushed "
                              "on SIGTERM/SIGINT shutdown)")
    return parser


def _cmd_export(args) -> int:
    from ..io import load_embeddings
    from .sharding import shard_store
    from .store import export_store
    bundle = load_embeddings(args.bundle)
    if args.shards is not None:
        store = shard_store(bundle, args.store, num_shards=args.shards)
        print(f"exported {store.name}: {store.num_nodes} nodes x "
              f"{store.dim} dims in {store.num_shards} shards -> "
              f"{store.root}")
    else:
        store = export_store(bundle, args.store)
        print(f"exported {store.name}: {store.num_nodes} nodes x "
              f"{store.dim} dims -> {store.root}")
    return 0


def _cmd_shard(args) -> int:
    from .sharding import shard_store
    from .store import open_store
    source = open_store(args.store)
    store = shard_store(source, args.out, num_shards=args.shards)
    print(f"sharded {store.name}: {store.num_nodes} nodes -> "
          f"{store.num_shards} shards under {store.root}")
    return 0


def _cmd_info(args) -> int:
    from .store import open_store
    store = open_store(args.store)
    info = {"name": store.name, "directional": store.directional,
            "num_nodes": store.num_nodes, "dim": store.dim,
            "mmapped": store.mmapped,
            "metadata": {k: v for k, v in store.metadata.items()
                         if isinstance(v, (str, int, float, bool))}}
    shards = getattr(store, "num_shards", None)
    if shards is not None:
        info["num_shards"] = shards
        info["shard_ranges"] = [[int(lo), int(hi)] for lo, hi in
                                zip(store.boundaries[:-1],
                                    store.boundaries[1:])]
    print(json.dumps(info, indent=2, sort_keys=True))
    return 0


def _cmd_query(args) -> int:
    from .store import open_store
    try:
        nodes = [int(tok) for tok in args.nodes.split(",") if tok.strip()]
    except ValueError:
        raise ReproError(f"--nodes must be comma-separated ints, "
                         f"got {args.nodes!r}") from None
    if not nodes:
        raise ReproError("--nodes must name at least one node")
    store = open_store(args.store)
    sharded = getattr(store, "num_shards", None) is not None
    index_options = {}
    if args.num_lists is not None:
        index_options["num_lists"] = args.num_lists
    if args.nprobe is not None:
        index_options["nprobe"] = args.nprobe
    if index_options and args.index != "ivf":
        raise ReproError(
            f"{'/'.join('--' + key.replace('_', '-') for key in index_options)}"
            f" requires --index ivf (got --index {args.index})")
    if args.workers is not None and not sharded:
        raise ReproError("--workers requires a sharded store")
    if sharded:
        index_options["workers"] = args.workers
    engine = store.to_serving(index=args.index, **index_options)
    ids, scores = engine.topk(nodes, k=args.k)
    for node, row_ids, row_scores in zip(nodes, ids, scores):
        print(json.dumps({
            "node": node,
            "neighbors": [int(v) for v in row_ids if v >= 0],
            "scores": [round(float(s), 6) for v, s
                       in zip(row_ids, row_scores) if v >= 0]}))
    return 0


def _serve_engine_options(args, store) -> dict:
    """Engine options for ``store``, validated against its layout."""
    options = {"index": args.index, "cache_size": args.cache_size}
    if args.num_lists is not None:
        options["num_lists"] = args.num_lists
    if args.nprobe is not None:
        options["nprobe"] = args.nprobe
    if args.index != "ivf" and ("num_lists" in options
                                or "nprobe" in options):
        raise ReproError("--num-lists/--nprobe require --index ivf "
                         f"(got --index {args.index})")
    if getattr(store, "num_shards", None) is not None:
        if args.workers is not None:
            options["workers"] = args.workers
    elif args.workers is not None:
        raise ReproError("--workers requires a sharded store")
    return options


def _cmd_serve(args) -> int:
    import signal
    import threading
    import time
    from pathlib import Path

    from ..obs.requestlog import RequestLogger
    from .http import HTTPServingConfig, ServingHTTPServer
    from .registry import ServingRegistry
    from .store import CURRENT_NAME, open_current, open_store

    root = Path(args.store)
    versioned = (root / CURRENT_NAME).is_file()
    if args.watch is not None and not versioned:
        raise ReproError(
            f"--watch needs a versioned store root (no {CURRENT_NAME} "
            f"in {root}); publish with repro-stream or publish_version")
    if args.watch is not None and args.watch <= 0:
        raise ReproError("--watch must be > 0 seconds")
    store = open_current(root) if versioned else open_store(root)
    name = args.name or store.name
    registry = ServingRegistry()
    registry.register(name, store, **_serve_engine_options(args, store))
    config = HTTPServingConfig(
        max_batch=args.max_batch, max_queue=args.max_queue,
        default_deadline=args.deadline,
        trace_sample=args.trace_sample)
    access_log = (RequestLogger.to_path(
        args.access_log, max_per_second=config.access_log_per_second)
        if args.access_log else None)
    server = ServingHTTPServer(registry, config=config,
                               access_log=access_log)
    # Graceful drain: SIGTERM/SIGINT break the serve loop instead of
    # killing the process, so the normal exit path runs — queued batches
    # drain, the access log flushes, and --metrics-json still writes.
    # Handlers are only installable from the main thread; the in-thread
    # test harness (and any embedder) just uses --max-seconds.
    stop = threading.Event()
    previous: dict = {}
    if threading.current_thread() is threading.main_thread():
        def _graceful(signum, frame):
            stop.set()
        for sig in (signal.SIGTERM, signal.SIGINT):
            previous[sig] = signal.signal(sig, _graceful)
    try:
        server.start(args.host, args.port)
        info = {"event": "serving", "host": server.host,
                "port": server.port, "model": name,
                "num_nodes": store.num_nodes, "version": store.version}
        print(json.dumps(info), flush=True)
        if args.ready_file:
            Path(args.ready_file).write_text(json.dumps(info),
                                             encoding="utf-8")
        version = store.version
        started = time.monotonic()
        next_poll = (time.monotonic() + args.watch
                     if args.watch is not None else None)
        try:
            while not stop.is_set():
                if (args.max_seconds is not None
                        and time.monotonic() - started >= args.max_seconds):
                    break
                stop.wait(0.05)
                if next_poll is None or time.monotonic() < next_poll:
                    continue
                next_poll = time.monotonic() + args.watch
                try:
                    fresh = open_current(root)
                except ReproError:
                    continue   # publish in flight; keep serving, retry
                if fresh.version == version:
                    continue
                registry.swap(name, fresh,
                              **_serve_engine_options(args, fresh))
                version = fresh.version
                print(json.dumps({"event": "swap", "model": name,
                                  "version": version,
                                  "num_nodes": fresh.num_nodes}),
                      flush=True)
        except KeyboardInterrupt:
            pass
    finally:
        server.stop(close_registry=True)
        if access_log is not None:
            access_log.close_stream()
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    print(json.dumps({"event": "stopped", "model": name,
                      "version": version}), flush=True)
    return 0


_COMMANDS = {"export": _cmd_export, "shard": _cmd_shard,
             "info": _cmd_info, "query": _cmd_query,
             "serve": _cmd_serve}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    obs.setup_observability(args)
    try:
        result = _COMMANDS[args.command](args)
        obs.dump_metrics(args)
        return result
    except BrokenPipeError:      # e.g. `repro-serve query ... | head`
        # swap stdout for devnull so the interpreter's exit flush
        # doesn't print a second traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ReproError, OSError) as exc:
        print(f"repro-serve: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":    # pragma: no cover - exercised via main()
    sys.exit(main())
