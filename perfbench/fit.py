"""``fit``: ``repro-fit`` at its defaults on a 50k-node directed graph.

Set-up writes the residual edge list (30% of arcs held out). Each
measured fit is a fresh ``repro-fit`` process, timed spawn to exit,
whose store is then checked (n x dim finite rows) and scored: held-out
arcs against sampled non-arcs, by AUC of ``forward[u] . backward[v]``.
A fit is this workload's unit of work: its latency is the process's
wall clock and its memory the process's peak RSS.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np

import inputs
from common import BenchError, Children, Outcome, cli, now, quantile
from probes import Probes, http_layers

AUC_FLOOR = 0.65     # uniform scores give 0.5; seeds 0-5 measure 0.71-0.73
MIN_FITS = 2         # latencies are quantiles of at least two fits


def auc(pos: np.ndarray, neg: np.ndarray) -> float:
    """Mann-Whitney AUC with average ranks for ties."""
    scores = np.concatenate([pos, neg])
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores))
    ordered = scores[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(scores)]
    avg = (starts + ends + 1) / 2.0
    ranks[order] = np.repeat(avg, ends - starts)
    n_pos = len(pos)
    return float((ranks[:n_pos].sum() - n_pos * (n_pos + 1) / 2)
                 / (n_pos * len(neg)))


def check_store(out: Outcome, store: Path, nodes: int, dim: int,
                pairs: np.ndarray) -> float:
    """Shape/finiteness checks; returns the held-out AUC."""
    manifest = json.loads((store / "store.json").read_text())
    fwd = np.load(store / "forward.npy", mmap_mode="r")
    bwd = np.load(store / "backward.npy", mmap_mode="r")
    shape_ok = (manifest["num_nodes"] == nodes and manifest["dim"] == dim
                and fwd.shape[0] == bwd.shape[0] == nodes
                and fwd.shape[1] + bwd.shape[1] == dim)
    out.check("fit.store_shape", shape_ok,
              f"{fwd.shape} + {bwd.shape}, want {nodes} x {dim}")
    out.check("fit.store_finite", bool(np.isfinite(fwd).all()
                                       and np.isfinite(bwd).all()))
    if not shape_ok:
        return float("nan")

    def score(keys):
        u, v = keys // nodes, keys % nodes
        return np.einsum("ij,ij->i", fwd[u], bwd[v])

    value = auc(score(pairs[0]), score(pairs[1]))
    out.check("fit.auc_floor", value > AUC_FLOOR,
              f"AUC {value:.4f} vs floor {AUC_FLOOR}")
    return value


def fit_once(kids: Children, work: Path, info: dict, pairs: np.ndarray,
             out: Outcome, tag: str, probes: Path | None = None) -> dict:
    store = work / f"store-{tag}"
    argv = cli("fit", str(work / "in" / "graph.txt"), str(store),
               "--directed", "--num-nodes", str(info["nodes"]),
               traced=probes)
    start = now()
    proc = kids.start(argv, "repro-fit")
    code = proc.wait(600)
    seconds = now() - start
    out.count(1, int(code != 0))
    if code != 0:
        raise BenchError(f"repro-fit failed: {proc.stderr()}")
    value = check_store(out, store, info["nodes"], 128, pairs)
    shutil.rmtree(store)
    return {"seconds": seconds, "rss_mb": proc.peak_rss_mb, "auc": value}


def setup(seed: int, work: Path, repeats: int = 5) -> tuple[dict, float]:
    """Generate the inputs ``repeats`` times; median seconds. Each set
    goes to a new directory, as a user's would: rewriting the last set's
    files instead made the timing swing. The last set is kept as
    ``work / "in"``."""
    times, digests = [], set()
    for i in range(repeats):
        if i:
            shutil.rmtree(work / f"in-{i - 1}")
        start = now()
        info = inputs.make_fit(seed, work / f"in-{i}")
        times.append(now() - start)
        digests.add(info["inputs_sha256"])
    if len(digests) != 1:
        raise BenchError(f"input generation is not deterministic: {digests}")
    (work / f"in-{repeats - 1}").rename(work / "in")
    return info, quantile(times, 0.5)


def run(seed: int, seconds: float, trace: bool, work: Path,
        kids: Children) -> Outcome:
    out = Outcome()
    info, setup_s = setup(seed, work)
    out.context["inputs"] = info
    pairs = np.load(work / "in" / "eval.npy")
    if trace:
        plain = fit_once(kids, work, info, pairs, out, "plain")
        probes_path = work / "probes-fit.json"
        traced = fit_once(kids, work, info, pairs, out, "traced",
                          probes=probes_path)
        Probes.load(probes_path).layers(out)
        http_layers(out, None, 0.0)
        # no requests and no stream batches on this workload
        out.metric("client.late_p99_ms", 0.0, "ms")
        out.metric("streaming.escalated_frac", 0.0, "1")
        out.metric("obs.trace_overhead_frac",
                   traced["seconds"] / plain["seconds"] - 1.0, "1")
        return out
    runs = []
    start = now()
    while (len(runs) < MIN_FITS
           or now() - start + runs[-1]["seconds"] <= seconds):
        runs.append(fit_once(kids, work, info, pairs, out, str(len(runs))))
    aucs = {round(r["auc"], 12) for r in runs}
    out.check("fit.auc_repeatable", len(aucs) == 1, f"AUCs {sorted(aucs)}")
    out.context["fits"] = len(runs)
    fit_ms = [r["seconds"] * 1e3 for r in runs]
    out.metric("setup_s", setup_s, "s")
    out.metric("latency_p50_ms", quantile(fit_ms, 0.5), "ms")
    out.metric("latency_p75_ms", quantile(fit_ms, 0.75), "ms")
    out.metric("peak_rss_mb", quantile([r["rss_mb"] for r in runs], 0.5),
               "MB")
    out.unbounded["fit_s"] = (quantile(fit_ms, 0.5) / 1e3, "s")
    out.unbounded["fit_link_auc"] = (runs[0]["auc"], "1")
    return out

