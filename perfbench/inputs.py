"""Seeded input generation for the benchmark (NumPy only).

Every input is a pure function of ``(workload sizes, seed)``: the same
seed gives byte-identical files, so two commits see the same graphs,
stores and request streams. The generators here deliberately do not
import ``repro``; a change to the program's own generators must not
change what the benchmark feeds it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class FitSizes:
    nodes: int = 50_000
    arcs: int = 250_000
    holdout: float = 0.3


@dataclass(frozen=True)
class ServeSizes:
    nodes: int = 50_000
    dim: int = 128                 # forward + backward halves, as NRP
    zipf: float = 1.3              # node-id skew, as in the serving benchmarks
    k: int = 10


@dataclass(frozen=True)
class StreamSizes:
    nodes: int = 5_000
    arcs: int = 25_000
    batches: int = 48              # generated; a run uses a prefix
    # A chosen mix, not measured traffic: the paper's evolving graphs
    # (VK, Digg; Appendix C) only grow, so inserts dominate, and a
    # fifth of each batch deletes so every batch takes the delete path.
    inserts: int = 80              # per batch
    deletes: int = 20              # per batch
    read_nodes: int = 32           # source nodes per bulk read
    k: int = 10


# distinct streams per use, so adding one use never shifts another
_STREAMS = {"fit": 1, "serve": 2, "stream": 3, "queries": 4}


def rng_for(seed: int, use: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), _STREAMS[use]])


class ArcSampler:
    """Power-law community arc model (LFR-style, directed).

    Node weights are Pareto(exponent - 1); an arc stays inside one
    community with probability ``1 - mixing`` (endpoints drawn in
    proportion to weight within it) and is drawn globally otherwise.
    Sources are drawn by ``weight ** src_power``, which sets how many
    nodes end up with no out-arcs.
    """

    def __init__(self, rng: np.random.Generator, nodes: int, *,
                 communities: int = 10, mixing: float = 0.2,
                 exponent: float = 2.5, src_power: float = 0.7) -> None:
        self.nodes = nodes
        self.mixing = mixing
        weights = (1.0 - rng.random(nodes)) ** (-1.0 / (exponent - 1.0))
        # fixed size profile (larger first): only membership is random,
        # so the graph's structure, and the AUC, vary little with the seed
        shares = np.linspace(2.0, 0.5, communities)
        sizes = np.maximum(1, (shares / shares.sum() * nodes).astype(np.int64))
        sizes[0] += nodes - sizes.sum()
        community = np.repeat(np.arange(communities), sizes)
        rng.shuffle(community)
        self.order = np.argsort(community, kind="stable")
        self.bounds = np.concatenate([[0], np.cumsum(sizes)])
        self.tables = {}
        for end, w in (("src", weights ** src_power), ("dst", weights)):
            cum = np.cumsum(w[self.order])
            start = np.concatenate([[0.0], cum[self.bounds[1:-1] - 1]])
            mass = cum[self.bounds[1:] - 1] - start
            self.tables[end] = (cum, start, mass)
        _, _, mass = self.tables["dst"]
        self.comm_p = mass / mass.sum()

    def _draw(self, rng, end: str, comm: np.ndarray,
              local: np.ndarray) -> np.ndarray:
        cum, start, mass = self.tables[end]
        lo = np.where(local, start[comm], 0.0)
        span = np.where(local, mass[comm], cum[-1])
        pos = np.searchsorted(cum, lo + rng.random(len(comm)) * span,
                              side="right")
        hi = np.where(local, self.bounds[comm + 1], self.nodes) - 1
        return self.order[np.minimum(pos, hi)]

    def sample(self, rng: np.random.Generator, count: int,
               exclude: np.ndarray | None = None) -> np.ndarray:
        """``count`` distinct arc keys ``src * n + dst``, in draw order,
        without self-loops and none of them in sorted ``exclude``."""
        n = self.nodes
        keys = np.empty(0, dtype=np.int64)
        while len(keys) < count:
            want = 2 * (count - len(keys)) + 64
            comm = rng.choice(len(self.comm_p), size=want, p=self.comm_p)
            local = rng.random(want) >= self.mixing
            src = self._draw(rng, "src", comm, local)
            dst = self._draw(rng, "dst", comm, local)
            fresh = (src * n + dst)[src != dst]
            if exclude is not None and len(exclude):
                pos = np.minimum(np.searchsorted(exclude, fresh),
                                 len(exclude) - 1)
                fresh = fresh[exclude[pos] != fresh]
            keys = np.concatenate([keys, fresh])
            _, first = np.unique(keys, return_index=True)
            keys = keys[np.sort(first)]
        return keys[:count]


def split_keys(keys: np.ndarray, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    return keys // nodes, keys % nodes


def edge_list_text(keys: np.ndarray, nodes: int) -> str:
    src, dst = split_keys(np.sort(keys), nodes)
    return "".join(f"{u} {v}\n" for u, v in zip(src.tolist(), dst.tolist()))


def delta_text(sign: str, keys: np.ndarray, nodes: int) -> str:
    src, dst = split_keys(keys, nodes)
    return "".join(f"{sign} {u} {v}\n"
                   for u, v in zip(src.tolist(), dst.tolist()))


class ZipfNodes:
    """Zipf(s)-skewed node ids over a seeded random popularity order.

    The order is drawn once, so every batch of draws favours the same
    nodes, as a long-running query stream does.
    """

    def __init__(self, rng: np.random.Generator, nodes: int,
                 s: float) -> None:
        self.rng = rng
        self.cum = np.cumsum(np.arange(1, nodes + 1, dtype=np.float64) ** -s)
        self.popular = rng.permutation(nodes)

    def draw(self, count: int) -> np.ndarray:
        picks = np.searchsorted(self.cum, self.rng.random(count) * self.cum[-1],
                                side="right")
        return self.popular[np.minimum(picks, len(self.popular) - 1)]


class Digest:
    """sha256 over every generated file, in the order written."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, name: str, data: bytes) -> bytes:
        self._h.update(name.encode() + b"\0" + data)
        return data

    def hexdigest(self) -> str:
        return self._h.hexdigest()[:16]


# ----------------------------------------------------------------------
# per-workload inputs
# ----------------------------------------------------------------------
def make_fit(seed: int, out: Path, sizes: FitSizes = FitSizes()) -> dict:
    """Residual edge list plus held-out arcs and sampled non-arcs."""
    rng = rng_for(seed, "fit")
    n = sizes.nodes
    sampler = ArcSampler(rng, n)
    keys = sampler.sample(rng, sizes.arcs)
    held = rng.random(len(keys)) < sizes.holdout
    residual, positives = keys[~held], keys[held]
    negatives = non_arcs(rng, n, len(positives), np.sort(keys))
    digest = Digest()
    out.mkdir(parents=True, exist_ok=True)
    (out / "graph.txt").write_bytes(
        digest.add("graph.txt", edge_list_text(residual, n).encode()))
    pairs = np.stack([positives, negatives]).astype(np.int64)
    digest.add("eval.npy", pairs.tobytes())
    np.save(out / "eval.npy", pairs)
    out_deg = np.bincount(residual // n, minlength=n)
    return {"nodes": n, "arcs": int(len(keys)),
            "residual_arcs": int(len(residual)),
            "heldout_arcs": int(len(positives)),
            "dangling": int((out_deg == 0).sum()),
            "inputs_sha256": digest.hexdigest()}


def non_arcs(rng, n: int, count: int, arcs_sorted: np.ndarray) -> np.ndarray:
    """Uniform non-arcs (no self-loops, none among ``arcs_sorted``)."""
    keys = np.empty(0, dtype=np.int64)
    while len(keys) < count:
        draw = rng.integers(0, n * n, size=2 * count)
        draw = draw[draw // n != draw % n]
        pos = np.minimum(np.searchsorted(arcs_sorted, draw),
                         len(arcs_sorted) - 1)
        keys = np.concatenate([keys, draw[arcs_sorted[pos] != draw]])
    return keys[:count]


def make_serve(seed: int, out: Path,
               sizes: ServeSizes = ServeSizes()) -> dict:
    """An NRP-shaped directional bundle: ``w[:, None] * X`` halves."""
    rng = rng_for(seed, "serve")
    n, half = sizes.nodes, sizes.dim // 2
    arrays = {}
    for key in ("forward", "backward"):
        basis = rng.standard_normal((n, half)) / np.sqrt(half)
        weight = rng.lognormal(0.0, 0.5, size=n)
        arrays[key] = weight[:, None] * basis
    meta = {"name": "bench", "directional": True, "lp_scoring": "inner",
            "custom_scoring": False}
    digest = Digest()
    for key, value in arrays.items():
        digest.add(key, value.tobytes())
    out.mkdir(parents=True, exist_ok=True)
    np.savez(out / "bundle.npz", forward=arrays["forward"],
             backward=arrays["backward"],
             metadata=np.frombuffer(json.dumps(meta).encode(),
                                    dtype=np.uint8))
    return {**asdict(sizes), "inputs_sha256": digest.hexdigest()}


def make_stream(seed: int, out: Path,
                sizes: StreamSizes = StreamSizes()) -> dict:
    """Base edge list plus valid insert/delete batches against it.

    Inserts are absent from the graph the batch lands on and deletes
    are present in it, so ``repro-stream`` accepts every batch.
    """
    rng = rng_for(seed, "stream")
    n = sizes.nodes
    sampler = ArcSampler(rng, n)
    current = np.sort(sampler.sample(rng, sizes.arcs))
    digest = Digest()
    out.mkdir(parents=True, exist_ok=True)
    (out / "base.txt").write_bytes(
        digest.add("base.txt", edge_list_text(current, n).encode()))
    batches = []
    for _ in range(sizes.batches):
        adds = sampler.sample(rng, sizes.inserts, exclude=current)
        dels = current[rng.choice(len(current), size=sizes.deletes,
                                  replace=False)]
        text = delta_text("+", adds, n) + delta_text("-", dels, n)
        batches.append(digest.add("batch", text.encode()).decode())
        current = np.setdiff1d(np.union1d(current, adds), dels)
    (out / "batches.json").write_text(json.dumps(batches))
    return {**asdict(sizes), "inputs_sha256": digest.hexdigest()}
