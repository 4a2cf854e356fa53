"""The benchmark's inputs are a pure function of the seed, and valid.

Runs in a second at reduced sizes: ``pytest perfbench``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import inputs  # noqa: E402

SMALL = {
    "fit": (inputs.make_fit, inputs.FitSizes(nodes=2000, arcs=8000)),
    "serve": (inputs.make_serve, inputs.ServeSizes(nodes=300)),
    "stream": (inputs.make_stream, inputs.StreamSizes(
        nodes=1000, arcs=4000, batches=6, inserts=40, deletes=10)),
}


def files(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_same_seed_same_bytes_other_seed_differs(workload, tmp_path):
    make, sizes = SMALL[workload]
    first = make(7, tmp_path / "a", sizes)
    again = make(7, tmp_path / "b", sizes)
    other = make(8, tmp_path / "c", sizes)
    assert files(tmp_path / "a") == files(tmp_path / "b")
    assert first == again
    assert files(tmp_path / "a") != files(tmp_path / "c")
    assert first["inputs_sha256"] != other["inputs_sha256"]


def test_stream_deltas_are_valid_against_the_graph_they_land_on(tmp_path):
    make, sizes = SMALL["stream"]
    make(3, tmp_path, sizes)
    current = {tuple(map(int, line.split()))
               for line in (tmp_path / "base.txt").read_text().splitlines()}
    assert len(current) == sizes.arcs
    for text in json.loads((tmp_path / "batches.json").read_text()):
        lines = [line.split() for line in text.splitlines()]
        adds = [(int(u), int(v)) for s, u, v in lines if s == "+"]
        dels = [(int(u), int(v)) for s, u, v in lines if s == "-"]
        assert len(adds) == sizes.inserts and len(dels) == sizes.deletes
        assert len(set(adds)) == len(adds) and len(set(dels)) == len(dels)
        assert all(u != v for u, v in adds)
        assert not current & set(adds)
        assert set(dels) <= current
        current = (current | set(adds)) - set(dels)


def test_fit_holdout_pairs_are_arcs_and_non_arcs(tmp_path):
    make, sizes = SMALL["fit"]
    info = make(5, tmp_path, sizes)
    n = sizes.nodes
    residual = {int(u) * n + int(v) for u, v in
                (line.split() for line in
                 (tmp_path / "graph.txt").read_text().splitlines())}
    positives, negatives = np.load(tmp_path / "eval.npy")
    assert len(residual) == info["residual_arcs"]
    assert len(positives) == info["heldout_arcs"] == len(negatives)
    assert not residual & set(positives.tolist())
    assert not set(negatives.tolist()) & (residual | set(positives.tolist()))
    assert (negatives // n != negatives % n).all()


def test_zipf_queries_are_seeded_and_keep_one_popularity_order():
    def draws(seed):
        nodes = inputs.ZipfNodes(inputs.rng_for(seed, "queries"), 500, 1.3)
        return nodes, [nodes.draw(4000) for _ in range(2)]

    first, (a1, a2) = draws(7)
    _, (b1, b2) = draws(7)
    _, (c1, _) = draws(8)
    assert np.array_equal(a1, b1) and np.array_equal(a2, b2)
    assert not np.array_equal(a1, c1)
    # a later batch of draws favours the same nodes as an earlier one
    hottest = first.popular[0]
    assert np.bincount(a2, minlength=500).argmax() == hottest
    assert np.bincount(a1, minlength=500).argmax() == hottest
