"""Parity suite: the fit engine vs the paper's per-node reweighting loop.

The per-node loops of Algorithms 2/4 live in ``reweighting_oracle.py``
next to this file. Three guarantees are pinned here, matching the
engine's contract:

* the engine tracks the oracle to ``<= 1e-8`` max abs diff, at the
  defaults and for any chunk grid and worker count (the sparse products
  are bit-identical; the reweighting recurrence reassociates a handful
  of dot products, observed ``~1e-14``);
* a fit is bit-identical for any ``workers`` (1/2/4);
* ``chunk_size=None`` is :data:`repro.ppr.DEFAULT_CHUNK_SIZE`, bit for
  bit.
"""

import numpy as np
import pytest
from reweighting_oracle import fit_with_oracle

from repro.core import (ApproxPPRConfig, ApproxPPREmbedder, NRP,
                        approx_ppr_embeddings)
from repro.ppr import DEFAULT_CHUNK_SIZE

PARITY_TOL = 1e-8


def _embeddings(model):
    return model.forward_, model.backward_


def _max_diff(a, b):
    return max(np.abs(a[0] - b[0]).max(), np.abs(a[1] - b[1]).max())


@pytest.fixture(scope="module")
def oracle_fits(small_undirected):
    return {mode: fit_with_oracle(NRP(dim=16, seed=0, update_mode=mode,
                                      ell2=4), small_undirected)
            for mode in ("sequential", "jacobi")}


@pytest.fixture(scope="module")
def oracle_embeddings(oracle_fits):
    return {mode: _embeddings(model) for mode, model in oracle_fits.items()}


@pytest.mark.parametrize("mode", ["sequential", "jacobi"])
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_chunked_fit_matches_seed_within_tolerance(small_undirected,
                                                   oracle_embeddings, mode,
                                                   workers):
    chunked = _embeddings(NRP(dim=16, seed=0, update_mode=mode, ell2=4,
                              chunk_size=32, workers=workers,
                              ).fit(small_undirected))
    assert _max_diff(chunked, oracle_embeddings[mode]) <= PARITY_TOL


@pytest.mark.parametrize("mode", ["sequential", "jacobi"])
def test_chunked_fit_bit_identical_across_worker_counts(small_undirected,
                                                        mode):
    runs = [_embeddings(NRP(dim=16, seed=0, update_mode=mode, ell2=3,
                            chunk_size=32, workers=w).fit(small_undirected))
            for w in (1, 2, 4)]
    for other in runs[1:]:
        assert np.array_equal(runs[0][0], other[0])
        assert np.array_equal(runs[0][1], other[1])


def test_default_fit_matches_oracle(small_undirected, oracle_fits):
    """``NRP()`` at its defaults: weights and embeddings within 1e-8."""
    model = NRP(dim=16, seed=0, ell2=4).fit(small_undirected)
    oracle = oracle_fits["sequential"]
    assert np.abs(model.w_fwd_ - oracle.w_fwd_).max() <= PARITY_TOL
    assert np.abs(model.w_bwd_ - oracle.w_bwd_).max() <= PARITY_TOL
    assert _max_diff(_embeddings(model), _embeddings(oracle)) <= PARITY_TOL


def test_default_chunk_size_is_bit_identical_to_explicit(small_directed):
    default = _embeddings(NRP(dim=16, seed=0, ell2=3).fit(small_directed))
    explicit = _embeddings(NRP(dim=16, seed=0, ell2=3,
                               chunk_size=DEFAULT_CHUNK_SIZE,
                               ).fit(small_directed))
    assert np.array_equal(default[0], explicit[0])
    assert np.array_equal(default[1], explicit[1])


def test_default_fit_bit_identical_across_workers():
    """Big enough for three default chunks, so the threads do split it."""
    from repro.graph import powerlaw_community
    graph, _ = powerlaw_community(2 * DEFAULT_CHUNK_SIZE + 500, 50_000,
                                  directed=True, seed=4)
    runs = [NRP(dim=8, seed=0, ell2=1, workers=w).fit(graph)
            for w in (1, 2, 4)]
    for other in runs[1:]:
        assert np.array_equal(runs[0].w_fwd_, other.w_fwd_)
        assert np.array_equal(runs[0].w_bwd_, other.w_bwd_)
        assert np.array_equal(runs[0].forward_, other.forward_)
        assert np.array_equal(runs[0].backward_, other.backward_)


def test_chunked_jacobi_is_bit_identical_to_seed_jacobi(small_undirected):
    """Jacobi is row-parallel, so the chunk grid does not even
    reassociate: 32-row chunks equal one full-width chunk."""
    chunked = _embeddings(NRP(dim=16, seed=0, update_mode="jacobi", ell2=4,
                              chunk_size=32, workers=2).fit(small_undirected))
    whole = _embeddings(NRP(dim=16, seed=0, update_mode="jacobi", ell2=4,
                            ).fit(small_undirected))
    assert np.array_equal(chunked[0], whole[0])
    assert np.array_equal(chunked[1], whole[1])


@pytest.mark.parametrize("chunk_size", [7, 32, 1000])
def test_parity_holds_across_chunk_grids(small_undirected, oracle_embeddings,
                                         chunk_size):
    chunked = _embeddings(NRP(dim=16, seed=0, ell2=4, chunk_size=chunk_size,
                              ).fit(small_undirected))
    assert _max_diff(chunked, oracle_embeddings["sequential"]) <= PARITY_TOL


def test_parity_on_directed_graph_with_dangling_nodes():
    from repro.graph import from_edges
    rng = np.random.default_rng(5)
    n = 90
    src = rng.integers(0, n - 5, 400)        # last 5 nodes are dangling
    dst = rng.integers(0, n, 400)
    g = from_edges(n, src, dst, directed=True)
    assert np.any(g.out_degrees == 0)
    seed = _embeddings(fit_with_oracle(NRP(dim=12, seed=3, ell2=3), g))
    for workers in (1, 2):
        chunked = _embeddings(NRP(dim=12, seed=3, ell2=3, chunk_size=16,
                                  workers=workers).fit(g))
        assert _max_diff(chunked, seed) <= PARITY_TOL


def test_chunked_approx_ppr_stage_is_bit_identical(small_undirected):
    """The sparse-product stages never reassociate: exact equality."""
    base = approx_ppr_embeddings(small_undirected,
                                 ApproxPPRConfig(k_prime=8, seed=0))
    for chunk_size, workers in ((16, 1), (50, 2), (None, 4)):
        x, y = approx_ppr_embeddings(
            small_undirected,
            ApproxPPRConfig(k_prime=8, seed=0, chunk_size=chunk_size,
                            workers=workers))
        assert np.array_equal(x, base[0])
        assert np.array_equal(y, base[1])


def test_chunked_approx_ppr_embedder_matches_seed(small_directed):
    base = ApproxPPREmbedder(dim=16, seed=1).fit(small_directed)
    chunked = ApproxPPREmbedder(dim=16, seed=1, chunk_size=33,
                                workers=2).fit(small_directed)
    assert np.array_equal(chunked.forward_, base.forward_)
    assert np.array_equal(chunked.backward_, base.backward_)


def test_chunked_rsvd_backend_matches_seed(small_undirected):
    base = _embeddings(fit_with_oracle(NRP(dim=16, seed=0, svd="rsvd",
                                           ell2=2), small_undirected))
    chunked = _embeddings(NRP(dim=16, seed=0, svd="rsvd", ell2=2,
                              chunk_size=40, workers=2).fit(small_undirected))
    assert _max_diff(chunked, base) <= PARITY_TOL


def test_learned_weights_track_seed(small_undirected, oracle_fits):
    seed_model = oracle_fits["sequential"]
    chunked_model = NRP(dim=16, seed=0, ell2=4, chunk_size=32,
                        workers=2).fit(small_undirected)
    assert np.abs(seed_model.w_fwd_ - chunked_model.w_fwd_).max() <= PARITY_TOL
    assert np.abs(seed_model.w_bwd_ - chunked_model.w_bwd_).max() <= PARITY_TOL
