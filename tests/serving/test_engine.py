"""Tests for QueryEngine, the serving registry, and task parity."""

import numpy as np
import pytest

from repro import NRP
from repro.baselines import make_embedder
from repro.errors import ParameterError, ReproError
from repro.graph import link_prediction_split
from repro.serving import (DEFAULT_REGISTRY, ExactIndex, QueryEngine,
                           ServingRegistry)
from repro.tasks import evaluate_link_prediction, evaluate_reconstruction


@pytest.fixture(scope="module")
def nrp_model(small_undirected):
    return NRP(dim=16, svd="exact", seed=0).fit(small_undirected)


@pytest.fixture(scope="module")
def single_model(small_undirected):
    return make_embedder("randne", 16, seed=0).fit(small_undirected)


def full_ranking(model, node):
    return np.argsort(-model.score_all_from(node), kind="stable")


def test_exact_topk_matches_argsort_directional(nrp_model):
    engine = nrp_model.to_serving()
    for node in (0, 17, 63):
        ids, scores = engine.topk(node, k=10)
        np.testing.assert_array_equal(ids, full_ranking(nrp_model, node)[:10])
        np.testing.assert_allclose(
            scores, np.sort(nrp_model.score_all_from(node))[::-1][:10])


def test_exact_topk_matches_argsort_single_vector(single_model):
    engine = single_model.to_serving()
    for node in (1, 40, 99):
        ids, _ = engine.topk(node, k=10)
        np.testing.assert_array_equal(ids,
                                      full_ranking(single_model, node)[:10])


def test_batched_topk_shapes(nrp_model):
    engine = nrp_model.to_serving()
    ids, scores = engine.topk([3, 1, 4], k=5)
    assert ids.shape == scores.shape == (3, 5)
    one_ids, one_scores = engine.topk(1, k=5)
    np.testing.assert_array_equal(ids[1], one_ids)
    np.testing.assert_allclose(scores[1], one_scores)
    empty_ids, empty_scores = engine.topk([], k=5)
    assert empty_ids.shape == empty_scores.shape == (0, 5)


def test_score_matches_embedder(nrp_model):
    engine = nrp_model.to_serving()
    src = np.array([0, 5, 9])
    dst = np.array([7, 2, 11])
    np.testing.assert_allclose(engine.score(src, dst),
                               nrp_model.score_pairs(src, dst))
    np.testing.assert_allclose(engine.score_pairs(src, dst),
                               nrp_model.score_pairs(src, dst))


def test_topk_validation(nrp_model):
    engine = nrp_model.to_serving()
    with pytest.raises(ParameterError):
        engine.topk(0, k=0)
    with pytest.raises(ParameterError):
        engine.topk(engine.num_nodes, k=5)
    with pytest.raises(ParameterError):
        engine.topk(-1, k=5)


def test_score_mismatched_lengths_raise_parameter_error(nrp_model):
    """Regression: misaligned pairs used to surface a raw einsum
    ValueError; the HTTP /score route needs a typed 400, not a 500."""
    engine = nrp_model.to_serving()
    with pytest.raises(ParameterError, match="aligned pairs"):
        engine.score([0, 1, 2], [3, 4])
    with pytest.raises(ParameterError, match="aligned pairs"):
        engine.score([0], [1, 2, 3])
    with pytest.raises(ParameterError, match="1-D"):
        engine.score([[0, 1]], [[2, 3]])


def test_score_scalar_broadcast(nrp_model):
    """A scalar endpoint broadcasts against the other side's array."""
    engine = nrp_model.to_serving()
    fanout = engine.score(3, [0, 5, 9])
    np.testing.assert_allclose(fanout, engine.score([3, 3, 3], [0, 5, 9]))
    fanin = engine.score([0, 5, 9], 3)
    np.testing.assert_allclose(fanin, engine.score([0, 5, 9], [3, 3, 3]))
    both = engine.score(2, 7)
    np.testing.assert_allclose(both, engine.score([2], [7]))
    # broadcast still range-checks the scalar side
    with pytest.raises(ParameterError, match="out of range"):
        engine.score(engine.num_nodes, [0, 1])


@pytest.mark.parametrize("make_engine_fn", [
    lambda m: m.to_serving(),
    lambda m: m.to_serving(index="ivf", num_lists=4, nprobe=4),
    lambda m: m.to_serving(shards=3),
], ids=["flat", "ivf", "sharded"])
def test_empty_batch_topk_width_matches_backend(nrp_model, make_engine_fn):
    """Regression: the empty-batch path used its own column convention
    (min(k, num_nodes)); it must match the index's min(k, num_items)."""
    engine = make_engine_fn(nrp_model)
    for k in (5, engine.num_nodes, engine.num_nodes + 50):
        full_ids, full_scores = engine.topk([0, 1], k=k)
        empty_ids, empty_scores = engine.topk([], k=k)
        assert empty_ids.shape == (0, full_ids.shape[1])
        assert empty_scores.shape == (0, full_scores.shape[1])
        assert empty_ids.shape[1] == min(k, engine.index.num_items)
        assert empty_ids.dtype == full_ids.dtype


def test_score_validation(nrp_model):
    engine = nrp_model.to_serving()
    with pytest.raises(ParameterError, match="src"):
        engine.score([-1], [0])
    with pytest.raises(ParameterError, match="dst"):
        engine.score([0], [engine.num_nodes])


def test_cache_entries_do_not_pin_batch_arrays(nrp_model):
    """A cached row must be an owning copy, not a view of the batch."""
    engine = nrp_model.to_serving()
    engine.topk(np.arange(50), k=5)
    entry_ids, entry_scores = engine._cache[(3, 5)]
    assert entry_ids.base is None
    assert entry_scores.base is None


def test_unfitted_source_raises():
    with pytest.raises(ReproError):
        QueryEngine(NRP(dim=8))


def test_non_inner_product_model_rejected(small_undirected, tmp_path):
    """RaRE overrides score_pairs; serving dot products would be wrong."""
    from repro.io import export_store, load_embeddings, save_embeddings
    model = make_embedder("rare", 16, seed=0, epochs=1).fit(small_undirected)
    with pytest.raises(ParameterError, match="non-inner-product"):
        model.to_serving()
    # the marker must survive the save/export round-trips too
    save_embeddings(model, tmp_path / "rare.npz")
    bundle = load_embeddings(tmp_path / "rare.npz")
    with pytest.raises(ParameterError, match="non-inner-product"):
        bundle.to_serving()
    store = export_store(bundle, tmp_path / "store")
    with pytest.raises(ParameterError, match="non-inner-product"):
        store.to_serving()


def test_cache_hits_and_eviction(nrp_model):
    engine = nrp_model.to_serving(cache_size=2)
    a1, s1 = engine.topk(0, k=5)
    a2, s2 = engine.topk(0, k=5)           # hit
    np.testing.assert_array_equal(a1, a2)
    np.testing.assert_allclose(s1, s2)
    stats = engine.cache_stats()
    assert stats.hits == 1 and stats.misses == 1
    engine.topk(1, k=5)
    engine.topk(2, k=5)                    # evicts node 0
    engine.topk(0, k=5)                    # miss again
    assert engine.cache_stats().misses == 4
    assert engine.cache_stats().size == 2
    engine.cache_clear()
    assert engine.cache_stats().hits == 0
    assert engine.cache_stats().size == 0


@pytest.mark.parametrize("shards", [None, 3], ids=["flat", "sharded"])
def test_cache_key_includes_k(nrp_model, shards):
    """Regression: a cached k=10 answer must never serve a k=50 query.

    The LRU key is ``(node, k)``; if ``k`` ever fell out of the key, a
    hot node primed at a small ``k`` would truncate every later larger-
    ``k`` query for it. Checked against the exact ranking in both
    directions (grow k, then shrink it) and for both engine flavors.
    """
    engine = nrp_model.to_serving(cache_size=16, shards=shards)
    ref = full_ranking(nrp_model, 3)
    ids10, scores10 = engine.topk(3, k=10)         # primes the cache
    assert len(ids10) == 10
    ids50, scores50 = engine.topk(3, k=50)         # same node, larger k
    assert len(ids50) == 50, "cached k=10 entry served for k=50"
    np.testing.assert_array_equal(ids50, ref[:50])
    ids5, _ = engine.topk(3, k=5)                  # same node, smaller k
    assert len(ids5) == 5
    np.testing.assert_array_equal(ids5, ref[:5])
    # the k=10 entry is still present and still correct
    again10, again_scores10 = engine.topk(3, k=10)
    np.testing.assert_array_equal(again10, ids10)
    np.testing.assert_array_equal(again_scores10, scores10)
    # and the batched path keys by k too
    batch_ids, _ = engine.topk([3, 3, 7], k=25)
    assert batch_ids.shape == (3, 25)
    np.testing.assert_array_equal(batch_ids[0], ref[:25])


@pytest.mark.parametrize("cache_size", [0, 16], ids=["nocache", "cache"])
def test_per_node_k_rows_match_solo_calls(nrp_model, cache_size):
    """One ``k`` per source node: row i is the solo top-``k[i]``, padded
    with ``-1`` / ``-inf`` out to the widest row."""
    engine = nrp_model.to_serving(cache_size=cache_size)
    ids, scores = engine.topk([3, 7, 3], k=[2, 6, 4])
    assert ids.shape == scores.shape == (3, 6)
    for row, (node, k) in enumerate([(3, 2), (7, 6), (3, 4)]):
        np.testing.assert_array_equal(ids[row, :k],
                                      full_ranking(nrp_model, node)[:k])
        assert (ids[row, k:] == -1).all()
        assert np.isneginf(scores[row, k:]).all()
    with pytest.raises(ParameterError, match="one entry per source"):
        engine.topk([3, 7], k=[2])
    with pytest.raises(ParameterError, match="k must be"):
        engine.topk([3, 7], k=[2, 0])


def test_per_node_k_reads_and_fills_the_cache_at_each_k(nrp_model):
    """A row batched with a wider peer still hits, and stores, its own
    ``(node, k)`` entry: the cache does not depend on batch company."""
    engine = nrp_model.to_serving(cache_size=16)
    engine.topk(3, k=5)                              # warms (3, 5)
    searched = []
    real_search = engine.index.search
    engine.index.search = lambda q, k: (searched.append((len(q), k)),
                                        real_search(q, k))[1]
    ids, _ = engine.topk([3, 9], k=[5, 7])
    assert searched == [(1, 7)]                      # only node 9 searched
    stats = engine.cache_stats()
    assert stats.hits == 1 and stats.misses == 2
    assert set(engine._cache) == {(3, 5), (9, 7)}
    np.testing.assert_array_equal(ids[0, :5], full_ranking(nrp_model, 3)[:5])
    engine.topk(9, k=7)                              # a hit, not a search
    assert searched == [(1, 7)]


def test_duplicate_nodes_searched_once_per_batch(nrp_model):
    engine = nrp_model.to_serving()
    seen_rows = []
    real_search = engine.index.search
    engine.index.search = lambda q, k: (seen_rows.append(len(q)),
                                        real_search(q, k))[1]
    ids, _ = engine.topk([5, 5, 5, 2], k=4)
    assert seen_rows == [2]                    # two unique nodes, one search
    np.testing.assert_array_equal(ids[0], ids[1])
    np.testing.assert_array_equal(ids[0], full_ranking(nrp_model, 5)[:4])
    np.testing.assert_array_equal(ids[3], full_ranking(nrp_model, 2)[:4])


def test_cache_disabled_fast_path_results_match(nrp_model):
    fast = nrp_model.to_serving(cache_size=0)
    slow = nrp_model.to_serving(cache_size=16)
    ids_a, scores_a = fast.topk([5, 5, 2], k=4)
    ids_b, scores_b = slow.topk([5, 5, 2], k=4)
    np.testing.assert_array_equal(ids_a, ids_b)
    np.testing.assert_allclose(scores_a, scores_b)
    assert fast.cache_stats().misses == 3


def test_cache_disabled(nrp_model):
    engine = nrp_model.to_serving(cache_size=0)
    engine.topk(0, k=5)
    engine.topk(0, k=5)
    stats = engine.cache_stats()
    assert stats.hits == 0 and stats.size == 0


def test_cached_results_are_isolated_copies(nrp_model):
    """Mutating a returned array must not poison the cache."""
    engine = nrp_model.to_serving()
    ids, _ = engine.topk(4, k=5)
    ids[:] = -7
    again, _ = engine.topk(4, k=5)
    assert (again >= 0).all()


def test_engine_accepts_prebuilt_index(nrp_model):
    index = ExactIndex(nrp_model.backward_, block_rows=50)
    engine = QueryEngine(nrp_model, index=index)
    ids, _ = engine.topk(5, k=8)
    np.testing.assert_array_equal(ids, full_ranking(nrp_model, 5)[:8])
    with pytest.raises(ParameterError):
        QueryEngine(nrp_model, index=index, block_rows=10)
    wrong_size = ExactIndex(np.zeros((7, 8)))
    with pytest.raises(ParameterError, match="prebuilt index"):
        QueryEngine(nrp_model, index=wrong_size)


# ---------------------------------------------------------------- registry
def test_registry_round_trip(nrp_model, single_model):
    reg = ServingRegistry()
    reg.register("nrp", nrp_model)
    reg.register("randne", single_model, index="exact")
    assert reg.names() == ["nrp", "randne"]
    assert "nrp" in reg and len(reg) == 2
    ids, _ = reg.topk("nrp", 3, k=4)
    np.testing.assert_array_equal(ids, full_ranking(nrp_model, 3)[:4])
    np.testing.assert_allclose(reg.score("randne", [0], [5]),
                               single_model.score_pairs([0], [5]))
    with pytest.raises(ReproError):
        reg.register("nrp", single_model)
    reg.register("nrp", single_model, replace=True)
    assert reg.get("nrp").name == single_model.name
    reg.unregister("randne")
    with pytest.raises(ReproError):
        reg.get("randne")


def test_default_registry_exists():
    assert isinstance(DEFAULT_REGISTRY, ServingRegistry)


# ------------------------------------------------------------- task parity
def test_link_prediction_parity_through_engine(small_undirected):
    split = link_prediction_split(small_undirected, test_fraction=0.3, seed=1)
    model = NRP(dim=16, svd="exact", seed=0).fit(split.train_graph)
    offline = evaluate_link_prediction(model, split, seed=2)
    online = evaluate_link_prediction(model, split, seed=2,
                                      engine=model.to_serving())
    assert online.auc == pytest.approx(offline.auc)


def test_engine_over_wrong_graph_rejected(small_undirected, small_directed,
                                          nrp_model):
    """A parity engine sized for a different graph must be refused."""
    split = link_prediction_split(small_undirected, test_fraction=0.3, seed=1)
    model = NRP(dim=16, svd="exact", seed=0).fit(split.train_graph)
    wrong = NRP(dim=16, svd="exact", seed=0).fit(small_directed)
    with pytest.raises(ParameterError, match="different model"):
        evaluate_link_prediction(model, split, engine=wrong.to_serving())
    with pytest.raises(ParameterError, match="different model"):
        evaluate_reconstruction(nrp_model, small_undirected, ks=(10,),
                                engine=wrong.to_serving())


def test_engine_rejected_for_edge_features_methods(small_undirected):
    """engine= must not silently no-op for non-inner scoring methods."""
    split = link_prediction_split(small_undirected, test_fraction=0.3, seed=1)
    model = make_embedder("spectral", 16, seed=0).fit(split.train_graph)
    assert model.lp_scoring == "edge_features"
    with pytest.raises(ParameterError, match="inner-product"):
        evaluate_link_prediction(model, split, seed=2,
                                 engine=model.to_serving())


def test_reconstruction_parity_through_engine(small_undirected, nrp_model):
    offline = evaluate_reconstruction(nrp_model, small_undirected,
                                      ks=(10, 100), seed=0)
    online = evaluate_reconstruction(nrp_model, small_undirected,
                                     ks=(10, 100), seed=0,
                                     engine=nrp_model.to_serving())
    assert online.precision == offline.precision
