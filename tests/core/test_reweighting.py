"""Tests for Algorithms 2/4: fast aggregate formulas vs the naive Eq. (7)
and Eq. (23) definitions, coordinate optimality, and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reweighting_oracle import (oracle_backward_weights,
                                oracle_forward_weights, solve)

from repro.core import (backward_aggregates, forward_aggregates,
                        naive_backward_terms, naive_forward_terms,
                        reweighting_objective, update_backward_weights,
                        update_forward_weights)
from repro.errors import DimensionError, ParameterError

# the engine and the per-node oracle loop run the same sweep unit tests
SWEEPS = {"engine": (update_backward_weights, update_forward_weights),
          "oracle": (oracle_backward_weights, oracle_forward_weights)}


def _fast_backward_terms(x, y, w_fwd, w_bwd, d_out, d_in, v):
    """Recompute the Eq. (9)/(10) fast terms for a single node (exact b1)."""
    agg = backward_aggregates(x, y, w_fwd, w_bwd, d_out)
    xy = np.einsum("ij,ij->i", x, y)
    yv, xv = y[v], x[v]
    lam_yv = agg.lam_mat @ yv
    a1 = float(agg.xi @ yv)
    proj = float(agg.chi @ yv) - w_fwd[v] * xy[v]
    a2 = d_in[v] * proj
    b2 = proj * proj
    a3 = (float(agg.rho1 @ lam_yv) - w_bwd[v] * float(yv @ lam_yv)
          - float(agg.rho2 @ yv) + w_bwd[v] * w_fwd[v] ** 2 * xy[v] ** 2)
    b1 = float(yv @ lam_yv) - w_fwd[v] ** 2 * xy[v] ** 2
    return a1, a2, a3, b1, b2


def _fast_forward_terms(x, y, w_fwd, w_bwd, d_out, d_in, u):
    agg = forward_aggregates(x, y, w_fwd, w_bwd, d_in)
    xy = np.einsum("ij,ij->i", x, y)
    xu, yu = x[u], y[u]
    lam_xu = agg.lam_mat @ xu
    a1 = float(agg.xi @ xu)
    proj = float(agg.chi @ xu) - w_bwd[u] * xy[u]
    a2 = d_out[u] * proj
    b2 = proj * proj
    a3 = (float(agg.rho1 @ lam_xu) - w_fwd[u] * float(xu @ lam_xu)
          - float(agg.rho2 @ xu) + w_fwd[u] * w_bwd[u] ** 2 * xy[u] ** 2)
    b1 = float(xu @ lam_xu) - w_bwd[u] ** 2 * xy[u] ** 2
    return a1, a2, a3, b1, b2


def test_fast_backward_terms_match_naive(random_embeddings):
    x, y, w_fwd, w_bwd, d_out, d_in = random_embeddings
    for v in range(x.shape[0]):
        fast = _fast_backward_terms(x, y, w_fwd, w_bwd, d_out, d_in, v)
        naive = naive_backward_terms(x, y, w_fwd, w_bwd, d_out, d_in, v)
        np.testing.assert_allclose(fast, naive, rtol=1e-9, atol=1e-9)


def test_fast_forward_terms_match_naive(random_embeddings):
    x, y, w_fwd, w_bwd, d_out, d_in = random_embeddings
    for u in range(x.shape[0]):
        fast = _fast_forward_terms(x, y, w_fwd, w_bwd, d_out, d_in, u)
        naive = naive_forward_terms(x, y, w_fwd, w_bwd, d_out, d_in, u)
        np.testing.assert_allclose(fast, naive, rtol=1e-9, atol=1e-9)


def test_b1_amgm_sandwich(random_embeddings):
    """Eq. (12): mid <= k' * mid bounds the Eq. (14) approximation."""
    x, y, w_fwd, w_bwd, d_out, d_in = random_embeddings
    k_prime = x.shape[1]
    agg = backward_aggregates(x, y, w_fwd, w_bwd, d_out)
    for v in range(x.shape[0]):
        yv, xv = y[v], x[v]
        mid = float((yv * yv) @ agg.phi) \
            - w_fwd[v] ** 2 * float(((yv * xv) ** 2).sum())
        approx = 0.5 * k_prime * mid
        # the approximation lies inside [mid/ (k'/... ), k' mid]: concretely
        # it is within the sandwich [mid, k' mid] for k' >= 2
        assert mid - 1e-12 <= approx <= k_prime * mid + 1e-12


def test_phi_is_diagonal_of_lambda(random_embeddings):
    """Fig. 3's structural identity: phi == diag(Lambda)."""
    x, y, w_fwd, w_bwd, d_out, _ = random_embeddings
    agg = backward_aggregates(x, y, w_fwd, w_bwd, d_out)
    np.testing.assert_allclose(agg.phi, np.diag(agg.lam_mat), rtol=1e-12)


def _corrected_backward_minimizer(x, y, w_fwd, w_bwd, d_out, d_in, v, lam):
    """The true coordinate minimizer of Eq. (6) w.r.t. w_bwd[v].

    The paper's a1/a3 (Eq. 7) sum over *all* u including u = v, whose
    objective term does not actually contain w_bwd[v]; this helper
    excludes those self terms, yielding the exact minimizer. The
    discrepancy vanishes when out-strengths match out-degrees, which is
    why the paper's faithful update still descends (tested separately).
    """
    n = x.shape[0]
    s = x @ y[v]
    ws = w_fwd * s
    a2 = d_in[v] * (ws.sum() - ws[v])
    g = (w_fwd[:, None] * (x @ y.T)) * w_bwd[None, :]
    a1 = a3 = 0.0
    for u in range(n):
        if u == v:
            continue
        t_excl = g[u].sum() - g[u, u] - g[u, v]
        a1 += d_out[u] * ws[u]
        a3 += t_excl * ws[u]
    b1 = float((ws * ws).sum() - ws[v] * ws[v])
    b2 = float((ws.sum() - ws[v]) ** 2)
    return (a1 + a2 - a3) / (b1 + b2 + lam)


def test_corrected_coordinate_update_is_exact_minimizer(random_embeddings):
    x, y, w_fwd, w_bwd, d_out, d_in = random_embeddings
    lam = 0.5
    v = 7
    best = _corrected_backward_minimizer(x, y, w_fwd, w_bwd, d_out, d_in,
                                         v, lam)

    def objective_at(wv):
        trial = w_bwd.copy()
        trial[v] = wv
        return reweighting_objective(x, y, w_fwd, trial, d_out, d_in, lam)

    center = objective_at(best)
    for delta in (-0.05, 0.05, -0.5, 0.5):
        assert objective_at(best + delta) >= center - 1e-9


def test_paper_update_close_to_exact_minimizer(random_embeddings):
    """The Eq. (8) update differs from the exact coordinate minimizer only
    by the u = v self terms — quantified here to stay small relative to
    the weight scale."""
    x, y, w_fwd, w_bwd, d_out, d_in = random_embeddings
    lam = 0.5
    for v in (0, 7, 13):
        a1, a2, a3, b1, b2 = naive_backward_terms(x, y, w_fwd, w_bwd,
                                                  d_out, d_in, v)
        paper = (a1 + a2 - a3) / (b1 + b2 + lam)
        exact = _corrected_backward_minimizer(x, y, w_fwd, w_bwd,
                                              d_out, d_in, v, lam)
        assert abs(paper - exact) < 0.5 * (1.0 + abs(exact))


def test_sequential_sweep_decreases_objective(random_embeddings):
    """Gauss-Seidel epochs with exact b1 never increase Eq. (6)."""
    x, y, w_fwd, w_bwd, d_out, d_in = random_embeddings
    lam = 0.2
    before = reweighting_objective(x, y, w_fwd, w_bwd, d_out, d_in, lam)
    for backward, forward in SWEEPS.values():
        bw = backward(x, y, w_fwd, w_bwd, d_out, d_in, lam, exact_b1=True,
                      seed=0)
        mid = reweighting_objective(x, y, w_fwd, bw, d_out, d_in, lam)
        fw = forward(x, y, w_fwd, bw, d_out, d_in, lam, exact_b1=True,
                     seed=0)
        after = reweighting_objective(x, y, fw, bw, d_out, d_in, lam)
        assert mid <= before + 1e-9
        assert after <= mid + 1e-9


def test_weights_respect_floor(random_embeddings):
    """Constraint of Eq. (6): every weight >= 1/n."""
    x, y, w_fwd, w_bwd, d_out, d_in = random_embeddings
    n = x.shape[0]
    for backward, forward in SWEEPS.values():
        for mode in ("sequential", "jacobi"):
            bw = backward(x, y, w_fwd, w_bwd, d_out, d_in, 0.1, mode=mode,
                          seed=1)
            fw = forward(x, y, w_fwd, bw, d_out, d_in, 0.1, mode=mode,
                         seed=1)
            assert np.all(bw >= 1.0 / n - 1e-15)
            assert np.all(fw >= 1.0 / n - 1e-15)


def test_incremental_rho_matches_recompute(random_embeddings):
    """Eq. (11): a sweep that maintains rho incrementally lands where a
    Gauss-Seidel sweep that recomputes every Eq. (7) term from the
    current weights at each node lands."""
    x, y, w_fwd, w_bwd, d_out, d_in = random_embeddings
    n, lam = x.shape[0], 0.3
    recomputed = w_bwd.copy()
    for v in np.random.default_rng(2).permutation(n):
        a1, a2, a3, b1, b2 = naive_backward_terms(x, y, w_fwd, recomputed,
                                                  d_out, d_in, v)
        recomputed[v] = solve(a1 + a2 - a3, b1 + b2 + lam, 1.0 / n)
    for backward, _ in SWEEPS.values():
        incremental = backward(x, y, w_fwd, w_bwd, d_out, d_in, lam,
                               exact_b1=True, seed=2)
        np.testing.assert_allclose(incremental, recomputed, rtol=1e-10)


def test_jacobi_and_sequential_agree_for_single_node():
    """With n = 1 the two update modes coincide."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 4))
    y = rng.standard_normal((1, 4))
    w = np.ones(1)
    d = np.array([3.0])
    seq = update_backward_weights(x, y, w, w, d, d, 0.1, mode="sequential",
                                  seed=0)
    jac = update_backward_weights(x, y, w, w, d, d, 0.1, mode="jacobi")
    np.testing.assert_allclose(seq, jac, rtol=1e-12)


def test_jacobi_matches_formula_elementwise(random_embeddings):
    """Jacobi updates equal the closed form computed per node from the
    *initial* weights (no sequential coupling)."""
    x, y, w_fwd, w_bwd, d_out, d_in = random_embeddings
    lam = 0.4
    n = x.shape[0]
    jac = update_backward_weights(x, y, w_fwd, w_bwd, d_out, d_in, lam,
                                  mode="jacobi", exact_b1=True)
    for v in range(n):
        a1, a2, a3, b1, b2 = naive_backward_terms(x, y, w_fwd, w_bwd,
                                                  d_out, d_in, v)
        expect = max(1.0 / n, (a1 + a2 - a3) / (b1 + b2 + lam))
        assert jac[v] == pytest.approx(expect, rel=1e-9)


def test_update_rejects_unknown_mode(random_embeddings):
    x, y, w_fwd, w_bwd, d_out, d_in = random_embeddings
    with pytest.raises(ParameterError):
        update_backward_weights(x, y, w_fwd, w_bwd, d_out, d_in, 0.1,
                                mode="chaotic")


def test_update_rejects_bad_shapes():
    x = np.ones((3, 2))
    y = np.ones((4, 2))
    w = np.ones(3)
    with pytest.raises(DimensionError):
        update_backward_weights(x, y, w, w, w, w, 0.1)


def test_solve_guards_zero_denominator():
    assert solve(5.0, 0.0, 0.25) == 0.25
    assert solve(-5.0, 1.0, 0.25) == 0.25
    assert solve(5.0, 2.0, 0.25) == 2.5


@given(st.integers(2, 12), st.integers(1, 5),
       st.floats(0.0, 5.0), st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_property_fast_equals_naive(n, k, lam, seed):
    """Randomized agreement between fast and naive term computation."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, k))
    y = rng.standard_normal((n, k))
    w_fwd = rng.uniform(0.1, 2.0, n)
    w_bwd = rng.uniform(0.1, 2.0, n)
    d_out = rng.integers(1, 8, n).astype(float)
    d_in = rng.integers(1, 8, n).astype(float)
    v = int(rng.integers(0, n))
    fast = _fast_backward_terms(x, y, w_fwd, w_bwd, d_out, d_in, v)
    naive = naive_backward_terms(x, y, w_fwd, w_bwd, d_out, d_in, v)
    np.testing.assert_allclose(fast, naive, rtol=1e-8, atol=1e-8)
