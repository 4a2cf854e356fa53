"""Tests for the randomized SVD engines (BKSVD and Halko rSVD)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import ParameterError
from repro.linalg import bksvd, default_krylov_iterations, randomized_svd


def _low_rank_matrix(n, d, rank, noise, seed):
    rng = np.random.default_rng(seed)
    left = rng.standard_normal((n, rank))
    right = rng.standard_normal((rank, d))
    return left @ right + noise * rng.standard_normal((n, d))


def test_bksvd_recovers_low_rank():
    mat = _low_rank_matrix(120, 100, 5, 0.0, 0)
    u, s, v = bksvd(mat, 5, seed=1)
    np.testing.assert_allclose(u @ np.diag(s) @ v.T, mat, atol=1e-6)


def test_bksvd_matches_exact_singular_values():
    mat = _low_rank_matrix(80, 80, 8, 0.01, 2)
    _, s_exact, _ = np.linalg.svd(mat)
    _, s_approx, _ = bksvd(mat, 8, seed=3)
    np.testing.assert_allclose(s_approx, s_exact[:8], rtol=1e-3)


def test_bksvd_spectral_error_bound():
    """(1 + eps) sigma_{k+1} spectral bound of Musco & Musco."""
    mat = _low_rank_matrix(100, 100, 20, 0.05, 4)
    k, eps = 10, 0.2
    u, s, v = bksvd(mat, k, eps=eps, seed=5)
    _, s_exact, _ = np.linalg.svd(mat)
    residual = mat - u @ np.diag(s) @ v.T
    spectral = np.linalg.norm(residual, 2)
    assert spectral <= (1 + eps) * s_exact[k] * 1.05   # 5% numerical slack


def test_bksvd_sparse_input(fig1):
    a = fig1.adjacency()
    u, s, v = bksvd(a, 4, seed=0)
    dense_u, dense_s, dense_vt = np.linalg.svd(a.toarray())
    np.testing.assert_allclose(s, dense_s[:4], rtol=1e-6)


def test_bksvd_orthonormal_u():
    mat = _low_rank_matrix(60, 50, 10, 0.1, 6)
    u, _, _ = bksvd(mat, 6, seed=7)
    np.testing.assert_allclose(u.T @ u, np.eye(6), atol=1e-8)


def test_bksvd_deterministic_given_seed():
    mat = sp.random(80, 80, density=0.1, random_state=0, format="csr")
    u1, s1, v1 = bksvd(mat, 5, seed=42)
    u2, s2, v2 = bksvd(mat, 5, seed=42)
    np.testing.assert_array_equal(u1, u2)
    np.testing.assert_array_equal(s1, s2)


def test_bksvd_sign_convention():
    mat = _low_rank_matrix(40, 40, 5, 0.0, 8)
    u, _, _ = bksvd(mat, 3, seed=9)
    idx = np.argmax(np.abs(u), axis=0)
    signs = np.sign(u[idx, np.arange(3)])
    assert np.all(signs > 0)


def test_bksvd_memory_guard_reduces_depth():
    mat = _low_rank_matrix(50, 50, 5, 0.1, 10)
    # should not fail even with tiny budget
    u, s, v = bksvd(mat, 8, max_krylov_cols=16, seed=0)
    assert u.shape == (50, 8)


def test_bksvd_rejects_bad_rank():
    mat = np.eye(5)
    with pytest.raises(ParameterError):
        bksvd(mat, 0)
    with pytest.raises(ParameterError):
        bksvd(mat, 10)


def test_default_krylov_iterations_monotone_in_eps():
    n = 10_000
    assert (default_krylov_iterations(n, 0.1)
            >= default_krylov_iterations(n, 0.9))


def test_default_krylov_iterations_bounds():
    assert 4 <= default_krylov_iterations(100, 0.5) <= 15
    with pytest.raises(ParameterError):
        default_krylov_iterations(100, 0.0)


def test_rsvd_recovers_low_rank():
    mat = _low_rank_matrix(100, 90, 6, 0.0, 11)
    u, s, v = randomized_svd(mat, 6, seed=12)
    np.testing.assert_allclose(u @ np.diag(s) @ v.T, mat, atol=1e-5)


def test_rsvd_vs_bksvd_on_noisy_matrix():
    """Block Krylov should match or beat plain power iteration."""
    mat = _low_rank_matrix(150, 150, 30, 0.3, 13)
    _, s_exact, _ = np.linalg.svd(mat)
    _, s_bk, _ = bksvd(mat, 10, num_iters=8, seed=14)
    _, s_rs, _ = randomized_svd(mat, 10, power_iters=2, oversample=2, seed=14)
    err_bk = np.abs(s_bk - s_exact[:10]).max()
    err_rs = np.abs(s_rs - s_exact[:10]).max()
    assert err_bk <= err_rs + 1e-6


def test_rsvd_rejects_bad_rank():
    with pytest.raises(ParameterError):
        randomized_svd(np.eye(4), 9)


def _bksvd_hstack_reference(matrix, rank, seed):
    """The list-of-blocks construction bksvd replaced: every Krylov block
    kept in a list, joined by ``np.hstack`` and factored by
    ``np.linalg.qr``. Same draws, same products, same read-off."""
    n, d = matrix.shape
    rng = np.random.default_rng(seed)
    q = default_krylov_iterations(n, 0.2)
    if rank * (q + 1) > 512:
        q = max(1, 512 // rank - 1)
    block, _ = np.linalg.qr(matrix @ rng.standard_normal((d, rank)))
    krylov = [block]
    for _ in range(q):
        block, _ = np.linalg.qr(matrix @ (matrix.T @ block))
        krylov.append(block)
    basis, _ = np.linalg.qr(np.hstack(krylov))
    w = np.asarray(matrix.T @ basis).T
    eigvals, eigvecs = np.linalg.eigh(w @ w.T)
    order = np.argsort(eigvals)[::-1][:rank]
    sigma = np.sqrt(np.maximum(eigvals[order], 0.0))
    u = basis @ eigvecs[:, order]
    v = np.asarray(matrix.T @ u) / np.where(sigma > 1e-12, sigma, 1.0)
    idx = np.argmax(np.abs(u), axis=0)
    signs = np.sign(u[idx, np.arange(rank)])
    signs[signs == 0] = 1.0
    return u * signs, sigma, v * signs


@pytest.mark.parametrize("rank", [4, 8])
def test_bksvd_in_place_basis_matches_hstack_construction(small_directed,
                                                          rank):
    """The in-place Fortran basis + overwriting QR changes no result."""
    adjacency = small_directed.adjacency()
    got = bksvd(adjacency, rank, seed=3)
    want = _bksvd_hstack_reference(adjacency, rank, seed=3)
    for a, b in zip(got, want):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-10)


def test_bksvd_basis_wider_than_matrix_matches_reference(fig1):
    """rank * (q + 1) > n: the economic QR keeps only n columns."""
    adjacency = fig1.adjacency()
    u, s, v = bksvd(adjacency, 2, seed=0)
    ru, rs, rv = _bksvd_hstack_reference(adjacency, 2, seed=0)
    np.testing.assert_allclose(s, rs, rtol=0, atol=1e-10)
    np.testing.assert_allclose(u * s @ v.T, ru * rs @ rv.T, rtol=0,
                               atol=1e-10)
