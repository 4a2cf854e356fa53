"""Randomized Block Krylov SVD (Musco & Musco, NeurIPS 2015).

This is the ``BKSVD`` routine that Algorithm 1 of the NRP paper calls to
factorize the adjacency matrix: given a sparse ``A`` and rank ``k'`` it
returns ``U, sigma, V`` with ``U diag(sigma) V^T ~= A`` and a
``(1 + eps)``-relative spectral-norm guarantee after
``O(log n / sqrt(eps))`` iterations.

The implementation follows Algorithm 2 of Musco & Musco:

1. draw a Gaussian block ``Pi`` of ``k'`` columns,
2. build the Krylov basis ``K = [A Pi, (A A^T) A Pi, ...]``
   (each block QR-orthonormalized for numerical stability), written in
   place into one preallocated Fortran-order array,
3. orthonormalize ``K`` into ``Q`` by a QR that overwrites ``K``, so
   the basis exists once in memory,
4. eigendecompose the small matrix ``M = Q^T A A^T Q``,
5. read off the top-``k'`` singular triplets.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from ..errors import ParameterError
from ..rng import ensure_rng

__all__ = ["bksvd", "default_krylov_iterations"]


def default_krylov_iterations(num_rows: int, eps: float) -> int:
    """The paper-suggested iteration count ``O(log n / sqrt(eps))``, clamped.

    The theoretical constant is small in practice; we clamp to [4, 15] so
    the routine stays fast on large graphs while matching the guarantee
    regime used in the paper's experiments (eps in [0.1, 0.9]).
    """
    if eps <= 0:
        raise ParameterError("eps must be positive")
    raw = math.ceil(math.log(max(num_rows, 2)) / math.sqrt(eps) / 2.0)
    return int(min(15, max(4, raw)))


def _fix_signs(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Make the SVD deterministic: largest-|entry| of each u-column positive."""
    idx = np.argmax(np.abs(u), axis=0)
    signs = np.sign(u[idx, np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    return u * signs, v * signs


def bksvd(matrix, rank: int, *, eps: float = 0.2,
          num_iters: int | None = None, max_krylov_cols: int = 512,
          seed=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Approximate top-``rank`` SVD of a (sparse) matrix.

    Parameters
    ----------
    matrix:
        ``(n, d)`` array or scipy sparse matrix; only matvec products are
        used, so sparse inputs are never densified.
    rank:
        Number of singular triplets to return.
    eps:
        Relative spectral-norm error target; sets the default iteration
        count via :func:`default_krylov_iterations`.
    num_iters:
        Explicit Krylov depth ``q`` (overrides ``eps``-derived default).
    max_krylov_cols:
        Memory guard: the Krylov basis has ``rank * (q + 1)`` columns;
        ``q`` is reduced if the basis would exceed this many columns.

    Returns
    -------
    (U, sigma, V):
        ``U`` is ``(n, rank)``, ``sigma`` descending ``(rank,)``,
        ``V`` is ``(d, rank)``; ``U @ diag(sigma) @ V.T ~= matrix``.
    """
    n, d = matrix.shape
    if rank < 1 or rank > min(n, d):
        raise ParameterError(f"rank={rank} out of range for shape {(n, d)}")
    rng = ensure_rng(seed)
    q = num_iters if num_iters is not None else default_krylov_iterations(n, eps)
    if rank * (q + 1) > max_krylov_cols:
        q = max(1, max_krylov_cols // rank - 1)

    omega = rng.standard_normal((d, rank))
    basis = np.empty((n, rank * (q + 1)), order="F")
    block = matrix @ omega
    for i in range(q + 1):
        if i:
            block = matrix @ (matrix.T @ block)
        block, _ = np.linalg.qr(block)
        basis[:, i * rank:(i + 1) * rank] = block
    basis, _ = scipy.linalg.qr(basis, mode="economic", overwrite_a=True,
                               check_finite=False)

    # M = Q^T (A A^T) Q computed as W W^T with W = Q^T A, one Krylov
    # block of columns at a time: a block is copied to C order (what a
    # sparse product reads) without copying the whole basis at once.
    w = np.empty((basis.shape[1], d))
    for start in range(0, basis.shape[1], rank):
        cols = np.ascontiguousarray(basis[:, start:start + rank])
        w[start:start + rank] = np.asarray(matrix.T @ cols).T
    small = w @ w.T
    eigvals, eigvecs = np.linalg.eigh(small)
    order = np.argsort(eigvals)[::-1][:rank]
    eigvals = np.maximum(eigvals[order], 0.0)
    u = basis @ eigvecs[:, order]
    sigma = np.sqrt(eigvals)

    # Right singular vectors: V = A^T U Sigma^{-1} (guard tiny sigmas).
    safe = np.where(sigma > 1e-12, sigma, 1.0)
    v = np.asarray(matrix.T @ u) / safe
    u, v = _fix_signs(u, v)
    return u, sigma, v
