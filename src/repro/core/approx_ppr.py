"""Algorithm 1 of the paper: ApproxPPR.

Factorizes the truncated PPR matrix ``Pi' = sum_{i=1..ell1}
alpha (1-alpha)^i P^i`` into forward embeddings ``X`` and backward
embeddings ``Y`` (``X @ Y.T ~= Pi'``) without ever materializing an
``n x n`` matrix:

1. ``U, Sigma, V = BKSVD(A, k', eps)``            (randomized SVD of A)
2. ``X_1 = D^-1 U sqrt(Sigma)``, ``Y = V sqrt(Sigma)``
   so that ``X_1 @ Y.T ~= D^-1 A = P``
3. ``X_i = (1 - alpha) P X_{i-1} + X_1`` for ``i = 2..ell1``
4. ``X = alpha (1 - alpha) X_ell1``

Theorem 1 bounds the entrywise error by
``(1+eps) sigma_{k'+1} (1-alpha)(1-(1-alpha)^ell1) + (1-alpha)^(ell1+1)``.

Steps 1 and 3 only multiply sparse matrices by dense blocks. Both go
through :class:`repro.linalg.BlockSparseOperator`, which evaluates each
product over row chunks on the thread-pool chunk map of
:mod:`repro.parallel`, with the bits of a one-shot CSR product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..errors import ParameterError
from ..graph import Graph
from ..linalg import BlockSparseOperator, bksvd, randomized_svd
from ..rng import ensure_rng

__all__ = ["ApproxPPRConfig", "PPRFactorState", "approx_ppr_embeddings",
           "approx_ppr_state", "theorem1_bound"]


@dataclass(frozen=True)
class ApproxPPRConfig:
    """Inputs of Algorithm 1 (names follow the paper).

    ``k_prime`` is the per-side dimensionality ``k' = k/2``; the paper's
    defaults are ``alpha=0.15, ell1=20, eps=0.2``.

    Every matrix–block product (SVD sketching and the ``ell1`` power
    iterations) is evaluated over row chunks of ``chunk_size`` rows
    (``None`` = :data:`repro.ppr.DEFAULT_CHUNK_SIZE`), on ``workers``
    threads. Each output row is computed with the arithmetic of a
    one-shot CSR product, so the result is bit-identical for any
    ``chunk_size`` and ``workers``.
    """

    k_prime: int
    alpha: float = 0.15
    ell1: int = 20
    eps: float = 0.2
    svd: str = "bksvd"           # "bksvd" | "rsvd" | "exact"
    seed: int | None = 0
    chunk_size: int | None = None
    workers: int = 1

    def validate(self) -> None:
        if self.k_prime < 1:
            raise ParameterError("k_prime must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ParameterError(
                f"alpha must be in the open interval (0, 1), "
                f"got {self.alpha!r}")
        if self.ell1 < 1:
            raise ParameterError("ell1 must be >= 1")
        if self.eps <= 0:
            raise ParameterError("eps must be positive")
        if self.svd not in ("bksvd", "rsvd", "exact"):
            raise ParameterError(f"unknown svd backend {self.svd!r}")
        if self.chunk_size is not None and (
                int(self.chunk_size) != self.chunk_size or self.chunk_size < 1):
            raise ParameterError(
                f"chunk_size must be a positive integer or None, "
                f"got {self.chunk_size!r}")
        if int(self.workers) != self.workers or self.workers < 1:
            raise ParameterError(
                f"workers must be a positive integer, got {self.workers!r}")
        if self.svd == "exact" and (self.chunk_size is not None
                                    or self.workers != 1):
            raise ParameterError(
                "svd='exact' densifies the full adjacency matrix and "
                "ignores chunk_size/workers; use svd='bksvd' or 'rsvd' "
                "with chunk_size/workers")


def _factorize_adjacency(graph: Graph, config: ApproxPPRConfig,
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rng = ensure_rng(config.seed)
    if config.svd == "exact":
        dense = graph.adjacency().toarray()
        u, s, vt = np.linalg.svd(dense, full_matrices=False)
        return u[:, :config.k_prime], s[:config.k_prime], vt[:config.k_prime].T
    # bksvd/rsvd only form matrix-block products, so the chunked
    # operator is invisible to them
    adjacency = BlockSparseOperator(graph.adjacency(),
                                    chunk_size=config.chunk_size,
                                    workers=config.workers)
    if config.svd == "bksvd":
        return bksvd(adjacency, config.k_prime, eps=config.eps, seed=rng)
    return randomized_svd(adjacency, config.k_prime, seed=rng)


@dataclass(frozen=True)
class PPRFactorState:
    """Internal sketches of Algorithm 1, retained for incremental repair.

    The public result ``(X, Y)`` of :func:`approx_ppr_embeddings` is a
    lossy view of this state: ``X = alpha (1 - alpha) x_iter`` and
    ``Y = y``. :class:`repro.streaming.IncrementalPPR` instead needs the
    un-scaled iterate and the basis that maps adjacency rows back into
    sketch space:

    ``x1``
        The first iterate ``X_1 = D^-1 U sqrt(Sigma)``; the additive
        term of every power iteration.
    ``x_iter``
        ``X_ell1`` before the final ``alpha (1 - alpha)`` scaling.
    ``y``
        The backward factor ``V sqrt(Sigma)`` (the serving database
        side; fixed between basis refreshes).
    ``v_scaled``
        ``V / sqrt(Sigma)`` (columns with ``sigma = 0`` zeroed). Since
        ``U sqrt(Sigma) = A V Sigma^-1/2``, a changed adjacency row
        maps to a changed ``x1`` row by ``delta_A[v] @ v_scaled`` —
        the identity that makes O(degree) local repair possible.
    """

    x1: np.ndarray
    x_iter: np.ndarray
    y: np.ndarray
    v_scaled: np.ndarray


def approx_ppr_state(graph: Graph, config: ApproxPPRConfig,
                     ) -> PPRFactorState:
    """Run Algorithm 1 keeping the internal sketches (see the dataclass)."""
    config.validate()
    if config.k_prime > graph.num_nodes:
        raise ParameterError("k_prime cannot exceed the number of nodes")
    with obs.trace("approx_ppr.svd", backend=config.svd,
                   k_prime=config.k_prime):
        u, sigma, v = _factorize_adjacency(graph, config)
    sqrt_sigma = np.sqrt(np.maximum(sigma, 0.0))
    d_inv = graph.out_degree_inverse()
    x1 = d_inv[:, None] * u * sqrt_sigma[None, :]
    y = v * sqrt_sigma[None, :]
    inv_sqrt = np.zeros_like(sqrt_sigma)
    np.divide(1.0, sqrt_sigma, out=inv_sqrt, where=sqrt_sigma > 0)
    v_scaled = v * inv_sqrt[None, :]

    p = BlockSparseOperator(graph.transition_matrix(),
                            chunk_size=config.chunk_size,
                            workers=config.workers)
    with obs.trace("approx_ppr.propagation", ell1=config.ell1):
        x_iter = x1.copy()
        for _ in range(2, config.ell1 + 1):
            x_iter = (1.0 - config.alpha) * (p @ x_iter) + x1
    return PPRFactorState(x1=x1, x_iter=x_iter, y=y, v_scaled=v_scaled)


def approx_ppr_embeddings(graph: Graph, config: ApproxPPRConfig,
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Run Algorithm 1; returns ``(X, Y)`` with ``X @ Y.T ~= Pi'``."""
    state = approx_ppr_state(graph, config)
    x = state.x_iter * (config.alpha * (1.0 - config.alpha))
    return x, state.y


def theorem1_bound(sigma_next: float, alpha: float, ell1: int,
                   eps: float) -> float:
    """The entrywise error bound of Theorem 1.

    ``sigma_next`` is the ``(k'+1)``-th largest singular value of ``A``.
    """
    decay = 1.0 - alpha
    return ((1.0 + eps) * sigma_next * decay * (1.0 - decay ** ell1)
            + decay ** (ell1 + 1))
