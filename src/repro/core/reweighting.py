"""Node reweighting: Algorithms 2 (backward) and 4 (forward) of the paper.

Each node ``v`` receives a forward weight ``w_fwd[v]`` and a backward
weight ``w_bwd[v]``; coordinate descent on Eq. (6) updates one weight at
a time by its closed-form minimizer (Eq. 8 / Eq. 23) clamped to
``>= 1/n``. A full epoch costs ``O(n k'^2)`` thanks to the shared
aggregates of Eq. (9)/(10)/(13) (named ``xi, chi, rho1, rho2, lam_mat,
phi`` as in the paper) with ``rho1, rho2`` maintained incrementally
(Eq. 11 / 26).

Two update modes are provided:

* ``sequential`` — the Gauss–Seidel loop of Algorithm 2/4 (random node
  order, incremental ``rho`` updates);
* ``jacobi`` — all coordinates updated from the same aggregates in one
  vectorized shot (an ablation; slightly different trajectory).

Both run on one chunked engine. The per-node terms that do not depend
on the evolving ``rho`` vectors — everything except one dot product per
node — are precomputed over row chunks of ``chunk_size`` rows (on
``workers`` threads, see :mod:`repro.parallel`). What is left of a
sequential sweep is a recurrence of one fused ``O(k')`` dot and one
``O(k')`` axpy per node. Its trajectory is deterministic given
``(seed, chunk_size)``, bit-identical for any ``workers``, and follows
the per-node loop of the paper up to floating-point reassociation
(``<= 1e-8``, observed ``~1e-13`` on the weights; the loop is kept in
the test suite as the parity oracle). The naive reference functions at
the end evaluate the Eq. (7)/(23) sums directly in ``O(n k')`` per node
and are used only by tests to pin down the fast formulas.

``b1`` handling: Eq. (14) approximates ``b1`` via the AM-GM sandwich of
Eq. (12) with a ``k'/2`` multiplier. Since ``b1`` is exactly
``Y_v Lambda Y_v^T - w_fwd[v]^2 (X_v . Y_v)^2`` and ``Y_v Lambda Y_v^T``
is already needed for ``a3``, we also expose ``exact_b1=True`` as a
zero-extra-cost ablation of this design choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DimensionError, ParameterError
from ..parallel import parallel_map
from ..ppr.chunks import iter_chunks
from ..rng import ensure_rng

__all__ = [
    "BackwardAggregates", "ForwardAggregates",
    "backward_aggregates", "forward_aggregates",
    "update_backward_weights", "update_forward_weights",
    "naive_backward_terms", "naive_forward_terms",
]


def _check_inputs(x: np.ndarray, y: np.ndarray, w_fwd: np.ndarray,
                  w_bwd: np.ndarray) -> None:
    if x.ndim != 2 or x.shape != y.shape:
        raise DimensionError("X and Y must be (n, k') with identical shapes")
    n = x.shape[0]
    if w_fwd.shape != (n,) or w_bwd.shape != (n,):
        raise DimensionError("weights must be length-n vectors")


@dataclass
class BackwardAggregates:
    """Shared terms of Eq. (9), (10), (13) for the backward sweep."""

    xi: np.ndarray        # sum_u d_out(u) w_fwd[u] X_u               (k',)
    chi: np.ndarray       # sum_u w_fwd[u] X_u                        (k',)
    lam_mat: np.ndarray   # sum_u w_fwd[u]^2 X_u^T X_u                (k', k')
    rho1: np.ndarray      # sum_v w_bwd[v] Y_v                        (k',)
    rho2: np.ndarray      # sum_v w_fwd[v]^2 w_bwd[v] (X_v.Y_v) X_v   (k',)
    phi: np.ndarray       # phi[r] = sum_u w_fwd[u]^2 X_u[r]^2        (k',)


@dataclass
class ForwardAggregates:
    """Shared terms of Eq. (24), (25), (28) for the forward sweep."""

    xi: np.ndarray        # sum_v d_in(v) w_bwd[v] Y_v                (k',)
    chi: np.ndarray       # sum_v w_bwd[v] Y_v                        (k',)
    lam_mat: np.ndarray   # sum_v w_bwd[v]^2 Y_v^T Y_v                (k', k')
    rho1: np.ndarray      # sum_u w_fwd[u] X_u                        (k',)
    rho2: np.ndarray      # sum_v w_fwd[v] w_bwd[v]^2 (X_v.Y_v) Y_v   (k',)
    phi: np.ndarray       # phi[r] = sum_v w_bwd[v]^2 Y_v[r]^2        (k',)


def backward_aggregates(x: np.ndarray, y: np.ndarray, w_fwd: np.ndarray,
                        w_bwd: np.ndarray, d_out: np.ndarray,
                        ) -> BackwardAggregates:
    """Compute Lines 1-3 of Algorithm 2 in ``O(n k'^2)``."""
    xy = np.einsum("ij,ij->i", x, y)
    wf2 = w_fwd * w_fwd
    return BackwardAggregates(
        xi=(d_out * w_fwd) @ x,
        chi=w_fwd @ x,
        lam_mat=x.T @ (wf2[:, None] * x),
        rho1=w_bwd @ y,
        rho2=(wf2 * w_bwd * xy) @ x,
        phi=wf2 @ (x * x),
    )


def forward_aggregates(x: np.ndarray, y: np.ndarray, w_fwd: np.ndarray,
                       w_bwd: np.ndarray, d_in: np.ndarray,
                       ) -> ForwardAggregates:
    """Compute Line 1-3 of Algorithm 4 in ``O(n k'^2)``."""
    xy = np.einsum("ij,ij->i", x, y)
    wb2 = w_bwd * w_bwd
    return ForwardAggregates(
        xi=(d_in * w_bwd) @ y,
        chi=w_bwd @ y,
        lam_mat=y.T @ (wb2[:, None] * y),
        rho1=w_fwd @ x,
        rho2=(w_fwd * wb2 * xy) @ y,
        phi=wb2 @ (y * y),
    )


# ----------------------------------------------------------------------
# The engine. Written once in the *backward* orientation; the forward
# sweep is the same computation with (x, y), (w_fwd, w_bwd) and
# (d_out, d_in) swapped (compare the aggregate definitions above).
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _SweepInputs:
    """Read-only inputs shared by every chunk of one epoch."""

    x: np.ndarray
    y: np.ndarray
    w_fwd: np.ndarray
    w_bwd: np.ndarray
    d_in: np.ndarray
    lam: float
    xy: np.ndarray        # X_v . Y_v
    wf2: np.ndarray       # w_fwd^2
    y_xi: np.ndarray      # a1 = Y_v . xi
    y_chi: np.ndarray     # Y_v . chi
    yy_phi: np.ndarray | None   # (Y_v * Y_v) . phi; None with exact b1


def _sweep_chunk(bounds: tuple[int, int], inp: _SweepInputs, z: np.ndarray,
                 u: np.ndarray, num0: np.ndarray, denom: np.ndarray) -> None:
    """Rho-independent per-node terms of Eq. (8) for one row chunk.

    Writes rows ``start:stop`` of ``(z, u, num0, denom)``: for node ``v``
    the update reduces to ``new = clamp((num0[v] - r . z[v]) / denom[v])``
    with the fused state ``r = [rho1, rho2]``, followed (sequential mode)
    by ``r += (new - w0[v]) * u[v]``. The first half of ``z`` holds
    ``lam_mat @ Y_v`` on entry.
    """
    start, stop = bounds
    k_prime = inp.x.shape[1]
    xc, yc = inp.x[start:stop], inp.y[start:stop]
    wfc, w0 = inp.w_fwd[start:stop], inp.w_bwd[start:stop]
    xyc, wf2c = inp.xy[start:stop], inp.wf2[start:stop]
    y_lam_y = np.einsum("ij,ij->i", z[start:stop, :k_prime], yc)
    proj = inp.y_chi[start:stop] - wfc * xyc
    a2 = inp.d_in[start:stop] * proj
    b2 = proj * proj
    if inp.yy_phi is None:
        b1 = y_lam_y - wf2c * xyc * xyc
    else:
        b1 = 0.5 * k_prime * (inp.yy_phi[start:stop]
                              - wf2c * ((yc * xc) ** 2).sum(axis=1))
    # a3 = rho1.lam_y[v] - w0 y_lam_y - rho2.y[v] + w0 wf2 xy^2; the two
    # rho dots are r . z[v], the rest folds into num0 (each node is
    # visited once per epoch, so its own weight is still w0 there).
    np.negative(yc, out=z[start:stop, k_prime:])
    u[start:stop, :k_prime] = yc
    np.multiply((wf2c * xyc)[:, None], xc, out=u[start:stop, k_prime:])
    num0[start:stop] = (inp.y_xi[start:stop] + a2 + w0 * y_lam_y
                        - w0 * wf2c * xyc * xyc)
    denom[start:stop] = b1 + b2 + inp.lam


def _update(x: np.ndarray, y: np.ndarray, w_fwd: np.ndarray,
            w_bwd: np.ndarray, d_out: np.ndarray, d_in: np.ndarray,
            lam: float, *, mode: str, exact_b1: bool, seed,
            chunk_size: int | None, workers: int) -> np.ndarray:
    """One epoch in the backward orientation; returns the new ``w_bwd``."""
    if mode not in ("sequential", "jacobi"):
        raise ParameterError(f"unknown update mode {mode!r}")
    n, k_prime = x.shape
    floor = 1.0 / n
    agg = backward_aggregates(x, y, w_fwd, w_bwd, d_out)
    order = None
    if mode == "sequential":
        # Rows are laid out in the sweep's random visiting order, so the
        # recurrence below reads its precomputed rows front to back.
        order = ensure_rng(seed).permutation(n)
        x, y, w_fwd, w_bwd, d_in = (a[order]
                                    for a in (x, y, w_fwd, w_bwd, d_in))
    z = np.empty((n, 2 * k_prime))
    u = np.empty((n, 2 * k_prime))
    num0 = np.empty(n)
    denom = np.empty(n)
    # The BLAS products run once over all rows, threaded by BLAS itself:
    # BLAS calls from several chunk threads at once contend for the same
    # cores and measured slower than one thread. The chunk map does the
    # row-wise rest.
    np.matmul(y, agg.lam_mat.T, out=z[:, :k_prime])   # row v: lam_mat @ y[v]
    inp = _SweepInputs(x=x, y=y, w_fwd=w_fwd, w_bwd=w_bwd, d_in=d_in,
                       lam=lam, xy=np.einsum("ij,ij->i", x, y),
                       wf2=w_fwd * w_fwd, y_xi=y @ agg.xi, y_chi=y @ agg.chi,
                       yy_phi=None if exact_b1 else (y * y) @ agg.phi)
    parallel_map(_sweep_chunk, iter_chunks(n, chunk_size), inp, z, u, num0,
                 denom, workers=workers)
    r = np.concatenate([agg.rho1, agg.rho2])

    if order is None:
        # Jacobi: every coordinate from the same (frozen) aggregates
        new = np.where(denom > 1e-300,
                       (num0 - z @ r) / np.maximum(denom, 1e-300), floor)
        return np.maximum(floor, new)

    # Gauss-Seidel. Plain-python sequences of row views keep the
    # per-node interpreter overhead at three calls.
    z_rows = list(z)
    u_rows = list(u)
    num0_l = num0.tolist()
    denom_l = denom.tolist()
    w0_l = w_bwd.astype(np.float64).tolist()
    new_l = [0.0] * n
    dot = np.dot
    for i in range(n):
        d = denom_l[i]
        numer = num0_l[i] - dot(r, z_rows[i])
        new = floor if d <= 1e-300 else max(floor, numer / d)
        delta = new - w0_l[i]
        if delta != 0.0:
            r += delta * u_rows[i]                       # Eq. (11) / (26)
        new_l[i] = new
    out = np.empty(n)
    out[order] = new_l
    return out


def update_backward_weights(x: np.ndarray, y: np.ndarray, w_fwd: np.ndarray,
                            w_bwd: np.ndarray, d_out: np.ndarray,
                            d_in: np.ndarray, lam: float, *,
                            mode: str = "sequential", exact_b1: bool = False,
                            seed=None, chunk_size: int | None = None,
                            workers: int = 1) -> np.ndarray:
    """One epoch of Algorithm 2 (``updateBwdWeights``); returns new weights.

    ``chunk_size`` (``None`` = :data:`repro.ppr.DEFAULT_CHUNK_SIZE`) and
    ``workers`` shape the chunk precomputation only; see the module
    docstring.
    """
    _check_inputs(x, y, w_fwd, w_bwd)
    return _update(x, y, w_fwd, w_bwd, d_out, d_in, lam, mode=mode,
                   exact_b1=exact_b1, seed=seed, chunk_size=chunk_size,
                   workers=workers)


def update_forward_weights(x: np.ndarray, y: np.ndarray, w_fwd: np.ndarray,
                           w_bwd: np.ndarray, d_out: np.ndarray,
                           d_in: np.ndarray, lam: float, *,
                           mode: str = "sequential", exact_b1: bool = False,
                           seed=None, chunk_size: int | None = None,
                           workers: int = 1) -> np.ndarray:
    """One epoch of Algorithm 4 (``updateFwdWeights``); returns new weights.

    The forward sweep is the backward sweep with the roles of
    ``(x, w_fwd, d_out)`` and ``(y, w_bwd, d_in)`` exchanged, which is
    how the engine evaluates it.
    """
    _check_inputs(x, y, w_fwd, w_bwd)
    return _update(y, x, w_bwd, w_fwd, d_in, d_out, lam, mode=mode,
                   exact_b1=exact_b1, seed=seed, chunk_size=chunk_size,
                   workers=workers)


# ----------------------------------------------------------------------
# Naive O(n k') / O(n^2) reference implementations of the Eq. (7) / (23)
# terms, used by the test suite to validate the accelerated formulas.
# ----------------------------------------------------------------------

def naive_backward_terms(x: np.ndarray, y: np.ndarray, w_fwd: np.ndarray,
                         w_bwd: np.ndarray, d_out: np.ndarray,
                         d_in: np.ndarray, v: int,
                         ) -> tuple[float, float, float, float, float]:
    """``(a1, a2, a3, b1_exact, b2)`` for node ``v`` straight from Eq. (7)."""
    _check_inputs(x, y, w_fwd, w_bwd)
    n = x.shape[0]
    s = x @ y[v]                        # s[u] = X_u . Y_v
    ws = w_fwd * s
    a1 = float((d_out * ws).sum())
    a2 = float(d_in[v] * (ws.sum() - ws[v]))
    # G[u, v'] = w_fwd[u] (X_u . Y_v') w_bwd[v']
    g = (w_fwd[:, None] * (x @ y.T)) * w_bwd[None, :]
    row_sums = g.sum(axis=1) - g[np.arange(n), np.arange(n)] - g[:, v]
    # v' = v was subtracted twice for u = v; add it back once
    row_sums[v] += g[v, v]
    a3 = float((row_sums * ws).sum())
    b1 = float((ws * ws).sum() - ws[v] * ws[v])
    b2 = float((ws.sum() - ws[v]) ** 2)
    return a1, a2, a3, b1, b2


def naive_forward_terms(x: np.ndarray, y: np.ndarray, w_fwd: np.ndarray,
                        w_bwd: np.ndarray, d_out: np.ndarray,
                        d_in: np.ndarray, u: int,
                        ) -> tuple[float, float, float, float, float]:
    """``(a1', a2', a3', b1'_exact, b2')`` for node ``u`` from Eq. (23)."""
    _check_inputs(x, y, w_fwd, w_bwd)
    n = x.shape[0]
    s = y @ x[u]                        # s[v] = X_u . Y_v
    ws = w_bwd * s
    a1 = float((d_in * ws).sum())
    a2 = float(d_out[u] * (ws.sum() - ws[u]))
    g = (w_fwd[:, None] * (x @ y.T)) * w_bwd[None, :]
    col_sums = g.sum(axis=0) - g[np.arange(n), np.arange(n)] - g[u, :]
    col_sums[u] += g[u, u]
    a3 = float((col_sums * ws).sum())
    b1 = float((ws * ws).sum() - ws[u] * ws[u])
    b2 = float((ws.sum() - ws[u]) ** 2)
    return a1, a2, a3, b1, b2
