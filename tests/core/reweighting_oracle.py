"""Parity oracle: Algorithms 2/4 as the paper writes them, one node at a time.

The library's reweighting engine precomputes every ``rho``-independent
term over row chunks and runs a fused recurrence (see
:mod:`repro.core.reweighting`). These loops evaluate Eq. (8) / Eq. (23)
per node straight from the shared aggregates instead, with the
incremental ``rho`` updates of Eq. (11) / (26). They take the engine's
arguments, so a fit can be run through them with :func:`fit_with_oracle`
and compared against the engine.

``mode="jacobi"`` runs the same loop with ``rho`` frozen, which is the
Jacobi update by definition.
"""

from __future__ import annotations

from unittest import mock

import numpy as np

from repro.core import backward_aggregates, forward_aggregates
from repro.errors import ParameterError
from repro.rng import ensure_rng


def solve(numerator: float, denominator: float, floor: float) -> float:
    """The clamped closed-form coordinate minimizer."""
    if denominator <= 1e-300:
        return floor
    return max(floor, numerator / denominator)


def oracle_backward_weights(x, y, w_fwd, w_bwd, d_out, d_in, lam, *,
                            mode="sequential", exact_b1=False, seed=None,
                            chunk_size=None, workers=1):
    """One epoch of Algorithm 2 (``updateBwdWeights``), per node."""
    if mode not in ("sequential", "jacobi"):
        raise ParameterError(f"unknown update mode {mode!r}")
    n, k_prime = x.shape
    floor = 1.0 / n
    agg = backward_aggregates(x, y, w_fwd, w_bwd, d_out)
    xy = np.einsum("ij,ij->i", x, y)
    wf2 = w_fwd * w_fwd

    rng = ensure_rng(seed)
    out = w_bwd.astype(np.float64).copy()
    rho1 = agg.rho1.copy()
    rho2 = agg.rho2.copy()
    for v in rng.permutation(n):
        yv = y[v]
        xv = x[v]
        xy_v = xy[v]
        lam_yv = agg.lam_mat @ yv
        y_lam_y = float(yv @ lam_yv)
        a1 = float(agg.xi @ yv)
        proj = float(agg.chi @ yv) - w_fwd[v] * xy_v
        a2 = d_in[v] * proj
        b2 = proj * proj
        a3 = (float(rho1 @ lam_yv) - out[v] * y_lam_y - float(rho2 @ yv)
              + out[v] * wf2[v] * xy_v * xy_v)
        if exact_b1:
            b1 = y_lam_y - wf2[v] * xy_v * xy_v
        else:
            b1 = 0.5 * k_prime * (float((yv * yv) @ agg.phi)
                                  - wf2[v] * float(((yv * xv) ** 2).sum()))
        new = solve(a1 + a2 - a3, b1 + b2 + lam, floor)
        delta = new - out[v]
        if delta != 0.0:
            if mode == "sequential":
                rho1 += delta * yv                               # Eq. (11)
                rho2 += delta * wf2[v] * xy_v * xv
            out[v] = new
    return out


def oracle_forward_weights(x, y, w_fwd, w_bwd, d_out, d_in, lam, *,
                           mode="sequential", exact_b1=False, seed=None,
                           chunk_size=None, workers=1):
    """One epoch of Algorithm 4 (``updateFwdWeights``), per node."""
    if mode not in ("sequential", "jacobi"):
        raise ParameterError(f"unknown update mode {mode!r}")
    n, k_prime = x.shape
    floor = 1.0 / n
    agg = forward_aggregates(x, y, w_fwd, w_bwd, d_in)
    xy = np.einsum("ij,ij->i", x, y)
    wb2 = w_bwd * w_bwd

    rng = ensure_rng(seed)
    out = w_fwd.astype(np.float64).copy()
    rho1 = agg.rho1.copy()
    rho2 = agg.rho2.copy()
    for u in rng.permutation(n):
        xu = x[u]
        yu = y[u]
        xy_u = xy[u]
        lam_xu = agg.lam_mat @ xu
        x_lam_x = float(xu @ lam_xu)
        a1 = float(agg.xi @ xu)
        proj = float(agg.chi @ xu) - w_bwd[u] * xy_u
        a2 = d_out[u] * proj
        b2 = proj * proj
        a3 = (float(rho1 @ lam_xu) - out[u] * x_lam_x - float(rho2 @ xu)
              + out[u] * wb2[u] * xy_u * xy_u)
        if exact_b1:
            b1 = x_lam_x - wb2[u] * xy_u * xy_u
        else:
            b1 = 0.5 * k_prime * (float((xu * xu) @ agg.phi)
                                  - wb2[u] * float(((xu * yu) ** 2).sum()))
        new = solve(a1 + a2 - a3, b1 + b2 + lam, floor)
        delta = new - out[u]
        if delta != 0.0:
            if mode == "sequential":
                rho1 += delta * xu                               # Eq. (26)
                rho2 += delta * wb2[u] * xy_u * yu
            out[u] = new
    return out


def fit_with_oracle(model, graph):
    """``model.fit(graph)`` with its sweeps run by the loops above."""
    with mock.patch.multiple("repro.core.nrp",
                             update_backward_weights=oracle_backward_weights,
                             update_forward_weights=oracle_forward_weights):
        return model.fit(graph)
