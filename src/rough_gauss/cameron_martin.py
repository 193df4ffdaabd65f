"""Finite-rank Cameron-Martin elements and the variation embedding.

An element is h(t) = sum_k z_k R(t_k, t), the mean response to the Gaussian
functional Z = sum_k z_k X_{t_k}; the inner product is the Gram form
z^T R(t_k, t_l) z'.  The embedding estimate bounds the 1D rho-variation of
h on [0,1] by sqrt<h,h> times the square root of the covariance's 2D
rho-variation over [0,1]^2, both evaluated on a shared grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import CovarianceKernel, fbm_cov, square_variation
from .variation_2d import (EXACT_INTERVAL_CAP, _check_exponent, _longest_path, _scaled_root,
                           _uniform_grid)

__all__ = [
    "CMElement",
    "cm_eval",
    "cm_inner",
    "cm_norm_sq",
    "pvar_1d",
    "EmbeddingResult",
    "embedding_check",
    "fbm_increment_response_check",
]


@dataclass(frozen=True)
class CMElement:
    kernel: CovarianceKernel
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ValueError("nodes and weights must be matching 1-d arrays")
        if np.any(nodes < 0.0) or np.any(nodes > 1.0):
            raise ValueError("nodes must lie in [0, 1]")
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
            raise ValueError("non-finite element data")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


def cm_eval(h: CMElement, t) -> np.ndarray:
    """h(t) = sum_k z_k R(t_k, t), vectorized over t."""
    t = np.asarray(t, dtype=float)
    vals = h.kernel.eval(h.nodes[:, None], t[None, ...] if t.ndim else t)
    return np.tensordot(h.weights, np.atleast_2d(vals), axes=(0, 0)).reshape(t.shape)


def cm_inner(h: CMElement, g: CMElement) -> float:
    """<h, g> = E(Z_h Z_g) through the Gram matrix of the joined nodes."""
    if h.kernel.key != g.kernel.key:
        raise ValueError("inner product needs a common kernel")
    cross = h.kernel.eval(h.nodes[:, None], g.nodes[None, :])
    return float(h.weights @ cross @ g.weights)


def cm_norm_sq(h: CMElement) -> float:
    v = cm_inner(h, h)
    # Gram forms are PSD up to roundoff
    return max(v, 0.0)


def pvar_1d(values, rho: float):
    """Exact grid rho-variation of a scalar sequence by the longest-path
    dynamic program; leading axes are batch."""
    _check_exponent(rho, "rho")
    x = np.asarray(values, dtype=float)
    n = x.shape[-1]
    if n < 2:
        return np.zeros(x.shape[:-1])[()]

    def total(v):
        rows = (np.abs(v[..., i + 1 :] - v[..., i, None]) ** rho for i in range(n - 1))
        # a numpy scalar, not a 0-d array: their powers round differently
        return _longest_path(rows)[..., -1][()]

    return _scaled_root(total, x, rho, 1)


@dataclass(frozen=True)
class EmbeddingResult:
    ok: bool
    lhs: float
    rhs: float
    slack: float
    mode: str


# The 2D variation of R over [0,1]^2 does not depend on the element, only on
# the kernel and grid; batch checks reuse it.
_RVAR_CACHE: dict = {}


def _r_variation(kernel: CovarianceKernel, grid_intervals: int, rho: float) -> float:
    key = (kernel.key, grid_intervals, rho)
    hit = _RVAR_CACHE.get(key)
    if hit is None:
        hit = _RVAR_CACHE[key] = square_variation(kernel, 1.0, grid_intervals, rho)
    return hit


def embedding_check(
    h: CMElement,
    rho: float | None = None,
    grid_intervals: int = 16,
) -> EmbeddingResult:
    """|h|_{rho-var;[0,1]} <= sqrt<h,h> sqrt(|R|_{rho-var;[0,1]^2}) on a
    shared uniform grid of [0, 1].

    Both sides are grid-restricted; the bound is dissection-wise, so the
    restricted version is a theorem too.  Up to EXACT_INTERVAL_CAP (16)
    intervals the 2D side is the true grid sup (mode "exact"); beyond that
    the alternating lower bound is used and only consistency is claimed
    (mode "consistent").
    """
    grid = _uniform_grid(grid_intervals)
    rho = float(h.kernel.rho if rho is None else rho)
    lhs = float(pvar_1d(cm_eval(h, grid), rho))
    var = _r_variation(h.kernel, grid_intervals, rho)
    rhs = float(np.sqrt(cm_norm_sq(h)) * np.sqrt(var))
    slack = rhs - lhs
    ok = lhs <= rhs + 1e-9 * (1.0 + rhs)
    mode = "exact" if grid_intervals <= EXACT_INTERVAL_CAP else "consistent"
    return EmbeddingResult(bool(ok), lhs, rhs, float(slack), mode)


def fbm_increment_response_check(H: float) -> dict:
    """For fractional Brownian motion, h(u) = E(B_u (B_t - B_s)) restricted
    to [s,t] has 1/(2H)-variation bounded by a constant times |t-s|^{2H},
    each [s,t] sampled with 16 uniform intervals.

    h is the finite-rank element with nodes (t, s), weights (1, -1).
    Stationary increments plus self-similarity make the ratio
    |h|_{1/(2H)-var;[s,t]} / |t-s|^{2H} depend only on the grid resolution,
    not on the dyadic interval; the scan over the dyadic levels 1, 2 and 3
    confirms that and returns the worst case.
    """
    if not 0.0 < H <= 0.5:
        raise ValueError("H must be in (0, 1/2]")
    kernel = fbm_cov(H)
    rho = kernel.rho
    grid_intervals = 16
    ratios = {}
    for level in (1, 2, 3):
        n = 2 ** level
        level_ratios = []
        for k in range(n):
            s, t = k / n, (k + 1) / n
            h = CMElement(kernel, np.array([t, s]), np.array([1.0, -1.0]))
            grid = np.linspace(s, t, grid_intervals + 1)
            lhs = float(pvar_1d(cm_eval(h, grid), rho))
            level_ratios.append(lhs / (t - s) ** (2.0 * H))
        ratios[level] = level_ratios
    flat = [r for rs in ratios.values() for r in rs]
    return {
        "H": H,
        "rho": rho,
        "grid_intervals": grid_intervals,
        "ratios": ratios,
        "max_ratio": max(flat),
        "ratio_spread": max(flat) - min(flat),
    }
