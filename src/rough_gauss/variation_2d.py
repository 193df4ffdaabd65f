"""Rectangular increments, 2D rho-variation, controls, and 2D Young sums.

A bivariate function is stored on a product grid; its rectangular increment
over [s,t] x [u,v] is f(s,u) + f(t,v) - f(s,v) - f(t,u).  The rho-variation
sup ranges over pairs of sub-dissections of the grid; ``exact`` mode gets
the true sup by enumerating one axis and running a dynamic program on the
other (the objective is additive over that axis's intervals once the first
axis is fixed), ``local-search`` alternates exact DP steps per axis, and
``common-subdivision`` optimizes a single shared dissection and reports the
comparison factor to the full two-axis sup.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

__all__ = [
    "GridFunction2D",
    "Control2D",
    "VariationResult",
    "YoungResult",
    "rect_increment",
    "rho_variation",
    "rho_prime_limit_check",
    "young_integral_2d",
    "young_constant",
    "young_bound_check",
    "control_from_variation",
    "bilinear_eval",
]

EXACT_INTERVAL_CAP = 16
# starting dissections of local-search mode
LOCAL_SEARCH_RESTARTS = 4
# finest Young refinement, in intervals per side; one 2^12 grid matrix is 128 MiB
YOUNG_INTERVAL_CAP = 1 << 12
# budget for one block of n x n dissection weight matrices in _exact_sum
_EXACT_BLOCK_BYTES = 1 << 21


def _check_exponent(p: float, name: str):
    if not 1.0 <= p < np.inf:
        raise ValueError(f"{name} must be finite and >= 1")


def _check_grid(g: np.ndarray, name: str):
    if g.ndim != 1 or g.size < 2:
        raise ValueError(f"{name} must be 1-d with at least two points")
    if not np.all(np.diff(g) > 0):
        raise ValueError(f"{name} must be strictly increasing")


def _check_times(times: np.ndarray):
    """A dissection of [0, 1]: strictly increasing from 0 to 1."""
    _check_grid(times, "grid")
    if times[0] != 0.0 or times[-1] != 1.0:
        raise ValueError("grid must start at 0 and end at 1")


def _positions(grid: np.ndarray, values, what: str):
    """Indices of ``values`` in ``grid``; every value must be a grid point."""
    pos = np.minimum(np.searchsorted(grid, values), grid.size - 1)
    if np.any(grid[pos] != values):
        raise ValueError(f"{what} not on the grid: {values!r}")
    return pos


def _cell(grid: np.ndarray, x):
    """The cell i of each x, grid[i] <= x < grid[i+1] clamped to the end
    cells, and the fraction (x - grid[i]) / (grid[i+1] - grid[i])."""
    i = np.clip(np.searchsorted(grid, x, side="right") - 1, 0, grid.size - 2)
    return i, (x - grid[i]) / (grid[i + 1] - grid[i])


@dataclass(frozen=True)
class GridFunction2D:
    """Real function sampled on a product grid: values[i, j] = f(s_i, t_j)."""

    s_grid: np.ndarray
    t_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s_grid, dtype=float)
        t = np.asarray(self.t_grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        _check_grid(s, "s_grid")
        _check_grid(t, "t_grid")
        if v.shape != (s.size, t.size):
            raise ValueError("values shape must be (len(s_grid), len(t_grid))")
        if not np.all(np.isfinite(v)):
            raise ValueError("non-finite grid values")
        for a in (s, t, v):
            a.setflags(write=False)
        object.__setattr__(self, "s_grid", s)
        object.__setattr__(self, "t_grid", t)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class Control2D:
    """2D control: nonnegative, zero on degenerate rectangles, super-additive
    in each slot under grid-aligned splits.  ``evaluator`` maps (s, t, u, v)
    to the control of [s,t] x [u,v]."""

    evaluator: Callable[[float, float, float, float], float]

    def __call__(self, s: float, t: float, u: float, v: float) -> float:
        if t < s or v < u:
            raise ValueError("need s <= t and u <= v")
        if t == s or v == u:
            return 0.0
        return float(self.evaluator(s, t, u, v))


@dataclass(frozen=True)
class VariationResult:
    """Outcome of a rho-variation computation.

    ``value`` is on the variation scale (the rho-th root of the optimized
    sum).  ``exact`` means the true grid sup; otherwise the value is a
    certified lower bound (achieved by a concrete dissection pair).
    ``metadata`` carries mode-specific extras, e.g. the common-subdivision
    comparison factor and implied upper bound.
    """

    value: float
    rho: float
    mode: str
    exact: bool
    lower_bound: bool
    metadata: dict = field(default_factory=dict)


def rect_increment(f: GridFunction2D, s: float, t: float, u: float, v: float) -> float:
    """f(s,u) + f(t,v) - f(s,v) - f(t,u); for a covariance this is the
    increment correlation E(X_{s,t} X_{u,v})."""
    a, b = _positions(f.s_grid, [s, t], "s, t")
    c, e = _positions(f.t_grid, [u, v], "u, v")
    if b < a or e < c:
        raise ValueError("need s <= t and u <= v")
    V = f.values
    return float(V[a, c] + V[b, e] - V[a, e] - V[b, c])


def _restrict(f: GridFunction2D, rect):
    if rect is None:
        return f.values, f.s_grid, f.t_grid
    s, t, u, v = rect
    a, b = _positions(f.s_grid, [s, t], "s, t")
    c, e = _positions(f.t_grid, [u, v], "u, v")
    if b <= a or e <= c:
        raise ValueError("rectangle must be non-degenerate")
    return f.values[a : b + 1, c : e + 1], f.s_grid[a : b + 1], f.t_grid[c : e + 1]


def _col_pair_weights(R: np.ndarray, rho: float) -> np.ndarray:
    """B[u, v] = sum_r |R[r, v] - R[r, u]|^rho for all column pairs."""
    D = np.abs(R[:, None, :] - R[:, :, None]) ** rho
    return D.sum(axis=0)


def _upper_rows(W: np.ndarray):
    """The rows W[..., i, i+1:], i = 0, ..., n-2, of an upper-triangular
    weight matrix, in the order :func:`_longest_path` takes them."""
    return (W[..., i, i + 1 :] for i in range(W.shape[-1] - 1))


def _longest_path(rows) -> np.ndarray:
    """best[..., j]: heaviest path from index 0 to j, where the i-th of the
    rows holds the weights W[..., i, j] of the edges i -> j for j > i;
    leading axes are batch.

    This is the sup over sub-dissections of an objective that is additive
    over consecutive intervals, so best[j] = max_{i<j} best[i] + W[i, j]
    is exact.  Rows are pushed forward as they arrive: once rows 0..i-1 are
    in, best[..., i] is final, so callers can stream rows without forming W.
    """
    rows = iter(rows)
    first = next(rows)
    best = np.empty(first.shape[:-1] + (first.shape[-1] + 1,))
    best[..., 0] = 0.0
    best[..., 1:] = first
    for i, row in enumerate(rows, 1):
        tail = best[..., i + 1 :]
        np.maximum(tail, best[..., i, None] + row, out=tail)
    return best


def _dp_best_columns(B: np.ndarray) -> list:
    """Indices of a heaviest path from first to last index of B."""
    best = _longest_path(_upper_rows(B))
    cols = [B.shape[0] - 1]
    while cols[-1] != 0:
        j = cols[-1]
        cols.append(int(np.argmax(best[:j] + B[:j, j])))
    return cols[::-1]


def _row_diffs(V: np.ndarray, rows) -> np.ndarray:
    C = V[rows, :]
    return C[1:, :] - C[:-1, :]


def _score_given_rows(V: np.ndarray, rows, rho: float) -> float:
    W = _col_pair_weights(_row_diffs(V, rows), rho)
    return float(_longest_path(_upper_rows(W))[-1])


def _exact_sum(V: np.ndarray, rho: float) -> float:
    """True sup of the two-axis dissection sum: every sub-dissection of the
    smaller axis, grouped by interval count and scored in blocks by the
    batched column DP.  A dissection's column weights sum the row-pair
    slices W[p] of its intervals first interval first, the order in which
    ``_score_given_rows`` sums them for one dissection."""
    if V.shape[0] > V.shape[1]:
        V = V.T
    m, n = V.shape
    if m - 1 > EXACT_INTERVAL_CAP:
        raise ValueError(
            f"exact mode needs <= {EXACT_INTERVAL_CAP} intervals on one axis, got {m - 1}"
        )
    a, b = np.triu_indices(m, 1)
    pair = np.zeros((m, m), dtype=np.intp)
    pair[a, b] = np.arange(a.size)
    W = np.empty((a.size, n, n))
    for p, D in enumerate(V[b] - V[a]):
        np.subtract(D[None, :], D[:, None], out=W[p])
        np.abs(W[p], out=W[p])
        W[p] **= rho
    block = max(1, _EXACT_BLOCK_BYTES // W[0].nbytes)
    best = 0.0
    for k in range(m - 1):
        cuts = itertools.combinations(range(1, m - 1), k)
        rows = np.fromiter(itertools.chain.from_iterable((0, *c, m - 1) for c in cuts),
                           np.intp).reshape(-1, k + 2)
        idx = pair[rows[:, :-1], rows[:, 1:]]
        for lo in range(0, idx.shape[0], block):
            S = W[idx[lo : lo + block, 0]]
            for j in range(1, k + 1):
                S += W[idx[lo : lo + block, j]]
            best = max(best, float(_longest_path(_upper_rows(S))[:, -1].max()))
    return best


def _alternating_sum(V: np.ndarray, rho: float, seed: int):
    """Coordinate-ascent lower bound: alternately fix the row dissection and
    optimize columns exactly by DP, then swap axes, until stationary."""
    m, n = V.shape
    rng = np.random.default_rng(seed)
    best = 0.0
    starts = [list(range(m))]
    for _ in range(LOCAL_SEARCH_RESTARTS - 1):
        keep = rng.random(m - 2) < rng.uniform(0.3, 0.9)
        starts.append([0] + [i + 1 for i in range(m - 2) if keep[i]] + [m - 1])
    for rows in starts:
        score = -1.0
        for _ in range(60):
            cols = _dp_best_columns(_col_pair_weights(_row_diffs(V, rows), rho))
            rows = _dp_best_columns(_col_pair_weights(_row_diffs(V.T, cols), rho))
            new = _score_given_rows(V, rows, rho)
            if new <= score * (1 + 1e-13):
                score = max(score, new)
                break
            score = new
        best = max(best, score)
    return best


def _common_subdivision_sum(V: np.ndarray, rho: float) -> float:
    """Best single dissection used on both axes (square grids only),
    hill-climbing over point removals/insertions from the full grid."""
    m = V.shape[0]

    def score(pts):
        C = V[np.ix_(pts, pts)]
        G = np.diff(np.diff(C, axis=0), axis=1)
        return float(np.sum(np.abs(G) ** rho))

    pts = list(range(m))
    cur = score(pts)
    improved = True
    while improved:
        improved = False
        for q in range(1, m - 1):
            if q in pts:
                trial = [x for x in pts if x != q]
            else:
                trial = sorted(pts + [q])
            s = score(trial)
            if s > cur * (1 + 1e-13):
                cur, pts = s, trial
                improved = True
    return cur


def rho_variation(
    f: GridFunction2D,
    rho: float,
    rect=None,
    mode: str = "exact",
    seed: int = 0,
) -> VariationResult:
    """Grid rho-variation of f over ``rect`` (default: whole domain).

    exact: true sup over all sub-dissection pairs (one axis must have at
      most EXACT_INTERVAL_CAP intervals).
    local-search: alternating per-axis DP ascent from LOCAL_SEARCH_RESTARTS
      starting dissections; certified lower bound, often the optimum.
    common-subdivision: single shared dissection (square rectangles on a
      shared grid); metadata reports the factor bounding the full sup:
      sup^rho <= 3^(rho-1) * common^rho.
    """
    _check_exponent(rho, "rho")
    V, sg, tg = _restrict(f, rect)
    if mode == "exact":
        s = _exact_sum(V, rho)
        return VariationResult(s ** (1.0 / rho), rho, mode, True, True)
    if mode == "local-search":
        s = _alternating_sum(V, rho, seed)
        return VariationResult(s ** (1.0 / rho), rho, mode, False, True)
    if mode == "common-subdivision":
        if sg.size != tg.size or np.any(sg != tg):
            raise ValueError("common-subdivision mode needs a square rectangle on a shared grid")
        s = _common_subdivision_sum(V, rho)
        value = s ** (1.0 / rho)
        factor = 3.0 ** (rho - 1.0)
        return VariationResult(
            value,
            rho,
            mode,
            False,
            True,
            metadata={
                "comparison_factor_power_scale": factor,
                "upper_bound": value * factor ** (1.0 / rho),
            },
        )
    raise ValueError(f"unknown mode {mode!r}")


def rho_prime_limit_check(f: GridFunction2D, rho: float) -> dict:
    """Evaluate the exact variation at rho' = rho + 2^-k, k = 0..4, and report
    the approach to the rho value from below as rho' decreases to rho."""
    limit = rho_variation(f, rho)
    rho_primes = [rho + 2.0 ** (-k) for k in range(5)]
    vals = [rho_variation(f, rp).value for rp in rho_primes]
    monotone = all(a <= b + 1e-12 for a, b in zip(vals[:-1], vals[1:]))
    bounded = all(v <= limit.value + 1e-12 for v in vals)
    return {
        "rho": rho,
        "rho_prime": rho_primes,
        "values": vals,
        "limit_value": limit.value,
        "monotone_increasing_to_limit": bool(monotone and bounded),
    }


def _blend(f: GridFunction2D, s, t):
    """Bilinear blend of the stored grid values, elementwise in the
    broadcast points (s, t)."""
    i, a = _cell(f.s_grid, np.asarray(s, dtype=float))
    j, b = _cell(f.t_grid, np.asarray(t, dtype=float))
    V = f.values
    return (
        (1 - a) * (1 - b) * V[i, j]
        + (1 - a) * b * V[i, j + 1]
        + a * (1 - b) * V[i + 1, j]
        + a * b * V[i + 1, j + 1]
    )


def bilinear_eval(f: GridFunction2D, S: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of the stored grid at the product S x T."""
    S = np.asarray(S, dtype=float)
    T = np.asarray(T, dtype=float)
    return _blend(f, S[:, None], T[None, :])


@dataclass(frozen=True)
class YoungResult:
    value: float
    level_values: list
    diffs: list
    converged: bool


def _left_point_sum(F: np.ndarray, G: np.ndarray) -> float:
    rect = np.diff(np.diff(G, axis=0), axis=1)
    return float(np.sum(F[:-1, :-1] * rect))


def young_integral_2d(
    f_eval: Callable,
    g_eval: Callable,
    s_grid,
    t_grid,
    levels: int = 4,
) -> YoungResult:
    """Left-point 2D Riemann-Stieltjes sum of f against the rectangular
    increments of g on s_grid x t_grid, recomputed on ``levels`` dyadic
    refinements.

    ``f_eval``/``g_eval`` are vectorized (S, T) -> matrix evaluators, e.g.
    a kernel's ``grid_eval``, or ``partial(bilinear_eval, h)`` for grid
    data h (exact where h comes from piecewise-linear interpolation).  The
    finest grid may have at most YOUNG_INTERVAL_CAP intervals per side.
    ``converged`` means the last refinement moved the sum by less than 1e-6
    relative, or the steps shrink monotonically over at least 3 refinements.
    """
    if levels < 1:
        raise ValueError(f"need levels >= 1 refinements, got {levels}")
    s_cur = np.asarray(s_grid, dtype=float)
    t_cur = np.asarray(t_grid, dtype=float)
    _check_grid(s_cur, "s_grid")
    _check_grid(t_cur, "t_grid")
    # checked before any evaluation; with n >= 1, n << levels exceeds the
    # cap once levels reaches its bit length, and min() keeps a huge levels
    # from building a huge integer
    n = max(s_cur.size, t_cur.size) - 1
    if n << min(levels, YOUNG_INTERVAL_CAP.bit_length()) > YOUNG_INTERVAL_CAP:
        raise ValueError(
            f"levels={levels} refines the {s_cur.size - 1} x {t_cur.size - 1} grid "
            f"beyond {YOUNG_INTERVAL_CAP} intervals per side"
        )
    vals = []
    for level in range(levels + 1):
        if level:
            s_cur = np.sort(np.concatenate([s_cur, (s_cur[:-1] + s_cur[1:]) / 2]))
            t_cur = np.sort(np.concatenate([t_cur, (t_cur[:-1] + t_cur[1:]) / 2]))
        F = np.asarray(f_eval(s_cur, t_cur), dtype=float)
        G = np.asarray(g_eval(s_cur, t_cur), dtype=float)
        if not (np.all(np.isfinite(F)) and np.all(np.isfinite(G))):
            raise ValueError(f"non-finite grid values at refinement level {level}")
        vals.append(_left_point_sum(F, G))
    diffs = [abs(b - a) for a, b in zip(vals[:-1], vals[1:])]
    scale = max(abs(vals[-1]), 1e-12)
    monotone = len(diffs) >= 3 and all(
        a >= b - 1e-15 * scale for a, b in zip(diffs[:-1], diffs[1:]))
    converged = diffs[-1] < 1e-6 * scale or monotone
    return YoungResult(vals[-1], vals, diffs, bool(converged))


def _from_corner(ev: Callable, s0: float, t0: float) -> Callable:
    """Evaluator of the increments of ``ev`` from the corner (s0, t0),
    (S, T) -> ev(S, T) - ev(s0, T) - ev(S, t0) + ev(s0, t0): it vanishes on
    the lines s = s0 and t = t0 and keeps every rectangular increment."""
    s0 = np.array([s0], dtype=float)
    t0 = np.array([t0], dtype=float)

    def inc(S, T):
        return ev(S, T) - ev(s0, T) - ev(S, t0) + ev(s0, t0)[0, 0]

    return inc


def young_constant(p: float, q: float) -> float:
    """Uniform constant used in the Young bound: (1 + zeta(1/p + 1/q))^2."""
    _check_exponent(p, "p")
    _check_exponent(q, "q")
    theta = 1.0 / p + 1.0 / q
    if theta <= 1.0:
        raise ValueError("need 1/p + 1/q > 1")
    # deferred: importing scipy.special costs ~0.3 s at every process start
    from scipy.special import zeta

    return float((1.0 + zeta(theta, 1)) ** 2)


def young_bound_check(
    f: GridFunction2D,
    g: GridFunction2D,
    q: float,
    p: float,
    levels: int = 4,
    f_eval: Callable | None = None,
    g_eval: Callable | None = None,
) -> bool:
    """|∫ f~ dg| <= C_{p,q} |f|_{q-var} |g|_{p-var} with f~ the increments
    of f from the grid's lower corner (vanishing on the lower edges), C from
    young_constant and exact variations.  ``f_eval``/``g_eval`` value f and
    g off the grid; by default they are bilinear interpolations."""
    C = young_constant(p, q)
    sf, tf = f.s_grid, f.t_grid
    if not (np.array_equal(sf, g.s_grid) and np.array_equal(tf, g.t_grid)):
        raise ValueError("f and g must share their grid")
    fe = _from_corner(f_eval or partial(bilinear_eval, f), sf[0], tf[0])
    integral = young_integral_2d(fe, g_eval or partial(bilinear_eval, g), sf, tf,
                                 levels=levels)
    var_f = rho_variation(f, q).value
    var_g = rho_variation(g, p).value
    return bool(abs(integral.value) <= C * var_f * var_g * (1 + 1e-12) + 1e-15)


def control_from_variation(f: GridFunction2D, rho: float) -> Control2D:
    """omega([s,t] x [u,v]) = |f|_{rho-var; rect}^rho, exact, which is
    super-additive in each slot."""

    def ev(s, t, u, v):
        return rho_variation(f, rho, rect=(s, t, u, v)).value ** rho

    return Control2D(ev)
