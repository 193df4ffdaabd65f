"""Rectangular increments, 2D rho-variation and 2D Young sums.

A bivariate function is stored on a product grid; its rectangular increment
over [s,t] x [u,v] is f(s,u) + f(t,v) - f(s,v) - f(t,u).  The rho-variation
sup ranges over pairs of sub-dissections of the grid; ``exact`` mode gets
the true sup by enumerating one axis and running a dynamic program on the
other (the objective is additive over that axis's intervals once the first
axis is fixed), and ``local-search`` alternates exact DP steps per axis.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "GridFunction2D",
    "YoungResult",
    "rect_increment",
    "rho_variation",
    "young_integral_2d",
    "young_constant",
    "bilinear_eval",
]

EXACT_INTERVAL_CAP = 16
# starting dissections of local-search mode
LOCAL_SEARCH_RESTARTS = 4
# finest Young refinement, in intervals per side; one 2^12 grid matrix is 128 MiB
YOUNG_INTERVAL_CAP = 1 << 12
# budget for one block of n x n dissection weight matrices in _exact_sum
_EXACT_BLOCK_BYTES = 1 << 21
# budget for one block of grid rows of f and g in young_integral_2d
_YOUNG_BLOCK_BYTES = 1 << 20


def _check_exponent(p: float, name: str):
    if not 1.0 <= p < np.inf:
        raise ValueError(f"{name} must be finite and >= 1")


def _scaled_root(total, peak, rho: float):
    """total(None) ** (1/rho), total(M) being the sup over dissections of
    the sum of (|increment| / M)^rho, leading axes batch.  Where the plain
    sum overflows, or is 0 while peak() > 0, it is taken again with
    M = peak() and the root scaled back by M: the variation is homogeneous
    of degree 1.  Scaling moves the last bits, so it is only a fallback.  A
    sum that is still not finite, or still 0, raises."""
    with np.errstate(over="ignore", invalid="ignore"):
        s = total(None)
        redo = ~np.isfinite(s) | (s == 0.0)
        M = peak() if np.any(redo) else 1.0
        redo &= M > 0.0
        M = np.where(redo, M, 1.0)
        if np.any(redo):
            s = np.where(redo, total(M), s)
    if not np.all(np.isfinite(s)) or np.any(redo & (s == 0.0)):
        raise ValueError(f"the rho = {rho} variation sum is not finite, or underflows to 0")
    return np.asarray(M * s ** (1.0 / rho))[()]


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


def _uniform_grid(intervals: int, end: float = 1.0) -> np.ndarray:
    """The intervals + 1 uniform points of [0, end].  Counts outside
    [1, YOUNG_INTERVAL_CAP] are rejected before anything is allocated: that
    is where a Gram matrix on the grid passes 128 MiB."""
    if intervals < 1:
        raise ValueError(f"grid_intervals must be >= 1, got {intervals}")
    if intervals > YOUNG_INTERVAL_CAP:
        raise ValueError(f"grid_intervals must be <= {YOUNG_INTERVAL_CAP}, got {intervals}")
    return np.linspace(0.0, end, intervals + 1)


def _dyadic_grid(level: int, name: str = "grid_level") -> np.ndarray:
    """The 2^level + 1 dyadic points of [0, 1], 0 <= level <= 12."""
    if level < 0:
        raise ValueError(f"{name} must be >= 0, got {level}")
    if level > YOUNG_INTERVAL_CAP.bit_length() - 1:
        raise ValueError(f"{name} needs 2^{level} grid intervals, more than "
                         f"the {YOUNG_INTERVAL_CAP} allowed")
    return _uniform_grid(2 ** level)


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


def rect_increment(f: GridFunction2D, s: float, t: float, u: float, v: float) -> float:
    """f(s,u) + f(t,v) - f(s,v) - f(t,u); for a covariance this is the
    increment correlation E(X_{s,t} X_{u,v})."""
    a, b = _positions(f.s_grid, [s, t], "s, t")
    c, e = _positions(f.t_grid, [u, v], "u, v")
    if b < a or e < c:
        raise ValueError("need s <= t and u <= v")
    V = f.values
    return float(V[a, c] + V[b, e] - V[a, e] - V[b, c])


def _pair_weights(D: np.ndarray, rho: float, out: np.ndarray) -> np.ndarray:
    """out[u, v] = |D[v] - D[u]|^rho, formed in place."""
    np.abs(np.subtract(D[None, :], D[:, None], out=out), out=out)
    out **= rho
    return out


def _col_pair_weights(V: np.ndarray, rows, rho: float) -> np.ndarray:
    """B[u, v] = sum_r |D_r[v] - D_r[u]|^rho, D_r = V[rows[r+1]] - V[rows[r]],
    added in place one interval of the row dissection ``rows`` at a time."""
    B = _pair_weights(V[rows[1]] - V[rows[0]], rho, np.empty((V.shape[1],) * 2))
    W = np.empty_like(B)
    for a, b in zip(rows[1:-1], rows[2:]):
        B += _pair_weights(V[b] - V[a], rho, W)
    return B


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


def _pvar_root(rows, p: float):
    """(sup over sub-dissections of the sum of pair values^p)^{1/p} through
    _scaled_root, where rows() yields, for i = 0, ..., n-2, the values over
    the pairs (t_i, t_j), j > i, batch axes first; peak() is the largest
    pair value, so the largest scaled term is exactly 1."""

    def total(M):
        # a numpy scalar, not a 0-d array: their powers round differently
        return _longest_path(row ** p if M is None else (row / M[..., None]) ** p
                             for row in rows())[..., -1][()]

    return _scaled_root(total, lambda: functools.reduce(
        np.maximum, (row.max(axis=-1) for row in rows())), p)


def _dp_best_columns(B: np.ndarray) -> tuple[list, float]:
    """A heaviest path from first to last index of B, and its weight."""
    best = _longest_path(_upper_rows(B))
    cols = [B.shape[0] - 1]
    while cols[-1] != 0:
        j = cols[-1]
        cols.append(int(np.argmax(best[:j] + B[:j, j])))
    return cols[::-1], float(best[-1])


def _exact_sum(V: np.ndarray, rho: float) -> float:
    """True sup of the two-axis dissection sum: every sub-dissection of the
    smaller axis, grouped by interval count and scored in blocks by the
    batched column DP.  A dissection's column weights sum the row-pair
    slices W[p] of its intervals first interval first, the order in which
    ``_col_pair_weights`` sums them for one dissection."""
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
        _pair_weights(D, rho, W[p])
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
        cols = _dp_best_columns(_col_pair_weights(V, rows, rho))[0]
        for _ in range(60):
            rows = _dp_best_columns(_col_pair_weights(V.T, cols, rho))[0]
            # the column step is also the new row dissection's score
            cols, new = _dp_best_columns(_col_pair_weights(V, rows, rho))
            if new <= score * (1 + 1e-13):
                score = max(score, new)
                break
            score = new
        best = max(best, score)
    return best


def rho_variation(
    f: GridFunction2D,
    rho: float,
    mode: str = "exact",
    seed: int = 0,
) -> float:
    """Grid rho-variation of f over its whole grid, on the variation scale
    (the rho-th root of the optimized sum).

    exact: true sup over all sub-dissection pairs (one axis must have at
      most EXACT_INTERVAL_CAP intervals).
    local-search: alternating per-axis DP ascent from LOCAL_SEARCH_RESTARTS
      starting dissections; certified lower bound, achieved by a concrete
      dissection pair and often the optimum.
    """
    _check_exponent(rho, "rho")
    sums = {"exact": lambda V: _exact_sum(V, rho),
            "local-search": lambda V: _alternating_sum(V, rho, seed)}
    if mode not in sums:
        raise ValueError(f"unknown mode {mode!r}")
    V = f.values
    # max |f|, or 0 where every cell increment, and so the variation, is 0
    peak = lambda: np.max(np.abs(V)) * np.any(np.diff(np.diff(V, axis=0), axis=1))
    return float(_scaled_root(lambda M: sums[mode](V if M is None else V / M), peak, rho))


def bilinear_eval(f: GridFunction2D, S: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of the stored grid at the product S x T."""
    i, a = _cell(f.s_grid, np.asarray(S, dtype=float)[:, None])
    j, b = _cell(f.t_grid, np.asarray(T, dtype=float)[None, :])
    V = f.values
    return (
        (1 - a) * (1 - b) * V[i, j]
        + (1 - a) * b * V[i, j + 1]
        + a * (1 - b) * V[i + 1, j]
        + a * b * V[i + 1, j + 1]
    )


@dataclass(frozen=True)
class YoungResult:
    value: float
    level_values: list
    diffs: list
    converged: bool


def _left_point_sum(F: np.ndarray, G: np.ndarray, out: np.ndarray) -> None:
    """Write F[i, j] times G's rectangular increment over cell (i, j) into
    out[i, j], for every cell of the grid rows that F and G hold."""
    np.multiply(F[:-1, :-1], np.diff(np.diff(G, axis=0), axis=1), out=out)


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
    data h (exact where h comes from piecewise-linear interpolation).  They
    must be pointwise: entry [i, j] depends on S[i] and T[j] alone, because
    each level evaluates them on blocks of about _YOUNG_BLOCK_BYTES of grid
    rows, each with the next block's first row as its closing row.  A level
    holds one product array of |s| - 1 by |t| - 1 cells and one block, and
    sums the products as one array.  The finest grid may have at most
    YOUNG_INTERVAL_CAP intervals per side.
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
        P = np.empty((s_cur.size - 1, t_cur.size - 1))
        step = max(1, _YOUNG_BLOCK_BYTES // (8 * t_cur.size))
        for lo in range(0, P.shape[0], step):
            hi = min(lo + step, P.shape[0])
            F = np.asarray(f_eval(s_cur[lo : hi + 1], t_cur), dtype=float)
            G = np.asarray(g_eval(s_cur[lo : hi + 1], t_cur), dtype=float)
            if not (np.all(np.isfinite(F)) and np.all(np.isfinite(G))):
                raise ValueError(f"non-finite grid values at refinement level {level}")
            _left_point_sum(F, G, P[lo:hi])
        vals.append(float(np.sum(P)))
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


# Euler-Maclaurin coefficients (2k)!/B_2k of cephes' Hurwitz zeta
_ZETA_A = (12.0, -720.0, 30240.0, -1209600.0, 47900160.0,
           -1.8924375803183791606e9, 7.47242496e10, -2.950130727918164224e12,
           1.1646782814350067249e14, -4.5979787224074726105e15,
           1.8152105401943546773e17, -7.1661652561756670113e18)
_MACHEP = 1.11022302462515654042e-16


def _zeta(x: float) -> float:
    """Riemann zeta(x) for x > 1: the cephes Hurwitz zeta at q = 1, which
    scipy.special.zeta(x, 1) runs, with its operations in the same order,
    so the bits are scipy's.  It sums n^-x directly up to n = 10 (or until a
    term no longer moves the sum), then adds the Euler-Maclaurin tail."""
    s, a, b = 1.0, 1.0, 0.0
    while a < 10.0:
        a += 1.0
        b = math.pow(a, -x)
        s += b
        if abs(b / s) < _MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a, k = 1.0, 0.0
    for c in _ZETA_A:
        a *= x + k
        b /= w
        t = a * b / c
        s += t
        if abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


def _check_young(a: float, b: float, names=("p", "q"), about: str = ""):
    """Exponents a, b >= 1 with 1/a + 1/b > 1, where a 2D Young integral of
    an a-variation integrand against a b-variation one exists (Towghi 2002)."""
    for v, name in zip((a, b), names):
        _check_exponent(v, name)
    if 1.0 / a + 1.0 / b <= 1.0:
        raise ValueError(f"1/{names[0]} + 1/{names[1]} = 1/{a:g} + 1/{b:g} must exceed 1{about}")


def young_constant(p: float, q: float) -> float:
    """Uniform constant used in the Young bound: (1 + zeta(1/p + 1/q))^2."""
    _check_young(p, q)
    return (1.0 + _zeta(1.0 / p + 1.0 / q)) ** 2
