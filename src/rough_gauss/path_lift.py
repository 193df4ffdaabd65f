"""Chen lifts of piecewise-linear paths and homogeneous path metrics.

A piecewise-linear path in R^d lifts to the step-3 group by multiplying
segment exponentials; the lift at grid point k is exp(dx_1) (x) ... (x)
exp(dx_k).  Distances between lifted paths (sup, 0-Hoelder, alpha-Hoelder,
p-variation) are computed exactly over the stored grid.

Paths may carry leading batch dimensions on ``points``; all metrics then
return arrays over the batch.  Serialization handles single paths only.

Lifted values are stored batch-first like every public tensor.  The Chen
loop and the pair-distance stream run the word-first raw kernels of
``tensor_algebra`` instead: the Chen loop moves one increment step at a
time to word-first layout, and the pair stream one block of about 1 MiB of
levels, so no word-first copy of a whole ensemble is made.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .tensor_algebra import (
    GroupElement,
    TruncatedTensor,
    _exp,
    _from_words,
    _inverse,
    _mul,
    _norm,
    _shuffle_residual,
    _to_words,
    homogeneous_norm,
)
from .variation_2d import (
    _cell,
    _check_exponent,
    _check_times,
    _longest_path,
    _positions,
)

__all__ = [
    "PiecewisePath",
    "GroupPath",
    "lift_s3",
    "lift_increments",
    "increment",
    "dist_inf",
    "dist_0",
    "holder_dist",
    "holder_norm",
    "pvar_dist",
    "pvar_norm",
    "path_inf_norm",
    "refine_path",
    "union_times",
    "write_path_csv",
    "read_path_csv",
]

# level bytes of one word-first block of the pair stream (8 738 grid pairs
# for d = 2): numpy loops stay long while a block's temporaries stay in a
# per-core cache.  On a 2-core Xeon (4 MiB L2) holder_dist over 200 x 257
# points took 2.5-3.2 s for blocks of 4 096 to 16 384 pairs and 3.9-5.1 s
# for 32 768 or more.
_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class PiecewisePath:
    """Piecewise-linear path on a grid over [0, 1].

    ``points`` has shape (..., n, d): the grid axis is second to last, so a
    whole Monte Carlo ensemble can live in one object.
    """

    times: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        points = np.asarray(self.points, dtype=float)
        _check_times(times)
        if points.ndim < 2 or points.shape[-2] != times.size:
            raise ValueError("points must have shape (..., n_times, d)")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(points))):
            raise ValueError("non-finite path data")
        times.setflags(write=False)
        points.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "points", points)

    @property
    def dim(self) -> int:
        return self.points.shape[-1]

    @property
    def n_times(self) -> int:
        return self.times.size


def _index(levels, key):
    """Index the trailing batch axis (the grid axis) of raw level arrays."""
    return tuple(a[(..., key) + (slice(None),) * k] for k, a in enumerate(levels))


def _take(t: TruncatedTensor, key) -> TruncatedTensor:
    return TruncatedTensor(t.dim, *_index(t.levels(), key))


@dataclass(frozen=True)
class GroupPath:
    """Group-valued path on a grid: ``values`` is a GroupElement batch whose
    trailing batch axis runs over the grid, and values[0] is the identity.

    Full shuffle validation of every element is skipped for large ensembles
    (a deterministic subsample is checked instead); lifts produced by
    :func:`lift_s3` are group-like by construction.
    """

    times: np.ndarray
    values: GroupElement

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        _check_times(times)
        bshape = self.values.batch_shape
        if len(bshape) < 1 or bshape[-1] != times.size:
            raise ValueError("values batch must end with the grid axis")
        levels = self.values.tensor.levels()
        if any(np.max(np.abs(a)) > 1e-12 for a in _index(levels, 0)[1:]):
            raise ValueError("values[0] must be the identity")
        # shuffle check on a deterministic subsample of at most 2048
        # elements; a nan residual fails it
        total = int(np.prod(bshape))
        flat = tuple(a.reshape((total,) + a.shape[len(bshape):]) for a in levels)
        if total > 2048:
            flat = _index(flat, np.linspace(0, total - 1, 2048).astype(int))
        if not np.all(_shuffle_residual(_to_words(flat)) <= 1e-8):
            raise ValueError("path values are not group-like")
        times.setflags(write=False)
        object.__setattr__(self, "times", times)

    @property
    def dim(self) -> int:
        return self.values.dim

    @property
    def n_times(self) -> int:
        return self.times.size

    @property
    def batch_shape(self) -> tuple:
        return self.values.batch_shape[:-1]


def _chen_prefixes(increments: np.ndarray):
    """Yield the word-first raw levels of the Chen products exp(dx_1) (x)
    ... (x) exp(dx_k) for k = 0, ..., m, the first being the identity.

    ``increments`` has shape (..., m, d); every yielded level tuple has
    batch shape (...).  Only one step's increments are moved to word-first
    layout at a time.
    """
    increments = np.asarray(increments, dtype=float)
    d = increments.shape[-1]
    batch = increments.shape[:-2]
    z0, z2, z3 = np.zeros(batch), np.zeros((d, d) + batch), np.zeros((d, d, d) + batch)
    cur = _exp((z0, np.zeros((d,) + batch), z2, z3))
    yield cur
    for j in range(increments.shape[-2]):
        dx = np.ascontiguousarray(np.moveaxis(increments[..., j, :], -1, 0))
        cur = _mul(cur, _exp((z0, dx, z2, z3)))
        yield cur


def lift_increments(increments: np.ndarray) -> GroupElement:
    """Cumulative Chen product of segment exponentials.

    ``increments`` has shape (..., m, d); the result is a GroupElement with
    batch shape (..., m+1), starting at the identity.
    """
    *batch, m, d = np.shape(increments)
    out = tuple(np.empty((*batch, m + 1) + (d,) * k) for k in range(4))
    for j, cur in enumerate(_chen_prefixes(increments)):
        for dst, src in zip(_to_words(_index(out, j)), cur):
            dst[...] = src
    return GroupElement(TruncatedTensor(d, *out))


def lift_s3(path: PiecewisePath) -> GroupPath:
    """Step-3 Chen lift: values[k] = exp(dx_1) (x) ... (x) exp(dx_k)."""
    incs = np.diff(path.points, axis=-2)
    return GroupPath(path.times, lift_increments(incs))


def increment(gp: GroupPath, s: float, t: float) -> GroupElement:
    """Group increment x_s^{-1} (x) x_t for grid times s <= t."""
    i, j = _positions(gp.times, [s, t], "s, t")
    if i > j:
        raise ValueError("need s <= t")
    levels = gp.values.tensor.levels()
    inc = _mul(_inverse(_to_words(_index(levels, i))), _to_words(_index(levels, j)))
    return GroupElement(TruncatedTensor(gp.dim, *_from_words(inc)))


def _require_same_grid(x: GroupPath, y: GroupPath):
    if x.times.shape != y.times.shape or np.any(x.times != y.times):
        raise ValueError("paths must share one grid; refine first")
    if x.dim != y.dim:
        raise ValueError("dimension mismatch")


def _flat(path: GroupPath):
    """Batch-first levels of the path with the batch flattened: (B, n, ...)."""
    return tuple(a.reshape((-1, path.n_times) + a.shape[a.ndim - k:])
                 for k, a in enumerate(path.values.tensor.levels()))


def _block(flat, rows: slice, cols: slice):
    """Contiguous word-first copy of flat levels at [rows, cols], with the
    (row, column) pairs on one trailing axis."""
    return tuple(np.ascontiguousarray(w).reshape(w.shape[:k] + (-1,))
                 for k, w in enumerate(_to_words(tuple(a[rows, cols] for a in flat))))


def _blocked_rows(path: GroupPath, m: int, fn):
    """(*batch, m) array whose batch rows lo:hi are fn(slice(lo, hi)), a flat
    array of the (hi - lo) * m pairs, with about _BLOCK_BYTES of levels per
    call."""
    d = path.dim
    pairs = _BLOCK_BYTES // (8 * (1 + d + d * d + d**3))
    rows = int(np.prod(path.batch_shape))
    out = np.empty((rows, m))
    step = max(1, pairs // m)
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        out[lo:hi] = fn(slice(lo, hi)).reshape(hi - lo, m)
    return out.reshape(path.batch_shape + (m,))


def dist_inf(x: GroupPath, y: GroupPath):
    """sup over grid times of the homogeneous distance d(x_t, y_t)."""
    _require_same_grid(x, y)
    fx, fy, every = _flat(x), _flat(y), slice(None)

    def dist(rows):
        return _norm(_mul(_inverse(_block(fx, rows, every)), _block(fy, rows, every)))

    return np.max(_blocked_rows(x, x.n_times, dist), axis=-1)


def _pair_rows(x: GroupPath, y: GroupPath | None = None):
    """Yield, for i = 0, ..., n-2, the batched row d(x_{t_i,t_j}, y_{t_i,t_j})
    over j > i, or the increment norms ||x_{t_i,t_j}|| when y is None.  Every
    pair metric reduces this stream, so its memory stays O(batch x grid)."""
    n = x.n_times
    flats = [_flat(p) for p in (x, y) if p is not None]

    def incs(flat, i, rows):
        # x_{t_i}^{-1} once per batch element, repeated along its n-1-i pairs
        inv = _inverse(_block(flat, rows, slice(i, i + 1)))
        inv = tuple(np.repeat(a, n - 1 - i, axis=-1) for a in inv)
        return _mul(inv, _block(flat, rows, slice(i + 1, n)))

    def norms(i, rows):
        inc = incs(flats[0], i, rows)
        if y is not None:
            inc = _mul(_inverse(inc), incs(flats[1], i, rows))
        return _norm(inc)

    for i in range(n - 1):
        yield _blocked_rows(x, n - 1 - i, functools.partial(norms, i))


def _check_alpha(alpha: float):
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")


def _holder_sup(times: np.ndarray, rows, alpha: float):
    """max over grid pairs s < t of d_{s,t} / (t-s)^alpha, where the i-th row
    holds d_{t_i,t_j} for j > i; alpha = 0 is the plain max."""
    out = None
    for i, row in enumerate(rows):
        top = np.max(row / (times[i + 1 :] - times[i]) ** alpha, axis=-1)
        out = top if out is None else np.maximum(out, top)
    return out


def dist_0(x: GroupPath, y: GroupPath):
    """max over grid pairs s < t of d(x_{s,t}, y_{s,t})."""
    _require_same_grid(x, y)
    return _holder_sup(x.times, _pair_rows(x, y), 0.0)


def holder_dist(x: GroupPath, y: GroupPath, alpha: float):
    """sup over grid pairs of d(x_{s,t}, y_{s,t}) / (t-s)^alpha."""
    _check_alpha(alpha)
    _require_same_grid(x, y)
    return _holder_sup(x.times, _pair_rows(x, y), alpha)


def holder_norm(x: GroupPath, alpha: float):
    """sup over grid pairs of ||x_{s,t}|| / (t-s)^alpha."""
    _check_alpha(alpha)
    return _holder_sup(x.times, _pair_rows(x), alpha)


def path_inf_norm(x: GroupPath):
    """sup over grid times of ||x_t||."""
    return np.max(homogeneous_norm(x.values), axis=-1)


def _pair_matrix(x: GroupPath, y: GroupPath | None) -> np.ndarray:
    """Full (..., n, n) matrix of pair distances (upper triangle; rest 0)."""
    n = x.n_times
    w = np.zeros(x.batch_shape + (n, n))
    for i, row in enumerate(_pair_rows(x, y)):
        w[..., i, i + 1 :] = row
    return w


def _pvar(rows, p: float):
    """(sup over sub-dissections of the sum of pair values^p)^{1/p}."""
    _check_exponent(p, "p")
    return _longest_path(row ** p for row in rows)[..., -1] ** (1.0 / p)


def pvar_dist(x: GroupPath, y: GroupPath, p: float):
    """sup over sub-dissections D of (sum_i d(x_{t_i,t_{i+1}}, y_{t_i,t_{i+1}})^p)^{1/p}."""
    _require_same_grid(x, y)
    return _pvar(_pair_rows(x, y), p)


def pvar_norm(x: GroupPath, p: float):
    """sup over sub-dissections D of (sum_i ||x_{t_i,t_{i+1}}||^p)^{1/p}."""
    return _pvar(_pair_rows(x), p)


# ---------------------------------------------------------------------------
# Grid refinement and serialization


def union_times(*paths: PiecewisePath) -> np.ndarray:
    grids = [p.times for p in paths]
    out = grids[0]
    for g in grids[1:]:
        out = np.union1d(out, g)
    return out


def refine_path(path: PiecewisePath, new_times: np.ndarray) -> PiecewisePath:
    """Re-express the path on a superset grid.  Linear interpolation is exact
    here because the path is piecewise linear between its own breakpoints."""
    new_times = np.asarray(new_times, dtype=float)
    _check_times(new_times)
    pos = _positions(new_times, path.times, "breakpoints")
    t, x = path.times, path.points
    # slope * (t - t_i) + x_i on the cell [t_i, t_{i+1}) of each new time t
    i, _ = _cell(t, new_times)
    slope = np.diff(x, axis=-2) / np.diff(t)[:, None]
    out = slope[..., i, :] * (new_times - t[i])[:, None] + x[..., i, :]
    # pin original breakpoints exactly, interpolation only fills new points
    out[..., pos, :] = x
    return PiecewisePath(new_times, out)


def write_path_csv(path: PiecewisePath, file) -> None:
    if path.points.ndim != 2:
        raise ValueError("only single (unbatched) paths serialize to CSV")
    header = "t," + ",".join(f"x{k+1}" for k in range(path.dim))
    data = np.column_stack([path.times, path.points])
    np.savetxt(file, data, delimiter=",", header=header, comments="", fmt="%.17g")


def read_path_csv(file) -> PiecewisePath:
    data = np.loadtxt(file, delimiter=",", skiprows=1, ndmin=2)
    return PiecewisePath(data[:, 0], data[:, 1:])
