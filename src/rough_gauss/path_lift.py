"""Chen lifts of piecewise-linear paths and homogeneous path metrics.

A piecewise-linear path in R^d lifts to the step-3 group by multiplying
segment exponentials; the lift at grid point k is exp(dx_1) (x) ... (x)
exp(dx_k).  Distances between lifted paths (sup, 0-Hoelder, alpha-Hoelder,
p-variation) are computed exactly over the stored grid.

Paths may carry leading batch dimensions on ``points``; all metrics then
return arrays over the batch.  Serialization handles single paths only.

Lifted values are stored word-first like every tensor, with the grid as
the last batch axis (level3[i, j, k, *batch, n]).  The Chen loop and the
pair-distance stream call the raw kernels of ``tensor_algebra`` on them
directly: the Chen loop writes each prefix into the grid axis in place,
and the pair stream copies each block of batch rows (about 1 MiB of
levels) once and forms the increments of every grid row on views of it.
Every product there is of two group elements, so both use the group
multiply ``_gmul``, and a Chen step exponentiates its segment with
``_exp_segment``, which forms no zero levels; both give the bytes of the
general kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_algebra import (
    GroupElement,
    TruncatedTensor,
    _exp_segment,
    _gmul,
    _inverse,
    _norm,
    _shuffle_residual,
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
    "restrict_to",
    "write_path_csv",
    "read_path_csv",
]

# level bytes of one word-first block of batch rows in the pair stream
# (8 738 lifted points for d = 2, so 34 rows at 257 points): numpy loops stay
# long while the temporaries of a grid row stay in a per-core cache.  On a
# 2-core Xeon (4 MiB L2) holder_dist over 200 x 257 points took 2.5-3.2 s
# for kernel calls of 4 096 to 16 384 pairs and 3.9-5.1 s for 32 768 or more.
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
        if 0 in points.shape[:-2]:
            raise ValueError(f"points batch shape {points.shape[:-2]} holds no paths")
        # nan propagates through min and max, so checking both extremes is
        # the entrywise check without an entry-sized temporary
        if not (np.all(np.isfinite(times))
                and np.isfinite(points.min(initial=0.0))
                and np.isfinite(points.max(initial=0.0))):
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

    @property
    def samples(self) -> np.ndarray:
        """``points`` under the name perfbench/tracer.py counts the values of
        ``sample`` by; it goes when the tracer reads ``points``."""
        return self.points


def _index(levels, key):
    """Index the trailing batch axis (the grid axis) of raw level arrays."""
    return tuple(a[..., key] for a in levels)


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
        if 0 in bshape[:-1]:
            raise ValueError(f"values batch shape {bshape[:-1]} holds no paths")
        levels = self.values.tensor.levels()
        if any(np.max(np.abs(a)) > 1e-12 for a in _index(levels, 0)[1:]):
            raise ValueError("values[0] must be the identity")
        # shuffle check on a deterministic subsample of at most 2048
        # elements; a nan residual fails it
        total = int(np.prod(bshape))
        flat = tuple(a.reshape(a.shape[:k] + (total,)) for k, a in enumerate(levels))
        if total > 2048:
            flat = _index(flat, np.linspace(0, total - 1, 2048).astype(int))
        if not np.all(_shuffle_residual(flat) <= 1e-8):
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


def _chen_prefixes(increments: np.ndarray, depth: int = 3):
    """Yield the word-first raw levels 0..depth of the Chen products
    exp(dx_1) (x) ... (x) exp(dx_k) for k = 0, ..., m, the first being the
    identity.

    ``increments`` has shape (..., m, d); every yielded level tuple has
    batch shape (...).  Only one step's increments are moved to word-first
    layout at a time.  Level k of a product reads only levels <= k, so
    depth 2 yields levels 0-2 of depth 3 bit for bit, without forming
    level 3.
    """
    increments = np.asarray(increments, dtype=float)
    d, batch = increments.shape[-1], increments.shape[:-2]
    cur = _exp_segment(np.zeros((d,) + batch), depth)  # the identity, exp(0)
    yield cur
    for j in range(increments.shape[-2]):
        dx = np.ascontiguousarray(np.moveaxis(increments[..., j, :], -1, 0))
        cur = _gmul(cur, _exp_segment(dx, depth), depth)
        yield cur


def lift_increments(increments: np.ndarray) -> GroupElement:
    """Cumulative Chen product of segment exponentials.

    ``increments`` has shape (..., m, d); the result is a GroupElement with
    batch shape (..., m+1), starting at the identity.
    """
    *batch, m, d = np.shape(increments)
    out = tuple(np.empty((d,) * k + (*batch, m + 1)) for k in range(4))
    for j, cur in enumerate(_chen_prefixes(increments)):
        for dst, src in zip(_index(out, j), cur):
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
    inc = _gmul(_inverse(_index(levels, i)), _index(levels, j))
    return GroupElement(TruncatedTensor(gp.dim, *inc))


def _require_same_grid(x: GroupPath, y: GroupPath):
    if x.times.shape != y.times.shape or np.any(x.times != y.times):
        raise ValueError("paths must share one grid; refine first")
    if x.dim != y.dim:
        raise ValueError("dimension mismatch")
    if x.batch_shape != y.batch_shape:
        raise ValueError("paths must share one batch shape")


def _flat(path: GroupPath):
    """Word-first levels of the path with the batch flattened: (..., B, n)."""
    return tuple(a.reshape(a.shape[:k] + (-1, path.n_times))
                 for k, a in enumerate(path.values.tensor.levels()))


def _blocks(x: GroupPath, y: GroupPath | None = None):
    """Yield, block after block of batch rows, a contiguous word-first copy
    (..., rows, n) of the levels of x, and of y when given.  A block holds
    about _BLOCK_BYTES of levels per path; the pair stream works on views
    of it."""
    d, n = x.dim, x.n_times
    step = max(1, _BLOCK_BYTES // (8 * (1 + d + d * d + d**3) * n))
    flats = [_flat(p) for p in (x, y) if p is not None]
    for lo in range(0, flats[0][0].shape[0], step):
        yield tuple(tuple(np.ascontiguousarray(a[..., lo : lo + step, :]) for a in f)
                    for f in flats)


def _reduce_blocks(x: GroupPath, y: GroupPath | None, reduce):
    """reduce(*block) of every block of x (and y), a (rows,) array, joined
    into an array of x's batch shape."""
    out = np.concatenate([reduce(*block) for block in _blocks(x, y)])
    return out.reshape(x.batch_shape)[()]


def dist_inf(x: GroupPath, y: GroupPath):
    """sup over grid times of the homogeneous distance d(x_t, y_t)."""
    _require_same_grid(x, y)
    return _reduce_blocks(x, y, lambda lx, ly: np.max(_norm(_gmul(_inverse(lx), ly)), axis=-1))


def _pair_rows(lx, ly=None):
    """Yield, for i = 0, ..., n-2, the rows d(x_{t_i,t_j}, y_{t_i,t_j}) over
    j > i of one block from _blocks, or the increment norms ||x_{t_i,t_j}||
    when ly is None.  x_{t_i}^{-1} broadcasts along its row as (..., rows, 1),
    so the increments are formed on views of the block."""
    n = lx[0].shape[-1]

    def incs(levels, i):
        return _gmul(_inverse(_index(levels, slice(i, i + 1))), _index(levels, slice(i + 1, n)))

    for i in range(n - 1):
        inc = incs(lx, i)
        if ly is not None:
            inc = _gmul(_inverse(inc), incs(ly, i))
        yield _norm(inc)


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


def _holder(x: GroupPath, y: GroupPath | None, alpha: float):
    return _reduce_blocks(x, y, lambda *block: _holder_sup(x.times, _pair_rows(*block), alpha))


def dist_0(x: GroupPath, y: GroupPath):
    """max over grid pairs s < t of d(x_{s,t}, y_{s,t})."""
    _require_same_grid(x, y)
    return _holder(x, y, 0.0)


def holder_dist(x: GroupPath, y: GroupPath, alpha: float):
    """sup over grid pairs of d(x_{s,t}, y_{s,t}) / (t-s)^alpha."""
    _check_alpha(alpha)
    _require_same_grid(x, y)
    return _holder(x, y, alpha)


def holder_norm(x: GroupPath, alpha: float):
    """sup over grid pairs of ||x_{s,t}|| / (t-s)^alpha."""
    _check_alpha(alpha)
    return _holder(x, None, alpha)


def path_inf_norm(x: GroupPath):
    """sup over grid times of ||x_t||."""
    return np.max(homogeneous_norm(x.values), axis=-1)


def _pvar(x: GroupPath, y: GroupPath | None, p: float):
    """(sup over sub-dissections of the sum of pair values^p)^{1/p}."""
    _check_exponent(p, "p")
    return _reduce_blocks(x, y, lambda *block: _longest_path(
        row ** p for row in _pair_rows(*block))[..., -1] ** (1.0 / p))


def pvar_dist(x: GroupPath, y: GroupPath, p: float):
    """sup over sub-dissections D of (sum_i d(x_{t_i,t_{i+1}}, y_{t_i,t_{i+1}})^p)^{1/p}."""
    _require_same_grid(x, y)
    return _pvar(x, y, p)


def pvar_norm(x: GroupPath, p: float):
    """sup over sub-dissections D of (sum_i ||x_{t_i,t_{i+1}}||^p)^{1/p}."""
    return _pvar(x, None, p)


# ---------------------------------------------------------------------------
# Grid refinement, restriction and serialization


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


def restrict_to(path: PiecewisePath, D) -> PiecewisePath:
    """The same path on a sub-dissection: X^D_t = X_t for t in D."""
    D = np.asarray(D, dtype=float)
    _check_times(D)
    return PiecewisePath(D, path.points[..., _positions(path.times, D, "D"), :])


def write_path_csv(path: PiecewisePath, file) -> None:
    if path.points.ndim != 2:
        raise ValueError("only single (unbatched) paths serialize to CSV")
    header = "t," + ",".join(f"x{k+1}" for k in range(path.dim))
    data = np.column_stack([path.times, path.points])
    np.savetxt(file, data, delimiter=",", header=header, comments="", fmt="%.17g")


def read_path_csv(file) -> PiecewisePath:
    data = np.loadtxt(file, delimiter=",", skiprows=1, ndmin=2)
    return PiecewisePath(data[:, 0], data[:, 1:])
