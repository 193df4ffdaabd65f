"""Chen lifts of piecewise-linear paths and homogeneous path metrics.

A piecewise-linear path in R^d lifts to the step-3 group by multiplying
segment exponentials; the lift at grid point k is exp(dx_1) (x) ... (x)
exp(dx_k).  Distances between lifted paths (sup, 0-Hoelder, alpha-Hoelder,
p-variation) are computed exactly over the stored grid.

Paths may carry leading batch dimensions on ``points``; all metrics then
return arrays over the batch.  Serialization handles single paths only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_algebra import (
    GroupElement,
    TruncatedTensor,
    exp_trunc,
    group_inverse,
    homogeneous_norm,
    shuffle_residual,
    tensor_mul,
    zero_tensor,
)
from .variation_2d import _longest_path

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


def _check_times(times: np.ndarray):
    if times.ndim != 1 or times.size < 2:
        raise ValueError("need a 1-d grid with at least two times")
    if times[0] != 0.0 or times[-1] != 1.0:
        raise ValueError("grid must start at 0 and end at 1")
    if np.any(np.diff(times) <= 0):
        raise ValueError("grid times must be strictly increasing")


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


def _take(t: TruncatedTensor, key) -> TruncatedTensor:
    """Index the trailing batch axis (the grid axis) of a tensor batch."""
    return TruncatedTensor(
        t.dim,
        t.level0[..., key],
        t.level1[..., key, :],
        t.level2[..., key, :, :],
        t.level3[..., key, :, :, :],
    )


def _stack(tensors) -> TruncatedTensor:
    d = tensors[0].dim
    return TruncatedTensor(
        d,
        np.stack([t.level0 for t in tensors], axis=-1),
        np.stack([t.level1 for t in tensors], axis=-2),
        np.stack([t.level2 for t in tensors], axis=-3),
        np.stack([t.level3 for t in tensors], axis=-4),
    )


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
        start = _take(self.values.tensor, 0)
        if (
            np.max(np.abs(start.level1)) > 1e-12
            or np.max(np.abs(start.level2)) > 1e-12
            or np.max(np.abs(start.level3)) > 1e-12
        ):
            raise ValueError("values[0] must be the identity")
        res = shuffle_residual(self._subsample_for_validation())
        if np.any(res > 1e-8):
            raise ValueError("path values are not group-like")
        times.setflags(write=False)
        object.__setattr__(self, "times", times)

    def _subsample_for_validation(self, cap: int = 2048) -> GroupElement:
        t = self.values.tensor
        total = int(np.prod(t.batch_shape))
        d = t.dim
        flat = TruncatedTensor(
            d,
            t.level0.reshape(total),
            t.level1.reshape(total, d),
            t.level2.reshape(total, d, d),
            t.level3.reshape(total, d, d, d),
        )
        if total <= cap:
            return GroupElement(flat)
        idx = np.linspace(0, total - 1, cap).astype(int)
        return GroupElement(_take(flat, idx))

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
    """Yield the Chen products exp(dx_1) (x) ... (x) exp(dx_k) for
    k = 0, ..., m, the first being the identity.

    ``increments`` has shape (..., m, d); every yielded GroupElement has
    batch shape (...).
    """
    increments = np.asarray(increments, dtype=float)
    d = increments.shape[-1]
    z = zero_tensor(d, increments.shape[:-2])
    cur = exp_trunc(z)
    yield cur
    for j in range(increments.shape[-2]):
        seg = exp_trunc(
            TruncatedTensor(d, z.level0, increments[..., j, :], z.level2, z.level3)
        )
        cur = tensor_mul(cur, seg)
        yield cur


def lift_increments(increments: np.ndarray) -> GroupElement:
    """Cumulative Chen product of segment exponentials.

    ``increments`` has shape (..., m, d); the result is a GroupElement with
    batch shape (..., m+1), starting at the identity.
    """
    return GroupElement(_stack([g.tensor for g in _chen_prefixes(increments)]))


def lift_s3(path: PiecewisePath) -> GroupPath:
    """Step-3 Chen lift: values[k] = exp(dx_1) (x) ... (x) exp(dx_k)."""
    incs = np.diff(path.points, axis=-2)
    return GroupPath(path.times, lift_increments(incs))


def _time_index(times: np.ndarray, t: float) -> int:
    i = int(np.searchsorted(times, t))
    if i >= times.size or times[i] != t:
        raise ValueError(f"time {t!r} is not on the grid")
    return i


def increment(gp: GroupPath, s: float, t: float) -> GroupElement:
    """Group increment x_s^{-1} (x) x_t for grid times s <= t."""
    i, j = _time_index(gp.times, s), _time_index(gp.times, t)
    if i > j:
        raise ValueError("need s <= t")
    xs = GroupElement(_take(gp.values.tensor, i))
    xt = GroupElement(_take(gp.values.tensor, j))
    return tensor_mul(group_inverse(xs), xt)


def _require_same_grid(x: GroupPath, y: GroupPath):
    if x.times.shape != y.times.shape or np.any(x.times != y.times):
        raise ValueError("paths must share one grid; refine first")
    if x.dim != y.dim:
        raise ValueError("dimension mismatch")


def dist_inf(x: GroupPath, y: GroupPath):
    """sup over grid times of the homogeneous distance d(x_t, y_t)."""
    _require_same_grid(x, y)
    d = homogeneous_norm(
        tensor_mul(group_inverse(x.values), y.values)
    )
    return np.max(d, axis=-1)


def _pair_rows(x: GroupPath, y: GroupPath | None = None):
    """Yield, for i = 0, ..., n-2, the batched row d(x_{t_i,t_j}, y_{t_i,t_j})
    over j > i, or the increment norms ||x_{t_i,t_j}|| when y is None.  Every
    pair metric reduces this stream, so its memory stays O(batch x grid)."""
    n = x.n_times

    def incs(path, i):
        inv = group_inverse(GroupElement(_take(path.values.tensor, i)))
        tail = GroupElement(_take(path.values.tensor, slice(i + 1, n)))
        # _take with None inserts a length-1 grid axis so the single inverse
        # broadcasts against all later grid points at once
        return tensor_mul(GroupElement(_take(inv.tensor, None)), tail)

    for i in range(n - 1):
        inc = incs(x, i)
        if y is not None:
            inc = tensor_mul(group_inverse(inc), incs(y, i))
        yield homogeneous_norm(inc)


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
    if p < 1.0:
        raise ValueError("p must be >= 1")
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
    pos = np.searchsorted(new_times, path.times)
    if np.any(pos >= new_times.size) or np.any(new_times[pos] != path.times):
        raise ValueError("new grid must contain every existing breakpoint")
    flat = path.points.reshape(-1, path.n_times, path.dim)
    out = np.empty((flat.shape[0], new_times.size, path.dim))
    for b in range(flat.shape[0]):
        for k in range(path.dim):
            out[b, :, k] = np.interp(new_times, path.times, flat[b, :, k])
    # pin original breakpoints exactly, interpolation only fills new points
    out[:, pos, :] = flat
    return PiecewisePath(new_times, out.reshape(path.points.shape[:-2] + (new_times.size, path.dim)))


def write_path_csv(path: PiecewisePath, file) -> None:
    if path.points.ndim != 2:
        raise ValueError("only single (unbatched) paths serialize to CSV")
    header = "t," + ",".join(f"x{k+1}" for k in range(path.dim))
    data = np.column_stack([path.times, path.points])
    np.savetxt(file, data, delimiter=",", header=header, comments="", fmt="%.17g")


def read_path_csv(file) -> PiecewisePath:
    data = np.loadtxt(file, delimiter=",", skiprows=1, ndmin=2)
    return PiecewisePath(data[:, 0], data[:, 1:])
